"""Unit tests for the GCell grid, routing graph, and cost model.

The penalty tests exercise the scalar reference model
(``oracles.cost.CostModel``), whose Eq. 10 penalty term is exposed per
edge; the edge, path and lower-bound costs are checked on the
production :class:`CostField`.
"""

import math

import pytest

from repro.geom import Point, Rect
from repro.db import Blockage
from repro.db.design import GCellGridSpec
from repro.grid import (
    CostField,
    CostParams,
    EdgeKind,
    GCellGrid,
    GridEdge,
    RoutingGraph,
)

from helpers import build_tiny_design
from oracles.cost import CostModel


@pytest.fixture()
def grid():
    return GCellGrid(GCellGridSpec(0, 0, 1000, 1000, 10, 8))


def test_gcell_of_clamps(grid):
    assert grid.gcell_of(Point(-50, -50)) == (0, 0)
    assert grid.gcell_of(Point(10**9, 10**9)) == (9, 7)
    assert grid.gcell_of(Point(1500, 2500)) == (1, 2)


def test_center_and_rect(grid):
    assert grid.center_of(0, 0) == Point(500, 500)
    assert grid.rect_of(2, 3) == Rect(2000, 3000, 3000, 4000)


def test_gcells_overlapping(grid):
    cells = grid.gcells_overlapping(Rect(500, 500, 2500, 1500))
    assert (0, 0) in cells and (2, 1) in cells
    assert len(cells) == 6


def test_manhattan_centers(grid):
    assert grid.manhattan_centers((0, 0), (3, 2)) == 3 * 1000 + 2 * 1000


def test_degenerate_grid_rejected():
    with pytest.raises(ValueError):
        GCellGrid(GCellGridSpec(0, 0, 0, 100, 5, 5))


def test_for_design_derives_grid(tech45):
    design = build_tiny_design(tech45)
    design.gcell_grid = None
    grid = GCellGrid.for_design(design, target_gcells=6)
    assert grid.nx >= 6
    assert design.gcell_grid is not None


# ------------------------------------------------------------------ graph


@pytest.fixture()
def graph(tech45):
    design = build_tiny_design(tech45, num_rows=8, sites_per_row=50)
    design.gcell_grid = GCellGridSpec(0, 0, 2000, 2000, 5, 5)
    g = RoutingGraph(GCellGrid(design.gcell_grid), tech45)
    g.init_fixed_usage(design)
    return g


def test_wire_edge_shapes(graph):
    # Horizontal layer 0: (nx-1, ny); vertical layer 1: (nx, ny-1)
    assert graph.wire_edge_shape(0) == (4, 5)
    assert graph.wire_edge_shape(1) == (5, 4)


def test_capacity_is_tracks_per_gcell(graph, tech45):
    edge = GridEdge(2, 0, 0, EdgeKind.WIRE)
    assert graph.capacity(edge) == 2000 // tech45.layers[2].pitch


def test_wire_usage_roundtrip(graph):
    edge = GridEdge(2, 1, 1, EdgeKind.WIRE)
    before = graph.demand(edge)
    graph.add_wire(edge)
    assert graph.demand(edge) == before + 1
    graph.remove_wire(edge)
    assert graph.demand(edge) == before


def test_invalid_edges_rejected(graph):
    with pytest.raises(ValueError):
        graph.add_wire(GridEdge(0, 99, 0, EdgeKind.WIRE))
    with pytest.raises(ValueError):
        graph.add_via(GridEdge(8, 0, 0, EdgeKind.VIA))  # top layer has no up-via
    with pytest.raises(ValueError):
        graph.demand(GridEdge(0, 0, 0, EdgeKind.VIA))


def test_via_demand_term(graph):
    """Eq. 9: vias at edge endpoints add beta * sqrt((Vsrc+Vdst)/2)."""
    edge = GridEdge(2, 1, 1, EdgeKind.WIRE)
    base = graph.demand(edge)
    graph.add_via(GridEdge(2, 1, 1, EdgeKind.VIA))  # via touching src gcell
    after = graph.demand(edge)
    assert after == pytest.approx(base + 1.5 * math.sqrt(0.5))
    graph.add_via(GridEdge(1, 2, 1, EdgeKind.VIA))  # via touching dst gcell
    assert graph.demand(edge) == pytest.approx(base + 1.5 * math.sqrt(1.0))


def test_apply_route_sign(graph):
    edges = [
        GridEdge(2, 0, 0, EdgeKind.WIRE),
        GridEdge(2, 0, 0, EdgeKind.VIA),
    ]
    graph.apply_route(edges, sign=1)
    assert graph.wire_usage[2][0, 0] == 1
    assert graph.via_usage[2][0, 0] == 1
    graph.apply_route(edges, sign=-1)
    assert graph.total_vias() == 0
    assert graph.overflow() == 0.0


def test_neighbors_respect_layer_direction(graph):
    # Layer 2 horizontal: wire moves change gx only.
    wire_moves = [
        n for n, e in graph.neighbors((2, 2, 2)) if e.kind is EdgeKind.WIRE
    ]
    assert all(n[0] == 2 and n[2] == 2 for n in wire_moves)
    # Layer 1 vertical: wire moves change gy only.
    wire_moves = [
        n for n, e in graph.neighbors((1, 2, 2)) if e.kind is EdgeKind.WIRE
    ]
    assert all(n[0] == 1 and n[1] == 2 for n in wire_moves)


def test_neighbors_min_wire_layer(graph):
    moves = graph.neighbors((0, 2, 2))
    assert all(e.kind is EdgeKind.VIA for _, e in moves)


def test_fixed_usage_from_blockage(tech45):
    design = build_tiny_design(tech45, num_rows=8, sites_per_row=50)
    design.gcell_grid = GCellGridSpec(0, 0, 2000, 2000, 5, 5)
    design.add_blockage(Blockage(2, Rect(0, 0, 4000, 4000)))
    graph = RoutingGraph(GCellGrid(design.gcell_grid), tech45)
    graph.init_fixed_usage(design)
    # Fully covered gcells lose whole capacity but never exceed it.
    assert graph.fixed_usage[2][0, 0] > 0
    assert (graph.fixed_usage[2] <= graph.wire_capacity[2] + 1e-9).all()
    # Other layers untouched.
    assert graph.fixed_usage[3].sum() == 0


def test_congestion_map_shape_and_range(graph):
    graph.add_wire(GridEdge(2, 0, 0, EdgeKind.WIRE), amount=5)
    cmap = graph.congestion_map()
    assert cmap.shape == (5, 5)
    assert cmap.max() > 0


# ------------------------------------------------------------------- cost


def test_penalty_increases_with_demand(graph):
    model = CostModel(graph, CostParams(slope=1.0))
    edge = GridEdge(2, 0, 0, EdgeKind.WIRE)
    empty = model.penalty(edge)
    graph.add_wire(edge, amount=graph.capacity(edge))
    assert model.penalty(edge) > empty
    assert model.penalty(edge) == pytest.approx(0.5, abs=0.01)
    graph.add_wire(edge, amount=100)
    assert model.penalty(edge) > 0.99


def test_penalty_disabled(graph):
    model = CostModel(graph, CostParams(use_penalty=False))
    edge = GridEdge(2, 0, 0, EdgeKind.WIRE)
    graph.add_wire(edge, amount=1000)
    assert model.penalty(edge) == 0.0


def test_via_edge_cost_is_weight(graph):
    model = CostField(graph)
    assert model.edge_cost(GridEdge(0, 0, 0, EdgeKind.VIA)) == 2.0


def test_wire_cost_scales_with_distance(graph):
    model = CostField(graph, CostParams(use_penalty=False))
    cost = model.edge_cost(GridEdge(2, 0, 0, EdgeKind.WIRE))
    # one gcell step = 2000 DBU = 10 M2 pitches, weight 0.5
    assert cost == pytest.approx(0.5 * 10)


def test_lower_bound_is_admissible(graph):
    model = CostField(graph)
    a, b = (0, 0, 0), (3, 4, 2)
    lb = model.lower_bound(a, b)
    # congestion-free direct cost: wire + via stack
    direct = 0.5 * (4 * 2000 + 2 * 2000) / 200 + 2.0 * 3
    assert lb == pytest.approx(direct)


def test_path_cost_sums(graph):
    model = CostField(graph)
    edges = [GridEdge(2, 0, 0, EdgeKind.WIRE), GridEdge(2, 0, 0, EdgeKind.VIA)]
    assert model.path_cost(edges) == pytest.approx(
        model.edge_cost(edges[0]) + model.edge_cost(edges[1])
    )

"""Scalar Eq. 10 cost model: the reference for :class:`CostField`.

Prices one edge per call from :meth:`RoutingGraph.demand` and
:meth:`RoutingGraph.capacity`.  :class:`repro.grid.field.CostField`
computes the same float64 operations in the same order over whole
layers, so its ``edge_cost`` and ``path_cost`` must equal this model's
bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.grid import CostParams, EdgeKind, GridEdge, RoutingGraph
from repro.grid.cost import m2_pitch, wire_edge_dists


def logistic(x: float) -> float:
    """Clamped logistic ``1 / (1 + exp(-x))`` used by the Eq. 10 penalty.

    Uses ``np.exp`` (not ``math.exp``) so the scalar oracle and the
    vectorized kernel round identically — numpy's scalar and array exp
    agree bit-for-bit, while libm's may differ by one ulp.
    """
    if x > 60.0:
        return 1.0
    if x < -60.0:
        return 0.0
    return float(1.0 / (1.0 + np.exp(-x)))


class CostModel:
    """Evaluates Eq. 10 over a :class:`RoutingGraph`."""

    def __init__(self, graph: RoutingGraph, params: CostParams | None = None) -> None:
        self.graph = graph
        self.params = params or CostParams()
        # Normalize wire length to M2-pitch units so wire and via weights
        # are on the contest's common scale.
        self.pitch = m2_pitch(graph.tech)
        self._wire_dist = wire_edge_dists(graph.grid, graph.tech, self.pitch)

    def penalty(self, edge: GridEdge) -> float:
        """Logistic congestion penalty in [0, 1]."""
        if not self.params.use_penalty:
            return 0.0
        demand = self.graph.demand(edge)
        capacity = self.graph.capacity(edge)
        return logistic(self.params.slope * (demand - capacity))

    def edge_cost(self, edge: GridEdge) -> float:
        """Eq. 10 cost of one edge."""
        if edge.kind is EdgeKind.VIA:
            return self.params.via_weight
        return (
            self.params.wire_weight
            * self._wire_dist[edge.layer]
            * (1.0 + self.penalty(edge))
        )

    def path_cost(self, edges: list[GridEdge]) -> float:
        """Total cost of a route (a list of graph edges)."""
        return sum(self.edge_cost(edge) for edge in edges)

    def lower_bound(
        self, a: tuple[int, int, int], b: tuple[int, int, int]
    ) -> float:
        """Admissible A* heuristic: congestion-free cost from ``a`` to ``b``."""
        grid = self.graph.grid
        dist = grid.manhattan_centers((a[1], a[2]), (b[1], b[2])) / self.pitch
        vias = abs(a[0] - b[0])
        return self.params.wire_weight * dist + self.params.via_weight * vias

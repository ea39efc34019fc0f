"""Scalar global routing: pattern, maze and RRR priced edge by edge.

:class:`ScalarGlobalRouter` is a :class:`GlobalRouter` whose every
price comes from the per-edge :class:`oracles.cost.CostModel` instead
of the dense :class:`repro.grid.field.CostField` maps: pattern-route
run costs sum ``edge_cost`` along the run, the RRR overflow scan asks
the graph for each committed edge's demand, and the maze A* prices each
step through the scalar model.  It must route every net exactly as the
production router does.
"""

from __future__ import annotations

import heapq
from itertools import count
from unittest.mock import patch

import repro.groute.maze as maze_module
from repro.grid import CostParams, EdgeKind, GridEdge, RoutingGraph
from repro.groute import GlobalRouter, PatternRouter3D
from repro.groute.maze import Node, _window
from repro.groute.patterns import GPoint
from repro.guard.deadline import DeadlineTicker
from repro.obs import get_metrics

from oracles.cost import CostModel


class ScalarField:
    """The two :class:`CostField` members a scalar pattern router reads.

    :class:`PatternRouter3D` refreshes its field before each query and
    reads the via weight from its parameters; a scalar router keeps no
    dense maps, so there is nothing to refresh.
    """

    def __init__(self, params: CostParams) -> None:
        self.params = params

    def ensure(self) -> None:
        pass


class ScalarPatternRouter3D(PatternRouter3D):
    """Layer-assignment DP priced edge by edge through ``CostModel``."""

    def __init__(
        self, graph: RoutingGraph, cost_model: CostModel, min_layer: int = 0
    ) -> None:
        super().__init__(graph, ScalarField(cost_model.params), min_layer)
        self.cost = cost_model

    def _path_cost(self, edges: list[GridEdge]) -> float:
        return self.cost.path_cost(edges)

    def _run_cost(self, run: tuple[GPoint, GPoint], layer: int) -> float:
        return sum(self.cost.edge_cost(e) for e in self._run_edges(run, layer))


def _maze_route_scalar(
    graph: RoutingGraph,
    cost_model: CostModel,
    sources: set[Node],
    targets: set[Node],
    margin: int,
    overflow_penalty: float,
) -> list[GridEdge] | None:
    """Reference A* pricing every step through the scalar oracle."""
    lo_x, hi_x, lo_y, hi_y = _window(graph, sources, targets, margin)

    def in_window(node: Node) -> bool:
        return lo_x <= node[1] <= hi_x and lo_y <= node[2] <= hi_y

    def heuristic(node: Node) -> float:
        return min(cost_model.lower_bound(node, t) for t in targets)

    tie = count()
    open_heap: list[tuple[float, int, Node]] = []
    g_score: dict[Node, float] = {}
    came_from: dict[Node, tuple[Node, GridEdge]] = {}
    for s in sources:
        g_score[s] = 0.0
        heapq.heappush(open_heap, (heuristic(s), next(tie), s))

    # Expansions are tallied locally and recorded once on exit so the
    # inner loop stays metric-free.
    expansions = 0
    ticker = DeadlineTicker("groute.maze", stride=64)
    try:
        while open_heap:
            ticker.tick()
            f, _, node = heapq.heappop(open_heap)
            g = g_score[node]
            if f > g + heuristic(node) + 1e-9:
                continue  # stale entry
            expansions += 1
            if node in targets:
                return _reconstruct(node, came_from)
            for neighbour, edge in graph.neighbors(node):
                if not in_window(neighbour):
                    continue
                step = cost_model.edge_cost(edge)
                if overflow_penalty > 0.0 and edge.kind.value == "wire":
                    if graph.demand(edge) >= graph.capacity(edge):
                        step += overflow_penalty
                tentative = g + step
                if tentative < g_score.get(neighbour, float("inf")) - 1e-12:
                    g_score[neighbour] = tentative
                    came_from[neighbour] = (node, edge)
                    heapq.heappush(
                        open_heap,
                        (tentative + heuristic(neighbour), next(tie), neighbour),
                    )
        return None
    finally:
        metrics = get_metrics()
        metrics.count("groute.maze_calls")
        metrics.observe("groute.maze_expansions", expansions)


def _reconstruct(
    node: Node, came_from: dict[Node, tuple[Node, GridEdge]]
) -> list[GridEdge]:
    edges: list[GridEdge] = []
    while node in came_from:
        node, edge = came_from[node]
        edges.append(edge)
    edges.reverse()
    return edges


class ScalarGlobalRouter(GlobalRouter):
    """:class:`GlobalRouter` whose routing prices come from ``CostModel``.

    The production :class:`CostField` is still built and follows the
    graph (CR&P prices through it after routing), but pattern routing,
    the RRR overflow scan and the maze search never consult it.
    """

    def __init__(self, design, *args, **kwargs) -> None:
        super().__init__(design, *args, **kwargs)
        self.cost = CostModel(self.graph, self.field.params)
        self.pattern3d = ScalarPatternRouter3D(
            self.graph, self.cost, min_layer=self.graph.min_wire_layer
        )

    def _rrr_pass(self, max_nets: int = 200) -> bool:
        """One RRR pass whose overflow scan is a per-edge demand walk."""
        victims: list[str] = []
        seen: set[str] = set()
        for edge, users in self._edge_nets.items():
            if edge.kind is not EdgeKind.WIRE:
                continue
            if self.graph.demand(edge) > self.graph.capacity(edge):
                for name in users:
                    if name not in seen:
                        seen.add(name)
                        victims.append(name)
        if not victims:
            return False
        metrics = get_metrics()
        metrics.count("groute.rrr_passes")
        metrics.count("groute.rrr_victims", min(len(victims), max_nets))
        victims.sort(
            key=lambda n: (self.design.net_hpwl(self.design.nets[n]), n)
        )
        for name in victims[:max_nets]:
            self._maze_reroute(name)
        return True

    def _maze_reroute(self, net_name: str) -> None:
        """Production reroute with the maze search priced by ``CostModel``."""
        cost = self.cost

        def scalar_search(
            graph, sources, targets, margin, overflow_penalty, field
        ):
            return _maze_route_scalar(
                graph, cost, sources, targets, margin, overflow_penalty
            )

        with patch.object(maze_module, "_maze_route_field", scalar_search):
            super()._maze_reroute(net_name)


def net_cost_fresh(router: GlobalRouter, net_name: str) -> float:
    """Uncached :meth:`GlobalRouter.net_cost` (the oracle the cache must match)."""
    route = router.routes.get(net_name)
    if route is None:
        return 0.0
    return router.field.path_cost(sorted(route.edges))

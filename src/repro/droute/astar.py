"""A* path search on the track lattice.

The search connects a grown net component to the next terminal inside
the net's guide region.  Two modes: *hard* (conflicting nodes are
impassable) and *soft* (conflicts and off-guide excursions are allowed
with a heavy penalty) — the soft pass is what converts an unroutable
situation into a short DRV instead of an open net, mirroring how
detailed routers trade opens for shorts.

The inner loop is deliberately flat (inlined neighbour generation,
guide-set membership) because it dominates the flow's runtime.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.droute.lattice import LNode, TrackLattice
from repro.droute.obstacles import BLOCKED
from repro.guard.deadline import DeadlineTicker
from repro.obs import get_metrics


@dataclass(slots=True)
class SearchParams:
    """Cost constants of the detailed-routing search (DBU scale)."""

    via_cost: int = 800
    conflict_penalty: int = 20000
    off_guide_penalty: int = 2000
    #: wrong-way (non-preferred-direction) step cost multiplier
    jog_factor: float = 2.5
    max_expansions: int = 60000
    #: soft-pass expansion budget multiplier (opens are worst-case DRVs)
    soft_budget_factor: float = 3.0
    #: A* heuristic inflation; >1 trades a little optimality for speed
    heuristic_weight: float = 1.15


@dataclass(slots=True)
class SearchResult:
    """A found path and the conflicts it incurred."""

    path: list[LNode]
    cost: float
    conflicts: list[LNode]


class SearchStats:
    """Local accumulator for per-search counters.

    The router hands one of these to every search of a ``route_all``
    and flushes it once at the end (``count`` + ``observe_many``), so
    the metrics registry is hit twice per routing pass instead of once
    per A* invocation.
    """

    __slots__ = ("calls", "expansions")

    def __init__(self) -> None:
        self.calls = 0
        self.expansions: list[int] = []

    def record(self, expansions: int) -> None:
        self.calls += 1
        self.expansions.append(expansions)

    def flush(self) -> None:
        if not self.calls:
            return
        metrics = get_metrics()
        metrics.count("droute.astar_calls", self.calls)
        metrics.observe_many("droute.astar_expansions", self.expansions)
        self.calls = 0
        self.expansions = []


def astar_connect(
    lattice: TrackLattice,
    sources: set[LNode],
    targets: set[LNode],
    net: str,
    owner: dict[LNode, str],
    occupancy: dict[LNode, str],
    bounds: tuple[int, int, int, int],
    guide_nodes: set[LNode] | None,
    params: SearchParams,
    soft: bool,
    stats: SearchStats | None = None,
) -> SearchResult | None:
    """Cheapest lattice path from ``sources`` to ``targets``.

    ``owner`` is the static pin/blockage ownership, ``occupancy`` the
    routed-wire ownership; nodes owned by other nets are impassable in
    hard mode and penalized in soft mode.  ``bounds`` is the inclusive
    ``(ix0, iy0, ix1, iy1)`` search window; ``guide_nodes`` (if given)
    is the set of nodes inside the net's guides.
    """
    if not sources or not targets:
        return None
    overlap = sources & targets
    if overlap:
        node = next(iter(overlap))
        return SearchResult(path=[node], cost=0.0, conflicts=[])

    pitch = lattice.pitch
    via_cost = float(params.via_cost)
    jog_cost = params.jog_factor * pitch
    conflict_penalty = float(params.conflict_penalty)
    off_guide_penalty = float(params.off_guide_penalty)
    horiz = tuple(layer.is_horizontal for layer in lattice.tech.layers)
    num_layers = len(horiz)
    min_wire = lattice.min_wire_layer
    ix0, iy0, ix1, iy1 = bounds

    t_ix0 = min(t[1] for t in targets)
    t_ix1 = max(t[1] for t in targets)
    t_iy0 = min(t[2] for t in targets)
    t_iy1 = max(t[2] for t in targets)
    t_l0 = min(t[0] for t in targets)
    t_l1 = max(t[0] for t in targets)

    owner_get = owner.get
    occupancy_get = occupancy.get
    heappush = heapq.heappush
    heappop = heapq.heappop

    h_weight = params.heuristic_weight

    def heuristic(layer: int, ix: int, iy: int) -> float:
        dx = (t_ix0 - ix) if ix < t_ix0 else (ix - t_ix1 if ix > t_ix1 else 0)
        dy = (t_iy0 - iy) if iy < t_iy0 else (iy - t_iy1 if iy > t_iy1 else 0)
        dl = (t_l0 - layer) if layer < t_l0 else (
            layer - t_l1 if layer > t_l1 else 0
        )
        return h_weight * (pitch * (dx + dy) + via_cost * dl)

    tie = 0
    # repro: noqa:REPRO-P001 x2 below -- this IS the dict oracle the
    # indexed kernel is parity-tested against; it must stay sparse.
    g_score: dict[LNode, float] = {}  # repro: noqa:REPRO-P001
    came_from: dict[LNode, LNode] = {}  # repro: noqa:REPRO-P001
    heap: list[tuple[float, int, float, LNode]] = []
    # Seed order is the caller's set iteration order -- deterministic
    # cross-machine (int-tuple hashing ignores PYTHONHASHSEED) and
    # shared byte-for-byte with the indexed kernel; sorting here would
    # change tie order and break parity with the committed digests.
    for s in sources:
        g_score[s] = 0.0
        heap.append((heuristic(*s), tie, 0.0, s))
        tie += 1
    heapq.heapify(heap)
    expansions = 0
    max_expansions = params.max_expansions
    if soft:
        max_expansions = int(max_expansions * params.soft_budget_factor)
    ticker = DeadlineTicker("droute.astar", stride=64)

    # Expansion counts are tallied locally and recorded once in the
    # ``finally`` — the hot loop itself carries no instrumentation.
    try:
        while heap and expansions < max_expansions:
            _, _, g, node = heappop(heap)
            if g > g_score.get(node, float("inf")):
                continue
            expansions += 1
            ticker.tick()
            if node in targets:
                return _build_result(node, came_from, g, net, owner, occupancy)
            layer, ix, iy = node

            candidates: list[tuple[LNode, float]] = []
            if layer >= min_wire:
                if horiz[layer]:
                    if ix < ix1:
                        candidates.append(((layer, ix + 1, iy), pitch))
                    if ix > ix0:
                        candidates.append(((layer, ix - 1, iy), pitch))
                    if iy < iy1:
                        candidates.append(((layer, ix, iy + 1), jog_cost))
                    if iy > iy0:
                        candidates.append(((layer, ix, iy - 1), jog_cost))
                else:
                    if iy < iy1:
                        candidates.append(((layer, ix, iy + 1), pitch))
                    if iy > iy0:
                        candidates.append(((layer, ix, iy - 1), pitch))
                    if ix < ix1:
                        candidates.append(((layer, ix + 1, iy), jog_cost))
                    if ix > ix0:
                        candidates.append(((layer, ix - 1, iy), jog_cost))
            if layer + 1 < num_layers:
                candidates.append(((layer + 1, ix, iy), via_cost))
            if layer > 0:
                candidates.append(((layer - 1, ix, iy), via_cost))

            for neighbour, step in candidates:
                holder = owner_get(neighbour)
                if holder is not None and holder != net:
                    if holder is BLOCKED or holder == BLOCKED:
                        if neighbour not in targets:
                            continue
                    elif not soft and neighbour not in targets:
                        continue
                    else:
                        step += conflict_penalty
                else:
                    occ = occupancy_get(neighbour)
                    if occ is not None and occ != net:
                        if not soft and neighbour not in targets:
                            continue
                        step += conflict_penalty
                if guide_nodes is not None and neighbour not in guide_nodes:
                    if not soft:
                        continue
                    step += off_guide_penalty
                tentative = g + step
                if tentative < g_score.get(neighbour, float("inf")) - 1e-9:
                    g_score[neighbour] = tentative
                    came_from[neighbour] = node
                    heappush(
                        heap,
                        (tentative + heuristic(*neighbour), tie, tentative, neighbour),
                    )
                    tie += 1
        return None
    finally:
        if stats is not None:
            stats.record(expansions)
        else:
            metrics = get_metrics()
            metrics.count("droute.astar_calls")
            metrics.observe("droute.astar_expansions", expansions)


def _build_result(
    node: LNode,
    came_from: dict[LNode, LNode],
    cost: float,
    net: str,
    owner: dict[LNode, str],
    occupancy: dict[LNode, str],
) -> SearchResult:
    path = [node]
    while node in came_from:
        node = came_from[node]
        path.append(node)
    path.reverse()
    conflicts = []
    for p in path:
        holder = owner.get(p) or occupancy.get(p)
        if holder is not None and holder != net and holder != BLOCKED:
            conflicts.append(p)
    return SearchResult(path=path, cost=cost, conflicts=conflicts)

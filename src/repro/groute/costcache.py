"""O(dirty-nets) route-cost accounting for the global router.

:class:`NetCostCache` keeps the Eq. 10 cost of every committed route so
the full-design total that CR&P's guard pre-cost, convergence loop, and
labeling step repeatedly ask for re-prices only nets whose cost can
actually have changed.

Soundness argument (mirrors the :class:`repro.grid.field.CostField`
staleness discipline): a committed net's cost is the sum of a flat
``via_weight`` per via edge plus the dense wire-cost map value of each
wire edge.  A route commit or rip-up changes the wire-cost map only on
the (layer, line) pairs the field marks dirty — the mutated wire edge's
own line, and for a mutated via the two adjacent wire layers' lines
through that GCell (the Eq. 9 ``delta_e`` term).  A cached net cost is
therefore stale iff one of those dirty lines carries one of the net's
own wire edges; the cache keeps a line -> nets index over committed
wire edges and marks exactly those nets (plus the mutated net itself)
stale.  Because the field's line recompute is deterministic — same
usage arrays in, same float64s out — a *non-stale* cached value is
bit-identical to a fresh rescan, and the canonical-order re-sum of
cached float64s in ``design.nets`` order is bit-identical to the full
O(all-nets) scan (same addends, same association).

Out-of-band mutations (guard rollback's belt-and-braces, tests poking
usage arrays) arrive via :meth:`GlobalRouter.invalidate_cost_fields`,
which calls :meth:`note_all` — values are dropped wholesale while the
membership index is kept (it derives from ``router.routes``, which
commit/rip-up notifications keep in sync even across rollback, since
``restore_route`` replays through the same two methods).
"""

from __future__ import annotations

from repro.grid import EdgeKind
from repro.obs import get_metrics


class NetCostCache:
    """Per-net Eq. 10 cost cache with line-granular staleness tracking."""

    __slots__ = (
        "router",
        "_horizontal",
        "_num_layers",
        "_cost",
        "_stale",
        "_line_nets",
        "hits",
        "rescans",
    )

    def __init__(self, router) -> None:
        self.router = router
        self._horizontal = tuple(
            layer.is_horizontal for layer in router.graph.tech.layers
        )
        self._num_layers = router.graph.num_layers
        #: net name -> cached Eq. 10 cost (float64, bitwise-fresh)
        self._cost: dict[str, float] = {}
        #: nets whose cached value may be stale
        self._stale: set[str] = set()
        #: (layer, line) -> committed nets with a wire edge on that line
        self._line_nets: dict[tuple[int, int], set[str]] = {}
        self.hits = 0
        self.rescans = 0
        # The cache may be enabled on an already-routed router: adopt
        # the committed routes into the membership index (values fill
        # lazily on first query).
        for name, route in router.routes.items():
            self._register(name, route.edges)

    # ---------------------------------------------------------- bookkeeping

    def _wire_line(self, layer: int, gx: int, gy: int) -> tuple[int, int]:
        return (layer, gy if self._horizontal[layer] else gx)

    def _dirty_lines(self, edges) -> set[tuple[int, int]]:
        """(layer, line) pairs whose wire-cost values the edges perturb."""
        lines: set[tuple[int, int]] = set()
        num_layers = self._num_layers
        for edge in edges:
            if edge.kind is EdgeKind.WIRE:
                lines.add(self._wire_line(edge.layer, edge.gx, edge.gy))
            else:
                for wire_layer in (edge.layer, edge.layer + 1):
                    if 0 <= wire_layer < num_layers:
                        lines.add(
                            self._wire_line(wire_layer, edge.gx, edge.gy)
                        )
        return lines

    def _register(self, name: str, edges) -> None:
        for edge in edges:
            if edge.kind is EdgeKind.WIRE:
                self._line_nets.setdefault(
                    self._wire_line(edge.layer, edge.gx, edge.gy), set()
                ).add(name)

    def _unregister(self, name: str, edges) -> None:
        for edge in edges:
            if edge.kind is EdgeKind.WIRE:
                key = self._wire_line(edge.layer, edge.gx, edge.gy)
                users = self._line_nets.get(key)
                if users is not None:
                    users.discard(name)
                    if not users:
                        del self._line_nets[key]

    def _touch(self, name: str, edges) -> None:
        """Mark the mutated net and every line-sharing net stale."""
        stale = self._stale
        line_nets = self._line_nets
        for key in self._dirty_lines(edges):
            users = line_nets.get(key)
            if users:
                stale.update(users)
        stale.add(name)

    # ------------------------------------------------------- notifications

    def note_commit(self, name: str, edges) -> None:
        """A route was committed (called after ``router.routes`` updates).

        Single pass over the edges: collect the dirty lines and enrol
        the net's wire edges in the membership index as we go (the
        staleness sweep runs after, so order within the pass is moot).
        """
        horizontal = self._horizontal
        num_layers = self._num_layers
        line_nets = self._line_nets
        dirty: set[tuple[int, int]] = set()
        for edge in edges:
            if edge.kind is EdgeKind.WIRE:
                layer = edge.layer
                key = (layer, edge.gy if horizontal[layer] else edge.gx)
                dirty.add(key)
                users = line_nets.get(key)
                if users is None:
                    line_nets[key] = {name}
                else:
                    users.add(name)
            else:
                for layer in (edge.layer, edge.layer + 1):
                    if 0 <= layer < num_layers:
                        dirty.add(
                            (layer, edge.gy if horizontal[layer] else edge.gx)
                        )
        stale = self._stale
        for key in dirty:  # repro: noqa:REPRO-D002 — only set.update targets, order-independent by construction
            users = line_nets.get(key)
            if users:
                stale.update(users)
        stale.add(name)

    def note_rip(self, name: str, edges) -> None:
        """A route was ripped up (called after ``router.routes`` updates)."""
        self._touch(name, edges)
        self._unregister(name, edges)

    def note_all(self) -> None:
        """Out-of-band mutation: drop every cached value, keep membership."""
        self._cost.clear()
        self._stale.clear()

    # ------------------------------------------------------------- queries

    def net_cost(self, name: str) -> float:
        """Cached Eq. 10 cost, re-priced only when stale or unseen."""
        value = self._cost.get(name)
        if value is not None and name not in self._stale:
            self.hits += 1
            return value
        self.rescans += 1
        route = self.router.routes.get(name)
        value = (
            0.0
            if route is None
            else self.router.field.path_cost(sorted(route.edges))
        )
        self._cost[name] = value
        self._stale.discard(name)
        return value

    # ------------------------------------------------------------- metrics

    def publish_metrics(self) -> None:
        """Flush tallies as ``crp.cost_*`` metric deltas."""
        metrics = get_metrics()
        if not metrics.recording:
            return
        metrics.count("crp.cost_rescans", self.rescans)
        metrics.count("crp.cost_cache_hits", self.hits)
        self.rescans = 0
        self.hits = 0

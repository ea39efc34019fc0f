"""Full-recompute CR&P: the reference for the incremental kernel.

:class:`FullRecomputeCrp` is a :class:`CrpFramework` that prices every
candidate through the uncached Algorithm 3 estimator
(:func:`estimate_net_cost`), re-sums every net's route cost from its
edges on every query (no ``NetCostCache``), and legalizes every window
with the plain per-window ILP (no memo, no specialized exact solver).
It must choose the same moves and leave the same routes as
:class:`CrpFramework`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest.mock import patch

import repro.core.candidates as candidates_module
from repro.core.crp import CrpFramework, IterationStats
from repro.core.estimate import overridden_node
from repro.core.fastecc import EccCache
from repro.db import Design, Net
from repro.flute import build_rsmt
from repro.geom import Orientation, Point
from repro.groute import GlobalRouter
from repro.groute.patterns import pattern_paths_2d
from repro.legalizer import WindowLegalizer

Node = tuple[int, int, int]


def estimate_net_cost(
    design: Design,
    router: GlobalRouter,
    net: Net,
    overrides: dict[str, tuple[int, int, Orientation]],
) -> float:
    """Virtual FLUTE + 3D-pattern-route cost of one net (uncommitted)."""
    terminals = _terminals_with_overrides(design, router, net, overrides)
    if len(terminals) < 2:
        return 0.0
    points = [Point(t[1], t[2]) for t in terminals]
    tree = build_rsmt(points)
    layer_at: dict[tuple[int, int], int] = {}
    for layer, gx, gy in terminals:
        layer_at.setdefault((gx, gy), layer)

    total = 0.0
    for a, b in tree.edges:
        pa, pb = tree.points[a], tree.points[b]
        src_layer = layer_at.get((pa.x, pa.y))
        dst_layer = layer_at.get((pb.x, pb.y))
        best = None
        for path in pattern_paths_2d((pa.x, pa.y), (pb.x, pb.y)):
            # DP cost only — candidate pricing never needs the edge
            # lists, and with a cost field each run is two prefix
            # lookups, making this the cheapest query in the loop.
            cost = router.pattern3d.route_cost(
                path,
                src_layer if src_layer is not None else router.graph.min_wire_layer,
                dst_layer,
            )
            if cost is None:
                continue
            if best is None or cost < best:
                best = cost
        if best is not None:
            total += best
    return total


def _terminals_with_overrides(
    design: Design,
    router: GlobalRouter,
    net: Net,
    overrides: dict[str, tuple[int, int, Orientation]],
) -> list[Node]:
    """Distinct terminal nodes with some cells virtually relocated."""
    nodes: list[Node] = []
    seen: set[Node] = set()
    for pin in net.pins:
        if pin.cell is not None and pin.cell in overrides:
            node = overridden_node(design, router, pin, overrides[pin.cell])
        else:
            point = design.pin_point(pin)
            layer = design.pin_layer(pin)
            gx, gy = router.grid.gcell_of(point)
            node = (layer, gx, gy)
        if node not in seen:
            seen.add(node)
            nodes.append(node)
    return nodes


def _uncached_net_cost(cache, design, router, net, overrides) -> float:
    return estimate_net_cost(design, router, net, overrides)


@contextmanager
def uncached_ecc() -> Iterator[None]:
    """Make every :class:`EccCache` price through the uncached estimator."""
    with patch.object(EccCache, "net_cost", _uncached_net_cost):
        yield


class IlpWindowLegalizer(WindowLegalizer):
    """:class:`WindowLegalizer` solving every window with the plain ILP."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fast_gcp = False


class FullRecomputeCrp(CrpFramework):
    """:class:`CrpFramework` on the full-recompute reference paths."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Every net_cost query re-sums the route from its edges.
        self.router.cost_cache = None

    def run_iteration(
        self, index: int = 0, pre_cost: float | None = None
    ) -> IterationStats:
        with uncached_ecc(), patch.object(
            candidates_module, "WindowLegalizer", IlpWindowLegalizer
        ):
            return super().run_iteration(index, pre_cost)

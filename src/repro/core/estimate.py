"""Step 3: Candidate Position Cost Estimation (Algorithm 3).

For every candidate position of a critical cell, the cell's nets are
re-planned *virtually*: terminal positions are recomputed with the cell
(and its conflict cells) at the candidate location, decomposed by FLUTE,
and priced by the 3D pattern router under the current demand state —
without committing anything to the routing graph.  Per the paper, only
one cell per net moves in an iteration, so the other terminals stay
where the committed routes put them.

The pricing itself runs through :class:`repro.core.fastecc.EccCache`;
the uncached reference estimator it must match bit for bit is in
``tests/oracles/crp.py``.
"""

from __future__ import annotations

from repro.geom import Orientation, Rect
from repro.db import Design
from repro.groute import GlobalRouter
from repro.core.candidates import MoveCandidate
from repro.core.fastecc import EccCache

Node = tuple[int, int, int]


def estimate_candidate_cost(
    design: Design,
    router: GlobalRouter,
    candidate: MoveCandidate,
    cache: EccCache,
) -> float:
    """Eq. 10 route cost of the candidate's cell nets (Algorithm 3).

    Only the critical cell's own nets are priced, as in the paper's
    Algorithm 3 (the legalizer already minimized the conflict cells'
    displacement).  Each net is re-planned virtually — FLUTE plus the
    3D pattern router's DP cost — through ``cache``, the iteration-
    scoped :class:`repro.core.fastecc.EccCache` that amortizes terminal
    derivation, tree topology and segment pricing across candidates.
    """
    overrides: dict[str, tuple[int, int, Orientation]] = {
        candidate.cell: candidate.position
    }
    if candidate.conflict_moves:
        overrides.update(candidate.conflict_moves)

    total = 0.0
    for net in design.nets_of_cell(candidate.cell):
        total += cache.net_cost(design, router, net, overrides)
    return total


def overridden_node(
    design: Design,
    router: GlobalRouter,
    pin,
    position: tuple[int, int, Orientation],
) -> Node:
    """Terminal node of one pin with its cell virtually at ``position``."""
    cell = design.cells[pin.cell]
    x, y, orient = position
    macro_pin = cell.macro.pin(pin.pin)
    shapes = macro_pin.placed_shapes(
        x, y, orient, cell.macro.width, cell.macro.height
    )
    point = Rect.bounding([s.rect for s in shapes]).center
    layer = min(s.layer for s in shapes) if shapes else 0
    gx, gy = router.grid.gcell_of(point)
    return (layer, gx, gy)

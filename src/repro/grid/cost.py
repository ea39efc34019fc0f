"""Edge and path costs (Eq. 10 of the paper).

    cost_e = Unit_e * Dist(e) * (1 + penalty(e))

``Unit_e`` is the ISPD-2018 metric weight of the edge species (wire 0.5
per M2-pitch of length, via 2 per cut), ``Dist(e)`` the Manhattan
distance between GCell centers, and ``penalty(e)`` a logistic function of
demand versus capacity.

Note on the penalty sign: the paper prints ``1 / (1 + exp(S * (D_e -
C_e)))``, which *decreases* as demand exceeds capacity — a typo, since
the text says increasing ``S`` causes "faster overflow in an edge" (the
penalty must grow with congestion, as in NTHU-Route [22]).  We implement
the intended ``1 / (1 + exp(-S * (D_e - C_e)))``.

The Eq. 10 kernel itself is :class:`repro.grid.field.CostField`; this
module holds the parameters and the per-layer constants it shares with
its scalar reference model (``tests/oracles/cost.py``), which the
parity tests pin it to bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.grid.gcellgrid import GCellGrid
from repro.tech import Technology


@dataclass(slots=True)
class CostParams:
    """Tunable constants of the cost model.

    ``wire_weight`` and ``via_weight`` mirror the ISPD-2018 evaluation
    weights (0.5 per wire unit, 2 per via) the paper cites to explain why
    via reduction dominates.  ``slope`` is the logistic slope ``S``;
    ``use_penalty`` exists for the ablation study.
    """

    wire_weight: float = 0.5
    via_weight: float = 2.0
    slope: float = 1.0
    use_penalty: bool = True


def m2_pitch(tech: Technology) -> int:
    """The wire-length normalization pitch (M2, or M1 on 1-layer stacks)."""
    pitch_layer = min(len(tech.layers) - 1, 1)
    return max(1, tech.layers[pitch_layer].pitch)


def wire_edge_dists(
    grid: GCellGrid, tech: Technology, pitch: int
) -> tuple[float, ...]:
    """Per-layer Eq. 10 ``Dist(e)`` of one wire edge, in M2-pitch units.

    Adjacent-GCell center distance is constant per layer direction
    (``step_x`` on horizontal layers, ``step_y`` on vertical ones), so it
    is computed once here instead of per edge; the :class:`CostField` kernel and
    its scalar reference model share these exact constants.
    """
    return tuple(
        (grid.step_x if layer.is_horizontal else grid.step_y) / pitch
        for layer in tech.layers
    )

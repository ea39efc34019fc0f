"""Integration tests: the full GR -> movement -> DR flow."""

import pytest

from repro.flow import run_flow, runtime_breakdown_pct
from repro.flow.runtime import FIG3_STAGES
from repro.core import CrpConfig

from helpers import fresh_small


def test_flow_baseline():
    result = run_flow(fresh_small(), mode="baseline")
    assert result.quality is not None
    assert result.quality.wirelength_dbu > 0
    assert result.quality.vias > 0
    assert result.legal
    assert set(result.runtime) == {"GR", "DR"}


def test_flow_crp_k2():
    result = run_flow(
        fresh_small(),
        mode="crp",
        crp_iterations=2,
        config=CrpConfig(seed=1, max_targets=3),
    )
    assert result.crp is not None
    assert len(result.crp.iterations) == 2
    assert result.legal
    assert "CRP" in result.runtime
    pct = runtime_breakdown_pct(result)
    assert set(pct) == set(FIG3_STAGES)
    assert sum(pct.values()) == pytest.approx(100.0)
    assert pct["ECC"] > 0


def test_flow_fontana():
    result = run_flow(fresh_small(), mode="fontana")
    assert result.fontana is not None
    assert not result.failed
    assert result.legal
    assert "BASELINE" in result.runtime


def test_flow_fontana_budget_failure():
    result = run_flow(fresh_small(), mode="fontana", baseline_budget_s=0.0)
    assert result.failed
    assert result.quality is None
    assert "FAILED" in result.summary()


def test_flow_skip_detailed():
    result = run_flow(fresh_small(), mode="baseline", skip_detailed=True)
    assert result.quality is None
    assert result.gr_wirelength_dbu > 0
    assert "DR" not in result.runtime


def test_flow_unknown_mode():
    with pytest.raises(ValueError):
        run_flow(fresh_small(), mode="magic")


def test_flow_crp_improves_or_matches_baseline_gr():
    """On the same design, CR&P must not worsen the GR-level metrics."""
    base = run_flow(fresh_small(seed=33), mode="baseline", skip_detailed=True)
    crp = run_flow(
        fresh_small(seed=33),
        mode="crp",
        crp_iterations=2,
        skip_detailed=True,
        config=CrpConfig(seed=1),
    )
    base_score = 0.5 * base.gr_wirelength_dbu / 200 + 2.0 * base.gr_vias
    crp_score = 0.5 * crp.gr_wirelength_dbu / 200 + 2.0 * crp.gr_vias
    assert crp_score <= base_score * 1.02


def test_flow_golden_output_ispd18_test1_crp_k1():
    """Pin the serial flow's output, not just parity between two paths.

    The digests and quality figures below are the flow's reference
    output; any change to the GR, CR&P or DR code that moves a route, a
    cell or a quality number fails here.
    """
    from repro.benchgen import make_design

    result = run_flow(make_design("ispd18_test1"), mode="crp", crp_iterations=1)
    assert result.routes_digest == (
        "41b4d8b64c8d13efc23b6b6d22879c2d6c0787ed1db65ff2ac4157c47293d598"
    )
    assert result.placement_digest == (
        "ea0acc3c13cf8e8fd8b94a2f8e812b6177f791e6bd53ac2786c2bc9ce8ea0602"
    )
    quality = result.quality
    assert (quality.wirelength_dbu, quality.vias, quality.drvs) == (242200, 201, 0)
    assert quality.score == 1007.5

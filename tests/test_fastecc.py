"""Bit-exact parity suite for the incremental CR&P kernel.

Every optimization of the CR&P iteration kernel must be a pure speedup:
the cached/incremental paths are asserted *equal* — not approximately
equal — to the full-recompute oracles in ``tests/oracles/crp.py``, over
randomized designs and mutation sequences.
"""

from __future__ import annotations

import random

import pytest

from helpers import fresh_small

from repro.core.config import CrpConfig
from repro.core.crp import CrpFramework
from repro.core.estimate import estimate_candidate_cost
from repro.core.candidates import MoveCandidate, generate_candidates
from repro.core.fastecc import EccCache
from repro.core.labeling import label_critical_cells
from repro.groute import GlobalRouter
from repro.groute.costcache import NetCostCache
from repro.guard import GuardPolicy, IterationTransaction
from repro.legalizer import WindowLegalizer

from oracles.crp import FullRecomputeCrp, IlpWindowLegalizer, uncached_ecc
from oracles.groute import net_cost_fresh


def routed(seed: int = 42, **overrides) -> tuple:
    design = fresh_small(seed=seed, **overrides)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=2)
    return design, router


def snapshot(design, router) -> tuple:
    positions = sorted(
        (name, cell.x, cell.y, str(cell.orient))
        for name, cell in design.cells.items()
    )
    routes = sorted(
        (name, tuple(sorted(map(str, route.edges))))
        for name, route in router.routes.items()
    )
    return positions, routes


# ------------------------------------------------------------ ECC cache


@pytest.mark.parametrize("seed", [3, 42, 99])
def test_ecc_cache_matches_uncached_costs(seed):
    design, router = routed(seed=seed)
    config = CrpConfig()
    framework = CrpFramework(design, router, config)
    critical = label_critical_cells(
        design, router, config, random.Random(seed)
    )
    candidates = generate_candidates(design, critical, config)
    cache = EccCache()
    for cell_candidates in candidates.values():
        for candidate in cell_candidates:
            with uncached_ecc():
                uncached = estimate_candidate_cost(
                    design, router, candidate, EccCache()
                )
            cached = estimate_candidate_cost(
                design, router, candidate, cache=cache
            )
            # bit-exact: same terminal walk, same RSMT, same DP op order
            assert cached == uncached
            # and a second query must hit the memo yet stay identical
            again = estimate_candidate_cost(
                design, router, candidate, cache=cache
            )
            assert again == uncached
    assert cache.hits > 0


# ------------------------------------------------ O(dirty) cost accounting


def full_rescan(design, router) -> float:
    return sum(net_cost_fresh(router, name) for name in design.nets)


@pytest.mark.parametrize("seed", [5, 42])
def test_running_total_tracks_commit_and_rip(seed):
    design, router = routed(seed=seed)
    router.enable_incremental_cost()
    assert isinstance(router.cost_cache, NetCostCache)
    rng = random.Random(seed)
    names = sorted(router.routes)
    assert router.total_route_cost() == full_rescan(design, router)
    for _ in range(12):
        name = rng.choice(names)
        action = rng.random()
        if action < 0.4 and name in router.routes:
            router.rip_up(name)
        elif name in design.nets:
            if name in router.routes:
                router.rip_up(name)
            router.route_net(name)
        assert router.total_route_cost() == full_rescan(design, router)
    # rescans must stay sub-linear: untouched nets never re-price
    assert router.cost_cache.hits > 0


def test_running_total_survives_out_of_band_invalidation():
    design, router = routed(seed=11)
    router.enable_incremental_cost()
    before = router.total_route_cost()
    router.invalidate_cost_fields()  # drops every cached value
    assert router.total_route_cost() == before == full_rescan(design, router)


def test_running_total_survives_rollback():
    design, router = routed(seed=13)
    router.enable_incremental_cost()
    baseline = router.total_route_cost()
    positions0, routes0 = snapshot(design, router)
    moved = next(iter(design.cells))
    cell0 = design.cells[moved]
    chosen = {
        moved: MoveCandidate(
            cell=moved,
            position=(cell0.x, cell0.y, cell0.orient),
            displacement=1.0,
        )
    }
    txn = IterationTransaction.capture(design, router, chosen)
    # mutate: move a cell and reroute one of its nets
    cell = design.cells[moved]
    target = sorted(router.routes)[0]
    design.move_cell(moved, cell.x, cell.y, cell.orient)
    router.rip_up(target)
    router.route_net(target)
    txn.rollback()
    assert snapshot(design, router) == (positions0, routes0)
    assert router.total_route_cost() == baseline == full_rescan(design, router)


# -------------------------------------------------------- window-ILP memo


@pytest.mark.parametrize("seed", [3, 42, 77])
def test_window_legalizer_fast_matches_slow(seed):
    design, router = routed(seed=seed)
    config = CrpConfig()
    CrpFramework(design, router, config)
    critical = label_critical_cells(
        design, router, config, random.Random(seed)
    )

    def legalize(fast: bool):
        legalizer_class = WindowLegalizer if fast else IlpWindowLegalizer
        legalizer = legalizer_class(
            design,
            n_sites=config.n_sites,
            n_rows=config.n_rows,
            max_cells=config.max_cells,
            max_targets=config.max_targets,
            backend=config.ilp_backend,
            ilp_budget_s=config.ilp_budget_s,
        )
        outcome = {name: legalizer.run(name) for name in critical}
        return outcome, legalizer

    fast_result, fast_legalizer = legalize(True)
    slow_result, _ = legalize(False)
    assert {
        name: [
            (c.position, dict(c.conflict_moves), c.displacement)
            for c in candidates
        ]
        for name, candidates in fast_result.items()
    } == {
        name: [
            (c.position, dict(c.conflict_moves), c.displacement)
            for c in candidates
        ]
        for name, candidates in slow_result.items()
    }
    # the memo must answer repeat windows without re-solving
    repeat, legalizer2 = legalize(True)
    assert legalizer2.memo_misses == fast_legalizer.memo_misses


def test_window_memo_hits_are_deterministic():
    design, router = routed(seed=21)
    config = CrpConfig()
    CrpFramework(design, router, config)
    critical = label_critical_cells(design, router, config, random.Random(21))
    legalizer = WindowLegalizer(
        design,
        n_sites=config.n_sites,
        n_rows=config.n_rows,
        max_cells=config.max_cells,
        max_targets=config.max_targets,
    )
    for name in critical:
        first = [
            (c.position, dict(c.conflict_moves), c.displacement)
            for c in legalizer.run(name)
        ]
        second = [
            (c.position, dict(c.conflict_moves), c.displacement)
            for c in legalizer.run(name)
        ]
        assert first == second
    assert legalizer.memo_hits > 0


# --------------------------------------------------- end-to-end iteration


def run_iterations(seed: int, fast: bool, k: int = 2):
    design = fresh_small(seed=seed)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=2)
    framework_class = CrpFramework if fast else FullRecomputeCrp
    framework = framework_class(design, router, CrpConfig())
    framework.run(iterations=k)
    return snapshot(design, router), router.total_route_cost()


@pytest.mark.parametrize("seed", [9, 42])
def test_framework_fast_slow_parity(seed):
    assert run_iterations(seed, fast=True) == run_iterations(seed, fast=False)


def test_converged_parity_and_single_scan_per_pass():
    def converge(fast: bool):
        design = fresh_small(seed=31)
        router = GlobalRouter(design)
        router.route_all(rrr_passes=2)
        framework_class = CrpFramework if fast else FullRecomputeCrp
        framework = framework_class(design, router, CrpConfig())
        result = framework.run_until_converged(max_iterations=4)
        return snapshot(design, router), len(result.iterations)

    assert converge(True) == converge(False)


def test_guarded_rollback_keeps_parity():
    def run(fast: bool):
        design = fresh_small(seed=55)
        router = GlobalRouter(design)
        router.route_all(rrr_passes=2)
        framework_class = CrpFramework if fast else FullRecomputeCrp
        framework = framework_class(
            design,
            router,
            CrpConfig(),
            guard=GuardPolicy(cost_tolerance=-1.0),  # force rollbacks
        )
        result = framework.run(iterations=2)
        return snapshot(design, router), [
            stats.rolled_back for stats in result.iterations
        ]

    assert run(True) == run(False)

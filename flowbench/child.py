"""One sample of the flow benchmark, in a fresh interpreter.

``run.py`` starts this script once per sample with ``PYTHONPATH=src``;
it prints exactly one JSON line on stdout.  Three kinds of sample:

* ``setup``  — cold start only: import ``repro`` and ``scipy.optimize``,
  one trivial HiGHS solve through ``repro.ilp.solve``, design generation.
* ``flow``   — cold start, then ``repro.flow.run_flow`` timed as a whole.
* ``traced`` — cold start, then the stages ``run_flow`` runs, called one
  public entry point at a time and timed from outside; the splits below
  one call come from the span tree and metrics the program records.

``flow`` and ``traced`` samples also time ``hostspeed.calibrate`` just
before and just after their timed work.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

from hostspeed import calibrate
from workloads import WORKLOADS, Workload

#: environment variables ``CrpConfig`` reads; either would switch the
#: measured pipeline (process pool, checkpoint writes) without a trace
PIPELINE_ENV = ("CRP_WORKERS", "CRP_CHECKPOINT_DIR")


def setup(workload: Workload, design_seed: int | None) -> tuple[object, dict]:
    """Cold start: returns ``(design, {phase: seconds})``."""
    t0 = time.perf_counter()
    import scipy.optimize  # noqa: F401 — billed here, not to the first GCP solve

    import repro.flow.pipeline  # noqa: F401
    from repro.benchgen import SUITE, generate_design
    from repro.ilp import IlpModel, Sense, SolveStatus, solve

    t1 = time.perf_counter()
    model = IlpModel("warmup")
    x = model.add_binary("x", cost=-1.0)
    y = model.add_binary("y", cost=-1.0)
    model.add_constraint([(x, 1.0), (y, 1.0)], Sense.LE, 1.0)
    solution = solve(model)
    if solution.status is not SolveStatus.OPTIMAL:
        raise RuntimeError(f"warm-up solve returned {solution.status}")
    t2 = time.perf_counter()
    spec = SUITE[workload.design]
    if design_seed is not None:
        spec = dataclasses.replace(spec, seed=design_seed)
    design = generate_design(spec)
    t3 = time.perf_counter()
    return design, {
        "setup.import_s": t1 - t0,
        "setup.solver_warmup_s": t2 - t1,
        "benchgen.generate_s": t3 - t2,
        "setup_s": t3 - t0,
    }


def quality_of(score) -> dict:
    return {
        "wirelength_dbu": score.wirelength_dbu,
        "vias": score.vias,
        "drvs": score.drvs,
        "drv_breakdown": dict(sorted(score.drv_breakdown.items())),
        "score": score.score,
    }


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_flow_sample(workload: Workload, design) -> dict:
    from repro.flow.pipeline import run_flow

    t0 = time.perf_counter()
    result = run_flow(
        design, mode=workload.mode, crp_iterations=workload.crp_iterations
    )
    flow_s = time.perf_counter() - t0
    errors = []
    if result.failed:
        errors.append(f"flow failed: {result.summary()}")
    if not result.legal:
        errors.append("illegal placement after the movement stage")
    if result.quality is None:
        errors.append("no quality score")
    crp_iterations = len(result.crp.iterations) if result.crp is not None else 0
    if crp_iterations != workload.crp_iterations:
        errors.append(
            f"ran {crp_iterations} CR&P iterations, "
            f"expected {workload.crp_iterations}"
        )
    return {
        "flow_s": flow_s,
        "peak_rss_mb": peak_rss_mb(),
        "routes_digest": result.routes_digest,
        "placement_digest": result.placement_digest,
        "quality": quality_of(result.quality) if result.quality else None,
        "errors": errors,
    }


class _Stopwatch:
    """Accumulates wall time per name around calls into the program."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def time(self, name: str, call, *args, **kwargs):
        t0 = time.perf_counter()
        value = call(*args, **kwargs)
        self.seconds[name] = (
            self.seconds.get(name, 0.0) + time.perf_counter() - t0
        )
        return value


def run_traced_sample(workload: Workload, design) -> dict:
    """The stage sequence of ``run_flow``, one public call at a time."""
    from repro.analyze.invariants import check_flow_state
    from repro.ckpt import positions_digest, routes_digest
    from repro.core import CrpConfig, CrpFramework
    from repro.db import check_legality
    from repro.droute import DetailedRouter
    from repro.evalmetrics import evaluate
    from repro.groute import GlobalRouter
    from repro.obs import observe

    watch = _Stopwatch()
    stats = []
    with observe() as obs:
        t0 = time.perf_counter()
        router = watch.time("groute.init_s", GlobalRouter, design)
        watch.time("groute.route_all_s", router.route_all, rrr_passes=3)
        if workload.mode == "crp":
            t_crp = time.perf_counter()
            framework = CrpFramework(design, router, CrpConfig())
            for k in range(workload.crp_iterations):
                stats.append(framework.run_iteration(k))
            watch.seconds["crp.run_s"] = time.perf_counter() - t_crp
        gr_overflow = router.total_overflow()
        gr_wirelength = router.total_wirelength_dbu()
        gr_vias = router.total_vias()
        routes = routes_digest(router)
        placement = positions_digest(design)
        legal = check_legality(design).is_legal
        guides = watch.time("groute.guides_s", router.guides)
        detailed = watch.time("droute.init_s", DetailedRouter, design)
        dr_result = watch.time("droute.route_all_s", detailed.route_all, guides)
        score = watch.time(
            "evalmetrics.evaluate_s", evaluate, design.name, design.tech, dr_result
        )
        traced_flow_s = time.perf_counter() - t0
    findings = check_flow_state(design, router, guides=guides)

    snapshot = obs.metrics.snapshot()
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]

    def counter(name: str) -> float:
        return counters.get(name, 0.0)

    def hist(name: str, field: str) -> float:
        return histograms.get(name, {}).get(field, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def step(label: str) -> float:
        return sum(s.runtime.get(label, 0.0) for s in stats)

    span_total = obs.tracer.total
    critical = sum(s.num_critical for s in stats)
    moved = sum(s.num_moved for s in stats)
    windows = counter("crp.window_memo_hits") + counter("crp.window_memo_misses")
    ecc_hits = counter("crp.ecc_cache_hits")
    breakdown = score.drv_breakdown
    layer = {
        **watch.seconds,
        "crp.run_s": watch.seconds.get("crp.run_s", 0.0),
        "groute.initial_s": span_total("groute.initial"),
        "groute.rrr_s": span_total("groute.rrr"),
        "groute.maze_calls": counter("groute.maze_calls"),
        "groute.maze_expansions": hist("groute.maze_expansions", "sum"),
        "groute.rrr_victims": counter("groute.rrr_victims"),
        "groute.overflow": gr_overflow,
        "groute.wirelength_dbu": gr_wirelength,
        "groute.vias": gr_vias,
        "crp.label_s": step("label"),
        "crp.GCP_s": step("GCP"),
        "crp.ECC_s": step("ECC"),
        "crp.ILP_s": step("ILP"),
        "crp.UD_s": step("UD"),
        "crp.ecc_cache_hit_ratio": ratio(
            ecc_hits, ecc_hits + counter("crp.ecc_cache_misses")
        ),
        "crp.critical_cells": critical,
        "crp.candidates": sum(s.num_candidates for s in stats),
        "crp.cells_moved": moved,
        "crp.move_ratio": ratio(moved, critical),
        "crp.rerouted_nets": sum(s.num_rerouted for s in stats),
        "guard.rollbacks": sum(1 for s in stats if s.rolled_back),
        "legalizer.windows": windows,
        "legalizer.window_fast_ratio": ratio(
            counter("crp.window_fast_solves"), windows
        ),
        "legalizer.window_memo_hits": counter("crp.window_memo_hits"),
        "ilp.solves": counter("ilp.solves"),
        "ilp.solve_s": span_total("ilp.solve"),
        "droute.first_pass_s": span_total("droute.first_pass"),
        "droute.rrr_s": span_total("droute.rrr_round"),
        "droute.drc_s": span_total("droute.drc"),
        "droute.astar_calls": counter("droute.astar_calls"),
        "droute.astar_expansions": hist("droute.astar_expansions", "sum"),
        "droute.astar_expansions_max": hist("droute.astar_expansions", "max"),
        "droute.ripped_nets": counter("droute.ripped_nets"),
        "droute.opens": counter("droute.opens"),
        "evalmetrics.drvs": score.drvs,
        "evalmetrics.drv.short": breakdown.get("short", 0),
        "evalmetrics.drv.min_area": breakdown.get("min_area", 0),
        "evalmetrics.drv.open": breakdown.get("open", 0),
        "obs.traced_flow_s": traced_flow_s,
        "obs.unattributed_s": traced_flow_s - sum(watch.seconds.values()),
    }
    errors = [f"invariant: {f.render()}" for f in findings]
    if not legal:
        errors.append("illegal placement after the movement stage")
    if counter("crp.iterations") != workload.crp_iterations:
        errors.append("CR&P iteration counter disagrees with the workload")
    return {
        "layer": layer,
        "routes_digest": routes,
        "placement_digest": placement,
        "quality": quality_of(score),
        "shares": {
            "GR": ratio(
                layer["groute.init_s"] + layer["groute.route_all_s"],
                traced_flow_s,
            ),
            "CRP": ratio(layer["crp.run_s"], traced_flow_s),
            "DR": ratio(
                layer["groute.guides_s"] + layer["droute.init_s"]
                + layer["droute.route_all_s"] + layer["evalmetrics.evaluate_s"],
                traced_flow_s,
            ),
        },
        "errors": errors,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("setup", "flow", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--design-seed", type=int, default=None)
    args = parser.parse_args()
    leaked = [name for name in PIPELINE_ENV if os.environ.get(name)]
    if leaked:
        raise SystemExit(f"refusing to measure with {', '.join(leaked)} set")
    workload = WORKLOADS[args.workload]
    design, cold = setup(workload, args.design_seed)
    import numpy
    import scipy

    out: dict = {
        "setup": cold,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.kind != "setup":
        # Host speed just before and just after the timed work, in this
        # process: a process keeps its CPU, and CPUs of a shared host
        # differ in speed.
        before = calibrate()
        if args.kind == "flow":
            out.update(run_flow_sample(workload, design))
        else:
            out.update(run_traced_sample(workload, design))
        out["calibration_s"] = [before, calibrate()]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

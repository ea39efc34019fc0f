#!/usr/bin/env python
"""Performance benchmark for the cost-field kernel (BENCH_perf.json).

Times the four hot flow stages — initial ``route_all``, the RRR passes,
one CR&P iteration, and detailed routing — on two generated benchmarks
(fixed seeds from ``repro.benchgen.SUITE``), median of three runs, in
both cost modes: ``scalar`` (``ScalarGlobalRouter`` from
``tests/oracles/groute.py``, which prices every edge through the
reference ``CostModel``) and ``field`` (the production
:class:`GlobalRouter` on the dense :class:`repro.grid.field.CostField`
kernel).

Every run asserts that the two modes produce *byte-identical* flow
quality (GR wirelength / vias / overflow and DR wirelength / vias /
DRVs) — the kernel is a pure speedup, never a behavior change.

Usage::

    python scripts/bench_perf.py -o BENCH_perf.json    # write baseline
    python scripts/bench_perf.py --check BENCH_perf.json   # CI gate

``--check`` reruns the benchmark and fails (exit 1) when the
field/scalar speedup of the ``gr_total`` stage regresses by more than
``--max-regression`` (default 25%) against the committed baseline, or
when cross-mode quality diverges.  Ratios, not absolute times, are
compared, so the gate is robust to machine speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from repro.benchgen import make_design  # noqa: E402
from repro.ckpt import atomic_write  # noqa: E402
from repro.core import CrpFramework  # noqa: E402
from repro.droute import DetailedRouter  # noqa: E402
from repro.evalmetrics import evaluate  # noqa: E402
from repro.groute import GlobalRouter  # noqa: E402

from oracles.groute import ScalarGlobalRouter  # noqa: E402

SCHEMA = "repro.perf/bench-1"
BENCHES = ("ispd18_test1", "ispd18_test5")
RUNS = 3
RRR_PASSES = 3
STAGES = ("route_all", "rrr", "gr_total", "crp_iteration", "detailed")
#: the stage whose field/scalar speedup the CI gate enforces (the others
#: are too short on the small bench to compare robustly)
GATED_STAGE = "gr_total"


def run_once(bench: str, use_cost_field: bool) -> tuple[dict, dict]:
    """One full pass; returns (stage seconds, quality metrics)."""
    design = make_design(bench)
    times: dict[str, float] = {}

    t0 = time.perf_counter()
    router_class = GlobalRouter if use_cost_field else ScalarGlobalRouter
    router = router_class(design)
    router.route_all(rrr_passes=0)
    times["route_all"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    router.improve(RRR_PASSES)
    times["rrr"] = time.perf_counter() - t0
    times["gr_total"] = times["route_all"] + times["rrr"]

    quality = {
        "gr_wirelength_dbu": router.total_wirelength_dbu(),
        "gr_vias": router.total_vias(),
        "gr_overflow": router.total_overflow(),
    }

    framework = CrpFramework(design, router)
    t0 = time.perf_counter()
    framework.run_iteration(0)
    times["crp_iteration"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    guides = router.guides()
    dr_result = DetailedRouter(design).route_all(guides)
    times["detailed"] = time.perf_counter() - t0

    score = evaluate(design.name, design.tech, dr_result)
    quality["dr_wirelength_dbu"] = score.wirelength_dbu
    quality["dr_vias"] = score.vias
    quality["drvs"] = score.drvs
    return times, quality


def bench_design(bench: str) -> dict:
    """Median-of-RUNS stage times in both modes + the quality assert."""
    samples: dict[str, dict[str, list[float]]] = {
        "scalar": {s: [] for s in STAGES},
        "field": {s: [] for s in STAGES},
    }
    qualities: dict[str, dict] = {}
    for _ in range(RUNS):
        for mode, use_field in (("scalar", False), ("field", True)):
            times, quality = run_once(bench, use_field)
            for stage in STAGES:
                samples[mode][stage].append(times[stage])
            previous = qualities.setdefault(mode, quality)
            if previous != quality:
                raise SystemExit(
                    f"FAIL: {bench} {mode} mode is nondeterministic: "
                    f"{previous} != {quality}"
                )
    if qualities["scalar"] != qualities["field"]:
        raise SystemExit(
            f"FAIL: {bench} quality diverges between cost modes:\n"
            f"  scalar: {qualities['scalar']}\n"
            f"  field : {qualities['field']}"
        )
    stages = {}
    for stage in STAGES:
        scalar_s = statistics.median(samples["scalar"][stage])
        field_s = statistics.median(samples["field"][stage])
        stages[stage] = {
            "scalar_s": round(scalar_s, 6),
            "field_s": round(field_s, 6),
            "speedup": round(scalar_s / field_s, 4) if field_s > 0 else None,
        }
    return {
        "design": bench,
        "stages": stages,
        "quality": qualities["field"],
    }


def run_benchmarks() -> dict:
    designs = []
    for bench in BENCHES:
        print(f"benchmarking {bench} ({RUNS}x both modes)...", flush=True)
        designs.append(bench_design(bench))
    return {
        "schema": SCHEMA,
        "median_of": RUNS,
        "rrr_passes": RRR_PASSES,
        "gated_stage": GATED_STAGE,
        "designs": designs,
    }


def check(report: dict, baseline: dict, max_regression: float) -> int:
    """Compare speedup ratios against the committed baseline."""
    failures = []
    base_by_name = {d["design"]: d for d in baseline.get("designs", [])}
    for entry in report["designs"]:
        name = entry["design"]
        base = base_by_name.get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline")
            continue
        current = entry["stages"][GATED_STAGE]["speedup"]
        committed = base["stages"][GATED_STAGE]["speedup"]
        floor = committed * (1.0 - max_regression)
        status = "ok" if current >= floor else "REGRESSION"
        print(
            f"{name}: {GATED_STAGE} speedup {current:.2f}x "
            f"(baseline {committed:.2f}x, floor {floor:.2f}x) {status}"
        )
        if current < floor:
            failures.append(
                f"{name}: {GATED_STAGE} speedup {current:.2f}x regressed "
                f">{max_regression:.0%} below baseline {committed:.2f}x"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", type=Path, help="write report JSON")
    parser.add_argument(
        "--check", type=Path, metavar="BASELINE",
        help="compare against a committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="tolerated relative speedup regression (default 0.25)",
    )
    args = parser.parse_args()

    report = run_benchmarks()
    text = json.dumps(report, indent=1)
    if args.output:
        atomic_write(args.output, text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.check:
        baseline = json.loads(args.check.read_text())
        return check(report, baseline, args.max_regression)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

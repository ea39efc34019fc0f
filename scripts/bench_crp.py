#!/usr/bin/env python
"""CR&P incremental-kernel benchmark (BENCH_crp.json).

Times one ``crp_iteration`` (the full five-step CR&P loop) on two
generated benchmarks (fixed seeds from ``repro.benchgen.SUITE``) in
both kernel modes: ``slow`` (``FullRecomputeCrp`` from
``tests/oracles/crp.py``, the full-recompute oracle) and ``fast`` (the
production :class:`CrpFramework`: ECC pricing cache, O(dirty-nets)
cost accounting, window-ILP memo + specialized exact window solver).  Runs are interleaved fast/slow so
machine noise hits both modes alike; the reported time is the median.

Every run asserts the two modes are *byte-identical*: SHA-256 digests
over the chosen moves (all cell positions after the iteration), the
committed routes (sorted edge lists), and the flow quality (GR
wirelength / vias / overflow / total route cost) must match between
modes and between repeat runs of one mode.  The kernel is a pure
speedup, never a behavior change.

Usage::

    python scripts/bench_crp.py -o BENCH_crp.json          # write baseline
    python scripts/bench_crp.py --check BENCH_crp.json     # CI gate
    python scripts/bench_crp.py --designs ispd18_test1 ... # subset (CI)

``--check`` fails (exit 1) when a mode pair diverges byte-wise (always
fatal, even without ``--check``), when a freshly measured
``ispd18_test5`` speedup falls below ``--min-speedup`` (default 2.0),
or when the committed baseline's ``ispd18_test5`` entry is below the
floor — so a CI run that only re-measures the small design still
vouches for the committed large-design numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import scipy.optimize  # noqa: F401,E402 — hoist the one-time solver import out of timed regions

from repro.benchgen import make_design  # noqa: E402
from repro.ckpt import atomic_write  # noqa: E402
from repro.core import CrpFramework  # noqa: E402
from repro.core.config import CrpConfig  # noqa: E402
from repro.groute import GlobalRouter  # noqa: E402

from oracles.crp import FullRecomputeCrp  # noqa: E402

SCHEMA = "repro.crp/bench-1"
BENCHES = ("ispd18_test1", "ispd18_test5")
RUNS = 5
RRR_PASSES = 3
#: the design whose fast/slow speedup the CI gate enforces (test1 is
#: too short for a robust ratio; it is still byte-equality-checked)
GATED_DESIGN = "ispd18_test5"
MIN_SPEEDUP = 2.0


def _digest(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def run_once(bench: str, fast: bool) -> tuple[float, dict]:
    """One routed design + one CR&P iteration; returns (seconds, digests)."""
    design = make_design(bench)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=RRR_PASSES)
    framework_class = CrpFramework if fast else FullRecomputeCrp
    framework = framework_class(design, router, CrpConfig())
    t0 = time.perf_counter()
    framework.run_iteration(0)
    seconds = time.perf_counter() - t0
    digests = {
        "moves": _digest(
            sorted(
                (name, cell.x, cell.y, str(cell.orient))
                for name, cell in design.cells.items()
            )
        ),
        "routes": _digest(
            sorted(
                (name, sorted(map(str, route.edges)))
                for name, route in router.routes.items()
            )
        ),
        "quality": _digest(
            {
                "wirelength_dbu": router.total_wirelength_dbu(),
                "vias": router.total_vias(),
                "overflow": router.total_overflow(),
                "total_route_cost": router.total_route_cost(),
            }
        ),
    }
    return seconds, digests


def bench_design(bench: str) -> dict:
    """Interleaved median-of-RUNS timing plus the byte-equality asserts."""
    samples: dict[str, list[float]] = {"fast": [], "slow": []}
    digests: dict[str, dict] = {}
    for _ in range(RUNS):
        for mode, fast in (("fast", True), ("slow", False)):
            seconds, run_digests = run_once(bench, fast)
            samples[mode].append(seconds)
            previous = digests.setdefault(mode, run_digests)
            if previous != run_digests:
                raise SystemExit(
                    f"FAIL: {bench} {mode} mode is nondeterministic: "
                    f"{previous} != {run_digests}"
                )
    if digests["fast"] != digests["slow"]:
        raise SystemExit(
            f"FAIL: {bench} fast/slow kernels diverge byte-wise:\n"
            f"  fast: {digests['fast']}\n"
            f"  slow: {digests['slow']}"
        )
    fast_s = statistics.median(samples["fast"])
    slow_s = statistics.median(samples["slow"])
    return {
        "design": bench,
        "crp_iteration": {
            "slow_s": round(slow_s, 6),
            "fast_s": round(fast_s, 6),
            "speedup": round(slow_s / fast_s, 4) if fast_s > 0 else None,
        },
        "digests": digests["fast"],
    }


def run_benchmarks(benches: tuple[str, ...]) -> dict:
    designs = []
    for bench in benches:
        print(
            f"benchmarking {bench} ({RUNS}x interleaved fast/slow)...",
            flush=True,
        )
        designs.append(bench_design(bench))
    return {
        "schema": SCHEMA,
        "median_of": RUNS,
        "rrr_passes": RRR_PASSES,
        "gated_design": GATED_DESIGN,
        "min_speedup": MIN_SPEEDUP,
        "designs": designs,
    }


def check(report: dict, baseline: dict, min_speedup: float) -> int:
    """Byte-equality already held (run_benchmarks raises otherwise);
    enforce the speedup floor on fresh and committed numbers."""
    failures = []
    for entry in report["designs"]:
        name = entry["design"]
        speedup = entry["crp_iteration"]["speedup"]
        gated = name == GATED_DESIGN
        status = "ok" if (not gated or speedup >= min_speedup) else "TOO SLOW"
        print(
            f"{name}: crp_iteration {speedup:.2f}x "
            f"({'gated, floor ' + format(min_speedup, '.2f') + 'x' if gated else 'informational'}) "
            f"{status}"
        )
        if gated and speedup < min_speedup:
            failures.append(
                f"{name}: measured speedup {speedup:.2f}x < {min_speedup:.2f}x"
            )
    committed = {
        d["design"]: d for d in baseline.get("designs", [])
    }.get(GATED_DESIGN)
    if committed is None:
        failures.append(f"baseline is missing the {GATED_DESIGN} entry")
    else:
        speedup = committed["crp_iteration"]["speedup"]
        print(
            f"baseline {GATED_DESIGN}: crp_iteration {speedup:.2f}x "
            f"(floor {min_speedup:.2f}x) "
            f"{'ok' if speedup >= min_speedup else 'TOO SLOW'}"
        )
        if speedup < min_speedup:
            failures.append(
                f"baseline {GATED_DESIGN} speedup {speedup:.2f}x "
                f"< {min_speedup:.2f}x"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", type=Path, help="write report JSON")
    parser.add_argument(
        "--check", type=Path, metavar="BASELINE",
        help="gate against a committed baseline; exit 1 on failure",
    )
    parser.add_argument(
        "--designs", default=",".join(BENCHES),
        help="comma-separated subset of designs to measure",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=MIN_SPEEDUP,
        help=f"gated-design speedup floor (default {MIN_SPEEDUP})",
    )
    args = parser.parse_args()

    benches = tuple(
        name for name in args.designs.split(",") if name.strip()
    )
    report = run_benchmarks(benches)
    text = json.dumps(report, indent=1)
    if args.output:
        atomic_write(args.output, text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.check:
        baseline = json.loads(args.check.read_text())
        return check(report, baseline, args.min_speedup)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

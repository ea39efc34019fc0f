#!/usr/bin/env python
"""Detailed-routing kernel benchmark (BENCH_droute.json).

Times the full detailed-routing pass (first pass + conflict rounds +
DRC) on generated benchmarks with both backends — the dict-of-tuples
oracle (``DictDetailedRouter`` from ``tests/oracles/droute.py``) and
the flat indexed kernel (the production :class:`DetailedRouter`) —
best of three interleaved runs over one shared set of global-routing
guides per design.  Like ``timeit``, the *minimum* is reported per backend: the
kernel's work is deterministic, so the fastest run is the one least
disturbed by scheduler interference, and the min is far more stable
than the median on busy single-core runners.

Every run asserts that the two backends produce *byte-identical*
results (a SHA-256 over every routed path, plus DRVs / wirelength /
vias) — the indexed kernel is a pure speedup, never a behavior change.
The byte-equality assert always runs; the speedup gate compares the
oracle/indexed *ratio* (never absolute times), so it is robust to
runner speed:

* ``ispd18_test5``: the indexed kernel must be at least 2x the oracle.

Usage::

    python scripts/bench_droute.py -o BENCH_droute.json       # baseline
    python scripts/bench_droute.py --check BENCH_droute.json  # CI gate

``--check`` reruns the benchmark, applies the speedup gate, and
verifies the quality block still matches the committed baseline
byte-for-byte (results are machine-independent, so this doubles as a
cross-machine determinism gate).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from repro.benchgen import make_design  # noqa: E402
from repro.ckpt import atomic_write  # noqa: E402
from repro.droute import DetailedRouter  # noqa: E402
from repro.groute import GlobalRouter  # noqa: E402

from oracles.droute import DictDetailedRouter  # noqa: E402

SCHEMA = "repro.droute/bench-1"
BENCHES = ("ispd18_test1", "ispd18_test5")
RUNS = 3
MODES = ("oracle", "indexed")
#: minimum indexed-over-oracle speedup, per gated design
SPEEDUP_GATES = {"ispd18_test5": 2.0}


def quality_of(result) -> dict:
    """Machine-independent digest of one DetailedResult."""
    digest = hashlib.sha256()
    for name in sorted(result.paths):
        digest.update(name.encode())
        digest.update(repr(result.paths[name]).encode())
    return {
        "wirelength_dbu": result.wirelength_dbu,
        "vias": result.vias,
        "num_drvs": result.num_drvs,
        "drv_counts": result.drv_counts(),
        "paths_sha256": digest.hexdigest(),
    }


def bench_design(bench: str) -> dict:
    """Best-of-RUNS DR wall time per backend + byte-equality assert."""
    design = make_design(bench)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=0)
    guides = router.guides()

    samples: dict[str, list[float]] = {mode: [] for mode in MODES}
    qualities: dict[str, dict] = {}
    for _ in range(RUNS):
        for mode in MODES:
            router_class = (
                DetailedRouter if mode == "indexed" else DictDetailedRouter
            )
            detailed = router_class(design)
            t0 = time.perf_counter()
            result = detailed.route_all(guides)
            samples[mode].append(time.perf_counter() - t0)
            quality = quality_of(result)
            previous = qualities.setdefault(mode, quality)
            if previous != quality:
                raise SystemExit(
                    f"FAIL: {bench} backend {mode} is nondeterministic: "
                    f"{previous} != {quality}"
                )
    if qualities["indexed"] != qualities["oracle"]:
        raise SystemExit(
            f"FAIL: {bench} backends diverge:\n"
            f"  oracle:  {qualities['oracle']}\n"
            f"  indexed: {qualities['indexed']}"
        )
    oracle_s = min(samples["oracle"])
    indexed_s = min(samples["indexed"])
    return {
        "design": bench,
        "oracle_s": round(oracle_s, 6),
        "indexed_s": round(indexed_s, 6),
        "indexed_speedup": (
            round(oracle_s / indexed_s, 4) if indexed_s > 0 else None
        ),
        "quality": qualities["oracle"],
    }


def run_benchmarks() -> dict:
    designs = []
    for bench in BENCHES:
        print(f"benchmarking {bench} ({RUNS}x oracle + indexed)...", flush=True)
        designs.append(bench_design(bench))
    return {
        "schema": SCHEMA,
        "best_of": RUNS,
        "speedup_gates": SPEEDUP_GATES,
        "designs": designs,
    }


def check(report: dict, baseline: dict) -> int:
    """Apply the speedup gate + baseline quality diff."""
    failures = []
    base_by_name = {d["design"]: d for d in baseline.get("designs", [])}
    for entry in report["designs"]:
        name = entry["design"]
        base = base_by_name.get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline")
        elif base["quality"] != entry["quality"]:
            failures.append(
                f"{name}: quality diverges from the committed baseline — "
                f"routing results are no longer machine-independent"
            )
        speedup = entry["indexed_speedup"]
        floor = SPEEDUP_GATES.get(name)
        if floor is None:
            print(f"{name}: indexed {speedup:.2f}x (ungated)")
            continue
        status = "ok" if speedup >= floor else "REGRESSION"
        print(f"{name}: indexed {speedup:.2f}x (floor {floor}x) {status}")
        if speedup < floor:
            failures.append(
                f"{name}: indexed kernel speedup {speedup:.2f}x below the "
                f"{floor}x floor"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", type=Path, help="write report JSON")
    parser.add_argument(
        "--check", type=Path, metavar="BASELINE",
        help="apply the speedup gate and diff quality against a baseline",
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
        return check(report, baseline)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

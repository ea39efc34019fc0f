"""End-to-end flow benchmark: GR -> CR&P -> DR, cold start and quality.

Run from the repository root::

    python3 flowbench/run.py --workload test1_crp_k10 --seed 1 --seconds 55 --trace 0

Every sample is a fresh interpreter (``flowbench/child.py``) started
serially with a pinned environment.  ``--trace 0`` runs ``run_flow`` as
users do and reports the end-to-end metrics; ``--trace 1`` drives the
same stages one public call at a time and reports the per-layer
metrics.  Each run checks every sample's outputs, prints one line per
metric, an ``info`` line (environment, digests, quality), and as its
last line ``{"correct", "attempted", "failed", "metrics"}``.

``flow_s`` is the median over samples of the ``run_flow`` wall time
rescaled to a reference host speed, which each sample measures just
before and just after its flow (``flowbench/hostspeed.py``).  A run that
lands in a slow stretch of a shared host then does not read as a slower
program.

``--seed`` is the run seed: it becomes each sample's ``PYTHONHASHSEED``,
so every run also re-checks that the outputs do not depend on string
hash order.  The design is fixed per workload (the suite seed) unless
``--design-seed`` names another; see ``flowbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: cold starts per ``--trace 0`` run: each flow sample pays one, and
#: setup-only samples top up the count when one flow fills the run, so
#: ``setup_s`` is always a median
MIN_SETUP_SAMPLES = 3
#: wall-clock cap for one whole run; a sample still going is killed
RUN_LIMIT_S = 170.0


def pinned_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    # CrpConfig reads both: a worker pool or checkpoint writes would
    # silently replace the serial pipeline this benchmark measures.
    env.pop("CRP_WORKERS", None)
    env.pop("CRP_CHECKPOINT_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    # Compile from source every time: setup_s must not depend on whether
    # an earlier run left bytecode behind.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class Sampler:
    """Starts samples one at a time and keeps what each returned."""

    def __init__(self, workload: str, design_seed: int | None, seed: int) -> None:
        self.args = ["--workload", workload]
        if design_seed is not None:
            self.args += ["--design-seed", str(design_seed)]
        self.env = pinned_env(seed)
        self.start = time.perf_counter()
        self.attempted = 0
        self.samples: list[dict] = []
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def run(self, kind: str) -> dict | None:
        self.attempted += 1
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        cmd = [sys.executable, str(HERE / "child.py"), kind, *self.args]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            # subprocess.run kills the child and waits for it.
            self.failures.append(f"{kind}: timed out after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            sample = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            sample = None
        if sample is None:
            self.failures.append(f"{kind}: exit code {proc.returncode}, no result")
            return None
        sample["kind"] = kind
        errors = list(sample.get("errors", []))
        if kind != "setup":
            errors += mismatches(self.reference(), sample)
        if errors:
            self.failures.append(f"{kind}: " + "; ".join(errors))
            return None
        self.samples.append(sample)
        return sample

    def reference(self) -> dict | None:
        return next((s for s in self.samples if s["kind"] != "setup"), None)

    def of(self, kind: str) -> list[dict]:
        return [s for s in self.samples if s["kind"] == kind]


def mismatches(reference: dict | None, sample: dict) -> list[str]:
    """What a sample's outputs disagree on with the run's first flow."""
    if reference is None:
        return []
    return [
        f"{key} differs from the first sample"
        for key in ("routes_digest", "placement_digest", "quality")
        if sample.get(key) != reference.get(key)
    ]


def fill(sampler: Sampler, kind: str, seconds: float) -> None:
    """Run ``kind`` samples back to back while the next one fits.

    At least one sample runs; another starts only when the last one's
    duration predicts it ends within ``seconds`` of the run's start.
    """
    while True:
        started = sampler.elapsed()
        sampler.run(kind)
        last = sampler.elapsed() - started
        if sampler.elapsed() + last > min(seconds, RUN_LIMIT_S / 2):
            return


def rescaled_flow_s(sample: dict) -> float:
    """A flow sample's wall time at the reference host speed.

    The sample's own process timed the calibration just before and just
    after the flow, on the same CPU in the same stretch of host speed.
    """
    host_s = statistics.fmean(sample["calibration_s"])
    return sample["flow_s"] * hostspeed.REFERENCE_S / host_s


def end_to_end(sampler: Sampler, seconds: float) -> dict[str, float]:
    fill(sampler, "flow", seconds)
    while len(sampler.samples) < MIN_SETUP_SAMPLES and not sampler.failures:
        sampler.run("setup")
    flows = sampler.of("flow")
    if not flows:
        return {}
    quality = flows[0]["quality"]
    return {
        "flow_s": statistics.median(rescaled_flow_s(s) for s in flows),
        "setup_s": statistics.median(
            s["setup"]["setup_s"] for s in sampler.samples
        ),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in flows),
        "dr_wirelength_dbu": quality["wirelength_dbu"],
        "dr_vias": quality["vias"],
        "ispd_score": quality["score"],
    }


def per_layer(sampler: Sampler, seconds: float) -> dict[str, float]:
    # The run_flow sample first: every traced sample must reproduce it.
    sampler.run("flow")
    fill(sampler, "traced", seconds)
    traced = sampler.of("traced")
    if not traced or not sampler.of("flow"):
        return {}
    layer = {
        "host.calibration_s": statistics.median(
            c for s in traced for c in s["calibration_s"]
        )
    }
    for name in PER_LAYER:
        if name in layer:
            continue
        if name in traced[0]["setup"]:
            values = [s["setup"][name] for s in sampler.samples]
        else:
            values = [s["layer"][name] for s in traced]
        layer[name] = statistics.median(values)
    return layer


def info(sampler: Sampler, args: argparse.Namespace) -> dict:
    reference = sampler.reference() or {}
    first = sampler.samples[0] if sampler.samples else {}
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "design_seed": args.design_seed,
        "nproc": os.cpu_count(),
        "versions": first.get("versions"),
        "samples": {
            kind: len(sampler.of(kind)) for kind in ("setup", "flow", "traced")
        },
        "flow_s_samples": [s["flow_s"] for s in sampler.of("flow")],
        "setup_s_samples": [s["setup"]["setup_s"] for s in sampler.samples],
        "calibration_s_samples": [
            c for s in sampler.samples for c in s.get("calibration_s", ())
        ],
        "routes_digest": reference.get("routes_digest"),
        "placement_digest": reference.get("placement_digest"),
        "quality": reference.get("quality"),
        "failures": sampler.failures,
        "wall_s": sampler.elapsed(),
    }
    traced = sampler.of("traced")
    if traced:
        doc["traced_shares"] = traced[0]["shares"]
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--design-seed", type=int, default=None,
        help="generate the workload's design with this seed instead of "
        "the suite's (see README.md for the held-out seed)",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"flowbench: no program to measure at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2

    sampler = Sampler(args.workload, args.design_seed, args.seed)
    if args.trace:
        values, catalogue = per_layer(sampler, args.seconds), PER_LAYER
    else:
        values, catalogue = end_to_end(sampler, args.seconds), END_TO_END
    if not values:
        print("flowbench: no sample completed: " + " | ".join(sampler.failures),
              file=sys.stderr)
        return 1

    for name, unit in catalogue.items():
        print(f"{name:32s} {values[name]!r:>24} {unit}")
    print(json.dumps({"info": info(sampler, args)}))
    failed = len(sampler.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sampler.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in catalogue.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

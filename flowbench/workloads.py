"""Workload table and metric catalogue of the flow benchmark.

Shared by ``run.py`` (the driver) and ``child.py`` (one sample in a
fresh interpreter).  Imports nothing from ``repro`` so the driver stays
a pure-stdlib process.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One flow configuration: a suite design and a flow mode."""

    design: str
    mode: str
    crp_iterations: int
    #: design seed that no change was tuned on; pass it as
    #: ``--design-seed`` to check a claim on an unseen design
    held_out_seed: int
    why: str


WORKLOADS: dict[str, Workload] = {
    "test1_crp_k10": Workload(
        design="ispd18_test1",
        mode="crp",
        crp_iterations=10,
        held_out_seed=101,
        why="CR&P k=10 on the smallest design: CR&P (GCP window ILPs) is "
        "~95% of the flow, DR ~1%",
    ),
    "test2_baseline": Workload(
        design="ispd18_test2",
        mode="baseline",
        crp_iterations=0,
        held_out_seed=102,
        why="GR + DR only on the least congested design: no CR&P code runs, "
        "so a CR&P change must read no change",
    ),
    # Not in BENCHMARK.json: one flow takes ~20 s, so a run holds one or
    # two samples and its median swings with the host (see README.md).
    # Run it by name to check the test5 quality figures.
    "test5_crp_k1": Workload(
        design="ispd18_test5",
        mode="crp",
        crp_iterations=1,
        held_out_seed=105,
        why="CR&P k=1 on the congested 32 nm design with a blockage: DR "
        "~70% on budget-hungry searches, one wide ECC-heavy CR&P pass",
    ),
}

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END: dict[str, str] = {
    "flow_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "dr_wirelength_dbu": "dbu",
    "dr_vias": "count",
    "ispd_score": "score",
}

#: per-layer metrics (``--trace 1``): name -> unit
PER_LAYER: dict[str, str] = {
    "host.calibration_s": "s",
    "setup.import_s": "s",
    "setup.solver_warmup_s": "s",
    "benchgen.generate_s": "s",
    "groute.init_s": "s",
    "groute.route_all_s": "s",
    "groute.initial_s": "s",
    "groute.rrr_s": "s",
    "groute.maze_calls": "count",
    "groute.maze_expansions": "count",
    "groute.rrr_victims": "count",
    "groute.guides_s": "s",
    "groute.overflow": "count",
    "groute.wirelength_dbu": "dbu",
    "groute.vias": "count",
    "crp.run_s": "s",
    "crp.label_s": "s",
    "crp.GCP_s": "s",
    "crp.ECC_s": "s",
    "crp.ILP_s": "s",
    "crp.UD_s": "s",
    "crp.ecc_cache_hit_ratio": "ratio",
    "crp.critical_cells": "count",
    "crp.candidates": "count",
    "crp.cells_moved": "count",
    "crp.move_ratio": "ratio",
    "crp.rerouted_nets": "count",
    "guard.rollbacks": "count",
    "legalizer.windows": "count",
    "legalizer.window_fast_ratio": "ratio",
    "legalizer.window_memo_hits": "count",
    "ilp.solves": "count",
    "ilp.solve_s": "s",
    "droute.init_s": "s",
    "droute.route_all_s": "s",
    "droute.first_pass_s": "s",
    "droute.rrr_s": "s",
    "droute.drc_s": "s",
    "droute.astar_calls": "count",
    "droute.astar_expansions": "count",
    "droute.astar_expansions_max": "count",
    "droute.ripped_nets": "count",
    "droute.opens": "count",
    "evalmetrics.evaluate_s": "s",
    "evalmetrics.drvs": "count",
    "evalmetrics.drv.short": "count",
    "evalmetrics.drv.min_area": "count",
    "evalmetrics.drv.open": "count",
    "obs.traced_flow_s": "s",
    "obs.unattributed_s": "s",
}

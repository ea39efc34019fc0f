"""Reference implementations the production kernels are tested against.

Each module here is the slow twin of one production kernel, moved
verbatim out of ``src/`` when that kernel became the only code path:

* :mod:`oracles.cost` — the scalar Eq. 10 ``CostModel`` that
  :class:`repro.grid.field.CostField` must match bit for bit;
* :mod:`oracles.groute` — pattern, maze and RRR routing priced edge by
  edge through ``CostModel`` (``ScalarGlobalRouter``);
* :mod:`oracles.droute` — the dict-of-tuples detailed-routing state and
  A* (``DictDetailedRouter``) that the indexed kernel must match;
* :mod:`oracles.crp` — the uncached candidate-cost estimator, full-
  rescan route costs and the plain per-window ILP
  (``FullRecomputeCrp``).

They reach into production only by subclassing or by patching
existing methods for the duration of a call, so ``src/`` carries no
switch, parameter or registry for them.  The parity tests and the
``scripts/bench_{perf,droute,crp}.py`` gates import them with
``tests/`` on ``sys.path``.
"""

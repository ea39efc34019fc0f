"""Cross-process race checks for ``multiprocessing`` code (REPRO-X00x).

The flow itself is serial.  These checks keep any future process pool
honest: a pool is only deterministic under a *discipline*, not a lock —
workers get parent state through their task payloads and report
results through one queue.  Anything else that crosses the process
boundary is a silent divergence.  Two interprocedural checks enforce
the discipline:

* **REPRO-X002** — from every worker entry point (``Process(target=
  ...)`` spawn targets plus configured names), following call *and*
  thread edges, no reachable function may write module-level state:
  ``global``-declared rebinds, mutator-method calls, or subscript/
  attribute stores on module variables.  Workers that cache through
  module globals diverge from the parent (and from ``spawn`` siblings)
  invisibly.  Modules that are process-local by design (``repro.obs``,
  ``repro.guard`` context registries) are exempt.

* **REPRO-X003** — each multiprocessing queue endpoint must have a
  single consumer function per process side.  Two functions competing
  on one ``.get()`` endpoint interleave nondeterministically, which is
  exactly the commit-order hazard a single collect stage prevents.
"""

from __future__ import annotations

import ast

from repro.analyze.dataflow.callgraph import CallIndex, _own_nodes, reachable
from repro.analyze.dataflow.project import FunctionInfo, Project
from repro.analyze.dataflow.ruleset import register_dataflow_rules
from repro.analyze.findings import Finding
from repro.analyze.rules import RULES, _call_name

#: method calls that mutate their receiver in place
_WRITE_METHODS = frozenset(
    (
        "append", "add", "extend", "insert", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "sort",
        "reverse", "appendleft", "extendleft",
    )
)

_QUEUE_CTORS = frozenset(("Queue", "SimpleQueue", "JoinableQueue"))


def worker_entry_points(
    project: Project, index: CallIndex, names: tuple[str, ...]
) -> set[str]:
    """Qualnames that begin executing in a pool worker process."""
    entries: set[str] = set()
    for name in names:
        entries.update(project.functions_named(name))
    for spawns in index.spawns.values():
        for kind, target in spawns:
            if kind == "process":
                entries.add(target)
    return entries


def race_findings(
    project: Project,
    index: CallIndex,
    *,
    worker_entries: tuple[str, ...] = ("worker_main",),
    process_local_modules: tuple[str, ...] = ("repro.obs", "repro.guard"),
) -> list[Finding]:
    register_dataflow_rules()
    findings = _module_state_findings(
        project, index, worker_entries, process_local_modules
    )
    findings.extend(_queue_consumer_findings(project, index))
    findings.sort(key=Finding.sort_key)
    return findings


# ----------------------------------------------------------- REPRO-X002


def _module_state_findings(
    project: Project,
    index: CallIndex,
    worker_entries: tuple[str, ...],
    process_local_modules: tuple[str, ...],
) -> list[Finding]:
    entries = worker_entry_points(project, index, worker_entries)
    worker_side = reachable(
        index, entries, follow_threads=True, follow_processes=True
    )
    spec = RULES["REPRO-X002"]
    findings: list[Finding] = []
    for qual in sorted(worker_side):
        info = project.functions.get(qual)
        if info is None:
            continue
        module = project.modules[info.module]
        if any(
            module.name == prefix or module.name.startswith(prefix + ".")
            for prefix in process_local_modules
        ):
            continue
        for line, description in _module_writes(info, module.module_vars):
            findings.append(
                Finding(
                    rule=spec.id,
                    severity=spec.severity_for(info.path),
                    path=info.path,
                    line=line,
                    message=(
                        f"{description} in `{qual.rsplit('.', 1)[-1]}()`, "
                        "which is reachable from worker entry point(s) "
                        f"{', '.join(sorted(e.rsplit('.', 1)[-1] for e in entries))}"
                    ),
                    hint=spec.hint,
                )
            )
    return findings


def _module_writes(
    info: FunctionInfo, module_vars: set[str]
) -> list[tuple[int, str]]:
    """(line, description) for each module-level write in one function."""
    declared_global: set[str] = set()
    shadowed: set[str] = set()
    args = info.node.args
    for a in (
        args.posonlyargs
        + args.args
        + args.kwonlyargs
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        shadowed.add(a.arg)
    nodes = list(_own_nodes(info))
    for node in nodes:
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            shadowed.add(node.id)
    shadowed -= declared_global

    writes: list[tuple[int, str]] = []

    def is_module_ref(expr: ast.expr) -> str | None:
        if not isinstance(expr, ast.Name):
            return None
        name = expr.id
        if name in declared_global:
            return name
        if name in module_vars and name not in shadowed:
            return name
        return None

    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    writes.append(
                        (
                            node.lineno,
                            f"rebinds module global `{target.id}`",
                        )
                    )
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = is_module_ref(target.value)
                    if name is not None:
                        writes.append(
                            (
                                node.lineno,
                                f"stores into module-level `{name}`",
                            )
                        )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in _WRITE_METHODS:
                name = is_module_ref(node.func.value)
                if name is not None:
                    writes.append(
                        (
                            node.lineno,
                            f"mutates module-level `{name}` via "
                            f"`.{node.func.attr}()`",
                        )
                    )
    return sorted(set(writes))


# ----------------------------------------------------------- REPRO-X003


def _queue_consumer_findings(
    project: Project, index: CallIndex
) -> list[Finding]:
    """Each mp queue endpoint must be drained by one function only."""
    # queue endpoints: self-attribute or module-level names bound to a
    # Queue constructor anywhere in the project
    endpoints: set[str] = set()
    for info in project.functions_sorted():
        for node in _own_nodes(info):
            if not isinstance(node, ast.Assign):
                continue
            if not (
                isinstance(node.value, ast.Call)
                and _call_name(node.value).split(".")[-1] in _QUEUE_CTORS
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ):
                    endpoints.add(target.attr)
                elif isinstance(target, ast.Name):
                    endpoints.add(target.id)
    if not endpoints:
        return []

    # consumers: functions calling `.get(...)` on an endpoint name
    consumers: dict[str, dict[str, int]] = {}  # endpoint -> qual -> line
    for info in project.functions_sorted():
        for node in _own_nodes(info):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
            ):
                continue
            receiver = node.func.value
            name = None
            if isinstance(receiver, ast.Attribute):
                name = receiver.attr
            elif isinstance(receiver, ast.Name):
                name = receiver.id
            if name in endpoints:
                sites = consumers.setdefault(name, {})
                if info.qualname not in sites:
                    sites[info.qualname] = node.lineno

    spec = RULES["REPRO-X003"]
    findings: list[Finding] = []
    for endpoint in sorted(consumers):
        sites = consumers[endpoint]
        if len(sites) < 2:
            continue
        names = sorted(sites)
        for qual in names:
            info = project.functions[qual]
            others = ", ".join(
                f"`{q.rsplit('.', 1)[-1]}()`" for q in names if q != qual
            )
            findings.append(
                Finding(
                    rule=spec.id,
                    severity=spec.severity_for(info.path),
                    path=info.path,
                    line=sites[qual],
                    message=(
                        f"queue `{endpoint}` is also consumed by {others}; "
                        "competing `.get()` sites interleave "
                        "nondeterministically"
                    ),
                    hint=spec.hint,
                )
            )
    findings.sort(key=Finding.sort_key)
    return findings

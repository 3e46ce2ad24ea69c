"""Dead-TCB cross-check: static reachability vs. the dynamic tracer.

The paper minimizes ported drivers by *dynamic* tracing: run the task,
keep what executed.  This module computes the *static* complement — every
driver function reachable (by AST call-graph walk) from the trusted
application's entry points — and diffs the two:

* statically reachable ∧ dynamically traced → needed, kept (healthy);
* statically reachable ∧ never traced across all T2 task profiles →
  **dead TCB**: code an attacker can still reach through the TA interface
  but that no supported task needs — prime candidates for compiling out
  beyond what the per-task plans already strip;
* dynamically traced but not statically reachable → tracer noise or a
  reflection-style call the AST walk cannot see (reported so the static
  graph's blind spots stay visible).

Reachability starts at TrustedApplication entry methods, resolves calls
by simple name within the secure/boundary/shared worlds, and treats
``invoke_pta`` as a dispatch edge into every PTA (``PseudoTa`` subclass)
entry method — the same configured dispatch the world-boundary rules use.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.analysis.findings import Finding, SEVERITY_ERROR
from repro.analysis.modgraph import Project, FunctionInfo, call_name, rel_path
from repro.analysis.worlds import World, WorldMap

_PTA_ENTRY_METHODS = ("on_invoke", "on_open_session", "on_close_session")


@dataclass(frozen=True)
class StaticReachability:
    """Raw result of the AST walk from TA entry points."""

    entry_points: tuple[str, ...]       # "module:qualname" roots
    visited: tuple[str, ...]            # "module:qualname" reached functions
    called_names: frozenset[str]        # simple names of every call made


def static_reachability(project: Project, wmap: WorldMap) -> StaticReachability:
    """Walk the call graph from TA entry points through the secure worlds."""
    spec = wmap.taint
    index: dict[str, list[FunctionInfo]] = {}
    candidates: list[FunctionInfo] = []
    for mod in project.modules.values():
        if wmap.world_of(mod.name) is World.NORMAL:
            continue
        for fn in mod.functions.values():
            index.setdefault(fn.name, []).append(fn)
            candidates.append(fn)

    roots = [
        fn for fn in candidates
        if fn.name in spec.entry_methods
        and any(b in spec.entry_bases for b in fn.class_bases)
    ]
    pta_entries = [
        fn for fn in candidates
        if fn.name in _PTA_ENTRY_METHODS
        and any(b in wmap.pta_bases for b in fn.class_bases)
    ]

    def key(fn: FunctionInfo) -> str:
        return f"{fn.module}:{fn.qualname}"

    visited: dict[str, FunctionInfo] = {}
    called: set[str] = set()
    work = list(roots)
    while work:
        fn = work.pop()
        if key(fn) in visited:
            continue
        visited[key(fn)] = fn
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node.func)
            if name is None:
                continue
            simple = name.split(".")[-1]
            called.add(simple)
            work.extend(index.get(simple, ()))
            if simple in wmap.pta_dispatch_calls:
                work.extend(pta_entries)

    return StaticReachability(
        entry_points=tuple(sorted(key(fn) for fn in roots)),
        visited=tuple(sorted(visited)),
        called_names=frozenset(called),
    )


@dataclass(frozen=True)
class DeadTcbReport:
    """Static/dynamic driver-function diff for one driver."""

    driver: str
    entry_points: tuple[str, ...]
    loc: Mapping[str, int]              # driver fn name → declared LoC
    static_reachable: frozenset[str]    # driver fns reachable from TA entries
    dynamic_hit: frozenset[str]         # driver fns traced across all tasks

    @property
    def dead(self) -> tuple[str, ...]:
        """Statically reachable, never dynamically exercised."""
        return tuple(sorted(self.static_reachable - self.dynamic_hit))

    @property
    def untracked_dynamic(self) -> tuple[str, ...]:
        """Traced but not statically reachable — static blind spots."""
        return tuple(sorted(self.dynamic_hit - self.static_reachable))

    @property
    def dead_loc(self) -> int:
        return sum(self.loc.get(fn, 0) for fn in self.dead)

    @property
    def static_loc(self) -> int:
        return sum(self.loc.get(fn, 0) for fn in self.static_reachable)

    def to_doc(self) -> dict:
        return {
            "driver": self.driver,
            "entry_points": list(self.entry_points),
            "static_reachable": sorted(self.static_reachable),
            "dynamic_hit": sorted(self.dynamic_hit),
            "dead": list(self.dead),
            "dead_loc": self.dead_loc,
            "static_loc": self.static_loc,
            "untracked_dynamic": list(self.untracked_dynamic),
        }


# -- parse-only driver extraction + the T001 regression gate -------------------
#
# The analyzer never imports the code it checks, so the driver name → LoC
# table comes from the ``@driver_fn(loc=..., ...)`` decorator literals,
# which are always statically spelled (and equal ``Driver.functions()`` by
# construction: ``driver_fn`` stores its ``loc`` argument verbatim).  The
# gate diffs the current dead set against a committed per-driver baseline
# (``analysis/deadtcb_baseline.json``) so dead-TCB *growth* fails CI the
# way the perf gate bounds cycles.

DEADTCB_BASELINE_NAME = "deadtcb_baseline.json"


@dataclass(frozen=True)
class DriverStatics:
    """Parse-only view of one instrumented driver class."""

    module: str
    class_qualname: str
    name: str                    # the class's NAME attribute
    lineno: int
    loc: Mapping[str, int]       # driver fn -> declared LoC
    fn_lines: Mapping[str, int]  # driver fn -> def lineno


def _driver_fn_loc(fn_node: ast.FunctionDef) -> int | None:
    """The ``loc`` of a ``@driver_fn(...)`` decorator, or None."""
    for dec in fn_node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        name = call_name(dec.func)
        if name is None or name.split(".")[-1] != "driver_fn":
            continue
        loc: int | None = None
        if dec.args and isinstance(dec.args[0], ast.Constant) and isinstance(
            dec.args[0].value, int
        ):
            loc = dec.args[0].value
        for kw in dec.keywords:
            if (kw.arg == "loc" and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, int)):
                loc = kw.value.value
        if loc is not None:
            return loc
    return None


def driver_statics(project: Project) -> dict[str, DriverStatics]:
    """Every ``Driver`` subclass with instrumented functions, by NAME."""
    out: dict[str, DriverStatics] = {}
    for mod in sorted(project.modules.values(), key=lambda m: m.name):
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {
                b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                for b in node.bases
            }
            if "Driver" not in bases:
                continue
            loc: dict[str, int] = {}
            fn_lines: dict[str, int] = {}
            name = ""
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id == "NAME"
                            and isinstance(stmt.value, ast.Constant)
                            and isinstance(stmt.value.value, str)
                        ):
                            name = stmt.value.value
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                fn_loc = _driver_fn_loc(stmt)
                if fn_loc is None:
                    continue
                loc[stmt.name] = fn_loc
                fn_lines[stmt.name] = stmt.lineno
            if not loc or not name:
                continue  # the Driver base class itself, or uninstrumented
            out[name] = DriverStatics(
                module=mod.name,
                class_qualname=node.name,
                name=name,
                lineno=node.lineno,
                loc=dict(loc),
                fn_lines=dict(fn_lines),
            )
    return out


def compute_dead_tcb(
    project: Project,
    wmap: WorldMap,
    statics: DriverStatics,
    dynamic_hit: frozenset[str],
    reach: StaticReachability | None = None,
) -> DeadTcbReport:
    """Diff static reachability against the union of traced keep-sets.

    ``statics`` (from :func:`driver_statics`) scopes the comparison to the
    driver's declared functions and their LoC.  ``dynamic_hit`` is the
    union of functions the kernel tracer observed across the task profiles
    (plus any always-keep set the plans used).
    """
    if reach is None:
        reach = static_reachability(project, wmap)
    static_driver = frozenset(
        n for n in statics.loc if n in reach.called_names
    )
    return DeadTcbReport(
        driver=statics.name,
        entry_points=reach.entry_points,
        loc=dict(statics.loc),
        static_reachable=static_driver,
        dynamic_hit=frozenset(dynamic_hit) & frozenset(statics.loc),
    )


def deadtcb_baseline_path(project: Project) -> Path:
    """Committed baseline location: ``<package>/analysis/deadtcb_baseline.json``."""
    return project.root / "analysis" / DEADTCB_BASELINE_NAME


def build_deadtcb_doc(
    project: Project,
    wmap: WorldMap,
    dynamic_hits: Mapping[str, frozenset[str]],
) -> dict:
    """The baseline document: per-driver dead set given the traced hits."""
    reach = static_reachability(project, wmap)
    drivers = {}
    for name, statics in sorted(driver_statics(project).items()):
        report = compute_dead_tcb(
            project, wmap, statics,
            frozenset(dynamic_hits.get(name, frozenset())), reach,
        )
        drivers[name] = {
            "module": statics.module,
            "dynamic_hit": sorted(report.dynamic_hit),
            "dead": list(report.dead),
            "dead_loc": report.dead_loc,
            "static_loc": report.static_loc,
        }
    return {"version": 1, "drivers": drivers}


def check_dead_tcb(project: Project, wmap: WorldMap) -> list[Finding]:
    """T001 — dead-TCB regressions against the committed baseline.

    For each instrumented driver, recompute static reachability from the
    TA entry points, subtract the *committed* dynamic-trace set, and flag
    (a) functions dead now but not at baseline time, (b) dead-LoC growth,
    and (c) drivers with no baseline entry at all (a new driver must be
    traced and baselined before it ships).  Packages without a committed
    baseline (the test fixtures) skip the pass entirely.
    """
    path = deadtcb_baseline_path(project)
    if not path.exists():
        return []
    doc = json.loads(path.read_text())
    entries: Mapping[str, dict] = doc.get("drivers", {})
    reach = static_reachability(project, wmap)
    findings: list[Finding] = []

    def finding(statics: DriverStatics, anchor: str, lineno: int,
                message: str) -> Finding:
        mod = project.modules[statics.module]
        return Finding(
            rule="T001",
            severity=SEVERITY_ERROR,
            module=statics.module,
            path=rel_path(project, mod),
            line=lineno,
            anchor=anchor,
            message=message,
        )

    for name, statics in sorted(driver_statics(project).items()):
        entry = entries.get(name)
        if entry is None:
            findings.append(finding(
                statics, f"deadtcb:{name}:missing", statics.lineno,
                f"driver {name!r} ({statics.module}.{statics.class_qualname}) "
                f"has no dead-TCB baseline entry; trace it and regenerate "
                f"with `repro tcb --write-deadtcb-baseline`",
            ))
            continue
        report = compute_dead_tcb(
            project, wmap, statics,
            frozenset(entry.get("dynamic_hit", ())), reach,
        )
        base_dead = set(entry.get("dead", ()))
        for fn in report.dead:
            if fn in base_dead:
                continue
            findings.append(finding(
                statics, f"deadtcb:{name}:{fn}",
                statics.fn_lines.get(fn, statics.lineno),
                f"dead-TCB regression in driver {name!r}: {fn}() "
                f"({statics.loc.get(fn, 0)} LoC) is statically reachable "
                f"from TA entry points but absent from every traced task "
                f"profile in the committed baseline",
            ))
        base_loc = int(entry.get("dead_loc", 0))
        if report.dead_loc > base_loc:
            findings.append(finding(
                statics, f"deadtcb:{name}:loc", statics.lineno,
                f"dead-TCB LoC of driver {name!r} grew from {base_loc} "
                f"to {report.dead_loc}; minimize the new surface or "
                f"re-trace and regenerate the baseline",
            ))
    return findings

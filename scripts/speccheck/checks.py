"""The speccheck analyses over the shared Model.

Four checks, each the static counterpart of an existing dynamic or
regex gate:

* undo-completeness — per-CleanupMode write-set vs undo-set (static
  ``auditRollbackComplete``);
* unpaired-spec-mutation — every mutation of an UNXPEC_SPEC_STATE
  field must sit inside / under a registered transition or rollback;
* determinism — AST-level unordered-iteration, unseeded-randomness,
  wall-clock, and float-cycle rules (supersedes the lint_sim.py
  regexes for src/);
* hot-path — steady-alloc and virtual-dispatch rules over the real
  call-graph closure of Core::runStep instead of a hard-coded file
  list.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Set

import callgraph as cg
from baseline import Baseline
from model import Model, short

# The one mode whose "rollback" is intentionally incomplete: the
# UnsafeBaseline persists the transient footprint — that IS the
# unXpec vulnerability — so it is exempt from the coverage gate.
EXEMPT_MODES = {"UnsafeBaseline"}

HOT_ENTRIES = ["Core::runStep"]


@dataclass
class Finding:
    check: str
    where: str  # "file:line" or structural key
    message: str


@dataclass
class ModeReport:
    mode: str
    exempt: bool
    write_fields: Dict[str, List]  # field -> [(fn, line)]
    undo_fields: Dict[str, List]
    missing: List[str]
    baselined: List[str]
    spec_fns: List[str]
    rollback_fns: List[str]


@dataclass
class Results:
    findings: List[Finding] = dc_field(default_factory=list)
    mode_reports: List[ModeReport] = dc_field(default_factory=list)
    hot_functions: List[str] = dc_field(default_factory=list)
    warnings: List[str] = dc_field(default_factory=list)


def run_checks(
    model: Model,
    baseline: Baseline,
    only: Optional[Set[str]] = None,
) -> Results:
    res = Results()
    graph = cg.CallGraph(model)

    def enabled(name: str) -> bool:
        return only is None or name in only

    if enabled("undo"):
        _check_undo(model, graph, baseline, res)
    if enabled("pairing"):
        _check_pairing(model, graph, baseline, res)
    if enabled("determinism"):
        _check_determinism(model, baseline, res)
    if enabled("hotpath"):
        _check_hotpath(model, graph, baseline, res)

    for stale in baseline.unused():
        res.warnings.append(f"unused baseline entry: {stale}")
    return res


def _check_undo(model, graph, baseline, res: Results) -> None:
    for mode in sorted(model.modes):
        writes, wclosure = cg.write_set(graph, model, mode)
        undos, _uclosure = cg.undo_set(graph, model, mode)
        exempt = mode in EXEMPT_MODES
        missing: List[str] = []
        baselined: List[str] = []
        for fkey in sorted(writes):
            if fkey in undos:
                continue
            if exempt:
                continue
            if baseline.covers_undo(mode, fkey):
                baselined.append(fkey)
                continue
            missing.append(fkey)
            sites = ", ".join(
                f"{short(fn)} (line {line})"
                for fn, line in writes[fkey][:3]
            )
            res.findings.append(
                Finding(
                    "undo-completeness",
                    f"{mode}:{fkey}",
                    f"[{mode}] speculative write-set field {fkey} is "
                    f"never restored by this mode's rollback closure "
                    f"(written by {sites}) — a squash leaves residue "
                    "state, the exact unXpec channel",
                )
            )
        res.mode_reports.append(
            ModeReport(
                mode=mode,
                exempt=exempt,
                write_fields=writes,
                undo_fields=undos,
                missing=missing,
                baselined=baselined,
                spec_fns=sorted(
                    short(q) for q in cg.spec_roots(model, mode)
                ),
                rollback_fns=sorted(
                    short(q) for q in cg.rollback_roots(model, mode)
                ),
            )
        )


def _check_pairing(model, graph, baseline, res: Results) -> None:
    paired = cg.paired_functions(graph, model)
    for qual, fn in sorted(model.functions.items()):
        if qual in paired:
            continue
        # Constructors/destructors build or tear down the whole
        # object — construction-time writes are not speculative
        # transitions (Core::reset & friends carry the annotations).
        name = qual.split("::")[-1]
        if fn.cls and name in (
            fn.cls.split("::")[-1],
            "~" + fn.cls.split("::")[-1],
        ):
            continue
        for cls, fname, line in fn.mutations:
            fld = model.classes.get(cls, {}).get(fname)
            if fld is None or not fld.spec_state:
                continue
            key = f"{short(cls)}::{fname}"
            if model.suppressed("spec-pair", fn.file, line):
                continue
            if baseline.covers_unpaired(short(qual), key):
                continue
            res.findings.append(
                Finding(
                    "unpaired-spec-mutation",
                    f"{fn.file}:{line}",
                    f"{short(qual)} mutates speculative state {key} "
                    "but is neither a registered transition/rollback "
                    "nor reachable from one — annotate it (see "
                    "src/sim/annotate.hh) or route the write through "
                    "a registered helper",
                )
            )


def _check_determinism(model, baseline, res: Results) -> None:
    for f in model.determinism:
        if baseline.covers_determinism(f.rule, f.file):
            continue
        res.findings.append(
            Finding(
                f"determinism:{f.rule}",
                f"{f.file}:{f.line}",
                f.detail,
            )
        )


def _check_hotpath(model, graph, baseline, res: Results) -> None:
    hot = cg.hot_functions(graph, model, HOT_ENTRIES)
    res.hot_functions = sorted(short(q) for q in hot)
    for qual in sorted(hot):
        fn = model.functions[qual]
        for what, line in fn.allocs:
            if model.suppressed("steady-alloc", fn.file, line):
                continue
            if baseline.covers_hot_alloc(short(qual), what):
                continue
            res.findings.append(
                Finding(
                    "steady-alloc",
                    f"{fn.file}:{line}",
                    f"{short(qual)} is on the per-cycle hot path "
                    f"(reachable from {'/'.join(HOT_ENTRIES)}) and "
                    f"calls {what}() — use arena/reserved storage or "
                    "justify with lint-ok(steady-alloc)",
                )
            )
        for recv, method, line in fn.virtual_calls:
            callee = f"{short(recv)}::{method}"
            if model.suppressed("hot-virtual", fn.file, line):
                continue
            if baseline.covers_hot_virtual(short(qual), callee):
                continue
            res.findings.append(
                Finding(
                    "hot-virtual",
                    f"{fn.file}:{line}",
                    f"{short(qual)} virtual-dispatches {callee} on "
                    "the per-cycle hot path — devirtualize (see "
                    "SetIndexer/ReplacementState) or add a justified "
                    "baseline entry",
                )
            )

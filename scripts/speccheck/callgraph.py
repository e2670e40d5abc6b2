"""Call-graph construction and the mode-scoped closures.

The undo-completeness gate compares, per CleanupMode M:

* write-set(M)  — speculative-state fields mutated in the call-graph
  closure of the ``UNXPEC_TRANSITION("spec@...")`` functions whose
  scope admits M;
* undo-set(M)   — fields mutated in the closure of the
  ``UNXPEC_ROLLBACK(...)`` functions whose mode list admits M.

Traversal is *mode-gated*: stepping from a function into an annotated
callee requires one of the callee's annotations to admit M.  That is
what keeps ``CleanupEngine::rollback`` (annotated for every mode — it
is the dispatcher) from flooding UnsafeBaseline's undo-set with the
helpers that only the real cleanup modes call: each helper's own
``UNXPEC_ROLLBACK`` names the modes it serves, and the walk stops at
helpers that do not serve M.  Unannotated callees are always admitted.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from model import Function, Model


class CallGraph:
    def __init__(self, model: Model):
        self.model = model
        self.edges: Dict[str, Set[str]] = defaultdict(set)
        # short method name -> [qualified functions], for fallback
        by_short: Dict[str, List[str]] = defaultdict(list)
        for qual in model.functions:
            by_short[qual.split("::")[-1]].append(qual)
        self._by_short = by_short
        # Calls with no inferred receiver whose method name several
        # modeled functions share: (caller, name, line, candidates).
        # They draw no edge, so the checks report them as warnings.
        self.ambiguous: List[Tuple[str, str, int, List[str]]] = []
        for qual, fn in model.functions.items():
            for name, recv_cls, line in fn.calls:
                callee = self._resolve(fn, name, recv_cls)
                if callee is not None:
                    self.edges[qual].add(callee)
                elif recv_cls is None and len(by_short.get(name, [])) > 1:
                    self.ambiguous.append(
                        (qual, name, line, sorted(by_short[name]))
                    )

    def _resolve(
        self, caller: Function, name: str, recv_cls: Optional[str]
    ) -> Optional[str]:
        fns = self.model.functions
        if recv_cls is not None:
            cand = f"{recv_cls}::{name}"
            if cand in fns:
                return cand
            # Receiver class known but method unmodeled (std type,
            # template): no edge.
            return None
        if caller.cls:
            cand = f"{caller.cls}::{name}"
            if cand in fns:
                return cand
        # Free function in the caller's namespace, then unique match.
        ns = "::".join(caller.qual.split("::")[:-1])
        while ns:
            cand = f"{ns}::{name}"
            if cand in fns:
                return cand
            ns = "::".join(ns.split("::")[:-1])
        if name in fns:
            return name
        matches = self._by_short.get(name, [])
        if len(matches) == 1:
            return matches[0]
        return None

    # -- closures -----------------------------------------------------

    def reachable(
        self,
        roots: Set[str],
        admit=None,
    ) -> Set[str]:
        """BFS over call edges; ``admit(fn)`` gates stepping *into* an
        annotated callee (roots are always included)."""
        seen: Set[str] = set()
        work = [r for r in roots if r in self.model.functions]
        seen.update(work)
        while work:
            cur = work.pop()
            for nxt in self.edges.get(cur, ()):
                if nxt in seen:
                    continue
                fn = self.model.functions[nxt]
                if admit is not None and fn.annotated and not admit(fn):
                    continue
                seen.add(nxt)
                work.append(nxt)
        return seen


def _admits(fn: Function, mode: str) -> bool:
    for t in fn.transitions:
        if t.scope is None or mode in t.scope:
            return True
    for r in fn.rollbacks:
        if r.modes is None or mode in r.modes:
            return True
    return False


def _admits_transition_only(fn: Function, mode: str) -> bool:
    """Write-closure gate: rollback-only helpers are undo machinery
    and must not inflate the speculative write-set."""
    if fn.transitions:
        return any(
            t.scope is None or mode in t.scope for t in fn.transitions
        )
    return False


def spec_roots(model: Model, mode: str) -> Set[str]:
    return {
        qual
        for qual, fn in model.functions.items()
        if any(
            t.kind == "spec" and (t.scope is None or mode in t.scope)
            for t in fn.transitions
        )
    }


def rollback_roots(model: Model, mode: str) -> Set[str]:
    return {
        qual
        for qual, fn in model.functions.items()
        if any(
            r.modes is None or mode in r.modes for r in fn.rollbacks
        )
    }


def mutated_spec_fields(
    model: Model, closure: Set[str]
) -> Dict[str, List[Tuple[str, int]]]:
    """{'Class::field': [(function, line), ...]} restricted to
    UNXPEC_SPEC_STATE fields mutated by functions in the closure."""
    out: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for qual in closure:
        fn = model.functions[qual]
        for cls, fname, line in fn.mutations:
            fld = model.classes.get(cls, {}).get(fname)
            if fld is not None and fld.spec_state:
                out[fld.key].append((qual, line))
    return dict(out)


def write_set(graph: CallGraph, model: Model, mode: str):
    closure = graph.reachable(
        spec_roots(model, mode),
        admit=lambda fn: _admits_transition_only(fn, mode),
    )
    return mutated_spec_fields(model, closure), closure


def undo_set(graph: CallGraph, model: Model, mode: str):
    closure = graph.reachable(
        rollback_roots(model, mode),
        admit=lambda fn: _admits(fn, mode),
    )
    return mutated_spec_fields(model, closure), closure


def paired_functions(graph: CallGraph, model: Model) -> Set[str]:
    """Functions that are annotated or reachable from one — the set
    inside which spec-state mutations are considered registered."""
    roots = {
        qual for qual, fn in model.functions.items() if fn.annotated
    }
    return graph.reachable(roots)


def hot_functions(graph: CallGraph, model: Model,
                  entries: List[str]) -> Set[str]:
    roots = set()
    for entry in entries:
        if entry in model.functions:
            roots.add(entry)
        else:
            # Allow short names ("Core::runStep") against the
            # namespace-qualified table.
            for qual in model.functions:
                if qual.endswith("::" + entry) or qual == entry:
                    roots.add(qual)
    return graph.reachable(roots)

"""Intermediate representation shared by both speccheck frontends.

A frontend (built-in token parser or libclang) reduces the tree to a
``Model``: classes with their fields, functions with their annotations,
mutation sites of annotated fields, call edges, and the raw material
the per-site rule / hot-path checks need.  The checks in ``checks.py``
operate on this IR only, so both frontends are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

# Annotation tag prefixes (must match src/sim/annotate.hh).
TAG_SPEC_STATE = "unxpec::spec_state"
TAG_TRANSITION = "unxpec::transition:"
TAG_ROLLBACK = "unxpec::rollback:"

TRANSITION_KINDS = ("spec", "commit", "reset")


class AnnotationError(Exception):
    """Malformed annotation text (bad kind, unknown mode, ...)."""


@dataclass(frozen=True)
class Transition:
    kind: str  # "spec" | "commit" | "reset"
    scope: Optional[frozenset]  # mode names; None = every mode


@dataclass(frozen=True)
class Rollback:
    modes: Optional[frozenset]  # mode names; None = "*" (every mode)


def parse_transition(arg: str, modes: Set[str], where: str) -> Transition:
    """Parse the string argument of UNXPEC_TRANSITION."""
    kind, sep, scope_text = arg.partition("@")
    if kind not in TRANSITION_KINDS:
        raise AnnotationError(
            f"{where}: unknown transition kind '{kind}' "
            f"(expected one of {', '.join(TRANSITION_KINDS)})"
        )
    if not sep:
        return Transition(kind, None)
    scope = _parse_modes(scope_text, modes, where)
    return Transition(kind, scope)


def parse_rollback(arg: str, modes: Set[str], where: str) -> Rollback:
    """Parse the string argument of UNXPEC_ROLLBACK."""
    if arg.strip() == "*":
        return Rollback(None)
    return Rollback(_parse_modes(arg, modes, where))


def _parse_modes(text: str, modes: Set[str], where: str) -> frozenset:
    names = [m.strip() for m in text.split(",") if m.strip()]
    if not names:
        raise AnnotationError(f"{where}: empty mode list")
    for name in names:
        if name not in modes:
            raise AnnotationError(
                f"{where}: unknown CleanupMode '{name}' "
                f"(known: {', '.join(sorted(modes))})"
            )
    return frozenset(names)


@dataclass
class Field:
    cls: str  # qualified class name, e.g. "unxpec::CacheLine"
    name: str
    type_text: str  # declared type, single-spaced tokens
    spec_state: bool
    file: str
    line: int

    @property
    def key(self) -> str:
        return f"{short(self.cls)}::{self.name}"


@dataclass
class Function:
    qual: str  # qualified name, e.g. "unxpec::Cache::install"
    cls: Optional[str]  # enclosing class (qualified) or None
    file: str
    line: int
    transitions: List[Transition] = field(default_factory=list)
    rollbacks: List[Rollback] = field(default_factory=list)
    # Call sites: (callee-name, receiver-class-or-None, line).  The
    # callee name is unqualified; resolution happens in callgraph.py.
    calls: List[Tuple[str, Optional[str], int]] = field(
        default_factory=list
    )
    # Mutations of fields: (class, field, line).  Only mutations whose
    # receiver class could be resolved are recorded.
    mutations: List[Tuple[str, str, int]] = field(default_factory=list)
    # Raw allocation-ish call sites for the hot-path check:
    # (what, line), e.g. ("push_back", 412) or ("new", 99).
    allocs: List[Tuple[str, int]] = field(default_factory=list)
    # Virtual-dispatch call sites: (receiver-class, method, line).
    virtual_calls: List[Tuple[str, str, int]] = field(
        default_factory=list
    )
    # Declared signatures, one per overload: (const member function?,
    # per-parameter passing: "cref" const reference, "ref" non-const
    # reference or pointer, "val" by value).
    signatures: Set[Tuple[bool, Tuple[str, ...]]] = field(
        default_factory=set
    )

    def binds_read_only(self, index: int) -> bool:
        """True when every overload binds argument ``index`` so the
        call cannot write through it: a const reference, or any
        parameter but a non-const reference/pointer of a const member
        function.  Unknown callees and arities are not read-only."""
        kinds = [
            (is_const, params[index])
            for is_const, params in self.signatures
            if index < len(params)
        ]
        return bool(kinds) and all(
            kind == "cref" or (is_const and kind != "ref")
            for is_const, kind in kinds
        )

    @property
    def annotated(self) -> bool:
        return bool(self.transitions or self.rollbacks)


@dataclass
class RuleFinding:
    rule: str  # unordered-iteration | raw-new-delete | include-guard | ...
    file: str
    line: int
    detail: str


@dataclass
class Model:
    modes: Set[str] = field(default_factory=set)  # CleanupMode names
    # class qualified name -> {field name -> Field}
    classes: Dict[str, Dict[str, Field]] = field(default_factory=dict)
    # classes declaring at least one virtual method -> method names
    virtual_methods: Dict[str, Set[str]] = field(default_factory=dict)
    # using-alias name -> aliased type text (single-spaced tokens)
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, Function] = field(default_factory=dict)
    rule_findings: List[RuleFinding] = field(default_factory=list)
    # file -> {line -> set(rule)} inline lint-ok suppressions
    suppressions: Dict[str, Dict[int, Set[str]]] = field(
        default_factory=dict
    )

    def function(self, qual: str, cls, file: str, line: int) -> Function:
        fn = self.functions.get(qual)
        if fn is None:
            fn = Function(qual, cls, file, line)
            self.functions[qual] = fn
        return fn

    def spec_fields(self) -> List[Field]:
        out = []
        for fields in self.classes.values():
            out.extend(f for f in fields.values() if f.spec_state)
        return sorted(out, key=lambda f: (f.file, f.line))

    def suppressed(self, rule: str, file: str, line: int) -> bool:
        per_file = self.suppressions.get(file)
        if not per_file:
            return False
        # A lint-ok comment suppresses its own line and the next one
        # (comment-above-statement style).
        for cand in (line, line - 1):
            if rule in per_file.get(cand, ()):
                return True
        return False

    def merge(self, other: "Model") -> None:
        """Merge a per-file model into the whole-tree model."""
        self.modes |= other.modes
        for cls, fields in other.classes.items():
            mine = self.classes.setdefault(cls, {})
            for name, fld in fields.items():
                prev = mine.get(name)
                # Prefer the annotated declaration (headers win over
                # forward mentions).
                if prev is None or (fld.spec_state and not prev.spec_state):
                    mine[name] = fld
        for cls, methods in other.virtual_methods.items():
            self.virtual_methods.setdefault(cls, set()).update(methods)
        for alias, target in other.aliases.items():
            self.aliases.setdefault(alias, target)
        for qual, fn in other.functions.items():
            prev = self.functions.get(qual)
            if prev is None:
                self.functions[qual] = fn
                continue
            prev.transitions.extend(
                t for t in fn.transitions if t not in prev.transitions
            )
            prev.rollbacks.extend(
                r for r in fn.rollbacks if r not in prev.rollbacks
            )
            prev.calls.extend(fn.calls)
            prev.mutations.extend(fn.mutations)
            prev.allocs.extend(fn.allocs)
            prev.virtual_calls.extend(fn.virtual_calls)
            prev.signatures |= fn.signatures
        self.rule_findings.extend(other.rule_findings)
        for file, per_line in other.suppressions.items():
            mine_lines = self.suppressions.setdefault(file, {})
            for line, rules in per_line.items():
                mine_lines.setdefault(line, set()).update(rules)


def short(qual: str) -> str:
    """Strip the leading project namespace for readable reports."""
    prefix = "unxpec::"
    return qual[len(prefix):] if qual.startswith(prefix) else qual

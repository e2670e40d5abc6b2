"""Dependency-free structural C++ frontend.

Builds the speccheck ``Model`` from the token stream alone: namespace /
class nesting, field declarations, function definitions with their
call sites and field-mutation sites, annotation macros, and the
type-resolving unordered-iteration matcher; ``lint_file`` is the
separate per-file token pass for every rule that needs no types.  It
is deliberately not a C++ parser — it leans
on the house style the repo's other gates already enforce (one
declarator per field, members with a trailing underscore, everything
inside ``namespace unxpec``), and the libclang frontend supersedes it
where clang bindings are installed.

Parsing is two-pass so receiver types resolve across files:

* declaration pass — classes, fields, type aliases, virtual methods,
  and annotations from every file are merged into one table;
* body pass — function bodies are scanned with that global table, so
  ``record.speculative`` on a ``MemAccessRecord`` (a deliberately
  unannotated mirror struct) never false-positives against
  ``CacheLine::speculative``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Set, Tuple

from cpplex import ID, PP, STR, Token, tokenize
from model import (
    AnnotationError,
    Field,
    Model,
    RuleFinding,
    parse_rollback,
    parse_transition,
)

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "catch", "throw", "new", "delete", "static_cast", "const_cast",
    "dynamic_cast", "reinterpret_cast", "case", "default", "do",
    "else", "goto", "assert", "static_assert", "decltype", "noexcept",
    "true", "false", "nullptr", "this", "break", "continue",
}

_TYPE_QUALIFIERS = {
    "const", "constexpr", "static", "inline", "volatile", "mutable",
    "unsigned", "signed", "typename", "struct", "class", "friend",
    "virtual", "explicit", "extern", "register", "thread_local",
    "union", "enum",
}

# Methods that mutate their receiver — turns
# ``entries_.push_back(x)`` into a mutation of ``entries_``.
_MUTATING_METHODS = {
    "push_back", "emplace_back", "pop_back", "push_front", "pop_front",
    "emplace_front", "clear", "erase", "insert", "emplace", "resize",
    "assign", "swap", "fill", "reset", "truncate",
}

# Calls that allocate (hot-path steady-alloc rule).
_ALLOC_CALLS = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "resize", "reserve", "emplace", "insert", "assign", "append",
    "make_unique", "make_shared",
}

_ASSIGN_OPS = {
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
}

_SUPPRESS_RE = re.compile(
    r"lint-ok\((?P<rule>[a-z-]+)\)\s*:\s*(?P<why>\S.*)?"
)

_ANNOT_MACROS = {
    "UNXPEC_SPEC_STATE", "UNXPEC_TRANSITION", "UNXPEC_ROLLBACK",
}

_ACCESS_SPECIFIERS = {"public", "private", "protected"}


def collect_modes(config_text: str) -> Set[str]:
    """Extract CleanupMode enumerators from sim/config.hh."""
    toks = tokenize(config_text, "config.hh")
    for i, t in enumerate(toks):
        if t.kind != ID or t.text != "CleanupMode":
            continue
        # Only the definition site: `enum [class] CleanupMode {`.
        prev = toks[i - 1].text if i > 0 else ""
        prev2 = toks[i - 2].text if i > 1 else ""
        if prev != "enum" and not (prev == "class" and prev2 == "enum"):
            continue
        j = i + 1
        while j < len(toks) and toks[j].text not in ("{", ";"):
            j += 1
        if j >= len(toks) or toks[j].text != "{":
            continue
        modes: Set[str] = set()
        depth = 1
        j += 1
        expect_name = True
        while j < len(toks) and depth > 0:
            t2 = toks[j]
            if t2.text == "{":
                depth += 1
            elif t2.text == "}":
                depth -= 1
            elif depth == 1:
                if expect_name and t2.kind == ID:
                    modes.add(t2.text)
                    expect_name = False
                elif t2.text == ",":
                    expect_name = True
            j += 1
        if modes:
            return modes
    return set()


def scan_suppressions(text: str):
    """Inline ``lint-ok(rule): why`` markers of one file: the justified
    ones as {line: {rule}}, and the (line, rule) of each marker with an
    empty justification, which suppresses nothing."""
    marks: Dict[int, Set[str]] = {}
    unjustified: List[Tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        if m.group("why"):
            marks.setdefault(lineno, set()).add(m.group("rule"))
        else:
            unjustified.append((lineno, m.group("rule")))
    return marks, unjustified


def collect_suppressions(path: str, text: str, model: Model) -> None:
    marks, _unjustified = scan_suppressions(text)
    model.suppressions[path] = marks


def parse_declarations(path: str, text: str, modes: Set[str]) -> Model:
    """Pass 1: one file's classes/fields/aliases/annotations."""
    model = Model(modes=set(modes))
    collect_suppressions(path, text, model)
    toks = tokenize(text, path)
    _Parser(path, toks, model, decl=None, scan_bodies=False).run()
    return model


def parse_bodies(path: str, text: str, decl: Model) -> Model:
    """Pass 2: one file's function bodies against the global table."""
    model = Model(modes=set(decl.modes))
    collect_suppressions(path, text, model)
    toks = tokenize(text, path)
    _Parser(path, toks, model, decl=decl, scan_bodies=True).run()
    return model


def _param_groups(params: List[Token]) -> List[List[Token]]:
    """Split a parameter list at its top-level commas, dropping each
    parameter's default argument."""
    depth = 0
    group: List[Token] = []
    groups: List[List[Token]] = []
    for t in params:
        if t.text in ("(", "<", "[", "{"):
            depth += 1
        elif t.text in (")", ">", "]", "}"):
            depth -= 1
        if t.text == "," and depth == 0:
            groups.append(group)
            group = []
        else:
            group.append(t)
    if group:
        groups.append(group)
    out = []
    for g in groups:
        for idx, t in enumerate(g):
            if t.text == "=":
                g = g[:idx]
                break
        out.append(g)
    return out


def _param_kinds(params: List[Token]) -> Tuple[str, ...]:
    """How each parameter binds its argument: "cref" (const
    reference), "ref" (non-const or forwarding reference, pointer, or
    variadic: the callee may write through it) or "val" (a copy)."""
    kinds = []
    for g in _param_groups(params):
        texts = [t.text for t in g]
        if not texts or texts == ["void"]:
            continue
        depth = 0
        kind = "val"
        for pos, text in enumerate(texts):
            if text in ("(", "<", "[", "{"):
                depth += 1
            elif text in (")", ">", "]", "}"):
                depth -= 1
            elif depth == 0 and text in ("*", "&&", "..."):
                kind = "ref"
                break
            elif depth == 0 and text == "&":
                kind = "cref" if "const" in texts[:pos] else "ref"
                break
        kinds.append(kind)
    return tuple(kinds)


class _Scope:
    __slots__ = ("kind", "name")

    def __init__(self, kind: str, name: str = ""):
        self.kind = kind  # ns | class | block
        self.name = name


class _Parser:
    def __init__(
        self,
        path: str,
        toks: List[Token],
        model: Model,
        decl: Optional[Model],
        scan_bodies: bool,
    ):
        self.path = path
        self.toks = toks
        self.model = model
        # Lookup table for receiver/type resolution.  During the
        # declaration pass the per-file model doubles as the table.
        self.decl = decl if decl is not None else model
        self.scan_bodies = scan_bodies
        self.i = 0
        self.scopes: List[_Scope] = []
        self.pending_spec_state = False
        self.pending_transitions: List[Tuple[str, int]] = []
        self.pending_rollbacks: List[Tuple[str, int]] = []
        # short class name -> qualified, built lazily from self.decl
        self._short_cache: Dict[str, Optional[str]] = {}

    # -- context helpers ----------------------------------------------

    def _ns_path(self) -> str:
        return "::".join(
            s.name
            for s in self.scopes
            if s.kind in ("ns", "class") and s.name
        )

    def _enclosing_class(self) -> Optional[str]:
        parts: List[str] = []
        cls_seen = False
        for s in self.scopes:
            if s.kind in ("ns", "class") and s.name:
                parts.append(s.name)
            if s.kind == "class":
                cls_seen = True
        if not cls_seen:
            return None
        # Trim trailing namespaces after the last class (none in
        # practice: namespaces don't nest inside classes).
        return "::".join(parts)

    def resolve_short(self, short_name: str) -> Optional[str]:
        if short_name in self._short_cache:
            return self._short_cache[short_name]
        found = None
        for qual in self.decl.classes:
            if qual.split("::")[-1] == short_name:
                found = qual
                break
        if found is None and short_name in self.decl.virtual_methods:
            found = short_name
        else:
            for qual in self.decl.virtual_methods:
                if qual.split("::")[-1] == short_name:
                    found = found or qual
        self._short_cache[short_name] = found
        return found

    def base_type(self, words: List[str]) -> Optional[str]:
        """Class-ish head of a type token sequence with alias
        resolution: ['const','MemAccessRecord','&'] ->
        'MemAccessRecord'; RingQueue<RobEntry> stays RingQueue
        (element types are handled separately)."""
        cands = [
            w
            for w in words
            if w and (w[0].isalpha() or w[0] == "_")
            and w not in _TYPE_QUALIFIERS
            and w not in _KEYWORDS
            and w != "std"
        ]
        # Smart pointers are transparent: unique_ptr<BranchPredictor>
        # receivers dispatch on BranchPredictor (virtual-call rule).
        while len(cands) > 1 and cands[0] in (
            "unique_ptr", "shared_ptr", "weak_ptr",
        ):
            cands = cands[1:]
        if not cands:
            return None
        head = cands[0]
        seen: Set[str] = set()
        while head in self.decl.aliases and head not in seen:
            seen.add(head)
            alias_head = self.base_type(
                self.decl.aliases[head].split()
            )
            if alias_head is None or alias_head == head:
                break
            head = alias_head
        return head

    def resolve_alias_text(self, name: str) -> str:
        seen: Set[str] = set()
        text = name
        while text in self.decl.aliases and text not in seen:
            seen.add(text)
            text = self.decl.aliases[text]
        return text

    # -- token helpers ------------------------------------------------

    def _skip_balanced(self, open_tok: str, close_tok: str) -> None:
        depth = 0
        while self.i < len(self.toks):
            t = self.toks[self.i].text
            if t == open_tok:
                depth += 1
            elif t == close_tok:
                depth -= 1
                if depth == 0:
                    self.i += 1
                    return
            self.i += 1

    def _skip_angle(self) -> List[Token]:
        """At '<': consume a template argument list; returns the
        consumed tokens (including brackets), or backs off when the
        '<' turns out to be a comparison."""
        start = self.i
        depth = 0
        while self.i < len(self.toks):
            t = self.toks[self.i].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    self.i += 1
                    return self.toks[start : self.i]
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    self.i += 1
                    return self.toks[start : self.i]
            elif t in (";", "{", "}"):
                break
            self.i += 1
        self.i = start + 1
        return [self.toks[start]]

    def _macro_string_arg(self) -> Tuple[str, int]:
        line = self.toks[self.i].line
        self.i += 1
        if self.i >= len(self.toks) or self.toks[self.i].text != "(":
            return "", line
        depth = 0
        parts: List[str] = []
        while self.i < len(self.toks):
            t = self.toks[self.i]
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    self.i += 1
                    break
            elif t.kind == STR:
                parts.append(t.text)
            self.i += 1
        return "".join(parts), line

    # -- main loop ----------------------------------------------------

    def run(self) -> None:
        toks = self.toks
        while self.i < len(toks):
            t = toks[self.i]
            if t.kind == PP:
                self.i += 1
                continue
            if t.kind == ID and t.text in _ANNOT_MACROS:
                self._take_annotation(t.text)
                continue
            if t.kind == ID and t.text == "namespace":
                self._take_namespace()
                continue
            if (
                t.kind == ID
                and t.text in _ACCESS_SPECIFIERS
                and self.i + 1 < len(toks)
                and toks[self.i + 1].text == ":"
            ):
                self.i += 2
                continue
            if t.kind == ID and t.text in ("class", "struct"):
                self._take_class()
                continue
            if t.kind == ID and t.text == "enum":
                self._take_enum()
                continue
            if t.kind == ID and t.text == "using":
                self._take_using()
                continue
            if t.kind == ID and t.text in ("typedef", "friend"):
                while (
                    self.i < len(toks) and toks[self.i].text != ";"
                ):
                    self.i += 1
                self.i += 1
                continue
            if t.kind == ID and t.text == "template":
                self.i += 1
                if self.i < len(toks) and toks[self.i].text == "<":
                    self._skip_angle()
                continue
            if t.text == "}":
                if self.scopes:
                    self.scopes.pop()
                self.i += 1
                continue
            if t.text == "{":
                self.scopes.append(_Scope("block"))
                self.i += 1
                continue
            if t.kind == ID or t.text in ("~", "::"):
                self._take_declaration()
                continue
            self.i += 1

    def _take_annotation(self, macro: str) -> None:
        if macro == "UNXPEC_SPEC_STATE":
            self.pending_spec_state = True
            self.i += 1
            return
        arg, line = self._macro_string_arg()
        if macro == "UNXPEC_TRANSITION":
            self.pending_transitions.append((arg, line))
        else:
            self.pending_rollbacks.append((arg, line))

    def _take_namespace(self) -> None:
        self.i += 1
        name_parts: List[str] = []
        while self.i < len(self.toks):
            t = self.toks[self.i]
            if t.text == "{":
                self.scopes.append(
                    _Scope("ns", "::".join(name_parts))
                )
                self.i += 1
                return
            if t.text == ";":
                self.i += 1
                return
            if t.kind == ID:
                name_parts.append(t.text)
            self.i += 1

    def _take_class(self) -> None:
        start = self.i
        self.i += 1
        name: Optional[str] = None
        while self.i < len(self.toks):
            t = self.toks[self.i]
            if t.kind == ID:
                if t.text in ("final", "alignas"):
                    self.i += 1
                    continue
                if name is None:
                    name = t.text
                    self.i += 1
                    continue
                # `struct Foo bar` — an (elaborated) declaration.
                self.i = start + 1
                self._take_declaration()
                return
            if t.text == ":":
                while (
                    self.i < len(self.toks)
                    and self.toks[self.i].text != "{"
                ):
                    if self.toks[self.i].text == ";":
                        self.i += 1
                        return
                    self.i += 1
                continue
            if t.text == "{":
                self.scopes.append(_Scope("class", name or "<anon>"))
                ns = self._ns_path()
                self.model.classes.setdefault(ns, {})
                self.i += 1
                return
            if t.text == ";":
                self.i += 1
                return
            if t.text in (")", ",", ">", "*", "&", "("):
                # elaborated type in some other construct
                return
            self.i += 1

    def _take_enum(self) -> None:
        while self.i < len(self.toks):
            t = self.toks[self.i]
            if t.text == "{":
                self._skip_balanced("{", "}")
                if (
                    self.i < len(self.toks)
                    and self.toks[self.i].text == ";"
                ):
                    self.i += 1
                return
            if t.text == ";":
                self.i += 1
                return
            self.i += 1

    def _take_using(self) -> None:
        toks = self.toks
        self.i += 1
        if (
            self.i + 1 < len(toks)
            and toks[self.i].kind == ID
            and toks[self.i + 1].text == "="
        ):
            alias = toks[self.i].text
            self.i += 2
            parts: List[str] = []
            while self.i < len(toks) and toks[self.i].text != ";":
                parts.append(toks[self.i].text)
                self.i += 1
            self.model.aliases[alias] = " ".join(parts)
        while self.i < len(toks) and toks[self.i].text != ";":
            self.i += 1
        self.i += 1

    # -- declarations -------------------------------------------------

    def _take_declaration(self) -> None:
        toks = self.toks
        start = self.i
        is_virtual = False
        head: List[Token] = []
        paren_at = None
        while self.i < len(toks):
            t = toks[self.i]
            if t.kind == ID and t.text in _ANNOT_MACROS:
                self._take_annotation(t.text)
                continue
            if t.kind == ID and t.text == "virtual":
                is_virtual = True
                self.i += 1
                continue
            if t.kind == ID and t.text == "operator":
                sym: List[str] = []
                self.i += 1
                while (
                    self.i < len(toks) and toks[self.i].text != "("
                ):
                    sym.append(toks[self.i].text)
                    self.i += 1
                head.append(
                    Token(ID, "operator" + "".join(sym), t.line)
                )
                continue
            if t.text == "<" and head and head[-1].kind == ID:
                head.extend(self._skip_angle()[1:])
                continue
            if t.text == "(":
                paren_at = self.i
                break
            if t.text in (";", "=", "{", "}"):
                break
            if t.kind == PP:
                self.i += 1
                continue
            head.append(t)
            self.i += 1

        if paren_at is None:
            self._finish_field(head)
            return

        params_start = self.i
        self._skip_balanced("(", ")")
        params = toks[params_start + 1 : self.i - 1]

        # Trailer up to the body '{', a ';', or '= default/delete;'.
        has_body = False
        is_const = False
        inits: List[Token] = []
        while self.i < len(toks):
            t = toks[self.i]
            if t.text == "{":
                has_body = True
                break
            if t.text == ";":
                break
            if t.text == "const":
                is_const = True
            if t.text == ":":  # ctor initializer list
                self.i += 1
                inits_start = self.i
                self._skip_ctor_inits()
                inits = toks[inits_start : self.i]
                continue
            if t.text == "=":
                while (
                    self.i < len(toks) and toks[self.i].text != ";"
                ):
                    self.i += 1
                continue
            if t.text == "(":
                self._skip_balanced("(", ")")
                continue
            self.i += 1

        name, cls = self._function_name(head)
        if name is None:
            self._soft_drop()
            if has_body:
                self._skip_balanced("{", "}")
            else:
                self.i += 1
            return

        qual = f"{cls}::{name}" if cls else (
            f"{self._ns_path()}::{name}"
            if self._ns_path()
            else name
        )
        fn = self.model.function(qual, cls, self.path, toks[start].line)
        fn.signatures.add((is_const, _param_kinds(params)))
        self._attach_pending(fn)
        if is_virtual and cls:
            self.model.virtual_methods.setdefault(cls, set()).add(name)

        if has_body:
            body_start = self.i
            self._skip_balanced("{", "}")
            if self.scan_bodies:
                env = self._param_env(params)
                scanner = _BodyScanner(self, fn, cls)
                scanner.scan(toks[body_start + 1 : self.i - 1], env)
                scanner.scan_allocs(inits)
        else:
            self.i += 1  # past ';'

    def _skip_ctor_inits(self) -> None:
        """After the ':' of a constructor initializer list: skip
        `member(init)` / `member{init}` groups up to the body '{'."""
        toks = self.toks
        while self.i < len(toks):
            t = toks[self.i]
            if t.kind == ID or t.text in ("::", ",", "<", ">"):
                if t.text == "<":
                    self._skip_angle()
                    continue
                self.i += 1
                continue
            if t.text == "(":
                self._skip_balanced("(", ")")
                continue
            if t.text == "{":
                nxt_is_init = (
                    self.i > 0
                    and toks[self.i - 1].kind == ID
                )
                if nxt_is_init:
                    self._skip_balanced("{", "}")
                    continue
                return  # the body
            if t.text == ";":
                return
            self.i += 1

    def _function_name(self, head: List[Token]):
        j = len(head) - 1
        while j >= 0 and head[j].kind != ID:
            j -= 1
        if j < 0:
            return None, self._enclosing_class()
        name = head[j].text
        if name in _KEYWORDS or name in _TYPE_QUALIFIERS:
            return None, self._enclosing_class()
        quals: List[str] = []
        k = j - 1
        while (
            k - 1 >= 0
            and head[k].text == "::"
            and head[k - 1].kind == ID
        ):
            quals.insert(0, head[k - 1].text)
            k -= 2
        if k >= 0 and head[k].text == "~":
            name = "~" + name
        cls = self._enclosing_class()
        if quals and quals[0] != "std":
            qual_cls = "::".join(quals)
            ns = self._ns_path()
            cls = f"{ns}::{qual_cls}" if ns else qual_cls
        return name, cls

    def _param_env(self, params: List[Token]) -> Dict[str, str]:
        env: Dict[str, str] = {}
        for g in _param_groups(params):
            ids = [t for t in g if t.kind == ID]
            if len(ids) < 2:
                continue
            pname = ids[-1].text
            base = self.base_type([t.text for t in g[:-1]])
            if base:
                env[pname] = base
        return env

    def _attach_pending(self, fn) -> None:
        for arg, line in self.pending_transitions:
            where = f"{self.path}:{line}"
            fn.transitions.append(
                parse_transition(arg, self.model.modes, where)
            )
        for arg, line in self.pending_rollbacks:
            where = f"{self.path}:{line}"
            fn.rollbacks.append(
                parse_rollback(arg, self.model.modes, where)
            )
        self.pending_transitions = []
        self.pending_rollbacks = []
        if self.pending_spec_state:
            raise AnnotationError(
                f"{self.path}:{fn.line}: UNXPEC_SPEC_STATE on a "
                "function (fields only)"
            )

    def _finish_field(self, head: List[Token]) -> None:
        toks = self.toks
        while self.i < len(toks):
            t = toks[self.i]
            if t.text == ";":
                self.i += 1
                break
            if t.text == "{":
                self._skip_balanced("{", "}")
                continue
            if t.text == "(":
                self._skip_balanced("(", ")")
                continue
            if t.text == "}":
                break
            self.i += 1
        cls = self._enclosing_class()
        ids = [t for t in head if t.kind == ID]
        if cls is None or len(ids) < 2:
            if self.pending_spec_state:
                line = head[0].line if head else 0
                raise AnnotationError(
                    f"{self.path}:{line}: UNXPEC_SPEC_STATE must "
                    "annotate a class field declaration"
                )
            self._soft_drop()
            return
        if self.pending_transitions or self.pending_rollbacks:
            raise AnnotationError(
                f"{self.path}:{head[-1].line}: transition/rollback "
                "annotation must attach to a function"
            )
        fname = ids[-1].text
        if fname in _KEYWORDS:
            self._soft_drop()
            return
        type_words = [t.text for t in head[:-1]]
        fields = self.model.classes.setdefault(cls, {})
        prev = fields.get(fname)
        if prev is None or (self.pending_spec_state and
                            not prev.spec_state):
            fields[fname] = Field(
                cls=cls,
                name=fname,
                type_text=" ".join(type_words),
                spec_state=self.pending_spec_state,
                file=self.path,
                line=head[-1].line,
            )
        self.pending_spec_state = False

    def _soft_drop(self) -> None:
        self.pending_spec_state = False
        self.pending_transitions = []
        self.pending_rollbacks = []


class _BodyScanner:
    """Scan one function body for calls, mutations, allocations,
    virtual dispatch, and range-for walks over unordered containers."""

    def __init__(self, parser: _Parser, fn, cls: Optional[str]):
        self.p = parser
        self.fn = fn
        self.cls = cls
        self.out = parser.model  # findings/mutations land here
        self.decl = parser.decl  # resolution table

    # resolution helpers ----------------------------------------------

    def _field_of(self, cls: Optional[str], name: str):
        if cls is None:
            return None
        flds = self.decl.classes.get(cls)
        if flds is None:
            return None
        return flds.get(name)

    def _field_base_type(self, cls: Optional[str], name: str):
        fld = self._field_of(cls, name)
        if fld is None:
            return None, None
        raw = self.p.resolve_alias_text(
            self.p.base_type(fld.type_text.split()) or ""
        )
        base = self.p.base_type(fld.type_text.split())
        return base, fld.type_text

    @staticmethod
    def _elem_type(type_text: str) -> Optional[str]:
        m = re.search(r"<\s*([A-Za-z_][\w:]*)", type_text)
        if m:
            return m.group(1).split("::")[-1]
        return None

    def _name_type(self, name: str, env: Dict[str, str]):
        """(base type, full type text) of a variable/field name."""
        if name in env:
            return env[name], env[name]
        base, text = self._field_base_type(self.cls, name)
        if base is not None:
            return base, text
        return None, None

    def _receiver_class(
        self, body: List[Token], i: int, env: Dict[str, str]
    ):
        """Qualified class owning the member accessed at body[i].

        Returns (class or None, confident).  Not confident means the
        receiver was a chained call or other unresolvable expression —
        callers may then fall back to unique-name attribution."""
        j = i - 1
        if j < 0 or body[j].text not in (".", "->"):
            return (self.cls, True) if self.cls else (None, True)
        k = j - 1
        if k >= 0 and body[k].text == "]":
            depth = 0
            while k >= 0:
                if body[k].text == "]":
                    depth += 1
                elif body[k].text == "[":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            k -= 1
            if k < 0 or body[k].kind != ID:
                return None, False
            base, text = self._name_type(body[k].text, env)
            if text:
                elem = self._elem_type(text)
                head = elem or base
                if head:
                    return self.p.resolve_short(head), True
            return None, False
        if k < 0 or body[k].kind != ID:
            return None, False
        if body[k].text == "this":
            return (self.cls, True) if self.cls else (None, True)
        # Two-level member chains resolve the *last* hop only when the
        # first hop is unambiguous; otherwise give up un-confidently.
        if k - 1 >= 0 and body[k - 1].text in (".", "->"):
            return None, False
        base, _text = self._name_type(body[k].text, env)
        if base is None:
            return None, False
        return self.p.resolve_short(base), True

    # main scan --------------------------------------------------------

    def scan(self, body: List[Token], env: Dict[str, str]) -> None:
        n = len(body)
        i = 0
        while i < n:
            t = body[i]
            if t.kind != ID:
                if t.text in ("++", "--"):
                    j = i - 1
                    if j >= 0 and body[j].kind == ID:
                        self._mutation(body, j, env)
                    elif i + 1 < n and body[i + 1].kind == ID:
                        k = i + 1
                        while (
                            k + 2 < n
                            and body[k + 1].text in (".", "->")
                            and body[k + 2].kind == ID
                        ):
                            k += 2
                        self._mutation(body, k, env)
                i += 1
                continue

            consumed = self._try_local_decl(body, i, env)
            if consumed is not None:
                i = consumed
                continue

            nxt = body[i + 1].text if i + 1 < n else ""

            if t.text == "new":
                self._alloc("new", t.line)
                i += 1
                continue

            if nxt == "(" and t.text not in _KEYWORDS:
                self._call_site(body, i, env)
            elif nxt == "<" and t.text in ("make_unique", "make_shared"):
                self._alloc(t.text, t.line)

            if t.text == "for" and nxt == "(":
                self._range_for(body, i, env)

            if i + 1 < n and self._is_assign(body[i + 1].text):
                self._mutation(body, i, env)
            elif nxt == "[":
                # Subscript store: `depMask_[slot] |= bit`.
                k = i + 1
                depth = 0
                while k < n:
                    if body[k].text == "[":
                        depth += 1
                    elif body[k].text == "]":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
                if (
                    k + 1 < n
                    and self._is_assign(body[k + 1].text)
                ):
                    self._mutation(body, i, env)

            i += 1

    @staticmethod
    def _is_assign(t: str) -> bool:
        return t in _ASSIGN_OPS

    def _alloc(self, what: str, line: int) -> None:
        if not self.out.suppressed("steady-alloc", self.p.path, line):
            self.fn.allocs.append((what, line))

    def scan_allocs(self, toks: List[Token]) -> None:
        """Allocation sites alone, for a constructor's initializer
        list (its calls and arguments are not body facts)."""
        for i, t in enumerate(toks):
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if (
                t.text == "new"
                or (t.text in _ALLOC_CALLS and nxt == "(")
                or (t.text in ("make_unique", "make_shared")
                    and nxt == "<")
            ):
                self._alloc(t.text, t.line)

    def _try_local_decl(
        self, body: List[Token], i: int, env: Dict[str, str]
    ) -> Optional[int]:
        """Recognize `Type [*&] name [= ... | ; | ( | {]` local
        declarations and extend env.  Returns the index to resume at,
        or None when this is not a declaration."""
        t = body[i]
        if t.text in _KEYWORDS or t.text in _TYPE_QUALIFIERS:
            return None
        if self.p.resolve_short(t.text) is None and (
            t.text not in self.decl.aliases
        ):
            return None
        prev = body[i - 1].text if i > 0 else ";"
        if prev not in (";", "{", "}", "(", ",", "const", "auto"):
            return None
        j = i + 1
        # optional template args
        if j < len(body) and body[j].text == "<":
            depth = 0
            while j < len(body):
                if body[j].text == "<":
                    depth += 1
                elif body[j].text in (">", ">>"):
                    depth -= 2 if body[j].text == ">>" else 1
                    if depth <= 0:
                        j += 1
                        break
                elif body[j].text in (";", "{", ")"):
                    return None
                j += 1
        while j < len(body) and body[j].text in ("*", "&", "const"):
            j += 1
        if j >= len(body) or body[j].kind != ID:
            return None
        name_tok = body[j]
        after = body[j + 1].text if j + 1 < len(body) else ""
        if after not in ("=", ";", "(", "{", ":", ","):
            return None
        base = self.p.base_type([t.text])
        if base:
            env[name_tok.text] = base
        return j + 1

    def _mutation(self, body, i, env) -> None:
        tok = body[i]
        if tok.kind != ID or tok.text in _KEYWORDS:
            return
        name = tok.text
        recv, confident = self._receiver_class(body, i, env)
        if recv is not None:
            if self._field_of(recv, name) is not None:
                self.fn.mutations.append((recv, name, tok.line))
            return
        if confident:
            return
        # Unresolvable receiver: unique-name fallback, only when
        # exactly one class in the whole tree declares this field.
        holders = [
            cls
            for cls, flds in self.decl.classes.items()
            if name in flds
        ]
        if len(holders) == 1:
            self.fn.mutations.append((holders[0], name, tok.line))

    def _call_site(self, body, i, env) -> None:
        name = body[i].text
        line = body[i].line
        j = i - 1
        recv_cls = None
        member_call = j >= 0 and body[j].text in (".", "->")
        if member_call:
            recv_cls, _conf = self._receiver_class(body, i, env)
            k = j - 1
            if (
                k >= 0
                and body[k].kind == ID
                and name in _MUTATING_METHODS
            ):
                owner, _c = self._receiver_class(body, k, env)
                if owner is not None:
                    fname = body[k].text
                    if self._field_of(owner, fname) is not None:
                        self.fn.mutations.append(
                            (owner, fname, line)
                        )
        elif j >= 0 and body[j].text == "::":
            k = j - 1
            if k >= 0 and body[k].kind == ID:
                recv_cls = self.p.resolve_short(body[k].text)

        self.fn.calls.append((name, recv_cls, line))

        if name in _ALLOC_CALLS:
            self._alloc(name, line)

        if member_call and recv_cls:
            vmethods = self.decl.virtual_methods.get(recv_cls)
            if vmethods and name in vmethods:
                self.fn.virtual_calls.append((recv_cls, name, line))

        # Annotated field passed bare as a call argument: conservative
        # potential mutation (a pass-by-reference helper like
        # setSlot(unissued_, slot)), unless the callee is known to
        # bind that argument read-only (Function.binds_read_only) —
        # e.g. the const accessor oldest(readyUnissued_).
        callee = self._callee(name, recv_cls, member_call)
        depth = 0
        nest = 0  # [] / {} inside the argument list
        arg = 0
        k = i + 1
        while k < len(body):
            t = body[k]
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif t.text in ("[", "{"):
                nest += 1
            elif t.text in ("]", "}"):
                nest -= 1
            elif depth == 1 and nest == 0 and t.text == ",":
                arg += 1
            elif depth == 1 and t.kind == ID and self.cls:
                prev_is_member = k > 0 and body[k - 1].text in (
                    ".", "->",
                )
                nxt = body[k + 1].text if k + 1 < len(body) else ""
                if (
                    not prev_is_member
                    and nxt in (",", ")")
                    and self._field_of(self.cls, t.text) is not None
                    and not (
                        callee is not None
                        and callee.binds_read_only(arg)
                    )
                ):
                    self.fn.mutations.append(
                        (self.cls, t.text, t.line)
                    )
            k += 1

    def _callee(self, name: str, recv_cls, member_call: bool):
        """The declared function a call resolves to: a member of the
        receiver's class or, for a bare call, of the enclosing class,
        else the one free function of that name.  None when the
        receiver is unknown or the name is ambiguous."""
        fns = self.decl.functions
        if recv_cls is not None:
            return fns.get(f"{recv_cls}::{name}")
        if member_call:
            return None
        if self.cls and f"{self.cls}::{name}" in fns:
            return fns[f"{self.cls}::{name}"]
        matches = [
            fn for qual, fn in fns.items()
            if fn.cls is None and qual.split("::")[-1] == name
        ]
        return matches[0] if len(matches) == 1 else None

    # unordered iteration ----------------------------------------------

    def _range_for(self, body, i, env) -> None:
        split = _range_for_split(body, i)
        if split is None:
            return
        colon, end = split
        expr = body[colon + 1 : end]
        ids = [t for t in expr if t.kind == ID]
        if not ids:
            return
        container = ids[-1].text
        base, text = self._name_type(container, env)
        # Bind the loop variable to the container's element type.
        decl_part = body[i + 2 : colon]
        decl_ids = [t for t in decl_part if t.kind == ID]
        if decl_ids and text:
            elem = self._elem_type(text)
            if elem:
                env[decl_ids[-1].text] = elem
        resolved = self.p.resolve_alias_text(base) if base else None
        full = self.p.resolve_alias_text(container)
        probe = " ".join(
            x for x in (resolved, text, full if full != container
                        else None) if x
        )
        if "unordered_" in probe:
            if not self.out.suppressed(
                "unordered-iteration", self.p.path, body[i].line
            ):
                self.out.rule_findings.append(
                    RuleFinding(
                        "unordered-iteration",
                        self.p.path,
                        body[i].line,
                        f"range-for over unordered container "
                        f"'{container}'",
                    )
                )


# -- per-file token rules ------------------------------------------------
#
# The rules below need no type information, so they run over every file
# of the lint scope (src bench tests examples by default), not only the
# files the model is built from.  Comments and literal contents never
# reach them: cpplex drops both.

_HEADER_EXTS = (".hh", ".h", ".hpp")

_RANDOM_CALLS = {"rand", "srand"}
# Ambient generators by name; the ranlux* engines and every
# std::*_engine / std::*_distribution of <random> match by form.
_RANDOM_IDS = {
    "drand48", "lrand48", "random_device", "mt19937", "mt19937_64",
    "minstd_rand", "minstd_rand0", "default_random_engine", "knuth_b",
}
_WALLCLOCK_IDS = {
    "gettimeofday", "clock_gettime", "timespec_get", "system_clock",
    "steady_clock", "high_resolution_clock",
}
_WALLCLOCK_CALLS = {"time", "clock"}
_UNORDERED_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}
_BEGIN_CALLS = {"begin", "cbegin", "rbegin", "crbegin"}
# Coherence-state fields only the coh:: transition helpers may assign.
_COH_FIELDS = {"coh", "pendingDowngrade"}
_IOSTREAM_RE = re.compile(r"#\s*include\s*<iostream>")


@dataclass
class LintFacts:
    """One file's token-rule results.  Walks over unordered containers
    are matched by name against the declarations of the whole scope,
    so they are kept as (container, line) until every file is read."""

    findings: List[RuleFinding] = dc_field(default_factory=list)
    unordered_names: Set[str] = dc_field(default_factory=set)
    walks: List[Tuple[str, int]] = dc_field(default_factory=list)


def include_guard(path: str) -> str:
    """The canonical guard: UNXPEC_<DIR>_<NAME>_HH from the path under
    src/ (src/cpu/rob.hh -> UNXPEC_CPU_ROB_HH), or from the last two
    path parts elsewhere (bench/pdf_figure.hh ->
    UNXPEC_BENCH_PDF_FIGURE_HH)."""
    parts = os.path.normpath(path).replace("\\", "/").split("/")
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    else:
        parts = parts[-2:]
    stem = re.sub(r"[.-]", "_", "_".join(parts)).upper()
    return "UNXPEC_" + re.sub(r"_H[HP]?P?$", "_HH", stem)


def _close_angle(toks: List[Token], i: int) -> int:
    """Index just past the template argument list opening at toks[i]."""
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t in (">", ">>"):
            depth -= 2 if t == ">>" else 1
            if depth <= 0:
                return i + 1
        elif t in (";", "{", "}"):
            return i
        i += 1
    return i


def _range_for_split(
    toks: List[Token], i: int
) -> Optional[Tuple[int, int]]:
    """At ``for (``: the indices of a range-for's ':' and closing ')',
    or None for a classic for loop."""
    depth = 0
    colon = None
    for k in range(i + 1, len(toks)):
        t = toks[k].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return None if colon is None else (colon, k)
        elif depth == 1 and t == ";":
            return None
        elif depth == 1 and t == ":" and colon is None:
            colon = k
    return None


def _naked_new_delete(toks: List[Token], i: int) -> bool:
    """new/delete at toks[i] is an expression, not ``operator new`` or
    a deleted function's ``= delete``."""
    if i + 1 >= len(toks) or (i > 0 and toks[i - 1].text == "operator"):
        return False
    nxt = toks[i + 1]
    if nxt.kind == ID or nxt.text in ("::", "("):
        return True
    return toks[i].text == "delete" and nxt.text in ("*", "[")


def lint_file(path: str, text: str) -> LintFacts:
    """The per-file token rules:

    * unseeded-randomness — rand()/srand(), drand48/lrand48, and any
      <random> engine or distribution: stochastic behaviour draws from
      the seeded unxpec::Rng so trials replay bit-identically;
    * wall-clock — std::chrono, the host clocks, and bare time()/
      clock() calls: simulated time is the Cycle counter;
    * float-cycle — any ``float``: cycle arithmetic is Cycle or double;
    * unordered-iteration — begin() or a range-for on a name declared
      as an unordered container anywhere in the scope (the model's
      type-resolving range-for check covers src/ as well);
    * raw-new-delete — naked new/delete expressions;
    * using-namespace-std — at any scope;
    * iostream-in-header — <iostream> included from a header;
    * include-guard — headers carry the ``include_guard`` name;
    * coherence-mutation — CohState/pendingDowngrade assignments
      outside memory/coherence.* and the unit tests, so every MESI
      transition stays in the coh:: helpers;
    * unjustified-suppression — a lint-ok(rule) marker with an empty
      justification (it suppresses nothing).

    ``lint-ok(rule): why`` on the site's line or the line above it
    suppresses a finding.
    """
    toks = tokenize(text, path)
    marks, unjustified = scan_suppressions(text)
    facts = LintFacts()
    rel = os.path.normpath(path).replace("\\", "/")
    is_header = rel.endswith(_HEADER_EXTS)
    in_unit_tests = (
        rel.startswith("tests/") or "/tests/" in rel
    ) and "speccheck/fixtures/" not in rel
    coh_exempt = "memory/coherence." in rel or in_unit_tests

    def suppressed(rule: str, line: int) -> bool:
        return any(rule in marks.get(c, ()) for c in (line, line - 1))

    def report(rule: str, line: int, detail: str) -> None:
        if not suppressed(rule, line):
            facts.findings.append(RuleFinding(rule, path, line, detail))

    for line, rule in unjustified:
        report(
            "unjustified-suppression", line,
            f"lint-ok({rule}) needs a justification after the colon",
        )

    n = len(toks)
    for i, t in enumerate(toks):
        prev = toks[i - 1].text if i > 0 else ""
        nxt = toks[i + 1].text if i + 1 < n else ""
        if t.kind == PP:
            if is_header and _IOSTREAM_RE.match(t.text):
                report(
                    "iostream-in-header", t.line,
                    "headers must not include <iostream>; include "
                    "<ostream>/<istream> or move the I/O to the .cc",
                )
            continue
        if t.kind != ID:
            continue
        name = t.text
        member = prev in (".", "->")
        in_std = prev == "::" and i >= 2 and toks[i - 2].text == "std"
        if (
            (name in _RANDOM_CALLS and nxt == "(")
            or name in _RANDOM_IDS
            or name.startswith("ranlux")
            or (in_std and name.endswith(("_engine", "_distribution")))
        ):
            report(
                "unseeded-randomness", t.line,
                f"{name} — use the seeded unxpec::Rng",
            )
        elif (
            name in _WALLCLOCK_IDS
            or (name in _WALLCLOCK_CALLS and nxt == "(" and not member)
            or (name == "chrono" and in_std)
        ):
            report(
                "wall-clock", t.line,
                f"{name} reads host time — derive time from the Cycle "
                "counter",
            )
        elif name == "float":
            report(
                "float-cycle", t.line,
                "float loses cycle precision past 2^24 — use Cycle "
                "(uint64) or double",
            )
        elif name in ("new", "delete") and _naked_new_delete(toks, i):
            report(
                "raw-new-delete", t.line,
                f"naked {name} — use std::make_unique or a container",
            )
        elif (
            name == "using" and nxt == "namespace"
            and i + 2 < n and toks[i + 2].text == "std"
        ):
            report("using-namespace-std", t.line, "using namespace std")
        elif (
            name in _COH_FIELDS and member and nxt in _ASSIGN_OPS
            and not coh_exempt
        ):
            report(
                "coherence-mutation", t.line,
                f"assignment to {name} — MESI transitions belong to the "
                "coh:: helpers (src/memory/coherence.hh)",
            )
        elif name in _UNORDERED_TYPES and nxt == "<":
            k = _close_angle(toks, i + 1)
            while k < n and toks[k].text in ("*", "&", "&&", "const"):
                k += 1
            if k < n and toks[k].kind == ID:
                after = toks[k + 1] if k + 1 < n else None
                if (
                    after is None
                    or after.line != toks[k].line
                    or after.text in (";", "=", "{")
                ):
                    facts.unordered_names.add(toks[k].text)
        elif (
            name in _BEGIN_CALLS and member and nxt == "("
            and i >= 2 and toks[i - 2].kind == ID
        ):
            if not suppressed("unordered-iteration", t.line):
                facts.walks.append((toks[i - 2].text, t.line))
        elif name == "for" and nxt == "(":
            # Only a plain member chain (`a.b->name`) names its range.
            split = _range_for_split(toks, i)
            expr = toks[split[0] + 1 : split[1]] if split else []
            if (
                len(expr) % 2 == 1
                and all(x.kind == ID for x in expr[0::2])
                and all(x.text in (".", "->") for x in expr[1::2])
                and not suppressed("unordered-iteration", t.line)
            ):
                facts.walks.append((expr[-1].text, t.line))

    if is_header:
        guard = f"#ifndef {include_guard(path)}"
        if not any(t.kind == PP and t.text == guard for t in toks):
            report("include-guard", 1, f"expected `{guard}`")
    return facts


def resolve_walks(facts: Dict[str, LintFacts]) -> List[RuleFinding]:
    """Every file's token findings plus its walks over a name declared
    as an unordered container in any file of the scope."""
    unordered: Set[str] = set()
    for f in facts.values():
        unordered |= f.unordered_names
    out: List[RuleFinding] = []
    for path in sorted(facts):
        out.extend(facts[path].findings)
        out.extend(
            RuleFinding(
                "unordered-iteration", path, line,
                f"walk over unordered container '{name}' — hash order "
                "is unspecified; use std::map, sorted emission, or a "
                "side vector",
            )
            for name, line in facts[path].walks
            if name in unordered
        )
    return out

"""libclang frontend: compiler-exact body facts.

The builtin token frontend supplies declarations, annotations,
rule findings and suppressions; this module re-derives the
*body* facts (call edges, spec-field mutations, allocation sites,
virtual dispatches) from real clang ASTs driven by
``compile_commands.json``.  Overload resolution, typedef sugar and
template receivers are handled by the compiler instead of heuristics,
so the libclang run is authoritative where the two disagree.

Only ``augment_model`` is public.  Any internal failure raises — the
caller (``__main__``) decides whether that is fatal (``--frontend
libclang`` / ``--ci``) or a graceful fallback to the builtin frontend.

The supported libclang version range is pinned in
``libclang_support.py`` — the single place to update it.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Set

from cache import ParseCache
from model import Model

# Method names whose call allocates in steady state (mirrors the
# builtin frontend's _ALLOC_CALLS — keep the two in sync).
ALLOC_CALLS = {
    "push_back", "emplace_back", "emplace", "insert", "resize",
    "reserve", "assign", "append", "push_front", "emplace_front",
    "make_unique", "make_shared",
}

ASSIGN_OPS = {
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
}


def _load_compdb(compdb: str) -> Dict[str, List[str]]:
    """Map normalized source path -> clang argument list."""
    out: Dict[str, List[str]] = {}
    with open(compdb, encoding="utf-8") as fh:
        entries = json.load(fh)
    for entry in entries:
        path = entry.get("file", "")
        directory = entry.get("directory", "")
        if not os.path.isabs(path):
            path = os.path.join(directory, path)
        path = os.path.normpath(path)
        if "arguments" in entry:
            argv = list(entry["arguments"])
        else:
            argv = entry.get("command", "").split()
        args: List[str] = []
        skip = False
        for arg in argv[1:]:
            if skip:
                skip = False
                continue
            if arg in ("-o", "-c"):
                skip = arg == "-o"
                continue
            if os.path.normpath(os.path.join(directory, arg)) == path:
                continue
            # Keep include paths absolute so parsing from the repo
            # root works regardless of the build directory.
            if arg.startswith("-I") and not os.path.isabs(arg[2:]):
                arg = "-I" + os.path.normpath(
                    os.path.join(directory, arg[2:])
                )
            args.append(arg)
        out[os.path.relpath(path)] = args
    return out


def _qualified(cursor) -> str:
    parts = [cursor.spelling]
    parent = cursor.semantic_parent
    while parent is not None and parent.spelling:
        kind = parent.kind.name
        if kind in (
            "NAMESPACE", "CLASS_DECL", "STRUCT_DECL", "CLASS_TEMPLATE",
        ):
            parts.append(parent.spelling)
        parent = parent.semantic_parent
    return "::".join(reversed(parts))


def _record_class(type_obj) -> Optional[str]:
    """Qualified class name behind a (possibly sugared) type."""
    if type_obj is None:
        return None
    decl = type_obj.get_canonical().get_declaration()
    if decl is None or not decl.spelling:
        return None
    if decl.kind.name not in (
        "CLASS_DECL", "STRUCT_DECL", "CLASS_TEMPLATE",
    ):
        return None
    return _qualified(decl)


def _first_assign_op(cursor, lhs) -> Optional[str]:
    """Operator token between the LHS child and the RHS."""
    lhs_end = lhs.extent.end.offset
    for tok in cursor.get_tokens():
        if tok.extent.start.offset >= lhs_end:
            if tok.spelling in ASSIGN_OPS:
                return tok.spelling
            # First token past the LHS that isn't the operator means
            # this BINARY_OPERATOR is not an assignment.
            return None
    return None


def _member_target(expr) -> Optional[object]:
    """Peel casts/parens down to a MEMBER_REF_EXPR, if any."""
    seen = 0
    while expr is not None and seen < 8:
        kind = expr.kind.name
        if kind == "MEMBER_REF_EXPR":
            return expr
        if kind in ("PAREN_EXPR", "UNEXPOSED_EXPR", "CSTYLE_CAST_EXPR",
                    "ARRAY_SUBSCRIPT_EXPR"):
            children = list(expr.get_children())
            if not children:
                return None
            expr = children[0]
            seen += 1
            continue
        return None
    return None


class _TuExtractor:
    """Collect body facts for every function defined in one TU."""

    def __init__(self, repo_root: str):
        self.repo_root = repo_root
        # qual -> fact dict (calls/mutations/allocs/virtual_calls)
        self.facts: Dict[str, dict] = {}

    def _rel(self, location) -> Optional[str]:
        if location.file is None:
            return None
        path = os.path.normpath(location.file.name)
        rel = os.path.relpath(path, self.repo_root)
        return None if rel.startswith("..") else rel

    def visit_tu(self, tu) -> None:
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind.name not in (
                "FUNCTION_DECL", "CXX_METHOD", "CONSTRUCTOR",
                "DESTRUCTOR", "FUNCTION_TEMPLATE",
            ):
                continue
            if not cursor.is_definition():
                continue
            if self._rel(cursor.location) is None:
                continue  # system / out-of-repo definition
            qual = _qualified(cursor)
            if qual in self.facts:
                continue  # inline def seen via an earlier include
            facts = {
                "calls": [], "mutations": [], "allocs": [],
                "virtual_calls": [],
            }
            self.facts[qual] = facts
            self._visit_body(cursor, facts)

    def _visit_body(self, fn_cursor, facts: dict) -> None:
        for node in fn_cursor.walk_preorder():
            kind = node.kind.name
            line = node.location.line
            if kind == "CALL_EXPR":
                self._call(node, line, facts)
            elif kind == "CXX_NEW_EXPR":
                facts["allocs"].append(("new", line))
            elif kind in ("BINARY_OPERATOR",
                          "COMPOUND_ASSIGNMENT_OPERATOR"):
                children = list(node.get_children())
                if len(children) != 2:
                    continue
                if kind == "BINARY_OPERATOR":
                    if _first_assign_op(node, children[0]) is None:
                        continue
                self._mutation(children[0], line, facts)
            elif kind == "UNARY_OPERATOR":
                toks = [t.spelling for t in node.get_tokens()]
                if "++" in toks[:2] + toks[-1:] or \
                        "--" in toks[:2] + toks[-1:]:
                    children = list(node.get_children())
                    if children:
                        self._mutation(children[0], line, facts)

    def _call(self, node, line: int, facts: dict) -> None:
        ref = node.referenced
        if ref is None or not ref.spelling:
            return
        name = ref.spelling
        recv = None
        parent = ref.semantic_parent
        if parent is not None and parent.kind.name in (
            "CLASS_DECL", "STRUCT_DECL", "CLASS_TEMPLATE",
        ):
            recv = _qualified(parent)
        facts["calls"].append((name, recv, line))
        if name in ALLOC_CALLS:
            facts["allocs"].append((name, line))
        try:
            virtual = ref.is_virtual_method()
        except Exception:  # noqa: BLE001 — older bindings
            virtual = False
        if virtual and recv is not None:
            facts["virtual_calls"].append((recv, name, line))

    def _mutation(self, lhs, line: int, facts: dict) -> None:
        """Record the field an assignment or ++/-- writes.  A field
        passed as a call argument is never a mutation here, so a const
        accessor such as ``oldest(readyUnissued_)`` agrees with the
        builtin frontend's read-only-binding rule; a write through a
        non-const reference parameter, which the builtin frontend
        counts at the call site, goes unrecorded."""
        member = _member_target(lhs)
        if member is None:
            return
        ref = member.referenced
        if ref is None or ref.kind.name != "FIELD_DECL":
            return
        cls = _record_class(ref.semantic_parent.type) if \
            ref.semantic_parent is not None else None
        if cls is None:
            cls = _qualified(ref.semantic_parent) if \
                ref.semantic_parent is not None else None
        if cls:
            facts["mutations"].append((cls, ref.spelling, line))


def augment_model(
    model: Model,
    cindex,
    compdb: str,
    files: List[str],
    cache: ParseCache,
) -> None:
    """Fill compiler-exact body facts into ``model``.

    ``model`` must come from the builtin declaration pass with bodies
    stripped (``keep_bodies=False``).  Raises on any infrastructure
    problem; the caller handles fallback policy.
    """
    if not os.path.isfile(compdb):
        raise RuntimeError(
            f"compile_commands.json not found at {compdb} — configure "
            "with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON first"
        )
    args_by_file = _load_compdb(compdb)
    repo_root = os.getcwd()
    index = cindex.Index.create()

    tus = [f for f in files if f in args_by_file]
    if not tus:
        raise RuntimeError(
            "no analyzed source file appears in the compilation "
            "database"
        )

    merged: Dict[str, dict] = {}
    for path in tus:
        with open(path, "rb") as fh:
            content = fh.read()
        key = cache.digest(
            b"libclang", path.encode(), content,
            " ".join(args_by_file[path]).encode(),
        )
        facts = cache.get("libclang", key)
        if facts is None:
            tu = index.parse(path, args=args_by_file[path])
            errors = [
                d for d in tu.diagnostics
                if d.severity >= cindex.Diagnostic.Error
            ]
            if errors:
                raise RuntimeError(
                    f"{path}: clang reported "
                    f"{len(errors)} error(s); first: {errors[0]}"
                )
            extractor = _TuExtractor(repo_root)
            extractor.visit_tu(tu)
            facts = extractor.facts
            cache.put("libclang", key, facts)
        for qual, f in facts.items():
            merged.setdefault(qual, f)

    known: Set[str] = set(model.functions)
    for qual, f in merged.items():
        fn = model.functions.get(qual)
        if fn is None:
            # Qualification differences (templates, lambdas) — match
            # by suffix against the builtin-declared set.
            candidates = [
                k for k in known
                if k == qual or k.endswith("::" + qual)
                or qual.endswith("::" + k)
            ]
            if len(candidates) != 1:
                continue
            fn = model.functions[candidates[0]]
        fn.calls.extend(tuple(c) for c in f["calls"])
        fn.mutations.extend(tuple(m) for m in f["mutations"])
        fn.allocs.extend(tuple(a) for a in f["allocs"])
        fn.virtual_calls.extend(tuple(v) for v in f["virtual_calls"])

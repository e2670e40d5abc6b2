#!/usr/bin/env python3
"""speccheck — the project lint: undo-completeness, determinism and
the per-file source rules.

Usage (from the repo root):

    python3 scripts/speccheck [--compdb build/compile_commands.json]
                              [--src src] [--frontend auto|builtin|libclang]
                              [--ci] [--report out.json] [--verbose]

Checks (see checks.py): undo-completeness, unpaired-spec-mutation,
hot-path over the model built from src/, and the per-file token rules
(frontend_builtin.lint_file) over src/ bench/ tests/ examples/, minus
the speccheck fixtures.  ``--src DIR`` sets both scopes to DIR.  Exit
codes: 0 clean, 1 findings, 2 infrastructure problem (missing libclang
under --ci, malformed annotations, unreadable inputs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Set

import frontend_builtin as fb
from baseline import Baseline, BaselineError
from cache import ParseCache
from checks import run_checks
from cpplex import LexError
from libclang_support import LibclangUnavailable, load as load_libclang
from model import AnnotationError, Model, RuleFinding
from report import render_json, render_text

SOURCE_EXTS = (".cc", ".cpp", ".cxx")
HEADER_EXTS = (".hh", ".h", ".hpp")

# Default scopes: the model (undo, pairing, hot path) is built from the
# simulator sources; the token rules also cover the benches, tests and
# examples built on them.  The fixtures hold deliberate violations, and
# benchmark/ measures host time by design.
MODEL_DIRS = ["src"]
LINT_DIRS = ["src", "bench", "tests", "examples"]
FIXTURES = os.path.join("tests", "speccheck", "fixtures")


def discover_files(src_dirs: List[str], compdb: Optional[str]):
    files: List[str] = []
    seen: Set[str] = set()
    if compdb and os.path.isfile(compdb):
        with open(compdb, encoding="utf-8") as fh:
            for entry in json.load(fh):
                path = entry.get("file", "")
                if not os.path.isabs(path):
                    path = os.path.join(entry.get("directory", ""), path)
                path = os.path.normpath(path)
                if not path.endswith(SOURCE_EXTS):
                    continue
                rel = os.path.relpath(path)
                if any(
                    rel.startswith(d.rstrip("/") + os.sep)
                    for d in src_dirs
                ) and rel not in seen:
                    seen.add(rel)
                    files.append(rel)
    for d in src_dirs:
        for root, _dirs, names in os.walk(d):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS + HEADER_EXTS):
                    rel = os.path.normpath(os.path.join(root, name))
                    if rel not in seen:
                        seen.add(rel)
                        files.append(rel)
    return sorted(files)


def load_texts(files: List[str]) -> Dict[str, str]:
    texts = {}
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as fh:
            texts[path] = fh.read()
    return texts


def build_model_builtin(
    files: List[str],
    texts: Dict[str, str],
    cache: ParseCache,
    keep_bodies: bool = True,
) -> Model:
    modes: Set[str] = set()
    for text in texts.values():
        if "CleanupMode" in text:
            modes |= fb.collect_modes(text)

    decl = Model(modes=set(modes))
    decl_keys = {}
    for path in files:
        key = cache.digest(
            b"decl", path.encode(), texts[path].encode()
        )
        decl_keys[path] = key
        per_file = cache.get("decl", key)
        if per_file is None:
            per_file = fb.parse_declarations(path, texts[path], modes)
            cache.put("decl", key, per_file)
        decl.merge(per_file)

    global_digest = cache.digest(
        *(decl_keys[p].encode() for p in files)
    ).encode()

    model = Model(modes=set(modes))
    model.merge(decl)
    for path in files:
        key = cache.digest(
            b"body", global_digest, path.encode(), texts[path].encode()
        )
        per_file = cache.get("body", key)
        if per_file is None:
            per_file = fb.parse_bodies(path, texts[path], decl)
            if not keep_bodies:
                for fn in per_file.functions.values():
                    fn.calls = []
                    fn.mutations = []
                    fn.allocs = []
                    fn.virtual_calls = []
            cache.put("body", key, per_file)
        model.merge(per_file)
    return model


def lint_builtin(
    files: List[str], texts: Dict[str, str], cache: ParseCache
) -> List[RuleFinding]:
    """Run the per-file token rules over ``files``."""
    facts = {}
    for path in files:
        key = cache.digest(b"lint", path.encode(), texts[path].encode())
        per_file = cache.get("lint", key)
        if per_file is None:
            per_file = fb.lint_file(path, texts[path])
            cache.put("lint", key, per_file)
        facts[path] = per_file
    return fb.resolve_walks(facts)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="speccheck", description=__doc__
    )
    parser.add_argument(
        "--compdb",
        default="build/compile_commands.json",
        help="compile_commands.json (for the libclang frontend and "
        "translation-unit discovery)",
    )
    parser.add_argument(
        "--src",
        action="append",
        default=None,
        help="source directory to analyze (repeatable; default: src "
        "for the model checks, src bench tests examples for the token "
        "rules)",
    )
    parser.add_argument(
        "--frontend",
        choices=("auto", "builtin", "libclang"),
        default="auto",
        help="auto prefers libclang when importable, falling back to "
        "the built-in token frontend",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="CI mode: a missing/unusable libclang is an error "
        "instead of a graceful skip",
    )
    parser.add_argument("--report", help="write a JSON report here")
    parser.add_argument(
        "--baseline",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "baseline.json"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default="build/.speccheck-cache",
        help="parse-result cache directory",
    )
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument(
        "--only",
        help="comma list of checks to run "
        "(undo,pairing,determinism,hotpath; determinism selects every "
        "per-file rule)",
    )
    parser.add_argument("--verbose", "-v", action="store_true")
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the internal frontend smoke tests and exit",
    )
    args = parser.parse_args(argv)

    if args.selftest:
        import selftest

        return selftest.run()

    model_dirs = args.src or MODEL_DIRS
    lint_dirs = args.src or LINT_DIRS
    for d in lint_dirs:
        if not os.path.isdir(d):
            print(f"speccheck: source directory '{d}' not found",
                  file=sys.stderr)
            return 2

    # Frontend selection (libclang version range pinned in
    # libclang_support.py).
    use_libclang = False
    cindex = None
    if args.frontend in ("auto", "libclang"):
        try:
            cindex = load_libclang()
            use_libclang = True
        except LibclangUnavailable as exc:
            if args.frontend == "libclang" or args.ci:
                print(
                    f"speccheck: libclang required but unavailable: "
                    f"{exc}",
                    file=sys.stderr,
                )
                return 2
            print(
                f"speccheck: skipping libclang frontend ({exc}); "
                "continuing with the built-in token frontend",
                file=sys.stderr,
            )

    files = discover_files(model_dirs, args.compdb)
    lint_files = [
        f for f in discover_files(lint_dirs, None)
        if args.src or not f.startswith(FIXTURES + os.sep)
    ]
    if not files:
        print("speccheck: no input files found", file=sys.stderr)
        return 2
    texts = load_texts(sorted(set(files) | set(lint_files)))

    cache = ParseCache(args.cache_dir, enabled=not args.no_cache)

    try:
        if use_libclang:
            import frontend_libclang as flc

            # Builtin pass supplies declarations, range-for findings
            # and suppressions; libclang supplies bodies (calls,
            # mutations) with compiler-exact type information.
            model = build_model_builtin(
                files, texts, cache, keep_bodies=False
            )
            try:
                flc.augment_model(
                    model, cindex, args.compdb, files, cache
                )
            except Exception as exc:  # noqa: BLE001 — degrade, don't die
                if args.frontend == "libclang":
                    print(
                        f"speccheck: libclang frontend failed: {exc}",
                        file=sys.stderr,
                    )
                    return 2
                print(
                    f"speccheck: libclang frontend failed ({exc}); "
                    "falling back to the built-in frontend",
                    file=sys.stderr,
                )
                model = build_model_builtin(files, texts, cache)
        else:
            model = build_model_builtin(files, texts, cache)
        model.rule_findings.extend(lint_builtin(lint_files, texts, cache))
    except (AnnotationError, LexError) as exc:
        print(f"speccheck: {exc}", file=sys.stderr)
        return 2

    try:
        baseline = Baseline.load(args.baseline)
    except BaselineError as exc:
        print(f"speccheck: {exc}", file=sys.stderr)
        return 2

    only = None
    if args.only:
        only = {part.strip() for part in args.only.split(",")}
        known = {"undo", "pairing", "determinism", "hotpath"}
        unknown = only - known
        if unknown:
            print(
                f"speccheck: unknown checks: {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 2

    res = run_checks(model, baseline, only)

    # Deduplicate findings (builtin + libclang can agree on a site).
    seen = set()
    unique = []
    for f in res.findings:
        key = (f.check, f.where, f.message)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    res.findings = unique

    print(render_text(res, verbose=args.verbose))
    if not args.no_cache:
        print(
            f"speccheck: parse cache {cache.hits} hits / "
            f"{cache.misses} misses",
            file=sys.stderr,
        )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_json(res))
    return 1 if res.findings else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Project-specific simulator lint: hazards generic tools don't know.

The simulator's results must be a pure function of (config, seed): the
unXpec timing channel is measured in single cycles, so any source of
nondeterminism or silent precision loss corrupts the signal the repo
exists to reproduce. This lint enforces, over ``src/`` by default:

  unseeded-randomness   rand()/srand()/std::random_device/std::mt19937
                        etc. anywhere outside src/sim/rng.* — all
                        stochastic behaviour must draw from the seeded
                        Rng so trials replay bit-identically.
  wall-clock            std::chrono / time() / clock_gettime() and
                        friends in simulator code — simulated time is
                        the Cycle counter; host time leaks host noise
                        into results.
  unordered-iteration   iteration over std::unordered_map/set members —
                        hash iteration order is unspecified and varies
                        across libstdc++ versions, so any walk feeding
                        stats/JSON/CSV/trace export (or any walk at
                        all, conservatively) is a reproducibility
                        hazard. Use std::map, sorted emission, or a
                        side vector in deterministic order.
  raw-new-delete        naked new/delete expressions — ownership goes
                        through std::unique_ptr / containers.
  float-cycle           the 32-bit ``float`` type anywhere — cycle and
                        latency arithmetic is Cycle (uint64) or double;
                        float silently drops precision past 2^24 cycles.
  using-namespace-std   ``using namespace std`` at any scope.
  iostream-in-header    <iostream> included from a header (drags static
                        init into every TU; include <ostream>/<istream>
                        or push I/O into the .cc).
  include-guard         headers must carry the canonical
                        UNXPEC_<DIR>_<NAME>_HH guard.
  steady-alloc          container growth (push_back/resize/insert/...)
                        or make_unique/make_shared in the per-cycle hot
                        files (core, ROB, LSQ, caches, MSHRs, memory,
                        coherence, cleanup) — steady-state simulation
                        must not touch the heap (DESIGN.md §13; the
                        zero-alloc invariant pooled throughput rests
                        on). Every growth site there must either move
                        to reserved storage or carry a
                        ``lint-ok(steady-alloc)`` justification saying
                        why it is cold (one-time construction, error
                        path, ring assignment, ...).

A finding can be suppressed with a justified marker on the same or the
preceding line::

    // lint-ok(unordered-iteration): order-insensitive zeroing

An empty justification is itself an error. Exit status: 0 when clean,
1 when any finding (or bad suppression) remains.

Division of labor with scripts/speccheck
----------------------------------------
This lint is the *fast regex pre-pass*: it runs in milliseconds with
no toolchain and catches the obvious cases with an exact source
location. The AST-level analyzer in ``scripts/speccheck`` re-implements
the determinism rules (unordered-iteration, unseeded-randomness,
wall-clock, float-cycle) on real parse trees — immune to the comment/
string false positives and typedef'd-container false negatives a regex
cannot avoid — and replaces the hard-coded STEADY_ALLOC_FILES list
with call-graph reachability from the run loop (Core::runStep and
Core::skipIdle). Where the two
disagree, speccheck is authoritative; the rules below
marked "(pre-pass)" are kept here only for fast local feedback. Both
tools honor the same ``lint-ok(rule): why`` suppression syntax, so a
justification written once covers both.

Usage:
  python3 scripts/lint_sim.py                 # lint src/
  python3 scripts/lint_sim.py src tests       # explicit paths
  python3 scripts/lint_sim.py --list-rules
"""

import argparse
import os
import re
import sys

RULES = {
    "unseeded-randomness":
        "use the seeded unxpec::Rng (src/sim/rng.hh), never ambient PRNGs "
        "(pre-pass; authoritative AST check: scripts/speccheck)",
    "wall-clock":
        "simulator code must derive time from the Cycle counter, not the "
        "host clock (pre-pass; authoritative AST check: scripts/speccheck)",
    "unordered-iteration":
        "iterating a std::unordered_* container is nondeterministic across "
        "library versions; use std::map, sorted emission, or a side vector "
        "(pre-pass; authoritative AST check: scripts/speccheck)",
    "raw-new-delete":
        "naked new/delete; use std::make_unique / containers",
    "float-cycle":
        "use Cycle (uint64) or double; float loses cycle precision "
        "(pre-pass; authoritative AST check: scripts/speccheck)",
    "using-namespace-std":
        "no `using namespace std`",
    "iostream-in-header":
        "headers must not include <iostream>",
    "include-guard":
        "header guard must be UNXPEC_<DIR>_<NAME>_HH",
    "coherence-mutation":
        "CohState/pendingDowngrade assignments belong to the coh:: "
        "transition helpers (src/memory/coherence.hh) so every MESI "
        "transition stays auditable in one place",
    "steady-alloc":
        "per-cycle hot paths must not allocate: use reserved "
        "storage, or justify a cold site with lint-ok(steady-alloc) "
        "(pre-pass over a fixed file list; scripts/speccheck enforces "
        "the same rule over the real call graph)",
}

SUPPRESS_RE = re.compile(r"lint-ok\((?P<rule>[a-z-]+)\)\s*:\s*(?P<why>\S.*)?")

RANDOM_RES = [
    re.compile(r"\bs?rand\s*\("),
    re.compile(r"\bdrand48\b|\blrand48\b"),
    re.compile(r"std::random_device"),
    re.compile(r"std::(mt19937(_64)?|minstd_rand0?|default_random_engine"
               r"|ranlux\w+|knuth_b)"),
    re.compile(r"std::(uniform_(int|real)_distribution"
               r"|normal_distribution|bernoulli_distribution)"),
]

WALLCLOCK_RES = [
    re.compile(r"std::chrono"),
    re.compile(r"\b(gettimeofday|clock_gettime|timespec_get)\b"),
    # `(?<![\w.>])` keeps member calls like `tracer.time()` or
    # `obj->clock()` out: only the bare C library functions are hits.
    re.compile(r"(?<![\w.>])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
    re.compile(r"(?<![\w.>])clock\s*\(\s*\)"),
]

NEW_RE = re.compile(r"(?<![\w.>])new\s+[A-Za-z_]")
DELETE_RE = re.compile(r"(?<![\w.>])delete(\[\])?\s+[\w(*]")
FLOAT_RE = re.compile(r"\bfloat\b")
USING_STD_RE = re.compile(r"\busing\s+namespace\s+std\b")
IOSTREAM_RE = re.compile(r'#\s*include\s*<iostream>')
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<")
# Assignment (not comparison) to a coherence-state field through a
# member access. Plain `coh = ...` inside CacheLine::reset carries no
# `.`/`->` and is intentionally not matched.
COH_MUT_RE = re.compile(r"(?:\.|->)\s*(?:coh|pendingDowngrade)\s*=(?!=)")
# Files whose code runs inside (or is reachable from) the per-cycle
# tick loop: Core::runStep, the idle skip Core::skipIdle between steps,
# and everything they drive. Growth calls here
# are steady-state heap churn unless justified.
STEADY_ALLOC_FILES = (
    "cpu/core.cc", "cpu/core.hh",
    "cpu/rob.cc", "cpu/rob.hh",
    "cpu/lsq.cc", "cpu/lsq.hh",
    "memory/cache.cc", "memory/cache.hh",
    "memory/hierarchy.cc", "memory/hierarchy.hh",
    "memory/mshr.hh",
    "memory/main_memory.cc", "memory/main_memory.hh",
    "memory/coherence.cc", "memory/coherence.hh",
    "memory/replacement.hh",
    "cleanup/cleanup_engine.cc", "cleanup/cleanup_engine.hh",
    "cleanup/spec_tracker.cc", "cleanup/spec_tracker.hh",
    "sim/ring_queue.hh",
)
STEADY_ALLOC_RE = re.compile(
    r"(?:\.|->)\s*(?:push_back|emplace_back|push_front|emplace_front"
    r"|resize|reserve|emplace|insert|assign|append)\s*\("
    r"|std::make_(?:unique|shared)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*(?:\w+(?:\.|->))*(\w+)\s*\)")
# Only begin()-family calls: any real iteration needs one, while bare
# end() shows up in the harmless `find(x) == c.end()` lookup idiom.
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*c?r?begin\s*\(")


def strip_code(text):
    """Blank out comments and string/char literals, preserving layout.

    Keeps every line's length so (line, column) positions survive; the
    raw text is still used for the include-guard and suppression rules.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            # Raw string literal R"delim( ... )delim" — the body may
            # contain quotes and backslashes the plain string state
            # would misparse.
            raw_lit = re.match(r'(?:u8|[uUL])?R"([^()\\ \t\n]*)\(',
                               text[i:])
            if raw_lit:
                end_tok = ")" + raw_lit.group(1) + '"'
                end = text.find(end_tok, i + raw_lit.end())
                if end == -1:
                    end = n
                else:
                    end += len(end_tok)
                for ch in text[i:end]:
                    out.append("\n" if ch == "\n" else " ")
                i = end
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


class Linter:
    def __init__(self):
        self.findings = []
        self.unordered_members = set()

    def finding(self, path, lineno, rule, detail, raw_lines):
        """Record a finding unless a justified suppression covers it."""
        for cand in (lineno, lineno - 1):
            if 1 <= cand <= len(raw_lines):
                m = SUPPRESS_RE.search(raw_lines[cand - 1])
                if m and m.group("rule") == rule:
                    if not m.group("why"):
                        self.findings.append(
                            (path, cand, rule,
                             "suppression without a justification"))
                    return
        self.findings.append((path, lineno, rule, detail))

    # -- pass 1: collect unordered container member/variable names ----
    def collect_unordered(self, path, code_lines):
        for line in code_lines:
            if not UNORDERED_DECL_RE.search(line):
                continue
            decl = re.search(r">\s*(\w+)\s*(?:;|=|\{|$)", line)
            if decl:
                self.unordered_members.add(decl.group(1))

    # -- pass 2: per-file rules ---------------------------------------
    def lint_file(self, path, raw, code):
        raw_lines = raw.splitlines()
        code_lines = code.splitlines()
        rel = path.replace("\\", "/")
        in_rng = "/sim/rng." in rel or rel.endswith(("sim/rng.hh",
                                                     "sim/rng.cc"))
        in_coherence = ("/memory/coherence." in rel
                        or rel.endswith(("memory/coherence.hh",
                                         "memory/coherence.cc")))
        in_tests = "/tests/" in rel or rel.startswith("tests/")
        is_header = rel.endswith((".hh", ".h", ".hpp"))
        in_hot_path = rel.endswith(STEADY_ALLOC_FILES)

        for lineno, line in enumerate(code_lines, 1):
            if not in_rng:
                for rx in RANDOM_RES:
                    if rx.search(line):
                        self.finding(path, lineno, "unseeded-randomness",
                                     line.strip(), raw_lines)
            for rx in WALLCLOCK_RES:
                if rx.search(line):
                    self.finding(path, lineno, "wall-clock",
                                 line.strip(), raw_lines)
            if NEW_RE.search(line) or DELETE_RE.search(line):
                self.finding(path, lineno, "raw-new-delete",
                             line.strip(), raw_lines)
            if FLOAT_RE.search(line):
                self.finding(path, lineno, "float-cycle",
                             line.strip(), raw_lines)
            if USING_STD_RE.search(line):
                self.finding(path, lineno, "using-namespace-std",
                             line.strip(), raw_lines)
            # Tests may forge coherence state to exercise the auditor.
            if (not in_coherence and not in_tests
                    and COH_MUT_RE.search(line)):
                self.finding(path, lineno, "coherence-mutation",
                             line.strip(), raw_lines)
            if in_hot_path and STEADY_ALLOC_RE.search(line):
                self.finding(path, lineno, "steady-alloc",
                             line.strip(), raw_lines)
            for m in RANGE_FOR_RE.finditer(line):
                if m.group(1) in self.unordered_members:
                    self.finding(path, lineno, "unordered-iteration",
                                 line.strip(), raw_lines)
            for m in BEGIN_CALL_RE.finditer(line):
                if m.group(1) in self.unordered_members:
                    self.finding(path, lineno, "unordered-iteration",
                                 line.strip(), raw_lines)

        if is_header:
            for lineno, line in enumerate(raw_lines, 1):
                if IOSTREAM_RE.search(line):
                    self.finding(path, lineno, "iostream-in-header",
                                 line.strip(), raw_lines)
            self.check_guard(path, raw_lines)

    def check_guard(self, path, raw_lines):
        rel = os.path.normpath(path).replace("\\", "/")
        parts = rel.split("/")
        # Guard is derived from the path under the source root
        # (src/cpu/rob.hh -> UNXPEC_CPU_ROB_HH, bench/pdf_figure.hh ->
        # UNXPEC_BENCH_PDF_FIGURE_HH).
        if "src" in parts:
            parts = parts[parts.index("src") + 1:]
        else:
            parts = parts[-2:]
        stem = "_".join(parts)
        for ch in (".", "-"):
            stem = stem.replace(ch, "_")
        expect = "UNXPEC_" + re.sub(r"_H[HP]?P?$", "_HH", stem.upper())
        want = f"#ifndef {expect}"
        if not any(line.strip() == want for line in raw_lines):
            self.finding(path, 1, "include-guard",
                         f"expected `{want}`", raw_lines)


def gather(paths):
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for root, _dirs, names in os.walk(path):
            # The speccheck fixtures contain intentional violations
            # (that's what they test); never lint them.
            if "speccheck/fixtures" in root.replace("\\", "/"):
                continue
            for name in sorted(names):
                if name.endswith((".hh", ".h", ".hpp", ".cc", ".cpp")):
                    files.append(os.path.join(root, name))
    return sorted(set(files))


def main():
    parser = argparse.ArgumentParser(
        description="simulator-specific lint (see module docstring)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule, why in RULES.items():
            print(f"{rule:22s} {why}")
        return 0

    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(here)
    paths = args.paths or [os.path.relpath(os.path.join(repo, "src"))]
    files = gather(paths)
    if not files:
        print("lint_sim: no input files", file=sys.stderr)
        return 2

    linter = Linter()
    stripped = {}
    for path in files:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        stripped[path] = (raw, strip_code(raw))
        linter.collect_unordered(path, stripped[path][1].splitlines())
    for path in files:
        raw, code = stripped[path]
        linter.lint_file(path, raw, code)

    for path, lineno, rule, detail in linter.findings:
        print(f"{path}:{lineno}: [{rule}] {detail}")
        print(f"    hint: {RULES[rule]}")
    if linter.findings:
        print(f"lint_sim: {len(linter.findings)} finding(s) in "
              f"{len(files)} files")
        return 1
    print(f"lint_sim: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

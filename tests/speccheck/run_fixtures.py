#!/usr/bin/env python3
"""Fixture tests for scripts/speccheck (registered as a ctest).

Each fixture under tests/speccheck/fixtures/ is a tiny source tree
with one known property; the test asserts that speccheck reports
exactly that property:

* clean      — fully paired state, exit 0, no findings; a const
               accessor passing spec state to read-only callees is
               not a mutation;
* unpaired   — rogue mutations outside any transition/rollback, one
               direct and two through reference parameters;
* incomplete — squash path missing one field (undo-completeness);
* unordered  — nondeterministic unordered_map range-for walk;
* ambiguous_call — a call with an untyped receiver to a method name
               two classes declare: exit 0, and the one warning names
               every candidate (a typed receiver and a namespace-
               qualified call of the same name resolve and warn not).

One fixture per per-file lint rule must exit 1 and report that rule
and no other:

* random              — unseeded-randomness (mt19937, a <random>
                        distribution, rand());
* wall_clock          — wall-clock (std::chrono);
* float_cycle         — float-cycle;
* unordered_begin     — unordered-iteration through begin();
* raw_new_delete      — raw-new-delete;
* using_namespace_std — using-namespace-std;
* iostream_header     — iostream-in-header;
* include_guard       — include-guard;
* coherence_mutation  — coherence-mutation;
* steady_alloc        — steady-alloc in a per-cycle file, on the run
                        loop (push_back, make_unique) and off it;
* unjustified         — unjustified-suppression: a lint-ok marker with
                        an empty reason is a finding and suppresses
                        nothing.

The last cases run speccheck over a scratch tree, to prove the default
scope (src bench tests examples, minus the fixtures), and over the real
tree, which must be clean, so a regression that silently breaks the
gate (or new unbaselined residue state) fails ctest, not just CI. The
real tree's hot-path list must hold the per-instruction funnels that
are defined in headers (HEADER_FUNNELS).

Run from the repo root:  python3 tests/speccheck/run_fixtures.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
FIXTURES = os.path.join("tests", "speccheck", "fixtures")
EMPTY_BASELINE = os.path.join(FIXTURES, "empty_baseline.json")


# Fixture directory -> the labels speccheck must report, and no other.
RULE_FIXTURES = {
    "random": {"determinism:unseeded-randomness"},
    "wall_clock": {"determinism:wall-clock"},
    "float_cycle": {"determinism:float-cycle"},
    "unordered_begin": {"determinism:unordered-iteration"},
    "raw_new_delete": {"raw-new-delete"},
    "using_namespace_std": {"using-namespace-std"},
    "iostream_header": {"iostream-in-header"},
    "include_guard": {"include-guard"},
    "coherence_mutation": {"coherence-mutation"},
    "steady_alloc": {"steady-alloc"},
    "unjustified": {
        "unjustified-suppression", "determinism:float-cycle",
    },
}

# Per-instruction functions defined in headers for the tick loops to
# inline; the hot-path closure must still reach each of them.
HEADER_FUNNELS = {
    "ReorderBuffer::claim", "ReorderBuffer::admit",
    "ReorderBuffer::markIssued", "ReorderBuffer::markDone",
    "ReorderBuffer::popFront", "LoadStoreQueue::occupancy",
    "MemoryHierarchy::fetchReady",
}

FINDING_RE = re.compile(r"^  \S+:\d+: \[(?P<label>[^\]]+)\] ", re.M)


def run_speccheck(*extra: str, cwd: str = REPO):
    cmd = [
        sys.executable, os.path.join(REPO, "scripts", "speccheck"),
        "--frontend", "builtin", "--no-cache", *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=cwd, capture_output=True, text=True, check=False
    )
    return proc.returncode, proc.stdout + proc.stderr


def labels(out: str):
    return {m.group("label") for m in FINDING_RE.finditer(out)}


def fixture(name: str, *extra: str):
    return run_speccheck(
        "--src", os.path.join(FIXTURES, name),
        "--baseline", EMPTY_BASELINE, *extra,
    )


FAILURES = []


def check(label: str, cond: bool, context: str = ""):
    if cond:
        print(f"ok   {label}")
    else:
        FAILURES.append(label)
        print(f"FAIL {label}")
        if context:
            print(context)


def check_default_scope() -> None:
    """With no --src, the token rules read src/ bench/ tests/ and
    examples/ and skip tests/speccheck/fixtures/."""
    with tempfile.TemporaryDirectory() as root:
        files = {
            "src/mini.cc": "float a = 0;\n",
            "bench/mini.cc": "float b = 0;\n",
            "tests/mini.cc": "float c = 0;\n",
            "examples/mini.cpp": "float d = 0;\n",
            "tests/speccheck/fixtures/bad/mini.cc": "float e = 0;\n",
        }
        for rel, text in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        code, out = run_speccheck(cwd=root)
    flagged = set(re.findall(r"^  (\S+):\d+: ", out, re.M))
    check(
        "default scope is src bench tests examples minus the fixtures",
        code == 1 and flagged == {
            os.path.join("src", "mini.cc"),
            os.path.join("bench", "mini.cc"),
            os.path.join("tests", "mini.cc"),
            os.path.join("examples", "mini.cpp"),
        },
        out,
    )


def main() -> int:
    code, out = fixture("clean")
    check("clean fixture exits 0", code == 0, out)
    check("clean fixture has no findings", "no findings" in out, out)

    code, out = fixture("unpaired")
    check("unpaired fixture exits 1", code == 1, out)
    check(
        "unpaired mutation is reported",
        "unpaired-spec-mutation" in out
        and "MiniCache::poke" in out
        and "MiniLine::speculative" in out,
        out,
    )
    bump_lines = [
        line for line in out.splitlines()
        if "MiniCache::bump mutates" in line
        and "MiniCache::mask_" in line
    ]
    check(
        "spec field passed by non-const reference is reported",
        len(bump_lines) == 2,
        out,
    )

    code, out = fixture("incomplete")
    check("incomplete fixture exits 1", code == 1, out)
    check(
        "missing undo field is reported for the gated mode",
        "undo-completeness" in out
        and "[Cleanup_FOR_L1]" in out
        and "MiniLine::installer" in out,
        out,
    )
    check(
        "restored field is not reported",
        "MiniLine::speculative is never restored" not in out,
        out,
    )
    check(
        "UnsafeBaseline stays exempt",
        "[UnsafeBaseline] speculative write-set" not in out,
        out,
    )

    code, out = fixture("unordered")
    check("unordered fixture exits 1", code == 1, out)
    check(
        "unordered walk is reported",
        "determinism:unordered-iteration" in out, out,
    )

    code, out = fixture("ambiguous_call")
    check("ambiguous_call fixture exits 0", code == 0, out)
    warnings = [
        line for line in out.splitlines() if line.startswith("  warning:")
    ]
    check(
        "ambiguous call is one warning naming every candidate",
        len(warnings) == 1
        and "mini.cc:20: MiniCache::squash calls drop()" in warnings[0]
        and "(Ledger::drop, Shadow::drop, util::drop)" in warnings[0],
        out,
    )

    for name, want in RULE_FIXTURES.items():
        code, out = fixture(name)
        check(f"{name} fixture exits 1", code == 1, out)
        check(
            f"{name} fixture reports {', '.join(sorted(want))} only",
            labels(out) == want,
            out,
        )
    code, out = fixture("steady_alloc")
    check(
        "steady-alloc covers make_unique and cold per-cycle code",
        "calls make_unique()" in out and "Core::dump is on" in out,
        out,
    )

    code, out = run_speccheck("--selftest")
    check("frontend selftests pass", code == 0, out)

    check_default_scope()

    with tempfile.TemporaryDirectory() as scratch:
        report = os.path.join(scratch, "report.json")
        code, out = run_speccheck("--report", report)
        check("real src bench tests examples tree is clean", code == 0, out)
        with open(report, encoding="utf-8") as fh:
            hot = set(json.load(fh)["hot_functions"])
    check(
        "hot path reaches the funnels defined in headers",
        HEADER_FUNNELS <= hot,
        ", ".join(sorted(HEADER_FUNNELS - hot)),
    )

    print(
        f"speccheck fixtures: "
        f"{'FAILED' if FAILURES else 'all passed'}"
    )
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fixture tests for scripts/speccheck (registered as a ctest).

Each fixture under tests/speccheck/fixtures/ is a tiny annotated
source tree with one known property; the test asserts that speccheck
reports exactly that property:

* clean      — fully paired state, exit 0, no findings; a const
               accessor passing spec state to read-only callees is
               not a mutation;
* unpaired   — rogue mutations outside any transition/rollback, one
               direct and two through reference parameters;
* incomplete — squash path missing one field (undo-completeness);
* unordered  — nondeterministic unordered_map walk.

A final case runs speccheck over the real src/ tree and requires a
clean result, so a regression that silently breaks the gate (or new
unbaselined residue state) fails ctest, not just CI.

Run from the repo root:  python3 tests/speccheck/run_fixtures.py
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
FIXTURES = os.path.join("tests", "speccheck", "fixtures")
EMPTY_BASELINE = os.path.join(FIXTURES, "empty_baseline.json")


def run_speccheck(*extra: str):
    cmd = [
        sys.executable, "scripts/speccheck",
        "--frontend", "builtin", "--no-cache", *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=REPO, capture_output=True, text=True, check=False
    )
    return proc.returncode, proc.stdout + proc.stderr


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

    code, out = run_speccheck("--selftest")
    check("frontend selftests pass", code == 0, out)

    code, out = run_speccheck()
    check("real src/ tree is clean", code == 0, out)

    print(
        f"speccheck fixtures: "
        f"{'FAILED' if FAILURES else 'all passed'}"
    )
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

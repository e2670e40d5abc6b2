#!/usr/bin/env python3
"""Check an attack x defense matrix artifact against the paper's claims.

Reads the matrix that bench/matrix_campaign and bench/victim_recovery
emit (schema unxpec-matrix-v1). One file: validate the schema and check
the --assert-auc / --assert-cell claims. Two files: also diff every AUC
cell of the second (fresh) file against the first (golden) one within
--auc-tolerance; drift is warn-only unless --strict. Assertion failures
are always fatal — they encode the paper's leakage taxonomy, not runner
noise. --assert-cell is the generalized form, a hard bound on any
numeric cell field (e.g. the victim matrix's recovered_bits_per_sec); a
null/absent field fails the assertion, and so does a cell the matrix
lacks. Cells whose auc is null (every trial censored) are accepted by
the loader and skipped by the drift diff.

  $ python3 scripts/check_bench.py matrix.json \\
        --assert-auc 'unsafe/unxpec>=0.95' --assert-auc 'safespec/unxpec<=0.6'
  $ python3 scripts/check_bench.py victim.json \\
        --assert-cell 'unsafe/victim-aes.recovered_bits_per_sec>=1'
  $ python3 scripts/check_bench.py tests/golden/matrix_seed.json \\
        matrix-nightly.json --auc-tolerance 0.05 --strict

Simulator performance is measured by benchmark/run.sh and compared by
benchmark/compare.py, not here.
"""

import argparse
import json
import re
import sys


ASSERT_RE = re.compile(r"^([\w-]+)/([\w-]+)(<=|>=)([0-9.]+)$")
CELL_ASSERT_RE = re.compile(
    r"^([\w-]+)/([\w-]+)\.(\w+)(<=|>=)([0-9.eE+-]+)$")


def load_matrix(path, parser):
    """{(defense, receiver): cell} from an unxpec-matrix-v1 artifact."""
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != "unxpec-matrix-v1":
        parser.error(f"{path}: schema is {data.get('schema')!r}, "
                     "expected 'unxpec-matrix-v1'")
    cells = {}
    for cell in data.get("cells", []):
        for field in ("defense", "receiver", "auc"):
            if field not in cell:
                parser.error(f"{path}: cell missing '{field}': {cell}")
        auc = cell["auc"]
        # null = an incomplete cell (every trial censored or missing);
        # the cell is kept so assertions against it fail loudly rather
        # than reading as "not in the matrix".
        if auc is not None and (not isinstance(auc, (int, float))
                                or not 0.0 <= auc <= 1.0):
            parser.error(f"{path}: {cell['defense']}/{cell['receiver']} "
                         f"has AUC {auc!r} outside [0, 1]")
        cells[(cell["defense"], cell["receiver"])] = cell
    if not cells:
        parser.error(f"{path}: no matrix cells")
    return cells


def parse_assertions(specs, parser):
    """--assert-auc list -> [(defense, receiver, field, op, bound)]."""
    assertions = []
    for spec in specs:
        match = ASSERT_RE.match(spec)
        if not match:
            parser.error("--assert-auc expects DEFENSE/RECEIVER<=V or "
                         f">=V, got '{spec}'")
        defense, receiver, op, bound = match.groups()
        assertions.append((defense, receiver, "auc", op, float(bound)))
    return assertions


def parse_cell_assertions(specs, parser):
    """--assert-cell list -> [(defense, receiver, field, op, bound)].

    The generalized form: any numeric cell field, e.g.
    'unsafe/victim-aes.recovered_bits_per_sec>=1'.
    """
    assertions = []
    for spec in specs:
        match = CELL_ASSERT_RE.match(spec)
        if not match:
            parser.error("--assert-cell expects DEF/RECV.FIELD<=V or "
                         f">=V, got '{spec}'")
        defense, receiver, field, op, bound = match.groups()
        assertions.append((defense, receiver, field, op, float(bound)))
    return assertions


def run_matrix(args, parser):
    cells = load_matrix(args.matrix, parser)
    fresh = load_matrix(args.fresh, parser) if args.fresh else None
    failures = 0
    warnings = 0

    # Assertions apply to the freshest file on the command line.
    target = fresh if fresh is not None else cells
    assertions = (parse_assertions(args.assert_auc, parser)
                  + parse_cell_assertions(args.assert_cell, parser))
    for defense, receiver, field, op, bound in assertions:
        cell = target.get((defense, receiver))
        if cell is None:
            print(f"FAIL {defense}/{receiver}: cell not in the matrix")
            failures += 1
            continue
        value = cell.get(field)
        if not isinstance(value, (int, float)):
            # Absent field or a null from an incomplete (censored) cell.
            print(f"FAIL {defense}/{receiver}: {field} is "
                  f"{value!r}, cannot check {op} {bound:g}")
            failures += 1
            continue
        value = float(value)
        ok = value <= bound if op == "<=" else value >= bound
        print(f"{'  ok' if ok else 'FAIL'} {defense}/{receiver}: "
              f"{field} {value:.4g} {op} {bound:g}")
        failures += not ok

    if fresh is not None:
        for key in sorted(set(cells) | set(fresh)):
            defense, receiver = key
            if key not in fresh:
                print(f"WARN {defense}/{receiver}: in the golden matrix "
                      "but not in the fresh run")
                warnings += 1
                continue
            if key not in cells:
                print(f"NOTE {defense}/{receiver}: new cell, no golden "
                      "value yet")
                continue
            if cells[key]["auc"] is None or fresh[key]["auc"] is None:
                print(f"NOTE {defense}/{receiver}: incomplete cell "
                      "(null auc), drift not compared")
                continue
            base = float(cells[key]["auc"])
            auc = float(fresh[key]["auc"])
            drift = abs(auc - base)
            moved = drift > args.auc_tolerance
            print(f"{'WARN' if moved else '  ok'} {defense}/{receiver}: "
                  f"auc {base:.4g} -> {auc:.4g} (|d| {drift:.3g})")
            warnings += moved

    if failures:
        print(f"{failures} assertion failure(s) — the leakage taxonomy "
              "changed")
        return 1
    if warnings:
        print(f"{warnings} warning(s); AUC tolerance "
              f"{args.auc_tolerance:g}"
              + ("" if args.strict else " (warn-only, exiting 0)"))
        return 1 if args.strict else 0
    print("matrix OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Check unxpec-matrix-v1 artifacts against AUC claims")
    parser.add_argument("matrix", help="the matrix artifact (the golden "
                                       "one when FRESH is given)")
    parser.add_argument("fresh", nargs="?", default=None,
                        help="a fresh matrix to diff against MATRIX and "
                             "to check the assertions on")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any AUC drift warning fired")
    parser.add_argument("--assert-auc", action="append", default=[],
                        metavar="DEF/RECV<=V",
                        help="hard AUC bound, e.g. 'unsafe/unxpec>=0.95' "
                             "(repeatable, failures are fatal)")
    parser.add_argument("--assert-cell", action="append", default=[],
                        metavar="DEF/RECV.FIELD<=V",
                        help="hard bound on any numeric cell field, e.g. "
                             "'unsafe/victim-aes.recovered_bits_per_sec>=1' "
                             "(repeatable, failures are fatal)")
    parser.add_argument("--auc-tolerance", type=float, default=0.05,
                        help="allowed absolute AUC drift between golden "
                             "and fresh (default 0.05)")
    return run_matrix(parser.parse_args(), parser)


if __name__ == "__main__":
    sys.exit(main())

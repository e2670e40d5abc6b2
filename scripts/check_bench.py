#!/usr/bin/env python3
"""Compare a fresh kernel-benchmark run against the tracked baseline.

Reads two google-benchmark JSON files (the --benchmark_out format that
scripts/bench_kernel.sh emits) and reports, per benchmark, the change in
its throughput counters (sim_cycles_per_sec, trials_per_sec, ...) or, if
it has none, its real_time. Throughput counters are bigger-is-better;
times are smaller-is-better.

Warn-only by default: CI runners are shared and noisy, so a regression
beyond the tolerance prints a WARN line but still exits 0 — treat the
output as a trend. Pass --strict to turn warnings into a non-zero exit
(for a quiet dedicated box). --per-bench NAME=TOL overrides the global
tolerance for one benchmark (repeatable; NAME may be a prefix, longest
match wins; a NAME that matches no baseline benchmark is an error), so
the hot kernel can be held to a tight bound while the long-tail figures
keep a generous one.

  $ python3 scripts/check_bench.py BENCH_kernel.json fresh.json
  $ python3 scripts/check_bench.py --tolerance 0.10 --strict a.json b.json
  $ python3 scripts/check_bench.py --strict --per-bench BM_AttackRound=0.08 \\
        --per-bench BM_TrialThroughput=0.15 BENCH_kernel.json fresh.json

--matrix switches to the attack x defense matrix artifact that
bench/matrix_campaign emits (schema unxpec-matrix-v1). One file:
validate the schema and check --assert-auc claims. Two files: also
diff every AUC cell against the first (golden) file within
--auc-tolerance (warn-only unless --strict, same convention as the
benchmark mode). --assert-auc failures are always fatal — they encode
the paper's leakage taxonomy, not runner noise. --assert-cell is the
generalized form, a hard bound on any numeric cell field (e.g. the
victim matrix's recovered_bits_per_sec); a null/absent field fails the
assertion. Cells whose auc is null (every trial censored) are accepted
by the loader and skipped by the drift diff.

  $ python3 scripts/check_bench.py --matrix matrix.json \\
        --assert-auc 'unsafe/unxpec>=0.95' --assert-auc 'safespec/unxpec<=0.6'
  $ python3 scripts/check_bench.py --matrix victim.json \\
        --assert-cell 'unsafe/victim-aes.recovered_bits_per_sec>=1'
  $ python3 scripts/check_bench.py --matrix tests/golden/matrix_seed.json \\
        matrix-nightly.json --auc-tolerance 0.05 --strict
"""

import argparse
import json
import re
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        out[bench["name"]] = bench
    return out


def measurements(bench):
    """(label, value, bigger_is_better) rows for one benchmark entry."""
    rows = []
    for key, value in sorted(bench.items()):
        if key.endswith("_per_sec") and isinstance(value, (int, float)):
            rows.append((key, float(value), True))
    if not rows and isinstance(bench.get("real_time"), (int, float)):
        unit = bench.get("time_unit", "ns")
        rows.append((f"real_time_{unit}", float(bench["real_time"]), False))
    return rows


def parse_overrides(specs, parser):
    """--per-bench NAME=TOL list -> {name_prefix: tolerance}."""
    overrides = {}
    for spec in specs:
        name, sep, tol = spec.partition("=")
        if not sep or not name:
            parser.error(f"--per-bench expects NAME=TOL, got '{spec}'")
        try:
            overrides[name] = float(tol)
        except ValueError:
            parser.error(f"--per-bench {name}: '{tol}' is not a number")
        if overrides[name] < 0:
            parser.error(f"--per-bench {name}: tolerance must be >= 0")
    return overrides


def tolerance_for(name, overrides, default):
    """Longest matching prefix override, else the global default.

    Prefix (not exact) matching because google-benchmark suffixes
    repetition/threads variants onto the registered name.
    """
    best_len = -1
    best = default
    for prefix, tol in overrides.items():
        if name.startswith(prefix) and len(prefix) > best_len:
            best_len = len(prefix)
            best = tol
    return best


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
    cells = load_matrix(args.baseline, parser)
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
        description="Compare kernel benchmark JSON against a baseline")
    parser.add_argument("baseline", help="tracked baseline (or, with "
                                         "--matrix, the matrix artifact)")
    parser.add_argument("fresh", nargs="?", default=None,
                        help="freshly measured JSON (optional with "
                             "--matrix)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative regression that triggers a warning "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any warning fired")
    parser.add_argument("--per-bench", action="append", default=[],
                        metavar="NAME=TOL",
                        help="per-benchmark tolerance override "
                             "(repeatable; NAME may be a prefix, e.g. "
                             "BM_AttackRound=0.08)")
    parser.add_argument("--matrix", action="store_true",
                        help="treat the inputs as unxpec-matrix-v1 "
                             "artifacts instead of google-benchmark JSON")
    parser.add_argument("--assert-auc", action="append", default=[],
                        metavar="DEF/RECV<=V",
                        help="matrix mode: hard AUC bound, e.g. "
                             "'unsafe/unxpec>=0.95' (repeatable, "
                             "failures are fatal)")
    parser.add_argument("--assert-cell", action="append", default=[],
                        metavar="DEF/RECV.FIELD<=V",
                        help="matrix mode: hard bound on any numeric "
                             "cell field, e.g. 'unsafe/victim-aes."
                             "recovered_bits_per_sec>=1' (repeatable, "
                             "failures are fatal)")
    parser.add_argument("--auc-tolerance", type=float, default=0.05,
                        help="matrix mode: allowed absolute AUC drift "
                             "between golden and fresh (default 0.05)")
    args = parser.parse_args()

    if args.matrix:
        return run_matrix(args, parser)
    if args.fresh is None:
        parser.error("benchmark mode needs both baseline and fresh files")
    if args.assert_auc or args.assert_cell:
        parser.error("--assert-auc/--assert-cell only apply with "
                     "--matrix")

    overrides = parse_overrides(args.per_bench, parser)
    baseline = load(args.baseline)
    fresh = load(args.fresh)
    # A gate whose prefix names no baseline benchmark guards nothing —
    # typically one left behind when its benchmark was deleted.
    for prefix in overrides:
        if not any(name.startswith(prefix) for name in baseline):
            parser.error(f"--per-bench {prefix}: no benchmark in "
                         f"{args.baseline} matches")
    warnings = 0

    for name in sorted(set(baseline) | set(fresh)):
        if name not in fresh:
            print(f"WARN {name}: in baseline but not in the fresh run")
            warnings += 1
            continue
        if name not in baseline:
            print(f"NOTE {name}: new benchmark, no baseline yet")
            continue
        tolerance = tolerance_for(name, overrides, args.tolerance)
        base_rows = dict((label, (value, better))
                         for label, value, better
                         in measurements(baseline[name]))
        for label, value, bigger_better in measurements(fresh[name]):
            if label not in base_rows:
                print(f"NOTE {name}.{label}: no baseline value")
                continue
            base, _ = base_rows[label]
            if base == 0:
                continue
            change = (value - base) / base
            regressed = (change < -tolerance if bigger_better
                         else change > tolerance)
            status = "WARN" if regressed else "  ok"
            bound = ("" if tolerance == args.tolerance
                     else f" [tol {tolerance:.0%}]")
            print(f"{status} {name}.{label}: "
                  f"{base:.3g} -> {value:.3g} ({change:+.1%}){bound}")
            warnings += regressed

    if warnings:
        print(f"{warnings} warning(s); tolerance {args.tolerance:.0%}"
              + ("" if args.strict else " (warn-only, exiting 0)"))
        return 1 if args.strict else 0
    print("all benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

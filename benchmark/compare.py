#!/usr/bin/env python3
"""Compare two benchmark summaries against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py BASE.json NEW.json

BASE and NEW are summaries written by `benchmark/run.sh --repeat N
--json PATH` (benchmark/baseline.json is the first capture). One row is
printed per workload, with every end-to-end metric marked

  regressed   NEW's median is worse than BASE's by more than the bound;
  unresolved  the spread (IQR / median) of BASE or NEW is wider than the
              bound, and not every NEW run reads better than every BASE
              run;
  unchanged   otherwise (this includes improvements).

Output digests and per-layer simulated counts must match exactly: a
change that only speeds the simulator up leaves them identical. The
exit status is 1 when a metric regressed or a digest or count differs.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "cycles")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def verdict(metric, base, new):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    b, n = base["median"], new["median"]
    worse = (n - b) / b if lower else (b - n) / b
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (base, new))
    if lower:
        all_better = max(new["values"]) < min(base["values"])
    else:
        all_better = min(new["values"]) > max(base["values"])
    change = (n - b) / b
    if spread > bound and not all_better:
        return f"{change:+.1%} unresolved", False
    if worse > bound:
        return f"{change:+.1%} regressed", True
    return f"{change:+.1%} unchanged", False


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load(ROOT / "BENCHMARK.json")
    base, new = load(argv[1]), load(argv[2])
    failed = False
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            print(f"{workload}: missing from {argv[2]}")
            failed = True
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            text, bad = verdict(metric, b["end_to_end"][name],
                                n["end_to_end"][name])
            cells.append(f"{name} {text}")
            failed |= bad
        if b["digest"] != n["digest"]:
            cells.append(f"digest {b['digest']} -> {n['digest']}")
            failed = True
        for name, m in b["per_layer"].items():
            if m["unit"] in EXACT_UNITS and \
                    n["per_layer"][name]["value"] != m["value"]:
                cells.append(f"{name} {m['value']:g} -> "
                             f"{n['per_layer'][name]['value']:g}")
                failed = True
        print(f"{workload}: " + "; ".join(cells))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Run the unxpec simulator benchmark (build first with benchmark/run.sh).

One measured run of one workload:

    run.py --workload W --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics. It first runs one traced
warm-up round (its exact instruction count feeds sim_minsts_per_s and
its digest must match the untraced rounds), then times SETUP_REPEATS
cold set-ups, then runs untraced rounds until S seconds have passed.
--trace 1 measures the per-layer metrics: an untraced warm-up round,
the kernels pass, then traced and untraced rounds in pairs until S
seconds have passed (the untraced ones give the tracing overhead).

Every round is a fresh unxpec_bench process running the workload's
fixed job list once on a closed loop of 3 worker threads. The last line
of standard output is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json. The exit status is 1 when any
output check failed.

Without --workload, every workload is run --repeat times with --trace 0
and once with --trace 1, and the medians and quartiles are printed and
written to --json (input for benchmark/compare.py). --smoke runs every
workload once untraced and once traced at a tiny scale, plus the
kernels pass, and only checks outputs.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BENCH_BIN = BUILD / "unxpec_bench"
OUT = BUILD / "out"

SETUP_REPEATS = 11
ROUND_TIMEOUT_S = 120
MIN_SPAN_COVERAGE = 0.95
# Units of per-layer metrics that are simulated counts: they must
# repeat exactly from round to round.
EXACT_UNITS = ("count", "cycles")
SMOKE_REPS = {"channel": 4, "channel-4core": 4, "zoo": 1, "victims": 1}


class BenchError(Exception):
    """The benchmark itself could not run (not an output-check failure)."""


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


SPEC = load_json(ROOT / "BENCHMARK.json")
DIGESTS = load_json(ROOT / "benchmark" / "digests.json")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"]
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def bench(*args):
    """Run unxpec_bench once; return its JSON line."""
    if not BENCH_BIN.exists():
        raise BenchError(f"{BENCH_BIN} is missing: run benchmark/run.sh")
    try:
        proc = subprocess.run([str(BENCH_BIN), *args], capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"unxpec_bench {' '.join(args)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        raise BenchError(f"unxpec_bench {' '.join(args)} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(lines[-1])


def run_round(workload, seed, traced, reps=None):
    out = OUT / workload / ("traced" if traced else "untraced")
    out.mkdir(parents=True, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--out", str(out)]
    if reps is not None:
        args += ["--reps", str(reps)]
    if traced:
        args.append("--traced")
    return bench(*args)


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Checks:
    """Output checks over every round of one run, plus trial accounting.

    All rounds of a run simulate the same inputs, so their digests must
    agree; at the recorded seed and scale they must also equal the
    digest in benchmark/digests.json. Traced rounds must also have spans
    covering MIN_SPAN_COVERAGE of trial time.
    """

    def __init__(self, workload, seed, reps):
        self.workload = workload
        self.problems = []
        self.attempted = 0
        self.failed = 0
        recorded = DIGESTS["digests"][workload]
        self.reference = None
        self.reference_from = "the first round"
        if seed == DIGESTS["seed"] and reps in (None, recorded["reps"]):
            self.reference = recorded["digest"]
            self.reference_from = "benchmark/digests.json"

    def add(self, result, label, measured=True):
        problems = list(result["check_failures"])
        if result["completed"] != result["attempted"]:
            problems.append(f"{result['attempted'] - result['completed']}"
                            " trials censored or missing")
        coverage = result.get("layers", {}).get("bench.span_coverage", 1.0)
        if coverage < MIN_SPAN_COVERAGE:
            problems.append(f"spans cover only {coverage:.3f} of trial time")
        digest = result["output_digest"]
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"output digest {digest} differs from "
                            f"{self.reference} ({self.reference_from})")
        self.problems += [f"{self.workload} {label}: {p}" for p in problems]
        if measured:
            self.attempted += result["attempted"]
            self.failed += (result["attempted"] if problems
                            else result["attempted"] - result["completed"])
        return result


def end_to_end(workload, seed, seconds, reps=None):
    checks = Checks(workload, seed, reps)
    warm = checks.add(run_round(workload, seed, True, reps), "warm-up",
                      measured=False)
    insts = warm["layers"]["cpu.committed_insts"]
    setups = [bench("--setup", "--workload", workload,
                    "--seed", str(seed))["setup_s"]
              for _ in range(SETUP_REPEATS)]
    rounds = []
    deadline = time.monotonic() + seconds
    while not rounds or time.monotonic() < deadline:
        rounds.append(checks.add(run_round(workload, seed, False, reps),
                                 f"round {len(rounds) + 1}"))
    trial_ms = [t for r in rounds for t in r["trial_ms"]]
    median = statistics.median
    metrics = {
        "trials_per_s": median(r["completed"] / r["run_all_s"]
                               for r in rounds),
        "sim_minsts_per_s": median(insts / r["run_all_s"] / 1e6
                                   for r in rounds),
        "trial_ms_mean": median(statistics.fmean(r["trial_ms"])
                                for r in rounds),
        "trial_ms_p95": percentile(trial_ms, 95),
        "wall_s": median(r["wall_s"] for r in rounds),
        "setup_s": median(setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
    }
    notes = {"rounds": len(rounds), "trials": len(trial_ms),
             "digest": warm["output_digest"]}
    if "paper_err_cycles" in warm:
        notes["paper_err_cycles"] = warm["paper_err_cycles"]
    return checks, metrics, notes


def per_layer(workload, seed, seconds, reps=None):
    checks = Checks(workload, seed, reps)
    checks.add(run_round(workload, seed, False, reps), "warm-up",
               measured=False)
    kernels = bench("--kernels", "--seed", str(seed))
    traced, untraced = [], []
    deadline = time.monotonic() + seconds
    while True:
        n = len(traced) + 1
        traced.append(checks.add(run_round(workload, seed, True, reps),
                                 f"traced round {n}"))
        untraced.append(checks.add(run_round(workload, seed, False, reps),
                                   f"untraced round {n}"))
        if time.monotonic() >= deadline:
            break

    layers = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if UNITS.get(name) in EXACT_UNITS and len(set(values)) > 1:
            checks.problems.append(f"{workload}: {name} differs between "
                                   f"traced rounds: {values}")
        layers[name] = statistics.median(values)
    layers.update(kernels)
    layers["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(r["run_all_s"] for r in traced)
        / statistics.median(r["run_all_s"] for r in untraced) - 1.0)
    return checks, layers, {"rounds": len(traced)}


def select(values, names):
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchError(f"no value for metric(s) {', '.join(missing)}")
    return {n: values[n] for n in names}


def one_run(args):
    if args.trace == 0:
        checks, values, notes = end_to_end(args.workload, args.seed,
                                           args.seconds)
        names = [m["name"] for m in SPEC["end_to_end"]]
    else:
        checks, values, notes = per_layer(args.workload, args.seed,
                                          args.seconds)
        names = [m["name"] for m in SPEC["per_layer"]]
    metrics = select(values, names)
    for name, value in metrics.items():
        print(f"{name:34} {value:>16.6g} {UNITS[name]}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not checks.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]}
                    for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def all_workloads(args):
    summary = {"seed": args.seed, "seconds": args.seconds,
               "repeat": args.repeat, "workloads": {}}
    problems = []
    for workload in WORKLOADS:
        runs = []
        for _ in range(args.repeat):
            checks, values, notes = end_to_end(workload, args.seed,
                                               args.seconds)
            problems += checks.problems
            runs.append((values, notes))
        checks, layers, _ = per_layer(workload, args.seed, args.seconds)
        problems += checks.problems
        e2e = {}
        for m in SPEC["end_to_end"]:
            values = [v[m["name"]] for v, _ in runs]
            q1, q3 = quartiles(values)
            e2e[m["name"]] = {"unit": m["unit"], "values": values,
                              "median": statistics.median(values),
                              "q1": q1, "q3": q3}
        notes = runs[0][1]
        summary["workloads"][workload] = {
            "digest": notes["digest"],
            "paper_err_cycles": notes.get("paper_err_cycles"),
            "trials_per_run": [n["trials"] for _, n in runs],
            "end_to_end": e2e,
            "per_layer": {m["name"]: {"unit": m["unit"],
                                      "value": layers[m["name"]]}
                          for m in SPEC["per_layer"]},
        }
        print_workload(workload, summary["workloads"][workload], args)
    summary["correct"] = not problems
    Path(args.json).parent.mkdir(parents=True, exist_ok=True)
    with open(args.json, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    print(f"summary written to {args.json}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 0 if not problems else 1


def print_workload(workload, result, args):
    print(f"\n== {workload}: seed {args.seed}, {args.repeat} run(s) of "
          f"{args.seconds} s, trials per run {result['trials_per_run']}, "
          f"digest {result['digest']} ==")
    if result["paper_err_cycles"] is not None:
        print(f"paper_err_cycles {result['paper_err_cycles']:.4g} cycles "
              "(mean |delta_cycles - paper Fig. 3| over loads 1..8)")
    print(f"{'end-to-end metric':34} {'median':>12} {'q1':>12} {'q3':>12}"
          "  unit")
    for name, m in result["end_to_end"].items():
        print(f"{name:34} {m['median']:12.5g} {m['q1']:12.5g} "
              f"{m['q3']:12.5g}  {m['unit']}")
    print(f"{'per-layer metric (traced run)':34} {'value':>12}  unit")
    for name, m in result["per_layer"].items():
        print(f"{name:34} {m['value']:12.5g}  {m['unit']}")


def smoke(args):
    problems = []
    for workload in WORKLOADS:
        reps = SMOKE_REPS[workload]
        checks = Checks(workload, args.seed, reps)
        start = time.monotonic()
        checks.add(run_round(workload, args.seed, False, reps), "untraced")
        checks.add(run_round(workload, args.seed, True, reps), "traced")
        problems += checks.problems
        print(f"{workload:14} {'ok' if not checks.problems else 'FAILED'}"
              f"  {checks.attempted} trials  "
              f"{time.monotonic() - start:.1f} s")
    kernels = bench("--kernels", "--seed", str(args.seed))
    print(f"{'kernels':14} ok  {len(kernels)} kernels")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one measured run of this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per workload without --workload")
    parser.add_argument("--json", default=str(BUILD / "summary.json"),
                        help="summary output without --workload")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.repeat < 1:
        parser.error("--seed must be >= 0, --seconds and --repeat >= 1")
    try:
        if args.smoke:
            return smoke(args)
        if args.workload:
            return one_run(args)
        return all_workloads(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

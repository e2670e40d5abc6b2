#!/usr/bin/env python3
"""End-to-end smoke checks of the experiment harness on fig03
artifacts (registered as the harness_smoke and trace_smoke ctests).

    check_fig03_smoke.py json FIG03_JSON FIG03_CSV
        fig03 --reps 2 result: experiment schema, eight complete rows
        of two trials each, a delta_cycles value for every trial, and
        a CSV with one line per row.
    check_fig03_smoke.py trace TRACE_JSON
        fig03 --reps 1 --trace file: parseable Chrome trace_event JSON
        with rollback spans of positive length (the secret=1 rounds,
        the paper's timing channel on the cleanup track) and one
        process per trial (8).
"""

from __future__ import annotations

import csv
import json
import sys


def check_json(result_path: str, csv_path: str) -> None:
    with open(result_path, encoding="utf-8") as f:
        result = json.load(f)
    assert result["schema"] == "unxpec-experiment-v2", result["schema"]
    assert result["experiment"] == "fig03_timing_difference"
    assert result["incomplete"] is False
    assert len(result["rows"]) == 8, len(result["rows"])
    for row in result["rows"]:
        assert row["trials"] == 2 and row["missing_trials"] == 0, row
        delta = row["metrics"]["delta_cycles"]
        assert delta["count"] == 2, delta
        assert all(v is not None for v in delta["values"])
    with open(csv_path, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8, len(rows)
    print(f"{result_path} OK: {len(result['rows'])} rows")


def check_trace(trace_path: str) -> None:
    with open(trace_path, encoding="utf-8") as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    rollbacks = [e for e in events
                 if e.get("name") == "rollback" and e.get("ph") == "X"]
    assert rollbacks, "no rollback spans in the trace"
    assert all(e["dur"] > 0 for e in rollbacks)
    pids = {e["pid"] for e in events}
    assert len(pids) == 8, f"expected 8 trial processes: {pids}"
    print(f"{trace_path} OK: {len(events)} events, "
          f"{len(rollbacks)} rollback spans, {len(pids)} trials")


def main(argv: list) -> int:
    if len(argv) == 4 and argv[1] == "json":
        check_json(argv[2], argv[3])
    elif len(argv) == 3 and argv[1] == "trace":
        check_trace(argv[2])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

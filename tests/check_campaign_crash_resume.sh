#!/usr/bin/env bash
# Fault tolerance of a journaled fig13 campaign, end to end: an
# uninterrupted reference run; a run that the crash injector aborts
# after its third journaled trial, which must die of SIGABRT (status
# 134) and leave a parseable manifest of at least those three trials;
# and a resume from that manifest, whose JSON must be byte-identical to
# the reference.
#
#   bash tests/check_campaign_crash_resume.sh FIG13_BINARY PYTHON3
#
# Runs in (and writes its files to) the current directory.
set -euo pipefail

fig13="$1"
python="$2"

rm -f fig13-ref.json fig13-final.json fig13.jsonl fig13.jsonl.tmp

"$fig13" --reps 4 --threads 2 --json fig13-ref.json > /dev/null

status=0
UNXPEC_CRASH_AFTER_TRIALS=3 \
"$fig13" --reps 4 --threads 2 --campaign fig13.jsonl \
    > /dev/null 2>&1 || status=$?
if [[ "$status" -ne 134 ]]; then
    echo "crash-injected campaign exited $status, expected 134" \
         "(SIGABRT)" >&2
    exit 1
fi
"$python" - <<'PY'
import json
with open("fig13.jsonl") as f:
    lines = [json.loads(line) for line in f if line.strip()]
header, entries = lines[0], lines[1:]
assert header["schema"] == "unxpec-campaign-v1", header
jobs = header["specs"] * header["reps"]
assert 3 <= len(entries) < jobs, (len(entries), jobs)
print(f"fig13.jsonl OK: {len(entries)} of {jobs} trials journaled")
PY

"$fig13" --reps 4 --threads 2 \
    --resume fig13.jsonl --json fig13-final.json > /dev/null
cmp fig13-ref.json fig13-final.json
echo "resumed campaign JSON is byte-identical to the reference"

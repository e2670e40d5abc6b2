#!/usr/bin/env bash
# Fault tolerance of a sharded fig13 campaign, end to end: an
# uninterrupted reference run; a sharded run whose workers the crash
# injector kills mid-range, which must exit 2 and write an artifact
# flagged incomplete with trials missing; and a resume from that run's
# journal, whose JSON must be byte-identical to the reference.
#
#   bash tests/check_campaign_crash_resume.sh FIG13_BINARY PYTHON3
#
# Runs in (and writes its files to) the current directory.
set -euo pipefail

fig13="$1"
python="$2"

rm -f fig13-ref.json fig13-crash.json fig13-final.json fig13.jsonl

"$fig13" --reps 4 --threads 2 --json fig13-ref.json > /dev/null

status=0
UNXPEC_CRASH_AFTER_TRIALS=3 \
"$fig13" --reps 4 --threads 2 \
    --shards 2 --retries 0 --campaign fig13.jsonl \
    --json fig13-crash.json > /dev/null || status=$?
if [[ "$status" -ne 2 ]]; then
    echo "crash-injected campaign exited $status, expected 2" \
         "(incomplete artifact)" >&2
    exit 1
fi
"$python" - <<'PY'
import json
with open("fig13-crash.json") as f:
    result = json.load(f)
assert result["incomplete"] is True
missing = sum(r["missing_trials"] for r in result["rows"])
assert missing > 0, "crash injection lost no trials?"
print(f"fig13-crash.json OK: incomplete, {missing} trials missing")
PY

"$fig13" --reps 4 --threads 2 \
    --resume fig13.jsonl --json fig13-final.json > /dev/null
cmp fig13-ref.json fig13-final.json
echo "resumed campaign JSON is byte-identical to the reference"

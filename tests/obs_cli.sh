#!/usr/bin/env bash
# End-to-end obs smoke test: train and classify with every obs output
# enabled, validate the artifacts with `segugio validate-obs`, and check
# that enabling observability does not change the classify output.
set -euo pipefail
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" simgen --out "$DIR" --days 2 --isp 0 --format binlog >/dev/null

"$CLI" train --input "$DIR/day0.bin" \
  --blacklist "$DIR/blacklist-day0.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" \
  --model "$DIR/model.txt" --trees 20 \
  --trace-out "$DIR/train-trace.json" --metrics-out "$DIR/train-metrics.prom" \
  --run-report "$DIR/train-report.json" >/dev/null
test -s "$DIR/train-trace.json"
test -s "$DIR/train-metrics.prom"
test -s "$DIR/train-report.json"

"$CLI" validate-obs --trace "$DIR/train-trace.json" \
  --run-report "$DIR/train-report.json" --metrics "$DIR/train-metrics.prom" \
  | grep -q "run report"

# The training run must have counted graph work into the metrics.
grep -q "seg_build_records_total" "$DIR/train-metrics.prom"
grep -q '"cli/train"' "$DIR/train-report.json"

# Classify twice: plain, and with every obs output. Scores must match
# byte-for-byte — observability never perturbs the pipeline.
CLASSIFY_ARGS=(--input "$DIR/day1.bin" --model "$DIR/model.txt"
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt"
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" --threshold 0.5)
"$CLI" classify "${CLASSIFY_ARGS[@]}" > "$DIR/plain.out"
"$CLI" classify "${CLASSIFY_ARGS[@]}" \
  --trace-out "$DIR/classify-trace.json" --metrics-out "$DIR/classify-metrics.prom" \
  --run-report "$DIR/classify-report.json" > "$DIR/observed.out"
cmp "$DIR/plain.out" "$DIR/observed.out"

"$CLI" validate-obs --trace "$DIR/classify-trace.json" \
  --run-report "$DIR/classify-report.json" --metrics "$DIR/classify-metrics.prom" >/dev/null
grep -q "seg_classify_rows_total" "$DIR/classify-metrics.prom"
grep -q '"pipeline/ingest_day"' "$DIR/classify-report.json"

# validate-obs rejects malformed artifacts.
echo '{"traceEvents": [{"ph": "X"}]}' > "$DIR/bad-trace.json"
if "$CLI" validate-obs --trace "$DIR/bad-trace.json" 2>/dev/null; then
  echo "expected failure on malformed trace" >&2
  exit 1
fi
echo '{}' > "$DIR/bad-report.json"
if "$CLI" validate-obs --run-report "$DIR/bad-report.json" 2>/dev/null; then
  echo "expected failure on malformed run report" >&2
  exit 1
fi

# seg::obs v2: a streamed two-day session with --journal writes one
# validator-clean obsjournal entry per day, is invisible in the classify
# output, and renders through `segugio status --journal`.
cat "$DIR/day0.bin" "$DIR/day1.bin" > "$DIR/stream.bin"
STREAM_ARGS=(--input "$DIR/stream.bin" --model "$DIR/model.txt"
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt"
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" --threshold 0.5)
"$CLI" classify "${STREAM_ARGS[@]}" > "$DIR/stream-plain.out" 2>/dev/null
"$CLI" classify "${STREAM_ARGS[@]}" --journal "$DIR/journal.jsonl" \
  --health-interval 50 > "$DIR/stream-journaled.out" 2>/dev/null
cmp "$DIR/stream-plain.out" "$DIR/stream-journaled.out"

head -n 1 "$DIR/journal.jsonl" | grep -q "segf1 obsjournal 1"
test "$(wc -l < "$DIR/journal.jsonl")" -eq 3  # header + one entry per day
"$CLI" validate-obs --journal "$DIR/journal.jsonl" | grep -q "journal"

"$CLI" status --journal "$DIR/journal.jsonl" > "$DIR/status.txt"
grep -q "day" "$DIR/status.txt"
grep -q "2 day(s)" "$DIR/status.txt"

# validate-obs rejects a truncated journal line.
{ head -n 1 "$DIR/journal.jsonl"; echo '{"day": 0'; } > "$DIR/bad-journal.jsonl"
if "$CLI" validate-obs --journal "$DIR/bad-journal.jsonl" 2>/dev/null; then
  echo "expected failure on malformed journal" >&2
  exit 1
fi

# A torn last line (a crash mid-append: cut off, no newline) fails
# validate-obs, but status still renders the complete days and names the
# torn line on stderr.
{ cat "$DIR/journal.jsonl"; printf '{"day":9,"counters":{"rec'; } > "$DIR/torn-journal.jsonl"
if "$CLI" validate-obs --journal "$DIR/torn-journal.jsonl" 2>/dev/null; then
  echo "expected failure on torn journal" >&2
  exit 1
fi
"$CLI" status --journal "$DIR/torn-journal.jsonl" > "$DIR/torn-status.txt" \
  2> "$DIR/torn-status.err"
grep -q "2 day(s)" "$DIR/torn-status.txt"
grep -q "line 4 is torn" "$DIR/torn-status.err"

echo "obs cli ok"

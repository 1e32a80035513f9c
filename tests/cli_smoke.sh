#!/usr/bin/env bash
# End-to-end smoke test of the segugio CLI: simgen -> train -> classify ->
# report -> inspect, exercising the trace formats (binlog, dnstap, format
# autodetection), the error paths, and the model round trip.
set -euo pipefail
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" simgen --out "$DIR" --days 2 --isp 0 --format binlog >/dev/null
test -f "$DIR/day0.bin"
test -f "$DIR/whitelist.txt"

# --input sniffs the SEGTRC1 magic; no --format needed.
"$CLI" train --input "$DIR/day0.bin" \
  --blacklist "$DIR/blacklist-day0.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" \
  --model "$DIR/model.txt" --trees 20 >/dev/null
test -s "$DIR/model.txt"

OUT="$("$CLI" classify --input "$DIR/day1.bin" --format binlog --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" --threshold 0.5)"
echo "$OUT" | grep -q "unknown domains scored"

"$CLI" report --input "$DIR/day1.bin" --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" --threshold 0.5 \
  | grep -q "remediation worklist"

"$CLI" inspect --model "$DIR/model.txt" | grep -q "random forest"

# Wire-format round trip: emit a dnstap capture and classify straight from
# it (autodetected from the frame-streams control escape).
"$CLI" simgen --out "$DIR" --days 2 --isp 0 --format dnstap >/dev/null
test -f "$DIR/day1.dnstap"
"$CLI" classify --input "$DIR/day1.dnstap" --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" --threshold 0.5 \
  | grep -q "unknown domains scored"

# The pre-streaming `--trace FILE` spelling is gone: it fails and names
# the option to use instead.
if "$CLI" classify --trace "$DIR/day1.bin" --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" --threshold 0.5 \
  2>"$DIR/old-spelling.txt" >/dev/null; then
  echo "expected failure on --trace" >&2
  exit 1
fi
grep -q "pass --input FILE" "$DIR/old-spelling.txt"

# Error paths return non-zero with a clear message.
if "$CLI" classify --input /nonexistent --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" 2>/dev/null; then
  echo "expected failure on missing trace" >&2
  exit 1
fi
if "$CLI" classify --input "$DIR/day1.bin" --format bogus --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" 2>/dev/null; then
  echo "expected failure on unknown --format" >&2
  exit 1
fi

# A history store with one malformed line is an error naming the file and
# the line: line 4 (the first line after the ip_malware section's header,
# or the next section's header) gains a day that is not an integer.
sed '4s/ / zz /' "$DIR/pdns.txt" > "$DIR/bad-pdns.txt"
if "$CLI" classify --input "$DIR/day1.bin" --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/bad-pdns.txt" \
  >/dev/null 2>"$DIR/bad-pdns-err.txt"; then
  echo "expected failure on a malformed --pdns file" >&2
  exit 1
fi
grep -q "'$DIR/bad-pdns.txt': PassiveDnsDb::load: .*line 4:" "$DIR/bad-pdns-err.txt"

# A model whose activity window the feature extractor would refuse fails
# to load, naming the file and the field, before anything is prepared.
sed 's/^activity_window .*/activity_window -3/' "$DIR/model.txt" > "$DIR/bad-model.txt"
if "$CLI" inspect --model "$DIR/bad-model.txt" >/dev/null 2>"$DIR/bad-model-err.txt"; then
  echo "expected failure on a model with activity_window -3" >&2
  exit 1
fi
grep -q "'$DIR/bad-model.txt': Segugio::load: activity_window" "$DIR/bad-model-err.txt"

# A write that fails is an error naming the file, never a silent success.
# /dev/full opens for writing and fails every write; it is a device node,
# so nothing here renames over it.
if [ -e /dev/full ]; then
  if "$CLI" train --input "$DIR/day0.bin" \
    --blacklist "$DIR/blacklist-day0.txt" --whitelist "$DIR/whitelist.txt" \
    --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" \
    --model /dev/full --trees 20 >"$DIR/full-out.txt" 2>"$DIR/full-err.txt"; then
    echo "expected failure on --model /dev/full" >&2
    exit 1
  fi
  grep -q "cannot write '/dev/full'" "$DIR/full-err.txt"
  if grep -q "model written" "$DIR/full-out.txt"; then
    echo "--model /dev/full reported a written model" >&2
    exit 1
  fi
  for option in --journal --trace-out --metrics-out --run-report; do
    if "$CLI" classify --input "$DIR/day1.bin" --model "$DIR/model.txt" \
      --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
      --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" \
      "$option" /dev/full >/dev/null 2>"$DIR/full-err.txt"; then
      echo "expected failure on $option /dev/full" >&2
      exit 1
    fi
    grep -q "cannot write '/dev/full'" "$DIR/full-err.txt"
  done
fi

echo "cli smoke ok"

#!/usr/bin/env bash
# End-to-end smoke test of the locpriv CLI: the complete designer
# workflow on a small synthetic dataset. Registered with ctest.
set -euo pipefail
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate --scenario taxi --users 6 --shift-hours 5 --seed 7 --out "$DIR/data.csv"
"$CLI" profile --data "$DIR/data.csv" > "$DIR/profile.txt"
grep -q "poi_count" "$DIR/profile.txt"

"$CLI" sweep --data "$DIR/data.csv" --points 13 --trials 1 --out "$DIR/sweep.json" > /dev/null
"$CLI" fit --sweep "$DIR/sweep.json" --out "$DIR/model.json" > /dev/null
"$CLI" configure --model "$DIR/model.json" --privacy-max 0.5 > "$DIR/configure.txt"
grep -q "recommended epsilon" "$DIR/configure.txt"
EPS=$(sed -n 's/^recommended epsilon = //p' "$DIR/configure.txt")
# --threads spreads the --data measurement's trials; the result must not move.
for T in 1 4; do
  "$CLI" configure --model "$DIR/model.json" --privacy-max 0.5 --data "$DIR/data.csv" \
    --threads "$T" | grep "^measured on" > "$DIR/measured_$T.txt"
done
cmp "$DIR/measured_1.txt" "$DIR/measured_4.txt"

"$CLI" protect --data "$DIR/data.csv" --value "$EPS" --out "$DIR/protected.csv"
"$CLI" audit --actual "$DIR/data.csv" --protected "$DIR/protected.csv" > "$DIR/audit.txt"
grep -q "poi-retrieval" "$DIR/audit.txt"

"$CLI" clean --data "$DIR/data.csv" --out "$DIR/cleaned.csv" > "$DIR/clean.txt"
grep -q "kept" "$DIR/clean.txt"

"$CLI" report --sweep "$DIR/sweep.json" --model "$DIR/model.json" --privacy-max 0.5 --out "$DIR/report.md"
grep -q "## Fitted model" "$DIR/report.md"

"$CLI" serve-sim --data "$DIR/data.csv" --workers 2 --out "$DIR/telemetry.json" > "$DIR/serve.txt"
grep -q "events/sec" "$DIR/serve.txt"
grep -q "rejected_queue_full" "$DIR/telemetry.json"

# Format conversion: CSV -> binary -> CSV, each leg verified in-process.
"$CLI" convert --in "$DIR/data.csv" --out "$DIR/data.lpds" --check > "$DIR/convert.txt"
grep -q "round-trip exactly" "$DIR/convert.txt"
"$CLI" convert --in "$DIR/data.lpds" --out "$DIR/back.csv" --check > "$DIR/convert2.txt"
grep -q "round-trip within csv precision" "$DIR/convert2.txt"

# A corrupted binary dataset must make convert --check exit nonzero
# (checksum catches the flipped byte on reload).
cp "$DIR/data.lpds" "$DIR/corrupt.lpds"
SIZE=$(wc -c < "$DIR/corrupt.lpds")
printf '\xff' | dd of="$DIR/corrupt.lpds" bs=1 seek=$((SIZE - 1)) conv=notrunc 2>/dev/null
if "$CLI" convert --in "$DIR/corrupt.lpds" --out "$DIR/junk.csv" --check 2>/dev/null; then
  echo "corrupted dataset accepted"; exit 1
fi

# Real network front end over UDS: serve in the background, ping until
# the supervisor answers, check routed submits and telemetry, drain.
SOCK="$DIR/locpriv-cli.sock"
"$CLI" serve --listen "unix:$SOCK" --shards 2 --workers 1 --data "$DIR/data.lpds" \
  > "$DIR/serve_net.txt" 2>&1 &
SERVE_PID=$!
PING_OK=0
for _ in $(seq 1 50); do
  if "$CLI" ping --connect "unix:$SOCK" --user smoke --count 3 > "$DIR/ping.txt" 2>/dev/null; then
    PING_OK=1; break
  fi
  sleep 0.2
done
[ "$PING_OK" = 1 ] || { echo "serve never became pingable"; kill "$SERVE_PID"; exit 1; }
grep -q "2 shards via" "$DIR/ping.txt"
grep -q "3 reports answered, last status delivered" "$DIR/ping.txt"
"$CLI" ping --connect "unix:$SOCK" --telemetry --count 0 > "$DIR/ping_telemetry.txt"
grep -q "resident_set_kb_per_shard" "$DIR/ping_telemetry.txt"
"$CLI" ping --connect "unix:$SOCK" --drain > "$DIR/ping_drain.txt"
grep -q "drained" "$DIR/ping_drain.txt"
wait "$SERVE_PID"
grep -q "drained, bye" "$DIR/serve_net.txt"

# Error paths: unknown command and unknown option must fail loudly.
if "$CLI" frobnicate 2>/dev/null; then echo "unknown command accepted"; exit 1; fi
if "$CLI" generate --nope 1 --out /dev/null 2>/dev/null; then echo "unknown option accepted"; exit 1; fi
# A value for a mechanism with no tunable parameter is a usage error, not a crash.
STATUS=0
"$CLI" protect --data "$DIR/data.csv" --mechanism noop --value 0.1 --out "$DIR/noop.csv" \
  2> "$DIR/protect_noop.txt" || STATUS=$?
[ "$STATUS" = 1 ] || { echo "protect --mechanism noop --value exited $STATUS"; exit 1; }
grep -q "has no tunable parameter" "$DIR/protect_noop.txt"
# A negative count is rejected by name, not wrapped to a huge unsigned value.
STATUS=0
"$CLI" serve-sim --data "$DIR/data.csv" --workers -1 2> "$DIR/negative.txt" > /dev/null || STATUS=$?
[ "$STATUS" = 1 ] || { echo "serve-sim --workers -1 exited $STATUS"; exit 1; }
grep -q "option --workers: '-1' is negative" "$DIR/negative.txt"
# A negative idle timeout is rejected, not read as "idle eviction off".
STATUS=0
"$CLI" serve-sim --data "$DIR/data.csv" --idle-timeout -5 2> "$DIR/negative_idle.txt" \
  > /dev/null || STATUS=$?
[ "$STATUS" = 1 ] || { echo "serve-sim --idle-timeout -5 exited $STATUS"; exit 1; }
grep -q "option --idle-timeout: '-5' is negative" "$DIR/negative_idle.txt"
# A budget window no session can be built with fails at start-up, not
# in each shard on its first report, and the supervisor names how the
# shard ended.
STATUS=0
timeout 30 "$CLI" serve --listen "unix:$DIR/bad-window.sock" --shards 2 --window 0 \
  > /dev/null 2> "$DIR/bad_window.txt" || STATUS=$?
[ "$STATUS" = 1 ] || { echo "serve --window 0 exited $STATUS"; exit 1; }
grep -q "budget_window_s must be > 0" "$DIR/bad_window.txt"
grep -q "died before ready: exited with status 1" "$DIR/bad_window.txt"

echo "cli workflow OK"

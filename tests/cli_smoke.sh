#!/bin/sh
# End-to-end smoke test of the xnfv CLI: generate -> train -> evaluate ->
# explain -> global, plus error handling for bad inputs.
set -e
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate --samples 400 --out "$DIR/data.csv" --seed 3
test -s "$DIR/data.csv"

"$CLI" train --data "$DIR/data.csv" --model tree --out "$DIR/model.xnfv"
test -s "$DIR/model.xnfv"

"$CLI" evaluate --model "$DIR/model.xnfv" --data "$DIR/data.csv" | grep -q auc

"$CLI" explain --model "$DIR/model.xnfv" --data "$DIR/data.csv" --row 1 | grep -q "incident report"

"$CLI" global --model "$DIR/model.xnfv" --data "$DIR/data.csv" --rows 20 | grep -q "global attribution"

# Regression-labelled flow.
"$CLI" generate --samples 300 --out "$DIR/lat.csv" --label latency --seed 4
"$CLI" train --data "$DIR/lat.csv" --model linear --task reg --out "$DIR/lat.xnfv"
"$CLI" evaluate --model "$DIR/lat.xnfv" --data "$DIR/lat.csv" --task reg | grep -q rmse

# Serving mode: ND-JSON in, ND-JSON out, repeats hit the cache, and the
# served attributions line is identical when re-served (determinism).
printf '%s\n' \
  '{"op":"explain","row":1}' \
  '{"op":"explain","row":1}' \
  '{"op":"stats"}' \
  '{"op":"quit"}' \
  | "$CLI" serve --model "$DIR/model.xnfv" --data "$DIR/data.csv" > "$DIR/serve1.out"
test "$(wc -l < "$DIR/serve1.out")" -eq 3
grep -q '"attributions"' "$DIR/serve1.out"
grep -q '"cache_hit":true' "$DIR/serve1.out"
grep -q '"op":"stats"' "$DIR/serve1.out"
printf '{"op":"explain","row":1}\n' \
  | "$CLI" serve --model "$DIR/model.xnfv" --data "$DIR/data.csv" > "$DIR/serve2.out"
head -n 1 "$DIR/serve1.out" | cmp -s - "$DIR/serve2.out"

# Malformed ND-JSON must get structured error lines, and the service must
# survive them and keep answering valid requests on the same connection.
NFEAT=$(head -n 1 "$DIR/data.csv" | awk -F',' '{print NF-1}')
BADFEATS=$(awk -v n="$NFEAT" 'BEGIN{for(i=1;i<=n;i++)printf "%s%s",(i>1?",":""),(i==2?"1e999":"0.5")}')
printf '%s\n' \
  '{"op":"explain","row":1' \
  '{"op":"frobnicate"}' \
  '{"op":"explain","features":[1,2]}' \
  "{\"op\":\"explain\",\"features\":[$BADFEATS]}" \
  '{"op":"explain","row":2,"deadline_ms":0}' \
  '{"op":"explain","row":2}' \
  '{"op":"quit"}' \
  | "$CLI" serve --model "$DIR/model.xnfv" --data "$DIR/data.csv" > "$DIR/serve3.out"
test "$(wc -l < "$DIR/serve3.out")" -eq 6
test "$(grep -c '"error_code":"bad_request"' "$DIR/serve3.out")" -eq 3
grep -q '"error_code":"bad_features"' "$DIR/serve3.out"
grep -q '"error_code":"deadline_exceeded"' "$DIR/serve3.out"
tail -n 1 "$DIR/serve3.out" | grep -q '"attributions"'

# Crash-safe snapshot round-trip: a restarted service serves warm,
# byte-identical cache hits from the snapshot written at shutdown.
printf '{"op":"explain","row":1}\n{"op":"quit"}\n' \
  | "$CLI" serve --model "$DIR/model.xnfv" --data "$DIR/data.csv" \
      --snapshot "$DIR/snap.bin" > "$DIR/serve4.out"
test -s "$DIR/snap.bin"
printf '{"op":"explain","row":1}\n{"op":"quit"}\n' \
  | "$CLI" serve --model "$DIR/model.xnfv" --data "$DIR/data.csv" \
      --snapshot "$DIR/snap.bin" > "$DIR/serve5.out"
grep -q '"cache_hit":true' "$DIR/serve5.out"
sed 's/"cache_hit":[a-z]*/"cache_hit":_/' "$DIR/serve4.out" > "$DIR/serve4.norm"
sed 's/"cache_hit":[a-z]*/"cache_hit":_/' "$DIR/serve5.out" > "$DIR/serve5.norm"
cmp -s "$DIR/serve4.norm" "$DIR/serve5.norm"

# The stdin window: a producer far ahead of the service must not overrun the
# admission queue.  1000 misses (each line carries its own seed) read from a
# regular file are all answered ok, in order, with default ids 1..1000.
"$CLI" train --data "$DIR/data.csv" --model rf --out "$DIR/rf.xnfv"
i=0
while [ $i -lt 1000 ]; do
  echo "{\"op\":\"explain\",\"row\":$((i % 300)),\"method\":\"occlusion\",\"seed\":$((i + 1))}"
  i=$((i + 1))
done > "$DIR/window.in"
"$CLI" serve --model "$DIR/rf.xnfv" --data "$DIR/data.csv" --threads 2 \
    < "$DIR/window.in" > "$DIR/window.out"
python3 - "$DIR/window.out" <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert len(lines) == 1000, len(lines)
for want, line in enumerate(lines, 1):
    assert "queue_full" not in line, line
    r = json.loads(line)
    assert r["ok"] is True and r["id"] == want, line
EOF

# A restored snapshot entry keeps its interaction pairs: the restarted
# service answers the same "interactions" request as a hit with the same
# bytes as the first run (modulo cache_hit).
printf '{"op":"explain","row":3,"interactions":2}\n' \
  | "$CLI" serve --model "$DIR/rf.xnfv" --data "$DIR/data.csv" \
      --snapshot "$DIR/snap_h2.bin" > "$DIR/h2_1.out"
printf '{"op":"explain","row":3,"interactions":2}\n' \
  | "$CLI" serve --model "$DIR/rf.xnfv" --data "$DIR/data.csv" \
      --snapshot "$DIR/snap_h2.bin" > "$DIR/h2_2.out"
grep -q '"interactions":\[{"i":' "$DIR/h2_1.out"
grep -q '"cache_hit":true' "$DIR/h2_2.out"
sed 's/"cache_hit":[a-z]*/"cache_hit":_/' "$DIR/h2_1.out" > "$DIR/h2_1.norm"
sed 's/"cache_hit":[a-z]*/"cache_hit":_/' "$DIR/h2_2.out" > "$DIR/h2_2.norm"
cmp -s "$DIR/h2_1.norm" "$DIR/h2_2.norm"

# Serving over TCP: background `serve --listen 0`, probe it with netprobe,
# then SIGTERM for a graceful drain.  The TCP answer for the same request
# must be byte-identical to the stdin-served one (modulo cache_hit).
"$CLI" serve --model "$DIR/model.xnfv" --data "$DIR/data.csv" \
    --listen 0 > "$DIR/tcp.out" 2>&1 &
SRV=$!
PORT=""
i=0
while [ $i -lt 100 ]; do
  PORT=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$DIR/tcp.out" 2>/dev/null || true)
  [ -n "$PORT" ] && break
  i=$((i + 1))
  sleep 0.1
done
test -n "$PORT"
"$CLI" netprobe --port "$PORT" --row 1 --count 2 --stats > "$DIR/probe.out"
test "$(wc -l < "$DIR/probe.out")" -eq 3
grep -q '"cache_hit":true' "$DIR/probe.out"
grep -q '"net_requests"' "$DIR/probe.out"
head -n 1 "$DIR/probe.out" | sed 's/"cache_hit":[a-z]*/"cache_hit":_/' > "$DIR/probe.norm"
head -n 1 "$DIR/serve1.out" | sed 's/"cache_hit":[a-z]*/"cache_hit":_/' > "$DIR/stdin.norm"
cmp -s "$DIR/probe.norm" "$DIR/stdin.norm"
kill -TERM "$SRV"
wait "$SRV"
grep -q '^drained$' "$DIR/tcp.out"

# Sharded serving: the same probe against 2- and 4-shard servers must
# produce the same bytes as the stdin answer, and the graceful drain still
# works.
for SHARDS in 2 4; do
  "$CLI" serve --model "$DIR/model.xnfv" --data "$DIR/data.csv" \
      --listen 0 --shards "$SHARDS" > "$DIR/tcp$SHARDS.out" 2>&1 &
  SRV2=$!
  PORT2=""
  i=0
  while [ $i -lt 100 ]; do
    PORT2=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$DIR/tcp$SHARDS.out" 2>/dev/null || true)
    [ -n "$PORT2" ] && break
    i=$((i + 1))
    sleep 0.1
  done
  test -n "$PORT2"
  grep -q "^shards $SHARDS\$" "$DIR/tcp$SHARDS.out"
  "$CLI" netprobe --port "$PORT2" --row 1 --count 2 --stats > "$DIR/probe$SHARDS.out"
  test "$(wc -l < "$DIR/probe$SHARDS.out")" -eq 3
  grep -q "\"net_shards\":$SHARDS" "$DIR/probe$SHARDS.out"
  head -n 1 "$DIR/probe$SHARDS.out" | sed 's/"cache_hit":[a-z]*/"cache_hit":_/' \
      > "$DIR/probe$SHARDS.norm"
  cmp -s "$DIR/probe$SHARDS.norm" "$DIR/stdin.norm"
  kill -TERM "$SRV2"
  wait "$SRV2"
  grep -q '^drained$' "$DIR/tcp$SHARDS.out"
done

# Every line served so far, over stdin and TCP, is one JSON document.
python3 -c '
import json, sys
for path in sys.argv[1:]:
    for line in open(path):
        json.loads(line)
' "$DIR"/serve[1-5].out "$DIR"/probe.out "$DIR"/probe[24].out

# Chaos: with every socket fault armed (RST kills capped at 2), a retrying
# load run must answer every request exactly once, a plain probe must
# succeed once the kill budget is spent, and SIGTERM must still drain.
"$CLI" serve --model "$DIR/model.xnfv" --data "$DIR/data.csv" \
    --listen 0 --shards 2 \
    --net-fault-seed 7 \
    --net-fault-partial-write-rate 0.2 --net-fault-torn-read-rate 0.2 \
    --net-fault-eintr-rate 0.1 --net-fault-stall-rate 0.1 \
    --net-fault-rst-rate 0.05 --net-fault-max-rst 2 \
    > "$DIR/tcp3.out" 2>&1 &
SRV3=$!
PORT3=""
i=0
while [ $i -lt 100 ]; do
  PORT3=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$DIR/tcp3.out" 2>/dev/null || true)
  [ -n "$PORT3" ] && break
  i=$((i + 1))
  sleep 0.1
done
test -n "$PORT3"
"$CLI" loadgen --port "$PORT3" --conns 4 --requests 8 --rows 8 --window 2 \
    --max-retries 16 --response-timeout-ms 2000 --connect-timeout-ms 2000 \
    --backoff-ms 5 > "$DIR/loadgen.out"
grep -q '"answered":32' "$DIR/loadgen.out"
grep -q '"errors":0' "$DIR/loadgen.out"
# A probe fails while the RST budget lasts (it does not retry), so keep
# probing until one gets its stats line.
STATS=""
i=0
while [ $i -lt 50 ]; do
  if STATS=$("$CLI" netprobe --port "$PORT3" --stats --timeout-ms 3000 2>/dev/null); then
    break
  fi
  STATS=""
  i=$((i + 1))
  sleep 0.2
done
test -n "$STATS"
printf '%s\n' "$STATS" | tail -n 1 |
    python3 -c 'import json, sys; assert json.load(sys.stdin)["net_faults_injected"] > 0'
kill -TERM "$SRV3"
wait "$SRV3"
grep -q '^drained$' "$DIR/tcp3.out"

# Failure paths must fail loudly, not crash.
if "$CLI" train --data /nonexistent.csv --out "$DIR/x" 2>/dev/null; then exit 1; fi
if "$CLI" explain --model "$DIR/model.xnfv" --data "$DIR/data.csv" --row 99999 2>/dev/null; then exit 1; fi
if "$CLI" frobnicate 2>/dev/null; then exit 1; fi
# A manifest number its field cannot hold fails startup at its file:line.
printf '%s\n' "{\"name\":\"prod\",\"model\":\"$DIR/model.xnfv\",\"weight\":-1}" \
  > "$DIR/bad_models.ndjson"
if "$CLI" serve --models "$DIR/bad_models.ndjson" --data "$DIR/data.csv" \
    < /dev/null 2> "$DIR/bad_models.err"; then exit 1; fi
grep -q 'bad_models.ndjson:1: "weight" must be a whole number in range' "$DIR/bad_models.err"

echo "cli smoke ok"

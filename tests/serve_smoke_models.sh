#!/bin/sh
# Multi-model registry smoke over TCP: a two-model manifest serves both
# tenants over one socket (2 shards), a live swap republishes a tenant
# mid-serve via the admin op, the models op reports registry state, and
# SIGTERM still drains.  The swap reaches the second shard only through the
# sharded server's admin fan-out.
#
# Usage: serve_smoke_models.sh XNFV_CLI
set -e
CLI="$1"
DIR="$(mktemp -d)"
SRV=""
trap 'if [ -n "$SRV" ]; then kill "$SRV" 2>/dev/null || true; fi; rm -rf "$DIR"' EXIT

"$CLI" generate --samples 300 --out "$DIR/d.csv" --seed 3
"$CLI" train --data "$DIR/d.csv" --model tree --out "$DIR/m.xnfv"
"$CLI" train --data "$DIR/d.csv" --model rf --out "$DIR/m2.xnfv"
printf '%s\n' \
  "{\"name\":\"prod\",\"model\":\"$DIR/m.xnfv\",\"default\":true}" \
  "{\"name\":\"canary\",\"model\":\"$DIR/m2.xnfv\",\"weight\":2,\"quota\":64}" \
  > "$DIR/models.ndjson"
"$CLI" serve --models "$DIR/models.ndjson" --data "$DIR/d.csv" \
    --listen 0 --shards 2 > "$DIR/mm.out" 2>&1 &
SRV=$!
PORT=""
i=0
while [ $i -lt 100 ]; do
  PORT=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$DIR/mm.out" 2>/dev/null || true)
  [ -n "$PORT" ] && break
  i=$((i + 1))
  sleep 0.1
done
test -n "$PORT"

# Both tenants answer on one socket, and they disagree on the same row
# (different models behind one protocol).
"$CLI" netprobe --port "$PORT" --row 1 > "$DIR/mm_prod.out"
"$CLI" netprobe --port "$PORT" --row 1 --model-name canary > "$DIR/mm_canary.out"
python3 -c 'import json, sys; [json.loads(l) for l in open(sys.argv[1])]' "$DIR/mm_prod.out"
python3 -c 'import json, sys; [json.loads(l) for l in open(sys.argv[1])]' "$DIR/mm_canary.out"
grep -q '"ok":true' "$DIR/mm_prod.out"
grep -q '"ok":true' "$DIR/mm_canary.out"
if cmp -s "$DIR/mm_prod.out" "$DIR/mm_canary.out"; then exit 1; fi

# Unknown tenant: a structured error line, not a dropped connection.
"$CLI" netprobe --port "$PORT" --row 1 --model-name ghost \
    | grep -q '"error_code":"unknown_model"'

# Live swap: retrain the canary and republish it mid-serve; the admin
# fan-out must apply it to every shard.
"$CLI" train --data "$DIR/d.csv" --model rf --seed 9 --out "$DIR/m2b.xnfv"
"$CLI" netprobe --port "$PORT" \
    --line "{\"op\":\"swap\",\"name\":\"canary\",\"model\":\"$DIR/m2b.xnfv\"}" \
    | grep -q '"ok":true'
"$CLI" netprobe --port "$PORT" --line '{"op":"models"}' > "$DIR/mm_models.out"
grep -q '"name":"canary"' "$DIR/mm_models.out"
grep -q '"swaps":1' "$DIR/mm_models.out"
"$CLI" netprobe --port "$PORT" --row 1 --model-name canary | grep -q '"ok":true'

kill -TERM "$SRV"
wait "$SRV"
SRV=""
grep -q '^drained$' "$DIR/mm.out"
echo "serve smoke (models) ok"

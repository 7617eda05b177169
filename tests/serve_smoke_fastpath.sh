#!/bin/sh
# Fast-path routing smoke: "auto" must resolve to the flat TreeSHAP kernel
# on a GBT tenant and to analytic integrated gradients on an MLP tenant, the
# stats frame must report fast_path_hits with per-explainer slices, and
# forcing an incompatible exact explainer must produce a structured error
# line, not a crash.
#
# Usage: serve_smoke_fastpath.sh XNFV_CLI
set -e
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate --samples 300 --out "$DIR/d.csv" --seed 3
"$CLI" train --data "$DIR/d.csv" --model gbt --out "$DIR/gbt.xnfv"
"$CLI" train --data "$DIR/d.csv" --model mlp --out "$DIR/mlp.xnfv"
printf '%s\n' \
  "{\"name\":\"gbt\",\"model\":\"$DIR/gbt.xnfv\",\"default\":true}" \
  "{\"name\":\"mlp\",\"model\":\"$DIR/mlp.xnfv\"}" \
  > "$DIR/fp_models.ndjson"
printf '%s\n' \
  '{"op":"explain","row":1,"method":"auto"}' \
  '{"op":"explain","row":2,"method":"auto","model":"mlp"}' \
  '{"op":"explain","row":3,"method":"integrated_gradients"}' \
  '{"op":"stats"}' \
  | "$CLI" serve --models "$DIR/fp_models.ndjson" --data "$DIR/d.csv" > "$DIR/fp.out"
test "$(wc -l < "$DIR/fp.out")" -eq 4
python3 - "$DIR/fp.out" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert lines[0]["ok"] and lines[0]["method"] == "tree_shap", lines[0]
assert lines[1]["ok"] and lines[1]["method"] == "integrated_gradients", lines[1]
assert not lines[2]["ok"], lines[2]
assert lines[2]["error_code"] == "unsupported_explainer", lines[2]
stats = lines[3]
assert stats["fast_path_hits"] >= 2, stats
slices = {e["name"]: e for e in stats["explainers"]}
assert slices["tree_shap"]["fast_path_hits"] >= 1, stats
assert slices["integrated_gradients"]["fast_path_hits"] >= 1, stats
PY
echo "serve smoke (fast path) ok"

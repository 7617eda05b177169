#!/bin/sh
# Tier-1 gate on the fast-path explainer bench, which tests/CMakeLists.txt
# runs at XNFV_S5_EXPLAINS=8.  The bench's exit status enforces the >= 10x
# model-evaluation reduction of exact flat TreeSHAP and analytic IG over
# their sampling probes, and the flat kernel's bitwise match with the
# recursive walker.  The artifact must parse with both comparison rows plus
# the gate record.
#
# Usage: bench_s5_fastpath.sh BENCH_BINARY ARTIFACT_JSON
set -e
"$1" "$2"
python3 - "$2" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["benchmark"] == "fastpath_vs_probes", doc
paths = {r["path"] for r in doc["results"] if "path" in r}
assert paths == {"tree", "mlp"}, paths
gate = next(r for r in doc["results"] if r.get("gate") == "eval_reduction")
assert gate["tree"] >= gate["floor"] and gate["mlp"] >= gate["floor"], gate
PY

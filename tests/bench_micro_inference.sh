#!/bin/sh
# Tier-1 smoke of bench_micro's masked-probe inference section, which
# tests/CMakeLists.txt runs at toy sizes (2048 rows, 1200 samples, 40 trees,
# 60 rounds).  The section must run end to end and write a parseable
# artifact with every model family.  Speedups at these sizes are
# meaningless; the committed numbers come from the full-size run in
# DESIGN.md §11.
#
# Usage: bench_micro_inference.sh BENCH_MICRO_BINARY ARTIFACT_JSON
set -e
XNFV_BENCH_JSON="$2" "$1" --benchmark_filter=BM_TreePredict
python3 - "$2" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
names = [r["model"] for r in doc["results"]]
assert doc["benchmark"] == "masked_probe_inference", doc
assert {"tree", "forest", "gbt", "linear", "mlp"} <= set(names), names
for r in doc["results"]:
    assert r["blocked_rows_per_sec"] > 0 and r["scalar_rows_per_sec"] > 0, r
PY

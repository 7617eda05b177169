#!/bin/sh
# Tier-1 gate on the resilience bench, which tests/CMakeLists.txt runs at
# XNFV_RESIL_REQUESTS=60.  The bench's exit status enforces every class's
# clean completion and the per-class p99 latency-inflation gate.  The
# artifact must carry all six fault classes, and every class must complete
# its load cleanly.
#
# Usage: bench_s4_resilience.sh BENCH_BINARY ARTIFACT_JSON
set -e
"$1" "$2"
python3 - "$2" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["benchmark"] == "tcp_serving_resilience", doc
classes = {r["fault"] for r in doc["results"]}
assert {"none", "partial_write", "torn_read", "eintr_storm",
        "stalled_read", "rst_close"} <= classes, classes
for r in doc["results"]:
    assert r["clean"], r
PY

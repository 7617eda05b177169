#!/bin/sh
# Tier-1 gate on the resilience bench, which tests/CMakeLists.txt runs at
# XNFV_RESIL_REQUESTS=60.  The bench's exit status enforces the per-class
# latency-inflation and shard-death recovery-time gates.  The artifact must
# carry all seven fault classes, every class must complete its load cleanly,
# and the shard-death class must respawn exactly once with a measured
# recovery time.
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
        "stalled_read", "rst_close", "shard_death"} <= classes, classes
for r in doc["results"]:
    assert r["clean"], r
death = next(r for r in doc["results"] if r["fault"] == "shard_death")
assert death["respawns"] == 1 and death["recovery_ms"] > 0, death
PY

#!/bin/sh
# Tier-1 gate on the closed-loop scenario bench, which tests/CMakeLists.txt
# runs at toy size (400 samples, one deployment, two epochs, eight
# connections).  The bench's exit status enforces the rerun determinism gate
# on (trace_hash, responses_hash).  The artifact must hold all 9 phases
# (3 families x 3 phases) with no errors, and the determinism record must
# say the rerun reproduced.
#
# Usage: bench_s6_scenarios.sh BENCH_BINARY ARTIFACT_JSON
set -e
"$1" "$2"
python3 - "$2" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["benchmark"] == "s6_scenarios", doc
phases = [r for r in doc["results"] if "phase" in r]
assert len(phases) == 9, phases
assert all(r["errors"] == 0 for r in phases), phases
det = next(r for r in doc["results"] if r.get("check") == "determinism")
assert det["reproduced"], det
PY

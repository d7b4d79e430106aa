#!/usr/bin/env bash
# Fails when the query path goes back to paying per query for what it
# needs once per process.
#
# Runs a short traced pass of the repository benchmark's query_small
# workload and compares layers of the same run: verifying the lowered
# graph (which includes obtaining the dialect context) must cost less
# than linting it, and lowering (which includes obtaining the operator
# kernels) less than executing the query. With a context built and four
# kernels synthesized per query the two ratios read about 4.4 and 3.0;
# with the shared registry and shape-keyed kernels about 0.1 and 0.2.
# Both are ratios of timings on the same host, so the gate holds on a
# slow or noisy runner where absolute times would not.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload query_small --trace 1 --quick --seconds 3 | tail -n 1 |
    python3 -c '
import json, sys

result = json.loads(sys.stdin.read())
if not result["correct"] or result["failed"]:
    sys.exit("FAIL query_small: %d operations failed" % result["failed"])
over = False
for small, large in (
    ("ir.verify_s", "analysis.run_s"),
    ("query.lower.lower_s", "query.exec.execute_s"),
):
    a, b = (result["metrics"][name]["value"] for name in (small, large))
    verdict = "ok" if 0.0 < a < b else "FAIL"
    over |= verdict == "FAIL"
    print("%s %s = %.5f s, %s = %.5f s" % (verdict, small, a, large, b))
sys.exit(1 if over else 0)
'

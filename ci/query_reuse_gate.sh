#!/usr/bin/env bash
# Fails when the query path goes back to paying per query for what it
# needs once per process, or per row for what it needs once per column.
#
# Runs a short traced pass of the repository benchmark's query_small
# workload and compares layers of the same run:
#
# * verifying the lowered graph (which includes obtaining the dialect
#   context) must cost less than linting it;
# * lowering (which includes obtaining the operator kernels) must cost
#   less than synthesizing the kernels it returned would;
# * executing a small query must cost less than parsing, planning and
#   optimizing it.
#
# Readings of small / large on one host (`--quick --seconds 3`):
#
#   ratio                               before PR 14   PR 14-15   PR 16
#   ir.verify_s / analysis.run_s            4.4          0.11      0.11
#   lower_s / hls.synthesize_s              2.3          0.18      0.14
#   execute_s / (parse + plan + optimize)   not read     2.27      0.51
#
# Before PR 14 every query built a dialect context and compiled its own
# kernels; PR 14 shared both; PR 16 replaced the row-at-a-time executor
# with the columnar one. The second ratio used to take executing the
# query as its yardstick (3.0, then 0.24): the columnar executor is a
# fifth of that yardstick (0.82), so lowering is held to one the
# executor does not move. All three are ratios of timings on the same
# host, so the gate holds on a slow or noisy runner where absolute
# times would not.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload query_small --trace 1 --quick --seconds 3 | tail -n 1 |
    python3 -c '
import json, sys

result = json.loads(sys.stdin.read())
if not result["correct"] or result["failed"]:
    sys.exit("FAIL query_small: %d operations failed" % result["failed"])
front_end = ("query.parser.parse_s", "query.planner.plan_s", "query.optimizer.optimize_s")
over = False
for small, large in (
    ("ir.verify_s", ("analysis.run_s",)),
    ("query.lower.lower_s", ("hls.synthesize_s",)),
    ("query.exec.execute_s", front_end),
):
    a = result["metrics"][small]["value"]
    b = sum(result["metrics"][name]["value"] for name in large)
    verdict = "ok" if 0.0 < a < b else "FAIL"
    over |= verdict == "FAIL"
    print("%s %s = %.5f s < %s = %.5f s" % (verdict, small, a, " + ".join(large), b))
sys.exit(1 if over else 0)
'

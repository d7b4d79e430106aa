#!/usr/bin/env bash
# Fails when the query path goes back to paying per query for what it
# needs once per process, or per name for what it needs once per query.
#
# Runs a short traced pass of the repository benchmark's query_small
# workload and compares layers of the same run:
#
# * verifying the lowered graph (which includes obtaining the dialect
#   context) must cost less than linting it;
# * lowering (which includes obtaining the operator kernels) must cost
#   less than synthesizing the kernels it returned would;
# * parsing, planning and optimizing a small query must cost less than
#   1.3 times executing it: the lexer borrows its names, the planner
#   builds each qualified name once and moves the parsed expressions
#   into the plan, and the optimizer rewrites one copy of the plan in
#   place.
#
# Readings of small / large on one host (`--quick --seconds 3`): (a)
# before the dialect context and the operator kernels were shared, (b)
# after, (c) after the columnar executor, (d) at the parent of *Query
# path* and (e) after it (docs/PERFORMANCE.md):
#
#   ratio                                   (a)     (b)     (c)     (d)     (e)
#   ir.verify_s / analysis.run_s            4.4    0.11    0.11    0.08    0.11
#   lower_s / hls.synthesize_s              2.3    0.18    0.14    0.24    0.21
#   (parse + plan + optimize) / execute_s     -    0.44    1.96    1.75    1.02
#
# Until (e) the third relation ran the other way, execute_s < parse +
# plan + optimize, and it read 0.51 at (c). Naming the query cost more
# than running it; (e) brings the two level, and the bound of 1.3 keeps
# a quarter's margin over the highest of six readings (1.02). The
# second ratio used to take executing the query as its yardstick (3.0,
# then 0.24): the columnar executor is a fifth of that yardstick
# (0.82), so lowering is held to one the executor does not move. All
# three are ratios of timings on the same host, so the gate holds on a
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
front_end = ("query.parser.parse_s", "query.planner.plan_s", "query.optimizer.optimize_s")
over = False
for small, factor, large in (
    (("ir.verify_s",), 1.0, "analysis.run_s"),
    (("query.lower.lower_s",), 1.0, "hls.synthesize_s"),
    (front_end, 1.3, "query.exec.execute_s"),
):
    a = sum(result["metrics"][name]["value"] for name in small)
    b = result["metrics"][large]["value"]
    verdict = "ok" if 0.0 < a < factor * b else "FAIL"
    over |= verdict == "FAIL"
    print("%s %s = %.5f s < %.1f x %s = %.5f s" % (verdict, " + ".join(small), a, factor, large, b))
sys.exit(1 if over else 0)
'

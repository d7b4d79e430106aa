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
#   2.7 times lowering it: the lexer borrows its names, the planner
#   builds each qualified name once and moves the parsed expressions
#   into the plan, and the optimizer rewrites one copy of the plan in
#   place;
# * linting the lowered graph must cost less than 0.57 times lowering
#   it: the analyzer walks the module once, and a lint runs only where
#   the op kinds it declares are;
# * executing a small query must cost less than 1.96 times lowering it:
#   the executor runs one typed loop per operator, finds groups and join
#   matches through a hash table, and sorts only the rows a LIMIT keeps.
#
# Readings of small / large on one host (`--quick --seconds 3`): (a)
# before the dialect context and the operator kernels were shared, (b)
# after, (c) after the columnar executor, (d) at the parent of *Query
# path*, (e) after it, (f) after *One analysis walk* and (g) after *The
# executor costs its rows* (docs/PERFORMANCE.md; (f) and (g) the median
# of six readings):
#
#   ratio                                   (a)     (b)     (c)     (d)     (e)     (f)     (g)
#   ir.verify_s / analysis.run_s            4.4    0.11    0.11    0.08    0.11    0.60    0.60
#   lower_s / hls.synthesize_s              2.3    0.18    0.14    0.24    0.21    0.15    0.14
#   (parse + plan + optimize) / execute_s     -    0.44    1.96    1.75    1.02    0.89    1.37
#   (parse + plan + optimize) / lower_s       -       -       -       -       -    2.14    2.12
#   analysis.run_s / lower_s                  -       -       -       -       -    0.42    0.43
#   execute_s / lower_s                       -       -       -       -       -    2.37    1.54
#
# Until (e) the third ratio ran the other way, execute_s < parse + plan +
# optimize, and it read 0.51 at (c). Naming the query cost more than
# running it; (e) brought the two level, and a bound of 1.3 over the
# executor held the front end there. At (g) the executor is a third
# faster while the front end is not, so that bound failed on an
# unchanged front end (1.34-1.40): the front end is now held to
# lowering, which the executor does not move, with a quarter's margin
# over the highest of six readings at (g) (2.16; the parent's six read
# 2.13-2.18, and pass). The fifth relation holds the executor to the
# same yardstick: its bound of 1.96 keeps a quarter's margin over the
# highest of six readings at (g) (1.57), and the six at (f) read
# 2.35-2.42, and fail. The second ratio used to take executing the
# query as its yardstick (3.0, then 0.24): the columnar executor is a
# fifth of that yardstick (0.82), so lowering is held to one the
# executor does not move. The first ratio rises to 0.60 at (f) because
# its yardstick, linting, shrank, not because verifying grew. The
# fourth reads 1.08-1.17 at the parent of (f), where all eight lints ran
# on a graph holding no memref, loop or branch, and 0.42-0.45 at (f);
# its bound of 0.57 keeps a quarter's margin over the highest of six
# readings. All five are ratios of timings on the same host, so the
# gate holds on a slow or noisy runner where absolute times would not.
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
    (front_end, 2.7, "query.lower.lower_s"),
    (("analysis.run_s",), 0.57, "query.lower.lower_s"),
    (("query.exec.execute_s",), 1.96, "query.lower.lower_s"),
):
    a = sum(result["metrics"][name]["value"] for name in small)
    b = result["metrics"][large]["value"]
    verdict = "ok" if 0.0 < a < factor * b else "FAIL"
    over |= verdict == "FAIL"
    print("%s %s = %.5f s < %.2f x %s = %.5f s" % (verdict, " + ".join(small), a, factor, large, b))
sys.exit(1 if over else 0)
'

#!/usr/bin/env bash
# Fails when the compile path goes back to copying or re-checking what a
# stage only reads.
#
# Runs a short traced pass of the repository benchmark's compile_corpus
# workload and compares layers of the same run:
#
# * canonicalizing a module (six passes and the verifier runs between
#   them) must cost less than linting it (eight lints): the pipeline
#   verifies after a pass only when `Module::revision` moved, which on
#   the corpus is once, after the first `cse`;
# * printing the modules must cost less than lowering the kernel that
#   produced them: the printer borrows each op and numbers values
#   through a dense table.
#
# Readings of small / large on one host (`--quick --seconds 3`):
#
#   ratio                                 PR 20    PR 21
#   ir.canonicalize_s / analysis.run_s     1.33     0.79
#   ir.print_s / ekl.lower_s               1.18     0.67
#
# At PR 20 the pass manager verified seven times a module whatever the
# passes did (58 % of the layer) and the printer cloned every op's
# operands, results, regions and attribute map. Both are ratios of
# timings on the same host, so the gate holds on a slow or noisy runner
# where absolute times would not.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload compile_corpus --trace 1 --quick --seconds 3 | tail -n 1 |
    python3 -c '
import json, sys

result = json.loads(sys.stdin.read())
if not result["correct"] or result["failed"]:
    sys.exit("FAIL compile_corpus: %d operations failed" % result["failed"])
over = False
for small, large in (
    ("ir.canonicalize_s", "analysis.run_s"),
    ("ir.print_s", "ekl.lower_s"),
):
    a = result["metrics"][small]["value"]
    b = result["metrics"][large]["value"]
    verdict = "ok" if 0.0 < a < b else "FAIL"
    over |= verdict == "FAIL"
    print("%s %s = %.5f s < %s = %.5f s" % (verdict, small, a, large, b))
sys.exit(1 if over else 0)
'

#!/usr/bin/env bash
# Fails when the middle end stops being linear in module size.
#
# Runs a short traced pass of the repository benchmark's compile_corpus
# workload and reads the two fitted exponents off its result line:
# how canonicalization and analysis time grow between the 64- and the
# 256-statement kernels. A linear stage reads about 1.0; one whole-module
# scan per merged value, per finding or per allocation read 1.5 to 1.7.
# An exponent is a ratio of two timings on the same host, so the limit
# holds on a slow or noisy runner where absolute times would not.
set -euo pipefail
cd "$(dirname "$0")/.."

limit=1.25
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload compile_corpus --trace 1 --quick --seconds 3 | tail -n 1 |
    python3 -c '
import json, sys

limit = float(sys.argv[1])
result = json.loads(sys.stdin.read())
if not result["correct"] or result["failed"]:
    sys.exit("FAIL compile_corpus: %d operations failed" % result["failed"])
over = False
for name in ("ir.canonicalize_scaling", "analysis.run_scaling"):
    exponent = result["metrics"][name]["value"]
    verdict = "ok" if 0.0 < exponent <= limit else "FAIL"
    over |= verdict == "FAIL"
    print("%s %s = %.2f (limit %.2f)" % (verdict, name, exponent, limit))
sys.exit(1 if over else 0)
' "$limit"

#!/usr/bin/env bash
# Fails when radiation goes back to being most of a weather step.
#
# The paper's case for EKL is RRTMG: about 30 % of WRF's compute
# (§V-A.1), and "more WRF runs per day" once it is accelerated (§VIII).
# Here the same kernel runs on the host through the EKL evaluator, and
# the figure this gate holds is the paper's own, read off the stand-in:
# the cost of a step with the EKL gas-optics scheme over the cost of the
# same step with the parameterized one. One release process times a
# 48-step forecast under each (fastest of five) and prints both.
#
# Readings of Ekl / Parameterized, us per step, on one host:
#
#   before PR 18 (tree-walking interpreter)   775-1036 / 40-53 = 18-23
#   PR 18 (bound plan, wrap by comparison)      76-104 / 26-33 = 2.8-3.8
#
# The issue that asked for the change read 11-12 before, on a quieter
# host (470 / 46). PR 18 made the denominator faster too (36-44 -> 26-27
# us), which raises the ratio; with the dynamics as they were it would
# read under 2. A ratio of two timings of one process on one host, so
# the limit holds on a slow or noisy runner where absolute times would
# not.
set -euo pipefail
cd "$(dirname "$0")/.."

limit=8
cargo run --release --offline --quiet -p everest-usecases --example radiation_share | tail -n 1 |
    python3 -c '
import json, sys

limit = float(sys.argv[1])
result = json.loads(sys.stdin.read())
ekl, parameterized = result["ekl_us_per_step"], result["parameterized_us_per_step"]
verdict = "ok" if 0.0 < ekl <= limit * parameterized else "FAIL"
print("%s Ekl / Parameterized = %.1f / %.1f us per step = %.2f (limit %.1f)"
      % (verdict, ekl, parameterized, ekl / parameterized, limit))
sys.exit(0 if verdict == "ok" else 1)
' "$limit"

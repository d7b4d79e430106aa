#!/usr/bin/env bash
# Runs the whole benchmark twice and checks that the two sets agree:
# every exact metric (counts and simulated-clock results) identical,
# every end-to-end metric within its bound from BENCHMARK.json, and no
# failed operation.
#
#   benchmark/check.sh [--quick] [--seed N]
#
# --quick is a smoke mode: every input a tenth the size, a fraction of
# a second per workload. It checks outputs and the exact metrics only;
# timings that short say nothing.
set -euo pipefail
cd "$(dirname "$0")"

quick=()
seconds=10
seed=42
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) quick=(--quick); seconds=0.2 ;;
        --seed) seed="$2"; shift ;;
        *) echo "usage: check.sh [--quick] [--seed N]" >&2; exit 2 ;;
    esac
    shift
done

# The binary refuses to measure when built without optimisation, so a
# debug build cannot slip through here.
cargo build --release --offline --quiet
target="${CARGO_TARGET_DIR:-../target}"
bench="$target/release/everest-benchmark"

mkdir -p out
for set in a b; do
    for trace in 0 1; do
        "$bench" --all --seed "$seed" --seconds "$seconds" --trace "$trace" "${quick[@]}" \
            > "out/check-$set-trace$trace.txt"
    done
done

python3 - "${quick[@]}" <<'EOF'
import json, sys

quick = "--quick" in sys.argv
contract = json.load(open("../BENCHMARK.json"))
bounds = {m["name"]: (m["bound"], m["better"]) for m in contract["end_to_end"]}
# A per-layer metric is host time when it is a duration or derived from one.
TIMED_UNITS = {"s", "ns", "exponent"}
TIMED_NAMES = {"cluster.us_per_round", "compile.unattributed_share",
               "query.unattributed_share", "trace.overhead_share"}

def result(path):
    with open(path) as f:
        return json.loads(f.read().strip().splitlines()[-1])

problems = []
for trace in (0, 1):
    a, b = (result(f"out/check-{s}-trace{trace}.txt") for s in "ab")
    for side, r in (("first", a), ("second", b)):
        if not r["correct"] or r["failed"]:
            problems.append(f"trace {trace}, {side} set: {r['failed']} operations failed")
    if set(a["metrics"]) != set(b["metrics"]):
        problems.append(f"trace {trace}: the two sets report different metrics")
        continue
    for key, first in a["metrics"].items():
        second = b["metrics"][key]
        name = key.split("/", 1)[1]
        x, y = first["value"], second["value"]
        if trace == 1:
            timed = first["unit"] in TIMED_UNITS or name in TIMED_NAMES
            if not timed and x != y:
                problems.append(f"{key}: exact metric differs, {x} then {y}")
        elif not quick:
            bound, better = bounds[name]
            worse = (y - x) / x if better == "lower" else (x - y) / x
            if abs(worse) > bound:
                problems.append(f"{key}: {x} then {y}, apart by more than {bound:.0%}")

for p in problems:
    print("FAIL", p)
if problems:
    sys.exit(1)
print("ok: two sets agree" + (" (quick: outputs and exact metrics only)" if quick else ""))
EOF

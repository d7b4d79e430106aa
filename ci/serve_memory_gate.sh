#!/usr/bin/env bash
# Fails when the serve engine's memory goes back to following the
# length of the campaign instead of the work in flight.
#
# Runs the repository benchmark's two fault-free serve workloads at
# full size and with --quick (every campaign a tenth as long) and
# compares the two peak resident sets of each. A process that only
# holds what is in flight differs between the two by the outcome it
# returns — one record per batch, one latency per completion — and by
# nothing else; a stored arrival trace, or a side table with a slot per
# batch ever dispatched, scales the whole working set with the horizon.
#
# Readings of peak_rss_mb, full / quick, on one host
# (`--trace 0 --seconds 3`):
#
#   workload            stored trace          streamed arrivals     arrival blocks        deadline lanes
#   serve_saturation    15.2 / 5.3 = 2.9      5.8 / 4.1 = 1.4       5.8 / 4.0 = 1.5       5.9 / 4.0 = 1.5
#   serve_nominal       17.5 / 5.7 = 3.1      6.9 / 4.4 = 1.6       7.3 / 4.1 = 1.8       6.7 / 4.0 = 1.7
#
# "arrival blocks": each tenant lane of the arrival stream draws a
# fixed block of arrivals ahead (the commit before it read 5.7 / 4.1
# and 7.1 / 4.1 on the same host). A lane that held more than a block
# would grow with the horizon and show here.
#
# "deadline lanes": a batch's wait-deadline sits in one slot per class
# instead of the event heap, admissions past an empty fair queue skip
# it, and the health detector keeps a copy of the window it last fit
# (the commit before it read 5.7 / 4.0 and 7.0 / 4.0 on the same host).
#
# What is left of the nominal ratio is the outcome's own vectors (about
# 50,000 latencies and 18,000 batch records a campaign). Both figures
# are readings of one process on one host, so the gate holds on any
# runner where absolute megabytes would not.
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in serve_saturation serve_nominal; do
    for quick in "" --quick; do
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --trace 0 --seconds 3 $quick | tail -n 1
    done
done | python3 -c '
import json, sys

LIMIT = 2.0
lines = [json.loads(line) for line in sys.stdin.read().strip().splitlines()]
over = False
for name, full, quick in zip(("serve_saturation", "serve_nominal"), lines[0::2], lines[1::2]):
    for size, result in (("full", full), ("quick", quick)):
        if not result["correct"] or result["failed"]:
            sys.exit("FAIL %s (%s): %d operations failed" % (name, size, result["failed"]))
    a = full["metrics"]["peak_rss_mb"]["value"]
    b = quick["metrics"]["peak_rss_mb"]["value"]
    verdict = "ok" if 0.0 < a <= LIMIT * b else "FAIL"
    over |= verdict == "FAIL"
    print("%s %s peak_rss_mb full / quick = %.1f / %.1f = %.2f <= %.1f"
          % (verdict, name, a, b, a / b, LIMIT))
sys.exit(1 if over else 0)
'

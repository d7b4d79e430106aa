#!/usr/bin/env bash
# Fails when the non-test code of crates/*/src builds JSON by hand. Every
# JSON document is a `serde::Value` tree printed by the vendored
# `serde_json` writer, so none of these may appear there:
#   - a function whose name starts with `json_`;
#   - a format string that writes a `\"key\":`;
#   - a `derive(Serialize` or `derive(Deserialize`.
# Prints each offending line (the cut ci/code_lines.sh counts) and exits 1.
#
#   ci/json_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

hits=$(find crates/*/src -name '*.rs' -print0 | sort -z \
    | xargs -0 awk -f ci/non_test_lines.awk \
    | grep -E 'fn json_|\\"[A-Za-z_][A-Za-z0-9_]*\\":|derive\([^)]*(Serialize|Deserialize)' || true)
if [ -n "$hits" ]; then
    printf '%s\n' "$hits"
    echo "error: build JSON as a serde::Value tree and print it with serde_json" >&2
    exit 1
fi

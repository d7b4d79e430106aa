#!/usr/bin/env bash
# Fails when the non-test code of crates/ir/src/pass.rs, crates/analysis/src
# or crates/hls/src decides by an op's name what it does to memory or
# which operand is its buffer: a `"memref.load"`, `.store`, `.alloc`,
# `.dealloc` or `.copy` literal, or `OpTrait::Pure`. What an op does to
# memory is declared once, as the `effects` of its `OpSpec`, and read
# through `Context::{effects, reads_only, may_write, access}`. An
# `OpKinds::of(..)` census (the op kinds a lint looks at) is exempt.
# Prints each offending line (the cut ci/code_lines.sh counts) and exits 1.
#
#   ci/effects_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

hits=$( { echo crates/ir/src/pass.rs; find crates/analysis/src crates/hls/src -name '*.rs'; } \
    | sort | xargs awk -f ci/non_test_lines.awk \
    | awk '/OpKinds::of\(/ { census = 1 } !census { print } census && /\)/ { census = 0 }' \
    | grep -E '"memref\.(load|store|alloc|dealloc|copy)"|OpTrait::Pure' || true)
if [ -n "$hits" ]; then
    printf '%s\n' "$hits"
    echo "error: read what an op does to memory from its declared effects, not its name" >&2
    exit 1
fi

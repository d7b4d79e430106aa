#!/usr/bin/env bash
# Prints the settable fields of each crate under crates/ and their total:
# the `pub` fields of every `pub struct` whose name ends in `Config`,
# `Options` or `Policy`, on the non-test code lines ci/code_lines.sh
# counts (cut by ci/non_test_lines.awk). Prints only; it gates nothing.
#
#   ci/knob_count.sh            # one "crate fields" row each, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk -f ci/non_test_lines.awk \
        | awk '
            {
                sub(/^[^ ]+ /, "")
                if (depth == 0) {
                    if ($0 ~ /^[[:space:]]*pub[[:space:]]+struct[[:space:]]+[A-Za-z0-9_]*(Config|Options|Policy)[[:space:]]*(<[^>]*>)?[[:space:]]*\{/)
                        depth = 1
                    next
                }
                if (depth == 1 && $0 ~ /^[[:space:]]*pub[[:space:]]+[a-z_][a-z0-9_]*[[:space:]]*:/)
                    fields++
                depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            }
            END { print fields + 0 }'
}

for dir in crates/*/src; do
    crate=${dir#crates/}
    printf '%-12s %6d\n' "${crate%/src}" "$(count "$dir")"
done
printf '%-12s %6d\n' total "$(count crates/*/src)"

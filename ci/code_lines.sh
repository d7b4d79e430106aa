#!/usr/bin/env bash
# Prints the non-test code lines of each crate under crates/ and their
# total over crates/*/src. Prints only; it gates nothing.
#
# A code line is a non-blank line that does not start with `//` (after
# indentation) and comes before the first `#[cfg(test)]` of its file;
# everything from that attribute on is counted as test code.
#
#   ci/code_lines.sh            # one "crate lines" row each, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

for dir in crates/*/src; do
    crate=${dir#crates/}
    printf '%-12s %6d\n' "${crate%/src}" "$(count "$dir")"
done
printf '%-12s %6d\n' total "$(count crates/*/src)"

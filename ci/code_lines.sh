#!/usr/bin/env bash
# Prints the non-test code lines of each crate under crates/ and their
# total over crates/*/src. Prints only; it gates nothing. What counts as
# a non-test code line is defined in ci/non_test_lines.awk.
#
#   ci/code_lines.sh            # one "crate lines" row each, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk -f ci/non_test_lines.awk | wc -l
}

for dir in crates/*/src; do
    crate=${dir#crates/}
    printf '%-12s %6d\n' "${crate%/src}" "$(count "$dir")"
done
printf '%-12s %6d\n' total "$(count crates/*/src)"

#!/usr/bin/env bash
# Fails when a crate exports an item that nothing outside the crate
# names. rustc's `dead_code` lint does not look at `pub` items and
# `unreachable_pub` does not look at exported ones, so this probe keeps
# the rule "reach it or delete it" for them.
#
# An item is a `pub fn|struct|enum|trait|const|type|static|mod` on a
# non-test line of crates/*/src (the cut ci/code_lines.sh counts; the
# `basecamp` binary exports nothing). It is reached when its name
# appears as a word on a code line of a file outside its own crate's
# src/: another crate's src/, the `basecamp` binary, any crate's
# tests/, benches/ or examples/, the root tests/ and examples/,
# benchmark/src, or a Rust block of README.md or EXPERIMENTS.md (the
# `everest-sdk` doctests). Comment lines do not reach anything.
#
# A type that a still-public signature exposes stays `pub` although no
# other crate names it; ci/reach_exposed.txt lists each with the
# signature that exposes it. Prints every other unreached item as
# `file:line: crate::name`, and every list entry that is no longer an
# unreached item, and exits 1 if there is one; prints the exported-item
# count either way.
#
# Once the gate passes, it also prints the reached items that only test
# code names: lines of a tests/ directory, or of a src/ file from its
# first `#[cfg(test)]` on (the cut ci/non_test_lines.awk makes). Such an
# item has no caller a user runs, so it is a candidate for deletion.
# This list gates nothing.
#
#   ci/reach_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Code lines of every file that may name an item, as
# `origin<TAB>kind<TAB>line`. The origin is the crate whose src/ holds
# the file, or `-` for a file outside every crate's src/; the kind is
# `test` for test code and `code` for the rest.
consumers() {
    git ls-files -z -- '*.rs' ':!vendor' ':!ci' \
        | xargs -0 awk '
            FNR == 1 {
                origin = "-"
                if (FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /\/src\/bin\//) {
                    split(FILENAME, part, "/")
                    origin = part[2]
                }
                kind = (FILENAME ~ /(^|\/)tests\//) ? "test" : "code"
            }
            /^[[:space:]]*#\[cfg\(test\)\]/ { kind = "test" }
            /^[[:space:]]*\/\// { next }
            { print origin "\t" kind "\t" $0 }'
    # The Rust blocks of the doctested documents: a fence that opens
    # with ``` or ```rust and is not marked `ignore`.
    awk '
        /^```/ {
            if (inside) { inside = 0; next }
            inside = ($0 ~ /^```(rust)?(,[a-z_]+)*[[:space:]]*$/ && $0 !~ /ignore/) ? 1 : -1
            next
        }
        inside == 1 && !/^[[:space:]]*\/\// { print "-\tcode\t" $0 }' README.md EXPERIMENTS.md
}

# Every exported item as `crate<TAB>name<TAB>file:line`.
items() {
    find crates/*/src -name '*.rs' -not -path '*/src/bin/*' -print0 | sort -z \
        | xargs -0 awk -f ci/non_test_lines.awk \
        | awk '{
            file = $1
            sub(/^[^ ]+ /, "")
            if (!match($0, /^[[:space:]]*pub[[:space:]]+((const|async|unsafe|extern "[^"]*")[[:space:]]+)*(fn|struct|enum|trait|const|type|static([[:space:]]+mut)?|mod)[[:space:]]+(r#)?[A-Za-z_][A-Za-z0-9_]*/))
                next
            decl = substr($0, RSTART, RLENGTH)
            n = split(decl, word, /[[:space:]]+|r#/)
            split(file, part, "/")
            sub(/:$/, "", file)
            print part[2] "\t" word[n] "\t" file
        }'
}

exposed=$(awk '!/^[[:space:]]*(#|$)/ { print $1 }' ci/reach_exposed.txt | tr '\n' ' ')

# Each line out is `gate<TAB>finding` or `tests<TAB>item only tests name`.
report=$( { consumers | sed 's/^/C\t/'; items | sed 's/^/I\t/'; } | awk -F'\t' -v exposed="$exposed" '
    BEGIN {
        n = split(exposed, entry, " ")
        for (i = 1; i <= n; i++) allowed[entry[i]] = 1
    }
    $1 == "C" {
        origin = $2
        code = $3 == "code"
        line = substr($0, length(origin) + length($3) + 5)
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            w = substr(line, RSTART, RLENGTH)
            if (!(w in first)) first[w] = origin
            else if (first[w] != origin) many[w] = 1
            if (code) {
                if (!(w in code_first)) code_first[w] = origin
                else if (code_first[w] != origin) code_many[w] = 1
            }
            line = substr(line, RSTART + RLENGTH)
        }
        next
    }
    {
        total++
        crate = $2; name = $3
        reached = (name in many) || ((name in first) && first[name] != crate)
        if (reached) {
            if (!((name in code_many) || ((name in code_first) && code_first[name] != crate)))
                print "tests\t" $4 ": " crate "::" name
            next
        }
        if ((crate "::" name) in allowed) exposed_seen[crate "::" name] = 1
        else print "gate\t" $4 ": " crate "::" name
    }
    END {
        for (e in allowed)
            if (!(e in exposed_seen))
                print "gate\tci/reach_exposed.txt: " e " is named elsewhere or gone; drop the entry"
        printf "%d exported items, %d of them exposed types\n", total, n > "/dev/stderr"
    }
')

hits=$(printf '%s\n' "$report" | sed -n 's/^gate\t//p')
if [ -n "$hits" ]; then
    printf '%s\n' "$hits"
    echo "error: narrow each unreached item to pub(crate) and delete what dead_code then names;" \
        "list a type only a public signature exposes in ci/reach_exposed.txt" >&2
    exit 1
fi

tests_only=$(printf '%s\n' "$report" | sed -n 's/^tests\t//p')
if [ -n "$tests_only" ]; then
    echo "$(printf '%s\n' "$tests_only" | wc -l) pub items that only tests name (printed, not gated):"
    printf '%s\n' "$tests_only"
fi

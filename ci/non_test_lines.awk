# Prints the non-test code lines of the Rust files it reads, each as
# `file:line: text`. ci/code_lines.sh counts them; ci/json_guard.sh
# searches them.
#
# A code line is a non-blank line that does not start with `//` (after
# indentation) and comes before the first `#[cfg(test)]` of its file;
# everything from that attribute on is test code.
FNR == 1 { in_test = 0 }
/^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
in_test || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
{ print FILENAME ":" FNR ": " $0 }

#!/usr/bin/env bash
# Fails when the compile path goes back to copying or re-checking what a
# stage only reads.
#
# Runs a short traced pass of the repository benchmark's compile_corpus
# workload and compares layers of the same run:
#
# * canonicalizing a module (six passes and the verifier runs between
#   them) must cost less than linting it (eight lints) and less than
#   1.5 times synthesizing the kernel: the pipeline verifies after a
#   pass only when `Module::revision` moved, which on the corpus is
#   once, after the first `cse`; an op's spec is a load from a table
#   indexed by its name's id; and CSE hashes and compares ops where they
#   sit, with no key built per op;
# * verifying a module must cost less than 0.4 times synthesizing the
#   kernel: one spec lookup an op, nothing allocated but the scope
#   table;
# * printing the modules must cost less than 1.2 times synthesizing the
#   kernel: the printer borrows each op, numbers values through a dense
#   table and writes numbers, names, types and every attribute but a
#   float straight into its output, with no `core::fmt` call between;
# * synthesizing a kernel must cost less than canonicalizing its
#   module: one CDFG per block built without hashing, tables sized once
#   per synthesis, costs looked up once per op name;
# * and less than linting it, so that a later analysis speed-up cannot
#   hide a synthesis regression behind the first ratio;
# * linting a kernel must cost less than 2.7 times synthesizing it: the
#   lints ask an op's traits by its interned name (one load), not by
#   its text (a split and two map searches an op);
# * exploring a kernel's design space must cost less than 0.9 times
#   synthesizing it: each of the 224 candidates of a sweep records an
#   `olympus.generate` span, and a span is a 64-byte record with its
#   args in one flat vector (a literal name and literal keys copied
#   nowhere), not a `String` name, a `String` a key and a `BTreeMap`;
# * parsing the printed modules back must cost less than 6 times
#   synthesizing the kernels: the parser reads the text once, its
#   tokens are slices of it, an op's operand types are checked and not
#   built, and no block body is scanned ahead and parsed again;
# * lowering a kernel must cost less than 1.5 times synthesizing it:
#   each name is resolved to a dense slot once and each node's kind
#   computed once, bottom up, op names are constants, a value holds a
#   uniqued type id, a constant holds its attribute in place, and an op
#   is built in one straight line.
#
# Readings of small / large on one host (`--quick --seconds 3`), before
# *Borrow what is only read* (a), after it (b), after *Dense tables*
# (c), after *Per-op primitives* (d), after *An op that allocates
# nothing* (e), after *What the compile flow writes down* (f, the
# median of 8 readings), after *One pass over the IR text* (g, the
# median of 8) and after *An op that costs its bytes* (h, the median of
# 8), the compile-path sections of docs/PERFORMANCE.md:
#
#   ratio                                   (a)      (b)      (c)      (d)      (e)      (f)      (g)      (h)
#   ir.canonicalize_s / analysis.run_s     1.33     0.79     1.13     0.41     0.57     0.57     0.59     0.55
#   ir.canonicalize_s / ekl.lower_s           -        -     1.42     0.50     0.61     0.54     0.57     1.13
#   ir.verify_s / ekl.lower_s                 -        -     0.27     0.12     0.15     0.13     0.14     0.27
#   ir.print_s / ekl.lower_s               1.18     0.67     0.67     0.66     0.79     0.48     0.41     0.84
#   hls.synthesize_s / ekl.lower_s            -     1.41     0.40     0.41     0.45     0.47     0.49     0.99
#   hls.synthesize_s / analysis.run_s         -     0.78     0.32     0.34     0.42     0.51     0.50     0.48
#   analysis.run_s / hls.synthesize_s         -     1.28     3.13     2.94     2.38     2.14     2.00     2.10
#   olympus.explore_s / hls.synthesize_s      -        -        -        -        -     0.77     0.73     0.76
#   ir.parse_s / ekl.lower_s                  -        -        -        -        -     6.84     2.00     4.12
#   ekl.lower_s / hls.synthesize_s            -     0.71     2.50     2.44     2.22     2.13     2.04     1.01
#   ir.canonicalize_s / hls.synthesize_s      -        -     3.55     1.22     1.36     1.15     1.16     1.15
#   ir.verify_s / hls.synthesize_s            -        -     0.68     0.29     0.33     0.28     0.29     0.28
#   ir.print_s / hls.synthesize_s             -     0.48     1.68     1.61     1.76     1.02     0.84     0.86
#   hls.synthesize_s / ir.canonicalize_s      -        -     0.28     0.82     0.74     0.87     0.86     0.87
#   ir.parse_s / hls.synthesize_s             -        -        -        -        -    14.55     4.08     4.19
#
# The last six rows up to (g) are the rows above divided into one
# another, not readings of their own. At (h) lowering fell to 0.44x
# and the five ratios over `ekl.lower_s` rose by that base without
# their numerators moving (each read as at its parent against
# `hls.synthesize_s`), so each is now stated against synthesis: at a
# bound no looser than the old one in synthesis units (the parent's
# lowering was 2.12 x synthesis, so 1.0 x lower was 2.12 x synthesize)
# and one that still fails the code its comment cites, as the table
# shows: canonicalizing 1.5 (3.55 at (c)), verifying 0.4 (0.68 at (c)),
# printing 1.2 (1.61-1.76 before (f)), parsing 6.0 (14.55 before (g)).
# Synthesis against lowering becomes synthesis against canonicalizing,
# at 1.0 (a synthesis 3.5x slower, as before (c), reads ~3.0 today). The
# new lowering bound was set from 8 readings a side: lowering read
# 2.10-2.26 x synthesis at the parent and 0.98-1.09 after (bound 1.5).
#
# The last three bounds were set from 8 readings a side at the change
# that added each and at its parent: printing read 0.37-0.50 after and
# 0.69-0.81 before (bound 0.6), exploring 0.69-0.79 after and 1.10-1.19
# before (bound 0.9), both at (f); parsing read 1.81-2.12 after and
# 6.60-6.91 before (bound 3.0), at (g). Before (g) the parser collected
# the text into a `Vec<char>`, built a `String` per identifier and
# number, and read each block body twice, once scanning ahead for its
# end (2,288 allocations for RRTMG's 78 ops; 140 after).
# Before (f) the printer spelt every value number, name, type and
# attribute through `core::fmt`, and each `olympus.generate` span cost a
# `String` name, three `String` keys, a `BTreeMap` leaf and a
# `std::thread::current()` lookup in a `HashMap`.
#
# At PR 20 the pass manager verified seven times a module whatever the
# passes did (58 % of the layer) and the printer cloned every op's
# operands, results, regions and attribute map. At PR 21 synthesis built
# every innermost body's CDFG twice, through three SipHash maps a block
# and a `Vec` a node. PR 23 also made the lints 0.69x what they cost
# (CSR flow graphs, interval facts solved once a run), which is all that
# moved the first ratio: canonicalization itself read the same. At
# PR 23 every `spec_of` / `has_trait` was a SipHash probe (three an op
# in the verifier, two in CSE, one in DCE) and CSE built two vectors and
# a cloned attribute key per pure op; PR 24 removed both, which is what
# lets the first bound return to 1 and adds the two bounds against
# lowering. Once an op stopped allocating its operand and result
# vectors and building it stopped taking the interner's lock, lowering
# fell to 0.85x and every ratio over `ekl.lower_s` rose by its base;
# none moved its bound, whose tightest margin is still a quarter
# (`ir.verify_s`, 0.15 against 0.2). The lints fell to about 0.8x when
# `op_has_trait(&str)` became `has_trait(Symbol)`, which the last bound
# holds: before that change it reads 2.94. All are ratios of
# timings on the same host, so the gate holds on a slow or noisy runner
# where absolute times would not.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload compile_corpus --trace 1 --quick --seconds 3 | tail -n 1 |
    python3 -c '
import json, sys

result = json.loads(sys.stdin.read())
if not result["correct"] or result["failed"]:
    sys.exit("FAIL compile_corpus: %d operations failed" % result["failed"])
over = False
for small, factor, large in (
    ("ir.canonicalize_s", 1.0, "analysis.run_s"),
    ("ir.canonicalize_s", 1.5, "hls.synthesize_s"),
    ("ir.verify_s", 0.4, "hls.synthesize_s"),
    ("ir.print_s", 1.2, "hls.synthesize_s"),
    ("hls.synthesize_s", 1.0, "ir.canonicalize_s"),
    ("hls.synthesize_s", 1.0, "analysis.run_s"),
    ("analysis.run_s", 2.7, "hls.synthesize_s"),
    ("olympus.explore_s", 0.9, "hls.synthesize_s"),
    ("ir.parse_s", 6.0, "hls.synthesize_s"),
    ("ekl.lower_s", 1.5, "hls.synthesize_s"),
):
    a = result["metrics"][small]["value"]
    b = result["metrics"][large]["value"]
    verdict = "ok" if 0.0 < a < factor * b else "FAIL"
    over |= verdict == "FAIL"
    print("%s %s = %.5f s < %.1f x %s = %.5f s" % (verdict, small, a, factor, large, b))
sys.exit(1 if over else 0)
'

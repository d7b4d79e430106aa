//! `basecamp analyze` on textual IR is total: whatever `parse_module`
//! accepts goes through `verify_module` and
//! `Analyzer::with_default_lints().run` without a panic — arbitrary
//! bytes, text over the grammar's alphabet, and printed modules (the
//! lowered `ci/analysis/probe.ekl` and RRTMG) with bytes edited, one
//! type swapped for another everywhere (well-formed, ill-typed IR) or
//! one op renamed to another registered kind (ports at the wrong arity).

use proptest::prelude::*;

use everest_analysis::Analyzer;
use everest_ekl::rrtmg::{major_absorber_program, RrtmgDims};
use everest_ekl::{check::check, lower::lower_to_loops, parser::parse};
use everest_ir::parse::parse_module;
use everest_ir::print::print_module;
use everest_ir::registry::Context;
use everest_ir::verify::verify_module;

/// What parses, verifies or not, and is analyzed: `None` when the text
/// does not parse, else whether it verifies and its `type-mismatch`
/// findings.
fn analyze(text: &str) -> Option<(bool, usize)> {
    let module = parse_module(text).ok()?;
    let ctx = Context::with_all_dialects();
    let verifies = verify_module(&ctx, &module).is_ok();
    let report = Analyzer::with_default_lints().run(&ctx, &module);
    Some((verifies, report.by_lint("type-mismatch").len()))
}

/// The printed loop IR of the CI probe kernel and of a small RRTMG.
fn seeds() -> [String; 2] {
    let probe = include_str!("../../../ci/analysis/probe.ekl");
    let probe = check(&parse(probe).expect("parses")).expect("checks");
    let rrtmg = major_absorber_program(RrtmgDims {
        nlay: 4,
        ngpt: 2,
        ntemp: 3,
        npres: 4,
        neta: 2,
        nflav: 2,
    });
    [probe, rrtmg].map(|program| print_module(&lower_to_loops(&program).expect("lowers")))
}

/// Bytes the grammar gives meaning to, and words it is made of.
const BYTES: &[u8] = b"\"(){}%^<>,:-=!@[]?\\x0919e. \n";
const WORDS: &[&str] = &[
    "module",
    "{",
    "}",
    "(",
    ")",
    ":",
    "->",
    "=",
    ",",
    "%0",
    "%1",
    "%2",
    "^bb(%3: index):",
    "\"arith.addf\"",
    "\"arith.constant\"",
    "\"memref.load\"",
    "\"memref.store\"",
    "\"scf.for\"",
    "\"func.func\"",
    "\"func.return\"",
    "\"dfg.node\"",
    "\"olympus.dma\"",
    "{value = 1}",
    "{sym_name = \"k\", function_type = (index) -> (f64)}",
    "{direction = \"h2d\"}",
    "{capacity = 0}",
    "f64",
    "index",
    "i1",
    "memref<4x4xf64, plm>",
    "!dfg.stream<f64>",
    "!dfg.token",
    "\n",
];
const TYPES: &[&str] = &["f64", "f32", "index", "i1", "i32", "!dfg.token"];

/// One edit of a printed module.
fn edit(text: &str, (at, how, with): (usize, u8, u8)) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let at = at % bytes.len();
    match how % 5 {
        0 => bytes[at] = BYTES[with as usize % BYTES.len()],
        1 => bytes.insert(at, BYTES[with as usize % BYTES.len()]),
        2 => {
            bytes.truncate(at);
        }
        3 => {
            let from = TYPES[at % TYPES.len()];
            let to = TYPES[with as usize % TYPES.len()];
            return text.replace(from, to);
        }
        _ => {
            // The op at one `"name"(` renamed to another registered kind.
            let ctx = Context::with_all_dialects();
            let names: Vec<String> = ctx
                .dialect_names()
                .into_iter()
                .filter_map(|d| ctx.dialect(d))
                .flat_map(|d| d.iter().map(move |s| format!("\"{}.{}\"", d.name, s.name)))
                .collect();
            let sites: Vec<usize> = text.match_indices("\"(").map(|(i, _)| i).collect();
            let Some(&end) = sites.get(at % sites.len().max(1)) else {
                return text.to_string();
            };
            let start = text[..end].rfind('"').unwrap_or(end);
            let to = &names[with as usize % names.len()];
            return format!("{}{}{}", &text[..start], to, &text[end + 1..]);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn analyze_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        analyze(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn analyze_is_total_on_grammar_soup(
        words in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let text: String = words
            .iter()
            .map(|&w| WORDS[w as usize % WORDS.len()])
            .collect::<Vec<_>>()
            .join(" ");
        analyze(&text);
        analyze(&format!("module {{\n{text}\n}}\n"));
    }

    #[test]
    fn analyze_is_total_on_edited_modules(
        seed in 0..2usize,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 1..5),
    ) {
        let mut text = seeds()[seed].clone();
        for &e in &edits {
            text = edit(&text, e);
        }
        analyze(&text);
    }
}

/// The edits reach what they are for: some type swaps and renames still
/// parse, fail verification, and are reported as type mismatches.
#[test]
fn edited_seeds_parse_into_ill_typed_modules() {
    for seed in seeds() {
        assert_eq!(analyze(&seed), Some((true, 0)), "the seed is clean");
        let mut ill_typed = 0;
        for at in 0..TYPES.len() {
            for with in 0..TYPES.len() as u8 {
                if let Some((false, n)) = analyze(&edit(&seed, (at, 3, with))) {
                    ill_typed += usize::from(n > 0);
                }
            }
        }
        let mut renamed = 0;
        for at in 0..40 {
            for with in 0..61u8 {
                if let Some((false, _)) = analyze(&edit(&seed, (at, 4, with))) {
                    renamed += 1;
                }
            }
        }
        assert!(
            ill_typed >= 5,
            "{ill_typed} type swaps analyzed as ill-typed"
        );
        assert!(
            renamed >= 100,
            "{renamed} renames parsed and failed verification"
        );
    }
}

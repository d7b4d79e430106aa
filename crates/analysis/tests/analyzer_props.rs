//! The one-walk analyzer against the run loop it replaced
//! (`tests/reference/analyzer.rs`): every default lint run alone, over
//! a walk of its own and whatever op kinds the module holds. Skipping a
//! lint whose declared op kinds a module lacks, and reading one shared
//! walk, must not change a finding.
//!
//! The modules: the random `dfg` graphs and value modules of
//! `solver_props.rs`, random memref modules in which each op kind a
//! lint declares is present or absent by a draw, the compile corpus's
//! loop and Olympus system modules and its ConDRust graph, and the
//! `dfg` graphs of the twelve `query_small` templates.

mod golden;
mod modules;
mod reference;

use proptest::prelude::*;

use everest_analysis::{AnalysisReport, Analyzer};
use everest_ekl::rrtmg::{major_absorber_source, RrtmgDims};
use everest_ir::attr::Attribute;
use everest_ir::dialects::core::{alloc, build_for, build_func, const_f64, const_index};
use everest_ir::ids::ValueId;
use everest_ir::module::{single_result, Module};
use everest_ir::print::print_module;
use everest_ir::registry::Context;
use everest_ir::types::{MemorySpace, Type};
use everest_sdk::everest_hls::HlsOptions;
use everest_sdk::everest_query::{datasets::Dataset, lower::lower, optimizer::Optimizer};
use everest_sdk::{Basecamp, CompileOptions};

use modules::{analysed_modules, random_dfg_module};

/// The analyzer's findings and the reference loop's, both normalized.
fn both(module: &Module) -> (AnalysisReport, AnalysisReport) {
    let ctx = Context::with_all_dialects();
    let ours = Analyzer::with_default_lints().run(&ctx, module);
    (ours, reference::analyzer::run(&ctx, module))
}

fn assert_same(module: &Module, what: &str) {
    let (ours, reference) = both(module);
    assert_eq!(ours, reference, "{what}:\n{}", print_module(module));
}

/// A function over memref arguments in host, device and PLM space, and
/// a body of ops drawn from the kinds the lints declare: allocs,
/// deallocs (twice over, now and then), constant-index loads and stores
/// in and past the extent, copies, selects on constant conditions,
/// loops with empty and shifted ranges, kernel launches and DMAs in
/// every direction. A kind is absent from most draws and alone in
/// some, so a lint that is skipped wrongly shows.
fn random_value_module(draws: &[u64]) -> Module {
    const SPACES: [MemorySpace; 3] = [MemorySpace::Host, MemorySpace::Device, MemorySpace::Plm];
    let mut draws = draws.iter().copied();
    let mut below = |n: usize| (draws.next().unwrap_or(0) % n as u64) as usize;
    let mut m = Module::new();
    let top = m.top_block();
    let arguments: Vec<Type> = (0..1 + below(3))
        .map(|_| Type::memref(&[4], Type::F64, SPACES[below(3)]))
        .collect();
    let (_, body) = build_func(&mut m, top, "f", &arguments, &[]);
    let mut buffers: Vec<ValueId> = m.block(body).args.to_vec();
    let mut scalars: Vec<ValueId> = Vec::new();
    for _ in 0..below(7) {
        let buffer = buffers[below(buffers.len())];
        match below(9) {
            0 => {
                let ty = Type::memref(&[4], Type::F64, SPACES[below(3)]);
                buffers.push(alloc(&mut m, body, ty));
            }
            1 => {
                m.build_op("memref.dealloc", [buffer], []).append_to(body);
            }
            2 => {
                let index = const_index(&mut m, body, below(6) as i64);
                let load = m
                    .build_op("memref.load", [buffer, index], [Type::F64])
                    .append_to(body);
                scalars.push(single_result(&m, load));
            }
            3 => {
                let value = match scalars.len() {
                    0 => const_f64(&mut m, body, 1.0),
                    n => scalars[below(n)],
                };
                let index = const_index(&mut m, body, below(6) as i64);
                m.build_op("memref.store", [value, buffer, index], [])
                    .append_to(body);
            }
            4 => {
                let target = buffers[below(buffers.len())];
                m.build_op("memref.copy", [buffer, target], [])
                    .append_to(body);
            }
            5 => {
                let condition = const_index(&mut m, body, below(3) as i64);
                let (a, b) = (const_f64(&mut m, body, 0.0), const_f64(&mut m, body, 1.0));
                let select = m
                    .build_op("arith.select", [condition, a, b], [Type::F64])
                    .append_to(body);
                scalars.push(single_result(&m, select));
            }
            6 => {
                let lb = const_index(&mut m, body, below(3) as i64);
                let ub = const_index(&mut m, body, below(6) as i64);
                let step = const_index(&mut m, body, 1);
                let (_, inner) = build_for(&mut m, body, lb, ub, step);
                let iv = m.block(inner).args[0];
                let shift = const_index(&mut m, inner, below(4) as i64);
                let index = m
                    .build_op("arith.addi", [iv, shift], [Type::Index])
                    .append_to(inner);
                let index = single_result(&m, index);
                if below(2) == 0 {
                    m.build_op("memref.load", [buffer, index], [Type::F64])
                        .append_to(inner);
                }
                m.build_op("scf.yield", [], []).append_to(inner);
            }
            7 => {
                let operands: Vec<ValueId> = (0..1 + below(2))
                    .map(|_| buffers[below(buffers.len())])
                    .collect();
                m.build_op("olympus.kernel", operands, [])
                    .attr("callee", Attribute::SymbolRef("k".into()))
                    .append_to(body);
            }
            _ => {
                let target = buffers[below(buffers.len())];
                m.build_op("olympus.dma", [buffer, target], [])
                    .attr("direction", ["h2d", "d2h", "d2d"][below(3)])
                    .append_to(body);
            }
        }
    }
    m.build_op("func.return", [], []).append_to(body);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_analyzer_finds_what_each_lint_finds_alone_on_dfg_graphs(
        draws in proptest::collection::vec(any::<u64>(), 8..96),
    ) {
        let module = random_dfg_module(&draws);
        let (ours, reference) = both(&module);
        prop_assert_eq!(&ours, &reference, "{}", print_module(&module));
    }

    #[test]
    fn the_analyzer_finds_what_each_lint_finds_alone_on_memref_modules(
        draws in proptest::collection::vec(any::<u64>(), 8..64),
    ) {
        let module = random_value_module(&draws);
        let (ours, reference) = both(&module);
        prop_assert_eq!(&ours, &reference, "{}", print_module(&module));
    }
}

/// The random memref modules reach a finding of every value lint, so
/// the property above compares them all.
#[test]
fn random_memref_modules_raise_every_value_finding() {
    let mut seen = std::collections::BTreeSet::new();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..512 {
        let draws: Vec<u64> = (0..48)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                state >> 11
            })
            .collect();
        let module = random_value_module(&draws);
        let (ours, reference) = both(&module);
        assert_eq!(ours, reference, "{}", print_module(&module));
        seen.extend(ours.diagnostics.iter().map(|d| d.lint.clone()));
    }
    for lint in [
        "memory-space",
        "memref-use-after-free",
        "memref-double-free",
        "memref-leak",
        "memref-out-of-bounds",
        "interval-out-of-bounds",
        "interval-dead-branch",
        "memory-space-escape",
    ] {
        assert!(seen.contains(lint), "{lint} never raised: {seen:?}");
    }
}

#[test]
fn the_analyzer_finds_what_each_lint_finds_alone_on_the_value_modules() {
    for (at, module) in analysed_modules().iter().enumerate() {
        assert_same(module, &format!("value module {at}"));
    }
}

/// A kernel of the compile corpus's generated shape: `statements`
/// `let`s, each a scaled sum, a select or a row reduction of earlier
/// ones.
fn corpus_kernel(name: &str, statements: usize, mut draw: u64) -> String {
    let mut source = format!(
        "kernel {name} {{\n  index i : 0..16\n  index j : 0..4\n  \
         input a : [i]\n  input b : [i]\n  input m : [i, j]\n"
    );
    for k in 0..statements {
        let prev = if k == 0 {
            "a[i]".to_string()
        } else {
            format!("s{}[i]", k - 1)
        };
        draw = draw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let other = match (draw >> 33) as usize % (k + 2) {
            0 => "a[i]".to_string(),
            1 => "b[i]".to_string(),
            n => format!("s{}[i]", n - 2),
        };
        let line = match (draw >> 40) % 4 {
            0 | 1 => format!("let s{k}[i] = 0.25 * {prev} + 0.125 * {other}"),
            2 => format!("let s{k}[i] = select({prev} <= 0.3, {other}, 0.2 * {prev})"),
            _ => format!("let s{k}[i] = sum(j)(0.2 * m[i, j] * {prev}) + 0.4 * {other}"),
        };
        source.push_str(&format!("  {line}\n"));
    }
    source.push_str(&format!("  output s{}\n}}\n", statements - 1));
    source
}

/// The compile corpus's kinds of module: generated kernels, RRTMG and
/// both CFDlang examples, each as its loop module and its Olympus
/// system IR, and the ConDRust map-matching graph.
fn corpus_modules() -> Vec<(String, Module)> {
    let basecamp = Basecamp::new();
    let options = CompileOptions {
        explore: true,
        ..CompileOptions::default()
    };
    let mut kernels = Vec::new();
    for (n, statements) in [8, 8, 32, 32, 64].into_iter().enumerate() {
        let source = corpus_kernel(&format!("gen_{n}"), statements, n as u64);
        kernels.push(basecamp.compile_kernel(&source, options).expect("compiles"));
    }
    let dims = RrtmgDims {
        nlay: 8,
        ngpt: 4,
        ntemp: 5,
        npres: 10,
        neta: 4,
        nflav: 2,
    };
    let rrtmg = major_absorber_source(dims);
    kernels.push(basecamp.compile_kernel(&rrtmg, options).expect("compiles"));
    for (name, source) in [
        (
            "cfd_matmul",
            "var input A : [16 32]\nvar input B : [32 16]\nvar output C : [16 16]\nC = A . B\n",
        ),
        (
            "cfd_axpy_outer",
            "var input u : [24]\nvar input v : [24]\nvar input w : [12]\n\
             var output T : [24 12]\nT = (u + v) # w\n",
        ),
    ] {
        kernels.push(
            basecamp
                .compile_cfdlang(source, name, options)
                .expect("compiles"),
        );
    }
    let mut modules = Vec::new();
    for kernel in kernels {
        let name = kernel.program.name.clone();
        let system = kernel.system_ir.expect("an FPGA target emits system IR");
        modules.push((format!("{name} system"), system));
        modules.push((name, kernel.module));
    }
    let mapmatch = everest_sdk::everest_usecases::traffic::mapmatch::CONDRUST_MAP_MATCH;
    let program = basecamp.compile_coordination(mapmatch).expect("compiles");
    modules.push(("condrust_map_match".to_string(), program.dfg_ir));
    modules
}

#[test]
fn the_analyzer_finds_what_each_lint_finds_alone_on_the_compile_corpus() {
    let mut findings = 0;
    for (name, module) in corpus_modules() {
        let (ours, reference) = both(&module);
        assert_eq!(ours, reference, "{name}");
        findings += ours.diagnostics.len();
    }
    assert!(findings > 0, "the corpus raises findings to compare");
}

/// The `query_small` workload's twelve templates, one constant draw
/// each, over the catalogs in the order of [`CATALOGS`].
const QUERIES: [(usize, &str); 12] = [
    (0, "SELECT count(*), avg(power_mw) FROM wind_power WHERE wind_ms > 10.5 AND availability > 0.75"),
    (0, "SELECT hour, power_mw FROM wind_power WHERE power_mw > 22.5 ORDER BY power_mw DESC LIMIT 5"),
    (0, "SELECT max(power_mw), min(wind_ms) FROM wind_power WHERE hour >= 120"),
    (0, "SELECT power_mw * 1.25 + 1 AS scaled FROM wind_power WHERE availability > 0.7 LIMIT 6"),
    (1, "SELECT day, max(prob), avg(peak) FROM air_quality WHERE prob >= 0.12 AND true GROUP BY day ORDER BY day"),
    (1, "SELECT receptor, avg(peak) AS mean_peak FROM air_quality WHERE peak > 25.5 GROUP BY receptor ORDER BY mean_peak DESC"),
    (1, "SELECT count(*) FROM air_quality WHERE peak > capacity_limit * 0.85"),
    (1, "SELECT day, receptor, prob FROM air_quality WHERE east_m > 1500 AND 1 + 1 = 2 ORDER BY prob DESC LIMIT 7"),
    (2, "SELECT t.traj_id, sum(s.length_m) AS dist FROM traj_segments t JOIN segments s ON t.seg_id = s.seg_id WHERE s.length_m > 200.5 GROUP BY t.traj_id ORDER BY dist DESC LIMIT 4"),
    (2, "SELECT count(*) FROM segments WHERE length_m > 250.25 AND speed_kmh < 40.5"),
    (2, "SELECT from_node, count(*) AS n, avg(speed_kmh) FROM segments GROUP BY from_node ORDER BY n DESC LIMIT 8"),
    (2, "SELECT seg_id, length_m / speed_kmh AS cost FROM segments WHERE speed_kmh > 25.5 ORDER BY cost LIMIT 9"),
];

const CATALOGS: [Dataset; 3] = [Dataset::Energy, Dataset::AirQuality, Dataset::Traffic];

#[test]
fn the_analyzer_finds_what_each_lint_finds_alone_on_the_query_graphs() {
    for (dataset, sql) in QUERIES {
        let catalog = CATALOGS[dataset].catalog(42).expect("catalog");
        let plan = everest_sdk::everest_query::plan_sql(&catalog, sql).expect("plans");
        let optimizer = Optimizer::for_catalog(&catalog);
        let optimized = optimizer.optimize(&plan);
        let lowered = lower(&optimized, &optimizer, &HlsOptions::default()).expect("lowers");
        assert_same(&lowered.module, sql);
    }
}

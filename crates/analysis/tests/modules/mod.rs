//! Modules the analysis properties run on, shared by the test
//! binaries that compare the analyses with their references.

use everest_ekl::{check::check, lower::lower_to_loops, parser::parse};
use everest_ir::attr::Attribute;
use everest_ir::dialects::core;
use everest_ir::dialects::dataflow::{build_channel, build_graph};
use everest_ir::ids::ValueId;
use everest_ir::module::{single_result, Module};
use everest_ir::types::Type;

/// Modules for the value-level analyses: the golden module, and lowered
/// EKL kernels with loops, reductions, selects and copies.
pub(crate) fn analysed_modules() -> Vec<Module> {
    let mut modules = vec![crate::golden::buggy_module()];
    for source in [
        "kernel axpy {
           index i : 0..64
           input a : [i]
           input x : [i]
           let y[i] = 2.0 * a[i] + x[i] * x[i]
           output y
         }",
        "kernel mixed {
           index i : 0..16
           index j : 0..4
           input a : [i]
           input m : [i, j]
           let s0[i] = select(a[i] <= 0.3, a[i], 0.2 * a[i])
           let s1[i] = sum(j)(0.2 * m[i, j] * s0[i]) + 0.1 * a[i]
           let t[i, j] = m[i, j] * s1[i] + s0[i]
           let d = sum(i)(sum(j)(t[i, j] * t[i, j]))
           let out[i] = d * s1[i]
           output out
         }",
    ] {
        let program = check(&parse(source).expect("parses")).expect("checks");
        modules.push(lower_to_loops(&program).expect("lowers"));
    }
    modules
}

/// A module of one or two `dfg.graph`s (the second inside the first or
/// beside it) built from raw draws: channels of capacity -1 to 16 or
/// none, now and then a value no `dfg.channel` defines, and feeds, sinks
/// and nodes over channels picked at random — so cycles, rings with and
/// without a feed, several writers on one channel and channels nobody
/// reads or writes are all common.
pub(crate) fn random_dfg_module(draws: &[u64]) -> Module {
    let mut draws = draws.iter().copied();
    let mut below = |n: usize| (draws.next().unwrap_or(0) % n as u64) as usize;
    let mut m = Module::new();
    let mut parent = m.top_block();
    for g in 0..1 + below(2) {
        let (_, body) = build_graph(&mut m, parent, &format!("g{g}"));
        let mut channels = Vec::new();
        for _ in 0..1 + below(7) {
            channels.push(match below(9) {
                0 => {
                    let stream = Type::Stream(Box::new(Type::F64));
                    let op = m.build_op("dfg.channel", [], [stream]).append_to(body);
                    single_result(&m, op)
                }
                1 => core::const_f64(&mut m, body, 0.0),
                k => build_channel(&mut m, body, Type::F64, [-1, 0, 1, 1, 1, 2, 16][k - 2]),
            });
        }
        for _ in 0..below(10) {
            let c = channels[below(channels.len())];
            match below(5) {
                0 => {
                    m.build_op("dfg.feed", [c], [])
                        .attr("name", "in")
                        .append_to(body);
                }
                1 => {
                    m.build_op("dfg.sink", [c], [])
                        .attr("name", "out")
                        .append_to(body);
                }
                _ => {
                    let mut operands: Vec<ValueId> = (0..below(3))
                        .map(|_| channels[below(channels.len())])
                        .collect();
                    operands.push(c);
                    m.build_op("dfg.node", operands, [])
                        .attr("callee", Attribute::SymbolRef("k".into()))
                        .append_to(body);
                }
            }
        }
        m.build_op("dfg.yield", [], []).append_to(body);
        if below(2) == 0 {
            parent = body;
        }
    }
    m
}

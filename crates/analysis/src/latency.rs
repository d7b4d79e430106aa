//! Static worst-case latency analysis: per-op HLS cycle estimates
//! propagated through loops, calls, and the dataflow graph to a
//! provable per-kernel latency bound.
//!
//! The per-op figures come from [`everest_hls::CostLibrary`] — the same
//! table the HLS scheduler uses — so the bound is consistent with what
//! synthesis would report. Structured control flow multiplies by loop
//! trip counts proven by the interval fixpoint ([`crate::interval`]);
//! `func.call` recurses into callees (memoized, recursion ⇒ unbounded);
//! `dfg.graph` takes the longest path over actors via the
//! [`crate::fixpoint`] solver, with each `dfg.node`'s cost taken from
//! its callee's bound where the symbol resolves.
//!
//! A bound is *proven*: if any loop bound is not statically finite or a
//! dfg cycle makes path length diverge, the kernel is reported
//! unbounded rather than guessed at.
//!
//! Lints:
//!
//! * `latency-deadline` (deny) — an op carrying a `deadline_us`
//!   attribute whose proven worst-case latency exceeds it. Flow-built
//!   IR carries no such attribute, so this only fires where a deadline
//!   was explicitly claimed (e.g. by the serving tier's feasibility
//!   probe).
//! * `latency-unbounded` (warn) — an op claiming a `deadline_us` whose
//!   latency cannot be statically bounded at all.
//!
//! The serving tier consumes [`module_worst_case_us`] to reject
//! statically infeasible kernel classes at admission (see
//! `everest-serve`), closing the static-analysis → runtime loop.

use std::collections::BTreeMap;

use everest_hls::{CostLibrary, NumericFormat};
use everest_ir::ids::OpId;
use everest_ir::module::{Module, Operation};
use everest_ir::registry::Context;

use crate::diagnostics::Severity;
use crate::fixpoint::{solve, FlowGraph, Lattice};
use crate::interval::{self, Interval, IntervalFacts};
use crate::lint::{Collector, Lint, LintInfo};

/// Lints implemented by [`WorstCaseLatency`].
pub(crate) const LATENCY_LINTS: &[LintInfo] = &[
    LintInfo {
        id: "latency-deadline",
        description: "proven worst-case latency exceeds the declared deadline_us",
        default_severity: Severity::Deny,
    },
    LintInfo {
        id: "latency-unbounded",
        description: "a declared deadline_us cannot be statically proven (unbounded latency)",
        default_severity: Severity::Warn,
    },
];

const DEADLINE: &str = "latency-deadline";
const UNBOUNDED: &str = "latency-unbounded";

/// Default cost charged for a `dfg` actor whose callee does not resolve
/// to a bounded function in the module.
const DEFAULT_ACTOR_CYCLES: u64 = 64;

/// A proven worst-case latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LatencyBound {
    /// Worst-case cycles at the cost library's clock.
    pub cycles: u64,
    /// The same bound in microseconds.
    pub us: f64,
}

/// Longest-path lattice for the dfg fixpoint: max over paths, with an
/// explicit top for "a cycle keeps growing this".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathCycles {
    Bottom,
    Finite(u64),
    Unbounded,
}

impl Lattice for PathCycles {
    fn bottom() -> PathCycles {
        PathCycles::Bottom
    }

    fn join(&self, other: &PathCycles) -> PathCycles {
        match (*self, *other) {
            (PathCycles::Unbounded, _) | (_, PathCycles::Unbounded) => PathCycles::Unbounded,
            (PathCycles::Bottom, x) | (x, PathCycles::Bottom) => x,
            (PathCycles::Finite(a), PathCycles::Finite(b)) => PathCycles::Finite(a.max(b)),
        }
    }
}

/// The whole-module latency analysis, memoizing per-function bounds.
struct LatencyModel<'m> {
    module: &'m Module,
    costs: CostLibrary,
    /// The module's interval fixpoint, for loop trip counts.
    facts: &'m IntervalFacts,
    /// `None` in the map means "analysis in progress or unbounded".
    memo: BTreeMap<String, Option<u64>>,
    in_progress: Vec<String>,
}

impl<'m> LatencyModel<'m> {
    fn new(module: &'m Module, facts: &'m IntervalFacts) -> LatencyModel<'m> {
        LatencyModel {
            module,
            costs: CostLibrary::default(),
            facts,
            memo: BTreeMap::new(),
            in_progress: Vec::new(),
        }
    }

    fn us_of(&self, cycles: u64) -> f64 {
        cycles as f64 * self.costs.clock_ns / 1000.0
    }

    fn op_cycles(&self, operation: &Operation) -> u64 {
        let result_ty = operation
            .results
            .first()
            .map(|&v| self.module.value_type(v));
        self.costs
            .op_cost(&operation.name, result_ty, NumericFormat::F64)
            .latency as u64
    }

    /// Worst-case trip count of an `scf.for`, if provable.
    fn trip_count(&self, operation: &Operation) -> Option<u64> {
        let [lb, ub, step, ..] = operation.operands.as_slice() else {
            return None;
        };
        let (Interval::Range { lo: lb_lo, .. }, Interval::Range { hi: ub_hi, .. }) =
            (self.facts.of(*lb), self.facts.of(*ub))
        else {
            return None;
        };
        let step_lo = match self.facts.of(*step) {
            Interval::Range { lo, .. } if lo >= 1 => lo,
            _ => return None,
        };
        if lb_lo == i64::MIN || ub_hi == i64::MAX {
            return None;
        }
        let span = (ub_hi - lb_lo).max(0) as u64;
        Some(span.div_ceil(step_lo as u64))
    }

    /// Worst-case cycles of one op, including nested regions.
    fn cycles_of_op(&mut self, op_id: OpId) -> Option<u64> {
        // The module outlives the model: borrow from it, not from `self`.
        let module = self.module;
        let operation = module.op(op_id)?;
        match operation.name.as_str() {
            "scf.for" => {
                let trips = self.trip_count(operation)?;
                let mut body = 0u64;
                for &region in &operation.regions {
                    for &block in &module.region(region).blocks {
                        for &inner in &module.block(block).ops {
                            body = body.saturating_add(self.cycles_of_op(inner)?);
                        }
                    }
                }
                // One cycle of loop control per iteration.
                Some(trips.saturating_mul(body.saturating_add(1)))
            }
            "func.call" => self.function_cycles(callee_of(operation)?),
            "dfg.graph" => self.graph_cycles(op_id),
            _ => {
                let mut total = self.op_cycles(operation);
                for &region in &operation.regions {
                    for &block in &module.region(region).blocks {
                        for &inner in &module.block(block).ops {
                            total = total.saturating_add(self.cycles_of_op(inner)?);
                        }
                    }
                }
                Some(total)
            }
        }
    }

    /// Memoized worst-case cycles of a named function.
    fn function_cycles(&mut self, symbol: &str) -> Option<u64> {
        if let Some(&cached) = self.memo.get(symbol) {
            return cached;
        }
        if self.in_progress.iter().any(|s| s == symbol) {
            // Recursion: no static bound.
            return None;
        }
        let module = self.module;
        let func = module.lookup_symbol(symbol)?;
        self.in_progress.push(symbol.to_string());
        let mut total = Some(0u64);
        if let Some(operation) = module.op(func) {
            'body: for &region in &operation.regions {
                for &block in &module.region(region).blocks {
                    for &inner in &module.block(block).ops {
                        match (total, self.cycles_of_op(inner)) {
                            (Some(acc), Some(c)) => total = Some(acc.saturating_add(c)),
                            _ => {
                                total = None;
                                break 'body;
                            }
                        }
                    }
                }
            }
        }
        self.in_progress.pop();
        self.memo.insert(symbol.to_string(), total);
        total
    }

    /// Longest actor path through a `dfg.graph`, via the fixpoint
    /// solver. Channels are edges writer → reader; a graph cycle makes
    /// the path length diverge and the bound unprovable.
    fn graph_cycles(&mut self, graph_op: OpId) -> Option<u64> {
        // Collect actors and the channel wiring, like the structural
        // dfg lint: a node's last operand is its own output channel.
        let mut actors: Vec<OpId> = Vec::new();
        let mut writer_of: BTreeMap<everest_ir::ids::ValueId, usize> = BTreeMap::new();
        let mut reads: Vec<Vec<everest_ir::ids::ValueId>> = Vec::new();
        for nested in self.module.walk_nested(graph_op) {
            if nested == graph_op {
                continue;
            }
            let Some(operation) = self.module.op(nested) else {
                continue;
            };
            match operation.name.as_str() {
                "dfg.feed" => {
                    let index = actors.len();
                    actors.push(nested);
                    reads.push(Vec::new());
                    if let Some(&out) = operation.operands.first() {
                        writer_of.insert(out, index);
                    }
                }
                "dfg.node" => {
                    let index = actors.len();
                    actors.push(nested);
                    if let Some((&out, inputs)) = operation.operands.split_last() {
                        writer_of.insert(out, index);
                        reads.push(inputs.to_vec());
                    } else {
                        reads.push(Vec::new());
                    }
                }
                "dfg.sink" => {
                    actors.push(nested);
                    reads.push(operation.operands.to_vec());
                }
                _ => {}
            }
        }
        // Per-actor cost: resolve dfg.node callees to function bounds.
        let mut actor_cost = Vec::with_capacity(actors.len());
        let module = self.module;
        for &actor in &actors {
            let cost = match module.op(actor) {
                Some(op) if op.name == "dfg.node" => callee_of(op)
                    .and_then(|callee| self.function_cycles(callee))
                    .unwrap_or(DEFAULT_ACTOR_CYCLES),
                _ => 1,
            };
            actor_cost.push(cost);
        }
        let mut edges = Vec::new();
        for (index, read) in reads.iter().enumerate() {
            for channel in read {
                if let Some(&writer) = writer_of.get(channel) {
                    edges.push((writer as u32, index as u32));
                }
            }
        }
        let budget = 4 * (actors.len() + edges.len()) * (actors.len() + 1) + 16;
        let graph = FlowGraph::from_edges(actors.len(), edges);
        let result = solve(
            &graph,
            vec![PathCycles::Bottom; actors.len()],
            |node, states: &[PathCycles]| {
                let input = graph
                    .preds(node)
                    .iter()
                    .fold(PathCycles::Bottom, |acc, &p| acc.join(&states[p]));
                match input {
                    PathCycles::Unbounded => PathCycles::Unbounded,
                    PathCycles::Bottom => PathCycles::Finite(actor_cost[node]),
                    PathCycles::Finite(c) => PathCycles::Finite(c.saturating_add(actor_cost[node])),
                }
            },
            budget,
        );
        if !result.converged {
            return None;
        }
        let mut longest = 0u64;
        for state in result.states {
            match state {
                PathCycles::Finite(c) => longest = longest.max(c),
                PathCycles::Unbounded => return None,
                PathCycles::Bottom => {}
            }
        }
        Some(longest)
    }
}

/// The symbol a `func.call` or `dfg.node` names.
fn callee_of(operation: &Operation) -> Option<&str> {
    match operation.attr("callee") {
        Some(everest_ir::attr::Attribute::Str(s))
        | Some(everest_ir::attr::Attribute::SymbolRef(s)) => Some(s),
        _ => None,
    }
}

/// Proven worst-case latency per named kernel (`func.func` symbols and
/// `dfg.graph` symbols at module scope). `None` = unbounded.
pub(crate) fn kernel_bounds(module: &Module) -> BTreeMap<String, Option<LatencyBound>> {
    let facts = interval::compute(module);
    let mut model = LatencyModel::new(module, &facts);
    let mut bounds = BTreeMap::new();
    for op_id in module.walk_ops() {
        let Some(operation) = module.op(op_id) else {
            continue;
        };
        let Some(symbol) = operation.str_attr("sym_name").map(str::to_string) else {
            continue;
        };
        let cycles = match operation.name.as_str() {
            "func.func" => model.function_cycles(&symbol),
            "dfg.graph" => model.graph_cycles(op_id),
            _ => continue,
        };
        bounds.insert(
            symbol,
            cycles.map(|c| LatencyBound {
                cycles: c,
                us: model.us_of(c),
            }),
        );
    }
    bounds
}

/// The worst-case latency across every kernel in the module, in
/// microseconds — the figure the serving tier checks against a class
/// deadline. `None` when nothing is boundable (no kernels, a dynamic
/// loop bound, recursion, or a dfg cycle).
pub fn module_worst_case_us(module: &Module) -> Option<f64> {
    let bounds = kernel_bounds(module);
    if bounds.is_empty() {
        return None;
    }
    let mut worst = 0.0f64;
    for bound in bounds.values() {
        worst = worst.max(bound.as_ref()?.us);
    }
    Some(worst)
}

/// The worst-case-latency lint. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct WorstCaseLatency;

impl Lint for WorstCaseLatency {
    fn name(&self) -> &'static str {
        "latency"
    }

    fn lints(&self) -> &'static [LintInfo] {
        LATENCY_LINTS
    }

    fn run(&self, _ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        // Flow-built IR declares no deadline: then nothing is modelled
        // and the interval facts are not asked for.
        let mut model = None;
        for &op_id in out.walk() {
            let Some(operation) = module.op(op_id) else {
                continue;
            };
            let Some(deadline_us) = operation.attr("deadline_us").and_then(|a| a.as_float()) else {
                continue;
            };
            let model =
                model.get_or_insert_with(|| LatencyModel::new(module, out.interval_facts()));
            let cycles = match operation.name.as_str() {
                "func.func" => operation
                    .str_attr("sym_name")
                    .map(str::to_string)
                    .and_then(|s| model.function_cycles(&s)),
                "dfg.graph" => model.graph_cycles(op_id),
                _ => model.cycles_of_op(op_id),
            };
            match cycles {
                Some(c) => {
                    let us = model.us_of(c);
                    if us > deadline_us {
                        out.emit(
                            DEADLINE,
                            op_id,
                            format!(
                                "proven worst-case latency {us:.3}us ({c} cycles at \
                                 {:.0}MHz) exceeds the declared deadline of \
                                 {deadline_us:.3}us",
                                model.costs.fmax_mhz()
                            ),
                        );
                    }
                }
                None => out.emit(
                    UNBOUNDED,
                    op_id,
                    format!(
                        "worst-case latency cannot be statically bounded, so the \
                         declared deadline of {deadline_us:.3}us is unprovable \
                         (dynamic loop bound, recursion, or dfg cycle)"
                    ),
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::attr::Attribute;
    use everest_ir::dialects::core::{build_for, build_func, const_index};
    use everest_ir::dialects::dataflow::{build_channel, build_graph};
    use everest_ir::types::{MemorySpace, Type};

    use crate::lint::Analyzer;

    fn analyzer() -> Analyzer {
        Analyzer::new().with_lint(Box::new(WorstCaseLatency))
    }

    /// fn body: 16 iterations of one f64 multiply (8 cycles) plus a
    /// load (2) and store (1), so the bound is mechanical to check.
    fn build_kernel(m: &mut Module, name: &str, trips: i64) -> OpId {
        let top = m.top_block();
        let (func, body) = build_func(m, top, name, &[], &[]);
        let buf = m
            .build_op(
                "memref.alloc",
                vec![],
                vec![Type::memref(&[1024], Type::F64, MemorySpace::Plm)],
            )
            .append_to(body);
        let buf = everest_ir::module::single_result(m, buf);
        let lb = const_index(m, body, 0);
        let ub = const_index(m, body, trips);
        let step = const_index(m, body, 1);
        let (_for_op, loop_body) = build_for(m, body, lb, ub, step);
        let iv = m.block(loop_body).args[0];
        let x = m
            .build_op("memref.load", vec![buf, iv], vec![Type::F64])
            .append_to(loop_body);
        let x = everest_ir::module::single_result(m, x);
        let y = m
            .build_op("arith.mulf", vec![x, x], vec![Type::F64])
            .append_to(loop_body);
        let y = everest_ir::module::single_result(m, y);
        m.build_op("memref.store", vec![y, buf, iv], vec![])
            .append_to(loop_body);
        m.build_op("func.return", vec![], vec![]).append_to(body);
        func
    }

    #[test]
    fn loop_bound_multiplies_body_cost() {
        let mut m = Module::new();
        build_kernel(&mut m, "k", 16);
        let bounds = kernel_bounds(&m);
        let bound = bounds["k"].expect("bounded");
        // Per iteration: load 2 + mulf 8 + store 1 + control 1 = 12;
        // constants and alloc are free.
        assert_eq!(bound.cycles, 16 * 12);
        assert!(bound.us > 0.0);
        assert_eq!(module_worst_case_us(&m), Some(bound.us));
    }

    #[test]
    fn deadline_violation_is_denied_and_feasible_deadline_is_clean() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let func = build_kernel(&mut m, "k", 1024);
        let bound_us = module_worst_case_us(&m).expect("bounded");
        // Claim half the proven bound: statically infeasible.
        if let Some(op) = m.op_mut(func) {
            op.attributes
                .insert("deadline_us", Attribute::Float(bound_us / 2.0));
        }
        let report = analyzer().run(&ctx, &m);
        assert_eq!(report.by_lint(DEADLINE).len(), 1, "{}", report.to_text());
        assert!(report.has_denials());
        // Relax to double the bound: provably feasible.
        if let Some(op) = m.op_mut(func) {
            op.attributes
                .insert("deadline_us", Attribute::Float(bound_us * 2.0));
        }
        let report = analyzer().run(&ctx, &m);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn dynamic_loop_bound_is_unbounded() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let (func, body) = build_func(&mut m, top, "k", &[Type::Index], &[]);
        let n = m.block(body).args[0];
        let lb = const_index(&mut m, body, 0);
        let step = const_index(&mut m, body, 1);
        build_for(&mut m, body, lb, n, step);
        m.build_op("func.return", vec![], vec![]).append_to(body);
        if let Some(op) = m.op_mut(func) {
            op.attributes.insert("deadline_us", Attribute::Float(10.0));
        }
        assert_eq!(kernel_bounds(&m)["k"], None);
        assert_eq!(module_worst_case_us(&m), None);
        let report = analyzer().run(&ctx, &m);
        assert_eq!(report.by_lint(UNBOUNDED).len(), 1, "{}", report.to_text());
        assert!(!report.has_denials());
    }

    #[test]
    fn dfg_longest_path_uses_callee_bounds() {
        let mut m = Module::new();
        let top = m.top_block();
        build_kernel(&mut m, "stage", 16);
        let (graph, gbody) = build_graph(&mut m, top, "pipe");
        let c1 = build_channel(&mut m, gbody, Type::F64, 4);
        let c2 = build_channel(&mut m, gbody, Type::F64, 4);
        m.build_op("dfg.feed", vec![c1], vec![])
            .attr("name", "src")
            .append_to(gbody);
        m.build_op("dfg.node", vec![c1, c2], vec![])
            .attr("callee", Attribute::SymbolRef("stage".into()))
            .append_to(gbody);
        m.build_op("dfg.sink", vec![c2], vec![])
            .attr("name", "out")
            .append_to(gbody);
        m.build_op("dfg.yield", vec![], vec![]).append_to(gbody);
        let bounds = kernel_bounds(&m);
        let stage = bounds["stage"].expect("stage bounded").cycles;
        let pipe = bounds["pipe"].expect("pipe bounded").cycles;
        // feed (1) + stage + sink (1) along the longest path.
        assert_eq!(pipe, stage + 2);
        let _ = graph;
    }

    #[test]
    fn dfg_cycle_makes_the_bound_unprovable() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let (graph, gbody) = build_graph(&mut m, top, "ring");
        let a = build_channel(&mut m, gbody, Type::F64, 4);
        let b = build_channel(&mut m, gbody, Type::F64, 4);
        m.build_op("dfg.node", vec![a, b], vec![])
            .attr("callee", Attribute::SymbolRef("f".into()))
            .append_to(gbody);
        m.build_op("dfg.node", vec![b, a], vec![])
            .attr("callee", Attribute::SymbolRef("g".into()))
            .append_to(gbody);
        m.build_op("dfg.yield", vec![], vec![]).append_to(gbody);
        if let Some(op) = m.op_mut(graph) {
            op.attributes.insert("deadline_us", Attribute::Float(10.0));
        }
        assert_eq!(kernel_bounds(&m)["ring"], None);
        let report = analyzer().run(&ctx, &m);
        assert_eq!(report.by_lint(UNBOUNDED).len(), 1, "{}", report.to_text());
    }
}

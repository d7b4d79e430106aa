//! Interval (constant-range) propagation over SSA values, built on the
//! [`crate::fixpoint`] solver.
//!
//! Every integer-like SSA value gets an [`Interval`] fact; transfer
//! functions abstractly evaluate the defining operation (constants,
//! `arith` integer arithmetic, comparisons, selects, `scf.for`
//! induction variables and iter-args, and `func.call`/`func.return`
//! boundaries under a closed-world assumption). The resulting fixpoint
//! powers two lints the syntactic walks cannot express:
//!
//! * `interval-out-of-bounds` (deny) — a `memref.load`/`memref.store`
//!   index whose *entire* proven range lies outside the static extent.
//!   Only proven violations are reported, so flow-produced IR stays
//!   deny-clean; a possibly-out-of-range index is not a finding.
//! * `interval-dead-branch` (warn) — an `arith.select` whose condition
//!   is statically decided, or an `scf.for` that provably executes zero
//!   iterations.
//!
//! Indices that are literally `arith.constant` are left to the
//! syntactic `memref-out-of-bounds` lint in `crate::lifetime`; this
//! analysis reports the flows that lint misses (arithmetic over
//! constants, induction variables, values returned from callees).

use everest_ir::ids::{OpId, ValueId};
use everest_ir::module::{Module, Operation, ValueDef};
use everest_ir::registry::Context;
use everest_ir::types::Type;

use crate::diagnostics::Severity;
use crate::fixpoint::{solve, FlowGraph, Lattice};
use crate::lint::{Collector, Lint, LintInfo};

/// Lints implemented by [`IntervalAnalysis`].
pub(crate) const INTERVAL_LINTS: &[LintInfo] = &[
    LintInfo {
        id: "interval-out-of-bounds",
        description: "memref access whose proven index range lies entirely outside the extent",
        default_severity: Severity::Deny,
    },
    LintInfo {
        id: "interval-dead-branch",
        description: "select or loop whose outcome is statically decided",
        default_severity: Severity::Warn,
    },
];

const OOB: &str = "interval-out-of-bounds";
const DEAD: &str = "interval-dead-branch";

/// Number of times a value's fact may change before its moving bound is
/// widened to infinity. Keeps loop-carried arithmetic finite-height.
const WIDEN_AFTER: u32 = 8;

/// An integer range with `i64::MIN`/`i64::MAX` acting as -inf/+inf.
///
/// `Bottom` is "no value reaches here yet"; `top()` is the unknown
/// full range. Arithmetic saturates at the infinities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interval {
    /// Unreachable / not yet computed.
    Bottom,
    /// All integers in `lo..=hi` (inclusive; sentinels are infinities).
    Range {
        /// Lower bound (`i64::MIN` = unbounded below).
        lo: i64,
        /// Upper bound (`i64::MAX` = unbounded above).
        hi: i64,
    },
}

impl Interval {
    /// The full unknown range.
    pub fn top() -> Interval {
        Interval::Range {
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    /// A single known constant.
    pub fn constant(c: i64) -> Interval {
        Interval::Range { lo: c, hi: c }
    }

    /// A normalized range (an inverted pair collapses to `Bottom`).
    pub fn range(lo: i64, hi: i64) -> Interval {
        if lo > hi {
            Interval::Bottom
        } else {
            Interval::Range { lo, hi }
        }
    }

    /// The constant value, if the range is a singleton.
    pub fn as_constant(&self) -> Option<i64> {
        match *self {
            Interval::Range { lo, hi } if lo == hi => Some(lo),
            _ => None,
        }
    }

    /// True when both ends are finite.
    pub fn is_finite(&self) -> bool {
        matches!(*self, Interval::Range { lo, hi } if lo != i64::MIN && hi != i64::MAX)
    }

    fn binary(self, other: Interval, f: impl Fn(i64, i64, i64, i64) -> Interval) -> Interval {
        match (self, other) {
            (Interval::Range { lo: a, hi: b }, Interval::Range { lo: c, hi: d }) => f(a, b, c, d),
            _ => Interval::Bottom,
        }
    }

    /// Abstract comparison under a predicate name (`eq`, `ne`, `lt`,
    /// `le`, `gt`, `ge`), yielding a boolean interval over `{0, 1}`.
    pub fn compare(self, predicate: &str, other: Interval) -> Interval {
        self.binary(other, |a, b, c, d| {
            let (always, never) = match predicate {
                "lt" => (b < c, a >= d),
                "le" => (b <= c, a > d),
                "gt" => (a > d, b <= c),
                "ge" => (a >= d, b < c),
                "eq" => (a == b && c == d && a == c, b < c || a > d),
                "ne" => (b < c || a > d, a == b && c == d && a == c),
                _ => (false, false),
            };
            if always {
                Interval::constant(1)
            } else if never {
                Interval::constant(0)
            } else {
                Interval::range(0, 1)
            }
        })
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;

    /// Abstract addition.
    fn add(self, other: Interval) -> Interval {
        self.binary(other, |a, b, c, d| Interval::Range {
            lo: inf_add_lo(a, c),
            hi: inf_add_hi(b, d),
        })
    }
}

impl std::ops::Sub for Interval {
    type Output = Interval;

    /// Abstract subtraction.
    fn sub(self, other: Interval) -> Interval {
        self.binary(other, |a, b, c, d| Interval::Range {
            lo: inf_add_lo(a, inf_neg(d)),
            hi: inf_add_hi(b, inf_neg(c)),
        })
    }
}

impl std::ops::Mul for Interval {
    type Output = Interval;

    /// Abstract multiplication (conservative: any infinite end ⇒ top).
    fn mul(self, other: Interval) -> Interval {
        self.binary(other, |a, b, c, d| {
            if a == i64::MIN || b == i64::MAX || c == i64::MIN || d == i64::MAX {
                Interval::top()
            } else {
                let products = [
                    a as i128 * c as i128,
                    a as i128 * d as i128,
                    b as i128 * c as i128,
                    b as i128 * d as i128,
                ];
                let lo = products.iter().min().copied().unwrap_or(0);
                let hi = products.iter().max().copied().unwrap_or(0);
                Interval::Range {
                    lo: clamp_i128(lo),
                    hi: clamp_i128(hi),
                }
            }
        })
    }
}

impl Lattice for Interval {
    fn bottom() -> Interval {
        Interval::Bottom
    }

    fn join(&self, other: &Interval) -> Interval {
        match (*self, *other) {
            (Interval::Bottom, x) | (x, Interval::Bottom) => x,
            (Interval::Range { lo: a, hi: b }, Interval::Range { lo: c, hi: d }) => {
                Interval::Range {
                    lo: a.min(c),
                    hi: b.max(d),
                }
            }
        }
    }
}

fn clamp_i128(x: i128) -> i64 {
    x.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

fn inf_neg(x: i64) -> i64 {
    match x {
        i64::MIN => i64::MAX,
        i64::MAX => i64::MIN,
        v => -v,
    }
}

fn inf_add_lo(a: i64, b: i64) -> i64 {
    if a == i64::MIN || b == i64::MIN {
        i64::MIN
    } else {
        a.saturating_add(b)
    }
}

fn inf_add_hi(a: i64, b: i64) -> i64 {
    if a == i64::MAX || b == i64::MAX {
        i64::MAX
    } else {
        a.saturating_add(b)
    }
}

/// How one SSA value's fact is computed from others. Precomputed once;
/// the operands referenced here become the value's flow-graph edges.
#[derive(Debug, Clone)]
enum Rule<'m> {
    /// Statically unknown.
    Top,
    /// `arith.constant` with an integer payload.
    Const(i64),
    /// Integer binary arithmetic.
    Add(ValueId, ValueId),
    /// Integer subtraction.
    Sub(ValueId, ValueId),
    /// Integer multiplication.
    Mul(ValueId, ValueId),
    /// `arith.cmpi` under a predicate (the module's own text).
    Cmp(&'m str, ValueId, ValueId),
    /// `arith.select cond, a, b`.
    Select(ValueId, ValueId, ValueId),
    /// Value-preserving cast.
    Copy(ValueId),
    /// Join of several sources (loop results, iter-args, call
    /// boundaries under the closed-world assumption).
    Join(Vec<ValueId>),
    /// `scf.for` induction variable: `[lo(lb), hi(ub) - 1]`.
    Induction { lb: ValueId, ub: ValueId },
}

impl Rule<'_> {
    /// Calls `visit` on each value the rule reads, in operand order.
    fn for_each_source(&self, mut visit: impl FnMut(ValueId)) {
        match self {
            Rule::Top | Rule::Const(_) => {}
            Rule::Add(a, b) | Rule::Sub(a, b) | Rule::Mul(a, b) | Rule::Cmp(_, a, b) => {
                visit(*a);
                visit(*b);
            }
            Rule::Select(c, a, b) => {
                visit(*c);
                visit(*a);
                visit(*b);
            }
            Rule::Copy(a) => visit(*a),
            Rule::Join(vs) => vs.iter().copied().for_each(visit),
            Rule::Induction { lb, ub } => {
                visit(*lb);
                visit(*ub);
            }
        }
    }
}

/// The interval fixpoint over a whole module.
#[derive(Debug, Clone)]
pub struct IntervalFacts {
    states: Vec<Interval>,
    /// Transfer-function applications the solve took.
    pub steps: usize,
    /// False when the step budget ran out; facts are then an
    /// under-approximation and must not justify a deny.
    pub converged: bool,
}

impl IntervalFacts {
    /// The proven interval for `value`.
    pub fn of(&self, value: ValueId) -> Interval {
        self.states
            .get(value.index())
            .copied()
            .unwrap_or_else(Interval::top)
    }
}

fn symbol_attr<'m>(operation: &'m Operation, name: &str) -> Option<&'m str> {
    match operation.attr(name)? {
        everest_ir::attr::Attribute::Str(s) => Some(s),
        everest_ir::attr::Attribute::SymbolRef(s) => Some(s),
        _ => None,
    }
}

/// The terminator of an op's first region's entry... for `scf.for` the
/// `scf.yield`, for `func.func` every `func.return`.
fn region_terminators<'m>(module: &'m Module, op: OpId, name: &str) -> Vec<&'m Operation> {
    let mut found = Vec::new();
    for nested in module.walk_nested(op) {
        if nested == op {
            continue;
        }
        if let Some(inner) = module.op(nested) {
            if inner.name == name {
                found.push(inner);
            }
        }
    }
    found
}

/// Direct `scf.yield`s of a `scf.for` body (not those of nested loops).
/// Shared with the escape analysis, which aliases loop results and
/// iter-args the same way.
pub(crate) fn direct_yields<'m>(
    module: &'m Module,
    for_op: &'m Operation,
) -> impl Iterator<Item = &'m Operation> + Clone {
    for_op
        .regions
        .iter()
        .flat_map(move |&r| module.region(r).blocks.iter())
        .flat_map(move |&b| module.block(b).ops.iter())
        .filter_map(move |&o| module.op(o))
        .filter(|o| o.name == "scf.yield")
}

fn build_rules(module: &Module) -> Vec<Rule<'_>> {
    let mut rules = vec![Rule::Top; module.num_values()];
    for op_id in module.walk_ops() {
        let Some(operation) = module.op(op_id) else {
            continue;
        };
        match operation.name.as_str() {
            "arith.constant" => {
                if let (Some(c), Some(&result)) =
                    (operation.int_attr("value"), operation.results.first())
                {
                    rules[result.index()] = Rule::Const(c);
                }
            }
            "arith.addi" => set_binary(&mut rules, operation, Rule::Add),
            "arith.subi" => set_binary(&mut rules, operation, Rule::Sub),
            "arith.muli" => set_binary(&mut rules, operation, Rule::Mul),
            "arith.cmpi" => {
                if let (Some(&result), [a, b, ..]) =
                    (operation.results.first(), operation.operands.as_slice())
                {
                    let pred = operation.str_attr("predicate").unwrap_or("eq");
                    rules[result.index()] = Rule::Cmp(pred, *a, *b);
                }
            }
            "arith.select" => {
                if let (Some(&result), [c, a, b, ..]) =
                    (operation.results.first(), operation.operands.as_slice())
                {
                    rules[result.index()] = Rule::Select(*c, *a, *b);
                }
            }
            "arith.index_cast" => {
                if let (Some(&result), Some(&a)) =
                    (operation.results.first(), operation.operands.first())
                {
                    rules[result.index()] = Rule::Copy(a);
                }
            }
            "scf.for" => {
                let yields = direct_yields(module, operation);
                let inits = &operation.operands[3.min(operation.operands.len())..];
                // Loop results: join of the initial value and every yield.
                for (index, &result) in operation.results.iter().enumerate() {
                    let mut sources = Vec::new();
                    if let Some(&init) = inits.get(index) {
                        sources.push(init);
                    }
                    for y in yields.clone() {
                        if let Some(&v) = y.operands.get(index) {
                            sources.push(v);
                        }
                    }
                    rules[result.index()] = Rule::Join(sources);
                }
                // Body block args: induction variable, then iter-args.
                if let Some(&region) = operation.regions.first() {
                    if let Some(&entry) = module.region(region).blocks.first() {
                        let args = &module.block(entry).args;
                        if let (Some(&iv), [lb, ub, ..]) =
                            (args.first(), operation.operands.as_slice())
                        {
                            rules[iv.index()] = Rule::Induction { lb: *lb, ub: *ub };
                        }
                        for (index, &arg) in args.iter().enumerate().skip(1) {
                            let mut sources = Vec::new();
                            if let Some(&init) = inits.get(index - 1) {
                                sources.push(init);
                            }
                            for y in yields.clone() {
                                if let Some(&v) = y.operands.get(index - 1) {
                                    sources.push(v);
                                }
                            }
                            rules[arg.index()] = Rule::Join(sources);
                        }
                    }
                }
            }
            "func.func" => {
                // Closed world: a function's entry args join the
                // operands of every call site naming it. Uncalled
                // functions keep Top (callable from outside).
                let Some(symbol) = operation.str_attr("sym_name") else {
                    continue;
                };
                let mut call_operands: Vec<Vec<ValueId>> = Vec::new();
                for other in module.walk_ops() {
                    if let Some(call) = module.op(other) {
                        if call.name == "func.call" && symbol_attr(call, "callee") == Some(symbol) {
                            call_operands.push(call.operands.to_vec());
                        }
                    }
                }
                if call_operands.is_empty() {
                    continue;
                }
                if let Some(&region) = operation.regions.first() {
                    if let Some(&entry) = module.region(region).blocks.first() {
                        for (index, &arg) in module.block(entry).args.iter().enumerate() {
                            let sources: Vec<ValueId> = call_operands
                                .iter()
                                .filter_map(|ops| ops.get(index).copied())
                                .collect();
                            if sources.len() == call_operands.len() {
                                rules[arg.index()] = Rule::Join(sources);
                            }
                        }
                    }
                }
            }
            "func.call" => {
                // Call results join the callee's return operands.
                let Some(callee) = symbol_attr(operation, "callee") else {
                    continue;
                };
                let Some(func) = module.lookup_symbol(callee) else {
                    continue;
                };
                let returns = region_terminators(module, func, "func.return");
                if returns.is_empty() {
                    continue;
                }
                for (index, &result) in operation.results.iter().enumerate() {
                    let sources: Vec<ValueId> = returns
                        .iter()
                        .filter_map(|r| r.operands.get(index).copied())
                        .collect();
                    if sources.len() == returns.len() {
                        rules[result.index()] = Rule::Join(sources);
                    }
                }
            }
            _ => {}
        }
    }
    rules
}

fn set_binary<'m>(
    rules: &mut [Rule<'m>],
    operation: &Operation,
    make: fn(ValueId, ValueId) -> Rule<'m>,
) {
    if let (Some(&result), [a, b, ..]) = (operation.results.first(), operation.operands.as_slice())
    {
        rules[result.index()] = make(*a, *b);
    }
}

fn eval(rule: &Rule<'_>, states: &[Interval]) -> Interval {
    let get = |v: &ValueId| states[v.index()];
    match rule {
        Rule::Top => Interval::top(),
        Rule::Const(c) => Interval::constant(*c),
        Rule::Add(a, b) => get(a) + get(b),
        Rule::Sub(a, b) => get(a) - get(b),
        Rule::Mul(a, b) => get(a) * get(b),
        Rule::Cmp(pred, a, b) => get(a).compare(pred, get(b)),
        Rule::Select(c, a, b) => match get(c).as_constant() {
            Some(0) => get(b),
            Some(1) => get(a),
            _ => get(a).join(&get(b)),
        },
        Rule::Copy(a) => get(a),
        Rule::Join(sources) => sources
            .iter()
            .fold(Interval::Bottom, |acc, v| acc.join(&get(v))),
        Rule::Induction { lb, ub } => match (get(lb), get(ub)) {
            (Interval::Range { lo, .. }, Interval::Range { hi, .. }) => {
                // The induction variable ranges over [lb, ub): one below
                // the upper bound, unless that bound is infinite.
                let hi = if hi == i64::MAX { hi } else { hi - 1 };
                Interval::range(lo, hi)
            }
            _ => Interval::Bottom,
        },
    }
}

/// Runs the interval fixpoint over every SSA value of `module`.
///
/// The `IntervalAnalysis` lint and the worst-case-latency analysis in
/// [`crate::latency`] (which needs loop trip counts) both read it; within
/// one [`Analyzer::run`](crate::lint::Analyzer::run) they share one solve
/// through `Collector::interval_facts`.
pub fn compute(module: &Module) -> IntervalFacts {
    let rules = build_rules(module);
    let n = rules.len();
    let mut edges = Vec::with_capacity(2 * n);
    for (index, rule) in rules.iter().enumerate() {
        rule.for_each_source(|source| edges.push((source.index() as u32, index as u32)));
    }
    let mut bumps = vec![0u32; n];
    let budget = 64 * (n + edges.len()) + 64;
    let graph = FlowGraph::from_edges(n, edges);
    let result = solve(
        &graph,
        vec![Interval::Bottom; n],
        |node, states: &[Interval]| {
            let mut fact = eval(&rules[node], states);
            let current = states[node];
            if fact.join(&current) != current {
                bumps[node] += 1;
                if bumps[node] > WIDEN_AFTER {
                    // Widen whichever bound is still moving to infinity
                    // so loop-carried arithmetic terminates.
                    if let (
                        Interval::Range {
                            lo: new_lo,
                            hi: new_hi,
                        },
                        Interval::Range {
                            lo: cur_lo,
                            hi: cur_hi,
                        },
                    ) = (&mut fact, current)
                    {
                        if *new_lo < cur_lo {
                            *new_lo = i64::MIN;
                        }
                        if *new_hi > cur_hi {
                            *new_hi = i64::MAX;
                        }
                    }
                }
            }
            fact
        },
        budget,
    );
    IntervalFacts {
        states: result.states,
        steps: result.steps,
        converged: result.converged,
    }
}

/// Interval/constant-propagation lint. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct IntervalAnalysis;

impl Lint for IntervalAnalysis {
    fn name(&self) -> &'static str {
        "interval"
    }

    fn lints(&self) -> &'static [LintInfo] {
        INTERVAL_LINTS
    }

    fn run(&self, _ctx: &Context, module: &Module, out: &mut Collector<'_>) {
        let facts = out.interval_facts();
        for op_id in module.walk_ops() {
            let Some(operation) = module.op(op_id) else {
                continue;
            };
            match operation.name.as_str() {
                // Deny only when the facts are a sound
                // over-approximation (the solver converged).
                "memref.load" | "memref.store" if facts.converged => {
                    check_access(module, facts, op_id, operation, out);
                }
                "arith.select" => {
                    if let Some(&cond) = operation.operands.first() {
                        match facts.of(cond).as_constant() {
                            Some(0) => out.emit(
                                DEAD,
                                op_id,
                                "select condition is statically always false; the true arm is dead"
                                    .to_string(),
                            ),
                            Some(1) => out.emit(
                                DEAD,
                                op_id,
                                "select condition is statically always true; the false arm is dead"
                                    .to_string(),
                            ),
                            _ => {}
                        }
                    }
                }
                "scf.for" => {
                    if let [lb, ub, ..] = operation.operands.as_slice() {
                        if let (Interval::Range { lo, .. }, Interval::Range { hi, .. }) =
                            (facts.of(*lb), facts.of(*ub))
                        {
                            if lo != i64::MIN && hi != i64::MAX && hi <= lo {
                                out.emit(
                                    DEAD,
                                    op_id,
                                    format!(
                                        "loop provably executes zero iterations \
                                         (bounds [{lo}, {hi}))"
                                    ),
                                );
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

fn check_access(
    module: &Module,
    facts: &IntervalFacts,
    op_id: OpId,
    operation: &Operation,
    out: &mut Collector<'_>,
) {
    let (base_pos, first_index) = if operation.name == "memref.load" {
        (0, 1)
    } else {
        (1, 2)
    };
    let Some(&base) = operation.operands.get(base_pos) else {
        return;
    };
    let Type::MemRef { shape, .. } = module.value_type(base) else {
        return;
    };
    for (dim, &index_value) in operation.operands.iter().skip(first_index).enumerate() {
        // Dynamic extents (`None`) cannot be checked statically.
        let Some(extent) = shape.get(dim).copied().flatten() else {
            continue;
        };
        // Direct constants belong to the syntactic lint.
        if let ValueDef::OpResult { op, .. } = module.value(index_value).def {
            if module.op(op).is_some_and(|o| o.name == "arith.constant") {
                continue;
            }
        }
        if let Interval::Range { lo, hi } = facts.of(index_value) {
            if hi < 0 || (lo != i64::MIN && lo >= 0 && lo as u64 >= extent) {
                out.emit(
                    OOB,
                    op_id,
                    format!(
                        "index range [{lo}, {hi}] for dimension {dim} is provably outside \
                         extent {extent}"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::dialects::core::{build_for, build_func, const_index};
    use everest_ir::types::MemorySpace;

    use crate::lint::Analyzer;

    fn analyzer() -> Analyzer {
        Analyzer::new().with_lint(Box::new(IntervalAnalysis))
    }

    #[test]
    fn interval_arithmetic_is_sane() {
        let a = Interval::range(1, 3);
        let b = Interval::range(10, 20);
        assert_eq!(a + b, Interval::range(11, 23));
        assert_eq!(b - a, Interval::range(7, 19));
        assert_eq!(a * b, Interval::range(10, 60));
        assert_eq!(a.compare("lt", b), Interval::constant(1));
        assert_eq!(b.compare("lt", a), Interval::constant(0));
        assert_eq!(a.compare("lt", a), Interval::range(0, 1));
        assert_eq!(Interval::Bottom.join(&a), a);
    }

    /// An induction variable shifted past the extent: `for i in 0..8 {
    /// load buf[i + 8] }` on a memref of extent 8 is proven OOB even
    /// though no single index is a literal constant.
    #[test]
    fn shifted_induction_variable_is_proven_out_of_bounds() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let buf = m
            .build_op(
                "memref.alloc",
                vec![],
                vec![Type::memref(&[8], Type::F64, MemorySpace::Host)],
            )
            .append_to(top);
        let buf = everest_ir::module::single_result(&m, buf);
        let lb = const_index(&mut m, top, 0);
        let ub = const_index(&mut m, top, 8);
        let step = const_index(&mut m, top, 1);
        let (_for_op, body) = build_for(&mut m, top, lb, ub, step);
        let iv = m.block(body).args[0];
        let shift = const_index(&mut m, body, 8);
        let idx = m
            .build_op("arith.addi", vec![iv, shift], vec![Type::Index])
            .append_to(body);
        let idx = everest_ir::module::single_result(&m, idx);
        m.build_op("memref.load", vec![buf, idx], vec![Type::F64])
            .append_to(body);
        let report = analyzer().run(&ctx, &m);
        assert_eq!(report.by_lint(OOB).len(), 1);
        assert!(report.has_denials());
    }

    /// The same loop without the shift stays clean: [0, 7] fits.
    #[test]
    fn in_bounds_induction_variable_is_clean() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let buf = m
            .build_op(
                "memref.alloc",
                vec![],
                vec![Type::memref(&[8], Type::F64, MemorySpace::Host)],
            )
            .append_to(top);
        let buf = everest_ir::module::single_result(&m, buf);
        let lb = const_index(&mut m, top, 0);
        let ub = const_index(&mut m, top, 8);
        let step = const_index(&mut m, top, 1);
        let (_for_op, body) = build_for(&mut m, top, lb, ub, step);
        let iv = m.block(body).args[0];
        m.build_op("memref.load", vec![buf, iv], vec![Type::F64])
            .append_to(body);
        let report = analyzer().run(&ctx, &m);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn statically_decided_select_is_a_dead_branch() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let a = const_index(&mut m, top, 3);
        let b = const_index(&mut m, top, 7);
        let cond = m
            .build_op("arith.cmpi", vec![a, b], vec![Type::Int(1)])
            .attr("predicate", "lt")
            .append_to(top);
        let cond = everest_ir::module::single_result(&m, cond);
        m.build_op("arith.select", vec![cond, a, b], vec![Type::Index])
            .append_to(top);
        let report = analyzer().run(&ctx, &m);
        assert_eq!(report.by_lint(DEAD).len(), 1);
        assert!(!report.has_denials());
    }

    #[test]
    fn empty_loop_is_a_dead_branch() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        let lb = const_index(&mut m, top, 8);
        let ub = const_index(&mut m, top, 8);
        let step = const_index(&mut m, top, 1);
        build_for(&mut m, top, lb, ub, step);
        let report = analyzer().run(&ctx, &m);
        assert_eq!(report.by_lint(DEAD).len(), 1);
    }

    /// Interprocedural: a constant flows through a call boundary into
    /// an index computation that is proven out of bounds.
    #[test]
    fn constant_through_call_boundary_is_tracked() {
        let ctx = Context::with_all_dialects();
        let mut m = Module::new();
        let top = m.top_block();
        // fn offset(x) { return x } — identity, closed world.
        let (_f, fbody) = build_func(&mut m, top, "offset", &[Type::Index], &[Type::Index]);
        let arg = m.block(fbody).args[0];
        m.build_op("func.return", vec![arg], vec![])
            .append_to(fbody);
        // Caller: load buf[offset(12)] on extent 8.
        let buf = m
            .build_op(
                "memref.alloc",
                vec![],
                vec![Type::memref(&[8], Type::F64, MemorySpace::Host)],
            )
            .append_to(top);
        let buf = everest_ir::module::single_result(&m, buf);
        let big = const_index(&mut m, top, 12);
        let call = m
            .build_op("func.call", vec![big], vec![Type::Index])
            .attr(
                "callee",
                everest_ir::attr::Attribute::SymbolRef("offset".into()),
            )
            .append_to(top);
        let idx = everest_ir::module::single_result(&m, call);
        m.build_op("memref.load", vec![buf, idx], vec![Type::F64])
            .append_to(top);
        let report = analyzer().run(&ctx, &m);
        assert_eq!(report.by_lint(OOB).len(), 1, "{}", report.to_text());
    }
}

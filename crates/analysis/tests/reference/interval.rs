//! The interval fixpoint of `everest_analysis::interval` as of the
//! commit before the CSR graph: a `String` per comparison, a `Vec` of
//! sources per rule per solve. The interval arithmetic itself is the
//! crate's.

use everest_analysis::interval::Interval;
use everest_analysis::{Fixpoint, Lattice};
use everest_ir::ids::{OpId, ValueId};
use everest_ir::module::{Module, Operation};

use super::fixpoint::{solve, FlowGraph};

/// Number of times a value's fact may change before its moving bound is
/// widened to infinity.
const WIDEN_AFTER: u32 = 8;

/// How one SSA value's fact is computed from others. Precomputed once;
/// the operands referenced here become the value's flow-graph edges.
#[derive(Debug, Clone)]
enum Rule {
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
    /// `arith.cmpi` under a predicate.
    Cmp(String, ValueId, ValueId),
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

impl Rule {
    fn sources(&self) -> Vec<ValueId> {
        match self {
            Rule::Top | Rule::Const(_) => Vec::new(),
            Rule::Add(a, b) | Rule::Sub(a, b) | Rule::Mul(a, b) | Rule::Cmp(_, a, b) => {
                vec![*a, *b]
            }
            Rule::Select(c, a, b) => vec![*c, *a, *b],
            Rule::Copy(a) => vec![*a],
            Rule::Join(vs) => vs.clone(),
            Rule::Induction { lb, ub } => vec![*lb, *ub],
        }
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
fn direct_yields<'m>(module: &'m Module, for_op: &Operation) -> Vec<&'m Operation> {
    let mut found = Vec::new();
    for &region in &for_op.regions {
        for &block in &module.region(region).blocks {
            for &inner in &module.block(block).ops {
                if let Some(operation) = module.op(inner) {
                    if operation.name == "scf.yield" {
                        found.push(operation);
                    }
                }
            }
        }
    }
    found
}

fn build_rules(module: &Module) -> Vec<Rule> {
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
                    let pred = operation.str_attr("predicate").unwrap_or("eq").to_string();
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
                    for y in &yields {
                        if let Some(&v) = y.operands.get(index) {
                            sources.push(v);
                        }
                    }
                    rules[result.index()] = Rule::Join(sources);
                }
                // Body block args: induction variable, then iter-args.
                if let Some(&region) = operation.regions.first() {
                    if let Some(&entry) = module.region(region).blocks.first() {
                        let args = module.block(entry).args.clone();
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
                            for y in &yields {
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

fn set_binary(rules: &mut [Rule], operation: &Operation, make: fn(ValueId, ValueId) -> Rule) {
    if let (Some(&result), [a, b, ..]) = (operation.results.first(), operation.operands.as_slice())
    {
        rules[result.index()] = make(*a, *b);
    }
}

fn eval(rule: &Rule, states: &[Interval]) -> Interval {
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
pub(crate) fn compute(module: &Module) -> Fixpoint<Interval> {
    let rules = build_rules(module);
    let n = rules.len();
    let mut graph = FlowGraph::new(n);
    let mut edges = 0usize;
    for (index, rule) in rules.iter().enumerate() {
        for source in rule.sources() {
            graph.add_edge(source.index(), index);
            edges += 1;
        }
    }
    let mut bumps = vec![0u32; n];
    let budget = 64 * (n + edges) + 64;
    solve(
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
    )
}

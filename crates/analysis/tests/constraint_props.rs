//! The declared constraint lists against what they replaced: the
//! fifteen per-op verifiers and the old `type-mismatch` lint, kept under
//! `tests/reference/`.
//!
//! Every registered op is built alone in a module, at its spec's arity,
//! with operand and result types drawn from [`types`] (every tuple up to
//! two values, a fixed-seed sample above), its rule attributes drawn
//! from valid and invalid values, and `func.func` and `scf.for` bodies
//! drawn the same way. On each:
//!
//! * `verify_module` fails exactly when the reference verifier or the
//!   reference lint does, and its message is one the new lint reports;
//! * the new lint reports every rule the reference lint and verifier
//!   report, and nothing else but rules the reference verifier reports
//!   for that op kind on some draw — it stops at an op's first
//!   violation, the lint reports them all.
//!
//! Rules are compared by [`rule`], which maps old and new spellings of
//! one rule to one name: a memref access is one rule whether its base,
//! rank, subscripts or element type is wrong, so the old lint's one
//! finding per bad subscript is one rule here.
//!
//! One divergence is deliberate and checked as such: a `dfg.channel`
//! whose `capacity` is not an integer fails now, as a non-integer
//! `banks` or `factor` always did; the old channel verifier ignored it.

mod reference;

use std::collections::{BTreeMap, BTreeSet};

use everest_analysis::Analyzer;
use everest_ir::attr::Attribute;
use everest_ir::ids::{BlockId, OpId, ValueId};
use everest_ir::module::{single_result, Module};
use everest_ir::registry::{Arity, Context, OpSpec};
use everest_ir::types::{FixedFormat, MemorySpace, PositFormat, Type};
use everest_ir::verify::verify_module;
use everest_ir::IrError;

use reference::typecheck::TypeCheck as ReferenceTypeCheck;
use reference::verifiers::verifier;

/// The types every port is drawn from.
fn types() -> Vec<Type> {
    vec![
        Type::F64,
        Type::F32,
        Type::Index,
        Type::Int(1),
        Type::Int(32),
        Type::Fixed(FixedFormat::signed(7, 8)),
        Type::Posit(PositFormat::new(16, 1)),
        Type::memref(&[8], Type::F64, MemorySpace::Device),
        Type::memref(&[4, 4], Type::F64, MemorySpace::Plm),
        Type::Stream(Box::new(Type::F64)),
        Type::Token,
    ]
}

/// Values drawn for the attributes a rule reads; `None` leaves it off.
fn rule_attr_values(name: &str) -> Option<Vec<Option<Attribute>>> {
    let ints = || {
        [4, 0, -1, 96]
            .map(|v| Some(Attribute::Int(v)))
            .into_iter()
            .chain([Some(Attribute::Str("h2d".into()))])
    };
    Some(match name {
        "banks" | "factor" | "width_bits" => ints().collect(),
        "capacity" => ints().chain([None]).collect(),
        "direction" => ["h2d", "d2h", "d2d", "sideways"]
            .map(|s| Some(Attribute::Str(s.into())))
            .into_iter()
            .chain([Some(Attribute::Int(1))])
            .collect(),
        _ => return None,
    })
}

/// A valid value for an attribute no rule reads.
fn plain_attr(name: &str) -> Attribute {
    match name {
        "callee" | "kernel" => Attribute::SymbolRef("k".into()),
        "value" => Attribute::Float(1.0),
        _ => Attribute::Str("k".into()),
    }
}

/// A fixed-seed SplitMix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn types(&mut self, pool: &[Type], n: usize) -> Vec<Type> {
        (0..n)
            .map(|_| pool[self.below(pool.len())].clone())
            .collect()
    }
}

/// Every tuple of `n` types from `pool` when there are at most `cap`,
/// else `cap` sampled ones.
fn tuples(pool: &[Type], n: usize, cap: usize, rng: &mut Rng) -> Vec<Vec<Type>> {
    if pool.len().pow(n as u32) > cap {
        return (0..cap).map(|_| rng.types(pool, n)).collect();
    }
    (0..n).fold(vec![Vec::new()], |acc, _| {
        acc.iter()
            .flat_map(|prefix| {
                pool.iter().map(move |t| {
                    let mut next = prefix.clone();
                    next.push(t.clone());
                    next
                })
            })
            .collect()
    })
}

fn counts(arity: Arity) -> Vec<usize> {
    match arity {
        Arity::Exact(n) => vec![n],
        Arity::AtLeast(n) => vec![n, n + 1],
        Arity::Variadic => vec![0, 1, 2],
    }
}

/// `arith.constant`s of `types` at the end of `block`.
fn values(m: &mut Module, block: BlockId, types: &[Type]) -> Vec<ValueId> {
    types
        .iter()
        .map(|ty| {
            let op = m
                .build_op("arith.constant", [], [ty.clone()])
                .attr("value", Attribute::Float(1.0))
                .append_to(block);
            single_result(m, op)
        })
        .collect()
}

/// One drawn op: its module, the op, and what was drawn, for messages.
struct Draw {
    module: Module,
    op: OpId,
    what: String,
}

/// The op `name` alone in a module, with the given ports and attributes
/// and empty region blocks.
fn build(
    spec: &OpSpec,
    name: &str,
    operands: &[Type],
    results: &[Type],
    attrs: &[(String, Attribute)],
) -> (Module, OpId) {
    let mut m = Module::new();
    let top = m.top_block();
    let operands = values(&mut m, top, operands);
    let mut builder = m
        .build_op(name, operands, results.to_vec())
        .regions(spec.num_regions);
    for (attr, value) in attrs {
        builder = builder.attr(attr.as_str(), value.clone());
    }
    let op = builder.append_to(top);
    (m, op)
}

/// Every draw of every registered op.
fn draws(ctx: &Context, rng: &mut Rng) -> Vec<Draw> {
    let pool = types();
    let mut out = Vec::new();
    for dialect in ctx.dialect_names() {
        let dialect = ctx.dialect(dialect).expect("registered");
        for spec in dialect.iter() {
            let name = format!("{}.{}", dialect.name, spec.name);
            match name.as_str() {
                "func.func" => func_draws(rng, &pool, &mut out),
                "scf.for" => for_draws(spec, rng, &pool, &mut out),
                _ => plain_draws(spec, &name, rng, &pool, &mut out),
            }
        }
    }
    out
}

fn plain_draws(spec: &OpSpec, name: &str, rng: &mut Rng, pool: &[Type], out: &mut Vec<Draw>) {
    let mut attr_names = spec.required_attrs.clone();
    if name == "dfg.channel" {
        attr_names.push("capacity".into());
    }
    // Every combination of the rule attributes' values.
    let mut attr_sets: Vec<Vec<(String, Attribute)>> = vec![Vec::new()];
    for attr in &attr_names {
        let choices = rule_attr_values(attr).unwrap_or_else(|| vec![Some(plain_attr(attr))]);
        attr_sets = attr_sets
            .iter()
            .flat_map(|set| {
                choices.iter().map(move |choice| {
                    let mut next = set.clone();
                    next.extend(choice.clone().map(|v| (attr.clone(), v)));
                    next
                })
            })
            .collect();
    }
    for n_operands in counts(spec.operands) {
        for n_results in counts(spec.results) {
            let n = n_operands + n_results;
            for tuple in tuples(pool, n, 300, rng) {
                let (operands, results) = tuple.split_at(n_operands);
                for attrs in &attr_sets {
                    let (module, op) = build(spec, name, operands, results, attrs);
                    let region_ids = module.op(op).expect("built").regions.to_vec();
                    let mut module = module;
                    for region in region_ids {
                        module.add_block(region, &[]);
                    }
                    out.push(Draw {
                        module,
                        op,
                        what: format!("{name} {operands:?} -> {results:?} {attrs:?}"),
                    });
                }
            }
        }
    }
}

/// `func.func`s over drawn signatures, entry arguments and returns.
fn func_draws(rng: &mut Rng, pool: &[Type], out: &mut Vec<Draw>) {
    let list = |rng: &mut Rng| {
        let n = rng.below(3).min(1);
        rng.types(pool, n)
    };
    for draw in 0..3000 {
        let (inputs, outputs) = (list(rng), list(rng));
        let function_type = match draw % 20 {
            0 => Attribute::Ty(Box::new(Type::F64)),
            1 => Attribute::Str("f".into()),
            _ => Attribute::Ty(Box::new(Type::Function {
                inputs: inputs.clone(),
                outputs: outputs.clone(),
            })),
        };
        let (args, returned) = match rng.below(2) {
            0 => (inputs.clone(), list(rng)),
            _ => (list(rng), outputs.clone()),
        };
        let mut m = Module::new();
        let top = m.top_block();
        let f = m
            .build_op("func.func", [], [])
            .attr("sym_name", "k")
            .attr("function_type", function_type.clone())
            .regions(1)
            .append_to(top);
        let region = m.op(f).expect("built").regions[0];
        let no_body = draw % 50 == 3;
        if !no_body {
            let entry = m.add_block(region, &args);
            let returned_values = values(&mut m, entry, &returned);
            m.build_op("func.return", returned_values, [])
                .append_to(entry);
        }
        out.push(Draw {
            module: m,
            op: f,
            what: format!(
                "func.func {function_type:?} args {args:?} returns {returned:?} body {}",
                !no_body
            ),
        });
    }
}

/// `scf.for`s over drawn bounds, iter args, results and body arguments.
fn for_draws(spec: &OpSpec, rng: &mut Rng, pool: &[Type], out: &mut Vec<Draw>) {
    let index = [
        Type::Index,
        Type::Index,
        Type::Index,
        Type::F64,
        Type::Int(32),
    ];
    for draw in 0..1500 {
        let n_operands = counts(spec.operands)[rng.below(2)];
        let mut operands = rng.types(&index, 3);
        operands.extend(rng.types(pool, n_operands - 3));
        let (n_results, n_args) = (rng.below(3), rng.below(3));
        let results = rng.types(pool, n_results);
        let body_args = rng.types(&index, n_args);
        let (mut m, op) = build(spec, "scf.for", &operands, &results, &[]);
        let region = m.op(op).expect("built").regions[0];
        let no_body = draw % 50 == 7;
        if !no_body {
            let body = m.add_block(region, &body_args);
            m.build_op("scf.yield", [], []).append_to(body);
        }
        out.push(Draw {
            module: m,
            op,
            what: format!(
                "scf.for {operands:?} -> {results:?} body {body_args:?} {}",
                !no_body
            ),
        });
    }
}

/// The rule a message reports: one name for the old and new spellings
/// of one rule.
fn rule(message: &str) -> String {
    const FAMILIES: &[(&str, &str)] = &[
        ("function_type", "func-entry"),
        ("function body", "func-entry"),
        ("entry block has", "func-entry"),
        ("entry argument", "func-entry"),
        ("return types", "func-return"),
        ("scf.for lb ", "class:lb"),
        ("scf.for ub ", "class:ub"),
        ("scf.for step ", "class:step"),
        ("iter args", "for-body"),
        ("scf.for body", "for-body"),
        ("operand 0 must be a memref", "memref-access"),
        ("operand 1 must be a memref", "memref-access"),
        ("first operand must be a memref", "memref-access"),
        ("second operand must be a memref", "memref-access"),
        ("expected a memref operand", "memref-access"),
        ("memref of rank", "memref-access"),
        ("memref index", "memref-access"),
        ("does not match element type", "memref-access"),
        ("capacity", "attr:capacity"),
        ("banks", "attr:banks"),
        ("direction", "attr:direction"),
        ("factor", "attr:factor"),
        ("width_bits", "attr:width_bits"),
        ("lane width", "attr:width_bits"),
        ("select arms", "equal"),
        ("true value and false value", "equal"),
        ("types differ", "same-types"),
        ("share one format", "same-types"),
        ("float arithmetic on", "class:operands"),
        ("integer arithmetic on", "class:operands"),
        ("dma operands", "class:operands"),
        ("node ports", "class:ports"),
        ("comparison must produce", "class:result"),
        ("channel must produce", "class:result"),
        ("plm must produce", "class:result"),
        ("quantize result", "class:result"),
        ("quantize source", "class:source"),
        ("base2 arithmetic requires", "class:lhs"),
        ("select condition", "class:condition"),
    ];
    if let Some((_, family)) = FAMILIES.iter().find(|(text, _)| message.contains(text)) {
        return family.to_string();
    }
    let port = message
        .split_once(" must be ")
        .unwrap_or_else(|| panic!("no rule spells {message:?}"))
        .0;
    format!("class:{port}")
}

fn type_mismatches(analyzer: &Analyzer, ctx: &Context, m: &Module) -> Vec<String> {
    let report = analyzer.run(ctx, m);
    let findings = report.by_lint("type-mismatch");
    findings.iter().map(|d| d.message.clone()).collect()
}

#[test]
fn declared_constraints_check_what_the_verifiers_and_the_lint_checked() {
    let ctx = Context::with_all_dialects();
    let new_lint = Analyzer::with_default_lints();
    let old_lint = Analyzer::new().with_lint(Box::new(ReferenceTypeCheck));
    let draws = draws(&ctx, &mut Rng(0x5eed));

    struct Outcome {
        name: String,
        new_verify: Result<(), IrError>,
        new: Vec<String>,
        old_verify: Option<String>,
        old: Vec<String>,
        tightened: bool,
    }
    let outcomes: Vec<(&Draw, Outcome)> = draws
        .iter()
        .map(|draw| {
            let m = &draw.module;
            let operation = m.op(draw.op).expect("built");
            let name = operation.name.to_string();
            let old_verify = verifier(&name)
                .and_then(|f| f(m, draw.op).err())
                .map(|e| match e {
                    IrError::Verification { message, .. } => message,
                    other => panic!("{}: reference verifier gave {other}", draw.what),
                });
            let tightened = name == "dfg.channel"
                && operation
                    .attr("capacity")
                    .is_some_and(|a| a.as_int().is_none());
            let outcome = Outcome {
                new_verify: verify_module(&ctx, m),
                new: type_mismatches(&new_lint, &ctx, m),
                old_verify,
                old: type_mismatches(&old_lint, &ctx, m),
                tightened,
                name,
            };
            (draw, outcome)
        })
        .collect();

    // The rules the reference verifier reports for each op kind.
    let mut verifier_rules: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (_, o) in &outcomes {
        if let Some(message) = &o.old_verify {
            verifier_rules
                .entry(o.name.as_str())
                .or_default()
                .insert(rule(message));
        }
    }

    let (mut flagged, mut tightened) = (0, 0);
    for (draw, o) in &outcomes {
        let what = &draw.what;
        let new_rules: BTreeSet<String> = o.new.iter().map(|m| rule(m)).collect();
        assert_eq!(
            new_rules.len(),
            o.new.len(),
            "{what}: two findings of one rule {:?}",
            o.new
        );
        let mut old_rules: BTreeSet<String> = o.old.iter().map(|m| rule(m)).collect();
        old_rules.extend(o.old_verify.as_deref().map(rule));
        if o.tightened && new_rules.contains("attr:capacity") {
            tightened += 1;
            old_rules.insert("attr:capacity".into());
        }
        let old_fails = o.old_verify.is_some() || !o.old.is_empty() || o.tightened;
        match &o.new_verify {
            Ok(()) => assert!(
                !old_fails,
                "{what}: verifies now, failed before: {:?} {:?}",
                o.old_verify, o.old
            ),
            Err(IrError::Verification { message, .. }) => {
                assert!(old_fails, "{what}: fails now ({message}), verified before");
                assert!(
                    o.new.contains(message),
                    "{what}: {message} is not among {:?}",
                    o.new
                );
            }
            Err(other) => panic!("{what}: structural error {other}"),
        }
        flagged += usize::from(old_fails);
        let missing: Vec<_> = old_rules.difference(&new_rules).collect();
        assert!(
            missing.is_empty(),
            "{what}: {missing:?} no longer reported; new {:?}, old {:?} {:?}",
            o.new,
            o.old_verify,
            o.old
        );
        for extra in new_rules.difference(&old_rules) {
            let hidden = o.old_verify.is_some()
                && verifier_rules
                    .get(o.name.as_str())
                    .is_some_and(|rules| rules.contains(extra));
            assert!(
                hidden,
                "{what}: {extra} is reported now and was not before: new {:?}, old {:?} {:?}",
                o.new, o.old_verify, o.old
            );
        }
    }
    assert!(outcomes.len() > 10_000, "{} draws", outcomes.len());
    assert!(
        flagged > outcomes.len() / 4,
        "{flagged} of {} draws break a rule",
        outcomes.len()
    );
    assert!(
        tightened > 0,
        "no draw gave a channel a non-integer capacity"
    );
    // Every rule is drawn broken somewhere.
    let seen: BTreeSet<String> = outcomes
        .iter()
        .flat_map(|(_, o)| o.new.iter().map(|m| rule(m)))
        .collect();
    for expected in [
        "func-entry",
        "func-return",
        "for-body",
        "class:lb",
        "class:ub",
        "class:step",
        "memref-access",
        "same-types",
        "equal",
        "class:operands",
        "class:result",
        "class:source",
        "class:lhs",
        "class:condition",
        "class:ports",
        "attr:capacity",
        "attr:banks",
        "attr:direction",
        "attr:factor",
        "attr:width_bits",
    ] {
        assert!(seen.contains(expected), "{expected} never drawn broken");
    }
}

/// The substrings the dialects' and the lint's own tests assert stay in
/// the messages the rules give.
#[test]
fn messages_keep_what_the_tests_look_for() {
    let ctx = Context::with_all_dialects();
    let analyzer = Analyzer::with_default_lints();
    let mut all = String::new();
    for draw in draws(&ctx, &mut Rng(7)) {
        for message in type_mismatches(&analyzer, &ctx, &draw.module) {
            all.push_str(&message);
            all.push('\n');
        }
    }
    for text in [
        "types differ",
        "rank 2 indexed with 1",
        "streams or tokens",
        "power of two",
        "non-float",
        "signature",
        "capacity must be positive",
        "plm-space",
        "direction must be",
        "induction variable",
        "entry block has 1 arguments",
        "ub must be",
    ] {
        assert!(all.contains(text), "no message says {text:?}");
    }
}

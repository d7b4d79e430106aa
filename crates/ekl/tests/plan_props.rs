//! The compiled plan is the tree-walker: on random validated programs
//! `interp::evaluate` (bind + run) returns the same tensors bit for bit,
//! or the same error, kind and message included, as the two evaluators
//! it replaced — the name-probing tree-walker (`reference/mod.rs`) and
//! the bound tree-walker with memo cells (`reference/plan.rs`). And the
//! dense-slot lowering is the string-keyed one it replaced
//! (`reference/lower.rs`): on the same programs both print the same IR
//! byte for byte, or fail alike.
//!
//! Programs are drawn as ASTs, not text: einsum-shaped sums with
//! post-ops, gather chains through integer tensors, subscripts guarded
//! by a `select` whose unchosen arm is out of range, nested and
//! multi-index sums, sums inside `select` arms, scalar lets, all four
//! builtins and negation, over indices of extent 1 to 4 — and, in a
//! share of the cases, a raw subscript that leaves its extent, a missing
//! input or a mis-shaped one. Some kernels repeat one sub-expression in
//! both arms of a `select`, as a subscript and as a value, under two
//! `sum`s, or in two `let`s: the positions where the plan may share one
//! memo cell. `check`
//! is the oracle for kinds: the kernel is re-validated as each `let` is
//! added, and every drawn kernel must validate.

mod reference;
#[path = "reference/lower.rs"]
mod reference_lower;
#[path = "reference/plan.rs"]
mod reference_plan;

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;
use proptest::TestRng;

use everest_ekl::ast::{BinOp, Builtin, CmpOp, Dim, Expr, Item, Kernel};
use everest_ekl::check::{check, Program};
use everest_ekl::interp::{evaluate, EvalError, EvalErrorKind, Plan, Tensor, MAX_VOLUME};
use everest_ekl::lower::lower_to_loops;
use everest_ekl::rrtmg::{
    input_map, major_absorber_program, major_absorber_reference, synthetic_inputs, RrtmgDims,
};
use everest_ir::print::print_module;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    /// Uniform in `[-2, 2)`.
    fn float(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    }
}

const INDEX_NAMES: [&str; 4] = ["i", "j", "k", "l"];

struct Declared {
    name: String,
    shape: Vec<u64>,
    integer: bool,
}

struct Gen<'r> {
    rng: &'r mut Rng,
    /// Extent of each of `INDEX_NAMES`.
    extents: [u64; 4],
    /// Inputs and the lets defined so far.
    tensors: Vec<Declared>,
    /// Positions in `INDEX_NAMES` of the indices bound here.
    scope: Vec<usize>,
    /// Sub-expressions repeated so far, by [`Repeat`] kind.
    repeats: [usize; 3],
    /// Sub-expressions that read no index, for later `let`s to repeat.
    unindexed: Vec<Expr>,
}

/// Where [`Gen::repeated`] puts the copies of one sub-expression.
#[derive(Clone, Copy)]
enum Repeat {
    SelectArms,
    SubscriptAndValue,
    TwoSums,
}

fn index(position: usize) -> Expr {
    Expr::name(INDEX_NAMES[position])
}

fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

fn select(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
    Expr::Select {
        cond: Box::new(cond),
        then: Box::new(then),
        otherwise: Box::new(otherwise),
    }
}

impl Gen<'_> {
    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.rng.below(options.len())]
    }

    fn compare(&mut self, depth: u32) -> Expr {
        let op = self.pick(&[
            CmpOp::Le,
            CmpOp::Lt,
            CmpOp::Ge,
            CmpOp::Gt,
            CmpOp::Eq,
            CmpOp::Ne,
        ]);
        Expr::Compare {
            op,
            lhs: Box::new(self.value(depth)),
            rhs: Box::new(self.value(depth)),
        }
    }

    /// `sum(fresh indices)(body)`, or `None` when every index is bound.
    fn sum(&mut self, depth: u32, integer: bool) -> Option<Expr> {
        let free: Vec<usize> = (0..4).filter(|p| !self.scope.contains(p)).collect();
        if free.is_empty() {
            return None;
        }
        let mut bound = vec![self.pick(&free)];
        if free.len() > 1 && self.rng.chance(30) {
            // Two indices; now and then the same one twice (the inner wins).
            let second = self.pick(&free);
            if second != bound[0] || self.rng.chance(10) {
                bound.push(second);
            }
        }
        self.scope.extend(&bound);
        let body = if integer {
            self.int(depth)
        } else {
            self.value(depth)
        };
        self.scope.truncate(self.scope.len() - bound.len());
        Some(Expr::Sum {
            indices: bound.iter().map(|&p| INDEX_NAMES[p].to_string()).collect(),
            body: Box::new(body),
        })
    }

    /// A subscript for a dimension of `extent`: mostly in range by
    /// construction, sometimes not.
    fn subscript(&mut self, extent: u64, depth: u32) -> Expr {
        let fitting: Vec<usize> = self
            .scope
            .iter()
            .copied()
            .filter(|&p| self.extents[p] <= extent)
            .collect();
        let literal = Expr::Int(self.rng.below(extent.max(1) as usize) as i64);
        match self.rng.below(100) {
            0..=44 if !fitting.is_empty() => index(self.pick(&fitting)),
            0..=59 => literal,
            60..=79 if depth > 0 => {
                let inner = self.int(depth - 1);
                let floor = binary(BinOp::Max, inner, Expr::Int(0));
                binary(BinOp::Min, floor, Expr::Int(extent as i64 - 1))
            }
            80..=89 if !self.scope.is_empty() => {
                let shift = self.pick(&[-1, 1, 2]);
                let position = self.pick(&self.scope.clone());
                binary(BinOp::Add, index(position), Expr::Int(shift))
            }
            _ if depth > 0 => self.int(depth - 1),
            _ => literal,
        }
    }

    /// A load of a declared tensor of the wanted kind, if there is one.
    fn load(&mut self, integer: bool, depth: u32) -> Option<Expr> {
        let candidates: Vec<usize> = (0..self.tensors.len())
            .filter(|&t| self.tensors[t].integer == integer)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let t = self.pick(&candidates);
        let (name, shape) = (self.tensors[t].name.clone(), self.tensors[t].shape.clone());
        if shape.is_empty() && self.rng.chance(50) {
            return Some(Expr::name(&name));
        }
        let subscripts = shape.iter().map(|&e| self.subscript(e, depth)).collect();
        Some(Expr::Ref {
            name,
            subscripts: Some(subscripts),
        })
    }

    /// `select(x + 1 < E, t[.., x + 1, ..], c)`: the arm not chosen at
    /// the last iteration of `x` reads past the end of the dimension.
    fn guarded_load(&mut self, depth: u32) -> Option<Expr> {
        let candidates: Vec<usize> = (0..self.tensors.len())
            .filter(|&t| !self.tensors[t].integer && !self.tensors[t].shape.is_empty())
            .collect();
        if candidates.is_empty() || self.scope.is_empty() {
            return None;
        }
        let t = self.pick(&candidates);
        let (name, shape) = (self.tensors[t].name.clone(), self.tensors[t].shape.clone());
        let guarded = self.rng.below(shape.len());
        let shifted = binary(
            BinOp::Add,
            index(self.pick(&self.scope.clone())),
            Expr::Int(1),
        );
        let subscripts = (0..shape.len())
            .map(|d| {
                if d == guarded {
                    shifted.clone()
                } else {
                    self.subscript(shape[d], depth)
                }
            })
            .collect();
        let load = Expr::Ref {
            name,
            subscripts: Some(subscripts),
        };
        let fallback = Expr::Float(self.rng.float());
        let extent = Expr::Int(shape[guarded] as i64);
        Some(if self.rng.chance(50) {
            let cond = Expr::Compare {
                op: CmpOp::Lt,
                lhs: Box::new(shifted),
                rhs: Box::new(extent),
            };
            select(cond, load, fallback)
        } else {
            let cond = Expr::Compare {
                op: CmpOp::Ge,
                lhs: Box::new(shifted),
                rhs: Box::new(extent),
            };
            select(cond, fallback, load)
        })
    }

    /// One integer sub-expression in several positions: both arms of a
    /// `select`, a subscript of a load and an operand beside it, or the
    /// bodies of two `sum`s over one fresh index. There it is drawn with
    /// that index in scope: when it reads the index, its two copies read
    /// two loops.
    fn repeated(&mut self, depth: u32) -> Expr {
        let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Max];
        let kind = self.pick(&[
            Repeat::SelectArms,
            Repeat::SubscriptAndValue,
            Repeat::TwoSums,
        ]);
        self.repeats[kind as usize] += 1;
        match kind {
            Repeat::SelectArms => {
                let shared = self.int(depth);
                let (first, second) = (self.pick(&ops), self.pick(&ops));
                let then = binary(first, shared.clone(), self.value(depth));
                let otherwise = binary(second, self.value(depth), shared);
                select(self.compare(depth), then, otherwise)
            }
            Repeat::SubscriptAndValue => {
                let shared = self.int(depth);
                let load = match self.load(false, depth) {
                    Some(Expr::Ref {
                        name,
                        subscripts: Some(mut subscripts),
                    }) if !subscripts.is_empty() => {
                        // Raw, so that now and then it leaves the extent.
                        let d = self.rng.below(subscripts.len());
                        subscripts[d] = shared.clone();
                        Expr::Ref {
                            name,
                            subscripts: Some(subscripts),
                        }
                    }
                    _ => self.value(depth),
                };
                binary(self.pick(&ops), load, shared)
            }
            Repeat::TwoSums => {
                let free: Vec<usize> = (0..4).filter(|p| !self.scope.contains(p)).collect();
                if free.is_empty() {
                    let shared = self.int(depth);
                    return binary(self.pick(&ops), shared.clone(), shared);
                }
                let bound = self.pick(&free);
                self.scope.push(bound);
                let shared = self.int(depth);
                let sum = |gen: &mut Self| Expr::Sum {
                    indices: vec![INDEX_NAMES[bound].to_string()],
                    body: Box::new(binary(gen.pick(&ops), shared.clone(), gen.value(depth))),
                };
                let (first, second) = (sum(self), sum(self));
                self.scope.pop();
                binary(self.pick(&ops), first, second)
            }
        }
    }

    /// A sub-expression that reads no index, drawn afresh or repeated
    /// from an earlier `let`, beside one that may: kept in one memo cell
    /// for the whole run, shared between `let`s.
    fn unindexed(&mut self, depth: u32) -> Expr {
        if self.unindexed.is_empty() || self.rng.chance(40) {
            let scope = std::mem::take(&mut self.scope);
            let load = self.load(false, 1).unwrap_or(Expr::Float(0.5));
            let drawn = binary(BinOp::Mul, load, Expr::Float(self.rng.float()));
            self.scope = scope;
            self.unindexed.push(drawn);
        }
        let kept = self.unindexed[self.rng.below(self.unindexed.len())].clone();
        let op = self.pick(&[BinOp::Add, BinOp::Mul, BinOp::Max]);
        binary(op, kept, self.value(depth))
    }

    /// An expression `check` gives kind `Int`.
    fn int(&mut self, depth: u32) -> Expr {
        let literal = Expr::Int(self.rng.below(4) as i64);
        if depth == 0 {
            return match self.rng.below(3) {
                0 if !self.scope.is_empty() => index(self.pick(&self.scope.clone())),
                1 => self.load(true, 0).unwrap_or(literal),
                _ => literal,
            };
        }
        match self.rng.below(10) {
            0 => literal,
            1 | 2 if !self.scope.is_empty() => index(self.pick(&self.scope.clone())),
            1..=4 => self.load(true, depth - 1).unwrap_or(literal),
            5 | 6 => {
                let op = self.pick(&[
                    BinOp::Add,
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Min,
                    BinOp::Max,
                    BinOp::Div,
                ]);
                binary(op, self.int(depth - 1), self.int(depth - 1))
            }
            7 => select(
                self.compare(depth - 1),
                self.int(depth - 1),
                self.int(depth - 1),
            ),
            8 => self.sum(depth - 1, true).unwrap_or(literal),
            _ => Expr::Neg(Box::new(self.int(depth - 1))),
        }
    }

    /// An expression of kind `Int` or `Float`.
    fn value(&mut self, depth: u32) -> Expr {
        let literal = Expr::Float(self.rng.float());
        if depth == 0 {
            return match self.rng.below(3) {
                0 => self.load(false, 0).unwrap_or(literal),
                1 => self.int(0),
                _ => literal,
            };
        }
        match self.rng.below(19) {
            0 => literal,
            1..=3 => self.load(false, depth - 1).unwrap_or(literal),
            4..=6 => {
                let op = self.pick(&[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Min,
                    BinOp::Max,
                ]);
                binary(op, self.value(depth - 1), self.value(depth - 1))
            }
            7 => {
                let builtin = self.pick(&[Builtin::Exp, Builtin::Log, Builtin::Sqrt, Builtin::Abs]);
                Expr::Call {
                    builtin,
                    arg: Box::new(self.value(depth - 1)),
                }
            }
            8 | 9 => select(
                self.compare(depth - 1),
                self.value(depth - 1),
                self.value(depth - 1),
            ),
            10..=12 => self.sum(depth - 1, false).unwrap_or(literal),
            13 => self.guarded_load(depth - 1).unwrap_or(literal),
            14 => Expr::Neg(Box::new(self.value(depth - 1))),
            15 | 16 => self.repeated(depth - 1),
            17 => self.unindexed(depth - 1),
            _ => self.int(depth - 1),
        }
    }
}

/// A random validated program, inputs for it, and how many repeated
/// sub-expressions of each [`Repeat`] kind it holds. About one case in
/// eight has an input missing or of the wrong shape.
fn draw(seed: u64) -> (Program, HashMap<String, Tensor>, [usize; 3]) {
    let mut rng = Rng(seed);
    let extents: [u64; 4] = std::array::from_fn(|_| 1 + rng.below(4) as u64);
    let mut items: Vec<Item> = (0..4)
        .map(|p| Item::Index {
            name: INDEX_NAMES[p].to_string(),
            lo: 0,
            hi: extents[p] as i64,
        })
        .collect();

    // Inputs: a few float and integer tensors of rank 0 to 3, their
    // dimensions index extents or literals.
    let mut tensors = Vec::new();
    for n in 0..3 + rng.below(4) {
        let integer = rng.chance(35);
        let mut dims = Vec::new();
        let mut shape = Vec::new();
        for _ in 0..rng.below(4) {
            if rng.chance(70) {
                let p = rng.below(4);
                dims.push(Dim::Index(INDEX_NAMES[p].to_string()));
                shape.push(extents[p]);
            } else {
                let extent = 1 + rng.below(5) as u64;
                dims.push(Dim::Literal(extent));
                shape.push(extent);
            }
        }
        let name = format!("in{n}");
        items.push(Item::Input {
            name: name.clone(),
            dims,
            integer,
        });
        tensors.push(Declared {
            name,
            shape,
            integer,
        });
    }
    let mut inputs = HashMap::new();
    for tensor in &tensors {
        let volume: u64 = tensor.shape.iter().product();
        let data = (0..volume)
            .map(|_| match (tensor.integer, rng.below(20)) {
                (false, _) => rng.float(),
                (true, 0) => [-1.0, 7.0][rng.below(2)],
                (true, _) => rng.below(3) as f64,
            })
            .collect();
        inputs.insert(tensor.name.clone(), Tensor::from_data(&tensor.shape, data));
    }

    let mut gen = Gen {
        rng: &mut rng,
        extents,
        tensors,
        scope: Vec::new(),
        repeats: [0; 3],
        unindexed: Vec::new(),
    };
    let mut program = None;
    for n in 0..1 + gen.rng.below(4) {
        let mut lhs: Vec<usize> = Vec::new();
        for _ in 0..gen.rng.below(4) {
            let p = gen.rng.below(4);
            // A repeated index is legal: the later position is the one read.
            if !lhs.contains(&p) || gen.rng.chance(5) {
                lhs.push(p);
            }
        }
        gen.scope.clone_from(&lhs);
        let value = if gen.rng.chance(20) {
            gen.int(3)
        } else {
            gen.value(4)
        };
        gen.scope.clear();
        let name = format!("let{n}");
        items.push(Item::Let {
            name: name.clone(),
            indices: lhs.iter().map(|&p| INDEX_NAMES[p].to_string()).collect(),
            value,
        });
        let mut so_far = items.clone();
        so_far.push(Item::Output { name: name.clone() });
        let checked = check(&Kernel {
            name: "drawn".to_string(),
            items: so_far,
        })
        .unwrap_or_else(|e| panic!("seed {seed}: the generator drew an invalid kernel: {e}"));
        gen.tensors.push(Declared {
            shape: checked.tensors[&name].shape.clone(),
            integer: checked.tensors[&name].integer,
            name,
        });
        program = Some(checked);
    }
    let program = program.expect("at least one let");
    let repeats = gen.repeats;

    if !program.inputs.is_empty() {
        let victim = program.inputs[rng.below(program.inputs.len())].clone();
        match rng.below(16) {
            0 => {
                inputs.remove(&victim);
            }
            1 => {
                let mut shape = inputs[&victim].shape.clone();
                shape.push(2);
                inputs.insert(victim, Tensor::zeros(&shape));
            }
            _ => {}
        }
    }
    (program, inputs, repeats)
}

type Outcome = Result<BTreeMap<String, Tensor>, EvalError>;

/// `Ok` when both succeeded with the same tensors by bits, or both
/// failed with the same message.
fn same(plan: &Outcome, reference: &Outcome) -> Result<(), String> {
    match (plan, reference) {
        (Err(a), Err(b)) if a == b => Ok(()),
        (Ok(a), Ok(b)) => {
            if !a.keys().eq(b.keys()) {
                return Err(format!("lets {:?} vs {:?}", a.keys(), b.keys()));
            }
            for (name, tensor) in a {
                let other = &b[name];
                let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                if tensor.shape != other.shape || bits(tensor) != bits(other) {
                    return Err(format!("'{name}': plan {tensor:?} vs reference {other:?}"));
                }
            }
            Ok(())
        }
        _ => Err(format!("plan {plan:?} vs reference {reference:?}")),
    }
}

/// Cases of each evaluation property.
const PLAN_CASES: u32 = 512;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(PLAN_CASES))]

    #[test]
    fn plan_matches_the_tree_walking_reference(seed in any::<u64>()) {
        let (program, inputs, _) = draw(seed);
        let plan = evaluate(&program, &inputs);
        let reference = reference::evaluate(&program, &inputs);
        if let Err(difference) = same(&plan, &reference) {
            prop_assert!(false, "seed {}: {}\n{:#?}", seed, difference, program.lets);
        }
        // One plan, run twice on borrowed inputs: nothing carries over.
        if program.inputs.iter().all(|name| inputs.contains_key(name)) {
            let bound = Plan::bind(&program).expect("validated programs bind");
            let borrowed: Vec<&Tensor> = program.inputs.iter().map(|n| &inputs[n]).collect();
            for _ in 0..2 {
                let rerun = bound.run(&borrowed).map(|tensors| {
                    let names = program.lets.iter().map(|stmt| stmt.name.clone());
                    names.zip(tensors).collect()
                });
                prop_assert!(same(&rerun, &reference).is_ok(), "seed {}: rerun differs", seed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(PLAN_CASES))]

    /// The same against the bound tree-walker, memo cells and all.
    #[test]
    fn plan_matches_the_bound_tree_walker(seed in any::<u64>()) {
        let (program, inputs, _) = draw(seed);
        let plan = evaluate(&program, &inputs);
        let walker = reference_plan::evaluate(&program, &inputs);
        if let Err(difference) = same(&plan, &walker) {
            prop_assert!(false, "seed {}: {}\n{:#?}", seed, difference, program.lets);
        }
    }
}

/// What evaluating a program reaches that decides its values or its
/// first error: walked as the name-probing reference evaluates it, each
/// value from `reference::eval_expr`, until the first error.
struct Reach<'p> {
    program: &'p Program,
    store: BTreeMap<String, Tensor>,
    env: HashMap<String, i64>,
    reached: BTreeSet<&'static str>,
}

impl<'p> Reach<'p> {
    fn run(program: &'p Program, inputs: &HashMap<String, Tensor>) -> BTreeSet<&'static str> {
        let mut reach = Reach {
            program,
            store: BTreeMap::new(),
            env: HashMap::new(),
            reached: BTreeSet::new(),
        };
        for name in &program.inputs {
            match inputs.get(name) {
                Some(t) if t.shape == program.tensors[name].shape => {
                    reach.store.insert(name.clone(), t.clone());
                }
                _ => return reach.reached,
            }
        }
        for stmt in &program.lets {
            let shape: Vec<u64> = stmt.indices.iter().map(|i| program.extent(i)).collect();
            let mut data = Vec::new();
            for idx in row_major(&shape) {
                // A repeated index: the later position is the one read.
                for (name, &value) in stmt.indices.iter().zip(&idx) {
                    reach.env.insert(name.clone(), value);
                }
                match reach.eval(&stmt.value) {
                    Ok(value) => data.push(value),
                    Err(_) => return reach.reached,
                }
            }
            reach
                .store
                .insert(stmt.name.clone(), Tensor::from_data(&shape, data));
        }
        reach.reached
    }

    /// `expr`'s value as the reference computes it.
    fn probe(&self, expr: &Expr) -> Result<f64, EvalError> {
        reference::eval_expr(self.program, &self.store, &mut self.env.clone(), expr)
    }

    /// Whether `expr` reads an integer input.
    fn reads_integer_input(&self, expr: &Expr) -> bool {
        match expr {
            Expr::Int(_) | Expr::Float(_) => false,
            Expr::Ref { name, subscripts } => {
                (self.program.inputs.contains(name) && self.program.tensors[name].integer)
                    || subscripts
                        .iter()
                        .flatten()
                        .any(|s| self.reads_integer_input(s))
            }
            Expr::Binary { lhs, rhs, .. } | Expr::Compare { lhs, rhs, .. } => {
                self.reads_integer_input(lhs) || self.reads_integer_input(rhs)
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => [cond, then, otherwise]
                .iter()
                .any(|e| self.reads_integer_input(e)),
            Expr::Sum { body: inner, .. } | Expr::Call { arg: inner, .. } | Expr::Neg(inner) => {
                self.reads_integer_input(inner)
            }
        }
    }

    fn eval(&mut self, expr: &Expr) -> Result<f64, EvalError> {
        match expr {
            Expr::Ref {
                name,
                subscripts: Some(subscripts),
            } if !self.env.contains_key(name) => {
                let shape = self.store[name].shape.clone();
                let mut own_error = false;
                for (d, subscript) in subscripts.iter().enumerate() {
                    if self.reads_integer_input(subscript) {
                        self.reached.insert("an integer input read in a subscript");
                    }
                    match self.eval(subscript) {
                        Ok(value) => own_error |= value as i64 as u64 >= shape[d],
                        Err(e) => {
                            if own_error {
                                self.reached
                                    .insert("a later subscript's error before the load's own");
                            }
                            return Err(e);
                        }
                    }
                }
                self.probe(expr)
            }
            Expr::Binary { lhs, rhs, .. } | Expr::Compare { lhs, rhs, .. } => {
                self.eval(lhs)?;
                self.eval(rhs)?;
                self.probe(expr)
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                let (taken, untaken) = if self.eval(cond)? != 0.0 {
                    (then, otherwise)
                } else {
                    (otherwise, then)
                };
                let untaken = self.probe(untaken);
                if matches!(untaken, Err(e) if e.kind == EvalErrorKind::OutOfRange) {
                    self.reached
                        .insert("a select whose untaken arm is out of range");
                }
                self.eval(taken)
            }
            Expr::Sum { indices, body } => {
                if indices.iter().collect::<BTreeSet<_>>().len() < indices.len() {
                    self.reached.insert("a sum over one index name twice");
                }
                let extents: Vec<u64> = indices.iter().map(|i| self.program.extent(i)).collect();
                let mut total = 0.0;
                for idx in row_major(&extents) {
                    for (name, &value) in indices.iter().zip(&idx) {
                        self.env.insert(name.clone(), value);
                    }
                    total += self.eval(body)?;
                }
                for name in indices {
                    self.env.remove(name);
                }
                Ok(total)
            }
            Expr::Call { arg, .. } | Expr::Neg(arg) => {
                self.eval(arg)?;
                self.probe(expr)
            }
            Expr::Int(_) | Expr::Float(_) | Expr::Ref { .. } => self.probe(expr),
        }
    }
}

/// Every index of `shape`, row-major.
fn row_major(shape: &[u64]) -> Vec<Vec<i64>> {
    let volume: u64 = shape.iter().product();
    (0..volume)
        .map(|flat| {
            let mut rem = flat;
            let mut idx = vec![0; shape.len()];
            for (k, &extent) in shape.iter().enumerate().rev() {
                idx[k] = (rem % extent) as i64;
                rem /= extent;
            }
            idx
        })
        .collect()
}

/// The draws the evaluation properties run on reach every instruction a
/// compiled plan has, in plans that evaluate, and every case the first
/// error and the memo cells depend on: a `select` whose untaken arm is
/// out of range, a `sum` over one index name twice (two nested loops),
/// a memo cell two `let`s read, a later subscript failing before the
/// load it indexes leaves its own extent, and integer inputs as
/// subscripts.
#[test]
fn the_plan_properties_reach_every_instruction_kind() {
    const INSTRUCTIONS: [&str; 21] = [
        "Add",
        "Sub",
        "Mul",
        "Div",
        "Min",
        "Max",
        "Compare",
        "Call",
        "Neg",
        "Copy",
        "Load",
        "MulLoad",
        "JumpIfZero",
        "Jump",
        "Enter",
        "Next",
        "AddNext",
        "Store",
        "End",
        "Check",
        "Return",
    ];
    let mut want: BTreeSet<&str> = INSTRUCTIONS.into_iter().collect();
    want.extend([
        "a select whose untaken arm is out of range",
        "a sum over one index name twice",
        "a memo cell read by two lets",
        "a later subscript's error before the load's own",
        "an integer input read in a subscript",
    ]);
    let mut reached = BTreeSet::new();
    let properties = [
        "plan_matches_the_tree_walking_reference",
        "plan_matches_the_bound_tree_walker",
    ];
    for test in properties {
        for case in 0..PLAN_CASES {
            let mut rng = TestRng::for_case(&format!("plan_props::{test}"), case);
            let (program, inputs, _) = draw(any::<u64>().generate(&mut rng));
            if reference::evaluate(&program, &inputs).is_ok() {
                let plan = format!(
                    "{:?}",
                    Plan::bind(&program).expect("validated programs bind")
                );
                let words: BTreeSet<&str> = plan.split(|c: char| !c.is_alphanumeric()).collect();
                reached.extend(INSTRUCTIONS.iter().filter(|kind| words.contains(*kind)));
            }
            reached.extend(Reach::run(&program, &inputs));
            let cells = reference_plan::Plan::bind(&program)
                .expect("validated programs bind")
                .cells_by_let();
            let mut seen = BTreeSet::new();
            if cells
                .iter()
                .any(|read| read.iter().any(|cell| !seen.insert(*cell)))
            {
                reached.insert("a memo cell read by two lets");
            }
        }
    }
    let missing: Vec<&&str> = want.difference(&reached).collect();
    assert!(missing.is_empty(), "never reached: {missing:#?}");
}

/// The printed IR of `program` lowered by `lower`, or its error.
fn lowered(
    lower: fn(&Program) -> everest_ir::IrResult<everest_ir::Module>,
    program: &Program,
) -> Result<String, String> {
    lower(program)
        .map(|m| print_module(&m))
        .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On every program the reference lowers; it refuses an integer
    /// `sum` where an index is required, which the lowering now
    /// accumulates in an `index` cell, so there ours must lower.
    #[test]
    fn lowering_prints_what_the_string_keyed_reference_prints(seed in any::<u64>()) {
        let (program, _, _) = draw(seed);
        let ours = lowered(lower_to_loops, &program);
        let reference = lowered(reference_lower::lower_to_loops, &program);
        if reference.is_ok() {
            prop_assert!(ours == reference, "seed {}:\n{:?}\nvs the reference\n{:?}", seed, ours, reference);
        } else {
            prop_assert!(ours.is_ok(), "seed {}: {:?}", seed, ours);
        }
    }
}

/// The same on fixed programs: RRTMG at both dimension sets, both
/// CFDlang examples' shapes, and kernels with integer `sum`s,
/// comparisons and `select`s where an index is required. The reference
/// refuses the `sum` in a subscript; that one is compared by verifying
/// what ours lowers.
#[test]
fn fixed_programs_lower_as_the_reference_lowers_them() {
    let coupled = RrtmgDims {
        nlay: 16,
        ngpt: 4,
        ntemp: 6,
        npres: 12,
        neta: 5,
        nflav: 2,
    };
    let mut programs = vec![
        major_absorber_program(coupled),
        major_absorber_program(RrtmgDims::default()),
        everest_ekl::cfdlang::compile(
            "var input A : [16 32]\nvar input B : [32 16]\nvar output C : [16 16]\nC = A . B\n",
            "mm",
        )
        .expect("compiles"),
    ];
    let mut refused = 0;
    for source in [
        "kernel k { index i : 0..4 index j : 0..3 input n : [j] of int input a : [4] \
         let s = sum(j)(n[j]) let y[i] = a[s] output y }",
        "kernel k { index i : 0..4 input n : [i] of int input a : [4] \
         let y[i] = a[min(n[i], 3) + max(0, -n[i])] output y }",
        "kernel k { index i : 0..4 input a : [i] \
         let y[i] = select(a[i] > 0.5, 1, 0) * select(i < 2, 2, 3) output y }",
    ] {
        let kernel = everest_ekl::parser::parse(source).expect("parses");
        if let Ok(program) = check(&kernel) {
            programs.push(program);
        } else {
            refused += 1;
        }
    }
    assert_eq!(refused, 0, "a fixed kernel no longer validates");
    let context = everest_ir::registry::Context::with_all_dialects();
    let mut refused_by_reference = 0;
    for program in &programs {
        let module = lower_to_loops(program).expect("every fixed program lowers");
        everest_ir::verify::verify_module(&context, &module).expect("verifies");
        let ours = Ok(print_module(&module));
        let reference = lowered(reference_lower::lower_to_loops, program);
        if reference.is_ok() {
            assert_eq!(ours, reference, "{}", program.name);
        }
        refused_by_reference += usize::from(reference.is_err());
    }
    // The `sum` in a subscript.
    assert_eq!(refused_by_reference, 1, "lowerings the reference refused");
}

/// The drawn programs do exercise what the properties are for: most
/// evaluate, the failures cover each kind of error, a share repeat a
/// sub-expression in each kind of position, and both lowerings print a
/// module for some and refuse others.
#[test]
fn drawn_programs_cover_values_and_every_error_kind() {
    let (mut evaluated, mut out_of_range, mut missing, mut misshaped) = (0, 0, 0, 0);
    let mut repeating = [0; 3];
    let (mut lowering_errors, mut reference_errors) = (0, 0);
    for seed in 0..400 {
        let (program, inputs, repeats) = draw(seed);
        for (count, drawn) in repeating.iter_mut().zip(repeats) {
            *count += usize::from(drawn > 0);
        }
        lowering_errors += usize::from(lower_to_loops(&program).is_err());
        reference_errors += usize::from(reference_lower::lower_to_loops(&program).is_err());
        match reference::evaluate(&program, &inputs) {
            Ok(_) => evaluated += 1,
            Err(e) if e.message.contains("out of range") => out_of_range += 1,
            Err(e) if e.message.contains("missing input") => missing += 1,
            Err(e) if e.message.contains("has shape") => misshaped += 1,
            Err(e) => panic!("seed {seed}: unexpected error {e}"),
        }
    }
    assert!(evaluated >= 150, "only {evaluated} of 400 evaluate");
    assert!(out_of_range >= 20, "only {out_of_range} leave a dimension");
    assert!(missing >= 5 && misshaped >= 5, "{missing} / {misshaped}");
    assert!(
        repeating.iter().all(|&count| count >= 40),
        "programs repeating in select arms / subscript and value / two sums: {repeating:?}"
    );
    // The lowering refuses none of them: an integer `sum` where an
    // index is required accumulates in an `index` cell. The reference
    // still refuses those (199 of the 400), so the lowering property
    // compares the rest and checks ours lowers these.
    assert_eq!(lowering_errors, 0, "drawn programs the lowering refused");
    assert!(
        (100..=300).contains(&reference_errors),
        "{reference_errors} of 400 refused by the reference lowering"
    );
}

#[test]
fn rrtmg_is_bit_identical_at_both_dimension_sets() {
    // The weather model's coupled size, and the paper-sized default.
    let coupled = RrtmgDims {
        nlay: 16,
        ngpt: 4,
        ntemp: 6,
        npres: 12,
        neta: 5,
        nflav: 2,
    };
    for dims in [coupled, RrtmgDims::default()] {
        let program = major_absorber_program(dims);
        let tables = synthetic_inputs(dims);
        let inputs = input_map(&tables);
        let plan = evaluate(&program, &inputs);
        let reference = reference::evaluate(&program, &inputs);
        same(&plan, &reference).unwrap_or_else(|e| panic!("nlay {}: {e}", dims.nlay));
        // E2's claim: the EKL kernel equals the Fortran-shaped loop nest
        // bit for bit, not to a tolerance.
        let tau = &plan.expect("evaluates")["tau_abs"].data;
        let loop_nest = major_absorber_reference(dims, &tables);
        assert!(tau
            .iter()
            .map(|v| v.to_bits())
            .eq(loop_nest.iter().map(|v| v.to_bits())));
    }
}

#[test]
fn errors_carry_the_tree_walkers_messages() {
    let program = check(
        &everest_ekl::parser::parse(
            "kernel k {
               index i : 0..4
               input a : [4]
               input b : [i]
               let y[i] = a[i + 1] + b[i]
               output y
             }",
        )
        .expect("parses"),
    )
    .expect("validates");
    let a = Tensor::from_data(&[4], vec![0.0, 1.0, 2.0, 3.0]);
    let b = Tensor::zeros(&[4]);
    let with = |pairs: &[(&str, &Tensor)]| -> HashMap<String, Tensor> {
        pairs
            .iter()
            .map(|(n, t)| (n.to_string(), (*t).clone()))
            .collect()
    };
    for (inputs, message) in [
        (
            with(&[("a", &a), ("b", &b)]),
            "in 'a': subscript 4 out of range for dim 0 (extent 4)",
        ),
        (with(&[("a", &a)]), "missing input 'b'"),
        (
            with(&[("a", &Tensor::zeros(&[3])), ("b", &b)]),
            "input 'a' has shape [3], expected [4]",
        ),
        // One input at a time, in declaration order: the shape of `a`
        // is reported before the absence of `b`.
        (
            with(&[("a", &Tensor::zeros(&[3]))]),
            "input 'a' has shape [3], expected [4]",
        ),
    ] {
        let plan = evaluate(&program, &inputs);
        assert_eq!(plan.as_ref().unwrap_err().message, message);
        same(&plan, &reference::evaluate(&program, &inputs)).expect("same error");
    }
}

/// `check` takes index ranges of any size; `bind` refuses a `let` or a
/// `sum` over more than `MAX_VOLUME` elements, before anything is
/// allocated, where a run would have asked for 800 GB.
#[test]
fn bind_refuses_a_let_or_a_sum_over_the_volume_bound() {
    let bind = |src: &str| {
        let program = check(&everest_ekl::parser::parse(src).expect("parses")).expect("validates");
        Plan::bind(&program).map(|_| ())
    };
    let refused = |src: &str| {
        let e = bind(src).unwrap_err();
        assert_eq!(e.kind, EvalErrorKind::TooLarge, "{e}");
        e.message
    };
    assert_eq!(
        refused("kernel k { index i : 0..99999999999 input a : [4] let y[i] = a[0] output y }"),
        format!("'y' over [99999999999] holds more than {MAX_VOLUME} elements")
    );
    // (4 * 10^9)^3 wraps a u64.
    assert_eq!(
        refused(
            "kernel k { index i : 0..4000000000 index j : 0..4000000000 \
             index k : 0..4000000000 input a : [i] let d = sum(i, j, k)(a[i]) output d }"
        ),
        format!("sum(i, j, k) runs more than {MAX_VOLUME} iterations")
    );
    // [4096, 4096, 2] wraps nothing and is still one element too many.
    let over = "kernel k { index i : 0..4096 index t : 0..2 input a : [4] \
         let y[i, i, t] = a[0] output y }";
    assert!(refused(over).starts_with("'y' over [4096, 4096, 2]"));
    // At the bound itself, both bind.
    let at = format!(
        "kernel k {{ index i : 0..{MAX_VOLUME} input a : [4] let y = sum(i)(a[0]) output y }}"
    );
    bind(&at).expect("a sum at the bound binds");
    bind("kernel k { index i : 0..4096 input a : [4] let y[i, i] = a[0] output y }")
        .expect("a let at the bound binds");
}

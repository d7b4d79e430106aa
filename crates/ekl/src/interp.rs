//! The evaluator for validated EKL programs: bind once, run many times.
//!
//! Defines the language semantics. The IR [lowering](crate::lower) is
//! tested against this evaluator: for every kernel and input set, the
//! lowered loop nest must compute exactly the same buffers.
//!
//! [`Plan::bind`] resolves a [`Program`] once — every reference becomes
//! a loop slot or a tensor with its strides, every sub-expression learns
//! the deepest loop it reads — and compiles each `let` body and each
//! memo cell into one flat list of instructions over `f64` registers.
//! [`Plan::run`] executes the lists on borrowed inputs in one loop, with
//! no recursion, allocating the result tensors and one scratch frame
//! sized at bind time. [`evaluate`] is the two in a row. The evaluators
//! this replaced are under `tests/reference/` — the name-probing
//! tree-walker and the bound tree-walker — as the references of the
//! differential properties in `tests/plan_props.rs`.
//!
//! The semantics are the tree-walker's, operation for operation: a `let`
//! sweeps its indices row-major (last fastest), a `sum` accumulates from
//! `0.0` in the same order, subscripts truncate toward zero and are
//! bounds-checked on every load, comparisons yield `0.0` / `1.0`, and a
//! `select` evaluates only the arm it chooses (kernels guard subscripts
//! that way). A sub-expression that reads only outer loop indices is
//! kept until the deepest loop it reads moves on. It is computed where
//! the tree-walker first computed it, or earlier only where that cannot
//! change which error comes first (below) — which keeps errors
//! identical too.
//!
//! Identical kept sub-expressions share one memo cell: `i_flav[x]`, a
//! subscript of three loads in RRTMG's `tau_abs`, fills one cell per `x`
//! instead of three. Whichever occurrence is reached first fills the
//! cell, and the others read it while its loop stays put. Every loop has
//! a slot of its own, so occurrences that read two loops over one index
//! name — the indices of two `sum`s, say — are not identical and never
//! share.
//!
//! In the instruction lists, a `select` is a conditional jump over the
//! arm it does not choose, and a `sum` a nest of loops, one per index,
//! around its body, whose innermost step adds the body's register to an
//! accumulator. Every loop counts in a register of its own, so a
//! subscript that is a plain loop index is read in place and scaled by a
//! stride fixed at bind time; a literal one inside its extent is folded
//! into the load's base offset; a subscript `a + b` is added in the
//! load; a product whose right operand is a load is one instruction.
//! Only a load can fail, and it fails after every subscript is
//! computed, so an error inside a later subscript still comes before the
//! load's own.
//!
//! A memo cell is computed in one of four places, chosen at bind time.
//! One add, multiply, min, max or negation of registers is computed
//! where it is read. A cell that cannot fail (its loads are at loop
//! indices and literals inside their extents) is computed at the top of
//! each iteration of its loop. So is one that the body of its loop nest
//! reaches before anything else that may fail or branch: RRTMG's
//! `r_mix[i_flav[x], x, t]`, the first factor of `tau_abs`'s sum. Any
//! other cell is filled on demand: a check compares its stamp with the
//! tick of its loop and, when the cell is stale, calls its list, which
//! returns to the instruction after the check. The first three change
//! when a value is computed, never which value or which error: the
//! first two cannot fail, and a hoisted cell fails, if at all, before
//! anything else the tree-walker would have run in that iteration
//! could.
//!
//! No number in the source sizes an allocation unchecked: `bind` refuses
//! a `let` or a `sum` over more than [`MAX_VOLUME`] elements.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::ast::{BinOp, Builtin, CmpOp, Expr};
use crate::check::Program;

/// A dense row-major tensor of `f64` (integer tensors store integral
/// values exactly; f64 holds all i32 exactly).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Static shape.
    pub shape: Vec<u64>,
    /// Row-major data.
    pub data: Vec<f64>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[u64]) -> Self {
        let n: u64 = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n as usize],
        }
    }

    /// Creates a tensor from data.
    ///
    /// # Panics
    ///
    /// Panics if the data length does not match the shape volume.
    pub fn from_data(shape: &[u64], data: Vec<f64>) -> Self {
        let n: u64 = shape.iter().product();
        assert_eq!(n as usize, data.len(), "shape/data mismatch");
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }
}

/// The most elements a `let` may hold and the most iterations a `sum`
/// may run (2^24: a 128 MiB tensor). [`Plan::bind`] refuses a program
/// over it before anything is allocated.
pub const MAX_VOLUME: u64 = 1 << 24;

/// What kind of error an [`EvalError`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalErrorKind {
    /// An input is missing or has another shape than declared.
    Input,
    /// A subscript left the extent of its dimension.
    OutOfRange,
    /// A `let` or a `sum` spans more than [`MAX_VOLUME`] elements.
    TooLarge,
    /// A name, rank or index that [`check`](crate::check::check)
    /// refuses.
    Unchecked,
}

/// Evaluation error (out-of-range subscripts, missing inputs, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// What went wrong.
    pub kind: EvalErrorKind,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

fn err(kind: EvalErrorKind, message: String) -> EvalError {
    EvalError { kind, message }
}

/// Evaluates a program on the given inputs; returns all `let`-defined
/// tensors (outputs included).
///
/// # Errors
///
/// Returns an [`EvalError`] if the program is too large to bind, if an
/// input is missing or has the wrong shape, or if a subscript goes out
/// of range during evaluation.
pub fn evaluate(
    program: &Program,
    inputs: &HashMap<String, Tensor>,
) -> Result<BTreeMap<String, Tensor>, EvalError> {
    let plan = Plan::bind(program)?;
    // Stopping at the first absent input makes `run` report it after the
    // shapes of the inputs declared before it, one input at a time.
    let present: Vec<&Tensor> = program
        .inputs
        .iter()
        .map_while(|name| inputs.get(name))
        .collect();
    let tensors = plan.run(&present)?;
    let names = plan.lets.iter().map(|stmt| stmt.name.clone());
    Ok(names.zip(tensors).collect())
}

/// A program resolved and compiled for repeated evaluation.
#[derive(Debug)]
pub struct Plan {
    /// Name and declared shape of every input, in declaration order.
    inputs: Vec<(String, Vec<u64>)>,
    lets: Vec<CompiledLet>,
    /// Every `let`'s instructions, then those of the memo cells
    /// computed on demand.
    code: Vec<Op>,
    /// What each load reads.
    accesses: Vec<Access>,
    /// The subscripts of every load that are a loop index within the
    /// dimension's extent, back to back.
    indexed: Vec<Indexed>,
    /// The other subscripts of every load, back to back.
    computed: Vec<Computed>,
    /// The first instruction of each memo cell's list, for the cells
    /// computed on demand (`u32::MAX` for the others).
    entries: Vec<u32>,
    /// The registers a run starts from: one per loop slot (the loop's
    /// index), then the literals, the memo cells and the computed
    /// nodes.
    registers: Vec<f64>,
    /// Loop slots: `ROOT`, then one per `let` index and `sum` index.
    slots: usize,
}

#[derive(Debug)]
struct CompiledLet {
    name: String,
    shape: Vec<u64>,
    /// Its first instruction; `None` when it has no elements.
    entry: Option<u32>,
}

/// A run of entries in one of a plan's tables.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// The entries of `table` from `start` to its end.
    fn of<T>(table: &[T], start: usize) -> Span {
        Span {
            start: id(start),
            end: id(table.len()),
        }
    }

    fn get<T>(self, table: &[T]) -> &[T] {
        &table[self.start as usize..self.end as usize]
    }
}

/// A table position as an instruction field. Every table holds a few
/// entries per node of the source, so none reaches `u32::MAX`.
fn id(n: usize) -> u32 {
    u32::try_from(n).expect("plan tables stay under u32::MAX entries")
}

/// What one load reads: a tensor, at `base` (its literal subscripts,
/// all in range) plus its other subscripts.
#[derive(Debug, Clone, Copy)]
struct Access {
    source: Source,
    base: usize,
    indexed: Span,
    computed: Span,
}

/// A subscript that is a loop index no larger than the dimension: it
/// needs no check, only its stride.
#[derive(Debug, Clone, Copy)]
struct Indexed {
    slot: u32,
    stride: usize,
}

/// Any other subscript: the sum of two registers (the second holds
/// `0.0` when the subscript is no sum), truncated and checked against
/// the extent of dimension `dim`, then scaled by its stride.
#[derive(Debug, Clone, Copy)]
struct Computed {
    lhs: u32,
    rhs: u32,
    extent: u64,
    stride: usize,
    dim: u32,
}

/// One instruction. Every field but the operators is a register, an
/// instruction or a run of table entries. Each instruction goes on to
/// the next one unless it says where to go.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Sub {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Mul {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Div {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Min {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Max {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// `dst` = `1.0` when `lhs op rhs` holds, else `0.0`.
    Compare {
        op: CmpOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Call {
        builtin: Builtin,
        dst: u32,
        arg: u32,
    },
    Neg {
        dst: u32,
        arg: u32,
    },
    Copy {
        dst: u32,
        src: u32,
    },
    /// `dst` = the element `access` reads.
    Load {
        dst: u32,
        access: u32,
    },
    /// `dst = lhs * ` the element `access` reads: a product and the
    /// load that is its right operand.
    MulLoad {
        dst: u32,
        lhs: u32,
        access: u32,
    },
    /// Goes to `to` when `cond` is zero: the `select` takes its second
    /// arm.
    JumpIfZero {
        cond: u32,
        to: u32,
    },
    Jump {
        to: u32,
    },
    /// Puts the loop in `slot` at its first iteration.
    Enter {
        slot: u32,
    },
    /// Advances the loop in `slot`; unless that ends its `extent`
    /// iterations, its next one starts at `to`.
    Next {
        slot: u32,
        extent: u32,
        to: u32,
    },
    /// `acc += term`, then [`Op::Next`]: the step of a `sum`'s innermost
    /// loop.
    AddNext {
        acc: u32,
        term: u32,
        slot: u32,
        extent: u32,
        to: u32,
    },
    /// Stores `value` as the `let`'s next element.
    Store {
        value: u32,
    },
    /// Ends the `let`.
    End,
    /// Goes on when `cell` was filled in the current iteration of the
    /// loop in slot `per`. Otherwise stamps it and calls its
    /// instructions, which return to the next instruction.
    Check {
        cell: u32,
        per: u32,
    },
    /// Back to after the check that called `cell`.
    Return {
        cell: u32,
    },
}

/// The slot no loop owns: what depends on no index is tied to it, and
/// so is computed once per run.
const ROOT: usize = 0;

/// Where a load reads from: a caller's input, or an earlier `let`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    Input(u32),
    Let(u32),
}

impl Plan {
    /// Resolves and compiles a validated program.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] of kind [`EvalErrorKind::TooLarge`] for
    /// a `let` or a `sum` over more than [`MAX_VOLUME`] elements, and
    /// one of kind [`EvalErrorKind::Unchecked`] only for a [`Program`]
    /// that [`check`] did not produce: a name that is neither an index
    /// in scope nor a tensor defined earlier, a subscript count that is
    /// not the tensor's rank, or a loop over an undeclared index.
    ///
    /// [`check`]: crate::check::check
    pub fn bind(program: &Program) -> Result<Plan, EvalError> {
        let mut binder = Binder {
            program,
            tensors: HashMap::new(),
            scope: Vec::new(),
            extents: vec![1; ROOT + 1],
            memos: Vec::new(),
        };
        let mut inputs = Vec::with_capacity(program.inputs.len());
        for (i, name) in program.inputs.iter().enumerate() {
            let info = program
                .tensors
                .get(name)
                .ok_or_else(|| err(EvalErrorKind::Unchecked, format!("unknown tensor '{name}'")))?;
            binder
                .tensors
                .insert(name, (Source::Input(id(i)), info.shape.clone()));
            inputs.push((name.clone(), info.shape.clone()));
        }
        let mut lets = Vec::with_capacity(program.lets.len());
        for (k, stmt) in program.lets.iter().enumerate() {
            let loops = binder.enter(&stmt.indices)?;
            let shape: Vec<u64> = loops.iter().map(|l| l.extent).collect();
            if volume(&loops).is_none() {
                return Err(err(
                    EvalErrorKind::TooLarge,
                    format!(
                        "'{}' over {shape:?} holds more than {MAX_VOLUME} elements",
                        stmt.name
                    ),
                ));
            }
            let body = binder.bind(&stmt.value)?;
            let innermost = binder.scope.len().checked_sub(1);
            let body = binder.keep(body, innermost);
            binder.scope.clear();
            binder
                .tensors
                .insert(&stmt.name, (Source::Let(id(k)), shape.clone()));
            lets.push(BoundLet {
                name: stmt.name.clone(),
                shape,
                loops,
                body,
            });
        }
        Ok(Compiler::compile(
            inputs,
            &lets,
            &binder.extents,
            &binder.memos,
        ))
    }

    /// Position of the `let` named `name` in what [`Plan::run`] returns.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.lets.iter().position(|stmt| stmt.name == name)
    }

    /// Evaluates the program on `inputs`, borrowed in declaration order
    /// (any beyond the declared ones are ignored); returns one tensor
    /// per `let`, in statement order.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if an input is missing or has the wrong
    /// shape, or if a subscript goes out of range during evaluation.
    pub fn run(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>, EvalError> {
        for (i, (name, shape)) in self.inputs.iter().enumerate() {
            let tensor = inputs
                .get(i)
                .ok_or_else(|| err(EvalErrorKind::Input, format!("missing input '{name}'")))?;
            if tensor.shape != *shape {
                return Err(err(
                    EvalErrorKind::Input,
                    format!(
                        "input '{name}' has shape {:?}, expected {shape:?}",
                        tensor.shape
                    ),
                ));
            }
        }
        let mut frame = Frame {
            registers: self.registers.clone(),
            // Stamps start at 0, so no cell is valid before its loop's
            // first iteration — or, under `ROOT`, before its first use.
            slots: vec![Slot { index: 0, tick: 1 }; self.slots],
            cells: vec![Cell { stamp: 0, back: 0 }; self.entries.len()],
        };
        let mut lets = Vec::with_capacity(self.lets.len());
        for stmt in &self.lets {
            let mut result = Tensor::zeros(&stmt.shape);
            if let Some(entry) = stmt.entry {
                self.execute(entry, &mut frame, inputs, &lets, &mut result.data)?;
            }
            lets.push(result);
        }
        Ok(lets)
    }

    /// Runs one `let`'s instructions from `pc` to its end, storing its
    /// elements in `out` in row-major order.
    fn execute(
        &self,
        mut pc: u32,
        frame: &mut Frame,
        inputs: &[&Tensor],
        lets: &[Tensor],
        out: &mut [f64],
    ) -> Result<(), EvalError> {
        let Frame {
            registers,
            slots,
            cells,
        } = frame;
        let (r, slots, cells) = (&mut registers[..], &mut slots[..], &mut cells[..]);
        let mut element = 0;
        loop {
            match self.code[pc as usize] {
                Op::Add { dst, lhs, rhs } => r[dst as usize] = r[lhs as usize] + r[rhs as usize],
                Op::Sub { dst, lhs, rhs } => r[dst as usize] = r[lhs as usize] - r[rhs as usize],
                Op::Mul { dst, lhs, rhs } => r[dst as usize] = r[lhs as usize] * r[rhs as usize],
                Op::Div { dst, lhs, rhs } => r[dst as usize] = r[lhs as usize] / r[rhs as usize],
                Op::Min { dst, lhs, rhs } => {
                    r[dst as usize] = r[lhs as usize].min(r[rhs as usize]);
                }
                Op::Max { dst, lhs, rhs } => {
                    r[dst as usize] = r[lhs as usize].max(r[rhs as usize]);
                }
                Op::Compare { op, dst, lhs, rhs } => {
                    let (a, b) = (r[lhs as usize], r[rhs as usize]);
                    let holds = match op {
                        CmpOp::Le => a <= b,
                        CmpOp::Lt => a < b,
                        CmpOp::Ge => a >= b,
                        CmpOp::Gt => a > b,
                        CmpOp::Eq => a == b,
                        CmpOp::Ne => a != b,
                    };
                    r[dst as usize] = f64::from(u8::from(holds));
                }
                Op::Call { builtin, dst, arg } => {
                    let v = r[arg as usize];
                    r[dst as usize] = match builtin {
                        Builtin::Exp => v.exp(),
                        Builtin::Log => v.ln(),
                        Builtin::Sqrt => v.sqrt(),
                        Builtin::Abs => v.abs(),
                    };
                }
                Op::Neg { dst, arg } => r[dst as usize] = -r[arg as usize],
                Op::Copy { dst, src } => r[dst as usize] = r[src as usize],
                Op::Load { dst, access } => {
                    r[dst as usize] = self.load(access, r, slots, inputs, lets)?;
                }
                Op::MulLoad { dst, lhs, access } => {
                    r[dst as usize] =
                        r[lhs as usize] * self.load(access, r, slots, inputs, lets)?;
                }
                Op::JumpIfZero { cond, to } => {
                    if r[cond as usize] == 0.0 {
                        pc = to;
                        continue;
                    }
                }
                Op::Jump { to } => {
                    pc = to;
                    continue;
                }
                Op::Enter { slot } => {
                    r[slot as usize] = 0.0;
                    let slot = &mut slots[slot as usize];
                    slot.index = 0;
                    slot.tick += 1;
                }
                Op::Next { slot, extent, to } => {
                    if next(slot, extent, r, slots) {
                        pc = to;
                        continue;
                    }
                }
                Op::AddNext {
                    acc,
                    term,
                    slot,
                    extent,
                    to,
                } => {
                    r[acc as usize] += r[term as usize];
                    if next(slot, extent, r, slots) {
                        pc = to;
                        continue;
                    }
                }
                Op::Store { value } => {
                    out[element] = r[value as usize];
                    element += 1;
                }
                Op::End => return Ok(()),
                Op::Check { cell, per } => {
                    let tick = slots[per as usize].tick;
                    let state = &mut cells[cell as usize];
                    if state.stamp != tick {
                        // Stamped before it is filled: a failure on the way
                        // ends the run, so no stale value is ever read.
                        state.stamp = tick;
                        state.back = pc + 1;
                        pc = self.entries[cell as usize];
                        continue;
                    }
                }
                Op::Return { cell } => {
                    pc = cells[cell as usize].back;
                    continue;
                }
            }
            pc += 1;
        }
    }

    /// The element access `access` reads, or its error.
    #[inline(always)]
    fn load(
        &self,
        access: u32,
        r: &[f64],
        slots: &[Slot],
        inputs: &[&Tensor],
        lets: &[Tensor],
    ) -> Result<f64, EvalError> {
        let access = self.accesses[access as usize];
        let mut offset = access.base;
        for s in access.indexed.get(&self.indexed) {
            offset += slots[s.slot as usize].index * s.stride;
        }
        let computed = access.computed.get(&self.computed);
        let mut inside = true;
        for s in computed {
            let i = (r[s.lhs as usize] + r[s.rhs as usize]) as i64;
            // A negative subscript wraps past every extent.
            inside &= (i as u64) < s.extent;
            offset = offset.wrapping_add((i as usize).wrapping_mul(s.stride));
        }
        if !inside {
            return Err(self.out_of_range(access.source, computed, r));
        }
        Ok(match access.source {
            Source::Input(n) => inputs[n as usize].data[offset],
            Source::Let(k) => lets[k as usize].data[offset],
        })
    }

    /// The error of a load with a subscript out of range: the first such
    /// one, in dimension order (a subscript that needs no check is never
    /// out of range).
    #[cold]
    fn out_of_range(&self, source: Source, computed: &[Computed], r: &[f64]) -> EvalError {
        let name = match source {
            Source::Input(n) => &self.inputs[n as usize].0,
            Source::Let(k) => &self.lets[k as usize].name,
        };
        let (d, i, extent) = (computed.iter())
            .map(|s| {
                (
                    s.dim,
                    (r[s.lhs as usize] + r[s.rhs as usize]) as i64,
                    s.extent,
                )
            })
            .find(|&(_, i, extent)| i as u64 >= extent)
            .expect("a load out of range has a subscript out of range");
        err(
            EvalErrorKind::OutOfRange,
            format!("in '{name}': subscript {i} out of range for dim {d} (extent {extent})"),
        )
    }
}

/// What one [`Plan::run`] owns besides its tensors.
struct Frame {
    registers: Vec<f64>,
    slots: Vec<Slot>,
    cells: Vec<Cell>,
}

/// The state of one loop slot in a run.
#[derive(Clone, Copy)]
struct Slot {
    /// The loop's index; its register holds the same as an `f64`.
    index: usize,
    /// Bumped whenever the index is set, so a tick names one iteration
    /// of one loop for the whole run.
    tick: u64,
}

/// The state of one memo cell in a run; its value is in its register.
#[derive(Clone, Copy)]
struct Cell {
    /// The tick of its loop it was filled under.
    stamp: u64,
    /// The check that called it.
    back: u32,
}

/// Advances the loop in `slot`; `false` when that ends its `extent`
/// iterations.
fn next(slot: u32, extent: u32, registers: &mut [f64], slots: &mut [Slot]) -> bool {
    let state = &mut slots[slot as usize];
    state.tick += 1;
    state.index += 1;
    if state.index < extent as usize {
        registers[slot as usize] = state.index as f64;
        return true;
    }
    false
}

/// The number of iterations of `loops` together, when it is at most
/// [`MAX_VOLUME`].
fn volume(loops: &[Loop]) -> Option<u64> {
    (loops.iter())
        .try_fold(1u64, |volume, l| volume.checked_mul(l.extent))
        .filter(|&volume| volume <= MAX_VOLUME)
}

/// One index of a `let` or a `sum`. Every loop has a slot of its own, so
/// two loops over one index name never share a counter.
#[derive(Debug, PartialEq)]
struct Loop {
    slot: usize,
    extent: u64,
}

/// A literal. Nodes compare it by bits, so `0.0` and `-0.0` are two
/// sub-expressions and a NaN equals a NaN of the same bits.
#[derive(Debug, Clone, Copy)]
struct Literal(f64);

impl PartialEq for Literal {
    fn eq(&self, other: &Literal) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

/// A bound expression, what [`Compiler`] compiles. Equal nodes read the
/// same loops and compute the same value, or fail the same way, in each
/// iteration: what lets two kept ones share a memo cell.
#[derive(Debug, PartialEq)]
enum Node {
    Const(Literal),
    /// The current index of the loop in this slot.
    Index(usize),
    Load {
        source: Source,
        dims: Vec<Dim>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Node>,
        rhs: Box<Node>,
    },
    Compare {
        op: CmpOp,
        lhs: Box<Node>,
        rhs: Box<Node>,
    },
    Select {
        cond: Box<Node>,
        then: Box<Node>,
        otherwise: Box<Node>,
    },
    Sum {
        loops: Vec<Loop>,
        body: Box<Node>,
    },
    Call {
        builtin: Builtin,
        arg: Box<Node>,
    },
    Neg(Box<Node>),
    /// `Binder::memos[cell]` reads no loop deeper than the one in slot
    /// `per`: its value is kept in `cell` until that loop moves.
    Memo {
        cell: usize,
        per: usize,
    },
}

/// One subscript of a load, with the extent it is checked against and
/// the row-major stride it is scaled by.
#[derive(Debug, PartialEq)]
struct Dim {
    subscript: Node,
    extent: u64,
    stride: usize,
}

/// Scope positions (outermost loop first) of the indices a node reads.
type Reads = Vec<usize>;

struct Binder<'p> {
    program: &'p Program,
    tensors: HashMap<&'p str, (Source, Vec<u64>)>,
    /// Loops in scope, outermost first: index name and slot.
    scope: Vec<(&'p str, usize)>,
    /// The extent of the loop in each slot.
    extents: Vec<u64>,
    /// What each memo cell holds and the slot of the loop it is tied
    /// to, by cell.
    memos: Vec<(Node, usize)>,
}

impl<'p> Binder<'p> {
    /// Opens one loop per index, in order, each in a fresh slot.
    fn enter(&mut self, indices: &'p [String]) -> Result<Vec<Loop>, EvalError> {
        let mut loops = Vec::with_capacity(indices.len());
        for name in indices {
            if !self.program.indices.contains_key(name) {
                return Err(err(
                    EvalErrorKind::Unchecked,
                    format!("undeclared index '{name}'"),
                ));
            }
            let extent = self.program.extent(name);
            loops.push(Loop {
                slot: self.extents.len(),
                extent,
            });
            self.scope.push((name, self.extents.len()));
            self.extents.push(extent);
        }
        Ok(loops)
    }

    /// Wraps a node that reads no loop as deep as `under` (the deepest
    /// loop its parent reads, or the loop whose body it is) in a memo
    /// tied to the deepest loop it does read — in the cell of an equal
    /// node kept before, if there is one.
    fn keep(&mut self, (node, reads): (Node, Reads), under: Option<usize>) -> Node {
        let deepest = reads.iter().max().copied();
        let trivial = match &node {
            Node::Const(_) | Node::Index(_) => true,
            Node::Load { dims, .. } => dims.is_empty(),
            _ => false,
        };
        if trivial || deepest >= under {
            return node;
        }
        let per = deepest.map_or(ROOT, |position| self.scope[position].1);
        // Equal nodes read the same loops, so are tied to the same one.
        let shared = self.memos.iter().position(|(kept, _)| *kept == node);
        let cell = shared.unwrap_or_else(|| {
            self.memos.push((node, per));
            self.memos.len() - 1
        });
        Node::Memo { cell, per }
    }

    /// Binds the operands of one node, keeping each one whose deepest
    /// loop is shallower than the deepest the node as a whole reads.
    fn operands(
        &mut self,
        exprs: impl IntoIterator<Item = &'p Expr>,
    ) -> Result<(Vec<Node>, Reads), EvalError> {
        let mut bound = Vec::new();
        for expr in exprs {
            bound.push(self.bind(expr)?);
        }
        let reads: Reads = bound.iter().flat_map(|(_, r)| r.iter().copied()).collect();
        let under = reads.iter().max().copied();
        let nodes = bound.into_iter().map(|b| self.keep(b, under)).collect();
        Ok((nodes, reads))
    }

    /// [`Binder::operands`] for a node of fixed arity.
    fn boxed<const N: usize>(
        &mut self,
        exprs: [&'p Expr; N],
    ) -> Result<([Box<Node>; N], Reads), EvalError> {
        let (nodes, reads) = self.operands(exprs)?;
        let mut nodes = nodes.into_iter().map(Box::new);
        let nodes = std::array::from_fn(|_| nodes.next().expect("one node per operand"));
        Ok((nodes, reads))
    }

    fn bind(&mut self, expr: &'p Expr) -> Result<(Node, Reads), EvalError> {
        Ok(match expr {
            Expr::Int(v) => (Node::Const(Literal(*v as f64)), Vec::new()),
            Expr::Float(v) => (Node::Const(Literal(*v)), Vec::new()),
            Expr::Ref { name, subscripts } => {
                // The innermost loop over a name is the one a reference sees.
                if let Some(position) = self.scope.iter().rposition(|(n, _)| n == name) {
                    return Ok((Node::Index(self.scope[position].1), vec![position]));
                }
                let (source, shape) =
                    self.tensors.get(name.as_str()).cloned().ok_or_else(|| {
                        err(EvalErrorKind::Unchecked, format!("unknown tensor '{name}'"))
                    })?;
                let subscripts = subscripts.as_deref().unwrap_or(&[]);
                if subscripts.len() != shape.len() {
                    return Err(err(
                        EvalErrorKind::Unchecked,
                        format!(
                            "in '{name}': rank {} tensor indexed with {} subscripts",
                            shape.len(),
                            subscripts.len()
                        ),
                    ));
                }
                let (nodes, reads) = self.operands(subscripts)?;
                let mut stride = 1usize;
                let mut dims = Vec::with_capacity(shape.len());
                for (subscript, &extent) in nodes.into_iter().zip(&shape).rev() {
                    dims.push(Dim {
                        subscript,
                        extent,
                        stride,
                    });
                    stride = stride.saturating_mul(extent as usize);
                }
                dims.reverse();
                (Node::Load { source, dims }, reads)
            }
            Expr::Binary { op, lhs, rhs } => {
                let ([lhs, rhs], reads) = self.boxed([lhs, rhs])?;
                (Node::Binary { op: *op, lhs, rhs }, reads)
            }
            Expr::Compare { op, lhs, rhs } => {
                let ([lhs, rhs], reads) = self.boxed([lhs, rhs])?;
                (Node::Compare { op: *op, lhs, rhs }, reads)
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                let ([cond, then, otherwise], reads) = self.boxed([cond, then, otherwise])?;
                (
                    Node::Select {
                        cond,
                        then,
                        otherwise,
                    },
                    reads,
                )
            }
            Expr::Sum { indices, body } => {
                let outer = self.scope.len();
                let loops = self.enter(indices)?;
                if volume(&loops).is_none() {
                    return Err(err(
                        EvalErrorKind::TooLarge,
                        format!(
                            "sum({}) runs more than {MAX_VOLUME} iterations",
                            indices.join(", ")
                        ),
                    ));
                }
                let body = self.bind(body)?;
                let mut reads = body.1.clone();
                let innermost = self.scope.len().checked_sub(1);
                let body = Box::new(self.keep(body, innermost));
                self.scope.truncate(outer);
                reads.retain(|&position| position < outer);
                (Node::Sum { loops, body }, reads)
            }
            Expr::Call { builtin, arg } => {
                let ([arg], reads) = self.boxed([arg])?;
                (
                    Node::Call {
                        builtin: *builtin,
                        arg,
                    },
                    reads,
                )
            }
            Expr::Neg(inner) => {
                let ([inner], reads) = self.boxed([inner])?;
                (Node::Neg(inner), reads)
            }
        })
    }
}

/// A bound `let`, what [`Compiler`] compiles.
struct BoundLet {
    name: String,
    shape: Vec<u64>,
    loops: Vec<Loop>,
    body: Node,
}

/// Whether a kept node is computed where it is read instead of in a memo
/// cell: one add, subtract, multiply, min, max or negation of literals,
/// loop indices and cells. Cheaper than a cell, it cannot fail, and the
/// cells it reads were filled when it was first reached, so computing it
/// again changes no value and no error.
fn in_place(node: &Node) -> bool {
    let leaf = |n: &Node| matches!(n, Node::Const(_) | Node::Index(_) | Node::Memo { .. });
    match node {
        Node::Binary { op, lhs, rhs } => *op != BinOp::Div && leaf(lhs) && leaf(rhs),
        Node::Neg(inner) => leaf(inner),
        _ => false,
    }
}

/// When a memo cell is computed.
#[derive(Debug, Clone, Copy)]
enum Keep {
    /// Where it is read: see [`in_place`].
    InPlace,
    /// Into its register at the top of each iteration of its loop: a
    /// cell that cannot fail and holds no `sum`. Computing it before it
    /// is first reached, or where it is never reached, changes no value
    /// and no error.
    Eager(u32),
    /// Into its register at the top of each iteration of its loop,
    /// after the eager cells: a cell that may fail, but that the body of
    /// its loop nest reaches before anything else that may fail or
    /// branch. See [`Compiler::lead`].
    Hoisted(u32),
    /// Into its register where it is first reached in each iteration of
    /// its loop, called from an [`Op::Check`] before each read.
    OnDemand(u32),
}

/// Turns bound nodes into instructions. Every node that computes gets a
/// register of its own; a literal, a loop index and a memo cell are read
/// where they already are.
struct Compiler<'b> {
    code: Vec<Op>,
    accesses: Vec<Access>,
    indexed: Vec<Indexed>,
    computed: Vec<Computed>,
    registers: Vec<f64>,
    /// The register of each literal, by its bits.
    literals: HashMap<u64, u32>,
    /// The extent of the loop in each slot.
    extents: &'b [u64],
    /// What each memo cell holds, and the slot of its loop.
    memos: &'b [(Node, usize)],
    cells: Vec<Keep>,
    /// The cells computed at the top of each slot's loop: the eager ones
    /// in cell order (a cell's own cells come before it), then the
    /// hoisted ones in the order the body reaches them.
    tops: Vec<Vec<usize>>,
}

impl<'b> Compiler<'b> {
    /// Compiles every `let`, then every memo cell computed on demand.
    fn compile(
        inputs: Vec<(String, Vec<u64>)>,
        bound: &'b [BoundLet],
        extents: &'b [u64],
        memos: &'b [(Node, usize)],
    ) -> Plan {
        let mut compiler = Compiler {
            code: Vec::new(),
            accesses: Vec::new(),
            indexed: Vec::new(),
            computed: Vec::new(),
            registers: vec![0.0; extents.len()],
            literals: HashMap::new(),
            extents,
            memos,
            cells: Vec::with_capacity(memos.len()),
            tops: vec![Vec::new(); extents.len()],
        };
        for (cell, (node, per)) in memos.iter().enumerate() {
            let keep = if in_place(node) {
                Keep::InPlace
            } else if *per != ROOT && compiler.infallible(node) {
                // Not under `ROOT`: that would compute it before the
                // `let`s it reads exist.
                compiler.tops[*per].push(cell);
                Keep::Eager(compiler.register())
            } else {
                Keep::OnDemand(compiler.register())
            };
            compiler.cells.push(keep);
        }
        for stmt in bound {
            compiler.lead(&stmt.body, &stmt.loops);
            compiler.nests(&stmt.body);
        }
        for (node, _) in memos {
            compiler.nests(node);
        }
        let mut lets = Vec::with_capacity(bound.len());
        for stmt in bound {
            let entry = stmt.loops.iter().all(|l| l.extent > 0).then(|| {
                let entry = compiler.here();
                let tops = compiler.open(&stmt.loops);
                let value = compiler.operand(&stmt.body);
                compiler.code.push(Op::Store { value });
                compiler.close(&stmt.loops, &tops);
                compiler.code.push(Op::End);
                entry
            });
            lets.push(CompiledLet {
                name: stmt.name.clone(),
                shape: stmt.shape.clone(),
                entry,
            });
        }
        let mut entries = vec![u32::MAX; memos.len()];
        for (cell, (node, _)) in memos.iter().enumerate() {
            if let Keep::OnDemand(register) = compiler.cells[cell] {
                entries[cell] = compiler.here();
                compiler.compute(node, register);
                compiler.code.push(Op::Return { cell: id(cell) });
            }
        }
        Plan {
            inputs,
            lets,
            code: compiler.code,
            accesses: compiler.accesses,
            indexed: compiler.indexed,
            computed: compiler.computed,
            entries,
            registers: compiler.registers,
            slots: extents.len(),
        }
    }

    fn register(&mut self) -> u32 {
        self.registers.push(0.0);
        id(self.registers.len() - 1)
    }

    fn literal(&mut self, value: f64) -> u32 {
        if let Some(&register) = self.literals.get(&value.to_bits()) {
            return register;
        }
        let register = self.register();
        self.registers[register as usize] = value;
        self.literals.insert(value.to_bits(), register);
        register
    }

    /// The position of the next instruction.
    fn here(&self) -> u32 {
        id(self.code.len())
    }

    /// `node`, or what its cell holds when that is computed in place.
    fn resolve(&self, node: &'b Node) -> &'b Node {
        match node {
            Node::Memo { cell, .. } if matches!(self.cells[*cell], Keep::InPlace) => {
                &self.memos[*cell].0
            }
            _ => node,
        }
    }

    /// Whether a literal subscript is inside its extent.
    fn fits(value: f64, extent: u64) -> bool {
        (value as i64 as u64) < extent
    }

    /// Whether `node` can never fail: every load it makes is at loop
    /// indices and literals inside their extents, and every cell it
    /// reads is computed eagerly or in place. It holds no `sum`.
    fn infallible(&self, node: &'b Node) -> bool {
        match self.resolve(node) {
            Node::Const(_) | Node::Index(_) => true,
            Node::Memo { cell, .. } => matches!(self.cells[*cell], Keep::Eager(_)),
            Node::Load { dims, .. } => dims.iter().all(|d| match self.resolve(&d.subscript) {
                Node::Index(slot) => self.extents[*slot] <= d.extent,
                Node::Const(literal) => Self::fits(literal.0, d.extent),
                _ => false,
            }),
            Node::Binary { lhs, rhs, .. } | Node::Compare { lhs, rhs, .. } => {
                self.infallible(lhs) && self.infallible(rhs)
            }
            Node::Select {
                cond,
                then,
                otherwise,
            } => self.infallible(cond) && self.infallible(then) && self.infallible(otherwise),
            Node::Call { arg, .. } | Node::Neg(arg) => self.infallible(arg),
            Node::Sum { .. } => false,
        }
    }

    /// Hoists the cells the body of a loop nest over `nest` reaches
    /// before anything that may fail or branch: each is filled at the
    /// top of its loop's iteration instead of at that first reach, which
    /// changes no value and no error. It stops at a cell of a loop
    /// outside the nest, or of a shallower loop than the cell before it,
    /// whose first fill would then move ahead of another.
    fn lead(&mut self, body: &'b Node, nest: &[Loop]) {
        let mut reached = Vec::new();
        self.leading(body, &mut reached);
        let mut depth = 0;
        for cell in reached {
            let per = self.memos[cell].1;
            let Some(d) = nest
                .iter()
                .position(|l| l.slot == per)
                .filter(|&d| d >= depth)
            else {
                break;
            };
            depth = d;
            let Keep::OnDemand(register) = self.cells[cell] else {
                unreachable!("only cells computed on demand are reached")
            };
            self.cells[cell] = Keep::Hoisted(register);
            self.tops[per].push(cell);
        }
    }

    /// Collects, in evaluation order, the cells computed on demand that
    /// `node` reaches; `false` once it reaches something else that may
    /// fail or a branch.
    fn leading(&self, node: &'b Node, reached: &mut Vec<usize>) -> bool {
        match self.resolve(node) {
            Node::Const(_) | Node::Index(_) => true,
            Node::Memo { cell, .. } => {
                if matches!(self.cells[*cell], Keep::OnDemand(_)) && !reached.contains(cell) {
                    reached.push(*cell);
                }
                true
            }
            load @ Node::Load { dims, .. } => {
                dims.iter().all(|d| self.leading(&d.subscript, reached)) && self.infallible(load)
            }
            Node::Binary { lhs, rhs, .. } | Node::Compare { lhs, rhs, .. } => {
                self.leading(lhs, reached) && self.leading(rhs, reached)
            }
            Node::Call { arg, .. } | Node::Neg(arg) => self.leading(arg, reached),
            Node::Select { cond, .. } => {
                self.leading(cond, reached);
                false
            }
            Node::Sum { .. } => false,
        }
    }

    /// [`Compiler::lead`] for every `sum` in `node`, outside the cells
    /// it reads.
    fn nests(&mut self, node: &'b Node) {
        match self.resolve(node) {
            Node::Const(_) | Node::Index(_) | Node::Memo { .. } => {}
            Node::Load { dims, .. } => {
                for d in dims {
                    self.nests(&d.subscript);
                }
            }
            Node::Binary { lhs, rhs, .. } | Node::Compare { lhs, rhs, .. } => {
                self.nests(lhs);
                self.nests(rhs);
            }
            Node::Select {
                cond,
                then,
                otherwise,
            } => {
                self.nests(cond);
                self.nests(then);
                self.nests(otherwise);
            }
            Node::Sum { loops, body } => {
                self.lead(body, loops);
                self.nests(body);
            }
            Node::Call { arg, .. } | Node::Neg(arg) => self.nests(arg),
        }
    }

    /// Enters `loops`, outermost first, each followed by the top of its
    /// iteration, where the cells eager or hoisted for it are computed.
    /// Returns the tops.
    fn open(&mut self, loops: &[Loop]) -> Vec<u32> {
        let mut tops = Vec::with_capacity(loops.len());
        for l in loops {
            self.code.push(Op::Enter { slot: id(l.slot) });
            tops.push(self.here());
            for k in 0..self.tops[l.slot].len() {
                let cell = self.tops[l.slot][k];
                let (Keep::Eager(register) | Keep::Hoisted(register)) = self.cells[cell] else {
                    unreachable!("computed at the top of its loop")
                };
                self.compute(&self.memos[cell].0, register);
            }
        }
        tops
    }

    /// Advances `loops`, innermost first, each back to its top.
    fn close(&mut self, loops: &[Loop], tops: &[u32]) {
        for (l, &to) in loops.iter().zip(tops).rev() {
            self.code.push(Op::Next {
                slot: id(l.slot),
                // Under `MAX_VOLUME`, checked by `bind`.
                extent: id(l.extent as usize),
                to,
            });
        }
    }

    /// The register that holds `node`'s value once the instructions
    /// emitted for it have run.
    fn operand(&mut self, node: &'b Node) -> u32 {
        match self.resolve(node) {
            Node::Const(literal) => self.literal(literal.0),
            Node::Index(slot) => id(*slot),
            Node::Memo { cell, per } => match self.cells[*cell] {
                Keep::Eager(register) | Keep::Hoisted(register) => register,
                Keep::OnDemand(register) => {
                    self.code.push(Op::Check {
                        cell: id(*cell),
                        per: id(*per),
                    });
                    register
                }
                Keep::InPlace => unreachable!("resolved above"),
            },
            node => {
                let dst = self.register();
                self.compute(node, dst);
                dst
            }
        }
    }

    /// Emits the instructions that compute a load's subscripts, in
    /// order (their own loads may fail before this one checks anything),
    /// and returns the load's entry in [`Plan::accesses`]. A subscript
    /// that is a sum is added in the load.
    fn access(&mut self, source: Source, dims: &'b [Dim]) -> u32 {
        let (mut base, mut indexed, mut computed) = (0, Vec::new(), Vec::new());
        for (d, dim) in dims.iter().enumerate() {
            let (extent, stride) = (dim.extent, dim.stride);
            let (lhs, rhs) = match self.resolve(&dim.subscript) {
                Node::Index(slot) if self.extents[*slot] <= extent => {
                    indexed.push(Indexed {
                        slot: id(*slot),
                        stride,
                    });
                    continue;
                }
                Node::Const(literal) if Self::fits(literal.0, extent) => {
                    base += literal.0 as i64 as usize * stride;
                    continue;
                }
                Node::Binary {
                    op: BinOp::Add,
                    lhs,
                    rhs,
                } => (self.operand(lhs), self.operand(rhs)),
                subscript => (self.operand(subscript), self.literal(0.0)),
            };
            computed.push(Computed {
                lhs,
                rhs,
                extent,
                stride,
                dim: id(d),
            });
        }
        let start = self.indexed.len();
        self.indexed.extend(indexed);
        let indexed = Span::of(&self.indexed, start);
        let start = self.computed.len();
        self.computed.extend(computed);
        let computed = Span::of(&self.computed, start);
        self.accesses.push(Access {
            source,
            base,
            indexed,
            computed,
        });
        id(self.accesses.len() - 1)
    }

    /// Emits the instructions that leave `node`'s value in `dst`.
    fn compute(&mut self, node: &'b Node, dst: u32) {
        let op = match self.resolve(node) {
            leaf @ (Node::Const(_) | Node::Index(_) | Node::Memo { .. }) => Op::Copy {
                dst,
                src: self.operand(leaf),
            },
            Node::Load { source, dims } => Op::Load {
                dst,
                access: self.access(*source, dims),
            },
            Node::Binary {
                op: BinOp::Mul,
                lhs,
                rhs,
            } if matches!(self.resolve(rhs), Node::Load { .. }) => {
                let lhs = self.operand(lhs);
                let Node::Load { source, dims } = self.resolve(rhs) else {
                    unreachable!("matched above")
                };
                Op::MulLoad {
                    dst,
                    lhs,
                    access: self.access(*source, dims),
                }
            }
            Node::Binary { op, lhs, rhs } => {
                let (lhs, rhs) = (self.operand(lhs), self.operand(rhs));
                match op {
                    BinOp::Add => Op::Add { dst, lhs, rhs },
                    BinOp::Sub => Op::Sub { dst, lhs, rhs },
                    BinOp::Mul => Op::Mul { dst, lhs, rhs },
                    BinOp::Div => Op::Div { dst, lhs, rhs },
                    BinOp::Min => Op::Min { dst, lhs, rhs },
                    BinOp::Max => Op::Max { dst, lhs, rhs },
                }
            }
            Node::Compare { op, lhs, rhs } => {
                let (lhs, rhs) = (self.operand(lhs), self.operand(rhs));
                Op::Compare {
                    op: *op,
                    dst,
                    lhs,
                    rhs,
                }
            }
            Node::Select {
                cond,
                then,
                otherwise,
            } => {
                let cond = self.operand(cond);
                let branch = self.code.len();
                self.code.push(Op::JumpIfZero { cond, to: u32::MAX });
                self.compute(then, dst);
                let skip = self.code.len();
                self.code.push(Op::Jump { to: u32::MAX });
                let to = self.here();
                self.code[branch] = Op::JumpIfZero { cond, to };
                self.compute(otherwise, dst);
                let to = self.here();
                self.code[skip] = Op::Jump { to };
                return;
            }
            Node::Sum { loops, body } => {
                let zero = self.literal(0.0);
                self.code.push(Op::Copy { dst, src: zero });
                let Some((inner, outer)) = loops.split_last() else {
                    // Over no index: the body once.
                    let term = self.operand(body);
                    self.code.push(Op::Add {
                        dst,
                        lhs: dst,
                        rhs: term,
                    });
                    return;
                };
                if loops.iter().any(|l| l.extent == 0) {
                    // No iteration: the body never runs.
                    return;
                }
                let tops = self.open(loops);
                let term = self.operand(body);
                self.code.push(Op::AddNext {
                    acc: dst,
                    term,
                    slot: id(inner.slot),
                    extent: id(inner.extent as usize),
                    to: tops[outer.len()],
                });
                self.close(outer, &tops[..outer.len()]);
                return;
            }
            Node::Call { builtin, arg } => Op::Call {
                builtin: *builtin,
                dst,
                arg: self.operand(arg),
            },
            Node::Neg(inner) => Op::Neg {
                dst,
                arg: self.operand(inner),
            },
        };
        self.code.push(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    fn run(src: &str, inputs: &[(&str, Tensor)]) -> BTreeMap<String, Tensor> {
        let program = check(&parse(src).unwrap()).unwrap();
        let map: HashMap<String, Tensor> = inputs
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect();
        evaluate(&program, &map).unwrap()
    }

    #[test]
    fn elementwise_scale() {
        let out = run(
            "kernel k { index i : 0..4 input a : [i] let y[i] = 2.0 * a[i] + 1.0 output y }",
            &[("a", Tensor::from_data(&[4], vec![1.0, 2.0, 3.0, 4.0]))],
        );
        assert_eq!(out["y"].data, vec![3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn matvec_with_sum() {
        let out = run(
            "kernel k {
               index i : 0..2
               index j : 0..3
               input m : [i, j]
               input v : [j]
               let y[i] = sum(j)(m[i, j] * v[j])
               output y
             }",
            &[
                (
                    "m",
                    Tensor::from_data(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                ),
                ("v", Tensor::from_data(&[3], vec![1.0, 0.5, 2.0])),
            ],
        );
        assert_eq!(out["y"].data, vec![8.0, 18.5]);
    }

    #[test]
    fn select_and_compare() {
        let out = run(
            "kernel k {
               index i : 0..4
               input p : [i]
               input cut : []
               let below[i] = select(p[i] <= cut, 1, 0)
               output below
             }",
            &[
                ("p", Tensor::from_data(&[4], vec![0.1, 0.5, 0.9, 0.3])),
                ("cut", Tensor::from_data(&[], vec![0.4])),
            ],
        );
        assert_eq!(out["below"].data, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn subscripted_subscripts_gather() {
        let out = run(
            "kernel k {
               index i : 0..3
               input table : [5]
               input idx : [i] of int
               let y[i] = table[idx[i]]
               output y
             }",
            &[
                (
                    "table",
                    Tensor::from_data(&[5], vec![10.0, 11.0, 12.0, 13.0, 14.0]),
                ),
                ("idx", Tensor::from_data(&[3], vec![4.0, 0.0, 2.0])),
            ],
        );
        assert_eq!(out["y"].data, vec![14.0, 10.0, 12.0]);
    }

    #[test]
    fn index_arithmetic_in_subscripts() {
        // y[i] = a[i+1] - a[i]  (finite difference via index re-association)
        let out = run(
            "kernel k {
               index i : 0..3
               input a : [4]
               let y[i] = a[i + 1] - a[i]
               output y
             }",
            &[("a", Tensor::from_data(&[4], vec![1.0, 4.0, 9.0, 16.0]))],
        );
        assert_eq!(out["y"].data, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn out_of_range_subscript_reports_context() {
        let program = check(
            &parse(
                "kernel k {
                   index i : 0..4
                   input a : [4]
                   let y[i] = a[i + 1]
                   output y
                 }",
            )
            .unwrap(),
        )
        .unwrap();
        let mut inputs = HashMap::new();
        inputs.insert(
            "a".to_string(),
            Tensor::from_data(&[4], vec![0.0, 1.0, 2.0, 3.0]),
        );
        let err = evaluate(&program, &inputs).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        assert!(err.message.contains("'a'"), "{err}");
    }

    #[test]
    fn missing_and_misshaped_inputs_error() {
        let program = check(
            &parse("kernel k { index i : 0..2 input a : [i] let y[i] = a[i] output y }").unwrap(),
        )
        .unwrap();
        let err = evaluate(&program, &HashMap::new()).unwrap_err();
        assert!(err.message.contains("missing input"));

        let mut bad = HashMap::new();
        bad.insert("a".to_string(), Tensor::zeros(&[3]));
        let err = evaluate(&program, &bad).unwrap_err();
        assert!(err.message.contains("shape"));
    }

    #[test]
    fn builtins_and_neg() {
        let out = run(
            "kernel k {
               input x : []
               let y = exp(log(x)) + sqrt(x * x) - abs(-x)
               output y
             }",
            &[("x", Tensor::from_data(&[], vec![3.0]))],
        );
        assert!((out["y"].data[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rrtmg_reads_its_flavour_through_one_shared_cell() {
        // `i_flav[x]` is kept three times under `tau_abs`'s `x`: once per
        // load it indexes. Unshared, the plan had nine cells.
        let dims = crate::rrtmg::RrtmgDims::default();
        let plan = Plan::bind(&crate::rrtmg::major_absorber_program(dims)).unwrap();
        assert_eq!(plan.entries.len(), 7);
    }

    #[test]
    fn equal_sub_expressions_under_two_sums_keep_their_own_cells() {
        // `a[i] * b[j]` is kept under each `sum(j)`; the two sums are two
        // loops, so two cells. `a[i]` is kept for `i` in both: one cell.
        let src = "kernel k {
               index i : 0..3
               index j : 0..2
               index k : 0..2
               input a : [i]
               input b : [j]
               let y[i] = sum(j)(sum(k)(a[i] * b[j] + k)) + sum(j)(sum(k)(a[i] * b[j] - k))
               output y
             }";
        let program = check(&parse(src).unwrap()).unwrap();
        let plan = Plan::bind(&program).unwrap();
        assert_eq!(plan.entries.len(), 3);
        let out = run(
            src,
            &[
                ("a", Tensor::from_data(&[3], vec![1.0, 2.0, 3.0])),
                ("b", Tensor::from_data(&[2], vec![0.5, -1.0])),
            ],
        );
        assert_eq!(out["y"].data, vec![-2.0, -4.0, -6.0]);
    }

    #[test]
    fn scalar_kernel_evaluates_once() {
        let out = run(
            "kernel k { input a : [] let y = a * a output y }",
            &[("a", Tensor::from_data(&[], vec![7.0]))],
        );
        assert_eq!(out["y"].data, vec![49.0]);
    }
}

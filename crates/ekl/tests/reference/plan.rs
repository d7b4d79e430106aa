//! The bound tree-walker `everest_ekl::interp` replaced with compiled
//! instruction lists, kept as the reference `plan_props.rs` holds the
//! compiled plan to (`plan_matches_the_bound_tree_walker`).
//!
//! `Plan::bind` resolves names to loop slots and strided tensors and
//! keeps outer-loop sub-expressions in shared memo cells; `Plan::run`
//! walks the bound tree recursively, one `Result` per node. The edits
//! since it left `src/`: paths name the crate, every error carries its
//! kind, and [`Plan::cells_by_let`] tells the coverage test which
//! cells each `let` reads.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use everest_ekl::ast::{BinOp, Builtin, CmpOp, Expr};
use everest_ekl::check::Program;
use everest_ekl::interp::{EvalError, EvalErrorKind, Tensor};

fn err(kind: EvalErrorKind, message: String) -> EvalError {
    EvalError { kind, message }
}

/// Evaluates a program on the given inputs; returns all `let`-defined
/// tensors (outputs included).
///
/// # Errors
///
/// Returns an [`EvalError`] if an input is missing or has the wrong shape,
/// or if a subscript goes out of range during evaluation.
pub(crate) fn evaluate(
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

/// A program resolved for repeated evaluation.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Name and declared shape of every input, in declaration order.
    inputs: Vec<(String, Vec<u64>)>,
    lets: Vec<BoundLet>,
    /// Loop slots: `ROOT`, then one per `let` index and `sum` index.
    slots: usize,
    /// What each memo cell holds, by cell; every [`Node::Memo`] naming
    /// the cell evaluates this node when the cell is stale.
    memos: Vec<Node>,
}

#[derive(Debug)]
struct BoundLet {
    name: String,
    shape: Vec<u64>,
    loops: Vec<Loop>,
    body: Node,
}

/// One index of a `let` or a `sum`. Every loop has a slot of its own, so
/// two loops over one index name never share a counter.
#[derive(Debug, PartialEq)]
struct Loop {
    slot: usize,
    extent: u64,
}

/// The slot no loop owns: what depends on no index is tied to it, and
/// so is computed once per run.
const ROOT: usize = 0;

/// Where a load reads from: a caller's input, or an earlier `let`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    Input(usize),
    Let(usize),
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

/// Equal nodes read the same loops and compute the same value, or fail
/// the same way, in each iteration: what lets two kept ones share a
/// memo cell.
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
        volume: u64,
        body: Box<Node>,
    },
    Call {
        builtin: Builtin,
        arg: Box<Node>,
    },
    Neg(Box<Node>),
    /// `Plan::memos[cell]` reads no loop deeper than the one in slot
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

impl Plan {
    /// Resolves a validated program.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] only for a [`Program`] that [`check`]
    /// did not produce: a name that is neither an index in scope nor a
    /// tensor defined earlier, a subscript count that is not the
    /// tensor's rank, or a loop over an undeclared index.
    ///
    /// [`check`]: crate::check::check
    pub(crate) fn bind(program: &Program) -> Result<Plan, EvalError> {
        let mut binder = Binder {
            program,
            tensors: HashMap::new(),
            scope: Vec::new(),
            slots: ROOT + 1,
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
                .insert(name, (Source::Input(i), info.shape.clone()));
            inputs.push((name.clone(), info.shape.clone()));
        }
        let mut lets = Vec::with_capacity(program.lets.len());
        for (k, stmt) in program.lets.iter().enumerate() {
            let loops = binder.enter(&stmt.indices)?;
            let body = binder.bind(&stmt.value)?;
            let innermost = binder.scope.len().checked_sub(1);
            let body = binder.keep(body, innermost);
            binder.scope.clear();
            let shape: Vec<u64> = loops.iter().map(|l| l.extent).collect();
            binder
                .tensors
                .insert(&stmt.name, (Source::Let(k), shape.clone()));
            lets.push(BoundLet {
                name: stmt.name.clone(),
                shape,
                loops,
                body,
            });
        }
        Ok(Plan {
            inputs,
            lets,
            slots: binder.slots,
            memos: binder.memos,
        })
    }

    /// The memo cells each `let` reads, directly or through the cells
    /// it reads.
    pub(crate) fn cells_by_let(&self) -> Vec<BTreeSet<usize>> {
        let cells_of = |body: &Node| {
            let mut cells = BTreeSet::new();
            let mut todo = vec![body];
            while let Some(node) = todo.pop() {
                match node {
                    Node::Const(_) | Node::Index(_) => {}
                    Node::Memo { cell, .. } => {
                        if cells.insert(*cell) {
                            todo.push(&self.memos[*cell]);
                        }
                    }
                    Node::Load { dims, .. } => todo.extend(dims.iter().map(|d| &d.subscript)),
                    Node::Binary { lhs, rhs, .. } | Node::Compare { lhs, rhs, .. } => {
                        todo.extend([&**lhs, &**rhs]);
                    }
                    Node::Select {
                        cond,
                        then,
                        otherwise,
                    } => todo.extend([&**cond, &**then, &**otherwise]),
                    Node::Sum { body, .. } => todo.push(body),
                    Node::Call { arg, .. } | Node::Neg(arg) => todo.push(arg),
                }
            }
            cells
        };
        self.lets.iter().map(|stmt| cells_of(&stmt.body)).collect()
    }

    /// Evaluates the program on `inputs`, borrowed in declaration order
    /// (any beyond the declared ones are ignored); returns one tensor
    /// per `let`, in statement order.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if an input is missing or has the wrong
    /// shape, or if a subscript goes out of range during evaluation.
    pub(crate) fn run(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>, EvalError> {
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
            plan: self,
            inputs,
            lets: Vec::with_capacity(self.lets.len()),
            index: vec![0; self.slots],
            // Stamps start at 0, so no cell is valid before its loop's
            // first iteration — or, under `ROOT`, before its first use.
            tick: vec![1; self.slots],
            memo: vec![(0, 0.0); self.memos.len()],
        };
        for stmt in &self.lets {
            let mut result = Tensor::zeros(&stmt.shape);
            frame.first(&stmt.loops);
            for out in &mut result.data {
                *out = frame.eval(&stmt.body).map_err(|e| *e)?;
                frame.next(&stmt.loops);
            }
            frame.lets.push(result);
        }
        Ok(frame.lets)
    }
}

/// Scope positions (outermost loop first) of the indices a node reads.
type Reads = Vec<usize>;

struct Binder<'p> {
    program: &'p Program,
    tensors: HashMap<&'p str, (Source, Vec<u64>)>,
    /// Loops in scope, outermost first: index name and slot.
    scope: Vec<(&'p str, usize)>,
    slots: usize,
    /// What each memo cell holds, by cell.
    memos: Vec<Node>,
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
            loops.push(Loop {
                slot: self.slots,
                extent: self.program.extent(name),
            });
            self.scope.push((name, self.slots));
            self.slots += 1;
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
        let shared = self.memos.iter().position(|kept| *kept == node);
        let cell = shared.unwrap_or_else(|| {
            self.memos.push(node);
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
                let body = self.bind(body)?;
                let mut reads = body.1.clone();
                let innermost = self.scope.len().checked_sub(1);
                let body = Box::new(self.keep(body, innermost));
                self.scope.truncate(outer);
                reads.retain(|&position| position < outer);
                let volume = loops.iter().map(|l| l.extent).product();
                (
                    Node::Sum {
                        loops,
                        volume,
                        body,
                    },
                    reads,
                )
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

/// A value, or the error boxed so that a value returns in registers.
type Eval = Result<f64, Box<EvalError>>;

/// What one [`Plan::run`] owns: the finished `let`s, the loop counters,
/// and the memo cells with the tick of the loop each was filled under.
struct Frame<'a> {
    plan: &'a Plan,
    inputs: &'a [&'a Tensor],
    lets: Vec<Tensor>,
    index: Vec<i64>,
    /// Bumped whenever the slot's index is set, so a tick names one
    /// iteration of one loop for the whole run.
    tick: Vec<u64>,
    memo: Vec<(u64, f64)>,
}

impl Frame<'_> {
    fn set(&mut self, slot: usize, value: i64) {
        self.index[slot] = value;
        self.tick[slot] += 1;
    }

    /// Puts every loop at its first iteration.
    fn first(&mut self, loops: &[Loop]) {
        for l in loops {
            self.set(l.slot, 0);
        }
    }

    /// Advances row-major, the last loop fastest.
    fn next(&mut self, loops: &[Loop]) {
        for l in loops.iter().rev() {
            let next = self.index[l.slot] + 1;
            if (next as u64) < l.extent {
                self.set(l.slot, next);
                return;
            }
            self.set(l.slot, 0);
        }
    }

    fn eval(&mut self, node: &Node) -> Eval {
        Ok(match node {
            Node::Const(v) => v.0,
            Node::Index(slot) => self.index[*slot] as f64,
            Node::Load { source, dims } => {
                // Every subscript is evaluated before any is checked: an
                // error inside a later one comes before this load's own.
                let mut offset = 0usize;
                let mut out_of_range = None;
                for (d, dim) in dims.iter().enumerate() {
                    let i = match dim.subscript {
                        Node::Index(slot) => self.index[slot],
                        Node::Memo { cell, per } if self.memo[cell].0 == self.tick[per] => {
                            self.memo[cell].1 as i64
                        }
                        ref subscript => self.eval(subscript)? as i64,
                    };
                    if i < 0 || i as u64 >= dim.extent {
                        out_of_range = out_of_range.or(Some((d, i)));
                    } else {
                        offset += i as usize * dim.stride;
                    }
                }
                if let Some((d, i)) = out_of_range {
                    return Err(self.out_of_range(*source, d, i, dims[d].extent));
                }
                match *source {
                    Source::Input(i) => self.inputs[i].data[offset],
                    Source::Let(k) => self.lets[k].data[offset],
                }
            }
            Node::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Min => a.min(b),
                    BinOp::Max => a.max(b),
                }
            }
            Node::Compare { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                let r = match op {
                    CmpOp::Le => a <= b,
                    CmpOp::Lt => a < b,
                    CmpOp::Ge => a >= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                };
                r as i64 as f64
            }
            Node::Select {
                cond,
                then,
                otherwise,
            } => {
                if self.eval(cond)? != 0.0 {
                    self.eval(then)?
                } else {
                    self.eval(otherwise)?
                }
            }
            Node::Sum {
                loops,
                volume,
                body,
            } => {
                let mut total = 0.0;
                self.first(loops);
                for _ in 0..*volume {
                    total += self.eval(body)?;
                    self.next(loops);
                }
                total
            }
            Node::Call { builtin, arg } => {
                let v = self.eval(arg)?;
                match builtin {
                    Builtin::Exp => v.exp(),
                    Builtin::Log => v.ln(),
                    Builtin::Sqrt => v.sqrt(),
                    Builtin::Abs => v.abs(),
                }
            }
            Node::Neg(inner) => -self.eval(inner)?,
            Node::Memo { cell, per } => {
                let now = self.tick[*per];
                let (stamp, value) = self.memo[*cell];
                if stamp == now {
                    return Ok(value);
                }
                let plan = self.plan;
                let value = self.eval(&plan.memos[*cell])?;
                self.memo[*cell] = (now, value);
                value
            }
        })
    }

    #[cold]
    fn out_of_range(&self, source: Source, d: usize, i: i64, extent: u64) -> Box<EvalError> {
        let name = match source {
            Source::Input(n) => &self.plan.inputs[n].0,
            Source::Let(k) => &self.plan.lets[k].name,
        };
        Box::new(err(
            EvalErrorKind::OutOfRange,
            format!("in '{name}': subscript {i} out of range for dim {d} (extent {extent})"),
        ))
    }
}

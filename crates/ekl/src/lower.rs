//! Lowering of validated EKL programs to loop-level IR.
//!
//! The compilation path of paper Fig. 5 is `ekl → teil/esn → loops`;
//! this module is the reproduction's only lowering to loops and does it
//! in one step from the checked AST, which carries Fig. 5's tensor level
//! (Einstein notation, broadcasting, subscripted subscripts): each `let`
//! statement becomes a loop nest over its free indices, with explicit
//! summation loops accumulating through a rank-0 cell — the form the HLS
//! engine (`everest-hls`) schedules.
//!
//! Conventions:
//! * function arguments: input memrefs (declaration order), then one
//!   memref per output;
//! * integer tensors use `index`-typed elements, floats use `f64`;
//! * every defined tensor gets a device buffer; HLS later promotes these
//!   to PLMs.
//!
//! Each name is resolved once. Every index and tensor gets a dense slot
//! up front; each `let`'s right-hand side is resolved into a flat list
//! of nodes, post-order, each with its kind computed from its children's
//! as it is added. Emission then reads the induction variable bound to
//! an index, and the buffer of a tensor, from a vector by slot, and a
//! node's kind from its entry. The string-keyed lowering this replaced
//! (an environment map per `let`, a map of buffers by name, a subtree
//! walk with a map search per reference for every kind asked) is kept
//! under `tests/reference/`, and the two print the same IR.

use std::collections::HashMap;

use everest_ir::dialects::core::{binary, build_for, build_func, const_f64, const_index};
use everest_ir::module::{single_result, Module, ValueDef};
use everest_ir::types::{MemorySpace, Type, TypeId};
use everest_ir::{BlockId, IrError, IrResult, Symbol, ValueId, ValueList};

use crate::ast::{BinOp, Builtin, CmpOp, Expr};
use crate::check::{Kind, Program, TensorInfo, TypedLet};

/// Ops reserved per `let` before lowering starts, so the module's arenas
/// are sized once rather than doubled a dozen times on the way to a
/// 256-statement kernel. Straight-line kernels lower to 17 to 23 ops a
/// statement (a loop nest, its bounds, a handful of loads, arithmetic
/// and a store); a reservation, never a limit.
const OPS_PER_LET: usize = 24;

// The name of every op the lowering builds, resolved at compile time.
const ALLOC: Symbol = Symbol::registered("memref.alloc");
const STORE: Symbol = Symbol::registered("memref.store");
const LOAD: Symbol = Symbol::registered("memref.load");
const COPY: Symbol = Symbol::registered("memref.copy");
const DEALLOC: Symbol = Symbol::registered("memref.dealloc");
const RETURN: Symbol = Symbol::registered("func.return");
const YIELD: Symbol = Symbol::registered("scf.yield");
const CMPI: Symbol = Symbol::registered("arith.cmpi");
const CMPF: Symbol = Symbol::registered("arith.cmpf");
const SELECT: Symbol = Symbol::registered("arith.select");
const SITOFP: Symbol = Symbol::registered("arith.sitofp");
const NEGF: Symbol = Symbol::registered("arith.negf");
const ADDI: Symbol = Symbol::registered("arith.addi");
const SUBI: Symbol = Symbol::registered("arith.subi");
const MULI: Symbol = Symbol::registered("arith.muli");
const DIVSI: Symbol = Symbol::registered("arith.divsi");
const ADDF: Symbol = Symbol::registered("arith.addf");
const SUBF: Symbol = Symbol::registered("arith.subf");
const MULF: Symbol = Symbol::registered("arith.mulf");
const DIVF: Symbol = Symbol::registered("arith.divf");
const MINF: Symbol = Symbol::registered("arith.minf");
const MAXF: Symbol = Symbol::registered("arith.maxf");
const EXP: Symbol = Symbol::registered("arith.exp");
const LOG: Symbol = Symbol::registered("arith.log");
const SQRT: Symbol = Symbol::registered("arith.sqrt");
const ABSF: Symbol = Symbol::registered("arith.absf");
const PREDICATE: Symbol = Symbol::registered("predicate");

/// Lowers a validated program into a fresh IR module containing one
/// `func.func` named after the kernel.
///
/// # Errors
///
/// Returns [`IrError`] when the program uses a construct the lowering
/// does not support (validated programs never do).
pub fn lower_to_loops(program: &Program) -> IrResult<Module> {
    // Past the nests: the function and its return, a copy per output
    // and at most a dealloc per `let`.
    let outside = 2 + program.outputs.len() + program.lets.len();
    let mut module = Module::with_capacity(OPS_PER_LET * program.lets.len() + outside);
    let top = module.top_block();
    let arg_types: Vec<Type> = (program.inputs.iter())
        .chain(&program.outputs)
        .map(|name| memref(&program.tensors[name]))
        .collect();
    let (_f, entry) = build_func(&mut module, top, &program.name, &arg_types, &[]);

    let names = Names::new(program);
    let mut lowerer = Lowerer {
        buffers: vec![None; names.tensors.len()],
        env: vec![None; names.extents.len()],
        names,
        module,
        nodes: Vec::new(),
        lists: Vec::new(),
        pending: Vec::new(),
        loops: Vec::new(),
        memrefs: Vec::new(),
        accumulators: [None; 2],
    };
    for (k, name) in program.inputs.iter().enumerate() {
        let arg = lowerer.module.block(entry).args[k];
        let slot = lowerer.names.tensor(name);
        lowerer.buffers[slot] = Some(arg);
    }

    for stmt in &program.lets {
        lowerer.lower_let(entry, stmt)?;
    }

    for (k, name) in program.outputs.iter().enumerate() {
        let arg = lowerer.module.block(entry).args[program.inputs.len() + k];
        let src = lowerer.buffers[lowerer.names.tensor(name)].expect("outputs are defined");
        lowerer
            .module
            .build_op(COPY, [src, arg], [])
            .append_to(entry);
    }
    let mut module = lowerer.module;
    // Scratch buffers (allocs, not the argument buffers) are dead once
    // the outputs are copied out.
    let mut scratch: Vec<ValueId> = (lowerer.buffers.into_iter().flatten())
        .filter(|&b| matches!(module.value(b).def, ValueDef::OpResult { .. }))
        .collect();
    scratch.sort_by_key(|b| b.index());
    for buf in scratch {
        module.build_op(DEALLOC, [buf], []).append_to(entry);
    }
    module.build_op(RETURN, [], []).append_to(entry);
    Ok(module)
}

fn elem_type(integer: bool) -> Type {
    if integer {
        Type::Index
    } else {
        Type::F64
    }
}

/// The device buffer type of a tensor.
fn memref(info: &TensorInfo) -> Type {
    Type::memref(&info.shape, elem_type(info.integer), MemorySpace::Device)
}

/// What a name in the program stands for: its slot in the per-index or
/// the per-tensor vectors.
#[derive(Clone, Copy)]
enum Slot {
    Index(usize),
    Tensor(usize),
}

/// Every index and tensor of the program by dense slot, in the order of
/// the program's maps.
struct Names<'p> {
    slots: HashMap<&'p str, Slot>,
    /// Index slot → its name and extent.
    index_names: Vec<&'p str>,
    extents: Vec<u64>,
    /// Tensor slot → its name and declaration.
    tensors: Vec<(&'p str, &'p TensorInfo)>,
}

impl<'p> Names<'p> {
    fn new(program: &'p Program) -> Self {
        let mut slots = HashMap::with_capacity(program.indices.len() + program.tensors.len());
        let mut index_names = Vec::with_capacity(program.indices.len());
        let mut extents = Vec::with_capacity(program.indices.len());
        for (slot, (name, &(lo, hi))) in program.indices.iter().enumerate() {
            slots.insert(name.as_str(), Slot::Index(slot));
            index_names.push(name.as_str());
            extents.push((hi - lo) as u64);
        }
        let mut tensors = Vec::with_capacity(program.tensors.len());
        for (slot, (name, info)) in program.tensors.iter().enumerate() {
            slots.insert(name.as_str(), Slot::Tensor(slot));
            tensors.push((name.as_str(), info));
        }
        Names {
            slots,
            index_names,
            extents,
            tensors,
        }
    }

    /// The slot of a tensor name the checker validated.
    fn tensor(&self, name: &str) -> usize {
        match self.slots.get(name) {
            Some(&Slot::Tensor(slot)) => slot,
            _ => panic!("'{name}' is not a tensor of the program"),
        }
    }

    /// The slot of an index name the checker validated.
    fn index(&self, name: &str) -> usize {
        match self.slots.get(name) {
            Some(&Slot::Index(slot)) => slot,
            _ => panic!("'{name}' is not an index of the program"),
        }
    }
}

/// One resolved expression node; children are positions in the same
/// node list, lists of them (subscripts, summation indices) runs of
/// [`Lowerer::lists`].
#[derive(Clone, Copy)]
enum Node<'p> {
    Int(i64),
    Float(f64),
    /// An index variable by slot.
    Index(usize),
    /// A tensor by slot, with `len` subscript nodes at `lists[at..]`.
    Load {
        tensor: usize,
        at: usize,
        len: usize,
    },
    /// A name that is neither an index nor a tensor of the program.
    Unknown(&'p str),
    Binary {
        op: BinOp,
        lhs: usize,
        rhs: usize,
    },
    Compare {
        op: CmpOp,
        lhs: usize,
        rhs: usize,
    },
    Select {
        cond: usize,
        then: usize,
        otherwise: usize,
    },
    /// `len` index slots at `lists[at..]`, summed over `body`.
    Sum {
        at: usize,
        len: usize,
        body: usize,
    },
    Call {
        builtin: Builtin,
        arg: usize,
    },
    Neg(usize),
}

/// A resolved node, its kind, and the expression it came from (which
/// only an error message reads).
#[derive(Clone, Copy)]
struct Resolved<'p> {
    node: Node<'p>,
    kind: Kind,
    expr: &'p Expr,
}

struct Lowerer<'p> {
    names: Names<'p>,
    module: Module,
    /// Tensor slot → its buffer, once materialized.
    buffers: Vec<Option<ValueId>>,
    /// Index slot → the induction variable bound to it.
    env: Vec<Option<ValueId>>,
    /// The current `let`'s right-hand side, resolved.
    nodes: Vec<Resolved<'p>>,
    /// Runs of subscript nodes and summation index slots.
    lists: Vec<usize>,
    /// Subscript nodes resolved but not yet listed, innermost last.
    pending: Vec<usize>,
    /// The open loops, innermost last: induction variable and body.
    loops: Vec<(ValueId, BlockId)>,
    /// Buffer types built so far, by shape and element kind.
    memrefs: Vec<(&'p [u64], bool, TypeId)>,
    /// The rank-0 `plm` accumulator types, once built: `f64` at 0,
    /// `index` at 1.
    accumulators: [Option<TypeId>; 2],
}

impl<'p> Lowerer<'p> {
    /// Resolves `expr` into `nodes`, children first, and returns its
    /// position.
    fn resolve(&mut self, expr: &'p Expr) -> usize {
        let (node, kind) = match expr {
            Expr::Int(v) => (Node::Int(*v), Kind::Int),
            Expr::Float(v) => (Node::Float(*v), Kind::Float),
            Expr::Ref { name, subscripts } => match self.names.slots.get(name.as_str()) {
                Some(&Slot::Index(slot)) => (Node::Index(slot), Kind::Int),
                Some(&Slot::Tensor(tensor)) => {
                    // Each subscript's own subscripts are listed (and
                    // popped off `pending`) before it is pushed there.
                    let subs = subscripts.as_deref().unwrap_or(&[]);
                    let mark = self.pending.len();
                    for sub in subs {
                        let node = self.resolve(sub);
                        self.pending.push(node);
                    }
                    let at = self.lists.len();
                    self.lists.extend(self.pending.drain(mark..));
                    let integer = self.names.tensors[tensor].1.integer;
                    let kind = if integer { Kind::Int } else { Kind::Float };
                    let len = subs.len();
                    (Node::Load { tensor, at, len }, kind)
                }
                None => (Node::Unknown(name), Kind::Float),
            },
            Expr::Binary { op, lhs, rhs } => {
                let (lhs, rhs) = (self.resolve(lhs), self.resolve(rhs));
                let kind = self.widest(lhs, rhs);
                (Node::Binary { op: *op, lhs, rhs }, kind)
            }
            Expr::Compare { op, lhs, rhs } => {
                let (lhs, rhs) = (self.resolve(lhs), self.resolve(rhs));
                (Node::Compare { op: *op, lhs, rhs }, Kind::Bool)
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                let cond = self.resolve(cond);
                let (then, otherwise) = (self.resolve(then), self.resolve(otherwise));
                let kind = self.widest(then, otherwise);
                let node = Node::Select {
                    cond,
                    then,
                    otherwise,
                };
                (node, kind)
            }
            Expr::Sum { indices, body } => {
                let body = self.resolve(body);
                let at = self.lists.len();
                for name in indices {
                    let slot = self.names.index(name);
                    self.lists.push(slot);
                }
                let len = indices.len();
                (Node::Sum { at, len, body }, self.nodes[body].kind)
            }
            Expr::Call { builtin, arg } => {
                let arg = self.resolve(arg);
                let node = Node::Call {
                    builtin: *builtin,
                    arg,
                };
                (node, Kind::Float)
            }
            Expr::Neg(inner) => {
                let inner = self.resolve(inner);
                (Node::Neg(inner), self.nodes[inner].kind)
            }
        };
        self.nodes.push(Resolved { node, kind, expr });
        self.nodes.len() - 1
    }

    /// `Float` when either node is, else `Int`: the kind of a binary op
    /// or a `select`.
    fn widest(&self, a: usize, b: usize) -> Kind {
        if self.nodes[a].kind == Kind::Float || self.nodes[b].kind == Kind::Float {
            Kind::Float
        } else {
            Kind::Int
        }
    }

    /// The buffer type of a tensor, built once per shape and element
    /// kind.
    fn buffer_type(&mut self, info: &'p TensorInfo) -> TypeId {
        let known = self.memrefs.iter().find(|(shape, integer, _)| {
            *shape == info.shape.as_slice() && *integer == info.integer
        });
        if let Some(&(_, _, ty)) = known {
            return ty;
        }
        let ty = self.module.intern_type(memref(info));
        self.memrefs.push((&info.shape, info.integer, ty));
        ty
    }

    fn lower_let(&mut self, entry: BlockId, stmt: &'p TypedLet) -> IrResult<()> {
        let slot = self.names.tensor(&stmt.name);
        let ty = self.buffer_type(self.names.tensors[slot].1);
        let alloc = self
            .module
            .build_op(ALLOC, [], [])
            .result(ty)
            .append_to(entry);
        let buffer = single_result(&self.module, alloc);
        self.buffers[slot] = Some(buffer);

        self.nodes.clear();
        self.lists.clear();
        let root = self.resolve(&stmt.value);

        // Loop nest over the free indices.
        self.env.fill(None);
        let outer = self.loops.len();
        let mut current = entry;
        for index in &stmt.indices {
            let slot = self.names.index(index);
            current = self.open_loop(current, self.names.extents[slot]);
            self.env[slot] = Some(self.loops[self.loops.len() - 1].0);
        }
        let inner = current;

        let value = if stmt.kind == Kind::Int {
            self.emit_index_expr(inner, root)?
        } else {
            self.emit_value_expr(inner, root)?
        };
        let mut operands = ValueList::from(&[value, buffer][..]);
        operands.extend(self.loops[outer..].iter().map(|&(iv, _)| iv));
        self.module.build_op(STORE, operands, []).append_to(inner);
        self.close_loops(outer);
        Ok(())
    }

    /// Opens one `scf.for` from 0 to `bound` in `block`, pushes it on
    /// [`Lowerer::loops`] and returns its body.
    fn open_loop(&mut self, block: BlockId, bound: u64) -> BlockId {
        let lb = const_index(&mut self.module, block, 0);
        let ub = const_index(&mut self.module, block, bound as i64);
        let step = const_index(&mut self.module, block, 1);
        let (_op, body) = build_for(&mut self.module, block, lb, ub, step);
        self.loops.push((self.module.block(body).args[0], body));
        body
    }

    /// Terminates the loops opened since [`Lowerer::loops`] was `outer`
    /// long, innermost first, and pops them.
    fn close_loops(&mut self, outer: usize) {
        while self.loops.len() > outer {
            let (_, body) = self.loops.pop().expect("an open loop");
            self.module.build_op(YIELD, [], []).append_to(body);
        }
    }

    /// The error for a name no buffer or induction variable is bound to.
    fn unbound(name: &str) -> IrError {
        IrError::Malformed(format!("tensor '{name}' not materialized"))
    }

    /// Emits a node as an `index`-typed value (subscript position).
    fn emit_index_expr(&mut self, block: BlockId, at: usize) -> IrResult<ValueId> {
        let Resolved { node, expr, .. } = self.nodes[at];
        match node {
            Node::Int(v) => Ok(const_index(&mut self.module, block, v)),
            Node::Float(v) => Err(IrError::Type(format!(
                "float literal {v} used where an index is required"
            ))),
            Node::Index(slot) => {
                self.env[slot].ok_or_else(|| Self::unbound(self.names.index_names[slot]))
            }
            Node::Load { tensor, at, len } => self.emit_load(block, tensor, at, len),
            Node::Unknown(name) => Err(Self::unbound(name)),
            Node::Binary { op, lhs, rhs } => {
                let a = self.emit_index_expr(block, lhs)?;
                let b = self.emit_index_expr(block, rhs)?;
                let arith = match op {
                    BinOp::Add => ADDI,
                    BinOp::Sub => SUBI,
                    BinOp::Mul => MULI,
                    BinOp::Div => DIVSI,
                    BinOp::Min | BinOp::Max => {
                        // min/max over indices via cmp+select
                        let pred = if op == BinOp::Min { "lt" } else { "gt" };
                        let cmp = self
                            .module
                            .build_op(CMPI, [a, b], [])
                            .result(TypeId::I1)
                            .attr(PREDICATE, pred)
                            .append_to(block);
                        let c = single_result(&self.module, cmp);
                        let sel = self
                            .module
                            .build_op(SELECT, [c, a, b], [])
                            .result(TypeId::INDEX)
                            .append_to(block);
                        return Ok(single_result(&self.module, sel));
                    }
                };
                Ok(binary(&mut self.module, block, arith, a, b))
            }
            Node::Select {
                cond,
                then,
                otherwise,
            } => {
                let c = self.emit_cond(block, cond)?;
                let a = self.emit_index_expr(block, then)?;
                let b = self.emit_index_expr(block, otherwise)?;
                let sel = self
                    .module
                    .build_op(SELECT, [c, a, b], [])
                    .result(TypeId::INDEX)
                    .append_to(block);
                Ok(single_result(&self.module, sel))
            }
            Node::Neg(inner) => {
                let zero = const_index(&mut self.module, block, 0);
                let v = self.emit_index_expr(block, inner)?;
                Ok(binary(&mut self.module, block, SUBI, zero, v))
            }
            Node::Sum { at, len, body } => self.emit_sum(block, at, len, body, true),
            Node::Compare { .. } | Node::Call { .. } => Err(IrError::Type(format!(
                "expression {expr:?} cannot be used as an index"
            ))),
        }
    }

    /// Emits a node as an `f64`-typed value.
    fn emit_value_expr(&mut self, block: BlockId, at: usize) -> IrResult<ValueId> {
        let Resolved { node, kind, .. } = self.nodes[at];
        // Integer-kinded subexpressions are emitted as indices then cast.
        if kind == Kind::Int {
            let idx = self.emit_index_expr(block, at)?;
            let cast = self
                .module
                .build_op(SITOFP, [idx], [])
                .result(TypeId::F64)
                .append_to(block);
            return Ok(single_result(&self.module, cast));
        }
        match node {
            Node::Float(v) => Ok(const_f64(&mut self.module, block, v)),
            Node::Int(v) => Ok(const_f64(&mut self.module, block, v as f64)),
            Node::Load { tensor, at, len } => self.emit_load(block, tensor, at, len),
            Node::Index(slot) => Err(Self::unbound(self.names.index_names[slot])),
            Node::Unknown(name) => Err(Self::unbound(name)),
            Node::Binary { op, lhs, rhs } => {
                let a = self.emit_value_expr(block, lhs)?;
                let b = self.emit_value_expr(block, rhs)?;
                let arith = match op {
                    BinOp::Add => ADDF,
                    BinOp::Sub => SUBF,
                    BinOp::Mul => MULF,
                    BinOp::Div => DIVF,
                    BinOp::Min => MINF,
                    BinOp::Max => MAXF,
                };
                Ok(binary(&mut self.module, block, arith, a, b))
            }
            Node::Select {
                cond,
                then,
                otherwise,
            } => {
                let c = self.emit_cond(block, cond)?;
                let a = self.emit_value_expr(block, then)?;
                let b = self.emit_value_expr(block, otherwise)?;
                let sel = self
                    .module
                    .build_op(SELECT, [c, a, b], [])
                    .result(TypeId::F64)
                    .append_to(block);
                Ok(single_result(&self.module, sel))
            }
            Node::Sum { at, len, body } => self.emit_sum(block, at, len, body, false),
            Node::Call { builtin, arg } => {
                let v = self.emit_value_expr(block, arg)?;
                let name = match builtin {
                    Builtin::Exp => EXP,
                    Builtin::Log => LOG,
                    Builtin::Sqrt => SQRT,
                    Builtin::Abs => ABSF,
                };
                let op = self
                    .module
                    .build_op(name, [v], [])
                    .result(TypeId::F64)
                    .append_to(block);
                Ok(single_result(&self.module, op))
            }
            Node::Neg(inner) => {
                let v = self.emit_value_expr(block, inner)?;
                let op = self
                    .module
                    .build_op(NEGF, [v], [])
                    .result(TypeId::F64)
                    .append_to(block);
                Ok(single_result(&self.module, op))
            }
            Node::Compare { .. } => Err(IrError::Type(
                "comparison used outside select (checker bug)".into(),
            )),
        }
    }

    /// Emits `sum(lists[at..at + len])(body)` through a rank-0 `plm`
    /// accumulator cell: `f64`-typed, or `index`-typed for an integer
    /// sum (one in a subscript, or defining an `of int` tensor), with
    /// the same loop nest either way.
    fn emit_sum(
        &mut self,
        block: BlockId,
        at: usize,
        len: usize,
        body: usize,
        integer: bool,
    ) -> IrResult<ValueId> {
        let (elem, add) = if integer {
            (TypeId::INDEX, ADDI)
        } else {
            (TypeId::F64, ADDF)
        };
        let acc_ty = match self.accumulators[usize::from(integer)] {
            Some(ty) => ty,
            None => {
                let ty = Type::memref(&[], elem_type(integer), MemorySpace::Plm);
                *self.accumulators[usize::from(integer)].insert(self.module.intern_type(ty))
            }
        };
        let alloc = self
            .module
            .build_op(ALLOC, [], [])
            .result(acc_ty)
            .append_to(block);
        let acc = single_result(&self.module, alloc);
        let zero = if integer {
            const_index(&mut self.module, block, 0)
        } else {
            const_f64(&mut self.module, block, 0.0)
        };
        self.module
            .build_op(STORE, [zero, acc], [])
            .append_to(block);
        let outer = self.loops.len();
        let mut inner = block;
        for k in at..at + len {
            inner = self.open_loop(inner, self.names.extents[self.lists[k]]);
        }
        for (k, &(iv, _)) in (at..at + len).zip(&self.loops[outer..]) {
            self.env[self.lists[k]] = Some(iv);
        }
        let term = if integer {
            self.emit_index_expr(inner, body)?
        } else {
            self.emit_value_expr(inner, body)?
        };
        let load = self
            .module
            .build_op(LOAD, [acc], [])
            .result(elem)
            .append_to(inner);
        let cur = single_result(&self.module, load);
        let next = binary(&mut self.module, inner, add, cur, term);
        self.module
            .build_op(STORE, [next, acc], [])
            .append_to(inner);
        for k in at..at + len {
            self.env[self.lists[k]] = None;
        }
        self.close_loops(outer);
        let final_load = self
            .module
            .build_op(LOAD, [acc], [])
            .result(elem)
            .append_to(block);
        Ok(single_result(&self.module, final_load))
    }

    /// Emits a comparison as an `i1` condition.
    fn emit_cond(&mut self, block: BlockId, at: usize) -> IrResult<ValueId> {
        let Node::Compare { op, lhs, rhs } = self.nodes[at].node else {
            return Err(IrError::Type(
                "select condition must be a comparison".into(),
            ));
        };
        let pred = match op {
            CmpOp::Le => "le",
            CmpOp::Lt => "lt",
            CmpOp::Ge => "ge",
            CmpOp::Gt => "gt",
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
        };
        let int_cmp = self.nodes[lhs].kind == Kind::Int && self.nodes[rhs].kind == Kind::Int;
        let (a, b, opname) = if int_cmp {
            (
                self.emit_index_expr(block, lhs)?,
                self.emit_index_expr(block, rhs)?,
                CMPI,
            )
        } else {
            (
                self.emit_value_expr(block, lhs)?,
                self.emit_value_expr(block, rhs)?,
                CMPF,
            )
        };
        let cmp = self
            .module
            .build_op(opname, [a, b], [])
            .result(TypeId::I1)
            .attr(PREDICATE, pred)
            .append_to(block);
        Ok(single_result(&self.module, cmp))
    }

    /// Emits a tensor load: its element type is the tensor's kind.
    fn emit_load(
        &mut self,
        block: BlockId,
        tensor: usize,
        at: usize,
        len: usize,
    ) -> IrResult<ValueId> {
        let (name, info) = self.names.tensors[tensor];
        let buffer = self.buffers[tensor].ok_or_else(|| Self::unbound(name))?;
        let mut operands = ValueList::from(&[buffer][..]);
        for k in at..at + len {
            operands.push(self.emit_index_expr(block, self.lists[k])?);
        }
        let elem = if info.integer {
            TypeId::INDEX
        } else {
            TypeId::F64
        };
        let op = self
            .module
            .build_op(LOAD, operands, [])
            .result(elem)
            .append_to(block);
        Ok(single_result(&self.module, op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::interp::{evaluate, Tensor};
    use crate::parser::parse;
    use everest_ir::interp::{Buffer, Interpreter, Value};
    use everest_ir::registry::Context;
    use everest_ir::verify::verify_module;

    /// Compiles, runs both the EKL interpreter and the lowered IR, and
    /// asserts they agree on all outputs.
    fn assert_lowering_matches(src: &str, inputs: &[(&str, Tensor)]) {
        let program = check(&parse(src).unwrap()).unwrap();
        let input_map: std::collections::HashMap<String, Tensor> = inputs
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect();
        let reference = evaluate(&program, &input_map).unwrap();

        let module = lower_to_loops(&program).unwrap();
        verify_module(&Context::with_all_dialects(), &module).unwrap();

        let mut interp = Interpreter::new();
        let mut args = Vec::new();
        for name in &program.inputs {
            let t = &input_map[name];
            args.push(interp.alloc_buffer(Buffer::from_data(&t.shape, t.data.clone())));
        }
        let mut out_handles = Vec::new();
        for name in &program.outputs {
            let info = &program.tensors[name];
            let h = interp.alloc_buffer(Buffer::zeros(&info.shape));
            out_handles.push((name.clone(), h.clone()));
            args.push(h);
        }
        interp.run_function(&module, &program.name, &args).unwrap();
        for (name, handle) in out_handles {
            let Value::Buffer(h) = handle else {
                unreachable!()
            };
            let got = &interp.buffer(h).data;
            let want = &reference[&name].data;
            assert_eq!(got.len(), want.len(), "output '{name}' length");
            for (g, w) in got.iter().zip(want) {
                assert!(
                    (g - w).abs() < 1e-9,
                    "output '{name}' mismatch: lowered {g} vs reference {w}"
                );
            }
        }
    }

    #[test]
    fn lowered_elementwise_matches_interp() {
        assert_lowering_matches(
            "kernel k { index i : 0..5 input a : [i] let y[i] = 3.0 * a[i] - 1.0 output y }",
            &[("a", Tensor::from_data(&[5], vec![1.0, 2.0, 3.0, 4.0, 5.0]))],
        );
    }

    #[test]
    fn lowered_matmul_matches_interp() {
        assert_lowering_matches(
            "kernel mm {
               index i : 0..3
               index j : 0..4
               index l : 0..2
               input a : [i, l]
               input b : [l, j]
               let c[i, j] = sum(l)(a[i, l] * b[l, j])
               output c
             }",
            &[
                (
                    "a",
                    Tensor::from_data(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                ),
                (
                    "b",
                    Tensor::from_data(&[2, 4], (0..8).map(|v| v as f64).collect()),
                ),
            ],
        );
    }

    #[test]
    fn lowered_select_gather_matches_interp() {
        assert_lowering_matches(
            "kernel sg {
               index i : 0..4
               input p : [i]
               input cut : []
               input table : [2]
               let flag[i] = select(p[i] <= cut, 1, 0)
               let y[i] = table[flag[i]]
               output y
             }",
            &[
                ("p", Tensor::from_data(&[4], vec![0.1, 0.9, 0.2, 0.8])),
                ("cut", Tensor::from_data(&[], vec![0.5])),
                ("table", Tensor::from_data(&[2], vec![100.0, 200.0])),
            ],
        );
    }

    #[test]
    fn lowered_index_arithmetic_matches_interp() {
        assert_lowering_matches(
            "kernel fd {
               index i : 0..7
               input a : [8]
               let y[i] = a[i + 1] - a[i]
               output y
             }",
            &[(
                "a",
                Tensor::from_data(&[8], (0..8).map(|v| (v * v) as f64).collect()),
            )],
        );
    }

    #[test]
    fn lowered_nested_sum_matches_interp() {
        assert_lowering_matches(
            "kernel ns {
               index i : 0..3
               index t : 0..2
               index e : 0..2
               input w : [i, t, e]
               let y[i] = sum(t, e)(w[i, t, e]) + sum(t)(w[i, t, 0])
               output y
             }",
            &[(
                "w",
                Tensor::from_data(&[3, 2, 2], (0..12).map(|v| v as f64 * 0.5).collect()),
            )],
        );
    }

    #[test]
    fn lowered_int_outputs_match() {
        assert_lowering_matches(
            "kernel io {
               index i : 0..4
               input p : [i]
               let flag[i] = select(p[i] > 0.5, 1, 0)
               output flag
             }",
            &[("p", Tensor::from_data(&[4], vec![0.9, 0.1, 0.6, 0.4]))],
        );
    }

    /// An integer `sum` where an index is required — a subscript, and
    /// the integer tensor it defines — accumulates in an `index` cell.
    #[test]
    fn lowered_integer_sum_index_matches_interp() {
        let n = Tensor::from_data(&[3], vec![1.0, 0.0, 2.0]);
        let a = Tensor::from_data(&[8], (0..8).map(|v| 10.0 + v as f64).collect());
        assert_lowering_matches(
            "kernel gather {
               index i : 0..4
               index j : 0..3
               input n : [j] of int
               input a : [8]
               let y[i] = a[sum(j)(n[j]) + i]
               output y
             }",
            &[("n", n.clone()), ("a", a.clone())],
        );
        assert_lowering_matches(
            "kernel total {
               index i : 0..4
               index j : 0..3
               input n : [j] of int
               input a : [8]
               let s = sum(j)(n[j] * j)
               let y[i] = a[s] * s
               output y
             }",
            &[("n", n), ("a", a)],
        );
    }

    #[test]
    fn lowered_module_is_reusable_text() {
        let program = check(
            &parse("kernel t { index i : 0..2 input a : [i] let y[i] = a[i] output y }").unwrap(),
        )
        .unwrap();
        let module = lower_to_loops(&program).unwrap();
        let text = everest_ir::print::print_module(&module);
        let reparsed = everest_ir::parse::parse_module(&text).unwrap();
        assert_eq!(everest_ir::print::print_module(&reparsed), text);
    }
}

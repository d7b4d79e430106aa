//! The lowering `everest_ekl::lower` replaced, kept as the reference
//! the dense-slot lowering is held to
//! (`lowering_prints_what_the_string_keyed_reference_prints` in
//! `plan_props.rs`): both must print the same IR byte for byte, or fail
//! with the same message.
//!
//! Every name is a `String` key: the environment is a
//! `HashMap<String, ValueId>` built per `let`, the buffers a `String`-
//! keyed map, and `kind_of` re-walks a subtree — with a `BTreeMap`
//! search per reference — at every value node it is asked about. The
//! only edits since it left `src/` are its visibility and the doc
//! lines that pointed at other modules of the crate.

use std::collections::HashMap;

use everest_ir::dialects::core::{binary, build_for, build_func, const_f64, const_index};
use everest_ir::module::{single_result, Module};
use everest_ir::types::{MemorySpace, Type};
use everest_ir::{BlockId, IrError, IrResult, ValueId};

use everest_ekl::ast::{BinOp, Builtin, CmpOp, Expr};
use everest_ekl::check::{Kind, Program};

/// Ops reserved per `let` before lowering starts, so the module's arenas
/// are sized once rather than doubled a dozen times on the way to a
/// 256-statement kernel. Straight-line kernels lower to 17 to 23 ops a
/// statement (a loop nest, its bounds, a handful of loads, arithmetic
/// and a store); a reservation, never a limit.
const OPS_PER_LET: usize = 24;

/// Lowers a validated program into a fresh IR module containing one
/// `func.func` named after the kernel.
///
/// # Errors
///
/// Returns [`IrError`] when the program uses a construct the lowering
/// does not support (validated programs never do).
pub(crate) fn lower_to_loops(program: &Program) -> IrResult<Module> {
    let mut module = Module::with_capacity(OPS_PER_LET * program.lets.len());
    let top = module.top_block();

    let mut arg_types = Vec::new();
    for name in &program.inputs {
        let info = &program.tensors[name];
        arg_types.push(Type::memref(
            &info.shape,
            elem_type(info.integer),
            MemorySpace::Device,
        ));
    }
    for name in &program.outputs {
        let info = &program.tensors[name];
        arg_types.push(Type::memref(
            &info.shape,
            elem_type(info.integer),
            MemorySpace::Device,
        ));
    }
    let (_f, entry) = build_func(&mut module, top, &program.name, &arg_types, &[]);

    let mut lowerer = Lowerer {
        program,
        module,
        buffers: HashMap::new(),
    };
    for (k, name) in program.inputs.iter().enumerate() {
        let arg = lowerer.module.block(entry).args[k];
        lowerer.buffers.insert(name.clone(), arg);
    }

    for stmt in &program.lets {
        lowerer.lower_let(entry, stmt)?;
    }

    for (k, name) in program.outputs.iter().enumerate() {
        let arg = lowerer.module.block(entry).args[program.inputs.len() + k];
        let src = lowerer.buffers[name];
        lowerer
            .module
            .build_op("memref.copy", [src, arg], [])
            .append_to(entry);
    }
    let mut module = lowerer.module;
    // Scratch buffers (allocs, not the argument buffers) are dead once
    // the outputs are copied out.
    let mut scratch: Vec<_> = lowerer
        .buffers
        .values()
        .copied()
        .filter(|&b| {
            matches!(
                module.value(b).def,
                everest_ir::module::ValueDef::OpResult { .. }
            )
        })
        .collect();
    scratch.sort_by_key(|b| b.index());
    for buf in scratch {
        module
            .build_op("memref.dealloc", [buf], [])
            .append_to(entry);
    }
    module.build_op("func.return", [], []).append_to(entry);
    Ok(module)
}

fn elem_type(integer: bool) -> Type {
    if integer {
        Type::Index
    } else {
        Type::F64
    }
}

struct Lowerer<'p> {
    program: &'p Program,
    module: Module,
    /// tensor name → memref value.
    buffers: HashMap<String, ValueId>,
}

/// Environment during expression emission: index name → induction value.
type Env = HashMap<String, ValueId>;

impl<'p> Lowerer<'p> {
    fn lower_let(&mut self, entry: BlockId, stmt: &everest_ekl::check::TypedLet) -> IrResult<()> {
        let info = &self.program.tensors[&stmt.name];
        let ty = Type::memref(&info.shape, elem_type(info.integer), MemorySpace::Device);
        let buffer = everest_ir::dialects::core::alloc(&mut self.module, entry, ty);
        self.buffers.insert(stmt.name.clone(), buffer);

        // Loop nest over the free indices.
        let bounds: Vec<u64> = stmt
            .indices
            .iter()
            .map(|i| self.program.extent(i))
            .collect();
        let (ivs, bodies) = self.open_loop_nest(entry, &bounds);
        let inner = *bodies.last().unwrap_or(&entry);
        let mut env: Env = stmt
            .indices
            .iter()
            .cloned()
            .zip(ivs.iter().copied())
            .collect();

        let value = if stmt.kind == Kind::Int {
            self.emit_index_expr(inner, &mut env, &stmt.value)?
        } else {
            self.emit_value_expr(inner, &mut env, &stmt.value)?
        };
        let mut operands = vec![value, buffer];
        operands.extend(ivs.iter().copied());
        self.module
            .build_op("memref.store", operands, [])
            .append_to(inner);
        self.close_loop_nest(&bodies);
        Ok(())
    }

    fn open_loop_nest(&mut self, block: BlockId, bounds: &[u64]) -> (Vec<ValueId>, Vec<BlockId>) {
        let mut ivs = Vec::new();
        let mut bodies = Vec::new();
        let mut current = block;
        for &bound in bounds {
            let lb = const_index(&mut self.module, current, 0);
            let ub = const_index(&mut self.module, current, bound as i64);
            let step = const_index(&mut self.module, current, 1);
            let (_op, body) = build_for(&mut self.module, current, lb, ub, step);
            ivs.push(self.module.block(body).args[0]);
            bodies.push(body);
            current = body;
        }
        (ivs, bodies)
    }

    fn close_loop_nest(&mut self, bodies: &[BlockId]) {
        for &body in bodies.iter().rev() {
            self.module.build_op("scf.yield", [], []).append_to(body);
        }
    }

    /// The kind of an expression (mirrors the checker's inference).
    fn kind_of(&self, expr: &Expr) -> Kind {
        match expr {
            Expr::Int(_) => Kind::Int,
            Expr::Float(_) => Kind::Float,
            Expr::Ref { name, .. } => {
                if self.program.indices.contains_key(name) || self.program.tensors[name].integer {
                    Kind::Int
                } else {
                    Kind::Float
                }
            }
            Expr::Binary { lhs, rhs, .. }
            | Expr::Select {
                then: lhs,
                otherwise: rhs,
                ..
            } => {
                if self.kind_of(lhs) == Kind::Float || self.kind_of(rhs) == Kind::Float {
                    Kind::Float
                } else {
                    Kind::Int
                }
            }
            Expr::Compare { .. } => Kind::Bool,
            Expr::Sum { body, .. } => self.kind_of(body),
            Expr::Call { .. } => Kind::Float,
            Expr::Neg(inner) => self.kind_of(inner),
        }
    }

    /// Emits an expression as an `index`-typed value (subscript position).
    fn emit_index_expr(&mut self, block: BlockId, env: &mut Env, expr: &Expr) -> IrResult<ValueId> {
        match expr {
            Expr::Int(v) => Ok(const_index(&mut self.module, block, *v)),
            Expr::Float(v) => Err(IrError::Type(format!(
                "float literal {v} used where an index is required"
            ))),
            Expr::Ref { name, subscripts } => {
                if let Some(&iv) = env.get(name) {
                    return Ok(iv);
                }
                // integer tensor load (element type is already index)
                self.emit_load(block, env, name, subscripts.as_deref())
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.emit_index_expr(block, env, lhs)?;
                let b = self.emit_index_expr(block, env, rhs)?;
                let arith = match op {
                    BinOp::Add => "arith.addi",
                    BinOp::Sub => "arith.subi",
                    BinOp::Mul => "arith.muli",
                    BinOp::Div => "arith.divsi",
                    BinOp::Min | BinOp::Max => {
                        // min/max over indices via cmp+select
                        let pred = if *op == BinOp::Min { "lt" } else { "gt" };
                        let cmp = self
                            .module
                            .build_op("arith.cmpi", [a, b], [Type::bool()])
                            .attr("predicate", pred)
                            .append_to(block);
                        let c = single_result(&self.module, cmp);
                        let sel = self
                            .module
                            .build_op("arith.select", [c, a, b], [Type::Index])
                            .append_to(block);
                        return Ok(single_result(&self.module, sel));
                    }
                };
                Ok(binary(&mut self.module, block, arith, a, b))
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                let c = self.emit_cond(block, env, cond)?;
                let a = self.emit_index_expr(block, env, then)?;
                let b = self.emit_index_expr(block, env, otherwise)?;
                let sel = self
                    .module
                    .build_op("arith.select", [c, a, b], [Type::Index])
                    .append_to(block);
                Ok(single_result(&self.module, sel))
            }
            Expr::Neg(inner) => {
                let zero = const_index(&mut self.module, block, 0);
                let v = self.emit_index_expr(block, env, inner)?;
                Ok(binary(&mut self.module, block, "arith.subi", zero, v))
            }
            other => Err(IrError::Type(format!(
                "expression {other:?} cannot be used as an index"
            ))),
        }
    }

    /// Emits an expression as an `f64`-typed value.
    fn emit_value_expr(&mut self, block: BlockId, env: &mut Env, expr: &Expr) -> IrResult<ValueId> {
        // Integer-kinded subexpressions are emitted as indices then cast.
        if self.kind_of(expr) == Kind::Int {
            let idx = self.emit_index_expr(block, env, expr)?;
            let cast = self
                .module
                .build_op("arith.sitofp", [idx], [Type::F64])
                .append_to(block);
            return Ok(single_result(&self.module, cast));
        }
        match expr {
            Expr::Float(v) => Ok(const_f64(&mut self.module, block, *v)),
            Expr::Int(v) => Ok(const_f64(&mut self.module, block, *v as f64)),
            Expr::Ref { name, subscripts } => {
                self.emit_load(block, env, name, subscripts.as_deref())
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.emit_value_expr(block, env, lhs)?;
                let b = self.emit_value_expr(block, env, rhs)?;
                let arith = match op {
                    BinOp::Add => "arith.addf",
                    BinOp::Sub => "arith.subf",
                    BinOp::Mul => "arith.mulf",
                    BinOp::Div => "arith.divf",
                    BinOp::Min => "arith.minf",
                    BinOp::Max => "arith.maxf",
                };
                Ok(binary(&mut self.module, block, arith, a, b))
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                let c = self.emit_cond(block, env, cond)?;
                let a = self.emit_value_expr(block, env, then)?;
                let b = self.emit_value_expr(block, env, otherwise)?;
                let sel = self
                    .module
                    .build_op("arith.select", [c, a, b], [Type::F64])
                    .append_to(block);
                Ok(single_result(&self.module, sel))
            }
            Expr::Sum { indices, body } => {
                // rank-0 accumulator cell in PLM
                let acc_ty = Type::memref(&[], Type::F64, MemorySpace::Plm);
                let acc = everest_ir::dialects::core::alloc(&mut self.module, block, acc_ty);
                let zero = const_f64(&mut self.module, block, 0.0);
                self.module
                    .build_op("memref.store", [zero, acc], [])
                    .append_to(block);
                let bounds: Vec<u64> = indices.iter().map(|i| self.program.extent(i)).collect();
                let (ivs, bodies) = self.open_loop_nest(block, &bounds);
                let inner = *bodies.last().unwrap_or(&block);
                for (name, iv) in indices.iter().zip(&ivs) {
                    env.insert(name.clone(), *iv);
                }
                let term = self.emit_value_expr(inner, env, body)?;
                let load = self
                    .module
                    .build_op("memref.load", [acc], [Type::F64])
                    .append_to(inner);
                let cur = single_result(&self.module, load);
                let next = binary(&mut self.module, inner, "arith.addf", cur, term);
                self.module
                    .build_op("memref.store", [next, acc], [])
                    .append_to(inner);
                for name in indices {
                    env.remove(name);
                }
                self.close_loop_nest(&bodies);
                let final_load = self
                    .module
                    .build_op("memref.load", [acc], [Type::F64])
                    .append_to(block);
                Ok(single_result(&self.module, final_load))
            }
            Expr::Call { builtin, arg } => {
                let v = self.emit_value_expr(block, env, arg)?;
                let name = match builtin {
                    Builtin::Exp => "arith.exp",
                    Builtin::Log => "arith.log",
                    Builtin::Sqrt => "arith.sqrt",
                    Builtin::Abs => "arith.absf",
                };
                let op = self
                    .module
                    .build_op(name, [v], [Type::F64])
                    .append_to(block);
                Ok(single_result(&self.module, op))
            }
            Expr::Neg(inner) => {
                let v = self.emit_value_expr(block, env, inner)?;
                let op = self
                    .module
                    .build_op("arith.negf", [v], [Type::F64])
                    .append_to(block);
                Ok(single_result(&self.module, op))
            }
            Expr::Compare { .. } => Err(IrError::Type(
                "comparison used outside select (checker bug)".into(),
            )),
        }
    }

    /// Emits a comparison as an `i1` condition.
    fn emit_cond(&mut self, block: BlockId, env: &mut Env, expr: &Expr) -> IrResult<ValueId> {
        let Expr::Compare { op, lhs, rhs } = expr else {
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
        let int_cmp = self.kind_of(lhs) == Kind::Int && self.kind_of(rhs) == Kind::Int;
        let (a, b, opname) = if int_cmp {
            (
                self.emit_index_expr(block, env, lhs)?,
                self.emit_index_expr(block, env, rhs)?,
                "arith.cmpi",
            )
        } else {
            (
                self.emit_value_expr(block, env, lhs)?,
                self.emit_value_expr(block, env, rhs)?,
                "arith.cmpf",
            )
        };
        let cmp = self
            .module
            .build_op(opname, [a, b], [Type::bool()])
            .attr("predicate", pred)
            .append_to(block);
        Ok(single_result(&self.module, cmp))
    }

    /// Emits a tensor load (the element type of the memref decides whether
    /// this is an index or a value load).
    fn emit_load(
        &mut self,
        block: BlockId,
        env: &mut Env,
        name: &str,
        subscripts: Option<&[Expr]>,
    ) -> IrResult<ValueId> {
        let buffer = *self
            .buffers
            .get(name)
            .ok_or_else(|| IrError::Malformed(format!("tensor '{name}' not materialized")))?;
        let subs = subscripts.unwrap_or(&[]);
        let mut operands = vec![buffer];
        for s in subs {
            operands.push(self.emit_index_expr(block, env, s)?);
        }
        let elem = self
            .module
            .value_type(buffer)
            .elem()
            .cloned()
            .expect("buffer is a memref");
        let op = self
            .module
            .build_op("memref.load", operands, [elem])
            .append_to(block);
        Ok(single_result(&self.module, op))
    }
}

//! The first tree-walking interpreter of `everest_ekl::interp`, kept as
//! the reference the compiled plan is held to
//! (`plan_matches_the_tree_walking_reference` in `plan_props.rs`).
//!
//! Every `Ref` is a hash probe by name, every tensor load two map
//! descents and a subscript vector, every loop iteration a `String` per
//! index: slow, and obviously right. The edits since it left `src/`: a
//! `let` over an empty index range, which `check` now refuses, ran its
//! body once (`volume.max(1)`) and runs it zero times; and each error
//! carries its `EvalErrorKind`.

use std::collections::{BTreeMap, HashMap};

use everest_ekl::ast::{BinOp, Builtin, CmpOp, Expr};
use everest_ekl::check::Program;
use everest_ekl::interp::{EvalError, EvalErrorKind, Tensor};

/// Row-major linear offset with bounds checking.
fn offset(tensor: &Tensor, indices: &[i64]) -> Result<usize, EvalError> {
    if indices.len() != tensor.shape.len() {
        return Err(EvalError {
            kind: EvalErrorKind::Unchecked,
            message: format!(
                "rank {} tensor indexed with {} subscripts",
                tensor.shape.len(),
                indices.len()
            ),
        });
    }
    let mut off = 0usize;
    for (d, (&i, &extent)) in indices.iter().zip(&tensor.shape).enumerate() {
        if i < 0 || i as u64 >= extent {
            return Err(EvalError {
                kind: EvalErrorKind::OutOfRange,
                message: format!("subscript {i} out of range for dim {d} (extent {extent})"),
            });
        }
        off = off * extent as usize + i as usize;
    }
    Ok(off)
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
    let mut store: BTreeMap<String, Tensor> = BTreeMap::new();
    for name in &program.inputs {
        let info = &program.tensors[name];
        let tensor = inputs.get(name).ok_or_else(|| EvalError {
            kind: EvalErrorKind::Input,
            message: format!("missing input '{name}'"),
        })?;
        if tensor.shape != info.shape {
            return Err(EvalError {
                kind: EvalErrorKind::Input,
                message: format!(
                    "input '{name}' has shape {:?}, expected {:?}",
                    tensor.shape, info.shape
                ),
            });
        }
        store.insert(name.clone(), tensor.clone());
    }

    for stmt in &program.lets {
        let shape: Vec<u64> = stmt.indices.iter().map(|i| program.extent(i)).collect();
        let mut result = Tensor::zeros(&shape);
        let mut env: HashMap<String, i64> = HashMap::new();
        let volume: u64 = shape.iter().product();
        let mut idx = vec![0i64; shape.len()];
        for flat in 0..volume {
            // delinearize flat into idx
            let mut rem = flat;
            for (k, &extent) in shape.iter().enumerate().rev() {
                idx[k] = (rem % extent) as i64;
                rem /= extent;
            }
            for (name, &value) in stmt.indices.iter().zip(&idx) {
                env.insert(name.clone(), value);
            }
            let value = eval_expr(program, &store, &mut env, &stmt.value)?;
            result.data[flat as usize] = value;
        }
        store.insert(stmt.name.clone(), result);
    }

    // Keep only defined tensors in the result (inputs are the caller's).
    for name in &program.inputs {
        store.remove(name);
    }
    Ok(store)
}

pub(crate) fn eval_expr(
    program: &Program,
    store: &BTreeMap<String, Tensor>,
    env: &mut HashMap<String, i64>,
    expr: &Expr,
) -> Result<f64, EvalError> {
    match expr {
        Expr::Int(v) => Ok(*v as f64),
        Expr::Float(v) => Ok(*v),
        Expr::Ref { name, subscripts } => {
            if let Some(&iv) = env.get(name) {
                return Ok(iv as f64);
            }
            let tensor = store.get(name).ok_or_else(|| EvalError {
                kind: EvalErrorKind::Unchecked,
                message: format!("unknown tensor '{name}'"),
            })?;
            let subs = match subscripts {
                Some(s) => s.as_slice(),
                None => &[],
            };
            let mut indices = Vec::with_capacity(subs.len());
            for s in subs {
                let v = eval_expr(program, store, env, s)?;
                indices.push(v as i64);
            }
            let off = offset(&store[name], &indices).map_err(|e| EvalError {
                kind: e.kind,
                message: format!("in '{name}': {}", e.message),
            })?;
            Ok(tensor.data[off])
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = eval_expr(program, store, env, lhs)?;
            let b = eval_expr(program, store, env, rhs)?;
            Ok(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
            })
        }
        Expr::Compare { op, lhs, rhs } => {
            let a = eval_expr(program, store, env, lhs)?;
            let b = eval_expr(program, store, env, rhs)?;
            let r = match op {
                CmpOp::Le => a <= b,
                CmpOp::Lt => a < b,
                CmpOp::Ge => a >= b,
                CmpOp::Gt => a > b,
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
            };
            Ok(r as i64 as f64)
        }
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            let c = eval_expr(program, store, env, cond)?;
            if c != 0.0 {
                eval_expr(program, store, env, then)
            } else {
                eval_expr(program, store, env, otherwise)
            }
        }
        Expr::Sum { indices, body } => {
            let extents: Vec<u64> = indices.iter().map(|i| program.extent(i)).collect();
            let volume: u64 = extents.iter().product();
            let mut total = 0.0;
            let mut idx = vec![0i64; indices.len()];
            for flat in 0..volume {
                let mut rem = flat;
                for (k, &extent) in extents.iter().enumerate().rev() {
                    idx[k] = (rem % extent) as i64;
                    rem /= extent;
                }
                for (name, &value) in indices.iter().zip(&idx) {
                    env.insert(name.clone(), value);
                }
                total += eval_expr(program, store, env, body)?;
            }
            for name in indices {
                env.remove(name);
            }
            Ok(total)
        }
        Expr::Call { builtin, arg } => {
            let v = eval_expr(program, store, env, arg)?;
            Ok(match builtin {
                Builtin::Exp => v.exp(),
                Builtin::Log => v.ln(),
                Builtin::Sqrt => v.sqrt(),
                Builtin::Abs => v.abs(),
            })
        }
        Expr::Neg(inner) => Ok(-eval_expr(program, store, env, inner)?),
    }
}

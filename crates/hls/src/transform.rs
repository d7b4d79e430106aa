//! HLS code transformations on loop-level IR: loop unrolling.
//!
//! Unrolling is the optimization the paper cites as the "standard
//! pattern" hardware experts apply by hand (§I); here it is a verified
//! IR-to-IR transform — the unrolled module is checked against the
//! original by interpretation in the test suite.

use everest_ir::attr::Attribute;
use everest_ir::module::{single_result, Module};
use everest_ir::types::Type;
use everest_ir::{IrError, IrResult, OpId, ValueId};

/// Returns the constant integer feeding `value`, if any.
fn const_operand(module: &Module, value: ValueId) -> Option<i64> {
    module.constant(value).and_then(Attribute::as_int)
}

/// Trip count of an `scf.for` with constant bounds.
pub fn trip_count(module: &Module, for_op: OpId) -> Option<u64> {
    let operation = module.op(for_op)?;
    if operation.name != "scf.for" {
        return None;
    }
    let lb = const_operand(module, operation.operands[0])?;
    let ub = const_operand(module, operation.operands[1])?;
    let step = const_operand(module, operation.operands[2])?;
    if step <= 0 || ub < lb {
        return None;
    }
    Some(((ub - lb) as u64).div_ceil(step as u64))
}

/// Whether a loop body contains no nested loops.
pub fn is_innermost(module: &Module, for_op: OpId) -> bool {
    module
        .walk_nested(for_op)
        .iter()
        .all(|&op| module.op(op).is_none_or(|o| o.name != "scf.for"))
}

/// Unrolls every innermost loop in `func` by `factor`.
///
/// Only loops with constant bounds whose trip count is divisible by the
/// factor and whose bodies carry no iteration arguments are transformed;
/// others are left untouched. Returns the number of loops unrolled.
///
/// # Errors
///
/// Returns [`IrError`] if the function does not exist.
pub fn unroll_innermost(module: &mut Module, func: &str, factor: u32) -> IrResult<usize> {
    if factor <= 1 {
        return Ok(0);
    }
    let func_op = module
        .lookup_symbol(func)
        .ok_or_else(|| IrError::InvalidId(format!("no function '{func}'")))?;
    let loops: Vec<OpId> = module
        .walk_nested(func_op)
        .into_iter()
        .filter(|&op| {
            module.op(op).is_some_and(|o| o.name == "scf.for")
                && is_innermost(module, op)
                && module
                    .op(op)
                    .is_some_and(|o| o.operands.len() == 3 && o.results.is_empty())
        })
        .collect();

    let mut unrolled = 0;
    for for_op in loops {
        let Some(trip) = trip_count(module, for_op) else {
            continue;
        };
        if trip % factor as u64 != 0 || trip == 0 {
            continue;
        }
        unroll_one(module, for_op, factor)?;
        unrolled += 1;
    }
    Ok(unrolled)
}

fn unroll_one(module: &mut Module, for_op: OpId, factor: u32) -> IrResult<()> {
    let operation = module
        .op(for_op)
        .ok_or_else(|| IrError::InvalidId("loop erased".into()))?;
    let old_step_value = operation.operands[2];
    let step = const_operand(module, old_step_value)
        .ok_or_else(|| IrError::Malformed("non-constant step".into()))?;
    let region = operation.regions[0];
    let body = module.region(region).blocks[0];
    let iv = module.block(body).args[0];

    // New step constant placed right before the loop.
    let new_step_op = module
        .build_op("arith.constant", [], [Type::Index])
        .attr("value", Attribute::Int(step * factor as i64))
        .detached();
    module.insert_op_before(for_op, new_step_op);
    let new_step = single_result(module, new_step_op);
    module.op_mut(for_op).expect("loop is live").operands[2] = new_step;

    // Original body ops, minus the terminator.
    let body_ops: Vec<OpId> = module.block(body).ops.clone();
    let (&terminator, originals) = body_ops
        .split_last()
        .ok_or_else(|| IrError::Malformed("loop body has no terminator".into()))?;

    for k in 1..factor {
        // iv_k = iv + k*step
        let offset_op = module
            .build_op("arith.constant", [], [Type::Index])
            .attr("value", Attribute::Int(k as i64 * step))
            .detached();
        module.insert_op_before(terminator, offset_op);
        let offset = single_result(module, offset_op);
        let iv_k_op = module
            .build_op("arith.addi", [iv, offset], [Type::Index])
            .detached();
        module.insert_op_before(terminator, iv_k_op);
        let iv_k = single_result(module, iv_k_op);

        // Clone each original op, remapping iv and intra-body results.
        let mut remap: std::collections::HashMap<ValueId, ValueId> =
            std::collections::HashMap::new();
        remap.insert(iv, iv_k);
        for &op in originals {
            let original = module
                .op(op)
                .ok_or_else(|| IrError::InvalidId("body op erased".into()))?
                .clone();
            let operands: Vec<ValueId> = original
                .operands
                .iter()
                .map(|v| remap.get(v).copied().unwrap_or(*v))
                .collect();
            let result_types: Vec<Type> = original
                .results
                .iter()
                .map(|&r| module.value_type(r).clone())
                .collect();
            if !original.regions.is_empty() {
                return Err(IrError::Malformed(
                    "cannot unroll a loop containing region ops".into(),
                ));
            }
            let clone = module.create_op(
                original.name,
                operands,
                result_types,
                original.attributes.clone(),
                0,
            );
            module.insert_op_before(terminator, clone);
            let new_results = module.op(clone).expect("just created").results.clone();
            for (old, new) in original.results.iter().zip(new_results) {
                remap.insert(*old, new);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::dialects::core::{binary, build_for, build_func, const_index};
    use everest_ir::interp::{Buffer, Interpreter, Value};
    use everest_ir::registry::Context;
    use everest_ir::verify::verify_module;

    /// Builds `fn scale(a: memref<16xf64>) { for i in 0..16 { a[i] *= 2 } }`.
    fn scale_module() -> Module {
        let mut m = Module::new();
        let top = m.top_block();
        let ty = Type::memref(&[16], Type::F64, everest_ir::MemorySpace::Device);
        let (_f, entry) = build_func(&mut m, top, "scale", &[ty], &[]);
        let a = m.block(entry).args[0];
        let lb = const_index(&mut m, entry, 0);
        let ub = const_index(&mut m, entry, 16);
        let step = const_index(&mut m, entry, 1);
        let (_l, body) = build_for(&mut m, entry, lb, ub, step);
        let iv = m.block(body).args[0];
        let load = m
            .build_op("memref.load", [a, iv], [Type::F64])
            .append_to(body);
        let lv = single_result(&m, load);
        let two = everest_ir::dialects::core::const_f64(&mut m, body, 2.0);
        let doubled = binary(&mut m, body, "arith.mulf", lv, two);
        m.build_op("memref.store", [doubled, a, iv], [])
            .append_to(body);
        m.build_op("scf.yield", [], []).append_to(body);
        m.build_op("func.return", [], []).append_to(entry);
        m
    }

    fn run_scale(m: &Module) -> Vec<f64> {
        let mut interp = Interpreter::new();
        let data: Vec<f64> = (0..16).map(|v| v as f64).collect();
        let buf = interp.alloc_buffer(Buffer::from_data(&[16], data));
        interp
            .run_function(m, "scale", std::slice::from_ref(&buf))
            .unwrap();
        let Value::Buffer(h) = buf else {
            unreachable!()
        };
        interp.buffer(h).data.clone()
    }

    #[test]
    fn unrolled_module_computes_identical_results() {
        let reference = run_scale(&scale_module());
        for factor in [2, 4, 8, 16] {
            let mut m = scale_module();
            let n = unroll_innermost(&mut m, "scale", factor).unwrap();
            assert_eq!(n, 1, "one loop unrolled at factor {factor}");
            verify_module(&Context::with_all_dialects(), &m).unwrap();
            assert_eq!(
                run_scale(&m),
                reference,
                "unroll by {factor} must preserve semantics"
            );
        }
    }

    #[test]
    fn unroll_reduces_iterations_and_grows_body() {
        let mut m = scale_module();
        let loop_op = m.find_op("scf.for").unwrap();
        let body_before = {
            let region = m.op(loop_op).unwrap().regions[0];
            let body = m.region(region).blocks[0];
            m.block(body).ops.len()
        };
        unroll_innermost(&mut m, "scale", 4).unwrap();
        assert_eq!(trip_count(&m, loop_op), Some(4)); // 16 / 4
        let region = m.op(loop_op).unwrap().regions[0];
        let body = m.region(region).blocks[0];
        assert!(m.block(body).ops.len() > 3 * body_before);
    }

    #[test]
    fn non_divisible_factor_is_skipped() {
        let mut m = scale_module();
        let n = unroll_innermost(&mut m, "scale", 3).unwrap();
        assert_eq!(n, 0, "16 % 3 != 0, loop must be left untouched");
        assert_eq!(run_scale(&m), run_scale(&scale_module()));
    }

    #[test]
    fn factor_one_is_a_noop() {
        let mut m = scale_module();
        assert_eq!(unroll_innermost(&mut m, "scale", 1).unwrap(), 0);
    }

    #[test]
    fn trip_count_computation() {
        let m = scale_module();
        let loop_op = m.find_op("scf.for").unwrap();
        assert_eq!(trip_count(&m, loop_op), Some(16));
        assert!(is_innermost(&m, loop_op));
    }

    #[test]
    fn missing_function_errors() {
        let mut m = Module::new();
        assert!(unroll_innermost(&mut m, "ghost", 2).is_err());
    }
}

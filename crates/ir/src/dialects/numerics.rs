//! The numeric-representation dialect `base2`.
//!
//! `base2` (Friebel et al., HEART 2023) models binary numeral types —
//! fixed-point and posit — so the compiler can trade accuracy for FPGA
//! resources (paper §V-B and the "custom data formats" technical
//! highlight in §VIII). Fig. 5's `bit`, `cyclic` and `ub` dialects have
//! no producer in this reproduction and are not registered.

use crate::error::{IrError, IrResult};
use crate::ids::OpId;
use crate::module::Module;
use crate::registry::{Arity, Dialect, OpSpec, OpTrait};
use crate::types::Type;

fn is_base2_scalar(ty: &Type) -> bool {
    matches!(ty, Type::Fixed(_) | Type::Posit(_))
}

fn verify_quantize(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let src = m.value_type(operation.operands[0]);
    let dst = m.value_type(operation.results[0]);
    if !matches!(src, Type::F32 | Type::F64) {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("quantize source must be a float, got {src}"),
        });
    }
    if !is_base2_scalar(dst) {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("quantize result must be a base2 type, got {dst}"),
        });
    }
    Ok(())
}

fn verify_dequantize(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let src = m.value_type(operation.operands[0]);
    let dst = m.value_type(operation.results[0]);
    if !is_base2_scalar(src) {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("dequantize source must be a base2 type, got {src}"),
        });
    }
    if !matches!(dst, Type::F32 | Type::F64) {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!("dequantize result must be a float, got {dst}"),
        });
    }
    Ok(())
}

fn verify_base2_arith(m: &Module, op: OpId) -> IrResult<()> {
    let operation = m.op(op).expect("verifier receives live ops");
    let name = operation.name;
    let first = m.value_type(operation.operands[0]).clone();
    if !is_base2_scalar(&first) {
        return Err(IrError::Verification {
            op: name.to_string(),
            path: None,
            message: format!("base2 arithmetic requires base2 operands, got {first}"),
        });
    }
    for &v in operation.operands.iter().chain(&operation.results) {
        if m.value_type(v) != &first {
            return Err(IrError::Verification {
                op: name.to_string(),
                path: None,
                message: "all base2 operands/results must share one format".into(),
            });
        }
    }
    Ok(())
}

/// The `base2` dialect.
pub(crate) fn base2_dialect() -> Dialect {
    let mut d = Dialect::new("base2", "binary numeral types (fixed-point, posit)");
    d.register(
        OpSpec::new("quantize", Arity::Exact(1), Arity::Exact(1))
            .with_trait(OpTrait::Pure)
            .with_verifier(verify_quantize),
    );
    d.register(
        OpSpec::new("dequantize", Arity::Exact(1), Arity::Exact(1))
            .with_trait(OpTrait::Pure)
            .with_verifier(verify_dequantize),
    );
    for name in ["add", "sub", "mul", "div"] {
        d.register(
            OpSpec::new(name, Arity::Exact(2), Arity::Exact(1))
                .with_trait(OpTrait::Pure)
                .with_verifier(verify_base2_arith),
        );
    }
    // convert between two base2 formats
    d.register(OpSpec::new("convert", Arity::Exact(1), Arity::Exact(1)).with_trait(OpTrait::Pure));
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::single_result;
    use crate::registry::Context;
    use crate::types::{FixedFormat, PositFormat};
    use crate::verify::verify_module;

    fn ctx() -> Context {
        Context::with_all_dialects()
    }

    #[test]
    fn quantize_dequantize_roundtrip_verifies() {
        let mut m = Module::new();
        let top = m.top_block();
        let x = crate::dialects::core::const_f64(&mut m, top, 1.5);
        let fixed = Type::Fixed(FixedFormat::signed(7, 8));
        let q = m
            .build_op("base2.quantize", [x], [fixed.clone()])
            .append_to(top);
        let qv = single_result(&m, q);
        let q2 = m
            .build_op(
                "base2.quantize",
                [x],
                [Type::Posit(PositFormat::new(16, 1))],
            )
            .append_to(top);
        let _ = q2;
        let add = m.build_op("base2.add", [qv, qv], [fixed]).append_to(top);
        let av = single_result(&m, add);
        m.build_op("base2.dequantize", [av], [Type::F64])
            .append_to(top);
        verify_module(&ctx(), &m).unwrap();
    }

    #[test]
    fn base2_add_mixed_formats_fails() {
        let mut m = Module::new();
        let top = m.top_block();
        let x = crate::dialects::core::const_f64(&mut m, top, 1.0);
        let fa = Type::Fixed(FixedFormat::signed(7, 8));
        let fb = Type::Fixed(FixedFormat::signed(3, 12));
        let qa = m
            .build_op("base2.quantize", [x], [fa.clone()])
            .append_to(top);
        let qb = m.build_op("base2.quantize", [x], [fb]).append_to(top);
        let va = single_result(&m, qa);
        let vb = single_result(&m, qb);
        m.build_op("base2.add", [va, vb], [fa]).append_to(top);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("share one format"));
    }

    #[test]
    fn quantize_from_non_float_fails() {
        let mut m = Module::new();
        let top = m.top_block();
        let i = crate::dialects::core::const_index(&mut m, top, 3);
        m.build_op(
            "base2.quantize",
            [i],
            [Type::Fixed(FixedFormat::signed(7, 8))],
        )
        .append_to(top);
        assert!(verify_module(&ctx(), &m).is_err());
    }
}

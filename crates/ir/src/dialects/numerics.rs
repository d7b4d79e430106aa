//! The numeric-representation dialect `base2`.
//!
//! `base2` (Friebel et al., HEART 2023) models binary numeral types —
//! fixed-point and posit — so the compiler can trade accuracy for FPGA
//! resources (paper §V-B and the "custom data formats" technical
//! highlight in §VIII). Fig. 5's `bit`, `cyclic` and `ub` dialects have
//! no producer in this reproduction and are not registered.

use crate::constraint::{Constraint, Port, TypeClass};
use crate::registry::{Arity, Dialect, OpSpec, OpTrait};

/// The `base2` dialect.
pub(crate) fn base2_dialect() -> Dialect {
    let mut d = Dialect::new("base2", "binary numeral types (fixed-point, posit)");
    d.register(
        OpSpec::new("quantize", Arity::Exact(1), Arity::Exact(1))
            .with_trait(OpTrait::Pure)
            .with_constraints(&[
                Constraint::Class(Port::Operand(0, "source"), TypeClass::Float),
                Constraint::Class(Port::Result(0, "result"), TypeClass::Base2),
            ]),
    );
    d.register(
        OpSpec::new("dequantize", Arity::Exact(1), Arity::Exact(1))
            .with_trait(OpTrait::Pure)
            .with_constraints(&[
                Constraint::Class(Port::Operand(0, "source"), TypeClass::Base2),
                Constraint::Class(Port::Result(0, "result"), TypeClass::Float),
            ]),
    );
    for name in ["add", "sub", "mul", "div"] {
        d.register(
            OpSpec::new(name, Arity::Exact(2), Arity::Exact(1))
                .with_trait(OpTrait::Pure)
                .with_constraints(&[
                    Constraint::Class(Port::Operand(0, "lhs"), TypeClass::Base2),
                    Constraint::SameTypes,
                ]),
        );
    }
    // convert between two base2 formats
    d.register(OpSpec::new("convert", Arity::Exact(1), Arity::Exact(1)).with_trait(OpTrait::Pure));
    d
}

#[cfg(test)]
mod tests {
    use crate::module::{single_result, Module};
    use crate::registry::Context;
    use crate::types::{FixedFormat, PositFormat, Type};
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
        assert!(err.to_string().contains("types differ"));
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

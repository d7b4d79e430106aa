//! The system-level dialect `olympus` (FPGA system-architecture
//! generation).
//!
//! `olympus` captures kernel interactions and the data-movement structure
//! Olympus materializes around them (paper §V-C): private local memories,
//! DMA transfers, double buffering, kernel replication, memory lanes and
//! data packing. Fig. 5's `evp` platform dialect has no producer in this
//! reproduction (the platform is chosen by `CompileOptions::target`) and
//! is not registered.

use crate::constraint::{AttrRule, Constraint, Port, TypeClass};
use crate::ids::OpId;
use crate::module::Module;
use crate::registry::{Arity, Dialect, OpSpec, OpTrait};

/// The `olympus` dialect.
pub(crate) fn olympus_dialect() -> Dialect {
    let mut d = Dialect::new(
        "olympus",
        "platform-aware FPGA system architecture generation",
    );
    d.register(
        OpSpec::new("system", Arity::Exact(0), Arity::Exact(0))
            .with_regions(1)
            .with_attr("sym_name")
            .with_attr("platform")
            .with_trait(OpTrait::IsolatedFromAbove),
    );
    // kernel(buffers...) {callee, impl = "hls"|"rtl"}
    d.register(OpSpec::new("kernel", Arity::Variadic, Arity::Variadic).with_attr("callee"));
    d.register(
        OpSpec::new("plm", Arity::Exact(0), Arity::Exact(1))
            .with_attr("banks")
            .with_effects(super::core::ALLOC)
            .with_constraints(&[
                Constraint::Attr("banks", AttrRule::Positive),
                Constraint::Class(Port::Result(0, "result"), TypeClass::PlmMemRef),
            ]),
    );
    d.register(
        OpSpec::new("dma", Arity::Exact(2), Arity::Exact(0))
            .with_attr("direction")
            .with_constraints(&[
                Constraint::Attr("direction", AttrRule::OneOf(&["h2d", "d2h", "d2d"])),
                Constraint::Class(Port::Operands, TypeClass::MemRef),
            ]),
    );
    d.register(
        OpSpec::new("replicate", Arity::Exact(0), Arity::Exact(0))
            .with_attr("factor")
            .with_attr("kernel")
            .with_constraints(&[Constraint::Attr("factor", AttrRule::Positive)]),
    );
    d.register(
        OpSpec::new("lane", Arity::Exact(0), Arity::Exact(0))
            .with_attr("width_bits")
            .with_attr("kernel")
            .with_constraints(&[Constraint::Attr("width_bits", AttrRule::PowerOfTwo)]),
    );
    d.register(
        OpSpec::new("pack", Arity::Exact(0), Arity::Exact(0))
            .with_attr("kernel")
            .with_attr("layout"),
    );
    d.register(OpSpec::new(
        "double_buffer",
        Arity::Exact(1),
        Arity::Exact(0),
    ));
    d.register(
        OpSpec::new("yield", Arity::Variadic, Arity::Exact(0)).with_trait(OpTrait::Terminator),
    );
    d
}

/// Builds an `olympus.system` and returns `(system_op, body_block)`.
pub fn build_system(
    m: &mut Module,
    parent: crate::ids::BlockId,
    name: &str,
    platform: &str,
) -> (OpId, crate::ids::BlockId) {
    let s = m
        .build_op("olympus.system", [], [])
        .attr("sym_name", name)
        .attr("platform", platform)
        .regions(1)
        .append_to(parent);
    let region = m.op(s).expect("just built").regions[0];
    let body = m.add_block(region, &[]);
    (s, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;
    use crate::module::single_result;
    use crate::registry::Context;
    use crate::types::{MemorySpace, Type};
    use crate::verify::verify_module;

    fn ctx() -> Context {
        Context::with_all_dialects()
    }

    #[test]
    fn build_olympus_system() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_s, body) = build_system(&mut m, top, "rrtmg_sys", "alveo_u55c");
        let plm = m
            .build_op(
                "olympus.plm",
                [],
                [Type::memref(&[4096], Type::F64, MemorySpace::Plm)],
            )
            .attr("banks", Attribute::Int(4))
            .append_to(body);
        let plm_v = single_result(&m, plm);
        let dev = m
            .build_op(
                "memref.alloc",
                [],
                [Type::memref(&[4096], Type::F64, MemorySpace::Device)],
            )
            .append_to(body);
        let dev_v = single_result(&m, dev);
        m.build_op("olympus.dma", [dev_v, plm_v], [])
            .attr("direction", "h2d")
            .append_to(body);
        m.build_op("olympus.kernel", [plm_v], [])
            .attr("callee", Attribute::SymbolRef("rrtmg".into()))
            .append_to(body);
        m.build_op("olympus.replicate", [], [])
            .attr("factor", Attribute::Int(4))
            .attr("kernel", Attribute::SymbolRef("rrtmg".into()))
            .append_to(body);
        m.build_op("olympus.lane", [], [])
            .attr("width_bits", Attribute::Int(128))
            .attr("kernel", Attribute::SymbolRef("rrtmg".into()))
            .append_to(body);
        m.build_op("olympus.yield", [], []).append_to(body);
        verify_module(&ctx(), &m).unwrap();
    }

    #[test]
    fn plm_requires_plm_space() {
        let mut m = Module::new();
        let top = m.top_block();
        m.build_op(
            "olympus.plm",
            [],
            [Type::memref(&[64], Type::F64, MemorySpace::Device)],
        )
        .attr("banks", Attribute::Int(2))
        .append_to(top);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("plm-space"));
    }

    #[test]
    fn dma_direction_checked() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = crate::dialects::core::alloc(
            &mut m,
            top,
            Type::memref(&[8], Type::F64, MemorySpace::Host),
        );
        let b = crate::dialects::core::alloc(
            &mut m,
            top,
            Type::memref(&[8], Type::F64, MemorySpace::Device),
        );
        m.build_op("olympus.dma", [a, b], [])
            .attr("direction", "sideways")
            .append_to(top);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("direction must be"));
    }

    #[test]
    fn lane_width_must_be_power_of_two() {
        let mut m = Module::new();
        let top = m.top_block();
        m.build_op("olympus.lane", [], [])
            .attr("width_bits", Attribute::Int(96))
            .attr("kernel", Attribute::SymbolRef("k".into()))
            .append_to(top);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn replicate_factor_positive() {
        let mut m = Module::new();
        let top = m.top_block();
        m.build_op("olympus.replicate", [], [])
            .attr("factor", Attribute::Int(-1))
            .attr("kernel", Attribute::SymbolRef("k".into()))
            .append_to(top);
        assert!(verify_module(&ctx(), &m).is_err());
    }
}

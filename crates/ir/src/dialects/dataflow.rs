//! The `dfg` dialect: coordination-level dataflow graphs.
//!
//! ConDRust programs (paper §V-A.2) are compiled into `dfg.graph` ops whose
//! nodes are sequential computations connected by typed FIFO channels. The
//! deterministic executor in crate `everest-condrust` interprets this
//! dialect; Olympus maps `dfg.node`s onto FPGA kernels or CPU tasks.

use std::sync::LazyLock;

use crate::attr::Attribute;
use crate::constraint::{AttrRule, Constraint, Port, TypeClass};
use crate::ids::OpId;
use crate::intern::Symbol;
use crate::module::Module;
use crate::registry::{Arity, Dialect, OpSpec, OpTrait};
use crate::types::Type;

const GRAPH: Symbol = Symbol::registered("dfg.graph");
const CHANNEL: Symbol = Symbol::registered("dfg.channel");
const SYM_NAME: Symbol = Symbol::registered("sym_name");

/// The `capacity` attribute's name: not one a spec requires, so not in
/// the interner's constant table; interned once for the process rather
/// than looked up under the interner's lock for every channel.
static CAPACITY: LazyLock<Symbol> = LazyLock::new(|| Symbol::new("capacity"));

/// The `dfg` dialect.
pub(crate) fn dfg_dialect() -> Dialect {
    let mut d = Dialect::new("dfg", "coordination-level dataflow graphs");
    d.register(
        OpSpec::new("graph", Arity::Exact(0), Arity::Exact(0))
            .with_regions(1)
            .with_attr("sym_name")
            .with_trait(OpTrait::IsolatedFromAbove),
    );
    d.register(
        OpSpec::new("channel", Arity::Exact(0), Arity::Exact(1)).with_constraints(&[
            Constraint::Class(Port::Result(0, "result"), TypeClass::Stream),
            Constraint::Attr("capacity", AttrRule::Positive),
        ]),
    );
    d.register(
        OpSpec::new("node", Arity::Variadic, Arity::Variadic)
            .with_attr("callee")
            .with_constraints(&[Constraint::Class(Port::All, TypeClass::StreamOrToken)]),
    );
    // feed(value-stream) — external input into the graph.
    d.register(OpSpec::new("feed", Arity::Exact(1), Arity::Exact(0)).with_attr("name"));
    // sink(stream) — external output of the graph.
    d.register(OpSpec::new("sink", Arity::Exact(1), Arity::Exact(0)).with_attr("name"));
    d.register(
        OpSpec::new("yield", Arity::Variadic, Arity::Exact(0)).with_trait(OpTrait::Terminator),
    );
    d
}

/// Builds a `dfg.graph` and returns `(graph_op, body_block)`.
pub fn build_graph(
    m: &mut Module,
    parent: crate::ids::BlockId,
    name: &str,
) -> (OpId, crate::ids::BlockId) {
    let g = m
        .build_op(GRAPH, [], [])
        .attr(SYM_NAME, name)
        .regions(1)
        .append_to(parent);
    let region = m.op(g).expect("just built").regions[0];
    let body = m.add_block(region, &[]);
    (g, body)
}

/// Builds a `dfg.channel` of element type `elem` with a FIFO capacity.
/// Hashes nothing: the op and attribute names are resolved once for
/// the process, and the stream type is found in the module's table by
/// its element.
pub fn build_channel(
    m: &mut Module,
    block: crate::ids::BlockId,
    elem: Type,
    capacity: i64,
) -> crate::ids::ValueId {
    let stream = m.intern_stream(elem);
    let op = m
        .build_op(CHANNEL, [], [])
        .result(stream)
        .attr(*CAPACITY, Attribute::Int(capacity))
        .append_to(block);
    crate::module::single_result(m, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Context;
    use crate::verify::verify_module;

    fn ctx() -> Context {
        Context::with_all_dialects()
    }

    #[test]
    fn build_pipeline_graph() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_g, body) = build_graph(&mut m, top, "map_match");
        let c1 = build_channel(&mut m, body, Type::F64, 16);
        let c2 = build_channel(&mut m, body, Type::F64, 16);
        m.build_op("dfg.feed", [c1], [])
            .attr("name", "points")
            .append_to(body);
        m.build_op("dfg.node", [c1], [])
            .attr("callee", Attribute::SymbolRef("project".into()))
            .append_to(body);
        m.build_op("dfg.node", [c2], [])
            .attr("callee", Attribute::SymbolRef("viterbi".into()))
            .append_to(body);
        m.build_op("dfg.sink", [c2], [])
            .attr("name", "matched")
            .append_to(body);
        m.build_op("dfg.yield", [], []).append_to(body);
        verify_module(&ctx(), &m).unwrap();
    }

    #[test]
    fn channel_with_nonpositive_capacity_fails() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_g, body) = build_graph(&mut m, top, "bad");
        m.build_op("dfg.channel", [], [Type::Stream(Box::new(Type::F64))])
            .attr("capacity", Attribute::Int(0))
            .append_to(body);
        m.build_op("dfg.yield", [], []).append_to(body);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("capacity must be positive"));
    }

    #[test]
    fn node_with_scalar_port_fails() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_g, body) = build_graph(&mut m, top, "bad2");
        let c = crate::dialects::core::const_f64(&mut m, body, 1.0);
        m.build_op("dfg.node", [c], [])
            .attr("callee", Attribute::SymbolRef("f".into()))
            .append_to(body);
        m.build_op("dfg.yield", [], []).append_to(body);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("streams or tokens"));
    }

    #[test]
    fn channel_must_produce_stream_type() {
        let mut m = Module::new();
        let top = m.top_block();
        m.build_op("dfg.channel", [], [Type::F64])
            .attr("capacity", Attribute::Int(4))
            .append_to(top);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("stream"));
    }
}

//! Module verification against a dialect [`Context`].
//!
//! Verification proceeds in two layers, like MLIR: structural checks that
//! hold for any op (operand/result arity, region counts, required
//! attributes, terminator placement, SSA dominance within a block) and
//! the type and attribute rules each op's spec declares as
//! [`Constraint`](crate::constraint::Constraint)s, the role MLIR's ODS
//! type constraints play. An op's first violated rule is the error; the
//! `type-mismatch` lint of `everest-analysis` reports all of them.

use crate::error::{IrError, IrResult};
use crate::ids::{BlockId, OpId, RegionId, ValueId};
use crate::location::OpPath;
use crate::module::{Block, Module, ValueDef};
use crate::registry::{Context, OpSpec, OpTrait};

/// Which SSA values are in scope, as one dense buffer for the whole run.
///
/// `depth_of[v]` is the isolation depth at which `v` is currently in
/// scope, or 0 when it is not. Entering an [`OpTrait::IsolatedFromAbove`]
/// region raises `depth` and leaving restores it, so everything the
/// enclosing scopes defined is hidden inside without being touched. A
/// block takes its values out of scope when it ends, hence no two live
/// scopes ever share a depth.
struct Scope {
    depth_of: Vec<u32>,
    depth: u32,
}

impl Scope {
    /// `false` for ids past the end of the value arena too: the verifier
    /// must reject a malformed operand, not index with it.
    fn contains(&self, v: ValueId) -> bool {
        self.depth_of.get(v.index()) == Some(&self.depth)
    }

    fn set(&mut self, values: &[ValueId], depth: u32) {
        for v in values {
            if let Some(slot) = self.depth_of.get_mut(v.index()) {
                *slot = depth;
            }
        }
    }
}

/// Verifies every live op in the module.
///
/// # Errors
///
/// Returns the first violation found, in program order.
pub fn verify_module(ctx: &Context, module: &Module) -> IrResult<()> {
    let mut scope = Scope {
        depth_of: vec![0; module.num_values()],
        depth: 1,
    };
    verify_region(ctx, module, module.top_region(), &mut scope)
}

fn verify_region(
    ctx: &Context,
    module: &Module,
    region: RegionId,
    scope: &mut Scope,
) -> IrResult<()> {
    for &block in &module.region(region).blocks {
        verify_block(ctx, module, block, scope)?;
    }
    Ok(())
}

fn verify_block(ctx: &Context, module: &Module, block: BlockId, scope: &mut Scope) -> IrResult<()> {
    let Block { args, ops, .. } = module.block(block);
    scope.set(args, scope.depth);
    for (position, &op) in ops.iter().enumerate() {
        let spec = verify_op(ctx, module, op, scope).map_err(|e| attach_path(module, op, e))?;
        let operation = module.op(op).expect("blocks hold live ops");
        // Terminator placement.
        if spec.has_trait(OpTrait::Terminator) && position + 1 != ops.len() {
            return Err(attach_path(
                module,
                op,
                IrError::verification(
                    operation.name.to_string(),
                    "terminator must be the last op in its block",
                ),
            ));
        }
        // Nested regions see the enclosing scope unless isolated.
        let isolated = spec.has_trait(OpTrait::IsolatedFromAbove);
        scope.depth += u32::from(isolated);
        for &region in &operation.regions {
            verify_region(ctx, module, region, scope)?;
        }
        scope.depth -= u32::from(isolated);
        // Results become visible to later ops (dominance within a
        // block), not to the op's own regions.
        scope.set(&operation.results, scope.depth);
    }
    // Values defined in this block go out of scope when it ends.
    for operation in ops.iter().filter_map(|&op| module.op(op)) {
        scope.set(&operation.results, 0);
    }
    scope.set(args, 0);
    Ok(())
}

/// Attaches the structural path of `op` to a verification error that
/// does not already carry one (the per-op checks build path-less
/// errors; this driver is the one place that can locate the op).
fn attach_path(module: &Module, op: OpId, err: IrError) -> IrError {
    match OpPath::of(module, op) {
        Some(path) => err.with_path(path),
        None => err,
    }
}

/// Checks one op against its spec, which it returns: the block driver
/// reads the op's traits off it instead of looking the name up again.
fn verify_op<'c>(
    ctx: &'c Context,
    module: &Module,
    op: OpId,
    scope: &Scope,
) -> IrResult<&'c OpSpec> {
    let operation = module
        .op(op)
        .ok_or_else(|| IrError::InvalidId(format!("block references erased op {op}")))?;
    let spec = ctx
        .spec_of(operation.name)
        .ok_or_else(|| IrError::Unregistered(operation.name.to_string()))?;

    if !spec.operands.check(operation.operands.len()) {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!(
                "operand count {} violates arity {:?}",
                operation.operands.len(),
                spec.operands
            ),
        });
    }
    if !spec.results.check(operation.results.len()) {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!(
                "result count {} violates arity {:?}",
                operation.results.len(),
                spec.results
            ),
        });
    }
    if operation.regions.len() != spec.num_regions {
        return Err(IrError::Verification {
            op: operation.name.to_string(),
            path: None,
            message: format!(
                "expected {} regions, found {}",
                spec.num_regions,
                operation.regions.len()
            ),
        });
    }
    for attr in &spec.required_attrs {
        if !operation.attributes.contains_key(attr) {
            return Err(IrError::Verification {
                op: operation.name.to_string(),
                path: None,
                message: format!("missing required attribute '{attr}'"),
            });
        }
    }
    // SSA visibility: every operand must dominate this op.
    for &operand in &operation.operands {
        if !scope.contains(operand) {
            // Block arguments of enclosing non-isolated regions were added
            // when entering those blocks; anything else is a violation.
            return Err(IrError::Verification {
                op: operation.name.to_string(),
                path: None,
                message: format!("operand {operand} does not dominate its use"),
            });
        }
        // Also check that the operand's definition is live.
        match module.value(operand).def {
            ValueDef::OpResult { op: def_op, .. } => {
                if module.op(def_op).is_none() {
                    return Err(IrError::Verification {
                        op: operation.name.to_string(),
                        path: None,
                        message: format!("operand {operand} defined by erased op"),
                    });
                }
            }
            ValueDef::BlockArg { .. } => {}
        }
    }
    for constraint in spec.constraints {
        constraint
            .check(module, operation, spec.effects)
            .map_err(|message| IrError::verification(operation.name.to_string(), message))?;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;
    use crate::module::single_result;
    use crate::types::Type;

    fn ctx() -> Context {
        Context::with_all_dialects()
    }

    #[test]
    fn unregistered_op_rejected() {
        let mut m = Module::new();
        let top = m.top_block();
        m.build_op("nosuch.op", [], []).append_to(top);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(matches!(err, IrError::Unregistered(_)));
    }

    #[test]
    fn ops_no_flow_builds_are_not_registered() {
        // `ub.poison` verified until the dialects nothing outside this
        // crate named were dropped; text naming it now reads like any
        // other unknown op.
        let parsed =
            crate::parse::parse_module("module {\n  %0 = \"ub.poison\"() : () -> (f64)\n}\n")
                .unwrap();
        let err = verify_module(&ctx(), &parsed).unwrap_err();
        assert_eq!(err.to_string(), "unregistered dialect or op: ub.poison");
    }

    #[test]
    fn missing_required_attribute_rejected() {
        let mut m = Module::new();
        let top = m.top_block();
        m.build_op("arith.constant", [], [Type::F64]).append_to(top);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err
            .to_string()
            .contains("missing required attribute 'value'"));
    }

    #[test]
    fn use_before_def_rejected() {
        let mut m = Module::new();
        let top = m.top_block();
        // Build the constant first so its value exists, then build a user
        // placed *before* it in the block.
        let c = m
            .build_op("arith.constant", [], [Type::F64])
            .attr("value", Attribute::Float(1.0))
            .append_to(top);
        let v = single_result(&m, c);
        let user = m.build_op("arith.negf", [v], [Type::F64]).detached();
        m.insert_op_before(c, user);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("does not dominate"));
    }

    #[test]
    fn terminator_not_last_rejected() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = crate::dialects::core::build_func(&mut m, top, "f", &[], &[]);
        m.build_op("func.return", [], []).append_to(entry);
        m.build_op("arith.constant", [], [Type::F64])
            .attr("value", Attribute::Float(0.0))
            .append_to(entry);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("terminator must be the last op"));
    }

    #[test]
    fn isolated_region_cannot_capture() {
        let mut m = Module::new();
        let top = m.top_block();
        let c = crate::dialects::core::const_f64(&mut m, top, 1.0);
        // func.func is IsolatedFromAbove: using `c` inside must fail.
        let (f, entry) = crate::dialects::core::build_func(&mut m, top, "f", &[], &[]);
        let _ = f;
        m.build_op("arith.negf", [c], [Type::F64]).append_to(entry);
        m.build_op("func.return", [], []).append_to(entry);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("does not dominate"));
    }

    #[test]
    fn value_of_one_function_is_not_visible_in_the_next() {
        let mut m = Module::new();
        let top = m.top_block();
        let outside = crate::dialects::core::const_f64(&mut m, top, 0.0);
        let (_f, f_entry) = crate::dialects::core::build_func(&mut m, top, "f", &[], &[]);
        let in_f = crate::dialects::core::const_f64(&mut m, f_entry, 1.0);
        m.build_op("func.return", [], []).append_to(f_entry);
        let (_g, g_entry) = crate::dialects::core::build_func(&mut m, top, "g", &[], &[]);
        // Fine on its own: leaving `f` restored the enclosing scope.
        let in_g = crate::dialects::core::const_f64(&mut m, g_entry, 2.0);
        m.build_op("arith.negf", [in_g], [Type::F64])
            .append_to(g_entry);
        let ret = m.build_op("func.return", [], []).append_to(g_entry);
        // Hidden inside both functions, visible again after them.
        m.build_op("arith.negf", [outside], [Type::F64])
            .append_to(top);
        verify_module(&ctx(), &m).unwrap();
        // `f` and `g` are isolated at the same depth; `f`'s value went
        // out of scope when its block ended.
        let leak = m.build_op("arith.negf", [in_f], [Type::F64]).detached();
        m.insert_op_before(ret, leak);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("does not dominate"));
        assert_eq!(err.path().unwrap().steps[0].position, 2, "inside g");
    }

    #[test]
    fn operand_past_the_value_arena_is_rejected_not_indexed() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = crate::dialects::core::build_func(&mut m, top, "f", &[], &[]);
        let bogus = ValueId::from_raw(m.num_values() as u32 + 7);
        m.build_op("arith.negf", [bogus], [Type::F64])
            .append_to(entry);
        m.build_op("func.return", [], []).append_to(entry);
        assert!(bogus.index() >= m.num_values());
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(matches!(err, IrError::Verification { .. }));
        assert!(err.to_string().contains("does not dominate its use"));
        let path = err.path().expect("verifier attaches a path");
        assert_eq!(path.leaf().unwrap().op_name, "arith.negf");
        assert_eq!(path.depth(), 2);
    }

    #[test]
    fn op_cannot_use_its_own_result_inside_its_regions() {
        let mut m = Module::new();
        let top = m.top_block();
        let cond = m
            .build_op("arith.constant", [], [Type::bool()])
            .attr("value", Attribute::Bool(true))
            .append_to(top);
        let cond = single_result(&m, cond);
        let if_op = m
            .build_op("scf.if", [cond], [Type::F64])
            .regions(2)
            .append_to(top);
        let result = single_result(&m, if_op);
        for region in m.op(if_op).unwrap().regions.clone() {
            let block = m.add_block(region, &[]);
            m.build_op("scf.yield", [result], []).append_to(block);
        }
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("does not dominate"), "{err}");
        assert_eq!(err.path().unwrap().leaf().unwrap().op_name, "scf.yield");
    }

    #[test]
    fn non_isolated_region_may_capture() {
        let mut m = Module::new();
        let top = m.top_block();
        let x = crate::dialects::core::const_f64(&mut m, top, 2.0);
        let lb = crate::dialects::core::const_index(&mut m, top, 0);
        let ub = crate::dialects::core::const_index(&mut m, top, 4);
        let step = crate::dialects::core::const_index(&mut m, top, 1);
        let (_loop, body) = crate::dialects::core::build_for(&mut m, top, lb, ub, step);
        // scf.for is not isolated: capturing x is fine.
        m.build_op("arith.negf", [x], [Type::F64]).append_to(body);
        m.build_op("scf.yield", [], []).append_to(body);
        verify_module(&ctx(), &m).unwrap();
    }

    #[test]
    fn verification_errors_carry_structural_paths() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = crate::dialects::core::build_func(&mut m, top, "f", &[], &[]);
        // Missing required attribute, nested one level inside the func.
        m.build_op("arith.constant", [], [Type::F64])
            .append_to(entry);
        m.build_op("func.return", [], []).append_to(entry);
        let err = verify_module(&ctx(), &m).unwrap_err();
        let path = err.path().expect("verifier attaches a path");
        assert_eq!(path.depth(), 2);
        assert_eq!(path.steps[0].op_name, "func.func");
        assert_eq!(path.leaf().unwrap().op_name, "arith.constant");
        assert!(err
            .to_string()
            .contains("(at region0.block0.op0(func.func)"));
    }

    #[test]
    fn arity_violation_rejected() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = crate::dialects::core::const_f64(&mut m, top, 1.0);
        m.build_op("arith.addf", [a], [Type::F64]).append_to(top);
        let err = verify_module(&ctx(), &m).unwrap_err();
        assert!(err.to_string().contains("operand count 1"));
    }
}

//! Structural locations of operations inside a module.
//!
//! The IR carries no source-file locations, but every live op has a
//! unique *structural* position: the chain of (region, block, op index)
//! steps that leads from the module's top region down to the op. An
//! [`OpPath`] captures that chain so verification errors and analysis
//! diagnostics can point at the offending op precisely, even in deeply
//! nested modules.

use std::fmt;

use crate::ids::OpId;
use crate::module::Module;

/// One step of an [`OpPath`]: which region of the parent op was
/// entered, which block inside it, and the op's index in that block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathStep {
    /// Index of the region within its parent op (0 for the top region).
    pub region: usize,
    /// Index of the block within the region.
    pub block: usize,
    /// Index of the op within the block.
    pub position: usize,
    /// Fully qualified name of the op at this step.
    pub op_name: String,
}

/// The structural path from the module root to a specific operation.
///
/// Formats as `region0.block0.op2(func.func) / region0.block0.op1(arith.addf)`:
/// each step names the region/block/op indices taken plus the op found
/// there, and the last step is the op itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct OpPath {
    /// Steps from outermost to innermost; the final step is the op.
    pub steps: Vec<PathStep>,
}

impl OpPath {
    /// Computes the path of `target` by walking up its parent links
    /// (`parent_block`, `parent_region`, `parent_op`) to the top region:
    /// linear in the nesting depth and the lengths of the blocks on the
    /// way, not in the size of the module.
    ///
    /// Returns `None` if the op is erased or detached from the module's
    /// region tree (e.g. built with `detached()` and never inserted, or
    /// nested under such an op).
    pub fn of(module: &Module, target: OpId) -> Option<OpPath> {
        let mut steps = Vec::new();
        let mut next = Some(target);
        while let Some(op) = next {
            let operation = module.op(op)?;
            let block = operation.parent_block?;
            let region = module.block(block).parent_region;
            next = module.region(region).parent_op;
            steps.push(PathStep {
                region: match next {
                    Some(parent) => index_of(&module.op(parent)?.regions, region)?,
                    None => 0,
                },
                block: index_of(&module.region(region).blocks, block)?,
                position: index_of(&module.block(block).ops, op)?,
                op_name: operation.name.to_string(),
            });
        }
        steps.reverse();
        Some(OpPath { steps })
    }

    /// The final step, i.e. the op the path points at.
    pub fn leaf(&self) -> Option<&PathStep> {
        self.steps.last()
    }

    /// Nesting depth (1 for a top-level op).
    pub fn depth(&self) -> usize {
        self.steps.len()
    }
}

fn index_of<T: PartialEq>(items: &[T], item: T) -> Option<usize> {
    items.iter().position(|i| *i == item)
}

impl fmt::Display for OpPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, " / ")?;
            }
            write!(
                f,
                "region{}.block{}.op{}({})",
                step.region, step.block, step.position, step.op_name
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;
    use crate::types::Type;

    #[test]
    fn top_level_op_has_single_step() {
        let mut m = Module::new();
        let top = m.top_block();
        let _a = crate::dialects::core::const_f64(&mut m, top, 1.0);
        let b = crate::dialects::core::const_f64(&mut m, top, 2.0);
        let b_op = match m.value(b).def {
            crate::module::ValueDef::OpResult { op, .. } => op,
            _ => unreachable!(),
        };
        let path = OpPath::of(&m, b_op).expect("op is attached");
        assert_eq!(path.depth(), 1);
        let leaf = path.leaf().unwrap();
        assert_eq!(leaf.position, 1);
        assert_eq!(leaf.op_name, "arith.constant");
        assert_eq!(path.to_string(), "region0.block0.op1(arith.constant)");
    }

    #[test]
    fn nested_op_path_walks_through_parents() {
        let mut m = Module::new();
        let top = m.top_block();
        let (_f, entry) = crate::dialects::core::build_func(&mut m, top, "k", &[], &[]);
        let c = m
            .build_op("arith.constant", [], [Type::F64])
            .attr("value", Attribute::Float(3.0))
            .append_to(entry);
        m.build_op("func.return", [], []).append_to(entry);
        let path = OpPath::of(&m, c).expect("op is attached");
        assert_eq!(path.depth(), 2);
        assert_eq!(path.steps[0].op_name, "func.func");
        assert_eq!(path.leaf().unwrap().op_name, "arith.constant");
        assert!(path.to_string().contains("func.func"));
    }

    #[test]
    fn detached_op_has_no_path() {
        let mut m = Module::new();
        let op = m.build_op("arith.constant", [], [Type::F64]).detached();
        assert_eq!(OpPath::of(&m, op), None);
    }

    /// The reference `OpPath::of` is checked against: one top-down
    /// enumeration of the region tree recording every op's path.
    fn enumerate(
        m: &Module,
        region: crate::ids::RegionId,
        region_index: usize,
        prefix: &mut Vec<PathStep>,
        out: &mut Vec<(OpId, OpPath)>,
    ) {
        for (block_index, &block) in m.region(region).blocks.iter().enumerate() {
            for (position, &op) in m.block(block).ops.iter().enumerate() {
                let operation = m.op(op).unwrap();
                prefix.push(PathStep {
                    region: region_index,
                    block: block_index,
                    position,
                    op_name: operation.name.to_string(),
                });
                out.push((
                    op,
                    OpPath {
                        steps: prefix.clone(),
                    },
                ));
                for (nested_index, &nested) in operation.regions.iter().enumerate() {
                    enumerate(m, nested, nested_index, prefix, out);
                }
                prefix.pop();
            }
        }
    }

    #[test]
    fn walking_up_agrees_with_a_top_down_enumeration() {
        use crate::dialects::core::{build_for, build_func, const_f64, const_index};
        let mut m = Module::new();
        let top = m.top_block();
        const_f64(&mut m, top, 0.5);
        // Two functions, the second with two blocks in its region, each
        // holding a loop nest two deep, plus a two-region op: every index
        // of a step (region, block, position) takes a non-zero value.
        let mut innermost = Vec::new();
        for name in ["f", "g"] {
            let (func, entry) = build_func(&mut m, top, name, &[], &[]);
            let region = m.op(func).unwrap().regions[0];
            let second = m.add_block(region, &[]);
            for block in [entry, second] {
                let lb = const_index(&mut m, block, 0);
                let ub = const_index(&mut m, block, 4);
                let step = const_index(&mut m, block, 1);
                let (_outer, outer_body) = build_for(&mut m, block, lb, ub, step);
                const_f64(&mut m, outer_body, 1.0);
                let (_inner, inner_body) = build_for(&mut m, outer_body, lb, ub, step);
                innermost.push(const_f64(&mut m, inner_body, 2.0));
                m.build_op("scf.yield", [], []).append_to(inner_body);
                m.build_op("scf.yield", [], []).append_to(outer_body);
            }
            let branch = m.build_op("scf.if", [], []).regions(2).append_to(second);
            let else_region = m.op(branch).unwrap().regions[1];
            let else_block = m.add_block(else_region, &[]);
            m.build_op("scf.yield", [], []).append_to(else_block);
            m.build_op("func.return", [], []).append_to(second);
        }
        let mut expected = Vec::new();
        enumerate(&m, m.top_region(), 0, &mut Vec::new(), &mut expected);
        assert_eq!(expected.len(), m.num_ops(), "every op is attached");
        assert!(expected.iter().any(|(_, p)| p.depth() == 4));
        for (op, path) in &expected {
            assert_eq!(OpPath::of(&m, *op).as_ref(), Some(path));
        }
        let deepest = &expected.iter().find(|(_, p)| p.depth() == 4).unwrap().1;
        assert_eq!(
            deepest.to_string(),
            "region0.block0.op1(func.func) / region0.block0.op3(scf.for) / \
             region0.block0.op1(scf.for) / region0.block0.op0(arith.constant)"
        );

        // Erased, detached and nested-under-detached ops have no path.
        let erased = expected[0].0;
        m.erase_op(erased).unwrap();
        assert_eq!(OpPath::of(&m, erased), None);
        let detached = m.build_op("scf.for", [], []).regions(1).detached();
        let region = m.op(detached).unwrap().regions[0];
        let body = m.add_block(region, &[]);
        let under_detached = m.build_op("scf.yield", [], []).append_to(body);
        assert_eq!(OpPath::of(&m, detached), None);
        assert_eq!(OpPath::of(&m, under_detached), None);
        // Erasing an op takes everything nested under it along.
        let func = m.lookup_symbol("g").unwrap();
        m.erase_op(func).unwrap();
        let gone = m.value(*innermost.last().unwrap()).def;
        let crate::module::ValueDef::OpResult { op: gone, .. } = gone else {
            unreachable!()
        };
        assert_eq!(OpPath::of(&m, gone), None);
    }
}

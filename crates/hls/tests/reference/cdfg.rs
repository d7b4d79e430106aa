//! `everest_hls::cdfg` as of the commit before the dense tables: a hash
//! map of the block's ops, one of last stores, one of loads, and a `Vec`
//! of predecessors per node. For a region op the memory predecessors
//! come out in `RandomState` order; only the set is meaningful.

use std::collections::HashMap;

use everest_ir::module::{Module, ValueDef};
use everest_ir::{BlockId, OpId, ValueId};

/// A dependence edge kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DepKind {
    /// SSA value flow.
    Data,
    /// Memory ordering (store→load, store→store, load→store on one
    /// buffer).
    Memory,
}

/// A node in a block-level dependence graph.
#[derive(Debug, Clone)]
pub(crate) struct CdfgNode {
    /// The IR operation.
    pub op: OpId,
    /// Fully qualified op name (cached, interned — `Copy`, no clone).
    pub name: everest_ir::Symbol,
    /// Predecessors: `(node index, kind)`.
    pub preds: Vec<(usize, DepKind)>,
}

/// The dependence graph of one block.
#[derive(Debug, Clone)]
pub(crate) struct BlockCdfg {
    /// The block.
    pub block: BlockId,
    /// Nodes in program order (a valid topological order).
    pub nodes: Vec<CdfgNode>,
}

impl BlockCdfg {
    /// Builds the dependence graph of a block.
    pub(crate) fn build(module: &Module, block: BlockId) -> BlockCdfg {
        let ops = module.block(block).ops.clone();
        let index_of: HashMap<OpId, usize> =
            ops.iter().enumerate().map(|(i, &op)| (op, i)).collect();

        // Root buffer a value refers to (walk through nothing for now —
        // buffers are produced by allocs or block args).
        let buffer_root = |v: ValueId| -> ValueId { v };

        let mut nodes: Vec<CdfgNode> = Vec::with_capacity(ops.len());
        // buffer -> (last store node, loads since that store)
        let mut last_store: HashMap<ValueId, usize> = HashMap::new();
        let mut loads_since: HashMap<ValueId, Vec<usize>> = HashMap::new();

        for (i, &op) in ops.iter().enumerate() {
            let operation = module.op(op).expect("live op");
            let mut preds: Vec<(usize, DepKind)> = Vec::new();
            for &operand in &operation.operands {
                if let ValueDef::OpResult { op: def, .. } = module.value(operand).def {
                    if let Some(&j) = index_of.get(&def) {
                        if !preds.contains(&(j, DepKind::Data)) {
                            preds.push((j, DepKind::Data));
                        }
                    }
                }
            }
            match operation.name.as_str() {
                "memref.load" => {
                    let buf = buffer_root(operation.operands[0]);
                    if let Some(&s) = last_store.get(&buf) {
                        if !preds.contains(&(s, DepKind::Memory)) {
                            preds.push((s, DepKind::Memory));
                        }
                    }
                    loads_since.entry(buf).or_default().push(i);
                }
                "memref.store" => {
                    let buf = buffer_root(operation.operands[1]);
                    if let Some(&s) = last_store.get(&buf) {
                        preds.push((s, DepKind::Memory));
                    }
                    for &l in loads_since.get(&buf).map(Vec::as_slice).unwrap_or(&[]) {
                        if !preds.contains(&(l, DepKind::Memory)) {
                            preds.push((l, DepKind::Memory));
                        }
                    }
                    last_store.insert(buf, i);
                    loads_since.insert(buf, Vec::new());
                }
                "memref.copy" => {
                    // copy reads operand 0, writes operand 1
                    let src = buffer_root(operation.operands[0]);
                    let dst = buffer_root(operation.operands[1]);
                    if let Some(&s) = last_store.get(&src) {
                        preds.push((s, DepKind::Memory));
                    }
                    if let Some(&s) = last_store.get(&dst) {
                        if !preds.contains(&(s, DepKind::Memory)) {
                            preds.push((s, DepKind::Memory));
                        }
                    }
                    last_store.insert(dst, i);
                    loads_since.insert(dst, Vec::new());
                }
                _ => {
                    // Ops with regions (loops, ifs) conservatively order
                    // against all outstanding memory state: their bodies
                    // may touch any buffer.
                    if !operation.regions.is_empty() {
                        for (&_buf, &s) in &last_store {
                            if !preds.contains(&(s, DepKind::Memory)) {
                                preds.push((s, DepKind::Memory));
                            }
                        }
                        for (buf, ls) in &loads_since {
                            let _ = buf;
                            for &l in ls {
                                if !preds.contains(&(l, DepKind::Memory)) {
                                    preds.push((l, DepKind::Memory));
                                }
                            }
                        }
                        // And everything after orders against the loop:
                        // model by marking the loop as a store to a
                        // synthetic "world" buffer.
                        let world = ValueId::from_raw(u32::MAX);
                        if let Some(&s) = last_store.get(&world) {
                            if !preds.contains(&(s, DepKind::Memory)) {
                                preds.push((s, DepKind::Memory));
                            }
                        }
                        last_store.insert(world, i);
                        // A region op invalidates load tracking.
                        loads_since.clear();
                    } else {
                        let world = ValueId::from_raw(u32::MAX);
                        if let Some(&s) = last_store.get(&world) {
                            let _ = s;
                        }
                    }
                }
            }
            nodes.push(CdfgNode {
                op,
                name: operation.name,
                preds,
            });
        }
        BlockCdfg { block, nodes }
    }

    /// Successor lists (inverse of `preds`).
    pub(crate) fn successors(&self) -> Vec<Vec<usize>> {
        let mut succs = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &(p, _) in &node.preds {
                succs[p].push(i);
            }
        }
        succs
    }
}

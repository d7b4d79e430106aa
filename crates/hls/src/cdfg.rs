//! Control/data-flow graph construction from loop-level IR.
//!
//! For each block the CDFG captures, per operation: SSA data dependences,
//! memory dependences (conservative: stores order against loads and
//! stores on the same buffer), and nesting (loop ops are macro-nodes
//! whose cost is computed recursively by the scheduler).
//!
//! Nothing here hashes. A block's predecessors sit in one CSR array;
//! the lookups a build needs — where in its block an op sits, what was
//! last stored to a buffer, which loads followed — are tables indexed by
//! `OpId::index()` / `ValueId::index()` that a `CdfgTables` sizes once
//! and reuses for every block of a synthesis.

use everest_ir::constraint::{Effect, Port};
use everest_ir::module::{Module, ValueDef};
use everest_ir::{BlockId, Context, OpId, Symbol};

/// A dependence edge kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// SSA value flow.
    Data,
    /// Memory ordering (store→load, store→store, load→store on one
    /// buffer).
    Memory,
}

/// What the synthesis flow distinguishes about an op, decided by its
/// name and the effects its kind declares (once per distinct name, see
/// `CdfgTables`). Operand and result positions are the declared ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `scf.for`.
    For,
    /// `scf.if`.
    If,
    /// Reads the buffer in operand `.0` and nothing else (`memref.load`).
    Load(usize),
    /// Writes the buffer in operand `.0` and nothing else
    /// (`memref.store`).
    Store(usize),
    /// Allocates its result `.0` (`memref.alloc`).
    Alloc(usize),
    /// Reads operand `.0` and writes operand `.1` (`memref.copy`).
    Copy(usize, usize),
    /// Everything else.
    Other,
}

impl OpClass {
    fn of(ctx: &Context, name: Symbol) -> OpClass {
        match (name.as_str(), ctx.effects(name)) {
            ("scf.for", _) => OpClass::For,
            ("scf.if", _) => OpClass::If,
            (_, &[Effect::Read(Port::Operand(buffer, _))]) => OpClass::Load(buffer),
            (_, &[Effect::Write(Port::Operand(buffer, _))]) => OpClass::Store(buffer),
            (_, &[Effect::Alloc(Port::Result(buffer, _)), ..]) => OpClass::Alloc(buffer),
            (_, &[Effect::Read(Port::Operand(src, _)), Effect::Write(Port::Operand(dst, _))]) => {
                OpClass::Copy(src, dst)
            }
            _ => OpClass::Other,
        }
    }
}

/// A node in a block-level dependence graph. Its predecessors are
/// [`BlockCdfg::preds`] of its position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdfgNode {
    /// The IR operation.
    pub op: OpId,
    /// Fully qualified op name (cached, interned — `Copy`, no clone).
    pub name: Symbol,
    /// Dense id of `name` among the names the building `CdfgTables`
    /// has met, in first-met order: equal ids, equal names.
    pub kind: u32,
    /// The class of `name`.
    pub class: OpClass,
    /// Whether the op carries regions (loops, ifs): a macro-node.
    pub has_regions: bool,
}

/// The dependence graph of one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCdfg {
    /// The block.
    pub block: BlockId,
    /// Nodes in program order (a valid topological order).
    pub nodes: Vec<CdfgNode>,
    /// CSR: node `i`'s predecessors are
    /// `pred_edges[pred_offsets[i]..pred_offsets[i + 1]]`.
    pred_offsets: Vec<u32>,
    pred_edges: Vec<(u32, DepKind)>,
}

impl Default for BlockCdfg {
    fn default() -> Self {
        BlockCdfg {
            block: BlockId::from_raw(0),
            nodes: Vec::new(),
            pred_offsets: vec![0],
            pred_edges: Vec::new(),
        }
    }
}

impl BlockCdfg {
    /// Builds the dependence graph of a block with tables of its own;
    /// to build many blocks of one module, keep a `CdfgTables`.
    pub fn build(module: &Module, block: BlockId) -> BlockCdfg {
        let mut cdfg = BlockCdfg::default();
        CdfgTables::new(module).build(module, block, &mut cdfg);
        cdfg
    }

    /// Predecessors of node `node` as `(node index, kind)`: data
    /// dependences first, in operand order, then memory dependences —
    /// for a region op in ascending node order.
    pub fn preds(&self, node: usize) -> &[(u32, DepKind)] {
        let (lo, hi) = (self.pred_offsets[node], self.pred_offsets[node + 1]);
        &self.pred_edges[lo as usize..hi as usize]
    }

    /// Appends `edge` to the open (last) node's predecessors unless it
    /// is already among them.
    fn push_unique(&mut self, first: usize, edge: (u32, DepKind)) {
        if !self.pred_edges[first..].contains(&edge) {
            self.pred_edges.push(edge);
        }
    }
}

const NONE: u32 = u32::MAX;

/// A table over an arena whose slots reset themselves: a slot written
/// under an earlier generation reads as `T::default()`, so starting
/// over costs one increment, not a pass over the table.
#[derive(Debug, Clone)]
pub(crate) struct Stamped<T> {
    generation: u32,
    slots: Vec<(u32, T)>,
}

impl<T: Copy + Default> Stamped<T> {
    pub(crate) fn new(len: usize) -> Self {
        Stamped {
            generation: 0,
            slots: vec![(0, T::default()); len],
        }
    }

    /// Forgets every slot.
    pub(crate) fn reset(&mut self) {
        self.generation += 1;
    }

    pub(crate) fn slot(&mut self, index: usize) -> &mut T {
        let slot = &mut self.slots[index];
        if slot.0 != self.generation {
            *slot = (self.generation, T::default());
        }
        &mut slot.1
    }
}

/// Outstanding memory state of one buffer within the block being
/// built, as node indices; loads since the last store are chained
/// through `CdfgTables::next_load` in program order.
#[derive(Debug, Clone, Copy)]
struct BufferState {
    last_store: u32,
    first_load: u32,
    last_load: u32,
}

impl Default for BufferState {
    fn default() -> Self {
        BufferState {
            last_store: NONE,
            first_load: NONE,
            last_load: NONE,
        }
    }
}

/// The lookup tables [`BlockCdfg`] builds need, sized for one module
/// and reused across its blocks.
#[derive(Debug, Clone)]
pub(crate) struct CdfgTables {
    /// Position of each op within its block, by `OpId::index()`. Every
    /// build overwrites its own block's entries and a lookup checks the
    /// block really holds the op there, so the table is never cleared.
    position: Vec<u32>,
    /// By `ValueId::index()` of the buffer.
    buffers: Stamped<BufferState>,
    /// By node: the next load of the same buffer.
    next_load: Vec<u32>,
    /// Buffers with a last store / with chained loads in this block
    /// (a region op orders against all of them).
    stored: Vec<u32>,
    loaded: Vec<u32>,
    region_preds: Vec<u32>,
    /// Names by kind id.
    kinds: Vec<Symbol>,
    classes: Vec<OpClass>,
    /// Where the classes' effects are declared.
    ctx: Context,
}

impl CdfgTables {
    /// Tables for the blocks of `module`.
    pub(crate) fn new(module: &Module) -> CdfgTables {
        CdfgTables {
            position: vec![0; module.num_op_slots()],
            buffers: Stamped::new(module.num_values()),
            next_load: Vec::new(),
            stored: Vec::new(),
            loaded: Vec::new(),
            region_preds: Vec::new(),
            kinds: Vec::new(),
            classes: Vec::new(),
            ctx: Context::with_all_dialects(),
        }
    }

    /// The op names met so far, by [`CdfgNode::kind`].
    pub(crate) fn kinds(&self) -> &[Symbol] {
        &self.kinds
    }

    fn kind_of(&mut self, name: Symbol) -> (u32, OpClass) {
        // A kernel has a dozen distinct names; a scan over interned ids
        // beats hashing them.
        let kind = match self.kinds.iter().position(|&k| k == name) {
            Some(kind) => kind,
            None => {
                self.kinds.push(name);
                self.classes.push(OpClass::of(&self.ctx, name));
                self.kinds.len() - 1
            }
        };
        (kind as u32, self.classes[kind])
    }

    /// Builds the dependence graph of `block` into `cdfg`, reusing its
    /// storage.
    pub(crate) fn build(&mut self, module: &Module, block: BlockId, cdfg: &mut BlockCdfg) {
        let ops = &module.block(block).ops;
        cdfg.block = block;
        cdfg.nodes.clear();
        cdfg.pred_offsets.clear();
        cdfg.pred_edges.clear();
        for (i, &op) in ops.iter().enumerate() {
            self.position[op.index()] = i as u32;
        }
        self.buffers.reset();
        self.stored.clear();
        self.loaded.clear();
        self.next_load.clear();
        self.next_load.resize(ops.len(), NONE);
        // Region ops order against each other through a synthetic
        // "world" buffer only they store to.
        let mut world = NONE;

        for (i, &op) in ops.iter().enumerate() {
            let i = i as u32;
            let operation = module.op(op).expect("live op");
            let first = cdfg.pred_edges.len();
            cdfg.pred_offsets.push(first as u32);
            for &operand in &operation.operands {
                if let ValueDef::OpResult { op: def, .. } = module.value(operand).def {
                    let j = self.position[def.index()];
                    if ops.get(j as usize) == Some(&def) {
                        cdfg.push_unique(first, (j, DepKind::Data));
                    }
                }
            }
            let (kind, class) = self.kind_of(operation.name);
            let has_regions = !operation.regions.is_empty();
            // Buffers are identified by their defining SSA value (allocs
            // or block args); nothing is walked through.
            match class {
                OpClass::Load(buffer) => {
                    let buf = operation.operands[buffer].index();
                    let state = self.buffers.slot(buf);
                    if state.last_store != NONE {
                        cdfg.pred_edges.push((state.last_store, DepKind::Memory));
                    }
                    if state.first_load == NONE {
                        state.first_load = i;
                        self.loaded.push(buf as u32);
                    } else {
                        self.next_load[state.last_load as usize] = i;
                    }
                    state.last_load = i;
                }
                OpClass::Store(buffer) => {
                    let buf = operation.operands[buffer].index();
                    let state = self.buffers.slot(buf);
                    if state.last_store == NONE {
                        self.stored.push(buf as u32);
                    } else {
                        cdfg.pred_edges.push((state.last_store, DepKind::Memory));
                    }
                    let mut load = state.first_load;
                    while load != NONE {
                        cdfg.pred_edges.push((load, DepKind::Memory));
                        load = self.next_load[load as usize];
                    }
                    *state = BufferState {
                        last_store: i,
                        ..BufferState::default()
                    };
                }
                OpClass::Copy(src, dst) => {
                    let src = operation.operands[src].index();
                    let dst = operation.operands[dst].index();
                    let read = self.buffers.slot(src).last_store;
                    if read != NONE {
                        cdfg.pred_edges.push((read, DepKind::Memory));
                    }
                    let state = self.buffers.slot(dst);
                    if state.last_store == NONE {
                        self.stored.push(dst as u32);
                    } else {
                        cdfg.push_unique(first, (state.last_store, DepKind::Memory));
                    }
                    *state = BufferState {
                        last_store: i,
                        ..BufferState::default()
                    };
                }
                // Ops with regions (loops, ifs) conservatively order
                // against all outstanding memory state: their bodies may
                // touch any buffer.
                _ if has_regions => {
                    self.region_preds.clear();
                    for &buf in &self.stored {
                        self.region_preds
                            .push(self.buffers.slot(buf as usize).last_store);
                    }
                    if world != NONE {
                        self.region_preds.push(world);
                    }
                    // A region op invalidates load tracking.
                    for &buf in &self.loaded {
                        let state = self.buffers.slot(buf as usize);
                        let mut load = state.first_load;
                        while load != NONE {
                            self.region_preds.push(load);
                            load = self.next_load[load as usize];
                        }
                        state.first_load = NONE;
                        state.last_load = NONE;
                    }
                    self.loaded.clear();
                    self.region_preds.sort_unstable();
                    self.region_preds.dedup();
                    cdfg.pred_edges
                        .extend(self.region_preds.iter().map(|&j| (j, DepKind::Memory)));
                    world = i;
                }
                _ => {}
            }
            cdfg.nodes.push(CdfgNode {
                op,
                name: operation.name,
                kind,
                class,
                has_regions,
            });
        }
        cdfg.pred_offsets.push(cdfg.pred_edges.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::dialects::core::{alloc, binary, build_for, const_f64, const_index};
    use everest_ir::module::single_result;
    use everest_ir::types::{MemorySpace, Type};

    #[test]
    fn ssa_dependences_tracked() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = const_f64(&mut m, top, 1.0);
        let b = const_f64(&mut m, top, 2.0);
        let _c = binary(&mut m, top, "arith.addf", a, b);
        let g = BlockCdfg::build(&m, top);
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.preds(2), [(0, DepKind::Data), (1, DepKind::Data)]);
    }

    #[test]
    fn store_load_ordering_on_same_buffer() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = alloc(&mut m, top, Type::memref(&[], Type::F64, MemorySpace::Plm));
        let v = const_f64(&mut m, top, 1.0);
        m.build_op("memref.store", [v, buf], []).append_to(top); // node 2
        let load = m.build_op("memref.load", [buf], [Type::F64]).append_to(top); // node 3
        let _ = load;
        let g = BlockCdfg::build(&m, top);
        assert!(
            g.preds(3).contains(&(2, DepKind::Memory)),
            "load must order after the store: {:?}",
            g.preds(3)
        );
    }

    #[test]
    fn load_store_antidependence() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = alloc(&mut m, top, Type::memref(&[], Type::F64, MemorySpace::Plm));
        let load = m.build_op("memref.load", [buf], [Type::F64]).append_to(top); // node 1
        let lv = single_result(&m, load);
        m.build_op("memref.store", [lv, buf], []).append_to(top); // node 2
        let g = BlockCdfg::build(&m, top);
        // store depends on load both via data and memory
        assert!(g.preds(2).contains(&(1, DepKind::Data)));
        assert!(g.preds(2).contains(&(1, DepKind::Memory)));
    }

    #[test]
    fn independent_buffers_do_not_order() {
        let mut m = Module::new();
        let top = m.top_block();
        let b1 = alloc(&mut m, top, Type::memref(&[], Type::F64, MemorySpace::Plm));
        let b2 = alloc(&mut m, top, Type::memref(&[], Type::F64, MemorySpace::Plm));
        let v = const_f64(&mut m, top, 1.0);
        m.build_op("memref.store", [v, b1], []).append_to(top); // 3
        let load = m.build_op("memref.load", [b2], [Type::F64]).append_to(top); // 4
        let _ = load;
        let g = BlockCdfg::build(&m, top);
        assert!(
            !g.preds(4).iter().any(|&(p, _)| p == 3),
            "loads from a different buffer must not serialize"
        );
    }

    #[test]
    fn loops_order_against_memory_and_each_other() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = alloc(&mut m, top, Type::memref(&[4], Type::F64, MemorySpace::Plm));
        let _ = buf;
        let lb = const_index(&mut m, top, 0);
        let ub = const_index(&mut m, top, 4);
        let step = const_index(&mut m, top, 1);
        let (l1, body1) = build_for(&mut m, top, lb, ub, step);
        m.build_op("scf.yield", [], []).append_to(body1);
        let (l2, body2) = build_for(&mut m, top, lb, ub, step);
        m.build_op("scf.yield", [], []).append_to(body2);
        let g = BlockCdfg::build(&m, top);
        let i1 = g.nodes.iter().position(|n| n.op == l1).unwrap();
        let i2 = g.nodes.iter().position(|n| n.op == l2).unwrap();
        assert!(
            g.preds(i2).contains(&(i1 as u32, DepKind::Memory)),
            "sibling loops must be ordered: {:?}",
            g.preds(i2)
        );
    }

    /// A region op orders against every outstanding store and load of
    /// the block; which buffers those are found under must not decide
    /// the order they are listed in.
    #[test]
    fn region_op_preds_are_in_node_order_on_every_build() {
        let mut m = Module::new();
        let top = m.top_block();
        let ty = Type::memref(&[4], Type::F64, MemorySpace::Plm);
        let buffers: Vec<_> = (0..6).map(|_| alloc(&mut m, top, ty.clone())).collect();
        let i = const_index(&mut m, top, 0);
        let v = const_f64(&mut m, top, 1.0);
        // Stores and loads interleaved over the buffers, last first.
        for &buf in buffers.iter().rev() {
            m.build_op("memref.store", [v, buf, i], []).append_to(top);
            m.build_op("memref.load", [buf, i], [Type::F64])
                .append_to(top);
        }
        m.build_op("memref.load", [buffers[3], i], [Type::F64])
            .append_to(top);
        let ub = const_index(&mut m, top, 4);
        let (loop_op, body) = build_for(&mut m, top, i, ub, ub);
        m.build_op("scf.yield", [], []).append_to(body);

        let g = BlockCdfg::build(&m, top);
        let at = g.nodes.iter().position(|n| n.op == loop_op).unwrap();
        let (data, memory): (Vec<_>, Vec<_>) = g
            .preds(at)
            .iter()
            .partition(|&&(_, kind)| kind == DepKind::Data);
        // lb, ub, step: operand order, duplicates dropped.
        assert_eq!(data, [(6, DepKind::Data), (21, DepKind::Data)]);
        // Six stores, their six loads and the extra load: nodes 8..=20.
        let want: Vec<_> = (8..=20).map(|j| (j, DepKind::Memory)).collect();
        assert_eq!(memory, want);
        assert_eq!(g.preds(at)[..2], data[..], "data predecessors come first");

        let mut tables = CdfgTables::new(&m);
        let mut again = BlockCdfg::default();
        for _ in 0..3 {
            tables.build(&m, top, &mut again);
            assert_eq!(again, g, "two builds of one block are equal");
        }
    }
}

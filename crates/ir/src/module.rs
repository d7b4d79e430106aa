//! The IR container: modules, operations, regions, blocks and SSA values.
//!
//! The design follows MLIR's structure — operations own regions, regions
//! own blocks, blocks own operations and block arguments — but stores all
//! entities in arenas indexed by the ids from [`crate::ids`]. This keeps
//! the graph acyclic from the borrow checker's point of view and makes
//! destructive rewrites (erase, replace-all-uses) cheap and safe.

use crate::attr::{AttrMap, Attribute};
use crate::error::{IrError, IrResult};
use crate::ids::{BlockId, OpId, RegionId, ValueId};
use crate::intern::Symbol;
use crate::types::{Type, TypeId, TypeTable};
use crate::value_list::{IdList, ValueList};

/// Where an SSA value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// The `index`-th result of operation `op`.
    OpResult {
        /// Defining operation.
        op: OpId,
        /// Result position.
        index: u32,
    },
    /// The `index`-th argument of block `block`.
    BlockArg {
        /// Owning block.
        block: BlockId,
        /// Argument position.
        index: u32,
    },
}

/// Metadata for one SSA value: 16 bytes, copied as they are.
#[derive(Debug, Clone, Copy)]
pub struct ValueInfo {
    /// The value's type, uniqued in its module's table; read it as a
    /// [`Type`] through [`Module::value_type`].
    pub ty: TypeId,
    /// The value's definition site.
    pub def: ValueDef,
}

/// An operation: the unit of IR semantics.
///
/// `name` is the fully qualified `dialect.op` name. Structure (operands,
/// results, attributes, nested regions) is uniform across all dialects;
/// meaning is given by the dialect registry ([`crate::registry`]).
#[derive(Debug, Clone)]
pub struct Operation {
    /// Fully qualified interned name, e.g. `"arith.addf"`. A [`Symbol`]
    /// is `Copy` and compares by id, so hot paths (CSE keys, trait
    /// dispatch) never clone or hash the text.
    pub name: Symbol,
    /// SSA operands: up to four in place, more in one boxed slice.
    pub operands: ValueList,
    /// SSA results, stored as the operands are.
    pub results: ValueList,
    /// Named attributes, sorted by name for deterministic printing.
    pub attributes: AttrMap,
    /// Nested regions, up to four in place.
    pub regions: IdList<RegionId>,
    /// The block containing this op, if attached.
    pub parent_block: Option<BlockId>,
}

impl Operation {
    /// The dialect prefix of the op name (`"arith"` for `"arith.addf"`).
    pub fn dialect(&self) -> &'static str {
        let name = self.name.as_str();
        name.split('.').next().unwrap_or(name)
    }

    /// Looks up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&Attribute> {
        self.attributes.get(name)
    }

    /// Looks up an integer attribute by name.
    pub fn int_attr(&self, name: &str) -> Option<i64> {
        self.attr(name).and_then(Attribute::as_int)
    }

    /// Looks up a string attribute by name.
    pub fn str_attr(&self, name: &str) -> Option<&str> {
        self.attr(name).and_then(Attribute::as_str)
    }
}

/// A region: a list of blocks nested under an operation.
#[derive(Debug, Clone)]
pub struct Region {
    /// Blocks in order, up to four in place; the first is the entry
    /// block.
    pub blocks: IdList<BlockId>,
    /// The operation owning this region (`None` only for the top region).
    pub parent_op: Option<OpId>,
}

/// A basic block: arguments plus an ordered list of operations.
#[derive(Debug, Clone)]
pub struct Block {
    /// Block arguments: a loop body's one induction variable is held
    /// in place.
    pub args: ValueList,
    /// Operations in program order.
    pub ops: Vec<OpId>,
    /// The region owning this block.
    pub parent_region: RegionId,
}

/// A module: the root IR container holding all arenas.
///
/// A fresh module contains a single top-level region with one entry block,
/// mirroring MLIR's implicit `builtin.module` body.
///
/// # Examples
///
/// ```
/// use everest_ir::module::Module;
/// use everest_ir::types::Type;
/// use everest_ir::attr::Attribute;
///
/// let mut m = Module::new();
/// let block = m.top_block();
/// let c = m
///     .build_op("arith.constant", [], [Type::F64])
///     .attr("value", Attribute::Float(1.5))
///     .append_to(block);
/// assert_eq!(m.op(c).unwrap().name, "arith.constant");
/// ```
#[derive(Debug, Clone)]
pub struct Module {
    ops: Vec<Option<Operation>>,
    regions: Vec<Region>,
    blocks: Vec<Block>,
    values: Vec<ValueInfo>,
    types: TypeTable,
    top: RegionId,
    /// See [`Module::revision`].
    revision: u64,
}

impl Default for Module {
    fn default() -> Self {
        Self::new()
    }
}

impl Module {
    /// Creates an empty module with one top-level region and entry block.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty module whose arenas are pre-sized for roughly
    /// `ops` operations. Lowerings that know their output size up front
    /// (one op per AST node, one op per dataflow edge, ...) use this to
    /// avoid arena regrowth mid-build; the hint is just a reservation,
    /// never a limit.
    pub fn with_capacity(ops: usize) -> Self {
        let mut m = Module {
            ops: Vec::with_capacity(ops),
            regions: Vec::with_capacity(1 + ops / 8),
            blocks: Vec::with_capacity(1 + ops / 8),
            // One result per op is the common shape; block args are noise.
            values: Vec::with_capacity(ops),
            types: TypeTable::default(),
            top: RegionId::from_raw(0),
            revision: 0,
        };
        let top = m.alloc_region(None);
        m.top = top;
        m.add_block(top, &[]);
        m
    }

    /// The top-level region.
    pub fn top_region(&self) -> RegionId {
        self.top
    }

    /// The entry block of the top-level region.
    pub fn top_block(&self) -> BlockId {
        self.regions[self.top.index()].blocks[0]
    }

    /// A counter that moves whenever the module's contents may have:
    /// two reads that return the same number bracket a span in which
    /// nothing observable about the module changed, so a pure function
    /// of the module (the verifier, say) need not be re-run.
    /// [`PassManager::run`](crate::pass::PassManager::run) skips
    /// re-verification on exactly that basis.
    ///
    /// The arenas are private, so the mutators below are the only ways
    /// in, and each bumps the counter:
    /// [`op_mut`](Module::op_mut) (conservatively — handing out the
    /// `&mut` counts as a change), [`add_block`](Module::add_block),
    /// [`create_op`](Module::create_op) (and so
    /// [`build_op`](Module::build_op)), [`append_op`](Module::append_op),
    /// [`insert_op_before`](Module::insert_op_before) and through it
    /// [`move_op_before`](Module::move_op_before),
    /// [`erase_ops`](Module::erase_ops) / [`erase_op`](Module::erase_op)
    /// when the batch is non-empty, and
    /// [`replace_all_uses`](Module::replace_all_uses) /
    /// [`forward_uses`](Module::forward_uses) when an operand slot
    /// actually changed. Nothing else does; the converse does not hold
    /// (a bump does not prove a difference). A clone keeps the
    /// revision of its source. The number orders the states of one
    /// module; it says nothing about two modules built separately.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    // ---- arena accessors -------------------------------------------------

    /// Returns the operation for `id`, or `None` if it was erased.
    pub fn op(&self, id: OpId) -> Option<&Operation> {
        self.ops.get(id.index()).and_then(|o| o.as_ref())
    }

    /// Mutable access to an operation. Bumps [`Module::revision`] when
    /// the op is live, whether or not the caller then writes.
    pub fn op_mut(&mut self, id: OpId) -> Option<&mut Operation> {
        let operation = self.ops.get_mut(id.index()).and_then(|o| o.as_mut())?;
        self.revision += 1;
        Some(operation)
    }

    /// Returns the region for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Returns the block for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Returns the value info for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    pub fn value(&self, id: ValueId) -> &ValueInfo {
        &self.values[id.index()]
    }

    /// Returns the type of a value.
    pub fn value_type(&self, id: ValueId) -> &Type {
        self.types.get(self.values[id.index()].ty)
    }

    /// Returns the uniqued type id of a value: two values of one module
    /// have equal types exactly when their ids are equal.
    pub fn value_type_id(&self, id: ValueId) -> TypeId {
        self.values[id.index()].ty
    }

    /// The type `id` stands for in this module.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by another module's table.
    pub fn ty(&self, id: TypeId) -> &Type {
        self.types.get(id)
    }

    /// Uniques `ty` in this module's type table and returns its id: the
    /// id of an equal type already there, or the next one. An op built
    /// with the id through [`OpBuilder::result`] copies four bytes, not
    /// the type.
    pub fn intern_type(&mut self, ty: Type) -> TypeId {
        self.types.intern(ty)
    }

    /// Number of live (non-erased) operations in the module.
    pub fn num_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.is_some()).count()
    }

    /// Total number of operation slots ever allocated, erased ones
    /// included (slots are never reclaimed). Dense per-op analysis
    /// state can be indexed by `OpId::index()` up to this bound.
    pub fn num_op_slots(&self) -> usize {
        self.ops.len()
    }

    /// Iterates every live operation in the arena (attached or
    /// detached) with its id, in id order. This is the complete use
    /// universe: analyses that count operand uses over it (e.g. DCE's
    /// per-round use counts) see exactly what [`Module::is_unused`]
    /// sees, including detached ops a pass has built but not yet
    /// inserted.
    pub fn live_ops(&self) -> impl Iterator<Item = (OpId, &Operation)> {
        self.ops
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|op| (OpId::from_raw(i as u32), op)))
    }

    /// Total number of blocks ever allocated (blocks are never reclaimed).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of SSA values ever allocated (op results plus block
    /// arguments; values are never reclaimed). Dense per-value analysis
    /// state can be indexed by `ValueId::index()` up to this bound.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    // ---- construction ----------------------------------------------------

    fn alloc_region(&mut self, parent_op: Option<OpId>) -> RegionId {
        let id = RegionId::from_raw(self.regions.len() as u32);
        self.regions.push(Region {
            blocks: IdList::new(),
            parent_op,
        });
        id
    }

    /// Appends a new block with the given argument types to a region.
    pub fn add_block(&mut self, region: RegionId, arg_types: &[Type]) -> BlockId {
        self.revision += 1;
        let id = BlockId::from_raw(self.blocks.len() as u32);
        self.blocks.push(Block {
            args: ValueList::new(),
            ops: Vec::new(),
            parent_region: region,
        });
        self.regions[region.index()].blocks.push(id);
        for ty in arg_types {
            let ty = self.types.intern_ref(ty);
            self.push_block_arg_id(id, ty);
        }
        id
    }

    fn alloc_value(&mut self, ty: TypeId, def: ValueDef) -> ValueId {
        let id = ValueId::from_raw(self.values.len() as u32);
        self.values.push(ValueInfo { ty, def });
        id
    }

    /// Creates a detached operation. Prefer [`Module::build_op`].
    pub fn create_op(
        &mut self,
        name: impl Into<Symbol>,
        operands: impl Into<ValueList>,
        result_types: impl IntoIterator<Item = Type>,
        attributes: AttrMap,
        num_regions: usize,
    ) -> OpId {
        let op = OpId::from_raw(self.ops.len() as u32);
        let mut results = ValueList::new();
        for (index, ty) in (0..).zip(result_types) {
            let ty = self.types.intern(ty);
            results.push(self.alloc_value(ty, ValueDef::OpResult { op, index }));
        }
        self.push_op(
            name.into(),
            operands.into(),
            results,
            attributes,
            num_regions,
            None,
        )
    }

    /// Pushes an op whose results were allocated for the id it gets,
    /// the next slot's: the straight line every builder ends in. Its
    /// regions are allocated only when asked for, and the op is written
    /// once, into that slot, naming the block the caller appends it to.
    fn push_op(
        &mut self,
        name: Symbol,
        operands: ValueList,
        results: ValueList,
        attributes: AttrMap,
        num_regions: usize,
        parent_block: Option<BlockId>,
    ) -> OpId {
        self.revision += 1;
        let id = OpId::from_raw(self.ops.len() as u32);
        let regions = (0..num_regions)
            .map(|_| self.alloc_region(Some(id)))
            .collect();
        self.ops.push(Some(Operation {
            name,
            operands,
            results,
            attributes,
            regions,
            parent_block,
        }));
        id
    }

    /// Appends a new region to `op`. The parser creates an op from its
    /// name and operands, then adds its regions and results as it reads
    /// them.
    pub(crate) fn push_region(&mut self, op: OpId) -> RegionId {
        self.revision += 1;
        let region = self.alloc_region(Some(op));
        let operation = self.ops[op.index()].as_mut().expect("a live op");
        operation.regions.push(region);
        region
    }

    /// Appends a result of type `ty` to `op`.
    pub(crate) fn push_result(&mut self, op: OpId, ty: Type) -> ValueId {
        self.revision += 1;
        let ty = self.types.intern(ty);
        let results = &self.ops[op.index()].as_ref().expect("a live op").results;
        let def = ValueDef::OpResult {
            op,
            index: results.len() as u32,
        };
        let value = self.alloc_value(ty, def);
        let operation = self.ops[op.index()].as_mut().expect("a live op");
        operation.results.push(value);
        value
    }

    /// Appends an argument of type `ty` to `block`.
    pub(crate) fn push_block_arg(&mut self, block: BlockId, ty: Type) -> ValueId {
        let ty = self.types.intern(ty);
        self.push_block_arg_id(block, ty)
    }

    fn push_block_arg_id(&mut self, block: BlockId, ty: TypeId) -> ValueId {
        self.revision += 1;
        let index = self.blocks[block.index()].args.len() as u32;
        let def = ValueDef::BlockArg { block, index };
        let value = self.alloc_value(ty, def);
        self.blocks[block.index()].args.push(value);
        value
    }

    /// Starts a fluent op builder.
    pub fn build_op<O, T>(
        &mut self,
        name: impl Into<Symbol>,
        operands: O,
        result_types: T,
    ) -> OpBuilder<'_>
    where
        O: IntoIterator<Item = ValueId>,
        T: IntoIterator<Item = Type>,
    {
        let mut builder = OpBuilder {
            name: name.into(),
            operands: operands.into_iter().collect(),
            result_type: None,
            more_result_types: Vec::new(),
            attributes: AttrMap::new(),
            num_regions: 0,
            module: self,
        };
        for ty in result_types {
            let ty = builder.module.types.intern(ty);
            builder = builder.result(ty);
        }
        builder
    }

    /// Appends a detached op to the end of a block.
    ///
    /// # Panics
    ///
    /// Panics if the op was erased or is already attached.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        let operation = self.ops[op.index()]
            .as_mut()
            .expect("cannot append an erased op");
        assert!(
            operation.parent_block.is_none(),
            "op is already attached to a block"
        );
        operation.parent_block = Some(block);
        self.blocks[block.index()].ops.push(op);
        self.revision += 1;
    }

    /// Inserts a detached op before `before` inside the same block.
    ///
    /// # Panics
    ///
    /// Panics if `before` is detached or erased.
    pub fn insert_op_before(&mut self, before: OpId, op: OpId) {
        let block = self
            .op(before)
            .and_then(|o| o.parent_block)
            .expect("'before' op must be attached");
        let pos = self.blocks[block.index()]
            .ops
            .iter()
            .position(|&o| o == before)
            .expect("'before' op not found in its parent block");
        let operation = self.ops[op.index()]
            .as_mut()
            .expect("cannot insert an erased op");
        operation.parent_block = Some(block);
        self.blocks[block.index()].ops.insert(pos, op);
        self.revision += 1;
    }

    // ---- mutation ---------------------------------------------------------

    /// Detaches `op` from its current block and re-inserts it before
    /// `before` (which may live in a different block).
    ///
    /// # Panics
    ///
    /// Panics if either op is erased or `before` is detached.
    pub fn move_op_before(&mut self, op: OpId, before: OpId) {
        let current = self.op(op).expect("cannot move an erased op").parent_block;
        if let Some(block) = current {
            self.blocks[block.index()].ops.retain(|&o| o != op);
            self.ops[op.index()]
                .as_mut()
                .expect("just observed live")
                .parent_block = None;
        }
        self.insert_op_before(before, op);
    }

    /// Erases an operation (and recursively its regions) from the module.
    ///
    /// Costs one compaction of the op's block; a pass that erases many
    /// ops batches them through [`Module::erase_ops`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidId`] if the op was already erased.
    pub fn erase_op(&mut self, op: OpId) -> IrResult<()> {
        self.erase_ops(&[op])
    }

    /// Erases a batch of operations (and recursively their regions),
    /// compacting each block that held one of them once — linear in the
    /// batch plus the touched blocks, however many ops are erased. The
    /// ops must be distinct and not nested in one another.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidId`] for the first op that was already
    /// erased; the ops before it are erased and their blocks compacted.
    pub fn erase_ops(&mut self, ops: &[OpId]) -> IrResult<()> {
        let mut touched = Vec::new();
        let result = ops.iter().try_for_each(|&op| {
            touched.extend(self.free_op(op)?);
            Ok(())
        });
        self.revision += u64::from(!ops.is_empty());
        touched.sort_unstable();
        touched.dedup();
        for block in touched {
            let arena = &self.ops;
            self.blocks[block.index()]
                .ops
                .retain(|o| arena[o.index()].is_some());
        }
        result
    }

    /// Frees the arena slot of `op` and of every op nested under it, and
    /// returns the block `op` was attached to — whose op list still
    /// names it until the caller compacts it.
    fn free_op(&mut self, op: OpId) -> IrResult<Option<BlockId>> {
        let operation = self.ops[op.index()]
            .take()
            .ok_or_else(|| IrError::InvalidId(format!("op {op} already erased")))?;
        for region in operation.regions {
            for block in std::mem::take(&mut self.regions[region.index()].blocks) {
                for nested in std::mem::take(&mut self.blocks[block.index()].ops) {
                    self.free_op(nested)?;
                }
            }
        }
        Ok(operation.parent_block)
    }

    /// Replaces every use of `from` with `to` across the whole module.
    ///
    /// Returns the number of operand slots rewritten. One scan of every
    /// live op per call: a pass that merges many values records them in
    /// a forwarding table and calls [`Module::forward_uses`] once; this
    /// per-value form is the naive reference its tests compare against.
    pub fn replace_all_uses(&mut self, from: ValueId, to: ValueId) -> usize {
        let mut count = 0;
        for slot in self.ops.iter_mut().flatten() {
            for operand in &mut slot.operands {
                if *operand == from {
                    *operand = to;
                    count += 1;
                }
            }
        }
        self.revision += u64::from(count > 0 && from != to);
        count
    }

    /// Rewrites every operand `v` of every live op (attached or not) to
    /// `forward[v.index()]` in one sweep. `forward` is a dense table over
    /// the module's values in which unmerged values map to themselves;
    /// values beyond its end are left alone.
    pub fn forward_uses(&mut self, forward: &[ValueId]) {
        let mut changed = false;
        for operation in self.ops.iter_mut().flatten() {
            for operand in &mut operation.operands {
                let to = forward.get(operand.index()).copied().unwrap_or(*operand);
                changed |= to != *operand;
                *operand = to;
            }
        }
        self.revision += u64::from(changed);
    }

    /// Returns `true` if the value has no uses. Scans every live op, so
    /// per-value loops keep a dense use count instead (as DCE does).
    pub fn is_unused(&self, value: ValueId) -> bool {
        self.ops
            .iter()
            .flatten()
            .all(|op| op.operands.iter().all(|&operand| operand != value))
    }

    // ---- traversal ---------------------------------------------------------

    /// Walks all live ops in the module in pre-order (region nesting order).
    pub fn walk_ops(&self) -> Vec<OpId> {
        // Every attached op has a slot, so the walk never regrows.
        let mut out = Vec::with_capacity(self.ops.len());
        self.walk_region(self.top, &mut out);
        out
    }

    /// Walks all live ops nested under (and excluding) the given op.
    pub fn walk_nested(&self, op: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        if let Some(operation) = self.op(op) {
            for &region in &operation.regions {
                self.walk_region(region, &mut out);
            }
        }
        out
    }

    fn walk_region(&self, region: RegionId, out: &mut Vec<OpId>) {
        for &block in &self.regions[region.index()].blocks {
            for &op in &self.blocks[block.index()].ops {
                out.push(op);
                if let Some(operation) = self.op(op) {
                    for &nested in &operation.regions {
                        self.walk_region(nested, out);
                    }
                }
            }
        }
    }

    /// The first op in pre-order (the order of [`Module::walk_ops`]) that
    /// `pred` accepts; stops there and allocates nothing.
    fn find_in_region(
        &self,
        region: RegionId,
        pred: &mut impl FnMut(&Operation) -> bool,
    ) -> Option<OpId> {
        for &block in &self.regions[region.index()].blocks {
            for &op in &self.blocks[block.index()].ops {
                let Some(operation) = self.op(op) else {
                    continue;
                };
                if pred(operation) {
                    return Some(op);
                }
                for &nested in &operation.regions {
                    if let Some(found) = self.find_in_region(nested, pred) {
                        return Some(found);
                    }
                }
            }
        }
        None
    }

    /// Finds the first op (in pre-order) with the given fully qualified
    /// name.
    pub fn find_op(&self, name: &str) -> Option<OpId> {
        self.find_in_region(self.top, &mut |o| o.name == name)
    }

    /// Finds a symbol-defining op (one with a `sym_name` attribute equal to
    /// `symbol`), e.g. a `func.func`. When several ops define the same
    /// symbol the first in pre-order wins.
    pub fn lookup_symbol(&self, symbol: &str) -> Option<OpId> {
        self.find_in_region(self.top, &mut |o| o.str_attr("sym_name") == Some(symbol))
    }
}

/// Fluent builder returned by [`Module::build_op`].
///
/// Terminal methods: [`OpBuilder::append_to`] (attach to a block) and
/// [`OpBuilder::detached`] (leave unattached).
#[derive(Debug)]
pub struct OpBuilder<'m> {
    module: &'m mut Module,
    name: Symbol,
    operands: ValueList,
    /// The first result type, held in place: nearly every op has at
    /// most one, so `more_result_types` stays empty and unallocated.
    result_type: Option<TypeId>,
    more_result_types: Vec<TypeId>,
    attributes: AttrMap,
    num_regions: usize,
}

impl<'m> OpBuilder<'m> {
    /// Adds a result of a type already uniqued in the module (see
    /// [`Module::intern_type`]), after those `build_op` was given.
    pub fn result(mut self, ty: TypeId) -> Self {
        if self.result_type.is_none() {
            self.result_type = Some(ty);
        } else {
            self.more_result_types.push(ty);
        }
        self
    }

    /// Adds an attribute.
    pub fn attr(mut self, name: impl Into<Symbol>, value: impl Into<Attribute>) -> Self {
        self.attributes.insert(name, value.into());
        self
    }

    /// Requests `n` empty nested regions.
    pub fn regions(mut self, n: usize) -> Self {
        self.num_regions = n;
        self
    }

    /// Builds the op and appends it to `block`; returns the op id.
    pub fn append_to(self, block: BlockId) -> OpId {
        let (module, id) = self.create(Some(block));
        module.blocks[block.index()].ops.push(id);
        id
    }

    /// Builds the op detached from any block; returns the op id.
    pub fn detached(self) -> OpId {
        self.create(None).1
    }

    fn create(self, parent_block: Option<BlockId>) -> (&'m mut Module, OpId) {
        let module = self.module;
        let op = OpId::from_raw(module.ops.len() as u32);
        let mut results = ValueList::new();
        let types = self.result_type.into_iter().chain(self.more_result_types);
        for (index, ty) in (0..).zip(types) {
            results.push(module.alloc_value(ty, ValueDef::OpResult { op, index }));
        }
        let id = module.push_op(
            self.name,
            self.operands,
            results,
            self.attributes,
            self.num_regions,
            parent_block,
        );
        (module, id)
    }
}

/// Convenience: returns the single result of an op.
///
/// # Panics
///
/// Panics if the op is erased or does not have exactly one result.
pub fn single_result(module: &Module, op: OpId) -> ValueId {
    let operation = module.op(op).expect("op erased");
    assert_eq!(
        operation.results.len(),
        1,
        "op {} must have exactly one result",
        operation.name
    );
    operation.results[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant(m: &mut Module, v: f64) -> OpId {
        let block = m.top_block();
        m.build_op("arith.constant", [], [Type::F64])
            .attr("value", Attribute::Float(v))
            .append_to(block)
    }

    /// Cloning and dropping a module is per-op memory traffic; these are
    /// the sizes the measured costs in docs/PERFORMANCE.md go with: an
    /// op holds an 8-byte name and its one attribute in place, a value
    /// a type id.
    #[test]
    fn arena_entries_keep_their_sizes() {
        assert_eq!(std::mem::size_of::<Operation>(), 128);
        assert_eq!(std::mem::size_of::<ValueList>(), 24);
        assert_eq!(std::mem::size_of::<AttrMap>(), 40);
        assert_eq!(std::mem::size_of::<ValueInfo>(), 16);
        assert_eq!(std::mem::size_of::<ValueDef>(), 12);
        assert_eq!(std::mem::size_of::<TypeId>(), 4);
        assert_eq!(std::mem::size_of::<Type>(), 48);
    }

    #[test]
    fn build_and_query_simple_op() {
        let mut m = Module::new();
        let c = constant(&mut m, 4.0);
        let op = m.op(c).unwrap();
        assert_eq!(op.dialect(), "arith");
        assert_eq!(op.name.as_str(), "arith.constant");
        assert_eq!(op.results.len(), 1);
        let v = op.results[0];
        assert_eq!(m.value_type(v), &Type::F64);
        assert_eq!(m.value(v).def, ValueDef::OpResult { op: c, index: 0 });
    }

    #[test]
    fn def_use_chain() {
        let mut m = Module::new();
        let block = m.top_block();
        let a = constant(&mut m, 1.0);
        let b = constant(&mut m, 2.0);
        let va = single_result(&m, a);
        let vb = single_result(&m, b);
        let add = m
            .build_op("arith.addf", [va, vb], [Type::F64])
            .append_to(block);
        assert_eq!(m.op(add).unwrap().operands, vec![va, vb]);
        assert!(!m.is_unused(va));
        assert!(!m.is_unused(vb));
        assert!(m.is_unused(single_result(&m, add)));
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let mut m = Module::new();
        let block = m.top_block();
        let a = constant(&mut m, 1.0);
        let b = constant(&mut m, 2.0);
        let va = single_result(&m, a);
        let vb = single_result(&m, b);
        let add = m
            .build_op("arith.addf", [va, va], [Type::F64])
            .append_to(block);
        let n = m.replace_all_uses(va, vb);
        assert_eq!(n, 2);
        assert_eq!(m.op(add).unwrap().operands, vec![vb, vb]);
        assert!(m.is_unused(va));
    }

    #[test]
    fn erase_removes_from_block_and_arena() {
        let mut m = Module::new();
        let c = constant(&mut m, 1.0);
        assert_eq!(m.num_ops(), 1);
        m.erase_op(c).unwrap();
        assert_eq!(m.num_ops(), 0);
        assert!(m.op(c).is_none());
        assert!(m.block(m.top_block()).ops.is_empty());
        assert!(m.erase_op(c).is_err());
    }

    #[test]
    fn erase_ops_compacts_each_touched_block_once() {
        let mut m = Module::new();
        let top = m.top_block();
        let outer = m.build_op("scf.for", [], []).regions(1).append_to(top);
        let region = m.op(outer).unwrap().regions[0];
        let body = m.add_block(region, &[]);
        let a = constant(&mut m, 1.0);
        let b = constant(&mut m, 2.0);
        let c = constant(&mut m, 3.0);
        let inner: Vec<OpId> = (0..3)
            .map(|_| {
                m.build_op("arith.constant", [], [Type::F64])
                    .attr("value", Attribute::Float(0.0))
                    .append_to(body)
            })
            .collect();
        m.erase_ops(&[a, inner[1], c, inner[0]]).unwrap();
        assert_eq!(m.block(top).ops, vec![outer, b]);
        assert_eq!(m.block(body).ops, vec![inner[2]]);
        // A stale id fails the batch, but what was erased before it is
        // still compacted out of its block.
        assert!(m.erase_ops(&[b, a]).is_err());
        assert_eq!(m.block(top).ops, vec![outer]);
    }

    #[test]
    fn forward_uses_matches_per_value_replacement() {
        let mut m = Module::new();
        let block = m.top_block();
        let [va, vb, vc] = [1.0, 2.0, 3.0].map(|v| {
            let op = constant(&mut m, v);
            single_result(&m, op)
        });
        let attached = m
            .build_op("arith.addf", [va, vc], [Type::F64])
            .append_to(block);
        let detached = m.build_op("arith.negf", [vc], [Type::F64]).detached();
        let mut naive = m.clone();
        naive.replace_all_uses(vc, vb);
        // A table shorter than the value arena leaves the rest alone.
        m.forward_uses(&[va, vb, vb]);
        for op in [attached, detached] {
            assert_eq!(m.op(op).unwrap().operands, naive.op(op).unwrap().operands);
        }
        assert!(m.is_unused(vc));
    }

    #[test]
    fn erase_op_with_region_erases_nested_ops() {
        let mut m = Module::new();
        let block = m.top_block();
        let outer = m.build_op("scf.for", [], []).regions(1).append_to(block);
        let region = m.op(outer).unwrap().regions[0];
        let body = m.add_block(region, &[Type::Index]);
        let inner = m
            .build_op("arith.constant", [], [Type::F64])
            .attr("value", Attribute::Float(0.0))
            .append_to(body);
        assert_eq!(m.num_ops(), 2);
        m.erase_op(outer).unwrap();
        assert_eq!(m.num_ops(), 0);
        assert!(m.op(inner).is_none());
    }

    #[test]
    fn walk_visits_nested_ops_preorder() {
        let mut m = Module::new();
        let block = m.top_block();
        let outer = m.build_op("scf.for", [], []).regions(1).append_to(block);
        let region = m.op(outer).unwrap().regions[0];
        let body = m.add_block(region, &[]);
        let inner = m.build_op("scf.yield", [], []).append_to(body);
        let after = constant(&mut m, 2.0);
        assert_eq!(m.walk_ops(), vec![outer, inner, after]);
        assert_eq!(m.walk_nested(outer), vec![inner]);
    }

    #[test]
    fn block_arguments_have_defs() {
        let mut m = Module::new();
        let top = m.top_region();
        let bb = m.add_block(top, &[Type::F64, Type::Index]);
        let args = m.block(bb).args.clone();
        assert_eq!(args.len(), 2);
        assert_eq!(
            m.value(args[1]).def,
            ValueDef::BlockArg {
                block: bb,
                index: 1
            }
        );
        assert_eq!(m.value_type(args[0]), &Type::F64);
    }

    #[test]
    fn insert_before_preserves_order() {
        let mut m = Module::new();
        let a = constant(&mut m, 1.0);
        let b = constant(&mut m, 2.0);
        let c = m
            .build_op("arith.constant", [], [Type::F64])
            .attr("value", Attribute::Float(3.0))
            .detached();
        m.insert_op_before(b, c);
        assert_eq!(m.block(m.top_block()).ops, vec![a, c, b]);
    }

    #[test]
    fn lookup_symbol_finds_functions() {
        let mut m = Module::new();
        let block = m.top_block();
        let f = m
            .build_op("func.func", [], [])
            .attr("sym_name", "rrtmg")
            .regions(1)
            .append_to(block);
        assert_eq!(m.lookup_symbol("rrtmg"), Some(f));
        assert_eq!(m.lookup_symbol("missing"), None);
    }

    #[test]
    fn lookups_return_the_first_match_in_preorder() {
        let mut m = Module::new();
        let top = m.top_block();
        let func = |m: &mut Module, block, name: &str| {
            m.build_op("func.func", [], [])
                .attr("sym_name", name)
                .regions(1)
                .append_to(block)
        };
        let outer = func(&mut m, top, "outer");
        let region = m.op(outer).unwrap().regions[0];
        let body = m.add_block(region, &[]);
        // Nested under `outer`, so ahead of the top-level twin in
        // pre-order although it was built (and numbered) after it.
        let twin_at_top = func(&mut m, top, "twin");
        let twin_nested = func(&mut m, body, "twin");
        let constant = constant(&mut m, 1.0);
        assert!(twin_at_top < twin_nested);
        assert_eq!(m.lookup_symbol("twin"), Some(twin_nested));
        assert_eq!(m.find_op("func.func"), Some(outer));
        assert_eq!(m.find_op("arith.constant"), Some(constant));
        for name in ["outer", "twin", "missing"] {
            let by_walk = m
                .walk_ops()
                .into_iter()
                .find(|&id| m.op(id).unwrap().str_attr("sym_name") == Some(name));
            assert_eq!(m.lookup_symbol(name), by_walk, "{name}");
        }
        m.erase_op(outer).unwrap();
        assert_eq!(m.lookup_symbol("twin"), Some(twin_at_top));
    }
}

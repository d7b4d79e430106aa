//! The pass manager and built-in canonicalization passes.
//!
//! Passes transform a [`Module`] in place. The [`PassManager`] runs a
//! pipeline, verifying between passes (as the EVEREST flow does between
//! dialect lowerings), and records per-pass statistics.

use std::hash::Hasher;

use crate::attr::Attribute;
use crate::constraint::Effect;
use crate::error::{IrError, IrResult};
use crate::ids::{BlockId, OpId, ValueId};
use crate::intern::Symbol;
use crate::module::{Module, Operation};
use crate::registry::{Context, OpTrait};

/// The buffer `op` reads: the value at its first declared `Read` port.
fn read_buffer(ctx: &Context, op: &Operation) -> Option<ValueId> {
    let mut reads = ctx
        .effects(op.name)
        .iter()
        .filter(|e| matches!(e, Effect::Read(_)));
    reads.next()?.port().values(op).next()
}

/// Statistics reported by one pass execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Number of operations erased.
    pub ops_erased: usize,
    /// Number of operations rewritten or folded.
    pub ops_rewritten: usize,
}

/// A module transformation.
///
/// Passes take `&self` and are stored as `Send + Sync` trait objects so
/// one [`PassManager`] can drive several worker threads at once (see
/// [`PassManager::run_batch_threaded`]). A pass that accumulates state
/// across runs must therefore use interior mutability that is safe to
/// share (`Mutex`, atomics), not `RefCell`.
pub trait Pass {
    /// Unique pass name used in diagnostics and pipelines.
    fn name(&self) -> &str;

    /// Runs the pass.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Pass`] when the transformation cannot be applied.
    fn run(&self, ctx: &Context, module: &mut Module) -> IrResult<PassStats>;
}

/// Runs a pipeline of passes with inter-pass verification.
pub struct PassManager {
    passes: Vec<Box<dyn Pass + Send + Sync>>,
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field(
                "passes",
                &self
                    .passes
                    .iter()
                    .map(|p| p.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Default for PassManager {
    fn default() -> Self {
        Self::new()
    }
}

impl PassManager {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// Appends a pass to the pipeline.
    pub fn add(&mut self, pass: Box<dyn Pass + Send + Sync>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Runs the full pipeline and returns per-pass statistics in order.
    ///
    /// The module is verified before the first pass and again after
    /// every pass that touched it, which is read off
    /// [`Module::revision`]: the verifier is a pure function of `(ctx,
    /// module)`, so while the revision stands at the value it had at the
    /// last verification the answer is already known and the run is
    /// skipped. The test is the module's own record, not the
    /// pass's [`PassStats`] claim — a pass that mutates and reports
    /// nothing is still re-verified, and the error names it.
    ///
    /// # Errors
    ///
    /// Stops at the first failing pass or verification error.
    pub fn run(&self, ctx: &Context, module: &mut Module) -> IrResult<Vec<(String, PassStats)>> {
        let pipeline = everest_telemetry::span("ir.pipeline");
        pipeline.arg("passes", self.passes.len());
        crate::verify::verify_module(ctx, module)?;
        let mut verified_at = module.revision();
        let mut all = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let span = everest_telemetry::span(format!("ir.pass.{}", pass.name()));
            let stats = pass.run(ctx, module)?;
            span.arg("erased", stats.ops_erased)
                .arg("rewritten", stats.ops_rewritten);
            if module.revision() != verified_at {
                crate::verify::verify_module(ctx, module).map_err(|e| IrError::Pass {
                    pass: pass.name().to_string(),
                    message: format!("verification failed after pass: {e}"),
                })?;
                verified_at = module.revision();
            }
            all.push((pass.name().to_string(), stats));
        }
        Ok(all)
    }

    /// Runs the full pipeline over each module independently, returning
    /// per-module statistics in input order.
    ///
    /// Equivalent to calling [`PassManager::run`] on every module (each
    /// is verified when it changed, on its own revision); the threaded
    /// variant [`PassManager::run_batch_threaded`] produces
    /// byte-identical modules and identical statistics.
    ///
    /// # Errors
    ///
    /// Returns the error of the failing module with the lowest index.
    /// Modules after a failing one may or may not have been transformed.
    pub fn run_batch(
        &self,
        ctx: &Context,
        modules: &mut [Module],
    ) -> IrResult<Vec<Vec<(String, PassStats)>>> {
        modules.iter_mut().map(|m| self.run(ctx, m)).collect()
    }

    /// Runs the full pipeline over each module on up to `threads`
    /// worker threads.
    ///
    /// Modules are independent, so the batch splits into contiguous
    /// chunks — one per worker — and results are joined back in input
    /// order. The output is deterministic regardless of thread count:
    /// each module sees exactly the pass sequence [`PassManager::run`]
    /// would apply, and the per-module results are reassembled by
    /// index, never by completion order. `threads <= 1` (or a
    /// single-module batch) degenerates to [`PassManager::run_batch`]
    /// with no threads spawned.
    ///
    /// ```
    /// use everest_ir::pass::canonicalization_pipeline;
    /// use everest_ir::registry::Context;
    /// use everest_ir::Module;
    ///
    /// let ctx = Context::with_all_dialects();
    /// let pm = canonicalization_pipeline();
    /// let mut batch = vec![Module::new(), Module::new(), Module::new()];
    /// let stats = pm.run_batch_threaded(&ctx, &mut batch, 2).unwrap();
    /// assert_eq!(stats.len(), 3);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the error of the failing module with the lowest index,
    /// matching the sequential variant. Workers finish their chunks
    /// even when another chunk fails.
    ///
    /// # Panics
    ///
    /// Propagates panics from pass implementations.
    pub fn run_batch_threaded(
        &self,
        ctx: &Context,
        modules: &mut [Module],
        threads: usize,
    ) -> IrResult<Vec<Vec<(String, PassStats)>>> {
        let threads = threads.clamp(1, modules.len().max(1));
        if threads <= 1 {
            return self.run_batch(ctx, modules);
        }
        let chunk_len = modules.len().div_ceil(threads);
        let mut results: Vec<IrResult<Vec<(String, PassStats)>>> =
            Vec::with_capacity(modules.len());
        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(threads);
            for chunk in modules.chunks_mut(chunk_len) {
                workers.push(scope.spawn(move || {
                    chunk
                        .iter_mut()
                        .map(|m| self.run(ctx, m))
                        .collect::<Vec<_>>()
                }));
            }
            // Chunks are contiguous and workers joined in spawn order,
            // so this concatenation restores input order exactly.
            for worker in workers {
                results.extend(worker.join().expect("pass worker panicked"));
            }
        });
        results.into_iter().collect()
    }
}

/// Builds the standard canonicalization pipeline: constant folding, CSE,
/// then dead-code elimination, iterated twice so folds expose dead code.
pub fn canonicalization_pipeline() -> PassManager {
    let mut pm = PassManager::new();
    pm.add(Box::new(ConstantFolding));
    pm.add(Box::new(Cse));
    pm.add(Box::new(Dce));
    pm.add(Box::new(ConstantFolding));
    pm.add(Box::new(Cse));
    pm.add(Box::new(Dce));
    pm
}

// ---------------------------------------------------------------------------
// DCE
// ---------------------------------------------------------------------------

/// Dead-code elimination: erases read-only ops
/// ([`Context::reads_only`]) with no used results.
///
/// Iterates to a fixed point so chains of dead ops disappear in one run.
/// Each round is linear in module size: one dense use-count vector
/// indexed by `ValueId` (one pass over the live ops), decremented as
/// ops die, and one [`Module::erase_ops`] batch at the end of the round
/// that compacts every touched block once.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &str {
        "dce"
    }

    fn run(&self, ctx: &Context, module: &mut Module) -> IrResult<PassStats> {
        let mut stats = PassStats::default();
        loop {
            // Use counts over every live op (attached or detached), so
            // the check agrees exactly with `Module::is_unused`.
            let mut use_counts = vec![0u32; module.num_values()];
            for (_, operation) in module.live_ops() {
                for &operand in &operation.operands {
                    use_counts[operand.index()] += 1;
                }
            }
            let mut dead = Vec::new();
            for op in module.walk_ops().into_iter().rev() {
                let Some(operation) = module.op(op) else {
                    continue;
                };
                if !ctx.reads_only(operation.name) || !operation.regions.is_empty() {
                    continue;
                }
                if operation.results.iter().all(|r| use_counts[r.index()] == 0) {
                    for &operand in &operation.operands {
                        use_counts[operand.index()] -= 1;
                    }
                    dead.push(op);
                }
            }
            if dead.is_empty() {
                break;
            }
            module.erase_ops(&dead)?;
            stats.ops_erased += dead.len();
        }
        Ok(stats)
    }
}

// ---------------------------------------------------------------------------
// CSE
// ---------------------------------------------------------------------------

/// Common-subexpression elimination over read-only ops
/// ([`Context::reads_only`]) within each block.
///
/// Two read-only ops are equivalent when they share name, operands,
/// attributes and result types — attributes by
/// `Attribute::structural_eq`, so `0.0` and `-0.0`, or `Int(1)` and
/// `Float(1.0)`, never merge, and neither do `{value = 1} : f64` and
/// `{value = 1} : index`. Commutative ops compare on sorted operands.
///
/// A read-only op may still read memory (`memref.load` does): every
/// other op that may write its buffer ([`Context::may_write`]) ends the
/// kept reads of that buffer, so a load after a store reads what was
/// stored.
///
/// The scan never mutates the module. A merge records
/// `forward[duplicate result] = kept result` in a dense table, and
/// every op reads its operands *through* that table, so what is
/// compared equals what rewriting the uses on the spot would have
/// produced — also for blocks visited later. One
/// [`Module::forward_uses`] sweep and one [`Module::erase_ops`] batch
/// then apply all merges, which keeps the pass linear in module size
/// however many duplicates it finds.
///
/// No key is built per op: an op is hashed where it sits (name id,
/// forwarded operands, attribute names and payloads) and, on a hash
/// hit, compared in place with the op already kept, result types
/// included. The kept ops of the current block are chained per bucket
/// through one table that is reused from block to block, so a run
/// allocates a handful of vectors however many ops it visits.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cse;

/// A multiply-rotate hasher for [`CseTable`]. A collision costs a
/// longer chain walk and an in-place compare, never a wrong merge.
#[derive(Default)]
struct OpHasher(u64);

impl Hasher for OpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.write_u64(byte as u64);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word as u64);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The ops one block has kept so far, findable by what CSE compares.
struct CseTable {
    /// The entries that read memory and are still live, each with the
    /// buffer it reads.
    loads: Vec<(u32, ValueId)>,
    /// First entry of each bucket's chain, [`CseTable::END`] when empty;
    /// a power of two long, indexed by the hash's top bits.
    heads: Vec<u32>,
    entries: Vec<CseEntry>,
    /// Every entry's forwarded (sorted, when commutative) operands back
    /// to back, as they read when the entry was made. The op being
    /// looked up writes its own at the tail, which is kept on a miss
    /// and cut off again on a hit.
    operands: Vec<ValueId>,
}

struct CseEntry {
    hash: u64,
    op: OpId,
    /// Where this entry's operands start in [`CseTable::operands`].
    operands_at: usize,
    /// Next entry of the same bucket.
    next: u32,
    /// `false` once a write to its buffer made a kept load unusable.
    live: bool,
}

impl CseTable {
    const END: u32 = u32::MAX;

    /// A table with room for a block of `ops` operations, most of them
    /// binary at most, so that no block of the run regrows it.
    fn with_room_for(ops: usize) -> Self {
        CseTable {
            loads: Vec::new(),
            heads: Vec::with_capacity(Self::buckets(ops)),
            entries: Vec::with_capacity(ops),
            operands: Vec::with_capacity(2 * ops),
        }
    }

    fn buckets(ops: usize) -> usize {
        (2 * ops).next_power_of_two().max(2)
    }

    /// Empties the table and sizes it for a block of `ops` operations.
    fn reset(&mut self, ops: usize) {
        self.heads.clear();
        self.heads.resize(Self::buckets(ops), Self::END);
        self.entries.clear();
        self.operands.clear();
        self.loads.clear();
    }

    /// Forgets the kept loads `op` may have written.
    fn forget_loads(&mut self, ctx: &Context, op: &Operation) {
        let entries = &mut self.entries;
        self.loads.retain(|&(at, buffer)| {
            let entry = &mut entries[at as usize];
            entry.live = !ctx.may_write(op, buffer);
            entry.live
        });
    }

    /// The op kept earlier in this block that `operation` duplicates;
    /// when there is none, `op` is kept and `None` returned.
    fn kept_or_keep<'m>(
        &mut self,
        (ctx, module): (&Context, &'m Module),
        (op, operation): (OpId, &Operation),
        forward: &[ValueId],
    ) -> Option<&'m Operation> {
        let operands_at = self.operands.len();
        self.operands.extend(
            operation
                .operands
                .iter()
                .map(|&v| forward.get(v.index()).copied().unwrap_or(v)),
        );
        if ctx.has_trait(operation.name, OpTrait::Commutative) {
            self.operands[operands_at..].sort_unstable();
        }
        let mut hasher = OpHasher::default();
        hasher.write_usize(operation.name.index());
        for operand in &self.operands[operands_at..] {
            hasher.write_usize(operand.index());
        }
        operation.attributes.structural_hash(&mut hasher);
        let hash = hasher.finish();

        let bucket = (hash >> (64 - self.heads.len().trailing_zeros())) as usize;
        let mut at = self.heads[bucket];
        while at != Self::END {
            let entry = &self.entries[at as usize];
            at = entry.next;
            if entry.hash != hash || !entry.live {
                continue;
            }
            let kept = module.op(entry.op).expect("kept ops are live");
            let arity = operation.operands.len();
            if kept.name == operation.name
                && kept.operands.len() == arity
                && self.operands[entry.operands_at..][..arity] == self.operands[operands_at..]
                && kept.attributes.structural_eq(&operation.attributes)
                && kept.results.len() == operation.results.len()
                && (kept.results.iter().zip(&operation.results))
                    .all(|(&a, &b)| module.value_type_id(a) == module.value_type_id(b))
            {
                self.operands.truncate(operands_at);
                return Some(kept);
            }
        }
        self.entries.push(CseEntry {
            hash,
            op,
            operands_at,
            next: self.heads[bucket],
            live: true,
        });
        self.heads[bucket] = (self.entries.len() - 1) as u32;
        if let Some(buffer) = read_buffer(ctx, operation) {
            self.loads.push((self.heads[bucket], buffer));
        }
        None
    }
}

impl Pass for Cse {
    fn name(&self) -> &str {
        "cse"
    }

    fn run(&self, ctx: &Context, module: &mut Module) -> IrResult<PassStats> {
        let mut forward: Vec<ValueId> = (0..module.num_values() as u32)
            .map(ValueId::from_raw)
            .collect();
        let mut duplicates = Vec::new();
        // Process each block independently (no cross-block CSE: that would
        // require dominance analysis beyond single blocks): one table,
        // sized for the largest block and emptied per block, so its
        // vectors are allocated once a run.
        let blocks = (0..module.num_blocks() as u32).map(BlockId::from_raw);
        let largest = blocks.clone().map(|b| module.block(b).ops.len()).max();
        let mut table = CseTable::with_room_for(largest.unwrap_or(0));
        for block in blocks {
            let ops = &module.block(block).ops;
            table.reset(ops.len());
            for &op in ops {
                let Some(operation) = module.op(op) else {
                    continue;
                };
                if !ctx.reads_only(operation.name) || !operation.regions.is_empty() {
                    table.forget_loads(ctx, operation);
                    continue;
                }
                if let Some(kept) = table.kept_or_keep((ctx, module), (op, operation), &forward) {
                    for (from, to) in operation.results.iter().zip(&kept.results) {
                        forward[from.index()] = *to;
                    }
                    duplicates.push(op);
                }
            }
        }
        module.forward_uses(&forward);
        module.erase_ops(&duplicates)?;
        Ok(PassStats {
            ops_erased: duplicates.len(),
            ops_rewritten: 0,
        })
    }
}

// ---------------------------------------------------------------------------
// Loop-invariant code motion
// ---------------------------------------------------------------------------

/// Hoists read-only, region-free operations ([`Context::reads_only`])
/// out of `scf.for` bodies when all their operands are defined outside
/// the loop. One that reads a buffer stays when an op in the loop may
/// write it ([`Context::may_write`]): it reads what the iterations
/// before it stored.
///
/// The EKL lowering materializes constants and loop-invariant index
/// arithmetic inside loop bodies; hoisting them shortens the body
/// schedule the HLS engine pipelines — a classic HLS pre-pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopInvariantCodeMotion;

impl Pass for LoopInvariantCodeMotion {
    fn name(&self) -> &str {
        "licm"
    }

    fn run(&self, ctx: &Context, module: &mut Module) -> IrResult<PassStats> {
        let mut stats = PassStats::default();
        loop {
            let mut changed = false;
            for loop_op in module.walk_ops() {
                let Some(operation) = module.op(loop_op) else {
                    continue;
                };
                if operation.name != "scf.for" {
                    continue;
                }
                // Values defined inside the loop (results + block args of
                // every nested block).
                let nested = module.walk_nested(loop_op);
                let mut inside: std::collections::HashSet<ValueId> =
                    std::collections::HashSet::new();
                for &op in &nested {
                    if let Some(o) = module.op(op) {
                        inside.extend(o.results.iter().copied());
                    }
                }
                let region = module.op(loop_op).expect("live").regions[0];
                for &block in &module.region(region).blocks.clone() {
                    inside.extend(module.block(block).args.iter().copied());
                }
                // Hoist from the direct body block only (inner loops are
                // handled when the walk reaches them).
                let body = module.region(region).blocks[0];
                let body_ops = module.block(body).ops.clone();
                let writers: Vec<&Operation> =
                    nested.iter().filter_map(|&op| module.op(op)).collect();
                let clobbered_load = |o: &Operation| {
                    read_buffer(ctx, o).is_some_and(|b| writers.iter().any(|w| ctx.may_write(w, b)))
                };
                let pinned: Vec<OpId> = (body_ops.iter().copied())
                    .filter(|&op| module.op(op).is_some_and(clobbered_load))
                    .collect();
                for &op in &body_ops {
                    let Some(o) = module.op(op) else { continue };
                    // Terminators declare effects, so this skips them by
                    // kind, not by position.
                    if !ctx.reads_only(o.name) || !o.regions.is_empty() {
                        continue;
                    }
                    if pinned.contains(&op) || o.operands.iter().any(|v| inside.contains(v)) {
                        continue;
                    }
                    // Results leave the "inside" set: they are now defined
                    // before the loop.
                    for r in o.results.clone() {
                        inside.remove(&r);
                    }
                    module.move_op_before(op, loop_op);
                    stats.ops_rewritten += 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Ok(stats)
    }
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Folds `arith` binary/unary float ops whose operands are constants.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstantFolding;

impl ConstantFolding {
    fn fold_binary(name: &str, a: f64, b: f64) -> Option<f64> {
        Some(match name {
            "arith.addf" => a + b,
            "arith.subf" => a - b,
            "arith.mulf" => a * b,
            "arith.divf" => {
                if b == 0.0 {
                    return None;
                }
                a / b
            }
            "arith.maxf" => a.max(b),
            "arith.minf" => a.min(b),
            _ => return None,
        })
    }

    fn fold_unary(name: &str, a: f64) -> Option<f64> {
        Some(match name {
            "arith.negf" => -a,
            "arith.absf" => a.abs(),
            "arith.sqrt" => {
                if a < 0.0 {
                    return None;
                }
                a.sqrt()
            }
            "arith.exp" => a.exp(),
            "arith.log" => {
                if a <= 0.0 {
                    return None;
                }
                a.ln()
            }
            _ => return None,
        })
    }
}

impl Pass for ConstantFolding {
    fn name(&self) -> &str {
        "constant-folding"
    }

    fn run(&self, _ctx: &Context, module: &mut Module) -> IrResult<PassStats> {
        let mut stats = PassStats::default();
        let constant = Symbol::new("arith.constant");
        loop {
            let mut changed = false;
            for op in module.walk_ops() {
                let Some(operation) = module.op(op) else {
                    continue;
                };
                let name = operation.name;
                let float = |v: ValueId| module.constant(v).and_then(Attribute::as_float);
                let folded = match *operation.operands.as_slice() {
                    [a, b] => {
                        (float(a).zip(float(b))).and_then(|(a, b)| Self::fold_binary(&name, a, b))
                    }
                    [a] => float(a).and_then(|a| Self::fold_unary(&name, a)),
                    _ => None,
                };
                if let Some(value) = folded {
                    // The op becomes the constant in place: same slot in
                    // its block, same result value, so no use needs
                    // rewriting and nothing is inserted or erased.
                    let operation = module.op_mut(op).expect("still live");
                    operation.name = constant;
                    operation.operands.clear();
                    operation.attributes.clear();
                    operation
                        .attributes
                        .insert("value", Attribute::Float(value));
                    stats.ops_rewritten += 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialects::core;
    use crate::types::Type;

    fn ctx() -> Context {
        Context::with_all_dialects()
    }

    #[test]
    fn dce_removes_unused_pure_chain() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 1.0);
        let b = core::const_f64(&mut m, top, 2.0);
        let s = core::binary(&mut m, top, "arith.addf", a, b);
        let _dead = core::binary(&mut m, top, "arith.mulf", s, s);
        assert_eq!(m.num_ops(), 4);
        let stats = Dce.run(&ctx(), &mut m).unwrap();
        // Everything is dead: mul unused -> add unused -> constants unused.
        assert_eq!(stats.ops_erased, 4);
        assert_eq!(m.num_ops(), 0);
    }

    #[test]
    fn dce_keeps_impure_ops() {
        let mut m = Module::new();
        let top = m.top_block();
        let buf = core::alloc(
            &mut m,
            top,
            Type::memref(&[4], Type::F64, crate::types::MemorySpace::Host),
        );
        let _ = buf;
        let before = m.num_ops();
        Dce.run(&ctx(), &mut m).unwrap();
        assert_eq!(m.num_ops(), before, "memref.alloc is not pure");
    }

    #[test]
    fn cse_merges_identical_constants() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 1.0);
        let b = core::const_f64(&mut m, top, 1.0);
        let s = core::binary(&mut m, top, "arith.addf", a, b);
        // keep s alive through an impure user
        let buf = core::alloc(
            &mut m,
            top,
            Type::memref(&[], Type::F64, crate::types::MemorySpace::Host),
        );
        m.build_op("memref.store", [s, buf], []).append_to(top);
        let stats = Cse.run(&ctx(), &mut m).unwrap();
        assert_eq!(stats.ops_erased, 1, "one duplicate constant merged");
        // The add now uses the same value twice.
        let add = m.find_op("arith.addf").unwrap();
        let ops = &m.op(add).unwrap().operands;
        assert_eq!(ops[0], ops[1]);
    }

    #[test]
    fn cse_respects_commutativity() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 1.0);
        let b = core::const_f64(&mut m, top, 2.0);
        let s1 = core::binary(&mut m, top, "arith.addf", a, b);
        let s2 = core::binary(&mut m, top, "arith.addf", b, a);
        let p = core::binary(&mut m, top, "arith.mulf", s1, s2);
        let buf = core::alloc(
            &mut m,
            top,
            Type::memref(&[], Type::F64, crate::types::MemorySpace::Host),
        );
        m.build_op("memref.store", [p, buf], []).append_to(top);
        let stats = Cse.run(&ctx(), &mut m).unwrap();
        assert_eq!(stats.ops_erased, 1, "addf(a,b) == addf(b,a)");

        // subf is NOT commutative: must not merge.
        let mut m2 = Module::new();
        let top2 = m2.top_block();
        let a2 = core::const_f64(&mut m2, top2, 1.0);
        let b2 = core::const_f64(&mut m2, top2, 2.0);
        let d1 = core::binary(&mut m2, top2, "arith.subf", a2, b2);
        let d2 = core::binary(&mut m2, top2, "arith.subf", b2, a2);
        let p2 = core::binary(&mut m2, top2, "arith.mulf", d1, d2);
        let buf2 = core::alloc(
            &mut m2,
            top2,
            Type::memref(&[], Type::F64, crate::types::MemorySpace::Host),
        );
        m2.build_op("memref.store", [p2, buf2], []).append_to(top2);
        let stats2 = Cse.run(&ctx(), &mut m2).unwrap();
        assert_eq!(stats2.ops_erased, 0);
    }

    #[test]
    fn cse_distinguishes_attribute_payloads_that_render_alike() {
        // Int(1) and Float(1.0) both render as "1"; the structural key
        // must still keep them apart.
        let mut m = Module::new();
        let top = m.top_block();
        let int_const = m
            .build_op("arith.constant", [], [Type::F64])
            .attr("value", Attribute::Int(1))
            .append_to(top);
        let float_const = m
            .build_op("arith.constant", [], [Type::F64])
            .attr("value", Attribute::Float(1.0))
            .append_to(top);
        let a = crate::module::single_result(&m, int_const);
        let b = crate::module::single_result(&m, float_const);
        let s = core::binary(&mut m, top, "arith.addf", a, b);
        let buf = core::alloc(
            &mut m,
            top,
            Type::memref(&[], Type::F64, crate::types::MemorySpace::Host),
        );
        m.build_op("memref.store", [s, buf], []).append_to(top);
        let stats = Cse.run(&ctx(), &mut m).unwrap();
        assert_eq!(
            stats.ops_erased, 0,
            "distinct attribute kinds must not merge"
        );
    }

    /// `x = a[iv]; a[iv] = 2x; y = a[iv]; a[iv] = 3y` in a loop body,
    /// over `a = [1.0]`: 6.0, and the same after canonicalization, which
    /// must not read `y` as `x` across the store between them. With the
    /// first store to another buffer `b`, the two loads do merge.
    #[test]
    fn cse_does_not_merge_loads_across_a_store_to_their_buffer() {
        use crate::dialects::core::{build_for, build_func, const_f64, const_index};
        use crate::interp::{Buffer, Interpreter, Value};
        let build = |first_store_to_b: bool| {
            let mut m = Module::new();
            let top = m.top_block();
            let ty = Type::memref(&[1], Type::F64, crate::types::MemorySpace::Device);
            let (_f, entry) = build_func(&mut m, top, "k", &[ty.clone(), ty], &[]);
            let (a, b) = (m.block(entry).args[0], m.block(entry).args[1]);
            let lb = const_index(&mut m, entry, 0);
            let ub = const_index(&mut m, entry, 1);
            let step = const_index(&mut m, entry, 1);
            let (_loop, body) = build_for(&mut m, entry, lb, ub, step);
            let iv = m.block(body).args[0];
            for (scale, target) in [(2.0, if first_store_to_b { b } else { a }), (3.0, a)] {
                let k = const_f64(&mut m, body, scale);
                let load = m
                    .build_op("memref.load", [a, iv], [Type::F64])
                    .append_to(body);
                let x = crate::module::single_result(&m, load);
                let v = core::binary(&mut m, body, "arith.mulf", k, x);
                m.build_op("memref.store", [v, target, iv], [])
                    .append_to(body);
            }
            m.build_op("scf.yield", [], []).append_to(body);
            m.build_op("func.return", [], []).append_to(entry);
            m
        };
        let run = |m: &Module| {
            let mut interp = Interpreter::new();
            let args = [1.0, 0.0].map(|v| interp.alloc_buffer(Buffer::from_data(&[1], vec![v])));
            interp.run_function(m, "k", &args).unwrap();
            let Value::Buffer(a) = args[0] else {
                unreachable!()
            };
            interp.buffer(a).data[0]
        };
        let canonical = |mut m: Module| {
            canonicalization_pipeline().run(&ctx(), &mut m).unwrap();
            let loads = m
                .walk_ops()
                .into_iter()
                .filter(|&o| m.op(o).unwrap().name == "memref.load");
            (run(&m), loads.count())
        };
        let same_buffer = build(false);
        assert_eq!(run(&same_buffer), 6.0);
        assert_eq!(canonical(same_buffer), (6.0, 2));
        let other_buffer = build(true);
        assert_eq!(run(&other_buffer), 3.0);
        assert_eq!(canonical(other_buffer), (3.0, 1));
    }

    #[test]
    fn cse_does_not_merge_loads_across_an_unregistered_op_that_takes_their_buffer() {
        // `Pass::run` does not verify, so an op no dialect declares may
        // reach CSE: it may write every buffer it takes.
        let mut m = Module::new();
        let top = m.top_block();
        let buf = core::alloc(
            &mut m,
            top,
            Type::memref(&[2], Type::F64, crate::types::MemorySpace::Host),
        );
        let slot = core::const_index(&mut m, top, 0);
        let mut loaded = Vec::new();
        for clobber in [true, false] {
            let load = m
                .build_op("memref.load", [buf, slot], [Type::F64])
                .append_to(top);
            loaded.push(crate::module::single_result(&m, load));
            if clobber {
                m.build_op("toy.clobber", [buf], []).append_to(top);
            }
        }
        let sum = core::binary(&mut m, top, "arith.addf", loaded[0], loaded[1]);
        m.build_op("memref.store", [sum, buf, slot], [])
            .append_to(top);
        let stats = Cse.run(&ctx(), &mut m).unwrap();
        assert_eq!(
            stats.ops_erased, 0,
            "the second load reads what toy.clobber left"
        );
    }

    #[test]
    fn cse_keeps_constants_of_different_result_types_apart() {
        // The same payload at `index` and at `f64`: merged, the store
        // would write an index into an f64 buffer and stop verifying.
        let mut m = Module::new();
        let top = m.top_block();
        let slot = core::const_index(&mut m, top, 1);
        let one = m
            .build_op("arith.constant", [], [Type::F64])
            .attr("value", Attribute::Int(1))
            .append_to(top);
        let one = crate::module::single_result(&m, one);
        let buf = core::alloc(
            &mut m,
            top,
            Type::memref(&[2], Type::F64, crate::types::MemorySpace::Host),
        );
        m.build_op("memref.store", [one, buf, slot], [])
            .append_to(top);
        let stats = Cse.run(&ctx(), &mut m).unwrap();
        assert_eq!(stats.ops_erased, 0, "f64 and index constants stay apart");
        crate::verify::verify_module(&ctx(), &m).unwrap();
    }

    #[test]
    fn licm_skips_terminators_by_trait_not_position() {
        use crate::dialects::core::{build_for, build_func, const_f64, const_index};
        let mut m = Module::new();
        let top = m.top_block();
        let ty = Type::memref(&[8], Type::F64, crate::types::MemorySpace::Device);
        let (_f, entry) = build_func(&mut m, top, "k", &[ty], &[]);
        let lb = const_index(&mut m, entry, 0);
        let ub = const_index(&mut m, entry, 8);
        let step = const_index(&mut m, entry, 1);
        let (_loop_op, body) = build_for(&mut m, entry, lb, ub, step);
        // Mid-pipeline IR: an invariant op sits *after* the terminator,
        // where the old take(len - 1) logic would never look.
        let _early = const_f64(&mut m, body, 2.0);
        m.build_op("scf.yield", [], []).append_to(body);
        let _late = const_f64(&mut m, body, 3.0);
        m.build_op("func.return", [], []).append_to(entry);

        let stats = LoopInvariantCodeMotion.run(&ctx(), &mut m).unwrap();
        assert_eq!(stats.ops_rewritten, 2, "both invariant constants hoist");
        let remaining: Vec<String> = m
            .block(body)
            .ops
            .iter()
            .map(|&o| m.op(o).unwrap().name.to_string())
            .collect();
        assert_eq!(remaining, vec!["scf.yield".to_string()]);
    }

    #[test]
    fn constant_folding_collapses_expression() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 3.0);
        let b = core::const_f64(&mut m, top, 4.0);
        let s = core::binary(&mut m, top, "arith.addf", a, b); // 7
        let p = core::binary(&mut m, top, "arith.mulf", s, s); // 49
        let buf = core::alloc(
            &mut m,
            top,
            Type::memref(&[], Type::F64, crate::types::MemorySpace::Host),
        );
        m.build_op("memref.store", [p, buf], []).append_to(top);
        let stats = ConstantFolding.run(&ctx(), &mut m).unwrap();
        assert_eq!(stats.ops_rewritten, 2);
        // The store operand now comes from a constant with value 49.
        let store = m.find_op("memref.store").unwrap();
        let v = m.op(store).unwrap().operands[0];
        let crate::module::ValueDef::OpResult { op, .. } = m.value(v).def else {
            panic!("expected op result");
        };
        assert_eq!(
            m.op(op).unwrap().attr("value").unwrap().as_float(),
            Some(49.0)
        );
    }

    #[test]
    fn folding_skips_division_by_zero() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 1.0);
        let z = core::const_f64(&mut m, top, 0.0);
        let d = core::binary(&mut m, top, "arith.divf", a, z);
        let buf = core::alloc(
            &mut m,
            top,
            Type::memref(&[], Type::F64, crate::types::MemorySpace::Host),
        );
        m.build_op("memref.store", [d, buf], []).append_to(top);
        let stats = ConstantFolding.run(&ctx(), &mut m).unwrap();
        assert_eq!(stats.ops_rewritten, 0);
    }

    #[test]
    fn full_pipeline_runs_and_verifies() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = core::const_f64(&mut m, top, 1.0);
        let b = core::const_f64(&mut m, top, 1.0);
        let s = core::binary(&mut m, top, "arith.addf", a, b);
        let _dead = core::binary(&mut m, top, "arith.mulf", s, s);
        let pm = canonicalization_pipeline();
        let stats = pm.run(&ctx(), &mut m).unwrap();
        assert_eq!(stats.len(), 6);
        assert_eq!(m.num_ops(), 0, "everything folds away");
    }

    #[test]
    fn licm_hoists_loop_invariant_constants() {
        use crate::dialects::core::{build_for, build_func, const_f64, const_index};
        let mut m = Module::new();
        let top = m.top_block();
        let ty = Type::memref(&[8], Type::F64, crate::types::MemorySpace::Device);
        let (_f, entry) = build_func(&mut m, top, "k", &[ty], &[]);
        let buf = m.block(entry).args[0];
        let lb = const_index(&mut m, entry, 0);
        let ub = const_index(&mut m, entry, 8);
        let step = const_index(&mut m, entry, 1);
        let (loop_op, body) = build_for(&mut m, entry, lb, ub, step);
        let iv = m.block(body).args[0];
        // invariant: constant and product of constants
        let two = const_f64(&mut m, body, 2.0);
        let three = const_f64(&mut m, body, 3.0);
        let six = core::binary(&mut m, body, "arith.mulf", two, three);
        // variant: depends on a load of the iv
        let load = m
            .build_op("memref.load", [buf, iv], [Type::F64])
            .append_to(body);
        let lv = crate::module::single_result(&m, load);
        let prod = core::binary(&mut m, body, "arith.mulf", six, lv);
        m.build_op("memref.store", [prod, buf, iv], [])
            .append_to(body);
        m.build_op("scf.yield", [], []).append_to(body);
        m.build_op("func.return", [], []).append_to(entry);

        let before_body = m.block(body).ops.len();
        let stats = LoopInvariantCodeMotion.run(&ctx(), &mut m).unwrap();
        assert_eq!(
            stats.ops_rewritten, 3,
            "two constants + their product hoist"
        );
        assert_eq!(m.block(body).ops.len(), before_body - 3);
        crate::verify::verify_module(&ctx(), &m).unwrap();
        // Hoisted ops sit before the loop in the entry block.
        let entry_ops = m.block(entry).ops.clone();
        let loop_pos = entry_ops.iter().position(|&o| o == loop_op).unwrap();
        let hoisted: Vec<_> = entry_ops[..loop_pos]
            .iter()
            .filter(|&&o| m.op(o).unwrap().name == "arith.mulf")
            .collect();
        assert_eq!(hoisted.len(), 1);
    }

    #[test]
    fn licm_preserves_semantics() {
        use crate::dialects::core::{build_for, build_func, const_f64, const_index};
        use crate::interp::{Buffer, Interpreter, Value};
        let build = || {
            let mut m = Module::new();
            let top = m.top_block();
            let ty = Type::memref(&[8], Type::F64, crate::types::MemorySpace::Device);
            let (_f, entry) = build_func(&mut m, top, "k", &[ty], &[]);
            let buf = m.block(entry).args[0];
            let lb = const_index(&mut m, entry, 0);
            let ub = const_index(&mut m, entry, 8);
            let step = const_index(&mut m, entry, 1);
            let (_loop, body) = build_for(&mut m, entry, lb, ub, step);
            let iv = m.block(body).args[0];
            let k = const_f64(&mut m, body, 2.5);
            let load = m
                .build_op("memref.load", [buf, iv], [Type::F64])
                .append_to(body);
            let lv = crate::module::single_result(&m, load);
            let v = core::binary(&mut m, body, "arith.mulf", k, lv);
            m.build_op("memref.store", [v, buf, iv], []).append_to(body);
            m.build_op("scf.yield", [], []).append_to(body);
            m.build_op("func.return", [], []).append_to(entry);
            m
        };
        let run = |m: &Module| -> Vec<f64> {
            let mut interp = Interpreter::new();
            let data: Vec<f64> = (0..8).map(|v| v as f64).collect();
            let b = interp.alloc_buffer(Buffer::from_data(&[8], data));
            interp
                .run_function(m, "k", std::slice::from_ref(&b))
                .unwrap();
            let Value::Buffer(h) = b else { unreachable!() };
            interp.buffer(h).data.clone()
        };
        let reference = run(&build());
        let mut optimized = build();
        LoopInvariantCodeMotion.run(&ctx(), &mut optimized).unwrap();
        assert_eq!(run(&optimized), reference);
    }

    #[test]
    fn licm_keeps_a_load_of_a_buffer_the_loop_stores_to() {
        use crate::dialects::core::{build_for, build_func, const_f64, const_index};
        use crate::interp::{Buffer, Interpreter, Value};
        // for i in 0..3 { x = a[0]; a[0] = x + 1 }
        let mut m = Module::new();
        let top = m.top_block();
        let ty = Type::memref(&[1], Type::F64, crate::types::MemorySpace::Device);
        let (_f, entry) = build_func(&mut m, top, "k", &[ty], &[]);
        let a = m.block(entry).args[0];
        let (lb, ub, step) = (
            const_index(&mut m, entry, 0),
            const_index(&mut m, entry, 3),
            const_index(&mut m, entry, 1),
        );
        let (_loop, body) = build_for(&mut m, entry, lb, ub, step);
        let zero = const_index(&mut m, body, 0);
        let load = m
            .build_op("memref.load", [a, zero], [Type::F64])
            .append_to(body);
        let x = crate::module::single_result(&m, load);
        let one = const_f64(&mut m, body, 1.0);
        let sum = core::binary(&mut m, body, "arith.addf", x, one);
        m.build_op("memref.store", [sum, a, zero], [])
            .append_to(body);
        m.build_op("scf.yield", [], []).append_to(body);
        m.build_op("func.return", [], []).append_to(entry);

        let stats = LoopInvariantCodeMotion.run(&ctx(), &mut m).unwrap();
        assert_eq!(
            stats.ops_rewritten, 2,
            "the two constants hoist, the load stays"
        );
        crate::verify::verify_module(&ctx(), &m).unwrap();
        let mut interp = Interpreter::new();
        let b = interp.alloc_buffer(Buffer::from_data(&[1], vec![0.0]));
        interp
            .run_function(&m, "k", std::slice::from_ref(&b))
            .unwrap();
        let Value::Buffer(h) = b else { unreachable!() };
        assert_eq!(interp.buffer(h).data, vec![3.0]);
    }

    #[test]
    fn pass_manager_reports_failing_verification() {
        struct Breaker;
        impl Pass for Breaker {
            fn name(&self) -> &str {
                "breaker"
            }
            fn run(&self, _ctx: &Context, module: &mut Module) -> IrResult<PassStats> {
                let top = module.top_block();
                module.build_op("nosuch.op", [], []).append_to(top);
                Ok(PassStats::default())
            }
        }
        let mut m = Module::new();
        let mut pm = PassManager::new();
        pm.add(Box::new(Breaker));
        let err = pm.run(&ctx(), &mut m).unwrap_err();
        assert!(err.to_string().contains("breaker"));
    }

    #[test]
    fn threaded_batch_reports_error_of_lowest_failing_module() {
        // Modules 1 and 3 fail verification with distinct op names; every
        // thread count must surface module 1's error, like the
        // sequential run does.
        let build = |bad: Option<&str>| {
            let mut m = Module::new();
            let top = m.top_block();
            core::const_f64(&mut m, top, 1.0);
            if let Some(name) = bad {
                m.build_op(name, [], []).append_to(top);
            }
            m
        };
        let make_batch = || {
            vec![
                build(None),
                build(Some("nosuch.first")),
                build(None),
                build(Some("nosuch.second")),
            ]
        };
        let pm = canonicalization_pipeline();
        let sequential = pm.run_batch(&ctx(), &mut make_batch()).unwrap_err();
        assert!(sequential.to_string().contains("nosuch.first"));
        for threads in [1, 2, 3, 4, 7] {
            let err = pm
                .run_batch_threaded(&ctx(), &mut make_batch(), threads)
                .unwrap_err();
            assert!(
                err.to_string().contains("nosuch.first"),
                "threads={threads} surfaced the wrong module: {err}"
            );
        }
    }

    #[test]
    fn threaded_batch_handles_degenerate_shapes() {
        let pm = canonicalization_pipeline();
        // Empty batch, zero threads, and more threads than modules.
        assert!(pm
            .run_batch_threaded(&ctx(), &mut [], 4)
            .unwrap()
            .is_empty());
        let mut one = vec![Module::new()];
        assert_eq!(pm.run_batch_threaded(&ctx(), &mut one, 0).unwrap().len(), 1);
        let mut few = vec![Module::new(), Module::new()];
        assert_eq!(
            pm.run_batch_threaded(&ctx(), &mut few, 16).unwrap().len(),
            2
        );
    }
}

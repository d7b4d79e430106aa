//! `everest_hls::engine::synthesize` as of the commit before the dense
//! tables, less its telemetry: a CDFG per block and a second one per
//! innermost body for the initiation interval, a cost-library lookup
//! per node per visit, units merged by `String`. Cycle arithmetic is
//! unchecked, as it was; the kernels it is run on stay in range.

use std::borrow::Cow;
use std::collections::HashMap;

use everest_hls::engine::{HlsOptions, HlsReport, LoopReport};
use everest_hls::resources::{CostLibrary, Resources};
use everest_hls::transform::{is_innermost, trip_count, unroll_innermost};
use everest_ir::attr::Attribute;
use everest_ir::module::Module;
use everest_ir::types::Type;
use everest_ir::{IrError, IrResult, OpId, ValueId};

use super::cdfg::BlockCdfg;
use super::schedule::{bind_units, list_schedule, Constraints, NodeCosts};

/// Synthesizes `func` from `module` under the given options.
///
/// The input module is not modified: it is borrowed as it stands, and
/// only the options that rewrite it (`unroll > 1`, `licm`) take a
/// private copy first.
///
/// # Errors
///
/// Returns [`IrError`] if the function is missing or malformed.
pub(crate) fn synthesize(module: &Module, func: &str, options: HlsOptions) -> IrResult<HlsReport> {
    let mut module = Cow::Borrowed(module);
    if options.unroll > 1 {
        unroll_innermost(module.to_mut(), func, options.unroll)?;
    }
    if options.licm {
        use everest_ir::pass::Pass as _;
        let ctx = everest_ir::registry::Context::with_all_dialects();
        everest_ir::pass::LoopInvariantCodeMotion.run(&ctx, module.to_mut())?;
    }
    let module: &Module = &module;
    let func_op = module
        .lookup_symbol(func)
        .ok_or_else(|| IrError::InvalidId(format!("no function '{func}'")))?;
    let operation = module
        .op(func_op)
        .ok_or_else(|| IrError::InvalidId("function erased".into()))?;
    let region = *operation
        .regions
        .first()
        .ok_or_else(|| IrError::Malformed("function has no body".into()))?;
    let entry = module.region(region).blocks[0];

    let lib = CostLibrary {
        clock_ns: options.clock_ns,
        plm_ports_per_bank: 2 * options.partition.max(1),
    };
    let mut synth = Synthesizer {
        module,
        lib,
        options,
        loops: Vec::new(),
        units: HashMap::new(),
        bram: 0,
    };
    let cycles = synth.schedule_block(entry, 0)?;

    // Area: shared functional units (max concurrency per kind across the
    // design) plus PLM BRAMs.
    let mut area = Resources::default();
    for (kind, &count) in &synth.units {
        let unit = synth.lib.op_cost(kind, None, options.format).area;
        area = area.add(unit.scale(count));
    }
    area.brams += synth.bram;

    // Bytes per call: argument buffers.
    let fty = operation
        .attr("function_type")
        .and_then(Attribute::as_type)
        .ok_or_else(|| IrError::Malformed("function without type".into()))?;
    let mut bytes = 0u64;
    if let Type::Function { inputs, .. } = fty {
        for ty in inputs {
            if let (Some(n), Some(elem)) = (ty.num_elements(), ty.elem()) {
                bytes += n * elem.bit_width().unwrap_or(64) as u64 / 8;
            }
        }
    }

    let time_us = cycles as f64 * options.clock_ns / 1000.0;
    Ok(HlsReport {
        kernel: func.to_string(),
        cycles,
        time_us,
        area,
        fmax_mhz: synth.lib.fmax_mhz(),
        units: synth.units,
        loops: synth.loops,
        bytes_per_call: bytes,
    })
}

struct Synthesizer<'m> {
    module: &'m Module,
    lib: CostLibrary,
    options: HlsOptions,
    loops: Vec<LoopReport>,
    units: HashMap<String, u64>,
    bram: u64,
}

impl<'m> Synthesizer<'m> {
    /// Schedules one block; returns its total cycle count.
    fn schedule_block(&mut self, block: everest_ir::BlockId, depth: usize) -> IrResult<u64> {
        let cdfg = BlockCdfg::build(self.module, block);
        let mut latency = Vec::with_capacity(cdfg.nodes.len());
        let mut memory_buffer = Vec::with_capacity(cdfg.nodes.len());
        let mut uses_dsp = Vec::with_capacity(cdfg.nodes.len());

        for node in &cdfg.nodes {
            let operation = self.module.op(node.op).expect("live");
            let (lat, buffer, dsp) = match node.name.as_str() {
                "scf.for" => (self.loop_latency(node.op, depth)?, None, false),
                "scf.if" => {
                    let mut branch_max = 0;
                    for &r in &operation.regions {
                        if let Some(&b) = self.module.region(r).blocks.first() {
                            branch_max = branch_max.max(self.schedule_block(b, depth)?);
                        }
                    }
                    (branch_max + 1, None, false)
                }
                "memref.load" => {
                    let cost = self.node_cost(node.op);
                    (cost, Some(buffer_of(operation.operands[0])), false)
                }
                "memref.store" => {
                    let cost = self.node_cost(node.op);
                    (cost, Some(buffer_of(operation.operands[1])), false)
                }
                "memref.alloc" => {
                    let ty = self.module.value_type(operation.results[0]);
                    self.bram += CostLibrary::bram_cost(ty);
                    (0, None, false)
                }
                "memref.copy" => {
                    // Burst copy: one element per cycle after setup.
                    let n = self
                        .module
                        .value_type(operation.operands[0])
                        .num_elements()
                        .unwrap_or(1);
                    (n + 2, Some(buffer_of(operation.operands[1])), false)
                }
                _ => {
                    let cost = self.lib.op_cost(
                        &node.name,
                        operation
                            .results
                            .first()
                            .map(|&r| self.module.value_type(r)),
                        self.options.format,
                    );
                    (cost.latency as u64, None, cost.area.dsps > 0)
                }
            };
            latency.push(lat);
            memory_buffer.push(buffer);
            uses_dsp.push(dsp);
        }
        let costs = NodeCosts {
            latency,
            memory_buffer,
            uses_dsp,
        };
        let constraints = Constraints {
            ports_per_buffer: self.lib.plm_ports_per_bank,
            dsp_issues_per_cycle: self.options.dsp_limit,
        };
        let schedule = list_schedule(&cdfg, &costs, constraints);
        // Merge functional-unit requirements (max across blocks: units are
        // shared between mutually exclusive program points).
        for (kind, count) in bind_units(&cdfg, &costs, &schedule) {
            let entry = self.units.entry(kind).or_insert(0);
            *entry = (*entry).max(count);
        }
        Ok(schedule.length)
    }

    /// Total latency of a loop, recording a [`LoopReport`].
    fn loop_latency(&mut self, for_op: OpId, depth: usize) -> IrResult<u64> {
        let operation = self.module.op(for_op).expect("live");
        let region = operation.regions[0];
        let body = self.module.region(region).blocks[0];
        let trip = trip_count(self.module, for_op).unwrap_or(0);
        let body_cycles = self.schedule_block(body, depth + 1)?;

        let innermost = is_innermost(self.module, for_op);
        let (total, pipelined, ii) = if innermost && self.options.pipeline && trip > 0 {
            let ii = self.initiation_interval(body, body_cycles);
            (body_cycles + (trip - 1) * ii, true, ii)
        } else if trip > 0 {
            (trip * (body_cycles + 1) + 1, false, body_cycles + 1)
        } else {
            (body_cycles + 2, false, body_cycles + 1)
        };
        self.loops.push(LoopReport {
            depth,
            trip_count: trip,
            body_cycles,
            pipelined,
            ii,
            total_cycles: total,
        });
        Ok(total)
    }

    /// Initiation interval: max(resource MII, recurrence MII).
    fn initiation_interval(&self, body: everest_ir::BlockId, body_cycles: u64) -> u64 {
        let cdfg = BlockCdfg::build(self.module, body);
        // Resource MII: accesses per buffer / ports.
        let mut per_buffer: HashMap<ValueId, u64> = HashMap::new();
        for node in &cdfg.nodes {
            let operation = self.module.op(node.op).expect("live");
            match node.name.as_str() {
                "memref.load" => {
                    *per_buffer
                        .entry(buffer_of(operation.operands[0]))
                        .or_insert(0) += 1;
                }
                "memref.store" => {
                    *per_buffer
                        .entry(buffer_of(operation.operands[1]))
                        .or_insert(0) += 1;
                }
                _ => {}
            }
        }
        let ports = self.lib.plm_ports_per_bank as u64;
        let res_mii = per_buffer
            .values()
            .map(|&n| n.div_ceil(ports))
            .max()
            .unwrap_or(1)
            .max(1);

        // Recurrence MII: loop-carried dependence through a buffer that is
        // both loaded and stored in the body (e.g. accumulator cells): the
        // path from the load to the store must complete before the next
        // iteration's load.
        let mut rec_mii = 1u64;
        let mut loaded: HashMap<ValueId, Vec<usize>> = HashMap::new();
        let mut stored: HashMap<ValueId, Vec<usize>> = HashMap::new();
        for (i, node) in cdfg.nodes.iter().enumerate() {
            let operation = self.module.op(node.op).expect("live");
            match node.name.as_str() {
                "memref.load" => loaded
                    .entry(buffer_of(operation.operands[0]))
                    .or_default()
                    .push(i),
                "memref.store" => stored
                    .entry(buffer_of(operation.operands[1]))
                    .or_default()
                    .push(i),
                _ => {}
            }
        }
        // Approximate the recurrence length with the ASAP distance between
        // the load and the store plus the store latency.
        let mut latencies = Vec::with_capacity(cdfg.nodes.len());
        for node in &cdfg.nodes {
            latencies.push(self.node_cost(node.op));
        }
        let costs = NodeCosts {
            latency: latencies,
            memory_buffer: vec![None; cdfg.nodes.len()],
            uses_dsp: vec![false; cdfg.nodes.len()],
        };
        let asap = super::schedule::asap(&cdfg, &costs);
        for (buffer, loads) in &loaded {
            if let Some(stores) = stored.get(buffer) {
                for &l in loads {
                    for &s in stores {
                        if asap.start[s] >= asap.start[l] {
                            let span = asap.start[s] + costs.latency[s] - asap.start[l];
                            rec_mii = rec_mii.max(span);
                        }
                    }
                }
            }
        }
        res_mii.max(rec_mii).min(body_cycles.max(1))
    }

    /// Latency of a leaf op.
    fn node_cost(&self, op: OpId) -> u64 {
        let operation = self.module.op(op).expect("live");
        if !operation.regions.is_empty() {
            // Nested region ops inside an II computation: use body length 1.
            return 1;
        }
        self.lib
            .op_cost(
                &operation.name,
                operation
                    .results
                    .first()
                    .map(|&r| self.module.value_type(r)),
                self.options.format,
            )
            .latency as u64
    }
}

/// Buffer identity for port constraints: the SSA value of the memref.
fn buffer_of(v: ValueId) -> ValueId {
    v
}

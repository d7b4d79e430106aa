//! The HLS engine: turns a loop-level IR function into a synthesized
//! accelerator model with latency, initiation intervals and resource
//! usage — the role Vitis HLS / Bambu play in the EVEREST SDK (§IV).

use std::borrow::Cow;
use std::collections::HashMap;

use everest_ir::attr::Attribute;
use everest_ir::module::Module;
use everest_ir::types::Type;
use everest_ir::{BlockId, IrError, IrResult, OpId};

use crate::cdfg::{BlockCdfg, CdfgTables, OpClass, Stamped};
use crate::resources::{CostLibrary, NumericFormat, Resources};
use crate::schedule::{asap, Constraints, ListScheduler, NodeCosts, Schedule, UnitDemand};
use crate::transform::{is_innermost, trip_count, unroll_innermost};

/// Synthesis options.
#[derive(Debug, Clone, Copy)]
pub struct HlsOptions {
    /// Numeric format float arithmetic is mapped to.
    pub format: NumericFormat,
    /// Pipeline innermost loops (modulo scheduling).
    pub pipeline: bool,
    /// Unroll factor applied to innermost loops before scheduling.
    pub unroll: u32,
    /// Array partitioning factor: multiplies memory ports per buffer.
    pub partition: u32,
    /// Target clock period in nanoseconds.
    pub clock_ns: f64,
    /// Optional DSP issue limit per cycle.
    pub dsp_limit: Option<u32>,
    /// Run loop-invariant code motion before scheduling (hoists
    /// constants and invariant arithmetic out of pipelined bodies).
    pub licm: bool,
}

impl Default for HlsOptions {
    fn default() -> Self {
        HlsOptions {
            format: NumericFormat::F64,
            pipeline: true,
            unroll: 1,
            partition: 1,
            clock_ns: 3.33,
            dsp_limit: None,
            licm: false,
        }
    }
}

/// Report for one loop in the kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// Trip count (0 if unknown).
    pub trip_count: u64,
    /// Body schedule length in cycles.
    pub body_cycles: u64,
    /// Whether the loop was pipelined.
    pub pipelined: bool,
    /// Achieved initiation interval (pipelined loops only).
    pub ii: u64,
    /// Total cycles for the whole loop.
    pub total_cycles: u64,
}

/// The synthesis result.
#[derive(Debug, Clone, PartialEq)]
pub struct HlsReport {
    /// Kernel (function) name.
    pub kernel: String,
    /// Total latency in cycles.
    pub cycles: u64,
    /// Latency in microseconds at the target clock.
    pub time_us: f64,
    /// Estimated resource usage after binding.
    pub area: Resources,
    /// Clock frequency in MHz.
    pub fmax_mhz: f64,
    /// Functional units per operation kind.
    pub units: HashMap<String, u64>,
    /// Per-loop details, outermost first.
    pub loops: Vec<LoopReport>,
    /// Bytes moved per kernel invocation (sum of argument buffer sizes).
    pub bytes_per_call: u64,
}

impl HlsReport {
    /// Renders a vendor-style synthesis report (the artifact Vitis HLS /
    /// Bambu users read).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== Synthesis report: {} ==", self.kernel);
        let _ = writeln!(
            out,
            "latency     : {} cycles ({:.2} us @ {:.0} MHz)",
            self.cycles, self.time_us, self.fmax_mhz
        );
        let _ = writeln!(
            out,
            "resources   : {} LUT | {} FF | {} DSP | {} BRAM",
            self.area.luts, self.area.ffs, self.area.dsps, self.area.brams
        );
        let _ = writeln!(out, "interface   : {} bytes per call", self.bytes_per_call);
        if !self.loops.is_empty() {
            let _ = writeln!(out, "loops:");
            let _ = writeln!(
                out,
                "  {:<6} {:>6} {:>10} {:>6} {:>10} {:>10}",
                "depth", "trip", "body", "II", "pipelined", "total"
            );
            for l in &self.loops {
                let _ = writeln!(
                    out,
                    "  {:<6} {:>6} {:>10} {:>6} {:>10} {:>10}",
                    l.depth,
                    l.trip_count,
                    l.body_cycles,
                    l.ii,
                    if l.pipelined { "yes" } else { "no" },
                    l.total_cycles
                );
            }
        }
        if !self.units.is_empty() {
            let mut units: Vec<_> = self.units.iter().collect();
            units.sort();
            let _ = writeln!(out, "functional units:");
            for (kind, count) in units {
                let _ = writeln!(out, "  {kind:<24} x{count}");
            }
        }
        out
    }
}

/// Synthesizes `func` from `module` under the given options.
///
/// The input module is not modified: it is borrowed as it stands, and
/// only the options that rewrite it (`unroll > 1`, `licm`) take a
/// private copy first.
///
/// # Errors
///
/// Returns [`IrError`] if the function is missing or malformed.
pub fn synthesize(module: &Module, func: &str, options: HlsOptions) -> IrResult<HlsReport> {
    let telemetry_span = everest_telemetry::span("hls.synthesize");
    telemetry_span.arg("kernel", func);
    let mut module = Cow::Borrowed(module);
    if options.unroll > 1 {
        let _unroll = everest_telemetry::span("hls.unroll");
        unroll_innermost(module.to_mut(), func, options.unroll)?;
    }
    if options.licm {
        use everest_ir::pass::Pass as _;
        let _licm = everest_telemetry::span("hls.licm");
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
    let mut synth = Synthesizer::new(module, lib, options);
    let cycles = {
        let _schedule = everest_telemetry::span("hls.schedule");
        synth.schedule_nested(entry, 0)?.0
    };

    // Area: shared functional units (max concurrency per kind across the
    // design) plus PLM BRAMs. Names are rendered here, once per kind.
    let mut area = Resources::default();
    let mut units = HashMap::new();
    for (kind, &name) in synth.kinds.iter().zip(synth.tables.kinds()) {
        if kind.units > 0 {
            area = area.add(kind.area.scale(kind.units));
            units.insert(name.to_string(), kind.units);
        }
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
    telemetry_span.record_cycles(cycles);
    telemetry_span
        .arg("luts", area.luts)
        .arg("brams", area.brams);
    everest_telemetry::counter_add("hls.kernels_synthesized", 1);
    everest_telemetry::histogram_record("hls.cycles", cycles as f64);
    Ok(HlsReport {
        kernel: func.to_string(),
        cycles,
        time_us,
        area,
        fmax_mhz: synth.lib.fmax_mhz(),
        units,
        loops: synth.loops,
        bytes_per_call: bytes,
    })
}

/// Cycle counts past this are refused: with every latency of a block
/// summing below it, no start time the list scheduler can reach (the
/// sum, plus one cycle of port or DSP contention per node pair) wraps.
const CYCLE_LIMIT: u64 = 1 << 62;

/// What the cost library says of one op name, looked up once per
/// synthesis, and the units bound to it so far.
struct KindCost {
    latency: u64,
    uses_dsp: bool,
    area: Resources,
    /// Max concurrency across the blocks scheduled so far: units are
    /// shared between mutually exclusive program points.
    units: u64,
}

/// One block's graph and costs. A block is scheduled while the blocks
/// around it are half-costed, so each nesting level holds its own;
/// `Synthesizer::frames` keeps the ones no level is using.
#[derive(Default)]
struct Frame {
    cdfg: BlockCdfg,
    costs: NodeCosts,
    /// Whether an `scf.for` sits anywhere under the block.
    has_loop: bool,
}

/// A buffer's traffic within one loop body, for the initiation interval.
#[derive(Clone, Copy)]
struct BufferAccess {
    count: u64,
    /// Earliest ASAP start among its loads (`u64::MAX`: never loaded).
    first_load: u64,
}

impl Default for BufferAccess {
    fn default() -> Self {
        BufferAccess {
            count: 0,
            first_load: u64::MAX,
        }
    }
}

/// One synthesis. Every table below is sized once, here, and reused for
/// each block: a table per block would make a kernel of many small
/// loops quadratic.
struct Synthesizer<'m> {
    module: &'m Module,
    lib: CostLibrary,
    options: HlsOptions,
    loops: Vec<LoopReport>,
    bram: u64,
    tables: CdfgTables,
    /// By [`crate::cdfg::CdfgNode::kind`].
    kinds: Vec<KindCost>,
    frames: Vec<Frame>,
    scheduler: ListScheduler,
    schedule: Schedule,
    demand: Vec<UnitDemand>,
    /// By `ValueId::index()` of the buffer.
    accesses: Stamped<BufferAccess>,
    ii_latency: Vec<u64>,
    ii_asap: Schedule,
}

impl<'m> Synthesizer<'m> {
    fn new(module: &'m Module, lib: CostLibrary, options: HlsOptions) -> Self {
        Synthesizer {
            module,
            lib,
            options,
            loops: Vec::new(),
            bram: 0,
            tables: CdfgTables::new(module),
            kinds: Vec::new(),
            frames: Vec::new(),
            scheduler: ListScheduler::default(),
            schedule: Schedule::default(),
            demand: Vec::new(),
            accesses: Stamped::new(module.num_values()),
            ii_latency: Vec::new(),
            ii_asap: Schedule::default(),
        }
    }

    /// Schedules one block in a spare frame; returns its total cycle
    /// count and whether it holds a loop.
    fn schedule_nested(&mut self, block: BlockId, depth: usize) -> IrResult<(u64, bool)> {
        let mut frame = self.frames.pop().unwrap_or_default();
        let cycles = self.schedule_block(block, depth, &mut frame)?;
        let has_loop = frame.has_loop;
        self.frames.push(frame);
        Ok((cycles, has_loop))
    }

    /// Schedules one block into `frame`; returns its total cycle count.
    fn schedule_block(&mut self, block: BlockId, depth: usize, frame: &mut Frame) -> IrResult<u64> {
        self.tables.build(self.module, block, &mut frame.cdfg);
        for name in &self.tables.kinds()[self.kinds.len()..] {
            let cost = self.lib.op_cost(name, None, self.options.format);
            self.kinds.push(KindCost {
                latency: cost.latency as u64,
                uses_dsp: cost.area.dsps > 0,
                area: cost.area,
                units: 0,
            });
        }
        frame.costs.clear();
        frame.has_loop = false;
        let mut total = 0u64;

        for node in &frame.cdfg.nodes {
            let operation = self.module.op(node.op).expect("live");
            let kind = &self.kinds[node.kind as usize];
            let (lat, buffer, dsp) = match node.class {
                OpClass::For => {
                    frame.has_loop = true;
                    (self.loop_latency(node.op, depth)?, None, false)
                }
                OpClass::If => {
                    let mut branch_max = 0;
                    for &r in &operation.regions {
                        if let Some(&b) = self.module.region(r).blocks.first() {
                            let (cycles, has_loop) = self.schedule_nested(b, depth)?;
                            branch_max = branch_max.max(cycles);
                            frame.has_loop |= has_loop;
                        }
                    }
                    (branch_max + 1, None, false)
                }
                OpClass::Load => (kind.latency, Some(operation.operands[0]), false),
                OpClass::Store => (kind.latency, Some(operation.operands[1]), false),
                OpClass::Alloc => {
                    let ty = self.module.value_type(operation.results[0]);
                    self.bram += CostLibrary::bram_cost(ty);
                    (0, None, false)
                }
                OpClass::Copy => {
                    // Burst copy: one element per cycle after setup.
                    let n = self
                        .module
                        .value_type(operation.operands[0])
                        .num_elements()
                        .unwrap_or(1);
                    (n.saturating_add(2), Some(operation.operands[1]), false)
                }
                OpClass::Other => {
                    // Not scheduled into, but a loop in there still
                    // makes the loop around this block an outer one.
                    frame.has_loop |= node.has_regions && !is_innermost(self.module, node.op);
                    (kind.latency, None, kind.uses_dsp)
                }
            };
            total = total
                .checked_add(lat)
                .filter(|&total| total <= CYCLE_LIMIT)
                .ok_or_else(|| {
                    cycle_overflow(format!(
                        "the latencies of the block at loop depth {depth} sum past 2^62 cycles"
                    ))
                })?;
            frame.costs.push(lat, buffer, dsp);
        }
        let constraints = Constraints {
            ports_per_buffer: self.lib.plm_ports_per_bank,
            dsp_issues_per_cycle: self.options.dsp_limit,
        };
        self.scheduler
            .schedule(&frame.cdfg, &frame.costs, constraints, &mut self.schedule);
        self.scheduler
            .bind_units(&frame.cdfg, &frame.costs, &self.schedule, &mut self.demand);
        for demand in &self.demand {
            let units = &mut self.kinds[demand.kind as usize].units;
            *units = (*units).max(demand.units);
        }
        Ok(self.schedule.length)
    }

    /// Total latency of a loop, recording a [`LoopReport`].
    fn loop_latency(&mut self, for_op: OpId, depth: usize) -> IrResult<u64> {
        let operation = self.module.op(for_op).expect("live");
        let region = operation.regions[0];
        let body = self.module.region(region).blocks[0];
        let trip = trip_count(self.module, for_op).unwrap_or(0);
        let mut frame = self.frames.pop().unwrap_or_default();
        let body_cycles = self.schedule_block(body, depth + 1, &mut frame)?;

        let iteration = body_cycles + 1;
        let (total, pipelined, ii) = if !frame.has_loop && self.options.pipeline && trip > 0 {
            let ii = self.initiation_interval(&frame, body_cycles);
            let total = (trip - 1)
                .checked_mul(ii)
                .and_then(|rest| rest.checked_add(body_cycles));
            (total, true, ii)
        } else if trip > 0 {
            let total = trip
                .checked_mul(iteration)
                .and_then(|all| all.checked_add(1));
            (total, false, iteration)
        } else {
            (Some(body_cycles + 2), false, iteration)
        };
        self.frames.push(frame);
        let total = total.ok_or_else(|| {
            cycle_overflow(format!(
                "the loop at depth {depth} runs {trip} iterations of {body_cycles} cycles: \
                 its cycle count does not fit 64 bits"
            ))
        })?;
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

    /// Initiation interval of the innermost loop whose body `frame`
    /// holds, graph and latencies as scheduled: max(resource MII,
    /// recurrence MII).
    fn initiation_interval(&mut self, frame: &Frame, body_cycles: u64) -> u64 {
        let Frame { cdfg, costs, .. } = frame;
        // Inside an II a nested region op counts one cycle and a copy
        // its issue cycle, not the burst it was scheduled as.
        self.ii_latency.clear();
        for (node, &scheduled) in cdfg.nodes.iter().zip(&costs.latency) {
            self.ii_latency.push(if node.has_regions {
                1
            } else if node.class == OpClass::Copy {
                self.kinds[node.kind as usize].latency
            } else {
                scheduled
            });
        }
        asap(cdfg, &self.ii_latency, &mut self.ii_asap);
        let start = &self.ii_asap.start;
        let latency = &self.ii_latency;

        // Resource MII: accesses per buffer / ports.
        self.accesses.reset();
        let mut busiest = 0;
        for (i, node) in cdfg.nodes.iter().enumerate() {
            if !matches!(node.class, OpClass::Load | OpClass::Store) {
                continue;
            }
            let buffer = costs.memory_buffer[i].expect("loads and stores name a buffer");
            let access = self.accesses.slot(buffer.index());
            access.count += 1;
            busiest = busiest.max(access.count);
            if node.class == OpClass::Load {
                access.first_load = access.first_load.min(start[i]);
            }
        }
        let ports = self.lib.plm_ports_per_bank as u64;
        let res_mii = busiest.div_ceil(ports).max(1);

        // Recurrence MII: loop-carried dependence through a buffer that is
        // both loaded and stored in the body (e.g. accumulator cells): the
        // path from the load to the store must complete before the next
        // iteration's load. Approximated by the ASAP distance from a load
        // to a store no earlier than it, plus the store latency; the
        // earliest load of the buffer gives the longest such span.
        let mut rec_mii = 1u64;
        for (i, node) in cdfg.nodes.iter().enumerate() {
            if node.class != OpClass::Store {
                continue;
            }
            let buffer = costs.memory_buffer[i].expect("stores name a buffer");
            let first_load = self.accesses.slot(buffer.index()).first_load;
            if start[i] >= first_load {
                rec_mii = rec_mii.max(start[i] + latency[i] - first_load);
            }
        }
        res_mii.max(rec_mii).min(body_cycles.max(1))
    }
}

fn cycle_overflow(message: String) -> IrError {
    IrError::Pass {
        pass: "hls.schedule".into(),
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ekl::{check::check, lower::lower_to_loops, parser::parse};

    fn axpy_module() -> Module {
        let program = check(
            &parse(
                "kernel axpy {
                   index i : 0..256
                   input a : [i]
                   input x : [i]
                   let y[i] = 2.0 * a[i] + x[i]
                   output y
                 }",
            )
            .unwrap(),
        )
        .unwrap();
        lower_to_loops(&program).unwrap()
    }

    fn dot_module() -> Module {
        let program = check(
            &parse(
                "kernel dot {
                   index i : 0..256
                   input a : [i]
                   input b : [i]
                   let d = sum(i)(a[i] * b[i])
                   output d
                 }",
            )
            .unwrap(),
        )
        .unwrap();
        lower_to_loops(&program).unwrap()
    }

    #[test]
    fn pipelining_improves_elementwise_latency() {
        let m = axpy_module();
        let pipelined = synthesize(&m, "axpy", HlsOptions::default()).unwrap();
        let sequential = synthesize(
            &m,
            "axpy",
            HlsOptions {
                pipeline: false,
                ..HlsOptions::default()
            },
        )
        .unwrap();
        assert!(
            pipelined.cycles * 3 < sequential.cycles,
            "pipelining should win big: {} vs {}",
            pipelined.cycles,
            sequential.cycles
        );
        // elementwise loop reaches II close to 1 with enough ports
        let inner = pipelined.loops.iter().find(|l| l.pipelined).unwrap();
        assert!(inner.ii <= 2, "got II {}", inner.ii);
    }

    #[test]
    fn reduction_has_recurrence_limited_ii() {
        let m = dot_module();
        let report = synthesize(&m, "dot", HlsOptions::default()).unwrap();
        let inner = report.loops.iter().find(|l| l.pipelined).unwrap();
        // The accumulator recurrence (load+addf+mul path+store) prevents II=1
        // in f64.
        assert!(
            inner.ii >= 8,
            "f64 accumulation cannot reach II 1, got {}",
            inner.ii
        );
    }

    #[test]
    fn fixed_point_shrinks_recurrence_and_latency() {
        let m = dot_module();
        let double = synthesize(&m, "dot", HlsOptions::default()).unwrap();
        let fixed = synthesize(
            &m,
            "dot",
            HlsOptions {
                format: NumericFormat::Fixed(everest_ir::FixedFormat::signed(15, 16)),
                ..HlsOptions::default()
            },
        )
        .unwrap();
        assert!(
            fixed.cycles < double.cycles / 2,
            "fixed point should slash the reduction latency: {} vs {}",
            fixed.cycles,
            double.cycles
        );
        assert!(fixed.area.dsps <= double.area.dsps);
    }

    #[test]
    fn unrolling_trades_area_for_cycles() {
        let m = axpy_module();
        let base = synthesize(
            &m,
            "axpy",
            HlsOptions {
                partition: 4,
                unroll: 1,
                ..HlsOptions::default()
            },
        )
        .unwrap();
        let unrolled = synthesize(
            &m,
            "axpy",
            HlsOptions {
                partition: 4,
                unroll: 4,
                ..HlsOptions::default()
            },
        )
        .unwrap();
        assert!(
            unrolled.cycles < base.cycles,
            "unroll+partition should cut cycles: {} vs {}",
            unrolled.cycles,
            base.cycles
        );
        assert!(
            unrolled.area.luts > base.area.luts,
            "unrolling must cost area: {} vs {}",
            unrolled.area.luts,
            base.area.luts
        );
    }

    #[test]
    fn report_carries_time_and_bytes() {
        let m = axpy_module();
        let report = synthesize(&m, "axpy", HlsOptions::default()).unwrap();
        assert!(report.time_us > 0.0);
        assert!((report.fmax_mhz - 300.0).abs() < 1.0);
        // two input buffers of 256 f64 plus the output buffer
        assert_eq!(report.bytes_per_call, 3 * 256 * 8);
    }

    #[test]
    fn licm_reduces_cycles() {
        let m = axpy_module();
        let base = synthesize(&m, "axpy", HlsOptions::default()).unwrap();
        let hoisted = synthesize(
            &m,
            "axpy",
            HlsOptions {
                licm: true,
                ..HlsOptions::default()
            },
        )
        .unwrap();
        assert!(
            hoisted.cycles <= base.cycles,
            "LICM must not regress: {} vs {}",
            hoisted.cycles,
            base.cycles
        );
        // the non-pipelined case benefits most: the hoisted constant no
        // longer occupies body schedule slots
        let base_seq = synthesize(
            &m,
            "axpy",
            HlsOptions {
                pipeline: false,
                ..HlsOptions::default()
            },
        )
        .unwrap();
        let licm_seq = synthesize(
            &m,
            "axpy",
            HlsOptions {
                pipeline: false,
                licm: true,
                ..HlsOptions::default()
            },
        )
        .unwrap();
        assert!(licm_seq.cycles <= base_seq.cycles);
    }

    /// `sum(i)(sum(j)(sum(k)(..)))` over `0..trip` each, lowered.
    fn triple_reduction(trip: u64) -> Module {
        let source = format!(
            "kernel big {{
               index i : 0..{trip}
               index j : 0..{trip}
               index k : 0..{trip}
               input a : [i]
               let d = sum(i)(sum(j)(sum(k)(a[i])))
               output d
             }}"
        );
        lower_to_loops(&check(&parse(&source).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn cycle_counts_past_64_bits_are_refused_with_depth_and_trip_count() {
        // In range: the unchecked arithmetic this replaced agrees.
        let report = synthesize(&triple_reduction(1000), "big", HlsOptions::default()).unwrap();
        let [inner, middle, outer] = &report.loops[..] else {
            panic!("three loops: {:?}", report.loops);
        };
        assert_eq!(
            inner.total_cycles,
            inner.body_cycles + (inner.trip_count - 1) * inner.ii
        );
        assert!(middle.body_cycles > inner.total_cycles);
        assert_eq!(middle.total_cycles, 1000 * (middle.body_cycles + 1) + 1);
        assert_eq!(outer.total_cycles, 1000 * (outer.body_cycles + 1) + 1);

        let module = triple_reduction(4_000_000_000);
        for pipeline in [true, false] {
            let options = HlsOptions {
                pipeline,
                ..HlsOptions::default()
            };
            let err = synthesize(&module, "big", options).unwrap_err();
            let IrError::Pass { pass, message } = &err else {
                panic!("expected a scheduling error, got {err}");
            };
            assert_eq!(pass, "hls.schedule");
            assert!(
                message.contains("depth 1") && message.contains("4000000000 iterations"),
                "{message}"
            );
        }
    }

    #[test]
    fn sibling_loops_summing_past_the_cycle_limit_are_refused() {
        // Each loop nest takes some 3e18 cycles, which fits; the block
        // that schedules the two one after the other adds them.
        let source = "kernel twice {
            index i : 0..300000000
            index j : 0..1000000000
            input a : [i]
            let d = sum(i)(sum(j)(a[i]))
            let e = sum(i)(sum(j)(a[i] * d))
            output e
        }";
        let module = lower_to_loops(&check(&parse(source).unwrap()).unwrap()).unwrap();
        let err = synthesize(&module, "twice", HlsOptions::default()).unwrap_err();
        assert!(
            matches!(&err, IrError::Pass { message, .. } if message.contains("2^62")),
            "{err}"
        );
    }

    #[test]
    fn missing_function_errors() {
        let m = Module::new();
        assert!(synthesize(&m, "ghost", HlsOptions::default()).is_err());
    }

    #[test]
    fn text_report_contains_all_sections() {
        let m = axpy_module();
        let report = synthesize(&m, "axpy", HlsOptions::default()).unwrap();
        let text = report.to_text();
        assert!(text.contains("Synthesis report: axpy"));
        assert!(text.contains("latency"));
        assert!(text.contains("resources"));
        assert!(text.contains("loops:"));
        assert!(text.contains("functional units:"));
        assert!(text.contains("arith.addf"));
    }

    #[test]
    fn dsp_limit_slows_multiplier_heavy_code() {
        let program = check(
            &parse(
                "kernel mulheavy {
                   index i : 0..64
                   input a : [i]
                   let y[i] = a[i] * a[i] * a[i] * a[i] * a[i]
                   output y
                 }",
            )
            .unwrap(),
        )
        .unwrap();
        let m = lower_to_loops(&program).unwrap();
        let free = synthesize(
            &m,
            "mulheavy",
            HlsOptions {
                unroll: 8,
                partition: 8,
                dsp_limit: None,
                ..HlsOptions::default()
            },
        )
        .unwrap();
        let limited = synthesize(
            &m,
            "mulheavy",
            HlsOptions {
                unroll: 8,
                partition: 8,
                dsp_limit: Some(1),
                ..HlsOptions::default()
            },
        )
        .unwrap();
        assert!(
            limited.cycles >= free.cycles,
            "dsp limit cannot make it faster: {} vs {}",
            limited.cycles,
            free.cycles
        );
    }
}

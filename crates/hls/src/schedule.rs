//! Operation scheduling: ASAP, ALAP and resource-constrained list
//! scheduling, plus functional-unit binding estimation.
//!
//! Every routine writes into storage its caller keeps (`&mut Schedule`,
//! a `ListScheduler`), so scheduling the thousandth block of a kernel
//! allocates as little as the first.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use everest_ir::{Symbol, ValueId};

use crate::cdfg::BlockCdfg;

/// Per-node scheduling inputs.
#[derive(Debug, Clone, Default)]
pub struct NodeCosts {
    /// Latency in cycles of each CDFG node (0 allowed for free ops).
    pub latency: Vec<u64>,
    /// For memory ops, the buffer they access (port constraints apply).
    pub memory_buffer: Vec<Option<ValueId>>,
    /// Whether the node consumes a DSP-issue slot.
    pub uses_dsp: Vec<bool>,
}

impl NodeCosts {
    /// Empties the three columns, keeping their storage.
    pub fn clear(&mut self) {
        self.latency.clear();
        self.memory_buffer.clear();
        self.uses_dsp.clear();
    }

    /// Appends one node.
    pub fn push(&mut self, latency: u64, memory_buffer: Option<ValueId>, uses_dsp: bool) {
        self.latency.push(latency);
        self.memory_buffer.push(memory_buffer);
        self.uses_dsp.push(uses_dsp);
    }
}

/// Scheduling constraints.
#[derive(Debug, Clone, Copy)]
pub struct Constraints {
    /// Concurrent accesses allowed per buffer per cycle.
    pub ports_per_buffer: u32,
    /// Maximum DSP-consuming issues per cycle (`None` = unlimited).
    pub dsp_issues_per_cycle: Option<u32>,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            ports_per_buffer: 2,
            dsp_issues_per_cycle: None,
        }
    }
}

/// A computed schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// Start cycle of each node.
    pub start: Vec<u64>,
    /// Total cycles (max finish time).
    pub length: u64,
}

/// As-soon-as-possible schedule (dependences only) under the given
/// per-node latencies, into `out`.
pub fn asap(cdfg: &BlockCdfg, latency: &[u64], out: &mut Schedule) {
    let n = cdfg.nodes.len();
    out.start.clear();
    out.start.resize(n, 0);
    out.length = 0;
    for i in 0..n {
        let mut earliest = 0;
        for &(p, _) in cdfg.preds(i) {
            earliest = earliest.max(out.start[p as usize] + latency[p as usize]);
        }
        out.start[i] = earliest;
        out.length = out.length.max(earliest + latency[i]);
    }
}

/// As-late-as-possible schedule for a given deadline, into `out`.
pub fn alap(cdfg: &BlockCdfg, latency: &[u64], deadline: u64, out: &mut Schedule) {
    let n = cdfg.nodes.len();
    out.start.clear();
    out.start
        .extend(latency[..n].iter().map(|&l| deadline.saturating_sub(l)));
    out.length = deadline;
    // Successors come later in program order, so by the time a node is
    // reached in reverse its own start is final and can bound its
    // predecessors': no successor lists needed.
    for i in (0..n).rev() {
        let start = out.start[i];
        for &(p, _) in cdfg.preds(i) {
            let p = p as usize;
            out.start[p] = out.start[p].min(start.saturating_sub(latency[p]));
        }
    }
}

/// A multiply-rotate hasher for the scheduler's own integer keys
/// (cycles and arena ids, never outside input): the default SipHash
/// cost more than the schedule it served.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(byte as u64);
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word as u64);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type IdMap<K> = HashMap<K, u32, BuildHasherDefault<IdHasher>>;

/// Functional units one block needs of one operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UnitDemand {
    /// The kind ([`crate::cdfg::CdfgNode::kind`]).
    pub kind: u32,
    /// Its op name.
    pub name: Symbol,
    /// Peak number of simultaneously executing instances.
    pub units: u64,
}

/// The list scheduler and unit binder, with the working storage they
/// reuse from block to block.
#[derive(Debug, Default)]
pub(crate) struct ListScheduler {
    asap: Schedule,
    alap: Schedule,
    order: Vec<u32>,
    scheduled: Vec<bool>,
    /// (cycle, buffer) -> used ports; cycle -> DSP issues. Start times
    /// at the top level run into the millions, so these stay sparse.
    port_use: IdMap<(u64, u32)>,
    dsp_use: IdMap<u64>,
    /// (kind, cycle, is a start, node) per latency-carrying node end.
    events: Vec<(u32, u64, bool, u32)>,
}

impl ListScheduler {
    /// Resource-constrained list scheduling, into `out`.
    ///
    /// Priority is ALAP slack (critical ops first). Port and DSP
    /// constraints limit issues per cycle; latency-0 ops are free and
    /// issue with their dependences in the same cycle.
    pub(crate) fn schedule(
        &mut self,
        cdfg: &BlockCdfg,
        costs: &NodeCosts,
        constraints: Constraints,
        out: &mut Schedule,
    ) {
        let n = cdfg.nodes.len();
        out.start.clear();
        out.length = 0;
        if n == 0 {
            return;
        }
        asap(cdfg, &costs.latency, &mut self.asap);
        alap(cdfg, &costs.latency, self.asap.length, &mut self.alap);
        let alap_start = &self.alap.start;
        self.order.clear();
        self.order.extend(0..n as u32);
        self.order
            .sort_unstable_by_key(|&i| (alap_start[i as usize], i));

        let start = &mut out.start;
        start.resize(n, u64::MAX);
        self.scheduled.clear();
        self.scheduled.resize(n, false);
        self.port_use.clear();
        self.dsp_use.clear();
        let mut remaining = n;
        let mut length = 0;

        while remaining > 0 {
            let mut progressed = false;
            for &i in &self.order {
                let i = i as usize;
                if self.scheduled[i] {
                    continue;
                }
                // earliest start by dependences
                let mut earliest = 0;
                let mut ready = true;
                for &(p, _) in cdfg.preds(i) {
                    let p = p as usize;
                    if !self.scheduled[p] {
                        ready = false;
                        break;
                    }
                    earliest = earliest.max(start[p] + costs.latency[p]);
                }
                if !ready {
                    continue;
                }
                // find the first cycle satisfying resource constraints
                let buffer = costs.memory_buffer[i].map(|b| b.index() as u32);
                let dsp_limit = constraints
                    .dsp_issues_per_cycle
                    .filter(|_| costs.uses_dsp[i]);
                let mut t = earliest;
                loop {
                    let port_free = buffer.is_none_or(|b| {
                        self.port_use.get(&(t, b)).copied().unwrap_or(0)
                            < constraints.ports_per_buffer
                    });
                    let dsp_free = dsp_limit
                        .is_none_or(|limit| self.dsp_use.get(&t).copied().unwrap_or(0) < limit);
                    if port_free && dsp_free {
                        break;
                    }
                    t += 1;
                }
                start[i] = t;
                self.scheduled[i] = true;
                remaining -= 1;
                progressed = true;
                if let Some(b) = buffer {
                    *self.port_use.entry((t, b)).or_insert(0) += 1;
                }
                if dsp_limit.is_some() {
                    *self.dsp_use.entry(t).or_insert(0) += 1;
                }
                length = length.max(t + costs.latency[i]);
            }
            assert!(progressed, "list scheduling must make progress (cycle?)");
        }
        out.length = length;
    }

    /// Estimates the number of functional units needed per operation
    /// kind — the maximum number of simultaneously executing instances —
    /// into `out`, one entry per kind with a latency-carrying node.
    pub(crate) fn bind_units(
        &mut self,
        cdfg: &BlockCdfg,
        costs: &NodeCosts,
        schedule: &Schedule,
        out: &mut Vec<UnitDemand>,
    ) {
        out.clear();
        // Sweep events: +1 at start, -1 at end per kind; at one cycle an
        // end sorts before a start, so back-to-back ops share a unit.
        self.events.clear();
        for (i, node) in cdfg.nodes.iter().enumerate() {
            if costs.latency[i] == 0 {
                continue;
            }
            let begin = schedule.start[i];
            self.events.push((node.kind, begin, true, i as u32));
            self.events
                .push((node.kind, begin + costs.latency[i], false, i as u32));
        }
        self.events.sort_unstable();
        let mut events = self.events.iter().copied().peekable();
        while let Some(&(kind, _, _, node)) = events.peek() {
            let mut current = 0u64;
            let mut peak = 0u64;
            while let Some((_, _, is_start, _)) = events.next_if(|e| e.0 == kind) {
                if is_start {
                    current += 1;
                    peak = peak.max(current);
                } else {
                    current -= 1;
                }
            }
            out.push(UnitDemand {
                kind,
                name: cdfg.nodes[node as usize].name,
                units: peak,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::dialects::core::{alloc, binary, const_f64};
    use everest_ir::module::Module;
    use everest_ir::types::{MemorySpace, Type};

    /// Builds: 4 independent loads from one buffer feeding an add tree.
    fn load_tree(module: &mut Module) -> (everest_ir::BlockId, ValueId) {
        let top = module.top_block();
        let buf = alloc(module, top, Type::memref(&[8], Type::F64, MemorySpace::Plm));
        let mut leaves = Vec::new();
        for k in 0..4 {
            let i = everest_ir::dialects::core::const_index(module, top, k);
            let l = module
                .build_op("memref.load", [buf, i], [Type::F64])
                .append_to(top);
            leaves.push(everest_ir::module::single_result(module, l));
        }
        let a = binary(module, top, "arith.addf", leaves[0], leaves[1]);
        let b = binary(module, top, "arith.addf", leaves[2], leaves[3]);
        let _r = binary(module, top, "arith.addf", a, b);
        (top, buf)
    }

    fn costs_for(module: &Module, cdfg: &BlockCdfg) -> NodeCosts {
        let lib = crate::resources::CostLibrary::default();
        let mut costs = NodeCosts::default();
        for node in &cdfg.nodes {
            let op = module.op(node.op).unwrap();
            let cost = lib.op_cost(
                &node.name,
                op.results.first().map(|&r| module.value_type(r)),
                crate::resources::NumericFormat::F64,
            );
            costs.push(
                cost.latency as u64,
                match node.name.as_str() {
                    "memref.load" => Some(op.operands[0]),
                    "memref.store" => Some(op.operands[1]),
                    _ => None,
                },
                cost.area.dsps > 0,
            );
        }
        costs
    }

    fn list_schedule(cdfg: &BlockCdfg, costs: &NodeCosts, constraints: Constraints) -> Schedule {
        let mut schedule = Schedule::default();
        ListScheduler::default().schedule(cdfg, costs, constraints, &mut schedule);
        schedule
    }

    #[test]
    fn asap_respects_dependences() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = const_f64(&mut m, top, 1.0);
        let b = const_f64(&mut m, top, 2.0);
        let s = binary(&mut m, top, "arith.addf", a, b);
        let _p = binary(&mut m, top, "arith.mulf", s, s);
        let cdfg = BlockCdfg::build(&m, top);
        let costs = costs_for(&m, &cdfg);
        let mut sched = Schedule::default();
        asap(&cdfg, &costs.latency, &mut sched);
        // constants at 0, add at 0 (constants are latency 0), mul at 7
        assert_eq!(sched.start[2], 0);
        assert_eq!(sched.start[3], 7);
        assert_eq!(sched.length, 15);
    }

    #[test]
    fn alap_pushes_ops_late() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = const_f64(&mut m, top, 1.0);
        let b = const_f64(&mut m, top, 2.0);
        let _s = binary(&mut m, top, "arith.addf", a, b);
        let cdfg = BlockCdfg::build(&m, top);
        let costs = costs_for(&m, &cdfg);
        let mut sched = Schedule::default();
        alap(&cdfg, &costs.latency, 20, &mut sched);
        assert_eq!(sched.start[2], 13); // 20 - 7
        assert_eq!(sched.start[..2], [13, 13], "constants wait for their use");
    }

    #[test]
    fn port_constraints_serialize_loads() {
        let mut m = Module::new();
        let (top, _buf) = load_tree(&mut m);
        let cdfg = BlockCdfg::build(&m, top);
        let costs = costs_for(&m, &cdfg);

        let unconstrained = list_schedule(
            &cdfg,
            &costs,
            Constraints {
                ports_per_buffer: 4,
                dsp_issues_per_cycle: None,
            },
        );
        let constrained = list_schedule(
            &cdfg,
            &costs,
            Constraints {
                ports_per_buffer: 1,
                dsp_issues_per_cycle: None,
            },
        );
        assert!(
            constrained.length > unconstrained.length,
            "1 port ({}) must be slower than 4 ports ({})",
            constrained.length,
            unconstrained.length
        );
    }

    #[test]
    fn list_schedule_never_violates_dependences() {
        let mut m = Module::new();
        let (top, _buf) = load_tree(&mut m);
        let cdfg = BlockCdfg::build(&m, top);
        let costs = costs_for(&m, &cdfg);
        let sched = list_schedule(&cdfg, &costs, Constraints::default());
        for i in 0..cdfg.nodes.len() {
            for &(p, _) in cdfg.preds(i) {
                let p = p as usize;
                assert!(
                    sched.start[i] >= sched.start[p] + costs.latency[p],
                    "node {i} starts before its dependence {p} finishes"
                );
            }
        }
    }

    #[test]
    fn binding_counts_peak_concurrency() {
        let mut m = Module::new();
        let (top, _buf) = load_tree(&mut m);
        let cdfg = BlockCdfg::build(&m, top);
        let costs = costs_for(&m, &cdfg);
        let mut sched = Schedule::default();
        asap(&cdfg, &costs.latency, &mut sched);
        let mut units = Vec::new();
        ListScheduler::default().bind_units(&cdfg, &costs, &sched, &mut units);
        // the two first-level adds run concurrently; the third is serial
        let adders = units.iter().find(|u| u.name == "arith.addf");
        assert_eq!(adders.map(|u| u.units), Some(2));
        // constants and the alloc take no cycles, so no unit
        assert_eq!(units.len(), 2, "loads and adds: {units:?}");
    }

    #[test]
    fn empty_block_schedules_to_zero() {
        let m = Module::new();
        let cdfg = BlockCdfg::build(&m, m.top_block());
        let sched = list_schedule(&cdfg, &NodeCosts::default(), Constraints::default());
        assert_eq!(sched.length, 0);
    }
}

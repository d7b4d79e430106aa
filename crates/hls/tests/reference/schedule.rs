//! `everest_hls::schedule` as of the commit before the dense tables:
//! successor lists for ALAP, SipHash maps for port and DSP use, a map of
//! event vectors keyed by op name for the binder.

use std::collections::HashMap;

use everest_ir::ValueId;

use super::cdfg::BlockCdfg;

/// Per-node scheduling inputs.
#[derive(Debug, Clone)]
pub(crate) struct NodeCosts {
    /// Latency in cycles of each CDFG node (0 allowed for free ops).
    pub latency: Vec<u64>,
    /// For memory ops, the buffer they access (port constraints apply).
    pub memory_buffer: Vec<Option<ValueId>>,
    /// Whether the node consumes a DSP-issue slot.
    pub uses_dsp: Vec<bool>,
}

/// Scheduling constraints.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Constraints {
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Schedule {
    /// Start cycle of each node.
    pub start: Vec<u64>,
    /// Total cycles (max finish time).
    pub length: u64,
}

/// As-soon-as-possible schedule (dependences only).
pub(crate) fn asap(cdfg: &BlockCdfg, costs: &NodeCosts) -> Schedule {
    let mut start = vec![0u64; cdfg.nodes.len()];
    let mut length = 0;
    for (i, node) in cdfg.nodes.iter().enumerate() {
        let mut earliest = 0;
        for &(p, _) in &node.preds {
            earliest = earliest.max(start[p] + costs.latency[p]);
        }
        start[i] = earliest;
        length = length.max(earliest + costs.latency[i]);
    }
    Schedule { start, length }
}

/// As-late-as-possible schedule for a given deadline.
pub(crate) fn alap(cdfg: &BlockCdfg, costs: &NodeCosts, deadline: u64) -> Schedule {
    let succs = cdfg.successors();
    let n = cdfg.nodes.len();
    let mut start = vec![0u64; n];
    for i in (0..n).rev() {
        let mut latest = deadline.saturating_sub(costs.latency[i]);
        for &s in &succs[i] {
            latest = latest.min(start[s].saturating_sub(costs.latency[i]));
        }
        start[i] = latest;
    }
    Schedule {
        start,
        length: deadline,
    }
}

/// Resource-constrained list scheduling.
///
/// Priority is ALAP slack (critical ops first). Port and DSP constraints
/// limit issues per cycle; latency-0 ops are free and issue with their
/// dependences in the same cycle.
pub(crate) fn list_schedule(
    cdfg: &BlockCdfg,
    costs: &NodeCosts,
    constraints: Constraints,
) -> Schedule {
    let n = cdfg.nodes.len();
    if n == 0 {
        return Schedule {
            start: Vec::new(),
            length: 0,
        };
    }
    let unconstrained = asap(cdfg, costs);
    let alap_sched = alap(cdfg, costs, unconstrained.length);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (alap_sched.start[i], i));

    let mut start = vec![u64::MAX; n];
    let mut scheduled = vec![false; n];
    // (cycle, buffer) -> used ports ; cycle -> dsp issues
    let mut port_use: HashMap<(u64, ValueId), u32> = HashMap::new();
    let mut dsp_use: HashMap<u64, u32> = HashMap::new();
    let mut remaining = n;
    let mut length = 0;

    while remaining > 0 {
        let mut progressed = false;
        for &i in &order {
            if scheduled[i] {
                continue;
            }
            // earliest start by dependences
            let mut earliest = 0;
            let mut ready = true;
            for &(p, _) in &cdfg.nodes[i].preds {
                if !scheduled[p] {
                    ready = false;
                    break;
                }
                earliest = earliest.max(start[p] + costs.latency[p]);
            }
            if !ready {
                continue;
            }
            // find the first cycle satisfying resource constraints
            let mut t = earliest;
            loop {
                let mut ok = true;
                if let Some(buffer) = costs.memory_buffer[i] {
                    let used = port_use.get(&(t, buffer)).copied().unwrap_or(0);
                    if used >= constraints.ports_per_buffer {
                        ok = false;
                    }
                }
                if ok && costs.uses_dsp[i] {
                    if let Some(limit) = constraints.dsp_issues_per_cycle {
                        if dsp_use.get(&t).copied().unwrap_or(0) >= limit {
                            ok = false;
                        }
                    }
                }
                if ok {
                    break;
                }
                t += 1;
            }
            start[i] = t;
            scheduled[i] = true;
            remaining -= 1;
            progressed = true;
            if let Some(buffer) = costs.memory_buffer[i] {
                *port_use.entry((t, buffer)).or_insert(0) += 1;
            }
            if costs.uses_dsp[i] {
                *dsp_use.entry(t).or_insert(0) += 1;
            }
            length = length.max(t + costs.latency[i]);
        }
        assert!(progressed, "list scheduling must make progress (cycle?)");
    }
    Schedule { start, length }
}

/// Estimates the number of functional units needed per operation kind:
/// the maximum number of simultaneously executing instances.
pub(crate) fn bind_units(
    cdfg: &BlockCdfg,
    costs: &NodeCosts,
    schedule: &Schedule,
) -> HashMap<String, u64> {
    // Sweep events: +1 at start, -1 at end per kind. Keyed on the
    // interned name while sweeping (no clone per node); rendered to
    // `String` only once per kind for the stable public result.
    let mut events: HashMap<everest_ir::Symbol, Vec<(u64, i64)>> = HashMap::new();
    for (i, node) in cdfg.nodes.iter().enumerate() {
        if costs.latency[i] == 0 {
            continue;
        }
        let e = events.entry(node.name).or_default();
        e.push((schedule.start[i], 1));
        e.push((schedule.start[i] + costs.latency[i], -1));
    }
    let mut result = HashMap::new();
    for (kind, mut evs) in events {
        evs.sort();
        let mut current = 0i64;
        let mut peak = 0i64;
        for (_, delta) in evs {
            current += delta;
            peak = peak.max(current);
        }
        result.insert(kind.to_string(), peak as u64);
    }
    result
}

//! The materialising arrival generator `everest_serve::ArrivalStream`
//! replaced, kept verbatim as the reference the stream is held to
//! (`stream_matches_the_materialising_reference` in `arrival_props.rs`).
//!
//! Every tenant's whole trace is drawn into its own vector, then the
//! vectors are merged into one: memory proportional to the horizon, and
//! obviously the order a stable sort by `(arrival_us, tenant)` gives.
//! It panics on an empty class table, where the stream yields nothing.

use everest_faults::DetRng;
use everest_serve::{KernelClass, Request, TenantSpec};

/// The body of `ArrivalTrace::synthesize` as of the commit before the
/// stream, returning the merged requests.
pub(crate) fn synthesize(
    seed: u64,
    tenants: &[TenantSpec],
    classes: &[KernelClass],
    horizon_us: f64,
    offered_rps: f64,
) -> Vec<Request> {
    assert!(!classes.is_empty(), "arrival trace needs a kernel class");
    let total_weight: f64 = tenants.iter().map(|t| t.weight.max(0.0)).sum();
    let root = DetRng::new(seed);
    let mut streams: Vec<Vec<Request>> = Vec::with_capacity(tenants.len());
    for (index, tenant) in tenants.iter().enumerate() {
        let share = if total_weight > 0.0 {
            tenant.weight.max(0.0) / total_weight
        } else {
            1.0 / tenants.len() as f64
        };
        let rate_rps = offered_rps * share;
        if rate_rps <= 0.0 {
            continue;
        }
        let mean_gap_us = 1.0e6 / rate_rps;
        let mut rng = root.fork(0x5E21_u64.wrapping_add(index as u64));
        let mut at_us = 0.0;
        let mut stream = Vec::with_capacity((rate_rps * horizon_us / 1.0e6) as usize + 16);
        loop {
            // Exponential interarrival via inverse transform; the
            // draw is in [0, 1) so the argument to ln stays in
            // (0, 1] and the gap is finite and positive.
            let gap = -mean_gap_us * (1.0 - rng.next_unit()).ln();
            at_us += gap;
            if at_us >= horizon_us {
                break;
            }
            let class = rng.index(classes.len());
            stream.push(Request {
                id: 0,
                tenant: index,
                class,
                arrival_us: at_us,
                attempt: 0,
            });
        }
        streams.push(stream);
    }
    // Each tenant's stream is already time-ordered (gaps are
    // non-negative), so a k-way merge replaces the global sort.
    // Scanning streams in tenant order and replacing the leader
    // only on a strictly earlier timestamp reproduces the
    // `(arrival_us, tenant)` order a stable sort would give.
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut requests = Vec::with_capacity(total);
    let mut cursors = vec![0usize; streams.len()];
    for id in 0..total {
        let mut leader: Option<usize> = None;
        for (index, stream) in streams.iter().enumerate() {
            let Some(head) = stream.get(cursors[index]) else {
                continue;
            };
            match leader {
                None => leader = Some(index),
                Some(current) => {
                    let ahead = streams[current][cursors[current]].arrival_us;
                    if head.arrival_us.total_cmp(&ahead).is_lt() {
                        leader = Some(index);
                    }
                }
            }
        }
        let index = leader.expect("cursors exhausted early");
        let mut request = streams[index][cursors[index]];
        cursors[index] += 1;
        request.id = id as u64;
        requests.push(request);
    }
    requests
}

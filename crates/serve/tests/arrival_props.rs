//! Property tests over the arrival stream: whatever the tenant table,
//! load, horizon and seed, `ArrivalStream` yields exactly the trace the
//! materialising generator it replaced would have built — same
//! requests, same order, same ids, arrival times equal to the bit.
//!
//! Mutation-checked when written: a merge comparator that sends ties to
//! the later tenant (the old loop's `is_lt` turned `is_le`) fails
//! `ties_go_to_the_lower_tenant_index` (a unit test in `request.rs` —
//! seeded streams never tie, so the rule is pinned on hand-made heads
//! there); forking tenant `index`'s substream from
//! `index + 1`, or from its position among the lanes that carry load,
//! fails the reference property at its first case; forking it from
//! `tenants.len() - index` fails both properties.

mod reference;

use proptest::prelude::*;

use everest_serve::{ArrivalStream, KernelClass, Request, TenantSpec};

fn tenants(weights: &[i32]) -> Vec<TenantSpec> {
    weights
        .iter()
        .enumerate()
        .map(|(i, &w)| TenantSpec::new(&format!("t{i}"), f64::from(w), 1_000.0, 8.0))
        .collect()
}

fn classes(count: usize) -> Vec<KernelClass> {
    (0..count)
        .map(|i| KernelClass::new(&format!("c{i}"), 400.0, 40.0, 120.0, 5_000.0, 4_096))
        .collect()
}

/// Field-for-field equality with arrival times compared by bits.
fn same(a: &Request, b: &Request) -> bool {
    (a.id, a.tenant, a.class, a.attempt) == (b.id, b.tenant, b.class, b.attempt)
        && a.arrival_us.to_bits() == b.arrival_us.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Weights span negative, zero and positive (a single tenant, or
    /// several unlucky ones, make the all-zero table whose load is
    /// split evenly); rates run from none to 50 k rps in 1 k steps,
    /// horizons from 0.1 to 200 ms.
    #[test]
    fn stream_matches_the_materialising_reference(
        weights in proptest::collection::vec(-2i32..6, 1..7),
        class_count in 1usize..5,
        krps in 0u32..51,
        horizon_us in 100.0f64..200_000.0,
        seed in any::<u64>(),
    ) {
        let (tenants, classes) = (tenants(&weights), classes(class_count));
        let offered_rps = f64::from(krps) * 1_000.0;
        let expected = reference::synthesize(seed, &tenants, &classes, horizon_us, offered_rps);
        let streamed: Vec<Request> =
            ArrivalStream::new(seed, &tenants, &classes, horizon_us, offered_rps).collect();
        prop_assert_eq!(streamed.len(), expected.len());
        for (index, (got, want)) in streamed.iter().zip(&expected).enumerate() {
            prop_assert!(same(got, want), "request {index}: {got:?} vs {want:?}");
            prop_assert_eq!(got.id, index as u64, "ids are dense from zero");
            prop_assert!(got.arrival_us < horizon_us);
        }
        for pair in streamed.windows(2) {
            prop_assert!(pair[0].arrival_us <= pair[1].arrival_us, "{pair:?}");
        }
    }

    /// "Adding a tenant never perturbs another tenant's arrivals": a
    /// tenant's substream is forked from its index alone. A newcomer
    /// does take a share of the load, so to hold the others' rates the
    /// newcomer brings the table's whole weight again and the offered
    /// load doubles — halving a share and doubling a rate are both
    /// exact in floating point, so every original tenant's arrivals
    /// must come out equal to the bit.
    #[test]
    fn adding_a_tenant_never_perturbs_another_tenants_arrivals(
        weights in proptest::collection::vec(0i32..6, 1..6),
        class_count in 1usize..5,
        krps in 1u32..26,
        horizon_us in 100.0f64..100_000.0,
        seed in any::<u64>(),
    ) {
        let total: i32 = weights.iter().sum();
        if total == 0 {
            // An all-zero table splits evenly by head count, which a
            // newcomer of any weight changes: nothing to hold fixed.
            return Ok(());
        }
        let classes = classes(class_count);
        let offered_rps = f64::from(krps) * 1_000.0;
        let mut grown = weights.clone();
        grown.push(total);
        let before: Vec<Request> =
            ArrivalStream::new(seed, &tenants(&weights), &classes, horizon_us, offered_rps)
                .collect();
        let after: Vec<Request> =
            ArrivalStream::new(seed, &tenants(&grown), &classes, horizon_us, 2.0 * offered_rps)
                .filter(|r| r.tenant < weights.len())
                .collect();
        prop_assert_eq!(before.len(), after.len());
        for (got, want) in after.iter().zip(&before) {
            // Ids count the newcomer's requests too; everything else
            // is the original tenant's own.
            prop_assert!(same(&Request { id: want.id, ..*got }, want), "{got:?} vs {want:?}");
        }
    }
}

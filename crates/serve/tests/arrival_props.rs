//! Property tests over the arrival stream: whatever the tenant table,
//! load, horizon and seed, `ArrivalStream` yields exactly the trace the
//! materialising generator it replaced would have built — same
//! requests, same order, same ids, arrival times equal to the bit.
//!
//! Mutation-checked when written: a leader selection that sends ties to
//! the later tenant (`leader`'s strict `<` turned `<=`) fails
//! `ties_go_to_the_lower_tenant_index` (a unit test in `request.rs` —
//! seeded streams never tie, so the rule is pinned on hand-made head
//! arrays there); forking tenant `index`'s substream from
//! `index + 1`, or from its position among the lanes that carry load,
//! fails the reference property at its first case; forking it from
//! `tenants.len() - index` fails both properties.
//!
//! Each tenant lane draws [`ArrivalStream::BLOCK`] arrivals ahead, so
//! the reference property is only as good as the lane shapes its cases
//! reach; `the_reference_property_reaches_every_lane_shape` replays
//! them.

mod reference;

use std::collections::BTreeSet;

use proptest::prelude::*;

use everest_serve::{ArrivalStream, KernelClass, Request, TenantSpec};

/// Cases of `stream_matches_the_materialising_reference`.
const REFERENCE_CASES: u32 = 192;

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
    #![proptest_config(ProptestConfig::with_cases(REFERENCE_CASES))]

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

/// The cases of `stream_matches_the_materialising_reference` reach
/// every shape a lane's blocks can take: a lane that draws a third
/// block, one whose arrivals end exactly on a block boundary (so the
/// refill after its last full block yields nothing), one that ends
/// mid-block, and a tenant with a zero share of a positive load, which
/// gets no lane at all.
#[test]
fn the_reference_property_reaches_every_lane_shape() {
    const BLOCK: usize = ArrivalStream::BLOCK;
    let mut reached = BTreeSet::new();
    for case in 0..REFERENCE_CASES {
        let mut rng = TestRng::for_case(
            "arrival_props::stream_matches_the_materialising_reference",
            case,
        );
        // The property's strategies, in its argument order.
        let weights = proptest::collection::vec(-2i32..6, 1..7).generate(&mut rng);
        let class_count = (1usize..5).generate(&mut rng);
        let krps = (0u32..51).generate(&mut rng);
        let horizon_us = (100.0f64..200_000.0).generate(&mut rng);
        let seed = any::<u64>().generate(&mut rng);

        let tenants = tenants(&weights);
        let offered_rps = f64::from(krps) * 1_000.0;
        let mut arrivals = vec![0usize; tenants.len()];
        for request in ArrivalStream::new(
            seed,
            &tenants,
            &classes(class_count),
            horizon_us,
            offered_rps,
        ) {
            arrivals[request.tenant] += 1;
        }
        let positive = weights.iter().any(|&w| w > 0);
        for (&weight, &count) in weights.iter().zip(&arrivals) {
            if krps > 0 && positive && weight <= 0 {
                reached.insert("a tenant with a zero share");
            }
            if count > 2 * BLOCK {
                reached.insert("a lane that refills at least twice");
            }
            if count > 0 && count % BLOCK == 0 {
                reached.insert("a lane that ends on a block boundary");
            }
            if count % BLOCK != 0 {
                reached.insert("a lane that ends mid-block");
            }
        }
    }
    let want = BTreeSet::from([
        "a tenant with a zero share",
        "a lane that refills at least twice",
        "a lane that ends on a block boundary",
        "a lane that ends mid-block",
    ]);
    let missing: Vec<_> = want.difference(&reached).collect();
    assert!(missing.is_empty(), "never reached: {missing:?}");
}

//! `EventQueue` against the slot-indexed heap it replaced
//! (`tests/reference/`): random push, pop, cancel and reschedule
//! sequences — timestamp ties, signed zeros, stale and recycled tokens
//! included — give the same pops, tokens, token liveness, `len`,
//! `peek_time` and `QueueStats` after every operation.

mod reference;

use everest_runtime::{EventQueue, EventToken};
use reference::events as old;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A timestamp drawn from a small pool, so ties are common: the two
/// zeros, a handful of repeated times, and scattered ones.
fn time(rng: &mut Rng) -> f64 {
    match rng.below(8) {
        0 => -0.0,
        1 => 0.0,
        2..=4 => [1.0, 2.5, 10.0][rng.below(3)],
        _ => (rng.next() % 1_000) as f64 / 4.0,
    }
}

fn assert_same(new: &EventQueue<u64>, old: &old::EventQueue<u64>, at: &str) {
    assert_eq!(new.len(), old.len(), "{at}: len");
    assert_eq!(new.is_empty(), old.is_empty(), "{at}: is_empty");
    assert_eq!(
        new.peek_time().map(f64::to_bits),
        old.peek_time().map(f64::to_bits),
        "{at}: peek_time"
    );
    let (a, b) = (new.stats(), old.stats());
    assert_eq!(
        (a.pushes, a.pops, a.cancels, a.reschedules, a.sift_steps),
        (b.pushes, b.pops, b.cancels, b.reschedules, b.sift_steps),
        "{at}: stats"
    );
}

#[test]
fn queue_matches_the_slot_indexed_reference() {
    for case in 0..300_u64 {
        let mut rng = Rng(case);
        let mut new: EventQueue<u64> = EventQueue::with_capacity(rng.below(8));
        let mut old: old::EventQueue<u64> = old::EventQueue::with_capacity(rng.below(8));
        // Every token either queue ever issued, paired by issue order;
        // most of them go stale as the run goes on.
        let mut tokens: Vec<(EventToken, old::EventToken)> = Vec::new();
        let ops = 1 + rng.below(600);
        // Phases of net growth and net drain, so the heap is both deep
        // and repeatedly emptied.
        let push_bias = 2 + rng.below(5);
        for op in 0..ops {
            let at = format!("case {case} op {op}");
            let pick = |rng: &mut Rng, tokens: &[(EventToken, old::EventToken)]| {
                (!tokens.is_empty()).then(|| tokens[rng.below(tokens.len())])
            };
            match rng.below(push_bias + 3) {
                0 => {
                    let (a, b) = (new.pop(), old.pop());
                    assert_eq!(
                        a.map(|(t, p)| (t.to_bits(), p)),
                        b.map(|(t, p)| (t.to_bits(), p)),
                        "{at}: pop"
                    );
                }
                1 => {
                    if let Some((a, b)) = pick(&mut rng, &tokens) {
                        assert_eq!(new.cancel(a), old.cancel(b), "{at}: cancel");
                    }
                }
                2 => {
                    if let Some((a, b)) = pick(&mut rng, &tokens) {
                        let when = time(&mut rng);
                        let (a, b) = (new.reschedule(a, when), old.reschedule(b, when));
                        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{at}: reschedule");
                        if let (Some(a), Some(b)) = (a, b) {
                            tokens.push((a, b));
                        }
                    }
                }
                _ => {
                    let (when, payload) = (time(&mut rng), op as u64);
                    let (a, b) = (new.push(when, payload), old.push(when, payload));
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{at}: push token");
                    tokens.push((a, b));
                }
            }
            assert_same(&new, &old, &at);
        }
        loop {
            let (a, b) = (new.pop(), old.pop());
            assert_eq!(
                a.map(|(t, p)| (t.to_bits(), p)),
                b.map(|(t, p)| (t.to_bits(), p)),
                "case {case}: drain"
            );
            if a.is_none() {
                break;
            }
        }
        assert_same(&new, &old, &format!("case {case} drained"));
        for (a, b) in tokens {
            assert_eq!(new.cancel(a), old.cancel(b), "case {case}: stale token");
        }
    }
}

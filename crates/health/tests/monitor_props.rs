//! `HealthMonitor` against the `DetectionNode`-backed monitor it
//! replaced (`tests/reference/`): on random inflation, link and creep
//! streams — mostly exact `1.0` samples, some an ulp off, some noisy,
//! some convicting, and in half of them a run of one repeated value
//! long enough to fill the detector's window — both reach the same
//! verdicts (time, node, kind and score, bit for bit) and drain them at
//! the same samples. At a random point the crate's monitor is cloned
//! and the reference is restored from its own snapshot; from there on
//! the uninterrupted monitor, the clone and the restored reference
//! drain the same verdicts after every sample.
//!
//! The crate's detector skips a refit whose window is bit for bit the
//! one it last fit on, and the reference always refits, so the property
//! only guards that skip on cases that reach it;
//! `the_reference_property_reaches_skipped_and_performed_refits`
//! replays them.

mod reference;

use std::collections::BTreeSet;

use everest_health::{HealthConfig, HealthMonitor};
use everest_telemetry::Registry;

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

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

fn random_config(rng: &mut Rng) -> HealthConfig {
    HealthConfig {
        window: rng.pick(&[0, 1, 3, 12, 16]),
        min_samples: rng.pick(&[0, 1, 4, 6]),
        contamination: rng.pick(&[0.0, 0.02, 0.05, 0.2]),
        straggler_ratio: rng.pick(&[0.9, 1.0, 1.5, 2.5]),
        link_factor: rng.pick(&[1.0, 2.0]),
        creep_per_ms: rng.pick(&[-0.01, 0.0, 0.01, 0.05]),
        refit_every: rng.pick(&[0, 1, 5, 16, 40]),
    }
}

/// One sample of a stream: which series, which node, what value.
#[derive(Debug, Clone, Copy)]
enum Feed {
    Task(usize, f64),
    Link(usize, f64),
    Fpga(usize, f64),
}

/// A stream over `nodes` nodes in which one node may turn slow, one
/// link gray and one accelerator creep part-way through; everything
/// else is exactly `1.0` or close to it. Half the streams hold a run of
/// 160 to 400 steps that repeat one value, about half of them task
/// samples: enough to fill the detector's 64-sample window with it,
/// which independent draws almost never do (64 exact ones in a row
/// have a probability of about 2e-4).
fn random_stream(rng: &mut Rng, nodes: usize) -> Vec<(f64, Feed)> {
    let len = 20 + rng.below(400);
    let run = (rng.below(2) == 0).then(|| {
        let from = rng.below(len);
        let noise = 1.0 + 0.1 * (rng.unit() - 0.5);
        let value = rng.pick(&[1.0, 1.0, 1.0_f64.next_up(), noise]);
        (from..from + 160 + rng.below(241), value)
    });
    let len = run.as_ref().map_or(len, |(steps, _)| len.max(steps.end));
    let slow = (rng.below(2) == 0).then(|| (rng.below(nodes), rng.below(len)));
    let gray = (rng.below(3) == 0).then(|| (rng.below(nodes), rng.below(len)));
    let creep = (rng.below(2) == 0).then(|| (rng.below(nodes), rng.below(len)));
    let noisy = rng.below(3) == 0;
    let mut at_us = 0.0;
    let mut stream = Vec::with_capacity(len);
    for step in 0..len {
        at_us += rng.pick(&[0.0, 1.0, 125.0, 250.0]) + rng.unit();
        let node = rng.below(nodes);
        let hit =
            |fault: Option<(usize, usize)>| fault.is_some_and(|(n, at)| n == node && step >= at);
        // Mostly exact ones; a unit in the last place either side of
        // one, where a z-score fit on ones decides by its last bit; or
        // noise.
        let base = match rng.below(16) {
            0 if noisy => 1.0 + 0.1 * (rng.unit() - 0.5),
            1 => 1.0_f64.next_down(),
            2 => 1.0_f64.next_up(),
            _ => 1.0,
        };
        let base = match &run {
            Some((steps, value)) if steps.contains(&step) => *value,
            _ => base,
        };
        let feed = match rng.below(6) {
            0 => Feed::Link(
                node,
                if hit(gray) {
                    2.0 + 3.0 * rng.unit()
                } else {
                    base
                },
            ),
            1 | 2 => {
                let value = match creep {
                    Some((n, at)) if n == node && step >= at => 1.0 + 0.2 * (step - at) as f64,
                    _ => base,
                };
                Feed::Fpga(node, value)
            }
            _ => Feed::Task(
                node,
                if hit(slow) {
                    3.0 + 2.0 * rng.unit()
                } else {
                    base
                },
            ),
        };
        stream.push((at_us, feed));
    }
    stream
}

/// Feeds one sample and renders the verdicts it drained.
trait Fed {
    fn feed(&mut self, at_us: f64, feed: Feed) -> String;
}

macro_rules! fed {
    ($monitor:ty) => {
        impl Fed for $monitor {
            fn feed(&mut self, at_us: f64, feed: Feed) -> String {
                match feed {
                    Feed::Task(node, value) => self.record_task(node, value, at_us),
                    Feed::Link(node, value) => self.record_link(node, value, at_us),
                    Feed::Fpga(node, value) => self.record_fpga(node, value, at_us),
                }
                format!("{:?}", self.drain_new())
            }
        }
    };
}

fed!(HealthMonitor);
fed!(reference::monitor::HealthMonitor);

/// Cases of `monitor_matches_the_detection_node_reference_across_a_restore`.
const REFERENCE_CASES: u64 = 400;

/// One case of the reference property: its node count, configuration,
/// seed, stream and cut, drawn in that order.
fn reference_case(case: u64) -> (usize, HealthConfig, u64, Vec<(f64, Feed)>, usize) {
    let mut rng = Rng(case);
    let nodes = 1 + rng.below(4);
    let cfg = random_config(&mut rng);
    let seed = rng.next();
    let stream = random_stream(&mut rng, nodes);
    let cut = rng.below(stream.len() + 1);
    (nodes, cfg, seed, stream, cut)
}

#[test]
fn monitor_matches_the_detection_node_reference_across_a_restore() {
    let mut convicting = 0;
    for case in 0..REFERENCE_CASES {
        let (nodes, cfg, seed, stream, cut) = reference_case(case);

        let mut new = HealthMonitor::new(nodes, cfg.clone(), seed, Registry::new());
        let mut old = reference::monitor::HealthMonitor::new(nodes, cfg, seed, Registry::new());
        for &(at_us, feed) in &stream[..cut] {
            let drained = new.feed(at_us, feed);
            assert_eq!(
                drained,
                old.feed(at_us, feed),
                "case {case}: {feed:?} at {at_us}"
            );
        }
        let mut clone = new.clone();
        let mut old = reference::monitor::HealthMonitor::restore(old.snapshot(), Registry::new());
        for &(at_us, feed) in &stream[cut..] {
            let drained = new.feed(at_us, feed);
            assert_eq!(
                drained,
                clone.feed(at_us, feed),
                "case {case}: clone, {feed:?} at {at_us}"
            );
            assert_eq!(
                drained,
                old.feed(at_us, feed),
                "case {case}: {feed:?} at {at_us}"
            );
        }
        assert_eq!(
            format!("{:?}", new.verdicts()),
            format!("{:?}", old.verdicts()),
            "case {case}: verdicts"
        );
        assert_eq!(
            new.verdicts(),
            clone.verdicts(),
            "case {case}: clone verdicts"
        );
        convicting += usize::from(!new.verdicts().is_empty());
    }
    // The streams exercise the verdict paths, not only the quiet one.
    assert!(convicting >= 100, "{convicting} of 400 cases convicted");
}

/// The cases of `monitor_matches_the_detection_node_reference_across_a_restore`
/// reach both sides of the refit skip: refits on the rows of the last
/// fit, which the crate's detector skips — on a window of exact ones
/// and on a window of some other value — and refits on new rows, which
/// it performs. The reference refits every time, so its detector rows
/// after a refit are the rows that refit saw.
#[test]
fn the_reference_property_reaches_skipped_and_performed_refits() {
    const MIN_ROWS: usize = 32;
    let mut reached = BTreeSet::new();
    for case in 0..REFERENCE_CASES {
        let (nodes, cfg, seed, stream, _) = reference_case(case);
        let refit_every = cfg.refit_every.max(1);
        let mut monitor = reference::monitor::HealthMonitor::new(nodes, cfg, seed, Registry::new());
        let mut tasks = 0;
        let mut fitted: Option<Vec<u64>> = None;
        for &(at_us, feed) in &stream {
            monitor.feed(at_us, feed);
            if !matches!(feed, Feed::Task(..)) {
                continue;
            }
            tasks += 1;
            let rows = monitor.detector_rows();
            if tasks % refit_every != 0 || rows.len() < MIN_ROWS {
                continue;
            }
            let bits: Vec<u64> = rows.iter().map(|row| row[0].to_bits()).collect();
            if fitted.as_ref() != Some(&bits) {
                reached.insert("a refit on new rows");
            } else if bits.iter().all(|&b| b == 1.0_f64.to_bits()) {
                reached.insert("a refit skipped on exact ones");
            } else {
                reached.insert("a refit skipped on another value");
            }
            fitted = Some(bits);
        }
    }
    let want = BTreeSet::from([
        "a refit on new rows",
        "a refit skipped on exact ones",
        "a refit skipped on another value",
    ]);
    let missing: Vec<_> = want.difference(&reached).collect();
    assert!(missing.is_empty(), "never reached: {missing:?}");
}

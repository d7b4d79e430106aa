//! SWIM-style gossip failure detection on the virtual clock.
//!
//! Each node keeps its own view of every other node — `Alive`,
//! `Suspect` or `Dead`, each at an incarnation number. Once per gossip
//! round every live node probes one seeded target; a successful probe
//! is a full round trip plus an anti-entropy view merge in both
//! directions, so information (and suspicion) spreads epidemically. A
//! failed probe marks the target `Suspect`; a suspicion older than the
//! suspect timeout hardens into `Dead` (the confirm). A reachable node
//! that learns it is suspected or declared dead refutes by bumping its
//! incarnation — `Alive` at a higher incarnation overrides anything at
//! a lower one, which is also how a healed partition revives the
//! minority side. Everything (probe targets, merge order) derives from
//! the plan seed and virtual time, so campaigns replay byte-identically.

use everest_faults::DetRng;

use crate::net::NetModel;

/// Gossip round period in virtual µs, which is also the cluster tick
/// cadence.
pub const GOSSIP_PERIOD_US: f64 = 1_000.0;

/// Probe round-trip budget in virtual µs; longer delays read as
/// failures.
const PROBE_TIMEOUT_US: f64 = 400.0;

/// How long a suspicion is held, in virtual µs, before it hardens into
/// `Dead`.
const SUSPECT_TIMEOUT_US: f64 = 3_000.0;

/// One observer's belief about one subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum MemberState {
    /// Believed healthy. (Ordering: later states override earlier ones
    /// at equal incarnation.)
    Alive,
    /// A probe failed; the suspicion clock is running.
    Suspect,
    /// Suspicion outlived the timeout: confirmed failed.
    Dead,
}

#[derive(Debug, Clone, Copy)]
struct ViewEntry {
    state: MemberState,
    incarnation: u64,
    /// When the current state was adopted (drives the suspect timeout).
    since_us: f64,
}

/// Aggregate detector counters across all observers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwimStats {
    /// Gossip rounds executed.
    pub rounds: u64,
    /// Probes attempted.
    pub probes: u64,
    /// Probes that failed (cut, delayed past timeout, lost, or dead).
    pub probe_failures: u64,
    /// Alive→Suspect transitions across all views.
    pub suspects: u64,
    /// Suspect→Dead hardenings across all views.
    pub confirms: u64,
    /// Incarnation bumps refuting a suspicion or death.
    pub refutations: u64,
}

/// The N×N failure detector.
#[derive(Debug, Clone)]
pub(crate) struct SwimDetector {
    n: usize,
    /// `views[observer][subject]`.
    views: Vec<Vec<ViewEntry>>,
    /// Each node's own incarnation number.
    incarnation: Vec<u64>,
    rng: DetRng,
    /// Counters, exposed for traces and telemetry.
    pub stats: SwimStats,
}

impl SwimDetector {
    /// A detector over `n` nodes, all mutually `Alive` at incarnation
    /// 0, drawing probe targets from a stream forked off `seed`.
    pub(crate) fn new(n: usize, seed: u64) -> SwimDetector {
        let entry = ViewEntry {
            state: MemberState::Alive,
            incarnation: 0,
            since_us: 0.0,
        };
        SwimDetector {
            n,
            views: vec![vec![entry; n]; n],
            incarnation: vec![0; n],
            rng: DetRng::new(seed).fork(0x5717B0),
            stats: SwimStats::default(),
        }
    }

    /// Observer `o`'s belief about subject `s`.
    pub(crate) fn state(&self, observer: usize, subject: usize) -> MemberState {
        self.views[observer][subject].state
    }

    /// The subjects observer `o` does not hold `Dead` (includes `o`).
    pub(crate) fn non_dead_count(&self, observer: usize) -> usize {
        self.views[observer]
            .iter()
            .filter(|e| e.state != MemberState::Dead)
            .count()
    }

    /// The subjects observer `o` holds fully `Alive` (includes `o`).
    pub(crate) fn alive_count(&self, observer: usize) -> usize {
        self.views[observer]
            .iter()
            .filter(|e| e.state == MemberState::Alive)
            .count()
    }

    fn set(&mut self, observer: usize, subject: usize, state: MemberState, inc: u64, now_us: f64) {
        let entry = &mut self.views[observer][subject];
        if entry.state != state || entry.incarnation != inc {
            *entry = ViewEntry {
                state,
                incarnation: inc,
                since_us: now_us,
            };
        }
    }

    /// SWIM precedence: higher incarnation wins outright; at equal
    /// incarnation the more severe state wins.
    fn merge_entry(ours: &mut ViewEntry, theirs: ViewEntry) -> bool {
        let wins = theirs.incarnation > ours.incarnation
            || (theirs.incarnation == ours.incarnation && theirs.state > ours.state);
        if wins {
            *ours = theirs;
        }
        wins
    }

    /// Merges `src`'s whole view into `dst`'s (anti-entropy).
    fn merge_views(&mut self, dst: usize, src: usize) {
        for subject in 0..self.n {
            let theirs = self.views[src][subject];
            Self::merge_entry(&mut self.views[dst][subject], theirs);
        }
    }

    /// If `node` has absorbed a suspicion or death of itself, it
    /// refutes: bump the incarnation past the accusation and re-assert
    /// `Alive`.
    fn refute_self(&mut self, node: usize, now_us: f64) {
        let own = self.views[node][node];
        if own.state != MemberState::Alive {
            let inc = own.incarnation + 1;
            self.incarnation[node] = self.incarnation[node].max(inc);
            self.set(
                node,
                node,
                MemberState::Alive,
                self.incarnation[node],
                now_us,
            );
            self.stats.refutations += 1;
        }
    }

    /// Runs one gossip round at `now_us`. Ground-truth crashed nodes
    /// neither probe nor answer; the detector has no other access to
    /// ground truth — everything else it believes comes off the wire.
    pub(crate) fn tick(&mut self, now_us: f64, net: &mut NetModel, crashed: &[bool]) {
        self.stats.rounds += 1;
        // 1. Harden expired suspicions into confirms, per observer.
        for (o, o_crashed) in crashed.iter().enumerate().take(self.n) {
            if *o_crashed {
                continue;
            }
            for s in 0..self.n {
                let e = self.views[o][s];
                if e.state == MemberState::Suspect && now_us - e.since_us >= SUSPECT_TIMEOUT_US {
                    self.set(o, s, MemberState::Dead, e.incarnation, now_us);
                    self.stats.confirms += 1;
                }
            }
        }
        // 2. One seeded probe per live observer.
        for o in 0..self.n {
            if crashed[o] || self.n < 2 {
                continue;
            }
            let mut t = self.rng.index(self.n - 1);
            if t >= o {
                t += 1;
            }
            self.stats.probes += 1;
            let ok = !crashed[t] && net.probe_ok(o, t, now_us, PROBE_TIMEOUT_US);
            if ok {
                // Full round trip: exchange views both ways, let each
                // side refute anything it learned about itself, then
                // record the direct contact as fresh evidence of life.
                self.merge_views(o, t);
                self.merge_views(t, o);
                self.refute_self(o, now_us);
                self.refute_self(t, now_us);
                let (inc_o, inc_t) = (self.incarnation[o], self.incarnation[t]);
                self.set(o, t, MemberState::Alive, inc_t, now_us);
                self.set(t, o, MemberState::Alive, inc_o, now_us);
            } else {
                self.stats.probe_failures += 1;
                let e = self.views[o][t];
                if e.state == MemberState::Alive {
                    self.set(o, t, MemberState::Suspect, e.incarnation, now_us);
                    self.stats.suspects += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_faults::{FaultKind, FaultPlan, FaultSpec};

    fn quiet_net() -> NetModel {
        NetModel::from_plan(&FaultPlan::new(5))
    }

    fn run_rounds(
        swim: &mut SwimDetector,
        net: &mut NetModel,
        crashed: &[bool],
        from_us: f64,
        rounds: usize,
    ) -> f64 {
        let mut now = from_us;
        for _ in 0..rounds {
            now += GOSSIP_PERIOD_US;
            swim.tick(now, net, crashed);
        }
        now
    }

    #[test]
    fn healthy_cluster_stays_alive() {
        let mut swim = SwimDetector::new(4, 7);
        let mut net = quiet_net();
        run_rounds(&mut swim, &mut net, &[false; 4], 0.0, 20);
        for o in 0..4 {
            for s in 0..4 {
                assert_eq!(swim.state(o, s), MemberState::Alive);
            }
        }
        assert_eq!(swim.stats.suspects, 0);
        assert_eq!(swim.stats.probe_failures, 0);
    }

    #[test]
    fn crash_is_suspected_then_confirmed_by_everyone() {
        let mut swim = SwimDetector::new(4, 7);
        let mut net = quiet_net();
        let crashed = [false, false, true, false];
        run_rounds(&mut swim, &mut net, &crashed, 0.0, 40);
        for o in [0, 1, 3] {
            assert_eq!(
                swim.state(o, 2),
                MemberState::Dead,
                "observer {o} must confirm the crash"
            );
            assert_eq!(swim.non_dead_count(o), 3);
        }
        assert!(swim.stats.suspects >= 1);
        // At least one observer hardens the suspicion locally; the
        // rest may learn the death by gossip (merged `Dead` entries
        // are not re-counted as confirms).
        assert!(swim.stats.confirms >= 1);
    }

    #[test]
    fn partition_confirms_then_heals_with_refutation() {
        let plan = FaultPlan::new(9).with_fault(FaultSpec::new(
            1_000.0,
            0,
            FaultKind::PartitionSym {
                group: 0b0001,
                duration_us: 30_000.0,
            },
        ));
        let mut net = NetModel::from_plan(&plan);
        let mut swim = SwimDetector::new(4, 9);
        let crashed = [false; 4];
        // Deep into the partition: both sides confirm each other dead.
        let now = run_rounds(&mut swim, &mut net, &crashed, 0.0, 25);
        for o in [1, 2, 3] {
            assert_eq!(swim.state(o, 0), MemberState::Dead, "majority confirms 0");
        }
        assert!(
            (1..4).any(|s| swim.state(0, s) == MemberState::Dead),
            "the cut node confirms at least part of the majority dead"
        );
        // Well past the heal: direct probes revive both directions.
        run_rounds(&mut swim, &mut net, &crashed, now.max(30_000.0), 60);
        for o in 0..4 {
            for s in 0..4 {
                assert_eq!(
                    swim.state(o, s),
                    MemberState::Alive,
                    "{o}'s view of {s} must heal"
                );
            }
        }
        assert!(
            swim.stats.refutations >= 1,
            "revival goes through refutation"
        );
    }

    #[test]
    fn same_seed_replays_identically() {
        let run = || {
            let mut swim = SwimDetector::new(5, 21);
            let mut net = quiet_net();
            run_rounds(
                &mut swim,
                &mut net,
                &[false, true, false, false, false],
                0.0,
                30,
            );
            swim.stats
        };
        assert_eq!(run(), run());
    }
}

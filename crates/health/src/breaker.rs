//! Per-node circuit breakers on the virtual clock.
//!
//! A breaker isolates a suspect node: *closed* admits work normally,
//! *open* refuses placements until a deterministic deadline, and
//! *half-open* admits exactly one probe task whose outcome decides
//! whether the node rejoins (probe healthy → closed) or stays isolated
//! with an exponentially longer open window (probe slow → open again).

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// How long the first open window lasts, in virtual µs.
    pub open_us: f64,
    /// Growth factor applied to the open window on every consecutive
    /// re-trip (a failed probe doubles the isolation by default).
    pub backoff_multiplier: f64,
}

impl Default for BreakerConfig {
    /// 5 ms first open window, doubling on failed probes.
    fn default() -> BreakerConfig {
        BreakerConfig {
            open_us: 5_000.0,
            backoff_multiplier: 2.0,
        }
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: placements admitted normally.
    Closed,
    /// Isolated: placements refused until the open deadline.
    Open,
    /// Probing: exactly one probe placement admitted.
    HalfOpen,
}

/// What the breaker says about a proposed placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Place normally.
    Admit,
    /// Place as the half-open probe; report the outcome back via
    /// [`CircuitBreaker::probe_succeeded`] / [`CircuitBreaker::probe_failed`].
    Probe,
    /// Do not place on this node.
    Refuse,
}

/// A deterministic circuit breaker for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    open_until_us: f64,
    /// Consecutive trips since the last successful probe (drives the
    /// exponential open window).
    streak: u32,
    /// Total trips over the breaker's lifetime (for stats).
    opens: u32,
    probe_inflight: bool,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            open_until_us: 0.0,
            streak: 0,
            opens: 0,
            probe_inflight: false,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Total trips over the breaker's lifetime.
    pub fn opens(&self) -> u32 {
        self.opens
    }

    /// Trips the breaker at `now_us`: the node is isolated until
    /// `now_us + open_us * backoff_multiplier^streak`.
    pub fn trip(&mut self, now_us: f64) {
        let window = self.cfg.open_us * self.cfg.backoff_multiplier.powi(self.streak as i32);
        self.state = BreakerState::Open;
        self.open_until_us = now_us + window;
        self.streak += 1;
        self.opens += 1;
        self.probe_inflight = false;
    }

    /// What [`CircuitBreaker::admit`] *would* answer at `now_us`,
    /// without committing any transition. Schedulers use this to
    /// classify candidate nodes before choosing one; only the chosen
    /// node's breaker is then asked to `admit`.
    pub fn peek(&self, now_us: f64) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Admit,
            BreakerState::Open => {
                if now_us >= self.open_until_us {
                    Admission::Probe
                } else {
                    Admission::Refuse
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_inflight {
                    Admission::Refuse
                } else {
                    Admission::Probe
                }
            }
        }
    }

    /// Asks whether a placement starting at `now_us` may proceed.
    /// Transitions open → half-open when the deadline has passed, and
    /// admits at most one probe while half-open.
    pub fn admit(&mut self, now_us: f64) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Admit,
            BreakerState::Open => {
                if now_us >= self.open_until_us {
                    self.state = BreakerState::HalfOpen;
                    self.probe_inflight = true;
                    Admission::Probe
                } else {
                    Admission::Refuse
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_inflight {
                    Admission::Refuse
                } else {
                    self.probe_inflight = true;
                    Admission::Probe
                }
            }
        }
    }

    /// The half-open probe came back healthy: close the breaker and
    /// reset the exponential backoff.
    pub fn probe_succeeded(&mut self) {
        self.state = BreakerState::Closed;
        self.streak = 0;
        self.probe_inflight = false;
    }

    /// The half-open probe was still slow: re-trip with a longer
    /// window.
    pub fn probe_failed(&mut self, now_us: f64) {
        self.trip(now_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_open_halfopen_cycle() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(100.0), Admission::Admit);

        b.trip(1_000.0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.open_until_us, 6_000.0);
        assert_eq!(b.admit(2_000.0), Admission::Refuse);

        // Deadline passed: exactly one probe admitted.
        assert_eq!(b.admit(6_500.0), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(6_600.0), Admission::Refuse, "one probe in flight");

        b.probe_succeeded();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(7_000.0), Admission::Admit);
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn failed_probes_back_off_exponentially() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        b.trip(0.0);
        assert_eq!(b.open_until_us, 5_000.0);
        assert_eq!(b.admit(5_000.0), Admission::Probe);
        b.probe_failed(5_000.0);
        assert_eq!(b.open_until_us, 15_000.0, "second window doubles");
        assert_eq!(b.admit(14_999.0), Admission::Refuse);
        assert_eq!(b.admit(15_000.0), Admission::Probe);
        b.probe_failed(15_000.0);
        assert_eq!(b.open_until_us, 35_000.0, "third window doubles again");
        assert_eq!(b.opens(), 3);
        // A success resets the backoff streak.
        assert_eq!(b.admit(40_000.0), Admission::Probe);
        b.probe_succeeded();
        b.trip(50_000.0);
        assert_eq!(b.open_until_us, 55_000.0, "streak reset to the base window");
    }
}

//! Typed health verdicts: what the monitor concluded about a node.

/// The gray-failure class a verdict asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerdictKind {
    /// The node completes work much slower than its healthy model.
    Straggler,
    /// Transfers touching the node cost far more than the planner's
    /// healthy link model predicts.
    GrayLink,
    /// The node's accelerator latency is creeping upward over time.
    DegradingVf,
    /// Cluster membership confirmed the node unreachable: gossip
    /// suspicion outlived the suspect timeout. Established externally
    /// by the membership layer (via [`flag`](crate::HealthMonitor::flag))
    /// rather than inferred from latency, and fed into the same
    /// breaker/brownout pipeline as the gray verdicts.
    Unreachable,
}

impl VerdictKind {
    /// Stable lower-case identifier used in traces and telemetry.
    pub fn id(&self) -> &'static str {
        match self {
            VerdictKind::Straggler => "straggler",
            VerdictKind::GrayLink => "gray_link",
            VerdictKind::DegradingVf => "degrading_vf",
            VerdictKind::Unreachable => "unreachable",
        }
    }
}

/// One conclusion of the health monitor: at virtual time `at_us`, node
/// `node` exhibits the gray-failure class `kind` with evidence strength
/// `score` (the observed inflation/factor/slope that crossed the
/// configured threshold).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthVerdict {
    /// Virtual time the verdict was reached, in µs.
    pub at_us: f64,
    /// Node the verdict is about.
    pub node: usize,
    /// Asserted gray-failure class.
    pub kind: VerdictKind,
    /// Evidence strength (metric value that crossed the threshold).
    pub score: f64,
}

impl HealthVerdict {
    /// Stable one-line rendering used in telemetry event details and
    /// heal traces: `verdict=<id> node=<n> at_us=<t> score=<s>`.
    pub fn describe(&self) -> String {
        format!(
            "verdict={} node={} at_us={:.3} score={:.3}",
            self.kind.id(),
            self.node,
            self.at_us,
            self.score
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_is_stable() {
        let v = HealthVerdict {
            at_us: 1500.25,
            node: 3,
            kind: VerdictKind::Straggler,
            score: 4.5,
        };
        assert_eq!(
            v.describe(),
            "verdict=straggler node=3 at_us=1500.250 score=4.500"
        );
        assert_eq!(VerdictKind::GrayLink.id(), "gray_link");
        assert_eq!(VerdictKind::DegradingVf.id(), "degrading_vf");
        assert_eq!(VerdictKind::Unreachable.id(), "unreachable");
    }
}

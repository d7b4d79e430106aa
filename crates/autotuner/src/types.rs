//! Knobs, configurations, operating points and goals — the mARGOt data
//! model (paper §VI-C, ref \[8\]).
//!
//! *Knobs* are the variables the autotuner controls (application
//! parameters, code variants such as CPU vs FPGA kernels). *Metrics* are
//! the observable properties (execution time, energy, accuracy). An
//! *operating point* records the expected metric values of one knob
//! configuration, optionally restricted to a region of the *feature*
//! space (input characteristics, execution environment).

use std::collections::BTreeMap;
use std::fmt;

/// A knob value.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum KnobValue {
    /// Integer-valued knob (unroll factor, batch size).
    Int(i64),
    /// Named variant (e.g. `"fpga"` vs `"cpu"`).
    Str(String),
    /// Continuous knob.
    F64(f64),
}

impl fmt::Display for KnobValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobValue::Int(v) => write!(f, "{v}"),
            KnobValue::Str(s) => write!(f, "{s}"),
            KnobValue::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for KnobValue {
    fn from(v: i64) -> Self {
        KnobValue::Int(v)
    }
}

impl From<&str> for KnobValue {
    fn from(v: &str) -> Self {
        KnobValue::Str(v.to_string())
    }
}

impl From<f64> for KnobValue {
    fn from(v: f64) -> Self {
        KnobValue::F64(v)
    }
}

/// A full knob assignment.
pub type Configuration = BTreeMap<String, KnobValue>;

/// Builds a [`Configuration`] from pairs.
pub fn config<I, K, V>(pairs: I) -> Configuration
where
    I: IntoIterator<Item = (K, V)>,
    K: Into<String>,
    V: Into<KnobValue>,
{
    pairs
        .into_iter()
        .map(|(k, v)| (k.into(), v.into()))
        .collect()
}

/// Feature values describing the current input/environment.
pub type Features = BTreeMap<String, f64>;

/// An operating point: configuration + expected metrics + validity
/// region in feature space.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// The knob configuration.
    pub config: Configuration,
    /// Expected metric values at design time.
    pub expected: BTreeMap<String, f64>,
    /// Feature ranges where this point's expectations are valid:
    /// `feature -> (min, max)`; missing features are unconstrained.
    pub region: BTreeMap<String, (f64, f64)>,
}

impl OperatingPoint {
    /// Creates an operating point for a configuration.
    pub fn new(config: Configuration) -> OperatingPoint {
        OperatingPoint {
            config,
            expected: BTreeMap::new(),
            region: BTreeMap::new(),
        }
    }

    /// Declares an expected metric value.
    pub fn expect(mut self, metric: &str, value: f64) -> OperatingPoint {
        self.expected.insert(metric.to_string(), value);
        self
    }

    /// Restricts validity to `feature ∈ [min, max)`.
    pub fn when(mut self, feature: &str, min: f64, max: f64) -> OperatingPoint {
        self.region.insert(feature.to_string(), (min, max));
        self
    }

    /// Whether the point applies under the given features.
    pub(crate) fn applies(&self, features: &Features) -> bool {
        self.region.iter().all(|(name, (lo, hi))| {
            features
                .get(name)
                .map(|v| v >= lo && v < hi)
                .unwrap_or(false)
        })
    }
}

/// Constraint comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Metric must be `<=` the bound.
    Le,
    /// Metric must be `>=` the bound.
    Ge,
}

/// A constraint on a metric (mARGOt goals).
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Metric name.
    pub metric: String,
    /// Comparison.
    pub cmp: Cmp,
    /// Bound.
    pub bound: f64,
}

impl Constraint {
    /// `metric <= bound`.
    pub fn le(metric: &str, bound: f64) -> Constraint {
        Constraint {
            metric: metric.to_string(),
            cmp: Cmp::Le,
            bound,
        }
    }

    /// `metric >= bound`.
    pub fn ge(metric: &str, bound: f64) -> Constraint {
        Constraint {
            metric: metric.to_string(),
            cmp: Cmp::Ge,
            bound,
        }
    }

    /// Whether a metric value satisfies the constraint.
    pub(crate) fn satisfied(&self, value: f64) -> bool {
        match self.cmp {
            Cmp::Le => value <= self.bound,
            Cmp::Ge => value >= self.bound,
        }
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Minimize the metric.
    Minimize,
    /// Maximize the metric.
    Maximize,
}

/// The objective: one metric plus a direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Metric name.
    pub metric: String,
    /// Direction.
    pub direction: Direction,
}

impl Objective {
    /// Minimizes a metric.
    pub fn minimize(metric: &str) -> Objective {
        Objective {
            metric: metric.to_string(),
            direction: Direction::Minimize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_and_display() {
        let c = config([
            ("variant", KnobValue::from("fpga")),
            ("unroll", 4i64.into()),
        ]);
        assert_eq!(c["variant"], KnobValue::Str("fpga".into()));
        assert_eq!(c["unroll"].to_string(), "4");
    }

    #[test]
    fn operating_point_regions() {
        let p = OperatingPoint::new(config([("v", 1i64)]))
            .expect("time_us", 100.0)
            .when("size", 1000.0, 10_000.0);
        let mut f = Features::new();
        f.insert("size".into(), 5000.0);
        assert!(p.applies(&f));
        f.insert("size".into(), 10.0);
        assert!(!p.applies(&f));
        // missing feature -> not applicable
        assert!(!p.applies(&Features::new()));
        // unconstrained point applies anywhere
        assert!(OperatingPoint::new(config([("v", 1i64)])).applies(&Features::new()));
    }

    #[test]
    fn constraints() {
        assert!(Constraint::le("t", 10.0).satisfied(10.0));
        assert!(!Constraint::le("t", 10.0).satisfied(10.1));
        assert!(Constraint::ge("acc", 0.9).satisfied(0.95));
        assert!(!Constraint::ge("acc", 0.9).satisfied(0.85));
    }
}

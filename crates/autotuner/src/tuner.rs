//! The dynamic autotuner: constraint-aware selection over operating
//! points with online correction of design-time expectations.
//!
//! This reproduces the mARGOt decision loop (paper §VI-C): the
//! application asks for the best configuration given the current
//! features (data characteristics, execution environment); the tuner
//! filters applicable operating points, drops those violating
//! constraints, optimizes the objective, and — as observations stream in
//! through monitors — rescales each configuration's expectations so the
//! choice adapts to the real environment (e.g. FPGA contention).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use everest_telemetry::{CounterHandle, Monitor, MonitorHandle, Registry};

use crate::types::{Configuration, Constraint, Direction, Features, Objective, OperatingPoint};

/// Errors from the tuner.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// No operating point applies to the features.
    NothingApplicable,
    /// Points apply but all violate a constraint.
    NothingFeasible,
    /// No objective set.
    NoObjective,
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::NothingApplicable => write!(f, "no operating point applies"),
            TuneError::NothingFeasible => {
                write!(f, "every applicable operating point violates a constraint")
            }
            TuneError::NoObjective => write!(f, "no objective configured"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Exponential-moving-average weight for online correction.
const EMA_ALPHA: f64 = 0.4;

/// The autotuner.
///
/// Monitors live in an [`everest_telemetry::Registry`] under
/// `autotuner.<config>.<metric>` names rather than in private storage,
/// so tuning activity shows up in the same trace as the rest of the
/// SDK. A fresh tuner gets its own registry; use
/// [`Autotuner::with_registry`] to share one (e.g. the process-global
/// registry behind `basecamp --trace`).
#[derive(Debug)]
pub struct Autotuner {
    points: Vec<OperatingPoint>,
    constraints: Vec<Constraint>,
    objective: Option<Objective>,
    /// Per (configuration, metric) observation slots: a pre-resolved
    /// monitor handle, the design-time expectation, and the
    /// EMA-smoothed multiplicative correction factor
    /// (observed / expected).
    slots: Vec<ObserveSlot>,
    /// `(config key, metric)` → index into `slots`.
    slot_index: BTreeMap<(String, String), usize>,
    /// Shared telemetry registry holding the monitors.
    registry: Arc<Registry>,
    /// Monitor window.
    window: usize,
    /// Index of the point [`Autotuner::best`] last chose
    /// ([`NO_CHOICE`] before the first), for the `autotuner.switches`
    /// counter.
    last_choice: AtomicUsize,
    /// The `autotuner.decisions` counter, resolved on the first
    /// decision (so a tuner that never decides registers no counter).
    decisions: OnceLock<CounterHandle>,
    /// Lazily compiled `(point × metric)` lookup table used by
    /// [`Autotuner::best`]; dropped by any mutation that could change
    /// it (new point, constraint, objective, or slot) and rebuilt by
    /// the next decision.
    compiled: OnceLock<CompiledPlan>,
}

/// `last_choice` before any decision.
const NO_CHOICE: usize = usize::MAX;

/// One compiled `(point, metric)` entry: the design-time expectation
/// plus the slot index whose live EMA factor rescales it. `None` when
/// the point has no expectation for the metric (the constraint is then
/// vacuous and the objective value is `+inf`, exactly as in
/// [`Autotuner::corrected`]).
type PlanEntry = Option<(f64, Option<usize>)>;

/// String-free form of the [`Autotuner::corrected`] inputs for every
/// operating point.
#[derive(Debug, Clone)]
struct CompiledPlan {
    /// `constraints[point][constraint]`.
    constraints: Vec<Vec<PlanEntry>>,
    /// `objective[point]` for the objective metric.
    objective: Vec<PlanEntry>,
}

impl Default for Autotuner {
    fn default() -> Autotuner {
        Autotuner::new()
    }
}

/// One resolved `(configuration, metric)` observation stream.
#[derive(Debug)]
struct ObserveSlot {
    monitor: MonitorHandle,
    /// Design-time expectation at slot-resolution time (`None` when
    /// the configuration has no operating point for the metric).
    expected: Option<f64>,
    /// EMA-smoothed observed/expected correction factor.
    factor: f64,
}

/// A pre-resolved observation slot, returned by
/// [`Autotuner::resolve_slot`] and consumed by
/// [`Autotuner::observe_slot`]. Cheap to copy; valid for the lifetime
/// of the tuner that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunerSlot(usize);

fn config_key(config: &Configuration) -> String {
    config
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

impl Autotuner {
    /// Creates a tuner with a default monitor window of 8 and a private
    /// telemetry registry.
    pub fn new() -> Autotuner {
        Autotuner {
            points: Vec::new(),
            constraints: Vec::new(),
            objective: None,
            slots: Vec::new(),
            slot_index: BTreeMap::new(),
            registry: Registry::new(),
            window: 8,
            last_choice: AtomicUsize::new(NO_CHOICE),
            decisions: OnceLock::new(),
            compiled: OnceLock::new(),
        }
    }

    /// Drops the compiled lookup table; called from every mutation
    /// that could change what [`Autotuner::best`] would see.
    fn invalidate_plan(&mut self) {
        self.compiled = OnceLock::new();
    }

    /// The `(expected, slot)` entry backing [`Autotuner::corrected`]
    /// for one `(point, metric)` pair, in index form.
    fn compile_entry(&self, point: &OperatingPoint, metric: &str) -> PlanEntry {
        let expected = *point.expected.get(metric)?;
        let key = (config_key(&point.config), metric.to_string());
        Some((expected, self.slot_index.get(&key).copied()))
    }

    fn compile_plan(&self) -> CompiledPlan {
        let objective_metric = self.objective.as_ref().map(|o| o.metric.as_str());
        CompiledPlan {
            constraints: self
                .points
                .iter()
                .map(|p| {
                    self.constraints
                        .iter()
                        .map(|c| self.compile_entry(p, &c.metric))
                        .collect()
                })
                .collect(),
            objective: self
                .points
                .iter()
                .map(|p| objective_metric.and_then(|m| self.compile_entry(p, m)))
                .collect(),
        }
    }

    /// Attaches a shared telemetry registry; monitors and the
    /// `autotuner.*` counters are recorded there from then on.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Autotuner {
        self.registry = registry;
        self.decisions = OnceLock::new();
        self
    }

    /// The telemetry registry this tuner records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The registry monitor name for `(config, metric)`.
    fn monitor_name(config_key: &str, metric: &str) -> String {
        format!("autotuner.{config_key}.{metric}")
    }

    /// Adds an operating point.
    pub fn add_point(&mut self, point: OperatingPoint) -> &mut Self {
        self.points.push(point);
        self.invalidate_plan();
        self
    }

    /// Adds a constraint.
    pub fn add_constraint(&mut self, constraint: Constraint) -> &mut Self {
        self.constraints.push(constraint);
        self.invalidate_plan();
        self
    }

    /// Sets the objective.
    pub fn set_objective(&mut self, objective: Objective) -> &mut Self {
        self.objective = Some(objective);
        self.invalidate_plan();
        self
    }

    /// Selects the best configuration for the current features: the
    /// chosen operating point's own, borrowed, so a decision copies
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError`] when nothing applies, nothing is feasible,
    /// or no objective was set.
    pub fn best(&self, features: &Features) -> Result<&Configuration, TuneError> {
        let objective = self.objective.as_ref().ok_or(TuneError::NoObjective)?;
        // Resolve every `(point, metric)` string key once, then decide
        // on slot indexes: the hot retune path never allocates a key.
        let plan = self.compiled.get_or_init(|| self.compile_plan());
        let corrected = |entry: &PlanEntry| {
            entry.map(|(expected, slot)| {
                expected * slot.map(|i| self.slots[i].factor).unwrap_or(1.0)
            })
        };
        let mut applicable = false;
        let mut best: Option<(usize, f64)> = None;
        for (index, point) in self.points.iter().enumerate() {
            if !point.applies(features) {
                continue;
            }
            applicable = true;
            let feasible =
                plan.constraints[index]
                    .iter()
                    .zip(&self.constraints)
                    .all(|(entry, constraint)| {
                        corrected(entry)
                            .map(|v| constraint.satisfied(v))
                            .unwrap_or(true)
                    });
            if !feasible {
                continue;
            }
            let value = corrected(&plan.objective[index]).unwrap_or(f64::INFINITY);
            let value = match objective.direction {
                Direction::Minimize => value,
                Direction::Maximize => -value,
            };
            // Strictly-less keeps the first minimum, matching the old
            // `min_by` over the feasible points in insertion order.
            if best.is_none_or(|(_, incumbent)| value.total_cmp(&incumbent).is_lt()) {
                best = Some((index, value));
            }
        }
        if !applicable {
            return Err(TuneError::NothingApplicable);
        }
        let Some((best_index, _)) = best else {
            return Err(TuneError::NothingFeasible);
        };
        let best = &self.points[best_index];
        // A switch is a different configuration key, not merely a
        // different point: two points with one key are one choice.
        let last = self.last_choice.swap(best_index, Ordering::Relaxed);
        if last != best_index {
            let chosen = config_key(&best.config);
            if (self.points.get(last)).is_some_and(|p| config_key(&p.config) != chosen) {
                self.registry.counter_add("autotuner.switches", 1);
                self.registry
                    .event("autotuner.switch", format!("now {chosen}"));
            }
        }
        (self.decisions)
            .get_or_init(|| self.registry.counter_handle("autotuner.decisions"))
            .add(1);
        Ok(&best.config)
    }

    /// Resolves the observation slot for `(config, metric)`: one
    /// string-keyed lookup (creating the slot and its registry monitor
    /// on first use) that makes every subsequent
    /// [`Autotuner::observe_slot`] string-free. The slot captures the
    /// design-time expectation at resolution time, so resolve slots
    /// after the operating points are added.
    pub fn resolve_slot(&mut self, config: &Configuration, metric: &str) -> TunerSlot {
        let key = (config_key(config), metric.to_string());
        if let Some(&index) = self.slot_index.get(&key) {
            return TunerSlot(index);
        }
        let monitor = self
            .registry
            .monitor_handle(&Self::monitor_name(&key.0, metric), self.window);
        let expected = self
            .points
            .iter()
            .find(|p| config_key(&p.config) == key.0)
            .and_then(|p| p.expected.get(metric))
            .copied();
        let index = self.slots.len();
        self.slots.push(ObserveSlot {
            monitor,
            expected,
            factor: 1.0,
        });
        self.slot_index.insert(key, index);
        // A new slot can back an existing `(point, metric)` entry.
        self.invalidate_plan();
        TunerSlot(index)
    }

    /// Feeds an observation through a pre-resolved slot: the monitor
    /// update and the EMA correction run without building a single
    /// string — the hot-path form used by the serving engine once per
    /// completed batch.
    pub fn observe_slot(&mut self, slot: TunerSlot, value: f64) {
        let slot = &mut self.slots[slot.0];
        // Published at once: `Autotuner::monitor` reads the window back.
        slot.monitor.observe(value);
        slot.monitor.flush();
        if let Some(expected) = slot.expected {
            if expected > 0.0 {
                let ratio = value / expected;
                slot.factor = (1.0 - EMA_ALPHA) * slot.factor + EMA_ALPHA * ratio;
            }
        }
    }

    /// Feeds an observation of `metric` under `config`; updates the
    /// monitors and the correction factor.
    pub fn observe(&mut self, config: &Configuration, metric: &str, value: f64) {
        let slot = self.resolve_slot(config, metric);
        self.observe_slot(slot, value);
    }

    /// A snapshot of the monitor for `(config, metric)`, if
    /// observations exist.
    pub fn monitor(&self, config: &Configuration, metric: &str) -> Option<Monitor> {
        self.registry
            .monitor(&Self::monitor_name(&config_key(config), metric))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::config;

    /// Two code variants of a kernel: FPGA (fast, power-hungry setup) and
    /// CPU (slow, always available).
    fn kernel_tuner() -> Autotuner {
        let mut t = Autotuner::new();
        t.add_point(
            OperatingPoint::new(config([("variant", "fpga")]))
                .expect("time_us", 500.0)
                .expect("energy_j", 1.2),
        );
        t.add_point(
            OperatingPoint::new(config([("variant", "cpu")]))
                .expect("time_us", 4_000.0)
                .expect("energy_j", 3.0),
        );
        t.set_objective(Objective::minimize("time_us"));
        t
    }

    #[test]
    fn picks_fastest_variant_by_default() {
        let t = kernel_tuner();
        let best = t.best(&Features::new()).unwrap();
        assert_eq!(best["variant"].to_string(), "fpga");
    }

    #[test]
    fn adapts_when_observations_degrade() {
        let mut t = kernel_tuner();
        let fpga = config([("variant", "fpga")]);
        // FPGA contended: observed time 12x the expectation.
        for _ in 0..10 {
            t.observe(&fpga, "time_us", 6_000.0);
        }
        let best = t.best(&Features::new()).unwrap();
        assert_eq!(
            best["variant"].to_string(),
            "cpu",
            "tuner must switch to the CPU variant under contention"
        );
        // Contention clears: observations return to design-time values.
        for _ in 0..20 {
            t.observe(&fpga, "time_us", 500.0);
        }
        let best = t.best(&Features::new()).unwrap();
        assert_eq!(best["variant"].to_string(), "fpga");
    }

    #[test]
    fn constraints_filter_points() {
        let mut t = kernel_tuner();
        t.set_objective(Objective::minimize("energy_j"));
        // Tight deadline excludes the CPU variant.
        t.add_constraint(Constraint::le("time_us", 1_000.0));
        let best = t.best(&Features::new()).unwrap();
        assert_eq!(best["variant"].to_string(), "fpga");
        // Impossible deadline: nothing feasible.
        t.add_constraint(Constraint::le("time_us", 1.0));
        assert_eq!(t.best(&Features::new()), Err(TuneError::NothingFeasible));
    }

    #[test]
    fn feature_regions_select_size_dependent_points() {
        let mut t = Autotuner::new();
        // FPGA pays off only for large inputs (offload overhead).
        t.add_point(
            OperatingPoint::new(config([("variant", "fpga")]))
                .expect("time_us", 800.0)
                .when("size", 10_000.0, f64::INFINITY),
        );
        t.add_point(OperatingPoint::new(config([("variant", "cpu")])).expect("time_us", 1_500.0));
        t.set_objective(Objective::minimize("time_us"));

        let mut small = Features::new();
        small.insert("size".into(), 100.0);
        assert_eq!(t.best(&small).unwrap()["variant"].to_string(), "cpu");

        let mut large = Features::new();
        large.insert("size".into(), 1_000_000.0);
        assert_eq!(t.best(&large).unwrap()["variant"].to_string(), "fpga");
    }

    #[test]
    fn maximize_objective() {
        let mut t = Autotuner::new();
        t.add_point(OperatingPoint::new(config([("q", 1i64)])).expect("accuracy", 0.8));
        t.add_point(OperatingPoint::new(config([("q", 2i64)])).expect("accuracy", 0.95));
        t.set_objective(Objective {
            metric: "accuracy".into(),
            direction: Direction::Maximize,
        });
        let best = t.best(&Features::new()).unwrap();
        assert_eq!(best["q"].to_string(), "2");
    }

    #[test]
    fn errors_are_specific() {
        let mut t = Autotuner::new();
        assert_eq!(t.best(&Features::new()), Err(TuneError::NoObjective));
        t.set_objective(Objective::minimize("time_us"));
        assert_eq!(t.best(&Features::new()), Err(TuneError::NothingApplicable));
    }

    #[test]
    fn monitors_accumulate_observations() {
        let mut t = kernel_tuner();
        let cfg = config([("variant", "fpga")]);
        t.observe(&cfg, "time_us", 500.0);
        t.observe(&cfg, "time_us", 700.0);
        let m = t.monitor(&cfg, "time_us").unwrap();
        assert_eq!(m.count(), 2);
        assert_eq!(m.mean(), Some(600.0));
    }
}

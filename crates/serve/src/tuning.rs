//! Online batch-size tuning: one mARGOt tuner per kernel class picks
//! the batch ceiling that minimises per-request cost under the class's
//! latency SLO. The event loop reports each finished batch and is told
//! when a retune is due; what the choice does to the batcher (and how
//! a brownout tier caps it) stays with the loop.

use std::sync::Arc;

use everest_autotuner::{
    config, Autotuner, Configuration, Constraint, Features, KnobValue, Objective, OperatingPoint,
    TunerSlot,
};
use everest_telemetry::Registry;

use crate::batcher::BatchPolicy;
use crate::config::ServeConfig;
use crate::pricing::Pricing;
use crate::request::KernelClass;

#[derive(Debug)]
struct ClassTuning {
    name: String,
    /// The class's operating points are `{batch, class}` configurations:
    /// the `class` knob keeps each class's `autotuner.*` monitors apart
    /// in a shared registry.
    tuner: Autotuner,
    /// The `latency_us` and `per_request_us` slots of the operating
    /// point at this batch ceiling: valid while it is the active one.
    slots: Option<(usize, TunerSlot, TunerSlot)>,
    completions: u64,
    /// The ceiling the tuner (or the config) chose, before any brownout
    /// cap; kept so a recovery restores it.
    chosen: usize,
}

/// Completed batches of a class between retunes.
const RETUNE_EVERY: u64 = 16;

#[derive(Debug)]
pub(crate) struct BatchTuning {
    classes: Vec<ClassTuning>,
    /// Whether a class retunes every [`RETUNE_EVERY`] completed
    /// batches; with autotuning off, observations are still fed.
    autotune: bool,
}

impl BatchTuning {
    pub(crate) fn new(cfg: &ServeConfig, pricing: &Pricing, registry: &Arc<Registry>) -> Self {
        let has_fpga = cfg.nodes / 2 > 0;
        BatchTuning {
            classes: (cfg.classes.iter().zip(&cfg.batch))
                .map(|(class, policy)| ClassTuning {
                    name: class.name.clone(),
                    tuner: design_points(class, policy, pricing, has_fpga)
                        .with_registry(registry.clone()),
                    slots: None,
                    completions: 0,
                    chosen: policy.max_batch,
                })
                .collect(),
            autotune: cfg.autotune,
        }
    }

    /// The ceiling chosen for `class`, uncapped.
    pub(crate) fn chosen(&self, class: usize) -> usize {
        self.classes[class].chosen
    }

    /// Feeds the tuner what the operating point at the `active` ceiling
    /// achieved, through slots resolved once per (class, ceiling).
    /// Returns whether this completion makes a retune due.
    pub(crate) fn batch_finished(
        &mut self,
        class: usize,
        active: usize,
        latency_us: f64,
        per_request_us: f64,
    ) -> bool {
        let state = &mut self.classes[class];
        let (_, latency, per_request) = match state.slots {
            Some(cached) if cached.0 == active => cached,
            _ => {
                let key = point_config(active, &state.name);
                let mut slot = |metric| state.tuner.resolve_slot(&key, metric);
                *(state.slots).insert((active, slot("latency_us"), slot("per_request_us")))
            }
        };
        state.tuner.observe_slot(latency, latency_us);
        state.tuner.observe_slot(per_request, per_request_us);
        state.completions += 1;
        self.autotune && state.completions.is_multiple_of(RETUNE_EVERY)
    }

    /// Re-evaluates the class's tuner; the choice is read back through
    /// [`BatchTuning::chosen`].
    pub(crate) fn retune(&mut self, class: usize, now_us: f64) {
        let state = &mut self.classes[class];
        let chosen = match state.tuner.best(&Features::new()) {
            Ok(best) => match best.get("batch") {
                Some(KnobValue::Int(n)) => (*n).max(1) as usize,
                _ => 1,
            },
            // Nothing meets the deadline: serve unbatched, the
            // lowest-latency point available.
            Err(_) => 1,
        };
        if chosen != state.chosen {
            state.chosen = chosen;
            state.tuner.registry().event(
                "serve.retune",
                format!("class={} batch={chosen} at={now_us:.3}", state.name),
            );
        }
    }
}

/// The configuration of the operating point at batch ceiling `batch`
/// in the tuner of class `class`.
fn point_config(batch: usize, class: &str) -> Configuration {
    config([
        ("batch", KnobValue::Int(batch as i64)),
        ("class", KnobValue::from(class)),
    ])
}

/// Design-time operating points for one class: batch sizes in powers of
/// two up to the configured ceiling, expected latency = half the wait
/// window plus batch service, expected per-request cost = service
/// amortised over the batch. The tuner minimises per-request cost
/// subject to the class deadline.
fn design_points(
    class: &KernelClass,
    policy: &BatchPolicy,
    pricing: &Pricing,
    has_fpga: bool,
) -> Autotuner {
    let mut tuner = Autotuner::new();
    let powers = std::iter::successors(Some(1_usize), |b| b.checked_mul(2));
    let sizes = powers.take_while(|b| *b < policy.max_batch);
    for n in sizes.chain([policy.max_batch]) {
        let service = pricing.healthy_us(class, has_fpga, n);
        let wait = if n <= 1 {
            0.0
        } else {
            0.5 * policy.max_wait_us
        };
        tuner.add_point(
            OperatingPoint::new(point_config(n, &class.name))
                .expect("latency_us", wait + service)
                .expect("per_request_us", service / n as f64),
        );
    }
    tuner.set_objective(Objective::minimize("per_request_us"));
    tuner.add_constraint(Constraint::le("latency_us", class.deadline_us));
    tuner
}

#[cfg(test)]
mod tests {
    use everest_faults::FaultPlan;

    use super::*;

    /// Both default classes batch up to 8, so their tuners have points
    /// at the same ceilings; the `class` knob still keeps every window
    /// to one class.
    #[test]
    fn class_tuners_sharing_a_registry_keep_disjoint_windows() {
        let cfg = ServeConfig::default();
        let registry = Registry::new();
        let pricing = Pricing::new(cfg.nodes, &FaultPlan::new(cfg.seed));
        let mut tuning = BatchTuning::new(&cfg, &pricing, &registry);
        for round in 0..3 {
            let round = f64::from(round);
            tuning.batch_finished(0, 4, 100.0 + round, 10.0 + round);
            tuning.batch_finished(1, 4, 900.0 + round, 90.0 + round);
        }
        // The tuners buffer their observations: publish them before
        // reading the shared registry mid-run.
        for class in &mut tuning.classes {
            class.tuner.flush_monitors();
        }
        let window = |class: &str, metric: &str| {
            let name = format!("autotuner.batch=4,class={class}.{metric}");
            let monitor = registry.monitor(&name).expect("the class's own monitor");
            (monitor.count(), monitor.mean())
        };
        assert_eq!(window("infer", "latency_us"), (3, Some(101.0)));
        assert_eq!(window("infer", "per_request_us"), (3, Some(11.0)));
        assert_eq!(window("analytics", "latency_us"), (3, Some(901.0)));
        assert_eq!(window("analytics", "per_request_us"), (3, Some(91.0)));
        let names = registry.monitor_names();
        assert_eq!(
            names.iter().filter(|n| n.starts_with("autotuner.")).count(),
            4,
            "{names:?}"
        );
    }
}

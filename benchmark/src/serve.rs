//! `serve_saturation`, `serve_nominal`, `serve_chaos`: seeded serving
//! campaigns through `run_serve`.
//!
//! The engine is one public call, so its inner layers are measured from
//! outside in two ways. *Replay*: the run's own arrival trace and batch
//! stream pushed through each layer's public type in isolation.
//! *Ablation*: the same campaign with one public config field off.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::time::Instant;

use everest_health::HealthMonitor;
use everest_runtime::{EventQueue, FaultPlan};
use everest_sdk::{run_serve, ServeOptions, ServeReport};
use everest_serve::{
    AdmissionController, ArrivalTrace, DynamicBatcher, LifecycleConfig, OfferOutcome, Request,
    ServeConfig, ServeEngine, ServeOutcome, WeightedFairQueue,
};
use everest_telemetry::Registry;

use crate::gen::{Digest, Rng};
use crate::harness::{Oracle, Pass, Workload};
use crate::metrics::Layers;
use crate::trace::Tracer;

/// The campaign shape of one serve workload.
pub trait Shape {
    /// The options of a campaign, before seed and scale are applied.
    fn options() -> ServeOptions;
    /// Whether the fault, lifecycle and cluster layers are on, and so
    /// worth an ablation run each.
    const ABLATE: bool;
}

/// Load 4.0: door-bound, most arrivals are shed.
pub struct Saturation;
/// Load 0.8: nothing is shed, every request crosses every queue.
pub struct Nominal;
/// Load 1.0 under crash, gray and partition faults with every
/// lifecycle feature on.
pub struct Chaos;

impl Shape for Saturation {
    fn options() -> ServeOptions {
        ServeOptions {
            load: 4.0,
            horizon_ms: 2_500.0,
            ..ServeOptions::default()
        }
    }
    const ABLATE: bool = false;
}

impl Shape for Nominal {
    fn options() -> ServeOptions {
        ServeOptions {
            load: 0.8,
            horizon_ms: 6_250.0,
            ..ServeOptions::default()
        }
    }
    const ABLATE: bool = false;
}

impl Shape for Chaos {
    fn options() -> ServeOptions {
        ServeOptions {
            load: 1.0,
            horizon_ms: 2_500.0,
            chaos: 8,
            retries: true,
            hedge: true,
            limiter: true,
            brownout: true,
            partition: 1,
            ..ServeOptions::default()
        }
    }
    const ABLATE: bool = true;
}

/// Campaigns in a pass. Each is an operation of a few tens of
/// milliseconds: short enough to meet a quiet moment on a shared host.
const CAMPAIGNS: usize = 16;

/// Exact facts of the traced campaign, reported by `finish`.
#[derive(Debug, Default)]
struct Counts {
    outcome: Option<ServeOutcome>,
    faults_injected: u64,
    wfq_pops: u64,
    event_pushes: u64,
    event_cancels: u64,
    health_observations: u64,
    health_verdicts: u64,
    telemetry_observations: u64,
}

/// A serve workload of shape `S`.
pub struct Serve<S: Shape> {
    seed: u64,
    quick: bool,
    digest: Digest,
    /// What each campaign of the warm-up pass produced, for the passes
    /// that repeat it.
    warm: Vec<[u64; 6]>,
    counts: Counts,
    shape: PhantomData<S>,
}

fn events(outcome: &ServeOutcome) -> u64 {
    outcome.offered + 2 * outcome.batches.len() as u64
}

/// A cheap fingerprint of an outcome; the full field-for-field
/// comparison is made once, in `verify`.
fn fingerprint(outcome: &ServeOutcome) -> [u64; 6] {
    [
        outcome.offered,
        outcome.completed,
        outcome.shed_total(),
        outcome.batches.len() as u64,
        outcome.end_us.to_bits(),
        outcome.latencies_us.iter().sum::<f64>().to_bits(),
    ]
}

fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

impl<S: Shape> Serve<S> {
    /// A pass is `CAMPAIGNS` campaigns drawn from the run's seed, so what
    /// a run measures is a sample of campaigns and not one campaign's
    /// luck: single campaigns differ by up to a fifth in host time, and
    /// under faults by far more.
    fn options(&self, campaign: usize) -> ServeOptions {
        let mut options = S::options();
        options.seed = Rng::new(self.seed, 0x5E21 + campaign as u64).next_u64() >> 16;
        if self.quick {
            options.horizon_ms /= 10.0;
        }
        options
    }

    fn campaign(&self, campaign: usize) -> ServeReport {
        // The registry should hold one campaign at a time, as a
        // basecamp process does.
        everest_telemetry::global().reset();
        run_serve(&self.options(campaign))
    }

    fn engine_seconds(config: ServeConfig, plan: FaultPlan, pass: &mut Pass) -> f64 {
        everest_telemetry::global().reset();
        let (outcome, s) = seconds(|| {
            ServeEngine::new(config)
                .with_plan(plan)
                .with_registry(everest_telemetry::global())
                .run()
        });
        pass.failed += u64::from(!outcome.conserved());
        s
    }
}

impl<S: Shape> Workload for Serve<S> {
    fn setup(seed: u64, quick: bool, steps: &mut Pass) -> Serve<S> {
        let mut workload = Serve {
            seed,
            quick,
            digest: Digest::default(),
            warm: Vec::new(),
            counts: Counts::default(),
            shape: PhantomData,
        };
        let mut digest = Digest::default();
        for campaign in 0..CAMPAIGNS {
            let warm = steps.time(|| workload.campaign(campaign));
            workload.warm.push(fingerprint(&warm.outcome));
            digest.u64(warm.config.seed);
            digest.f64(warm.config.offered_rps);
            digest.f64(warm.config.horizon_us);
            digest.u64(warm.outcome.offered);
            for fault in warm.plan.faults() {
                digest.str(&fault.describe());
            }
        }
        workload.digest = digest;
        workload
    }

    fn digest(&self) -> Digest {
        self.digest
    }

    fn verify(&mut self) -> Oracle {
        let mut oracle = Oracle::default();
        for campaign in 0..CAMPAIGNS {
            let a = self.campaign(campaign);
            let b = self.campaign(campaign);
            oracle.check(a.outcome.conserved(), || {
                format!("campaign {campaign} lost or double-counted requests")
            });
            oracle.check(a.outcome == b.outcome, || {
                format!("two runs of campaign {campaign} differ")
            });
            oracle.check(fingerprint(&a.outcome) == self.warm[campaign], || {
                format!("campaign {campaign} differs from the warm-up pass")
            });
            oracle.check(a.outcome.completed > 0, || {
                format!("campaign {campaign} completed nothing")
            });
        }
        oracle
    }

    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        for campaign in 0..CAMPAIGNS {
            let options = self.options(campaign);
            // One registry per campaign, emptied outside the timed call.
            everest_telemetry::global().reset();
            let report = pass.time(|| run_serve(&options));
            let ok =
                report.outcome.conserved() && fingerprint(&report.outcome) == self.warm[campaign];
            pass.failed += u64::from(!ok);
            pass.work += events(&report.outcome);
        }
        pass
    }

    fn traced_pass(
        &mut self,
        round: usize,
        _plain: &Pass,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Pass {
        let mut pass = Pass::default();
        let options = self.options(0);
        tracer.at(round, 0);
        let report = pass.time(|| tracer.time("serve.engine.run", || run_serve(&options)));
        let run_s = pass.seconds();
        let outcome = &report.outcome;
        let config = &report.config;
        pass.failed += u64::from(!outcome.conserved() || fingerprint(outcome) != self.warm[0]);
        pass.work = events(outcome);
        let faults_injected = everest_telemetry::global().counter("serve.faults");

        // -- replay ----------------------------------------------------
        let (trace, synthesize_s) = seconds(|| {
            tracer.time("serve.request.synthesize", || {
                ArrivalTrace::synthesize(
                    config.seed,
                    &config.tenants,
                    &config.classes,
                    config.horizon_us,
                    config.offered_rps,
                )
            })
        });

        // The door with an empty queue behind it: token buckets and
        // static feasibility. The engine's own shed counts are exact;
        // the replay only costs the layer.
        let (mut admitted, admission_s) = seconds(|| {
            tracer.time("serve.admission.replay", || {
                let mut door =
                    AdmissionController::new(&config.tenants, &config.classes, &config.admission);
                let mut admitted: Vec<Request> = Vec::with_capacity(outcome.admitted as usize);
                for r in trace.requests() {
                    if door.admit(r.tenant, r.class, r.arrival_us, 0, None).is_ok() {
                        admitted.push(*r);
                    }
                }
                admitted
            })
        });
        admitted.truncate(outcome.admitted as usize);

        // As many pushes and pops as the run admitted, the backlog
        // bounded at one batch as the engine's pump keeps it.
        let weights: Vec<f64> = config.tenants.iter().map(|t| t.weight).collect();
        let (popped, wfq_s) = seconds(|| {
            tracer.time("serve.wfq.replay", || {
                let mut wfq = WeightedFairQueue::new(&weights);
                let mut popped = Vec::with_capacity(admitted.len());
                for r in &admitted {
                    wfq.push(*r);
                    if wfq.len() >= 8 {
                        while let Some(next) = wfq.pop() {
                            popped.push(next);
                        }
                    }
                }
                while let Some(next) = wfq.pop() {
                    popped.push(next);
                }
                popped
            })
        });

        let ((), batcher_s) = seconds(|| {
            tracer.time("serve.batcher.replay", || {
                let mut batcher = DynamicBatcher::new(&config.batch);
                let mut open: Vec<Option<(u64, f64)>> = vec![None; config.batch.len()];
                for r in &popped {
                    let now = r.arrival_us;
                    if let Some((id, deadline)) = open[r.class] {
                        if now >= deadline {
                            batcher.expire(r.class, id, deadline);
                            open[r.class] = None;
                        }
                    }
                    match batcher.offer(*r, now) {
                        OfferOutcome::Opened(id) => {
                            open[r.class] = Some((id, now + batcher.max_wait_us(r.class)));
                        }
                        OfferOutcome::Closed(_) => open[r.class] = None,
                        OfferOutcome::Joined => {}
                    }
                    while let Some(batch) = batcher.pop_ready() {
                        std::hint::black_box(batch.requests.len());
                    }
                }
            })
        });

        // The run's batch stream as event traffic: a wait-timeout per
        // batch, cancelled when the batch closed on size, and a
        // completion, popped in time order.
        let mut pushes = 0u64;
        let mut cancels = 0u64;
        let ((), events_s) = seconds(|| {
            tracer.time("runtime.events.replay", || {
                let mut queue: EventQueue<u64> = EventQueue::with_capacity(64);
                for b in &outcome.batches {
                    while queue.peek_time().is_some_and(|t| t <= b.start_us) {
                        std::hint::black_box(queue.pop());
                    }
                    let policy = &config.batch[b.class];
                    let timeout = queue.push(b.start_us + policy.max_wait_us, b.id);
                    pushes += 1;
                    if b.size >= policy.max_batch {
                        cancels += u64::from(queue.cancel(timeout));
                    }
                    queue.push(b.finish_us, b.id);
                    pushes += 1;
                }
                while let Some(event) = queue.pop() {
                    std::hint::black_box(event);
                }
            })
        });

        // Inflation of a batch = its service time over the fastest one
        // the run saw for the same class, node and size.
        let mut healthy: HashMap<(usize, usize, usize), f64> = HashMap::new();
        for b in outcome.batches.iter().filter(|b| !b.failed && !b.cancelled) {
            let service = b.finish_us - b.start_us;
            healthy
                .entry((b.class, b.node, b.size))
                .and_modify(|best| *best = best.min(service))
                .or_insert(service);
        }
        let first_fpga = config.nodes - config.nodes / 2;
        let mut observations = 0u64;
        let (verdicts, health_s) = seconds(|| {
            tracer.time("health.monitor.replay", || {
                let mut monitor = HealthMonitor::new(
                    config.nodes,
                    config.health.clone(),
                    config.seed,
                    Registry::new(),
                );
                for b in outcome.batches.iter().filter(|b| !b.failed && !b.cancelled) {
                    let best = healthy[&(b.class, b.node, b.size)];
                    let service = b.finish_us - b.start_us;
                    let inflation = if best > 0.0 { service / best } else { 1.0 };
                    monitor.record_task(b.node, inflation, b.finish_us);
                    observations += 1;
                    if b.node >= first_fpga {
                        monitor.record_fpga(b.node, 1.0, b.finish_us);
                        observations += 1;
                    }
                    std::hint::black_box(monitor.drain_new());
                }
                monitor.verdicts().len() as u64
            })
        });

        // The instruments the engine resolves once and hits per event:
        // two 1-in-8 sampled histograms per request, one histogram and
        // one gauge per batch.
        let mut telemetry_observations = 0u64;
        let ((), telemetry_s) = seconds(|| {
            tracer.time("telemetry.replay", || {
                let registry = Registry::new();
                let mut queue_wait = registry.histogram_handle_sampled("serve.queue_wait_us", 8);
                let mut latency = registry.histogram_handle_sampled("serve.latency_us", 8);
                let mut batch_size = registry.histogram_handle("serve.batch_size");
                let depth = registry.gauge_handle("serve.queue_depth");
                for b in &outcome.batches {
                    for _ in 0..b.size {
                        queue_wait.record(b.start_us);
                    }
                    batch_size.record(b.size as f64);
                    depth.set(b.size as f64);
                    telemetry_observations += b.size as u64 + 2;
                }
                for &l in &outcome.latencies_us {
                    latency.record(l);
                }
                telemetry_observations += outcome.latencies_us.len() as u64;
            })
        });

        layers.sample("serve.engine.run_s", run_s);
        layers.sample("serve.request.synthesize_s", synthesize_s);
        layers.sample("serve.admission.replay_s", admission_s);
        layers.sample("serve.wfq.replay_s", wfq_s);
        layers.sample("serve.batcher.replay_s", batcher_s);
        layers.sample("runtime.events.replay_s", events_s);
        layers.sample("health.monitor.replay_s", health_s);
        layers.sample("telemetry.replay_s", telemetry_s);
        let replayed =
            synthesize_s + admission_s + wfq_s + batcher_s + events_s + health_s + telemetry_s;
        layers.sample("serve.engine.residual_s", run_s - replayed);

        // -- ablation --------------------------------------------------
        if S::ABLATE {
            let id = tracer.begin("faults.ablation");
            let no_faults =
                Self::engine_seconds(config.clone(), FaultPlan::new(report.plan.seed), &mut pass);
            tracer.end(id);
            let id = tracer.begin("serve.lifecycle.ablation");
            let no_lifecycle = Self::engine_seconds(
                ServeConfig {
                    lifecycle: LifecycleConfig::default(),
                    ..config.clone()
                },
                report.plan.clone(),
                &mut pass,
            );
            tracer.end(id);
            let id = tracer.begin("cluster.ablation");
            let no_cluster = Self::engine_seconds(
                ServeConfig {
                    cluster: None,
                    ..config.clone()
                },
                report.plan.clone(),
                &mut pass,
            );
            tracer.end(id);
            layers.sample("faults.delta_s", run_s - no_faults);
            layers.sample("serve.lifecycle.delta_s", run_s - no_lifecycle);
            layers.sample("cluster.delta_s", run_s - no_cluster);
        }

        self.counts = Counts {
            faults_injected,
            wfq_pops: popped.len() as u64,
            event_pushes: pushes,
            event_cancels: cancels,
            health_observations: observations,
            health_verdicts: verdicts,
            telemetry_observations,
            outcome: Some(report.outcome),
        };
        pass
    }

    fn finish(&mut self, _tracer: &Tracer, layers: &mut Layers) {
        let counts = std::mem::take(&mut self.counts);
        let Some(o) = counts.outcome else {
            return;
        };
        let share = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let door_shed = o.offered - o.admitted;
        layers.set("serve.request.arrivals", o.offered as f64);
        layers.set("serve.admission.admitted", o.admitted as f64);
        layers.set("serve.admission.shed", door_shed as f64);
        layers.set("serve.admission.shed_share", share(door_shed, o.offered));
        layers.set("serve.wfq.pops", counts.wfq_pops as f64);
        layers.set("serve.batcher.batches", o.batches.len() as f64);
        let batched: usize = o.batches.iter().map(|b| b.size).sum();
        layers.set(
            "serve.batcher.mean_batch_size",
            share(batched as u64, o.batches.len() as u64),
        );
        layers.set("runtime.events.pushes", counts.event_pushes as f64);
        layers.set("runtime.events.cancels", counts.event_cancels as f64);
        layers.set(
            "health.monitor.observations",
            counts.health_observations as f64,
        );
        layers.set("health.monitor.verdicts", counts.health_verdicts as f64);
        layers.set(
            "telemetry.observations",
            counts.telemetry_observations as f64,
        );
        let simulated = events(&o);
        layers.set("serve.engine.events", simulated as f64);
        layers.set(
            "serve.engine.ns_per_event",
            layers.value("serve.engine.run_s") * 1e9 / simulated as f64,
        );
        layers.set("autotuner.retunes", o.retunes as f64);
        layers.set("faults.injected", counts.faults_injected as f64);
        layers.set("serve.lifecycle.retries", o.retries as f64);
        layers.set("serve.lifecycle.hedges", o.hedges as f64);
        layers.set(
            "serve.lifecycle.hedge_win_share",
            share(o.hedge_wins, o.hedges),
        );
        layers.set(
            "serve.lifecycle.brownout_transitions",
            o.brownout_transitions as f64,
        );
        layers.set("cluster.gossip_rounds", o.gossip_rounds as f64);
        if o.gossip_rounds > 0 {
            layers.set(
                "cluster.us_per_round",
                layers.value("cluster.delta_s") * 1e6 / o.gossip_rounds as f64,
            );
        }
        layers.set("cluster.failovers", o.failovers as f64);
        layers.set("cluster.fenced_batches", o.fenced_batches as f64);
        layers.set("health.breaker_opens", o.breaker_opens as f64);
        let in_deadline = o.completed - o.slo_violations;
        layers.set("virtual.goodput_rps", in_deadline as f64 * 1e6 / o.end_us);
        layers.set("virtual.p99_us", o.latency_quantile(0.99).unwrap_or(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_are_a_function_of_the_seed() {
        let digest = |seed| Serve::<Nominal>::setup(seed, true, &mut Pass::default()).digest();
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(7));
    }

    #[test]
    fn a_pass_draws_distinct_campaigns() {
        let w = Serve::<Chaos>::setup(42, true, &mut Pass::default());
        assert_ne!(w.options(0).seed, w.options(1).seed);
        assert_eq!(w.options(3), w.options(3));
    }

    #[test]
    fn quick_chaos_campaign_passes_its_oracles() {
        let mut w = Serve::<Chaos>::setup(42, true, &mut Pass::default());
        let oracle = w.verify();
        assert!(oracle.failures.is_empty(), "{:?}", oracle.failures);
        let pass = w.pass();
        assert_eq!((pass.failed, pass.op_ms.len()), (0, CAMPAIGNS));
    }
}

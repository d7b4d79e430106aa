//! Seeded serving campaigns: the SDK-level driver for `everest-serve`.
//!
//! A campaign derives everything from its options — the tenant table
//! (weights cycling gold 4× / silver 2× / bronze 1×, admission budgets
//! scaled to the cluster), the open-loop Poisson arrival trace, and an
//! optional chaos plan — and pushes it through the serving engine.
//! Offered load is expressed as a multiple of the cluster's nominal
//! capacity (`--load 2` ≈ 2× what the nodes can sustain), which is
//! what the `e16_serving` bench sweeps.
//!
//! Everything derives from the seed on the virtual clock, so the
//! exported trace is byte-identical across replays
//! (`basecamp serve --seed N --trace` is diffable; CI relies on this).

use everest_ir::module::Module;
use everest_runtime::FaultPlan;
use everest_serve::{
    BrownoutConfig, ClusterConfig, HedgeConfig, KernelClass, LifecycleConfig, LimiterConfig,
    RetryConfig, ServeConfig, ServeConfigError, ServeEngine, ServeOutcome, TenantSpec,
};
use serde::{Serialize, Value};
use serde_json::{fixed, int};

use crate::chaos::plan_rows;

/// Campaign shape. Everything else derives from `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Master seed for the arrival trace and the chaos plan.
    pub seed: u64,
    /// Cluster size; half the nodes (rounded down) carry an FPGA.
    pub nodes: usize,
    /// Number of tenants (weights cycle 4, 2, 1).
    pub tenants: usize,
    /// Offered load as a multiple of nominal cluster capacity
    /// (2 500 rps per node).
    pub load: f64,
    /// Arrival horizon in milliseconds of virtual time.
    pub horizon_ms: f64,
    /// Faults drawn into the chaos plan (0 = fault-free run).
    pub chaos: usize,
    /// Per-tenant retry budgets with seeded backoff for fault-failed
    /// requests (`--retries`).
    pub retries: bool,
    /// Hedged dispatch for the latency-critical `infer` class
    /// (`--hedge`).
    pub hedge: bool,
    /// AIMD concurrency limiter gating dispatch and pulling the door
    /// in under overload (`--limiter`).
    pub limiter: bool,
    /// Brownout degradation tiers driven by cluster health
    /// (`--brownout`).
    pub brownout: bool,
    /// Partition/heal cycles drawn into a seeded network-chaos plan,
    /// with the cluster membership layer enabled (`--partition-plan`;
    /// 0 = layer off, behaviour and trace bytes identical to pre-0.7
    /// runs).
    pub partition: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            seed: 42,
            nodes: 4,
            tenants: 3,
            load: 1.0,
            horizon_ms: 200.0,
            chaos: 0,
            retries: false,
            hedge: false,
            limiter: false,
            brownout: false,
            partition: 0,
        }
    }
}

/// Outcome of one serving campaign.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The options the campaign ran with.
    pub options: ServeOptions,
    /// The fully derived engine configuration.
    pub config: ServeConfig,
    /// The chaos plan the run was exposed to (empty when `chaos` = 0).
    pub plan: FaultPlan,
    /// What the engine did.
    pub outcome: ServeOutcome,
}

/// Builds the engine configuration a set of options implies, as they
/// are: options that describe no runnable campaign (no nodes, no
/// tenants, a negative load) yield a configuration that
/// [`ServeConfig::validate`] refuses.
fn build_config(options: &ServeOptions) -> ServeConfig {
    let nodes = options.nodes;
    let tiers: [(&str, f64); 3] = [("gold", 4.0), ("silver", 2.0), ("bronze", 1.0)];
    let count = options.tenants;
    let total_weight: f64 = (0..count).map(|i| tiers[i % 3].1).sum();
    // Admission budgets sum to 1.4× nominal capacity: buckets alone
    // never cap a mildly overloaded run, but cut deep overload at the
    // door before it swamps the queues.
    let admit_cap_rps = 3_500.0 * nodes as f64;
    let tenants = (0..count)
        .map(|i| {
            let (tier, weight) = tiers[i % 3];
            let name = if i < 3 {
                tier.to_string()
            } else {
                format!("{tier}{}", i / 3 + 1)
            };
            let rate_rps = admit_cap_rps * weight / total_weight;
            // Burst budget: 8 ms of the refill rate.
            TenantSpec::new(&name, weight, rate_rps, (rate_rps * 0.008).max(4.0))
        })
        .collect();
    let mut config = ServeConfig {
        seed: options.seed,
        nodes,
        tenants,
        offered_rps: 2_500.0 * nodes as f64 * options.load,
        horizon_us: options.horizon_ms * 1_000.0,
        lifecycle: LifecycleConfig {
            retry: options.retries.then(RetryConfig::default),
            hedge: options.hedge.then(HedgeConfig::default),
            limiter: options.limiter.then(LimiterConfig::default),
            brownout: options.brownout.then(BrownoutConfig::default),
        },
        cluster: (options.partition > 0).then(ClusterConfig::default),
        ..ServeConfig::default()
    };
    if options.hedge {
        // The interactive class is the one worth racing duplicates for;
        // analytics batches are throughput work and never hedge.
        config.classes[0] = config.classes[0].clone().latency_critical();
    }
    config
}

/// Attaches a statically proven worst-case latency bound to a serving
/// class from a compiled kernel's loop-level module (e.g.
/// `CompiledKernel::module`).
///
/// This is the compile-time half of deadline feasibility: the
/// `everest-analysis` latency fixpoint propagates per-op HLS cycle
/// estimates to a provable per-module bound, and the serving engine's
/// admission controller sheds the whole class (typed
/// `StaticallyInfeasible`) when that bound exceeds the class deadline —
/// before any token or queue slot is spent on provably-late work. When
/// the analysis cannot prove a bound (data-dependent loop trip counts,
/// dataflow cycles), the class is left untouched and admission falls
/// back to the runtime checks alone.
pub fn bind_static_latency(class: KernelClass, module: &Module) -> KernelClass {
    match everest_analysis::latency::module_worst_case_us(module) {
        Some(bound_us) => class.with_static_bound(bound_us),
        None => class,
    }
}

/// Runs one seeded serving campaign. Deterministic for a given set of
/// options.
///
/// # Panics
///
/// Panics when the options describe no runnable campaign; callers
/// holding outside input use [`try_run_serve`].
pub fn run_serve(options: &ServeOptions) -> ServeReport {
    try_run_serve(options).unwrap_or_else(|error| panic!("invalid serve options: {error}"))
}

/// [`run_serve`] for options that have not been checked: no nodes, no
/// tenants, a negative load, a horizon that is not a finite, positive
/// time (or any other configuration [`ServeConfig::validate`] rejects)
/// is an error, not a campaign.
pub fn try_run_serve(options: &ServeOptions) -> Result<ServeReport, ServeConfigError> {
    let config = build_config(options);
    config.validate()?;
    let span = everest_telemetry::span("basecamp.serve");
    span.arg("seed", options.seed)
        .arg("nodes", options.nodes)
        .arg("tenants", options.tenants)
        .arg("load", options.load)
        .arg("chaos", options.chaos);
    let mut plan = if options.chaos > 0 {
        FaultPlan::random_campaign(options.seed, config.nodes, config.horizon_us, options.chaos)
    } else {
        FaultPlan::new(options.seed)
    };
    if options.partition > 0 {
        for fault in FaultPlan::random_partition_campaign(
            options.seed,
            config.nodes,
            config.horizon_us,
            options.partition,
        )
        .faults()
        {
            plan.push(fault.clone());
        }
    }
    let plan = plan;
    let outcome = ServeEngine::new(config.clone())
        .with_plan(plan.clone())
        .with_registry(everest_telemetry::global())
        .run();
    span.arg("offered", outcome.offered)
        .arg("completed", outcome.completed)
        .arg("shed", outcome.shed_total())
        .arg("conserved", outcome.conserved())
        .record_sim_us(outcome.end_us);
    Ok(ServeReport {
        options: *options,
        config,
        plan,
        outcome,
    })
}

impl ServeReport {
    /// Mean size of dispatched batches.
    pub fn mean_batch_size(&self) -> f64 {
        if self.outcome.batches.is_empty() {
            0.0
        } else {
            self.outcome.batches.iter().map(|b| b.size).sum::<usize>() as f64
                / self.outcome.batches.len() as f64
        }
    }

    /// Human-readable summary for the CLI.
    pub fn summary(&self) -> String {
        let o = &self.outcome;
        let mut out = String::new();
        out.push_str(&format!(
            "campaign          : seed {}, {} nodes, {} tenants, load {:.2} ({:.0} rps offered), {:.0} ms horizon, {} faults\n",
            self.options.seed,
            self.config.nodes,
            self.config.tenants.len(),
            self.options.load,
            self.config.offered_rps,
            self.options.horizon_ms,
            self.plan.faults().len()
        ));
        for fault in self.plan.faults() {
            out.push_str(&format!("  plan            : {}\n", fault.describe()));
        }
        out.push_str(&format!("offered           : {} requests\n", o.offered));
        out.push_str(&format!(
            "admitted          : {} (shed at door: {} rate-limited, {} queue-full, {} statically-infeasible, {} overloaded, {} brownout)\n",
            o.admitted,
            o.shed_rate_limited,
            o.shed_queue_full,
            o.shed_static,
            o.shed_overloaded,
            o.shed_brownout
        ));
        out.push_str(&format!(
            "completed         : {} ({:.1}% of offered), {} failed, {} shed on deadline\n",
            o.completed,
            if o.offered == 0 {
                0.0
            } else {
                o.completed as f64 / o.offered as f64 * 100.0
            },
            o.failed,
            o.shed_deadline
        ));
        out.push_str(&format!(
            "throughput        : {:.1} rps over {:.1} ms\n",
            o.throughput_rps(),
            o.end_us / 1_000.0
        ));
        out.push_str(&format!(
            "latency           : p50 {:.1} us, p95 {:.1} us, p99 {:.1} us, mean {:.1} us ({} SLO violations)\n",
            o.latency_quantile(0.50).unwrap_or(0.0),
            o.latency_quantile(0.95).unwrap_or(0.0),
            o.latency_quantile(0.99).unwrap_or(0.0),
            o.mean_latency_us().unwrap_or(0.0),
            o.slo_violations
        ));
        out.push_str(&format!(
            "batches           : {} dispatched, mean size {:.2}\n",
            o.batches.len(),
            self.mean_batch_size()
        ));
        let ceilings: Vec<String> = self
            .config
            .classes
            .iter()
            .zip(&o.final_max_batch)
            .map(|(class, b)| format!("{}={b}", class.name))
            .collect();
        out.push_str(&format!(
            "autotuner         : {} retunes, final batch ceilings [{}]\n",
            o.retunes,
            ceilings.join(", ")
        ));
        out.push_str(&format!(
            "breakers          : {} opens, {} probes\n",
            o.breaker_opens, o.probes
        ));
        out.push_str(&format!(
            "lifecycle         : {} retries ({} denied), {} hedges ({} wins, {} cancelled, {} denied)\n",
            o.retries, o.retry_denied, o.hedges, o.hedge_wins, o.hedge_cancelled, o.hedge_denied
        ));
        out.push_str(&format!(
            "brownout          : {} transitions, peak tier {}\n",
            o.brownout_transitions, o.brownout_peak_tier
        ));
        if self.options.partition > 0 {
            out.push_str(&format!(
                "membership        : {} gossip rounds, {} suspects, {} confirms, {} refutations\n",
                o.gossip_rounds, o.suspects, o.confirms, o.refutations
            ));
            out.push_str(&format!(
                "failover          : {} failovers ({} degraded grants), fencing epoch {}, {} orphaned requests, {} fenced batches, {} shed partitioned\n",
                o.failovers,
                o.degraded_grants,
                o.cluster_epoch,
                o.partition_orphans,
                o.fenced_batches,
                o.shed_partitioned
            ));
        }
        out.push_str("tenants           :\n");
        for tenant in &o.tenants {
            out.push_str(&format!(
                "  {:<8} w={:<3} offered {:>5} admitted {:>5} completed {:>5} shed {:>5} failed {:>5} retried {:>5}\n",
                tenant.name,
                tenant.weight,
                tenant.offered,
                tenant.admitted,
                tenant.completed,
                tenant.shed,
                tenant.failed,
                tenant.retried
            ));
        }
        out.push_str(&format!(
            "conservation      : {}",
            if o.conserved() {
                "every offered request reached exactly one terminal state"
            } else {
                "VIOLATED — requests lost or double-counted"
            }
        ));
        out
    }

    /// Byte-stable replay trace: only virtual times and seed-derived
    /// state, no wall clock, no hash-map iteration order. Two runs with
    /// the same options produce identical bytes.
    pub fn trace_json(&self) -> String {
        let o = &self.outcome;
        // The members of one counter block: the ledger rows declared
        // under it, in declaration order.
        let block = |name: &str| -> Vec<(String, Value)> {
            o.ledger()
                .filter(|(row, _)| row.trace.0 == name)
                .map(|(row, value)| (row.trace.1.to_string(), int(value)))
                .collect()
        };
        let features = Value::Object(vec![
            ("retries".into(), Value::Bool(self.options.retries)),
            ("hedge".into(), Value::Bool(self.options.hedge)),
            ("limiter".into(), Value::Bool(self.options.limiter)),
            ("brownout".into(), Value::Bool(self.options.brownout)),
        ]);
        let latency = |us: Option<f64>| fixed(us.unwrap_or(0.0));
        let latency_us = Value::Object(vec![
            ("mean".into(), latency(o.mean_latency_us())),
            ("p50".into(), latency(o.latency_quantile(0.50))),
            ("p95".into(), latency(o.latency_quantile(0.95))),
            ("p99".into(), latency(o.latency_quantile(0.99))),
        ]);
        let tenants = o.tenants.iter().map(|t| {
            Value::Object(vec![
                ("name".into(), t.name.to_value()),
                ("weight".into(), fixed(t.weight)),
                ("offered".into(), int(t.offered)),
                ("admitted".into(), int(t.admitted)),
                ("completed".into(), int(t.completed)),
                ("shed".into(), int(t.shed)),
                ("failed".into(), int(t.failed)),
                ("retried".into(), int(t.retried)),
            ])
        });
        // Fencing fields only appear in partition-mode traces: a run
        // without `--partition-plan` emits the exact pre-0.7 bytes.
        let partitioned = self.options.partition > 0;
        let batches = o.batches.iter().map(|b| {
            let mut fields = vec![
                ("id".into(), int(b.id)),
                ("class".into(), b.class.to_value()),
                ("node".into(), b.node.to_value()),
                ("size".into(), b.size.to_value()),
                ("start_us".into(), fixed(b.start_us)),
                ("finish_us".into(), fixed(b.finish_us)),
                ("probe".into(), Value::Bool(b.probe)),
                ("failed".into(), Value::Bool(b.failed)),
                ("hedge".into(), Value::Bool(b.hedge)),
                ("cancelled".into(), Value::Bool(b.cancelled)),
            ];
            if partitioned {
                fields.push(("epoch".into(), int(b.epoch)));
                fields.push(("fenced".into(), Value::Bool(b.fenced)));
            }
            Value::Object(fields)
        });
        let mut autotuner = block("autotuner");
        autotuner.push(("final_batch".into(), o.final_max_batch.to_value()));
        let mut trace = vec![
            ("seed".into(), int(self.options.seed)),
            ("nodes".into(), self.config.nodes.to_value()),
            ("tenant_count".into(), self.config.tenants.len().to_value()),
            ("load".into(), fixed(self.options.load)),
            ("offered_rps".into(), fixed(self.config.offered_rps)),
            ("horizon_us".into(), fixed(self.config.horizon_us)),
            ("features".into(), features),
            ("plan".into(), plan_rows(&self.plan)),
            ("counts".into(), Value::Object(block("counts"))),
            ("lifecycle".into(), Value::Object(block("lifecycle"))),
        ];
        if partitioned {
            let mut cluster = vec![("partition_cycles".into(), self.options.partition.to_value())];
            cluster.extend(block("cluster"));
            trace.push(("cluster".into(), Value::Object(cluster)));
        }
        trace.extend([
            ("latency_us".into(), latency_us),
            ("tenants".into(), Value::Array(tenants.collect())),
            ("batches".into(), Value::Array(batches.collect())),
            ("autotuner".into(), Value::Object(autotuner)),
            ("breakers".into(), Value::Object(block("breakers"))),
            ("conserved".into(), Value::Bool(o.conserved())),
        ]);
        serde_json::to_string_trace(&Value::Object(trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_yields_byte_identical_traces() {
        let opts = ServeOptions {
            horizon_ms: 60.0,
            ..ServeOptions::default()
        };
        let a = run_serve(&opts);
        let b = run_serve(&opts);
        assert_eq!(a.trace_json(), b.trace_json());
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn campaign_is_conserved_with_and_without_chaos() {
        for chaos in [0, 5] {
            let report = run_serve(&ServeOptions {
                chaos,
                horizon_ms: 80.0,
                ..ServeOptions::default()
            });
            assert!(
                report.outcome.conserved(),
                "chaos={chaos}: {:?}",
                report.outcome
            );
            assert!(report.outcome.completed > 0, "chaos={chaos}");
            assert_eq!(report.plan.faults().len(), chaos);
        }
    }

    #[test]
    fn heavier_load_sheds_more() {
        let light = run_serve(&ServeOptions {
            load: 0.5,
            horizon_ms: 80.0,
            ..ServeOptions::default()
        });
        let heavy = run_serve(&ServeOptions {
            load: 4.0,
            horizon_ms: 80.0,
            ..ServeOptions::default()
        });
        assert!(light.outcome.shed_rate() <= heavy.outcome.shed_rate() + 1e-9);
        assert!(heavy.outcome.shed_rate() > 0.2, "{}", heavy.summary());
    }

    #[test]
    fn lifecycle_campaign_replays_and_conserves() {
        let opts = ServeOptions {
            chaos: 4,
            horizon_ms: 80.0,
            retries: true,
            hedge: true,
            limiter: true,
            brownout: true,
            ..ServeOptions::default()
        };
        let a = run_serve(&opts);
        let b = run_serve(&opts);
        assert_eq!(a.trace_json(), b.trace_json());
        assert_eq!(a.summary(), b.summary());
        assert!(a.outcome.conserved(), "{}", a.summary());
        assert!(a.trace_json().contains(
            "\"features\": {\"retries\": true, \"hedge\": true, \
             \"limiter\": true, \"brownout\": true}"
        ));
    }

    #[test]
    fn partition_campaign_replays_sheds_typed_and_recovers() {
        let opts = ServeOptions {
            chaos: 2,
            partition: 2,
            horizon_ms: 80.0,
            retries: true,
            brownout: true,
            ..ServeOptions::default()
        };
        let a = run_serve(&opts);
        let b = run_serve(&opts);
        assert_eq!(a.trace_json(), b.trace_json(), "partition traces replay");
        assert_eq!(a.summary(), b.summary());
        assert!(a.outcome.conserved(), "{}", a.summary());
        assert!(a.outcome.gossip_rounds > 0, "{}", a.summary());
        assert!(a.outcome.completed > 0, "{}", a.summary());
        assert!(a
            .trace_json()
            .contains("\"cluster\": {\"partition_cycles\": 2"));
        assert!(a.trace_json().contains("\"epoch\":"));
        assert!(a.summary().contains("membership        :"));
    }

    #[test]
    fn partition_off_keeps_prior_trace_bytes() {
        // The capstone features-off guarantee: a campaign without
        // `--partition-plan` must not mention the cluster layer at
        // all — same sections, same batch fields, same bytes as 0.6.
        let report = run_serve(&ServeOptions {
            chaos: 3,
            horizon_ms: 60.0,
            ..ServeOptions::default()
        });
        let trace = report.trace_json();
        assert!(!trace.contains("\"cluster\""));
        assert!(!trace.contains("\"epoch\""));
        assert!(!trace.contains("\"fenced\""));
        assert!(!report.summary().contains("membership"));
        assert_eq!(report.outcome.gossip_rounds, 0);
        assert_eq!(report.outcome.shed_partitioned, 0);
    }

    #[test]
    fn different_seeds_yield_different_campaigns() {
        let a = run_serve(&ServeOptions {
            horizon_ms: 60.0,
            ..ServeOptions::default()
        });
        let b = run_serve(&ServeOptions {
            seed: 43,
            horizon_ms: 60.0,
            ..ServeOptions::default()
        });
        assert_ne!(a.trace_json(), b.trace_json());
    }

    #[test]
    fn static_bound_flows_from_analysis_into_admission() {
        use everest_ir::dialects::core::{build_for, build_func, const_index};
        use everest_ir::types::{MemorySpace, Type};

        // A 64-iteration f64-multiply loop: the latency fixpoint can
        // prove its worst case exactly.
        let mut m = Module::new();
        let top = m.top_block();
        let (_func, body) = build_func(&mut m, top, "k", &[], &[]);
        let buf = m
            .build_op(
                "memref.alloc",
                vec![],
                vec![Type::memref(&[64], Type::F64, MemorySpace::Plm)],
            )
            .append_to(body);
        let buf = everest_ir::module::single_result(&m, buf);
        let lb = const_index(&mut m, body, 0);
        let ub = const_index(&mut m, body, 64);
        let step = const_index(&mut m, body, 1);
        let (_for_op, loop_body) = build_for(&mut m, body, lb, ub, step);
        let iv = m.block(loop_body).args[0];
        let x = m
            .build_op("memref.load", vec![buf, iv], vec![Type::F64])
            .append_to(loop_body);
        let x = everest_ir::module::single_result(&m, x);
        let y = m
            .build_op("arith.mulf", vec![x, x], vec![Type::F64])
            .append_to(loop_body);
        let y = everest_ir::module::single_result(&m, y);
        m.build_op("memref.store", vec![y, buf, iv], vec![])
            .append_to(loop_body);
        m.build_op("func.return", vec![], vec![]).append_to(body);

        let generous = bind_static_latency(
            KernelClass::new("infer", 400.0, 40.0, 120.0, 5_000.0, 4_096),
            &m,
        );
        let bound_us = generous.static_bound_us.expect("analysis proves a bound");
        assert!(bound_us > 0.0);
        assert!(!generous.statically_infeasible());

        // Same kernel against a deadline below its proven bound: the
        // class becomes statically infeasible and admission would shed
        // it typed, at the door.
        let tight = bind_static_latency(
            KernelClass::new("late", 400.0, 40.0, 120.0, bound_us / 2.0, 4_096),
            &m,
        );
        assert!(tight.statically_infeasible());
    }

    /// What `try_run_serve` refuses `options` with.
    fn refused(options: ServeOptions) -> ServeConfigError {
        try_run_serve(&options).map(|_| ()).unwrap_err()
    }

    #[test]
    fn no_nodes_is_a_typed_error_not_one_node() {
        let options = ServeOptions {
            nodes: 0,
            ..ServeOptions::default()
        };
        assert_eq!(refused(options), ServeConfigError::NoNodes);
    }

    #[test]
    fn no_tenants_is_a_typed_error_not_one_tenant() {
        let options = ServeOptions {
            tenants: 0,
            ..ServeOptions::default()
        };
        assert_eq!(refused(options), ServeConfigError::NoTenants);
    }

    #[test]
    fn a_negative_load_is_a_typed_error_not_an_idle_campaign() {
        let load = |load| ServeOptions {
            load,
            ..ServeOptions::default()
        };
        assert_eq!(
            refused(load(-1.0)),
            ServeConfigError::OfferedRate(-10_000.0)
        );
        let nan = refused(load(f64::NAN));
        assert!(matches!(nan, ServeConfigError::OfferedRate(rps) if rps.is_nan()));
        // Zero load is a campaign: nothing arrives, nothing is lost.
        let idle = try_run_serve(&load(0.0)).expect("runs");
        assert_eq!(idle.outcome.offered, 0);
        assert!(idle.outcome.conserved());
    }

    #[test]
    fn trace_is_valid_json() {
        let report = run_serve(&ServeOptions {
            chaos: 3,
            horizon_ms: 60.0,
            ..ServeOptions::default()
        });
        let parsed: serde::Value =
            serde_json::from_str(&report.trace_json()).expect("trace must be well-formed JSON");
        assert!(matches!(parsed.get("seed"), Some(serde::Value::Num(n)) if *n == 42.0));
        assert!(parsed.get_or_null("batches").as_array().is_some());
        assert!(parsed.get_or_null("tenants").as_array().is_some());
        assert!(parsed.get_or_null("plan").as_array().is_some());
        assert!(matches!(
            parsed.get("conserved"),
            Some(serde::Value::Bool(true))
        ));
    }
}

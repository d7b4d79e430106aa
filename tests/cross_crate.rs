//! Cross-crate integration: autotuner driving compiled variants, the
//! anomaly service guarding weather inputs, DOSA partitioning compiled
//! kernels, and dialect round-trips across every flow.

use everest_sdk::basecamp::{Basecamp, CompileOptions, Target};
use everest_sdk::everest_autotuner::{
    config, Autotuner, Constraint, Features, Objective, OperatingPoint,
};
use everest_sdk::everest_ekl::rrtmg::{major_absorber_source, RrtmgDims};

fn dims() -> RrtmgDims {
    RrtmgDims {
        nlay: 8,
        ngpt: 4,
        ntemp: 5,
        npres: 10,
        neta: 4,
        nflav: 2,
    }
}

/// The autotuner (§VI-C) selects between the compiled FPGA variant and a
/// CPU estimate, and switches when the FPGA becomes contended.
#[test]
fn autotuner_arbitrates_compiled_variants() {
    let basecamp = Basecamp::new();
    let compiled = basecamp
        .compile_kernel(&major_absorber_source(dims()), CompileOptions::default())
        .unwrap();
    let fpga_us = compiled.fpga_time_us.unwrap();
    let cpu_us = fpga_us * 40.0; // CPU estimate for the same kernel

    let mut tuner = Autotuner::new();
    tuner.add_point(OperatingPoint::new(config([("variant", "fpga")])).expect("time_us", fpga_us));
    tuner.add_point(OperatingPoint::new(config([("variant", "cpu")])).expect("time_us", cpu_us));
    tuner.set_objective(Objective::minimize("time_us"));
    assert_eq!(
        tuner.best(&Features::new()).unwrap()["variant"].to_string(),
        "fpga"
    );
    // FPGA cluster contended: observations degrade 100x.
    let fpga_cfg = config([("variant", "fpga")]);
    for _ in 0..10 {
        tuner.observe(&fpga_cfg, "time_us", fpga_us * 100.0);
    }
    assert_eq!(
        tuner.best(&Features::new()).unwrap()["variant"].to_string(),
        "cpu",
        "under contention the CPU variant must win"
    );
    let _ = Constraint::le("time_us", 1.0);
}

/// Anomaly detection as input sanitization (§VII): corrupt station
/// observations before assimilation are flagged.
#[test]
fn anomaly_service_guards_weather_observations() {
    use everest_sdk::everest_anomaly::dataset::Dataset;
    use everest_sdk::everest_anomaly::detectors::{Detector, Mahalanobis};
    use everest_sdk::everest_usecases::weather::{observe_truth, ModelConfig, WeatherModel};

    let model = WeatherModel::new(ModelConfig::default());
    let truth = model.initial_condition(9);
    let clean = observe_truth(&truth, 200, 0.3, 3);
    let rows: Vec<Vec<f64>> = clean
        .iter()
        .map(|o| vec![o.i as f64, o.j as f64, o.temp])
        .collect();
    let data = Dataset::from_rows(rows);
    let detector = Mahalanobis::fit(&data, 1e-6, 0.02);
    // A corrupted observation: 60 K too warm (sensor failure).
    let bad = vec![5.0, 5.0, truth.temp.at(5, 5) + 60.0];
    assert!(
        detector.is_anomalous(&bad),
        "corrupt observation must be flagged"
    );
    let good = vec![5.0, 5.0, truth.temp.at(5, 5) + 0.2];
    assert!(!detector.is_anomalous(&good));
}

/// DOSA (§V-C): a pipeline of compiled kernels partitions across
/// cloudFPGA nodes; the result respects per-node resources.
#[test]
fn dosa_partitions_compiled_pipeline() {
    use everest_sdk::everest_olympus::{partition, KernelSpec};
    use everest_sdk::everest_platform::device::FpgaDevice;
    use everest_sdk::everest_platform::link::NetworkModel;

    let basecamp = Basecamp::new();
    let compiled = basecamp
        .compile_kernel(
            &major_absorber_source(dims()),
            CompileOptions {
                target: Target::CloudFpga,
                ..CompileOptions::default()
            },
        )
        .unwrap();
    // A 4-stage pipeline of the same kernel shape.
    let stage = KernelSpec::from_report(compiled.hls.clone(), 0.6);
    let stages: Vec<KernelSpec> = (0..4)
        .map(|k| KernelSpec {
            name: format!("stage{k}"),
            ..stage.clone()
        })
        .collect();
    let device = FpgaDevice::cloudfpga();
    let result = partition(&stages, &device, &NetworkModel::cloudfpga_tcp(), 4).unwrap();
    assert!(!result.assignments.is_empty());
    assert!(result.latency_us > 0.0);
    // every stage assigned exactly once, in order
    let covered: usize = result.assignments.iter().map(|r| r.len()).sum();
    assert_eq!(covered, 4);
}

/// Every IR module produced anywhere in the SDK round-trips through the
/// textual format, and the module read back analyzes as the one printed
/// did: the order the parser fills its arenas in (an op before its
/// regions' contents, its results after them) reaches no finding.
#[test]
fn all_flow_ir_roundtrips() {
    let basecamp = Basecamp::new();
    let compiled = basecamp
        .compile_kernel(&major_absorber_source(dims()), CompileOptions::default())
        .unwrap();
    let coordination = basecamp
        .compile_coordination(everest_sdk::everest_usecases::traffic::mapmatch::CONDRUST_MAP_MATCH)
        .unwrap();
    for module in [
        &compiled.module,
        compiled.system_ir.as_ref().unwrap(),
        &coordination.dfg_ir,
    ] {
        let text = Basecamp::print_ir(module);
        let parsed = everest_sdk::everest_ir::parse::parse_module(&text).unwrap();
        assert_eq!(Basecamp::print_ir(&parsed), text);
        everest_sdk::everest_ir::verify::verify_module(basecamp.context(), &parsed).unwrap();
        let lints = basecamp.analyze_module(module).to_json();
        assert_eq!(basecamp.analyze_module(&parsed).to_json(), lints);
    }
}

/// The scheduler degrades gracefully and recovers under failure while
/// running a compiled workflow.
#[test]
fn failure_recovery_with_compiled_kernels() {
    use everest_sdk::everest_runtime::{
        Cluster, FaultPlan, Policy, RecoveryConfig, Scheduler, TaskGraph, TaskSpec,
    };

    let basecamp = Basecamp::new();
    let compiled = basecamp
        .compile_kernel(&major_absorber_source(dims()), CompileOptions::default())
        .unwrap();
    let fpga_us = compiled.fpga_time_us.unwrap();

    let mut graph = TaskGraph::new();
    let src = graph
        .add(TaskSpec::new("src", 100.0).with_output_bytes(1 << 16))
        .unwrap();
    for k in 0..10 {
        graph
            .add(
                TaskSpec::new(&format!("rad{k}"), fpga_us * 30.0)
                    .after([src])
                    .with_fpga(fpga_us)
                    .with_output_bytes(1 << 14),
            )
            .unwrap();
    }
    let scheduler = Scheduler::new(Cluster::everest(2, 2, 4), Policy::Heft);
    let clean = scheduler.run(&graph);
    let crash = FaultPlan::single_node_crash(0, clean.entries[1].node, clean.makespan_us * 0.3);
    let failed = scheduler.run_with_plan(&graph, &crash, &RecoveryConfig::default());
    assert_eq!(failed.entries.len(), graph.len(), "all tasks complete");
    assert!(failed.makespan_us >= clean.makespan_us);
}

/// One fault-effect model (`everest_faults::FaultEffects`) behind both
/// tiers that run it: a slow node, a lossy link and a creeping VF
/// inflate the scheduler's committed placement and the serve engine's
/// batch record by the same number. Each case draws its factor (or its
/// creep rate) from a seeded stream. Both tiers are measured at the same
/// virtual instant (the creep's cost depends on it) and report
/// `[compute inflation, transfer inflation]`.
#[test]
fn standing_fault_effects_cost_the_same_in_every_tier() {
    use everest_sdk::everest_runtime::{
        Cluster, DetRng, FaultKind, FaultPlan, FaultSpec, Policy, RecoveryConfig, Scheduler,
        TaskGraph, TaskSpec,
    };
    use everest_sdk::everest_serve::{ServeConfig, ServeEngine};

    // The FPGA node of a 1 CPU + 1 FPGA cluster.
    const NODE: usize = 1;
    const COMPUTE: usize = 0;
    const TRANSFER: usize = 1;
    // The tiers meet at serve's first batch on NODE past this instant,
    // late enough that the scheduler's feed task fits before it.
    const FROM_US: f64 = 10_000.0;
    const CASES: usize = 32;
    let cluster = || Cluster::everest(1, 1, 4);

    // Serve goes first: its first batch on NODE past `FROM_US` fixes the
    // instant `at_us` the scheduler is steered to.
    let serve = |plan: &FaultPlan| -> (f64, [f64; 2]) {
        let cfg = ServeConfig {
            seed: 5,
            nodes: 2,
            horizon_us: 40_000.0,
            ..ServeConfig::default()
        };
        let outcome = ServeEngine::new(cfg.clone()).with_plan(plan.clone()).run();
        let batch = outcome
            .batches
            .iter()
            .find(|b| b.node == NODE && !b.failed && !b.cancelled && b.start_us >= FROM_US)
            .expect("a batch completes on the FPGA node");
        let class = &cfg.classes[batch.class];
        let compute = class.fpga_batch_us(batch.size);
        let transfer = cluster().transfer_us(class.payload_bytes * batch.size as u64);
        let charged = batch.finish_us - batch.start_us;
        // Each plan below inflates one of the two terms and leaves the
        // other at its healthy cost.
        let inflation = [
            (charged - transfer) / compute,
            (charged - compute) / transfer,
        ];
        (batch.start_us, inflation)
    };

    let scheduler = |plan: &FaultPlan, at_us: f64| -> [f64; 2] {
        const BYTES: u64 = 1 << 20;
        const FPGA_US: f64 = 100.0;
        let transfer = cluster().transfer_us(BYTES);
        let mut graph = TaskGraph::new();
        // Round-robin puts `feed` on node 0 and `kernel` on NODE; a
        // healthy transfer lands `kernel` on the accelerator at `at_us`.
        let feed = graph
            .add(TaskSpec::new("feed", at_us - transfer).with_output_bytes(BYTES))
            .expect("adds");
        graph
            .add(
                TaskSpec::new("kernel", 50_000.0)
                    .after([feed])
                    .with_fpga(FPGA_US),
            )
            .expect("adds");
        let result = Scheduler::new(cluster(), Policy::RoundRobin).run_with_plan(
            &graph,
            plan,
            &RecoveryConfig::default(),
        );
        let (feed, kernel) = (&result.entries[0], &result.entries[1]);
        assert!(kernel.on_fpga && kernel.node == NODE && feed.node != NODE);
        [
            (kernel.finish_us - kernel.start_us) / FPGA_US,
            (kernel.start_us - feed.finish_us) / transfer,
        ]
    };

    let forever = 1e9;
    let same = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs();
    let mut rng = DetRng::new(15);
    for _ in 0..CASES {
        // At 10 per ms the breaker takes NODE out of rotation before the
        // tiers meet; at 2 it still serves there.
        let per_ms = rng.range_f64(0.001, 1.0);
        let cases = [
            (
                FaultKind::SlowNode {
                    factor: rng.range_f64(1.5, 32.0),
                    duration_us: forever,
                },
                COMPUTE,
            ),
            (
                FaultKind::GrayLink {
                    factor: rng.range_f64(1.5, 32.0),
                    duration_us: forever,
                },
                TRANSFER,
            ),
            (FaultKind::VfCreep { per_ms }, COMPUTE),
        ];
        for (kind, term) in cases {
            let plan = FaultPlan::new(5).with_fault(FaultSpec::new(0.0, NODE, kind.clone()));
            let (at_us, served) = serve(&plan);
            let scheduled = scheduler(&plan, at_us);
            assert!(
                same(served[term], scheduled[term]),
                "{kind:?} at {at_us}: serve {served:?}, scheduler {scheduled:?}"
            );
            let expected = match kind {
                FaultKind::SlowNode { factor, .. } | FaultKind::GrayLink { factor, .. } => factor,
                _ => 1.0 + per_ms * at_us / 1_000.0,
            };
            assert!(same(served[term], expected), "{kind:?}: {served:?}");
        }
    }
}

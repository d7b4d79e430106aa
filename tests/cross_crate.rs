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

/// One fault-effect model (`everest_faults::FaultEffects`) behind three
/// tiers: a slow node, a lossy link and a creeping VF inflate the XRT
/// device model, the scheduler's committed placement and the serve
/// engine's batch record by the same number. Each tier is measured at
/// the same virtual instant (the creep's cost depends on it) and
/// reports `[compute inflation, transfer inflation]`.
#[test]
fn standing_fault_effects_cost_the_same_in_every_tier() {
    use everest_sdk::everest_platform::{Direction, FpgaDevice, XrtDevice};
    use everest_sdk::everest_runtime::{
        Cluster, FaultInjector, FaultKind, FaultPlan, FaultSpec, Policy, RecoveryConfig, Scheduler,
        TaskGraph, TaskSpec,
    };
    use everest_sdk::everest_serve::{ServeConfig, ServeEngine};

    // The FPGA node of a 1 CPU + 1 FPGA cluster.
    const NODE: usize = 1;
    const COMPUTE: usize = 0;
    const TRANSFER: usize = 1;
    let cluster = || Cluster::everest(1, 1, 4);
    // A partial reconfiguration is the cheapest way to get a kernel-ready
    // XRT session; the tiers meet at the first instant past it.
    let reconfig_us = XrtDevice::open(FpgaDevice::alveo_u55c())
        .partial_reconfig("role")
        .expect("clean session");

    // Serve goes first: its first batch on NODE past the reconfiguration
    // fixes the instant `at_us` the other two tiers are steered to.
    let serve = |plan: &FaultPlan| -> (f64, [f64; 2]) {
        let cfg = ServeConfig {
            seed: 5,
            nodes: 2,
            ..ServeConfig::default()
        };
        let outcome = ServeEngine::new(cfg.clone()).with_plan(plan.clone()).run();
        let batch = outcome
            .batches
            .iter()
            .find(|b| b.node == NODE && !b.failed && !b.cancelled && b.start_us >= reconfig_us)
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

    let xrt = |plan: &FaultPlan, at_us: f64| -> [f64; 2] {
        let session = |armed: bool| -> [f64; 2] {
            let mut dev = XrtDevice::open(FpgaDevice::alveo_u55c());
            if armed {
                dev = dev.with_faults(FaultInjector::for_node(plan.clone(), NODE));
            }
            // A one-off overhead steers the session clock to `at_us`.
            dev.per_op_overhead_us = at_us - reconfig_us;
            dev.partial_reconfig("role").expect("no reconfig fault");
            dev.per_op_overhead_us = 0.0;
            let kernel = dev.run_kernel("kernel", 300_000).expect("runs");
            let bo = dev.alloc_bo(1 << 20, 0).expect("fits");
            let sync = dev
                .sync_bo(bo.handle, Direction::HostToDevice)
                .expect("syncs");
            [kernel, sync]
        };
        let (faulted, clean) = (session(true), session(false));
        [
            faulted[COMPUTE] / clean[COMPUTE],
            faulted[TRANSFER] / clean[TRANSFER],
        ]
    };

    let forever = 1e9;
    let cases = [
        (
            FaultKind::SlowNode {
                factor: 4.0,
                duration_us: forever,
            },
            COMPUTE,
            Some(4.0),
        ),
        (
            FaultKind::GrayLink {
                factor: 8.0,
                duration_us: forever,
            },
            TRANSFER,
            Some(8.0),
        ),
        // Shallow enough that the breaker leaves NODE in rotation.
        (FaultKind::VfCreep { per_ms: 0.002 }, COMPUTE, None),
    ];
    for (kind, term, expected) in cases {
        let plan = FaultPlan::new(5).with_fault(FaultSpec::new(0.0, NODE, kind.clone()));
        let (at_us, served) = serve(&plan);
        let scheduled = scheduler(&plan, at_us);
        let device = xrt(&plan, at_us);
        let same = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs();
        assert!(
            same(served[term], scheduled[term]) && same(served[term], device[term]),
            "{kind:?} at {at_us}: serve {served:?}, scheduler {scheduled:?}, xrt {device:?}"
        );
        assert!(served[term] > 1.0, "{kind:?} must cost something");
        if let Some(factor) = expected {
            assert!(same(served[term], factor), "{kind:?}: {served:?}");
        }
    }
}

//! The observability contract: every span, counter, gauge, histogram,
//! monitor and event name the SDK records must be documented in
//! `docs/OBSERVABILITY.md`. Stable names are the interface tooling keys
//! on — adding instrumentation without documenting it fails here.

use std::collections::BTreeSet;

use everest_autotuner::{config, Autotuner, Features, Objective, OperatingPoint};
use everest_ir::pass::{ConstantFolding, Cse, Dce, LoopInvariantCodeMotion, PassManager};
use everest_olympus::KernelSpec;
use everest_platform::device::FpgaDevice;
use everest_platform::link::NetworkModel;
use everest_platform::xrt::{Direction, XrtDevice};
use everest_query::datasets::Dataset;
use everest_runtime::virt::{IoMode, PhysicalNode};
use everest_runtime::{
    Cluster, FaultKind, FaultPlan, FaultSpec, Policy, RecoveryConfig, Scheduler, TaskGraph,
    TaskSpec,
};
use everest_sdk::basecamp::{Basecamp, CompileOptions};
use everest_sdk::chaos::{run_chaos, ChaosOptions};
use everest_sdk::heal::{run_heal, HealOptions};
use everest_sdk::query::{run_query, QueryOptions};
use everest_sdk::serve::{run_serve, ServeOptions, ServeReport};
use everest_serve::{Layer, Metric, ServeEngine, ServeOutcome};
use everest_telemetry::{ArgValue, Registry};

const CONTRACT: &str = include_str!("../docs/OBSERVABILITY.md");

/// A recorded name is covered when it appears verbatim in the doc, or
/// when it matches one of the two documented *structured* name schemes.
fn documented(name: &str) -> bool {
    if CONTRACT.contains(name) {
        return true;
    }
    // `ir.pass.<name>`: the scheme plus each pass name is documented.
    if let Some(pass) = name.strip_prefix("ir.pass.") {
        return CONTRACT.contains("ir.pass.<name>") && CONTRACT.contains(&format!("`{pass}`"));
    }
    // `autotuner.<config>.<metric>`: structured monitor names.
    if name.starts_with("autotuner.") && CONTRACT.contains("autotuner.<config>.<metric>") {
        return true;
    }
    // `health.node<i>.<series>`: per-node health-monitor windows.
    if let Some(rest) = name.strip_prefix("health.node") {
        let series_ok = rest.ends_with(".inflation") || rest.ends_with(".link");
        return series_ok && CONTRACT.contains("health.node<i>.<series>");
    }
    false
}

/// Every `serve.*` name a serving run registers on a fresh registry,
/// whichever lifecycle features are on. Pinned: tooling keys on these.
const SERVE_NAMES: [&str; 31] = [
    "serve.batch_size",
    "serve.batches_dispatched",
    "serve.breaker_opens",
    "serve.brownout.tier",
    "serve.brownout.transitions",
    "serve.faults",
    "serve.hedge.cancelled",
    "serve.hedge.denied",
    "serve.hedge.launched",
    "serve.hedge.wins",
    "serve.latency_us",
    "serve.limiter.limit",
    "serve.probes",
    "serve.queue_depth",
    "serve.queue_wait_us",
    "serve.requests_admitted",
    "serve.requests_completed",
    "serve.requests_failed",
    "serve.requests_offered",
    "serve.requests_shed",
    "serve.retry.attempts",
    "serve.retry.denied",
    "serve.retunes",
    "serve.shed.brownout",
    "serve.shed.deadline_lapsed",
    "serve.shed.overloaded",
    "serve.shed.partitioned_away",
    "serve.shed.queue_full",
    "serve.shed.rate_limited",
    "serve.shed.statically_infeasible",
    "serve.slo_violations",
];

/// The `cluster.*` names a run adds when (and only when) the
/// membership layer is on. Pinned like [`SERVE_NAMES`].
const CLUSTER_NAMES: [&str; 12] = [
    "cluster.confirms",
    "cluster.degraded_grants",
    "cluster.failovers",
    "cluster.fenced_batches",
    "cluster.fencing_epoch",
    "cluster.gossip_rounds",
    "cluster.lease_renewals",
    "cluster.orphaned_requests",
    "cluster.probe_failures",
    "cluster.probes",
    "cluster.refutations",
    "cluster.suspects",
];

/// The names in the first column of the metric table under
/// `### <heading>` in the contract document.
fn doc_table(heading: &str) -> BTreeSet<&'static str> {
    let start = CONTRACT
        .find(&format!("### {heading}\n"))
        .unwrap_or_else(|| panic!("docs/OBSERVABILITY.md lost its {heading} table"));
    let section = &CONTRACT[start + 4..];
    let section = &section[..section.find("\n##").unwrap_or(section.len())];
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .collect()
}

/// The `serve.*` and `cluster.*` counters, gauges and histograms in a
/// registry.
fn serve_names(registry: &Registry) -> BTreeSet<String> {
    let mut names = registry.counter_names();
    names.extend(registry.gauge_names());
    names.extend(registry.histogram_names());
    names.retain(|n| n.starts_with("serve.") || n.starts_with("cluster."));
    names.into_iter().collect()
}

/// Exercises every instrumented subsystem so the global registry holds
/// a representative sample of the whole namespace. Returns the three
/// serving campaigns it ran: features off, full lifecycle, partition.
fn exercise_sdk() -> [ServeReport; 3] {
    let basecamp = Basecamp::new();
    let source = "
        kernel contract_probe {
            index i : 0..256
            input x : [i]
            input y : [i]
            let s[i] = 2.0 * x[i] + y[i]
            let total = sum(i)(s[i])
            output s
            output total
        }";
    let compiled = basecamp
        .compile_kernel(
            source,
            CompileOptions {
                explore: true,
                ..CompileOptions::default()
            },
        )
        .expect("probe kernel compiles");
    basecamp.analyze_kernel(&compiled);
    basecamp
        .compile_coordination(everest_usecases::traffic::mapmatch::CONDRUST_MAP_MATCH)
        .expect("coordination compiles");

    // IR pass pipeline.
    let mut pm = PassManager::new();
    pm.add(Box::new(Dce))
        .add(Box::new(Cse))
        .add(Box::new(LoopInvariantCodeMotion))
        .add(Box::new(ConstantFolding));
    let mut module = compiled.module.clone();
    pm.run(basecamp.context(), &mut module)
        .expect("pipeline runs");

    // Olympus multi-kernel partitioning.
    let spec = KernelSpec::from_report(compiled.hls.clone(), 0.7);
    everest_olympus::partition(
        &[spec.clone(), spec],
        &FpgaDevice::alveo_u55c(),
        &NetworkModel::cloudfpga_tcp(),
        2,
    )
    .expect("partition succeeds");

    // Platform sessions: PCIe- and network-attached.
    for device in [FpgaDevice::alveo_u55c(), FpgaDevice::cloudfpga()] {
        let mut session = XrtDevice::open(device);
        session.load_bitstream("contract.xclbin");
        let bo = session.alloc_bo(1 << 20, 0).expect("fits");
        session
            .sync_bo(bo.handle, Direction::HostToDevice)
            .expect("syncs");
        session.run_kernel("contract_probe", 10_000).expect("runs");
    }

    // Scheduler with an injected failure.
    let mut graph = TaskGraph::new();
    let src = graph
        .add(TaskSpec::new("src", 100.0).with_output_bytes(1 << 10))
        .expect("adds");
    for i in 0..6 {
        graph
            .add(TaskSpec::new(&format!("work{i}"), 2_000.0).after([src]))
            .expect("adds");
    }
    let scheduler = Scheduler::new(Cluster::homogeneous(3, 1), Policy::Heft);
    scheduler.run(&graph);
    scheduler.run_with_plan(
        &graph,
        &FaultPlan::single_node_crash(0, 0, 1_500.0),
        &RecoveryConfig::default(),
    );

    // Plan-driven multi-fault scheduling: retries with backoff, CPU
    // degradation after a VF loss, quarantine after repeated faults.
    let mut chaos_graph = TaskGraph::new();
    for i in 0..8 {
        chaos_graph
            .add(TaskSpec::new(&format!("c{i}"), 4_000.0).with_fpga(500.0))
            .expect("adds");
    }
    let chaos_plan = FaultPlan::new(7)
        .with_fault(FaultSpec::new(100.0, 0, FaultKind::TransientKernelError))
        .with_fault(FaultSpec::new(600.0, 0, FaultKind::MemoryEcc))
        .with_fault(FaultSpec::new(1_200.0, 0, FaultKind::TransientKernelError))
        .with_fault(FaultSpec::new(10.0, 1, FaultKind::VfUnplug { vf: 0 }));
    Scheduler::new(Cluster::everest(0, 2, 4), Policy::Heft).run_with_plan(
        &chaos_graph,
        &chaos_plan,
        &RecoveryConfig {
            quarantine_threshold: 2,
            ..RecoveryConfig::default()
        },
    );

    // A full seeded campaign through the SDK facade (basecamp.chaos).
    run_chaos(&ChaosOptions {
        seed: 5,
        nodes: 2,
        tasks: 6,
        faults: 3,
    });

    // The closed self-healing loop through the SDK facade
    // (basecamp.heal): gray campaign, verdicts, breaker trips,
    // migrations, checkpoints and the in-process resume check.
    run_heal(&HealOptions::default());

    // The serving front end through the SDK facade (basecamp.serve):
    // overload sheds at the door and in queue, chaos exercises the
    // fault and breaker paths, the autotuner retunes the batch ceiling.
    let features_off = run_serve(&ServeOptions {
        load: 4.0,
        chaos: 4,
        horizon_ms: 80.0,
        ..ServeOptions::default()
    });

    // The same front end with the full request-lifecycle layer on, so
    // the retry, hedge, limiter and brownout names are all recorded.
    let lifecycle = run_serve(&ServeOptions {
        load: 4.0,
        chaos: 4,
        horizon_ms: 80.0,
        retries: true,
        hedge: true,
        limiter: true,
        brownout: true,
        ..ServeOptions::default()
    });

    // And with the partition-tolerance layer on: gossip rounds, SWIM
    // probes and confirms, shard failovers, fencing and the typed
    // partitioned-away shed all record their `cluster.*` names.
    let partition = run_serve(&ServeOptions {
        chaos: 3,
        partition: 3,
        horizon_ms: 80.0,
        retries: true,
        brownout: true,
        ..ServeOptions::default()
    });

    // An analytic query end to end through the SDK facade
    // (basecamp.query): parse, optimize, execute, lower to kernels.
    run_query(&QueryOptions::default()).expect("contract query runs");

    // SR-IOV virtualization: boots, plugs, contention, unplug and replug.
    let node = PhysicalNode::new("contract0", 16, FpgaDevice::alveo_u55c(), 2);
    let vm = node.start_vm(4, IoMode::VfPassthrough);
    let vf = node.plug_vf(vm).expect("first plug");
    node.plug_vf(vm).expect("second plug");
    assert!(node.plug_vf(vm).is_err(), "third plug must hit contention");
    node.unplug_vf(vm, vf).expect("unplug");
    node.plug_vf(vm).expect("replug");

    // Autotuner sharing the global registry, forced to switch variants.
    let mut tuner = Autotuner::new().with_registry(Registry::global());
    tuner.add_point(OperatingPoint::new(config([("variant", "fpga")])).expect("time_us", 500.0));
    tuner.add_point(OperatingPoint::new(config([("variant", "cpu")])).expect("time_us", 4_000.0));
    tuner.set_objective(Objective::minimize("time_us"));
    let fpga = config([("variant", "fpga")]);
    tuner.best(&Features::new()).expect("decides");
    for _ in 0..10 {
        tuner.observe(&fpga, "time_us", 60_000.0);
    }
    tuner.best(&Features::new()).expect("decides again");

    [features_off, lifecycle, partition]
}

#[test]
fn every_recorded_name_is_documented() {
    let registry = Registry::global();
    let campaigns = exercise_sdk();

    let mut names: BTreeSet<String> = BTreeSet::new();
    names.extend(registry.spans().into_iter().map(|s| s.name));
    names.extend(registry.counter_names());
    names.extend(registry.gauge_names());
    names.extend(registry.histogram_names());
    names.extend(registry.monitor_names());
    names.extend(registry.events().into_iter().map(|e| e.name));

    // The probe must have touched every layer.
    for expected in [
        "basecamp.compile",
        "ir.pipeline",
        "hls.synthesize",
        "olympus.explore",
        "olympus.partition",
        "platform.pcie.bytes",
        "platform.network.bytes",
        "scheduler.run",
        "scheduler.retries",
        "scheduler.degraded_tasks",
        "basecamp.chaos",
        "basecamp.heal",
        "health.samples",
        "health.verdicts",
        "scheduler.breaker_opens",
        "scheduler.migrations",
        "scheduler.checkpoints",
        "virt.vf_plugs",
        "autotuner.switches",
        "basecamp.serve",
        "serve.run",
        "basecamp.query",
        "query.parse",
        "query.optimize",
        "query.execute",
        "query.lower",
        "query.queries",
        "query.rows_scanned",
        "query.rows_out",
        "query.kernels",
        "query.kernels_compiled",
    ] {
        assert!(
            names.contains(expected),
            "probe failed to record {expected}; recorded: {names:?}"
        );
    }

    // Lowering compiles a kernel only when no earlier query in the
    // process used its shape, so how many were compiled depends on what
    // ran before; that it never exceeds the kernels used does not.
    assert!(registry.counter("query.kernels_compiled") <= registry.counter("query.kernels"));
    for span in registry.spans().iter().filter(|s| s.name == "query.lower") {
        match (span.args.get("kernels_compiled"), span.args.get("kernels")) {
            (Some(ArgValue::U64(compiled)), Some(ArgValue::U64(kernels))) => {
                assert!(compiled <= kernels, "{compiled} of {kernels} compiled");
            }
            other => panic!("query.lower span without its kernel counts: {other:?}"),
        }
    }

    // What enters the executor is every base-table row under a scan.
    // The three `ci/query/` gate queries scan every table of their
    // dataset once, the join both of its sides — so a join may well
    // return more rows than were scanned, and the check is against the
    // tables' sizes, not against `query.rows_out`.
    let gate = [
        ("traffic", include_str!("../ci/query/traffic_join.sql")),
        (
            "airquality",
            include_str!("../ci/query/airquality_daily.sql"),
        ),
        ("energy", include_str!("../ci/query/energy_capacity.sql")),
    ];
    for (dataset, sql) in gate {
        let options = QueryOptions {
            dataset: dataset.to_string(),
            sql: sql.trim().to_string(),
            ..QueryOptions::default()
        };
        let catalog = Dataset::from_name(dataset)
            .expect("a dataset")
            .catalog(options.seed)
            .expect("catalog");
        let table_rows = catalog.stats().values().sum::<usize>() as u64;
        let before = registry.counter("query.rows_scanned");
        run_query(&options).expect("gate query runs");
        let counted = registry.counter("query.rows_scanned") - before;
        assert_eq!(counted, table_rows, "{dataset}");
        let spans = registry.spans();
        let span = spans.iter().rfind(|s| s.name == "query.execute");
        let arg = span.and_then(|s| s.args.get("rows_scanned"));
        assert!(
            matches!(arg, Some(ArgValue::U64(n)) if *n == table_rows),
            "{dataset}: query.execute span says {arg:?}, the tables hold {table_rows}"
        );
    }

    let undocumented: Vec<&String> = names.iter().filter(|n| !documented(n)).collect();
    assert!(
        undocumented.is_empty(),
        "names recorded but missing from docs/OBSERVABILITY.md: {undocumented:?}"
    );

    // The serve tier's share of the probe comes from the ledger, not a
    // hand-kept list: every ledger counter with a telemetry mirror was
    // recorded, and reads exactly what the campaigns' outcomes say
    // (counters accumulate over the campaigns that publish the row; a
    // gauge keeps the last store).
    for (index, row) in ServeOutcome::LEDGER.iter().enumerate() {
        let mut values = campaigns
            .iter()
            .filter(|c| row.layer != Layer::Cluster || c.config.cluster.is_some())
            .map(|c| c.outcome.ledger().nth(index).expect("one value per row").1);
        match row.metric {
            Metric::Counter(name) => {
                assert!(names.contains(name), "{name} ({}) not recorded", row.field);
                assert_eq!(registry.counter(name), values.sum::<u64>(), "{name}");
            }
            Metric::Gauge(name) => {
                assert!(names.contains(name), "{name} ({}) not recorded", row.field);
                let last = values.next_back().expect("a campaign publishes the gauge");
                assert_eq!(registry.gauge(name), Some(last as f64), "{name}");
            }
            Metric::None => {}
        }
    }

    // On a fresh registry each campaign registers exactly the pinned
    // names: all of `serve.*` whatever features are on, `cluster.*`
    // only with the membership layer.
    for campaign in &campaigns {
        let fresh = Registry::new();
        let replay = ServeEngine::new(campaign.config.clone())
            .with_plan(campaign.plan.clone())
            .with_registry(fresh.clone())
            .run();
        assert_eq!(replay, campaign.outcome, "campaigns replay");
        let mut pinned: BTreeSet<String> = SERVE_NAMES.iter().map(|n| n.to_string()).collect();
        if campaign.config.cluster.is_some() {
            pinned.extend(CLUSTER_NAMES.iter().map(|n| n.to_string()));
        }
        assert_eq!(serve_names(&fresh), pinned, "{:?}", campaign.options);
    }
}

#[test]
fn serve_metric_tables_mirror_the_ledger() {
    let counters = doc_table("Counters");
    let gauges = doc_table("Gauges");
    // Every ledger metric is a row of the matching doc table ...
    for row in ServeOutcome::LEDGER {
        match row.metric {
            Metric::Counter(name) => assert!(
                counters.contains(name),
                "{name} ({}) is missing from the Counters table",
                row.field
            ),
            Metric::Gauge(name) => assert!(
                gauges.contains(name),
                "{name} ({}) is missing from the Gauges table",
                row.field
            ),
            Metric::None => {}
        }
    }
    // ... and every `serve.*` / `cluster.*` row of those tables is a
    // name a run really registers: a ledger metric, or one of the few
    // pinned instruments with no outcome field.
    for name in counters.iter().chain(&gauges) {
        if name.starts_with("serve.") || name.starts_with("cluster.") {
            assert!(
                SERVE_NAMES.contains(name) || CLUSTER_NAMES.contains(name),
                "{name} is documented but no serving run registers it"
            );
        }
    }
}

#[test]
fn chrome_trace_span_names_are_documented() {
    // Mirrors the CLI acceptance path: the span names that end up in a
    // `--trace` export must all be in the contract document.
    let registry = Registry::new();
    {
        let _compile = registry.span("basecamp.compile");
        let _hls = registry.span("basecamp.hls");
    }
    let trace = registry.to_chrome_trace();
    for span in registry.spans() {
        assert!(trace.contains(&format!("\"name\":\"{}\"", span.name)));
        assert!(documented(&span.name), "{} undocumented", span.name);
    }
}

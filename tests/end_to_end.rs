//! Workspace integration tests: the full SDK flow from DSL text to
//! simulated cluster execution, crossing every crate boundary.

use everest_sdk::basecamp::{Basecamp, CompileOptions};
use everest_sdk::everest_ekl::rrtmg::{
    input_map, major_absorber_reference, major_absorber_source, synthetic_inputs, RrtmgDims,
};
use everest_sdk::workflow::{Workflow, WorkflowStep};

fn dims() -> RrtmgDims {
    RrtmgDims {
        nlay: 10,
        ngpt: 4,
        ntemp: 5,
        npres: 10,
        neta: 4,
        nflav: 2,
    }
}

/// DSL text → IR → interpreted execution must equal the hand-written
/// Fortran-shaped reference, through the public SDK entry point.
#[test]
fn compiled_rrtmg_matches_reference_numerics() {
    let basecamp = Basecamp::new();
    let compiled = basecamp
        .compile_kernel(&major_absorber_source(dims()), CompileOptions::default())
        .unwrap();

    let inputs = synthetic_inputs(dims());
    let reference = major_absorber_reference(dims(), &inputs);

    // Run the lowered loop IR in the functional simulator.
    let mut interp = everest_sdk::everest_ir::interp::Interpreter::new();
    let map = input_map(&inputs);
    let mut args = Vec::new();
    for name in &compiled.program.inputs {
        let t = &map[name];
        args.push(
            interp.alloc_buffer(everest_sdk::everest_ir::interp::Buffer::from_data(
                &t.shape,
                t.data.clone(),
            )),
        );
    }
    let out_shape = compiled.program.tensors["tau_abs"].shape.clone();
    let out = interp.alloc_buffer(everest_sdk::everest_ir::interp::Buffer::zeros(&out_shape));
    args.push(out.clone());
    interp
        .run_function(&compiled.module, "major_absorber", &args)
        .unwrap();
    let everest_sdk::everest_ir::interp::Value::Buffer(h) = out else {
        panic!("buffer handle expected");
    };
    let got = &interp.buffer(h).data;
    assert_eq!(got.len(), reference.len());
    for (g, w) in got.iter().zip(&reference) {
        assert!((g - w).abs() <= 1e-12 * w.abs().max(1.0));
    }
}

/// Compile → deploy → execute: the accelerated ensemble workflow must
/// beat the CPU-only one on an EVEREST-style cluster.
#[test]
fn accelerated_ensemble_workflow_wins() {
    let basecamp = Basecamp::new();
    let compiled = basecamp
        .compile_kernel(
            &major_absorber_source(dims()),
            CompileOptions {
                explore: true,
                batch_items: 128,
                ..CompileOptions::default()
            },
        )
        .unwrap();

    // An ensemble of 8 members, each: prep -> radiation (accelerable) ->
    // post, followed by a merge.
    let mut workflow = Workflow::new("ensemble");
    let mut member_posts = Vec::new();
    for m in 0..8 {
        workflow = workflow
            .step(WorkflowStep {
                name: format!("prep{m}"),
                depends_on: vec![],
                cpu_us: 1_000.0,
                output_bytes: 1 << 20,
                accelerate_with: None,
            })
            .step(WorkflowStep {
                name: format!("radiation{m}"),
                depends_on: vec![format!("prep{m}")],
                cpu_us: 400_000.0,
                output_bytes: 1 << 18,
                accelerate_with: Some("rrtmg".into()),
            })
            .step(WorkflowStep {
                name: format!("post{m}"),
                depends_on: vec![format!("radiation{m}")],
                cpu_us: 2_000.0,
                output_bytes: 1 << 16,
                accelerate_with: None,
            });
        member_posts.push(format!("post{m}"));
    }
    workflow = workflow.step(WorkflowStep {
        name: "merge".into(),
        depends_on: member_posts,
        cpu_us: 5_000.0,
        output_bytes: 1 << 20,
        accelerate_with: None,
    });

    let cluster = everest_sdk::everest_runtime::Cluster::everest(2, 2, 8);
    let accelerated = workflow
        .execute(&[("rrtmg", &compiled)], cluster.clone())
        .unwrap();
    let mut cpu_only = workflow.clone();
    for s in &mut cpu_only.steps {
        s.accelerate_with = None;
    }
    let plain = cpu_only.execute(&[], cluster).unwrap();
    assert!(
        accelerated.makespan_us < plain.makespan_us,
        "acceleration must win: {} vs {}",
        accelerated.makespan_us,
        plain.makespan_us
    );
    let on_fpga = accelerated.entries.iter().filter(|e| e.on_fpga).count();
    assert_eq!(on_fpga, 8, "all radiation steps offloaded");
}

/// Custom data formats (§VIII highlight): recompiling the same kernel
/// with base2 fixed-point must cut latency and DSPs vs f64 through the
/// public API.
#[test]
fn custom_formats_trade_accuracy_for_speed_via_sdk() {
    let basecamp = Basecamp::new();
    let source = major_absorber_source(dims());
    let double = basecamp
        .compile_kernel(&source, CompileOptions::default())
        .unwrap();
    let fixed = basecamp
        .compile_kernel(
            &source,
            CompileOptions {
                hls: everest_sdk::everest_hls::HlsOptions {
                    format: everest_sdk::everest_hls::NumericFormat::Fixed(
                        everest_sdk::everest_ir::FixedFormat::signed(15, 16),
                    ),
                    ..everest_sdk::everest_hls::HlsOptions::default()
                },
                ..CompileOptions::default()
            },
        )
        .unwrap();
    assert!(fixed.hls.cycles < double.hls.cycles);
    assert!(fixed.hls.area.dsps <= double.hls.area.dsps);
}

/// The virtualized runtime claim (Fig. 6): driving a compiled kernel's
/// architecture through the XRT host API inside a VF-passthrough VM is
/// near native; emulated I/O is not.
#[test]
fn virtualization_overhead_shapes_hold_for_compiled_kernels() {
    use everest_sdk::everest_platform::device::FpgaDevice;
    use everest_sdk::everest_platform::xrt::{Direction, XrtDevice};
    use everest_sdk::everest_runtime::{IoMode, PhysicalNode};

    let basecamp = Basecamp::new();
    let compiled = basecamp
        .compile_kernel(&major_absorber_source(dims()), CompileOptions::default())
        .unwrap();
    let arch = compiled.architecture.as_ref().unwrap();

    let node = PhysicalNode::new("host", 32, FpgaDevice::alveo_u55c(), 4);
    let vm_pt = node.start_vm(8, IoMode::VfPassthrough);
    node.plug_vf(vm_pt).unwrap();
    let vm_em = node.start_vm(8, IoMode::Emulated);

    // One batch of 64 items: load, stage the inputs, run one kernel
    // latency per round of replicas, drain the outputs.
    let run = |session: &mut XrtDevice| -> f64 {
        let items = 64;
        let t0 = session.now_us();
        session.load_bitstream(&format!("{}.xclbin", arch.name));
        let input = session.alloc_bo(arch.kernel.bytes_in * items, 0).unwrap();
        let output = session.alloc_bo(arch.kernel.bytes_out * items, 1).unwrap();
        session
            .sync_bo(input.handle, Direction::HostToDevice)
            .unwrap();
        for _ in 0..items.div_ceil(arch.config.replication.max(1) as u64) {
            (session.run_kernel(&arch.kernel.name, arch.kernel.report.cycles)).unwrap();
        }
        session
            .sync_bo(output.handle, Direction::DeviceToHost)
            .unwrap();
        session.now_us() - t0
    };
    let mut native = XrtDevice::open(FpgaDevice::alveo_u55c());
    let t_native = run(&mut native);
    let mut pt = node.open_accelerator(vm_pt).unwrap();
    let t_pt = run(&mut pt);
    let mut em = node.open_accelerator(vm_em).unwrap();
    let t_em = run(&mut em);

    assert!(
        (t_pt - t_native) / t_native < 0.05,
        "VF passthrough must be near-native: native {t_native:.0}, pt {t_pt:.0}"
    );
    assert!(
        t_em > t_pt,
        "emulated I/O must cost more: {t_em:.0} vs {t_pt:.0}"
    );
}

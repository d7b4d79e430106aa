//! Architecture generation: validates a configuration against the
//! platform and materializes it as `olympus`-dialect IR.

use everest_ir::attr::Attribute;
use everest_ir::dialects::system::build_system;
use everest_ir::module::Module;
use everest_ir::types::{MemorySpace, Type};
use everest_platform::device::{DeviceResources, FpgaDevice};
use everest_platform::xrt::FabricAllocator;

use crate::arch::{KernelSpec, SystemArchitecture, SystemConfig};

/// Errors produced during architecture generation.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The configuration does not fit on the device.
    DoesNotFit {
        /// Human-readable resource summary.
        detail: String,
    },
    /// Invalid configuration parameter.
    BadConfig(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::DoesNotFit { detail } => {
                write!(f, "architecture does not fit on device: {detail}")
            }
            BuildError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Checks a configuration against the platform — parameter ranges,
/// memory channels, fabric fit — and returns the footprint it would
/// occupy. This is all of [`generate`] that can fail; it reads the kernel
/// and builds nothing, so a sweep can ask it of every design point.
///
/// # Errors
///
/// Returns [`BuildError`] when the configuration is invalid or exceeds
/// the device's fabric resources.
pub(crate) fn place(
    kernel: &KernelSpec,
    device: &FpgaDevice,
    config: SystemConfig,
) -> Result<DeviceResources, BuildError> {
    let telemetry_span = everest_telemetry::span("olympus.generate");
    telemetry_span
        .arg("kernel", kernel.name.as_str())
        .arg("replication", u64::from(config.replication))
        .arg("lanes", u64::from(config.lanes_per_replica));
    if config.replication == 0 {
        return Err(BuildError::BadConfig("replication must be >= 1".into()));
    }
    if !(0.0..=1.0).contains(&config.plm_share) || config.plm_share <= 0.0 {
        return Err(BuildError::BadConfig("plm_share must be in (0, 1]".into()));
    }
    if !config.pack_bytes.is_power_of_two() {
        return Err(BuildError::BadConfig(
            "pack_bytes must be a power of two".into(),
        ));
    }
    let total_lanes = config.replication * config.lanes_per_replica;
    let channels = device.memories[0].channels;
    if total_lanes > channels {
        return Err(BuildError::BadConfig(format!(
            "{total_lanes} lanes exceed the {channels} memory channels"
        )));
    }
    let footprint = SystemArchitecture::footprint(kernel, &config);
    let mut allocator = FabricAllocator::new(device);
    if !allocator.place(&kernel.name, footprint) {
        return Err(BuildError::DoesNotFit {
            detail: format!("needs {footprint:?}, device offers {:?}", device.resources),
        });
    }
    Ok(footprint)
}

/// Generates a validated system architecture: `place`, then the
/// architecture around the kernel.
///
/// # Errors
///
/// Returns [`BuildError`] when the configuration is invalid or exceeds
/// the device's fabric resources.
pub fn generate(
    kernel: KernelSpec,
    device: &FpgaDevice,
    config: SystemConfig,
) -> Result<SystemArchitecture, BuildError> {
    let resources = place(&kernel, device, config)?;
    Ok(assemble(kernel, device, config, resources))
}

/// The architecture record for a configuration [`place`] accepted with
/// footprint `resources`.
pub(crate) fn assemble(
    kernel: KernelSpec,
    device: &FpgaDevice,
    config: SystemConfig,
    resources: DeviceResources,
) -> SystemArchitecture {
    SystemArchitecture {
        name: format!("{}_sys", kernel.name),
        platform: device.name.clone(),
        kernel,
        config,
        resources,
    }
}

/// Emits the `olympus` dialect description of an architecture.
pub fn emit_ir(arch: &SystemArchitecture) -> Module {
    let mut module = Module::new();
    let top = module.top_block();
    let (_s, body) = build_system(&mut module, top, &arch.name, &arch.platform);

    let plm_words = (arch.kernel.bytes_in / 8).max(1);
    let plm = module
        .build_op(
            "olympus.plm",
            [],
            [Type::memref(&[plm_words], Type::F64, MemorySpace::Plm)],
        )
        .attr(
            "banks",
            Attribute::Int(arch.config.lanes_per_replica as i64),
        )
        .append_to(body);
    let plm_v = everest_ir::module::single_result(&module, plm);
    let dev_words = plm_words;
    let dev = module
        .build_op(
            "memref.alloc",
            [],
            [Type::memref(&[dev_words], Type::F64, MemorySpace::Device)],
        )
        .append_to(body);
    let dev_v = everest_ir::module::single_result(&module, dev);
    // Device HBM -> PLM is an on-card transfer; the PCIe h2d hop is
    // modelled by the platform link, not by this op.
    module
        .build_op("olympus.dma", [dev_v, plm_v], [])
        .attr("direction", "d2d")
        .append_to(body);
    if arch.config.double_buffer {
        module
            .build_op("olympus.double_buffer", [plm_v], [])
            .append_to(body);
    }
    module
        .build_op("olympus.kernel", [plm_v], [])
        .attr("callee", Attribute::SymbolRef(arch.kernel.name.clone()))
        .attr("impl", "hls")
        .append_to(body);
    if arch.config.replication > 1 {
        module
            .build_op("olympus.replicate", [], [])
            .attr("factor", Attribute::Int(arch.config.replication as i64))
            .attr("kernel", Attribute::SymbolRef(arch.kernel.name.clone()))
            .append_to(body);
    }
    module
        .build_op("olympus.lane", [], [])
        .attr(
            "width_bits",
            Attribute::Int((arch.config.pack_bytes.min(512) * 8) as i64),
        )
        .attr("kernel", Attribute::SymbolRef(arch.kernel.name.clone()))
        .append_to(body);
    module
        .build_op("olympus.pack", [], [])
        .attr("kernel", Attribute::SymbolRef(arch.kernel.name.clone()))
        .attr(
            "layout",
            Attribute::Str(format!("burst{}", arch.config.pack_bytes)),
        )
        .append_to(body);
    module.build_op("olympus.yield", [], []).append_to(body);
    module
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_hls::{HlsReport, Resources};
    use everest_ir::registry::Context;
    use everest_ir::verify::verify_module;

    fn report() -> HlsReport {
        HlsReport {
            kernel: "rrtmg".into(),
            cycles: 250_000,
            time_us: 833.0,
            area: Resources {
                luts: 60_000,
                ffs: 90_000,
                dsps: 500,
                brams: 80,
            },
            fmax_mhz: 300.0,
            units: Default::default(),
            loops: Vec::new(),
            bytes_per_call: 2 << 20,
        }
    }

    fn spec() -> KernelSpec {
        KernelSpec::from_report(report(), 0.7)
    }

    #[test]
    fn generate_accepts_feasible_config() {
        let dev = FpgaDevice::alveo_u55c();
        let arch = generate(spec(), &dev, SystemConfig::default()).unwrap();
        assert_eq!(arch.platform, "alveo_u55c");
        assert!(arch.resources.luts > 60_000);
    }

    #[test]
    fn generate_rejects_oversubscription() {
        let dev = FpgaDevice::cloudfpga();
        let mut big = report();
        big.area.dsps = 2_000;
        let err = generate(
            KernelSpec::from_report(big, 0.7),
            &dev,
            SystemConfig {
                replication: 2, // 2 * 2000 DSPs > 2760
                ..SystemConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::DoesNotFit { .. }));
    }

    #[test]
    fn generate_rejects_bad_parameters() {
        let dev = FpgaDevice::alveo_u55c();
        assert!(matches!(
            generate(
                spec(),
                &dev,
                SystemConfig {
                    replication: 0,
                    ..SystemConfig::default()
                }
            ),
            Err(BuildError::BadConfig(_))
        ));
        assert!(matches!(
            generate(
                spec(),
                &dev,
                SystemConfig {
                    pack_bytes: 100,
                    ..SystemConfig::default()
                }
            ),
            Err(BuildError::BadConfig(_))
        ));
        assert!(matches!(
            generate(
                spec(),
                &dev,
                SystemConfig {
                    replication: 8,
                    lanes_per_replica: 8, // 64 > 32 channels
                    ..SystemConfig::default()
                }
            ),
            Err(BuildError::BadConfig(_))
        ));
    }

    #[test]
    fn emitted_ir_verifies_and_mentions_optimizations() {
        let dev = FpgaDevice::alveo_u55c();
        let arch = generate(
            spec(),
            &dev,
            SystemConfig {
                replication: 4,
                lanes_per_replica: 2,
                pack_bytes: 512,
                double_buffer: true,
                plm_share: 0.7,
            },
        )
        .unwrap();
        let module = emit_ir(&arch);
        verify_module(&Context::with_all_dialects(), &module).unwrap();
        let text = everest_ir::print::print_module(&module);
        assert!(text.contains("olympus.replicate"));
        assert!(text.contains("olympus.double_buffer"));
        assert!(text.contains("burst512"));
    }
}

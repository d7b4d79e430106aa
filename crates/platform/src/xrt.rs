//! A simulated XRT-style host runtime.
//!
//! Mirrors the Xilinx Runtime host API the EVEREST nodes use (§III):
//! load a bitstream (or partially reconfigure), allocate buffer objects,
//! sync them over the host link, and launch kernels. The simulation
//! advances a virtual clock using the platform performance models and
//! records an event trace that the virtualization layer and the
//! experiments inspect.

use everest_faults::{DetRng, FaultInjector, FaultKind, FaultOp, RetryPolicy};

use crate::device::{Attachment, DeviceResources, FpgaDevice};
use crate::link::{link_for, LinkHealth, LinkModel};
use crate::memory::{AccessPattern, MemoryModel};

/// Virtual time a DMA engine hangs before the driver declares a
/// timeout (`FaultKind::DmaTimeout`), in µs. Matches the order of
/// magnitude of XRT's default ERT timeout handling.
pub const DMA_TIMEOUT_PENALTY_US: f64 = 1_000.0;

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Host to device.
    HostToDevice,
    /// Device to host.
    DeviceToHost,
}

/// One entry of the event trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Bitstream programmed.
    LoadBitstream {
        /// Name of the configuration.
        name: String,
        /// Virtual time at completion (µs).
        at_us: f64,
    },
    /// Partial reconfiguration of one region.
    PartialReconfig {
        /// Region name.
        region: String,
        /// Virtual time at completion (µs).
        at_us: f64,
    },
    /// Buffer sync over the host link.
    Sync {
        /// Buffer handle.
        bo: usize,
        /// Direction.
        direction: Direction,
        /// Bytes moved.
        bytes: u64,
        /// Virtual time at completion (µs).
        at_us: f64,
    },
    /// Kernel execution.
    KernelRun {
        /// Kernel name.
        kernel: String,
        /// Cycles consumed.
        cycles: u64,
        /// Virtual time at completion (µs).
        at_us: f64,
    },
    /// An injected fault fired against this session (see
    /// `everest-faults` and `docs/RESILIENCE.md`).
    Fault {
        /// Stable fault-kind identifier (`FaultKind::id`).
        kind: String,
        /// Virtual time at which it fired (µs).
        at_us: f64,
    },
}

/// A buffer object on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferObject {
    /// Handle.
    pub handle: usize,
    /// Size in bytes.
    pub bytes: u64,
    /// Memory bank (channel) index.
    pub bank: u32,
}

/// Errors from the simulated runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum XrtError {
    /// Device memory exhausted.
    OutOfMemory {
        /// Requested bytes.
        requested: u64,
        /// Remaining bytes.
        available: u64,
    },
    /// No bitstream loaded before a kernel launch.
    NoBitstream,
    /// Unknown buffer handle.
    BadHandle(usize),
    /// A DMA/sync operation hung and the driver timed it out.
    DmaTimeout {
        /// Buffer handle that was in flight.
        bo: usize,
    },
    /// Partial reconfiguration failed; the region (and any loaded
    /// configuration) is lost until a full bitstream reload.
    PartialReconfigFailed {
        /// Region that failed to reconfigure.
        region: String,
    },
    /// A kernel launch hit a transient error; retrying may succeed.
    TransientKernelError {
        /// Kernel that failed.
        kernel: String,
    },
    /// The device (or the node carrying it) is gone; no operation will
    /// ever succeed again on this session.
    DeviceLost,
}

impl std::fmt::Display for XrtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XrtError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device memory exhausted: requested {requested} bytes, {available} available"
            ),
            XrtError::NoBitstream => write!(f, "no bitstream loaded"),
            XrtError::BadHandle(h) => write!(f, "unknown buffer handle {h}"),
            XrtError::DmaTimeout { bo } => {
                write!(f, "dma timeout while syncing buffer {bo}")
            }
            XrtError::PartialReconfigFailed { region } => {
                write!(f, "partial reconfiguration of region '{region}' failed")
            }
            XrtError::TransientKernelError { kernel } => {
                write!(f, "transient error while running kernel '{kernel}'")
            }
            XrtError::DeviceLost => write!(f, "device lost"),
        }
    }
}

impl std::error::Error for XrtError {}

/// A simulated device session.
#[derive(Debug, Clone)]
pub struct XrtDevice {
    /// The device model.
    pub device: FpgaDevice,
    link: LinkModel,
    memory: MemoryModel,
    clock_us: f64,
    /// Extra per-operation overhead in µs (used by the virtualization
    /// layer: ~0 for SR-IOV VF passthrough, noticeable for emulated I/O).
    pub per_op_overhead_us: f64,
    allocated: u64,
    buffers: Vec<BufferObject>,
    bitstream: Option<String>,
    events: Vec<Event>,
    faults: Option<FaultInjector>,
    link_health: LinkHealth,
    dead_at: Option<f64>,
}

impl XrtDevice {
    /// Telemetry counter name for host-link traffic on this device:
    /// `platform.pcie.bytes` for PCIe cards, `platform.network.bytes`
    /// for network-attached FPGAs.
    fn link_counter(&self) -> &'static str {
        match self.device.attachment {
            Attachment::Pcie { .. } => "platform.pcie.bytes",
            _ => "platform.network.bytes",
        }
    }

    /// Opens a session on a device model.
    pub fn open(device: FpgaDevice) -> XrtDevice {
        let link = link_for(&device.attachment);
        let memory = MemoryModel::new(device.memories[0]);
        XrtDevice {
            device,
            link,
            memory,
            clock_us: 0.0,
            per_op_overhead_us: 0.0,
            allocated: 0,
            buffers: Vec::new(),
            bitstream: None,
            events: Vec::new(),
            faults: None,
            link_health: LinkHealth::healthy(),
            dead_at: None,
        }
    }

    /// Arms a fault injector against this session: subsequent
    /// operations consult it and turn fired faults into typed errors,
    /// latency penalties or state loss (see `docs/RESILIENCE.md`).
    pub fn with_faults(mut self, injector: FaultInjector) -> XrtDevice {
        self.faults = Some(injector);
        self
    }

    /// Consults the injector for a fault applying to `op` once the
    /// virtual clock would reach `projected_us`. Records the firing in
    /// the event trace. `NodeCrash` marks the session dead for good.
    fn poll_fault(&mut self, op: FaultOp, projected_us: f64) -> Option<everest_faults::FaultSpec> {
        let fault = self.faults.as_ref()?.fire(op, projected_us)?;
        self.events.push(Event::Fault {
            kind: fault.kind.id().to_string(),
            at_us: fault.at_us,
        });
        if fault.kind == FaultKind::NodeCrash {
            self.dead_at = Some(fault.at_us);
            self.clock_us = self.clock_us.max(fault.at_us);
        }
        Some(fault)
    }

    /// Silent compute multiplier from the armed injector: `SlowNode`
    /// contention times `VfCreep` degradation (1.0 when healthy or
    /// unarmed). Gray faults never error, never enter the event trace
    /// and never reach telemetry — they only stretch the virtual
    /// clock, which is exactly what makes them hard to catch.
    fn gray_compute(&self) -> f64 {
        self.faults.as_ref().map_or(1.0, |f| {
            f.gray_compute_factor(self.clock_us) * f.gray_vf_factor(self.clock_us)
        })
    }

    /// Silent transfer multiplier from the armed injector's `GrayLink`
    /// windows (1.0 when healthy or unarmed).
    fn gray_link(&self) -> f64 {
        self.faults
            .as_ref()
            .map_or(1.0, |f| f.gray_link_factor(self.clock_us))
    }

    /// Fails fast when the session is already dead.
    fn check_alive(&self) -> Result<(), XrtError> {
        if self.dead_at.is_some() {
            Err(XrtError::DeviceLost)
        } else {
            Ok(())
        }
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> f64 {
        self.clock_us
    }

    /// The recorded event trace.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Total device memory in bytes.
    pub(crate) fn memory_bytes(&self) -> u64 {
        (self.device.memories[0].capacity_gib * (1u64 << 30) as f64) as u64
    }

    /// Loads a full bitstream (programming time scales with size).
    pub fn load_bitstream(&mut self, name: &str) -> f64 {
        // ICAP-style programming at ~800 MB/s.
        let time_us = self.device.bitstream_mib * 1024.0 * 1024.0 / 800.0;
        self.clock_us += time_us + self.per_op_overhead_us;
        self.bitstream = Some(name.to_string());
        self.events.push(Event::LoadBitstream {
            name: name.to_string(),
            at_us: self.clock_us,
        });
        everest_telemetry::counter_add("platform.xrt.bitstream_loads", 1);
        everest_telemetry::event(
            "platform.xrt.load_bitstream",
            format!("{name} on {}", self.device.name),
        );
        time_us
    }

    /// Partially reconfigures one region (paper ref \[20\]): roughly a
    /// tenth of the full bitstream.
    ///
    /// # Errors
    ///
    /// Returns [`XrtError::PartialReconfigFailed`] when an injected
    /// `PartialReconfigFail` fault fires — the attempt time is still
    /// charged and the loaded configuration is lost (a full
    /// [`load_bitstream`](Self::load_bitstream) repairs the device) —
    /// or [`XrtError::DeviceLost`] on a dead session.
    pub fn partial_reconfig(&mut self, region: &str) -> Result<f64, XrtError> {
        self.check_alive()?;
        let time_us = self.device.bitstream_mib * 0.1 * 1024.0 * 1024.0 / 800.0;
        match self
            .poll_fault(FaultOp::PartialReconfig, self.clock_us + time_us)
            .map(|f| f.kind)
        {
            Some(FaultKind::PartialReconfigFail) => {
                self.clock_us += time_us + self.per_op_overhead_us;
                self.bitstream = None;
                everest_telemetry::counter_add("platform.faults.reconfig_failures", 1);
                return Err(XrtError::PartialReconfigFailed {
                    region: region.to_string(),
                });
            }
            Some(FaultKind::NodeCrash) => return Err(XrtError::DeviceLost),
            // No other kind applies to PartialReconfig polls; listed so
            // a new fault kind is a compile error, not a fallthrough.
            Some(
                FaultKind::LinkDegrade { .. }
                | FaultKind::DmaTimeout
                | FaultKind::TransientKernelError
                | FaultKind::MemoryEcc
                | FaultKind::VfUnplug { .. }
                | FaultKind::SlowNode { .. }
                | FaultKind::GrayLink { .. }
                | FaultKind::VfCreep { .. }
                | FaultKind::PartitionSym { .. }
                | FaultKind::PartitionAsym { .. }
                | FaultKind::MsgDelay { .. }
                | FaultKind::MsgLoss { .. },
            )
            | None => {}
        }
        self.clock_us += time_us + self.per_op_overhead_us;
        if self.bitstream.is_none() {
            self.bitstream = Some(format!("pr:{region}"));
        }
        self.events.push(Event::PartialReconfig {
            region: region.to_string(),
            at_us: self.clock_us,
        });
        Ok(time_us)
    }

    /// Allocates a buffer object in the given bank.
    ///
    /// # Errors
    ///
    /// Returns [`XrtError::OutOfMemory`] when capacity is exhausted.
    pub fn alloc_bo(&mut self, bytes: u64, bank: u32) -> Result<BufferObject, XrtError> {
        self.check_alive()?;
        let capacity = self.memory_bytes();
        if self.allocated + bytes > capacity {
            return Err(XrtError::OutOfMemory {
                requested: bytes,
                available: capacity - self.allocated,
            });
        }
        self.allocated += bytes;
        let bo = BufferObject {
            handle: self.buffers.len(),
            bytes,
            bank: bank % self.memory.system.channels,
        };
        self.buffers.push(bo);
        Ok(bo)
    }

    /// Syncs a buffer over the host link; returns elapsed µs.
    ///
    /// # Errors
    ///
    /// Returns [`XrtError::BadHandle`] for stale handles,
    /// [`XrtError::DmaTimeout`] when an injected DMA fault fires (the
    /// hang is charged to the clock), or [`XrtError::DeviceLost`] on a
    /// dead session. An injected `LinkDegrade` fault is not an error:
    /// it inflates this and subsequent transfers until the flap ends.
    /// Gray `GrayLink` windows silently inflate the transfer with no
    /// event at all.
    pub fn sync_bo(&mut self, handle: usize, direction: Direction) -> Result<f64, XrtError> {
        self.check_alive()?;
        let bo = *self
            .buffers
            .get(handle)
            .ok_or(XrtError::BadHandle(handle))?;
        let gray = self.gray_link();
        let mut time_us =
            self.link.transfer_time_us(bo.bytes) * self.link_health.factor_at(self.clock_us) * gray
                + self.per_op_overhead_us;
        if let Some(fault) = self.poll_fault(FaultOp::Sync, self.clock_us + time_us) {
            match fault.kind {
                FaultKind::DmaTimeout => {
                    // The engine hangs at the fault instant and the
                    // driver times it out.
                    let hang_at = fault.at_us.clamp(self.clock_us, self.clock_us + time_us);
                    self.clock_us = hang_at + DMA_TIMEOUT_PENALTY_US;
                    everest_telemetry::counter_add("platform.faults.dma_timeouts", 1);
                    return Err(XrtError::DmaTimeout { bo: handle });
                }
                FaultKind::LinkDegrade {
                    factor,
                    duration_us,
                } => {
                    self.link_health.degrade(factor, fault.at_us + duration_us);
                    time_us = self.link.transfer_time_us(bo.bytes) * factor * gray
                        + self.per_op_overhead_us;
                }
                FaultKind::NodeCrash => return Err(XrtError::DeviceLost),
                // No other kind applies to Sync polls.
                FaultKind::PartialReconfigFail
                | FaultKind::TransientKernelError
                | FaultKind::MemoryEcc
                | FaultKind::VfUnplug { .. }
                | FaultKind::SlowNode { .. }
                | FaultKind::GrayLink { .. }
                | FaultKind::VfCreep { .. }
                | FaultKind::PartitionSym { .. }
                | FaultKind::PartitionAsym { .. }
                | FaultKind::MsgDelay { .. }
                | FaultKind::MsgLoss { .. } => {}
            }
        }
        self.clock_us += time_us;
        everest_telemetry::counter_add(self.link_counter(), bo.bytes);
        everest_telemetry::histogram_record("platform.sync_us", time_us);
        self.events.push(Event::Sync {
            bo: handle,
            direction,
            bytes: bo.bytes,
            at_us: self.clock_us,
        });
        Ok(time_us)
    }

    /// Runs a kernel for `cycles` at the device clock; returns elapsed µs.
    ///
    /// # Errors
    ///
    /// Returns [`XrtError::NoBitstream`] when nothing is programmed,
    /// [`XrtError::TransientKernelError`] when an injected transient
    /// fault fires (the wasted partial run is charged to the clock; a
    /// retry may succeed), or [`XrtError::DeviceLost`] on a dead
    /// session. An injected `MemoryEcc` fault is not an error: the
    /// controller scrubs and replays, stalling the kernel by
    /// `MemoryModel::ecc_scrub_us`. Gray `SlowNode` / `VfCreep`
    /// windows silently stretch the run with no event at all.
    pub fn run_kernel(&mut self, kernel: &str, cycles: u64) -> Result<f64, XrtError> {
        self.check_alive()?;
        if self.bitstream.is_none() {
            return Err(XrtError::NoBitstream);
        }
        let mut time_us = cycles as f64 / self.device.kernel_clock_mhz * self.gray_compute()
            + self.per_op_overhead_us;
        if let Some(fault) = self.poll_fault(FaultOp::Kernel, self.clock_us + time_us) {
            match fault.kind {
                FaultKind::TransientKernelError => {
                    // The run dies partway through: charge the wasted
                    // portion up to the fault instant.
                    let wasted = (fault.at_us - self.clock_us).clamp(0.0, time_us);
                    self.clock_us += wasted;
                    everest_telemetry::counter_add("platform.faults.kernel_errors", 1);
                    return Err(XrtError::TransientKernelError {
                        kernel: kernel.to_string(),
                    });
                }
                FaultKind::MemoryEcc => {
                    time_us += self.memory.ecc_scrub_us();
                    everest_telemetry::counter_add("platform.faults.ecc_events", 1);
                }
                FaultKind::NodeCrash => return Err(XrtError::DeviceLost),
                // No other kind applies to Kernel polls.
                FaultKind::LinkDegrade { .. }
                | FaultKind::DmaTimeout
                | FaultKind::PartialReconfigFail
                | FaultKind::VfUnplug { .. }
                | FaultKind::SlowNode { .. }
                | FaultKind::GrayLink { .. }
                | FaultKind::VfCreep { .. }
                | FaultKind::PartitionSym { .. }
                | FaultKind::PartitionAsym { .. }
                | FaultKind::MsgDelay { .. }
                | FaultKind::MsgLoss { .. } => {}
            }
        }
        self.clock_us += time_us;
        everest_telemetry::counter_add("platform.kernel.runs", 1);
        everest_telemetry::histogram_record("platform.kernel.run_us", time_us);
        self.events.push(Event::KernelRun {
            kernel: kernel.to_string(),
            cycles,
            at_us: self.clock_us,
        });
        Ok(time_us)
    }

    /// Retries [`run_kernel`](Self::run_kernel) on transient errors
    /// with deterministic exponential backoff drawn from `rng`.
    /// Non-transient errors (`DeviceLost`, `NoBitstream`) propagate
    /// immediately. Returns the elapsed µs of the successful run (the
    /// wasted attempts and backoff are already on the clock).
    ///
    /// # Errors
    ///
    /// Returns the last error once the retry budget is exhausted.
    pub fn run_kernel_with_retry(
        &mut self,
        kernel: &str,
        cycles: u64,
        policy: &RetryPolicy,
        rng: &mut DetRng,
    ) -> Result<f64, XrtError> {
        let mut attempt = 0u32;
        loop {
            match self.run_kernel(kernel, cycles) {
                Err(XrtError::TransientKernelError { .. }) if attempt < policy.max_retries => {
                    self.clock_us += policy.backoff_us(attempt, rng);
                    attempt += 1;
                    everest_telemetry::counter_add("platform.kernel.retries", 1);
                }
                other => return other,
            }
        }
    }

    /// Time for a kernel to stream `bytes` from external memory with the
    /// given access pattern (used by Olympus' data-movement planning).
    /// An injected `MemoryEcc` fault adds the scrub-and-replay stall.
    pub fn memory_stream_time_us(&mut self, bytes: u64, pattern: &AccessPattern) -> f64 {
        everest_telemetry::counter_add("platform.hbm.bytes", bytes);
        let mut time_us = self.memory.transfer_time_us(bytes, pattern);
        if let Some(fault) = self.poll_fault(FaultOp::MemoryStream, self.clock_us + time_us) {
            if fault.kind == FaultKind::MemoryEcc {
                time_us += self.memory.ecc_scrub_us();
                everest_telemetry::counter_add("platform.faults.ecc_events", 1);
            }
        }
        time_us
    }
}

/// Tracks placement of synthesized kernels onto a device's fabric.
#[derive(Debug, Clone)]
pub struct FabricAllocator {
    /// Total capacity.
    pub total: DeviceResources,
    used: DeviceResources,
    placed: Vec<(String, DeviceResources)>,
}

impl FabricAllocator {
    /// Creates an allocator for a device.
    pub fn new(device: &FpgaDevice) -> Self {
        FabricAllocator {
            total: device.resources,
            used: DeviceResources::default(),
            placed: Vec::new(),
        }
    }

    /// Attempts to place a kernel; returns `false` (placing nothing) when
    /// it does not fit.
    pub fn place(&mut self, name: &str, need: DeviceResources) -> bool {
        let after = DeviceResources {
            luts: self.used.luts + need.luts,
            ffs: self.used.ffs + need.ffs,
            dsps: self.used.dsps + need.dsps,
            brams: self.used.brams + need.brams,
            urams: self.used.urams + need.urams,
        };
        if !self.total.contains(&after) {
            return false;
        }
        self.used = after;
        self.placed.push((name.to_string(), need));
        true
    }

    /// Scarcest-resource utilization in \[0, 1\].
    pub fn utilization(&self) -> f64 {
        self.total.utilization_of(&self.used)
    }

    /// Placed kernels.
    pub fn placements(&self) -> &[(String, DeviceResources)] {
        &self.placed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_flow_advances_clock_in_order() {
        let mut dev = XrtDevice::open(FpgaDevice::alveo_u55c());
        dev.load_bitstream("rrtmg.xclbin");
        let bo = dev.alloc_bo(1 << 20, 0).unwrap();
        dev.sync_bo(bo.handle, Direction::HostToDevice).unwrap();
        dev.run_kernel("rrtmg", 3_000_000).unwrap();
        dev.sync_bo(bo.handle, Direction::DeviceToHost).unwrap();
        let times: Vec<f64> = dev
            .events()
            .iter()
            .map(|e| match e {
                Event::LoadBitstream { at_us, .. }
                | Event::PartialReconfig { at_us, .. }
                | Event::Sync { at_us, .. }
                | Event::KernelRun { at_us, .. }
                | Event::Fault { at_us, .. } => *at_us,
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(dev.events().len(), 4);
        // 3M cycles at 300 MHz = 10 ms
        let Event::KernelRun { at_us, .. } = dev.events()[2] else {
            panic!()
        };
        let Event::Sync { at_us: prev, .. } = dev.events()[1] else {
            panic!()
        };
        assert!((at_us - prev - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn kernel_without_bitstream_fails() {
        let mut dev = XrtDevice::open(FpgaDevice::alveo_u55c());
        assert_eq!(dev.run_kernel("k", 100), Err(XrtError::NoBitstream));
    }

    #[test]
    fn memory_exhaustion_reported() {
        let mut dev = XrtDevice::open(FpgaDevice::alveo_u55c());
        // u55c has 16 GiB
        dev.alloc_bo(15 << 30, 0).unwrap();
        let err = dev.alloc_bo(2 << 30, 0).unwrap_err();
        assert!(matches!(err, XrtError::OutOfMemory { .. }));
    }

    #[test]
    fn partial_reconfig_is_much_faster_than_full() {
        let mut dev = XrtDevice::open(FpgaDevice::alveo_u55c());
        let full = dev.load_bitstream("full");
        let partial = dev.partial_reconfig("role0").unwrap();
        assert!(partial * 5.0 < full, "partial {partial} vs full {full}");
    }

    #[test]
    fn overhead_model_inflates_every_operation() {
        let mut native = XrtDevice::open(FpgaDevice::alveo_u55c());
        let mut emulated = XrtDevice::open(FpgaDevice::alveo_u55c());
        emulated.per_op_overhead_us = 50.0;
        native.load_bitstream("x");
        emulated.load_bitstream("x");
        let b1 = native.alloc_bo(4096, 0).unwrap();
        let b2 = emulated.alloc_bo(4096, 0).unwrap();
        let t_native = native.sync_bo(b1.handle, Direction::HostToDevice).unwrap();
        let t_emulated = emulated
            .sync_bo(b2.handle, Direction::HostToDevice)
            .unwrap();
        assert!((t_emulated - t_native - 50.0).abs() < 1e-9);
    }

    #[test]
    fn node_crash_kills_the_session_for_good() {
        use everest_faults::{FaultInjector, FaultPlan};
        let plan = FaultPlan::single_node_crash(7, 0, 100.0);
        let mut dev =
            XrtDevice::open(FpgaDevice::alveo_u55c()).with_faults(FaultInjector::for_node(plan, 0));
        dev.load_bitstream("x");
        let bo = dev.alloc_bo(4096, 0).unwrap();
        // bitstream load already pushed the clock past 100 µs, so the
        // very next faultable op observes the crash.
        assert_eq!(
            dev.sync_bo(bo.handle, Direction::HostToDevice),
            Err(XrtError::DeviceLost)
        );
        // everything else fails fast from now on
        assert_eq!(dev.run_kernel("k", 100), Err(XrtError::DeviceLost));
        assert_eq!(dev.alloc_bo(64, 0), Err(XrtError::DeviceLost));
        assert!(matches!(
            dev.events().last(),
            Some(Event::Fault { kind, .. }) if kind == "node_crash"
        ));
    }

    #[test]
    fn dma_timeout_charges_the_hang_and_errors() {
        use everest_faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
        let plan = FaultPlan::new(1).with_fault(FaultSpec {
            at_us: 0.0,
            node: 0,
            kind: FaultKind::DmaTimeout,
        });
        let mut dev =
            XrtDevice::open(FpgaDevice::alveo_u55c()).with_faults(FaultInjector::for_node(plan, 0));
        dev.load_bitstream("x");
        let bo = dev.alloc_bo(1 << 20, 0).unwrap();
        let before = dev.now_us();
        let err = dev.sync_bo(bo.handle, Direction::HostToDevice).unwrap_err();
        assert_eq!(err, XrtError::DmaTimeout { bo: bo.handle });
        assert!(
            dev.now_us() >= before + DMA_TIMEOUT_PENALTY_US,
            "timeout must cost at least the penalty"
        );
        // the fault is consumed: the retry succeeds
        assert!(dev.sync_bo(bo.handle, Direction::HostToDevice).is_ok());
    }

    #[test]
    fn link_degrade_inflates_transfers_until_recovery() {
        use everest_faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
        let plan = FaultPlan::new(2).with_fault(FaultSpec {
            at_us: 0.0,
            node: 0,
            kind: FaultKind::LinkDegrade {
                factor: 4.0,
                duration_us: 1e9,
            },
        });
        let mut healthy = XrtDevice::open(FpgaDevice::alveo_u55c());
        let mut flapping =
            XrtDevice::open(FpgaDevice::alveo_u55c()).with_faults(FaultInjector::for_node(plan, 0));
        let b1 = healthy.alloc_bo(1 << 24, 0).unwrap();
        let b2 = flapping.alloc_bo(1 << 24, 0).unwrap();
        let t_ok = healthy.sync_bo(b1.handle, Direction::HostToDevice).unwrap();
        let t_bad = flapping
            .sync_bo(b2.handle, Direction::HostToDevice)
            .unwrap();
        assert!(
            t_bad > t_ok * 3.0,
            "degraded transfer {t_bad} vs healthy {t_ok}"
        );
        assert!(flapping.link_health.factor_at(flapping.now_us()) > 1.0);
        // and the episode persists for later transfers too
        let t_later = flapping
            .sync_bo(b2.handle, Direction::HostToDevice)
            .unwrap();
        assert!(t_later > t_ok * 3.0);
    }

    #[test]
    fn partial_reconfig_failure_requires_full_reload() {
        use everest_faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
        let plan = FaultPlan::new(3).with_fault(FaultSpec {
            at_us: 0.0,
            node: 0,
            kind: FaultKind::PartialReconfigFail,
        });
        let mut dev =
            XrtDevice::open(FpgaDevice::alveo_u55c()).with_faults(FaultInjector::for_node(plan, 0));
        dev.load_bitstream("shell");
        let err = dev.partial_reconfig("role0").unwrap_err();
        assert!(matches!(err, XrtError::PartialReconfigFailed { .. }));
        // configuration lost: kernels refuse to launch
        assert_eq!(dev.run_kernel("k", 100), Err(XrtError::NoBitstream));
        // a full reload repairs the device
        dev.load_bitstream("shell");
        assert!(dev.run_kernel("k", 100).is_ok());
    }

    #[test]
    fn transient_kernel_error_recovers_under_retry() {
        use everest_faults::{DetRng, FaultInjector, FaultKind, FaultPlan, FaultSpec, RetryPolicy};
        let plan = FaultPlan::new(4).with_fault(FaultSpec {
            at_us: 0.0,
            node: 0,
            kind: FaultKind::TransientKernelError,
        });
        let mut dev =
            XrtDevice::open(FpgaDevice::alveo_u55c()).with_faults(FaultInjector::for_node(plan, 0));
        dev.load_bitstream("x");
        let mut rng = DetRng::new(4);
        let policy = RetryPolicy::default();
        let before = dev.now_us();
        let t = dev
            .run_kernel_with_retry("k", 300_000, &policy, &mut rng)
            .unwrap();
        // 300k cycles at 300 MHz = 1 ms per attempt; the clock carries
        // the failed attempt and backoff on top of the good run.
        assert!((t - 1_000.0).abs() < 1.0, "got {t}");
        assert!(
            dev.now_us() > before + t,
            "failed attempt + backoff must be charged"
        );
        // with no retries allowed the same fault is fatal
        let plan2 = FaultPlan::new(5).with_fault(FaultSpec {
            at_us: 0.0,
            node: 0,
            kind: FaultKind::TransientKernelError,
        });
        let mut dev2 = XrtDevice::open(FpgaDevice::alveo_u55c())
            .with_faults(FaultInjector::for_node(plan2, 0));
        dev2.load_bitstream("x");
        let mut rng2 = DetRng::new(5);
        assert!(matches!(
            dev2.run_kernel_with_retry("k", 300_000, &RetryPolicy::none(), &mut rng2),
            Err(XrtError::TransientKernelError { .. })
        ));
    }

    #[test]
    fn ecc_event_stalls_but_does_not_fail() {
        use everest_faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
        let plan = FaultPlan::new(6).with_fault(FaultSpec {
            at_us: 0.0,
            node: 0,
            kind: FaultKind::MemoryEcc,
        });
        let mut dev =
            XrtDevice::open(FpgaDevice::alveo_u55c()).with_faults(FaultInjector::for_node(plan, 0));
        let mut clean = XrtDevice::open(FpgaDevice::alveo_u55c());
        dev.load_bitstream("x");
        clean.load_bitstream("x");
        let t_faulty = dev.run_kernel("k", 300_000).unwrap();
        let t_clean = clean.run_kernel("k", 300_000).unwrap();
        assert!(
            t_faulty > t_clean + 40.0,
            "scrub stall missing: {t_faulty} vs {t_clean}"
        );
    }

    #[test]
    fn gray_faults_inflate_silently_without_events_or_errors() {
        use everest_faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
        let plan = FaultPlan::new(9)
            .with_fault(FaultSpec::new(
                0.0,
                0,
                FaultKind::SlowNode {
                    factor: 3.0,
                    duration_us: 1e9,
                },
            ))
            .with_fault(FaultSpec::new(
                0.0,
                0,
                FaultKind::GrayLink {
                    factor: 4.0,
                    duration_us: 1e9,
                },
            ))
            .with_fault(FaultSpec::new(0.0, 0, FaultKind::VfCreep { per_ms: 0.001 }));
        let mut gray =
            XrtDevice::open(FpgaDevice::alveo_u55c()).with_faults(FaultInjector::for_node(plan, 0));
        let mut clean = XrtDevice::open(FpgaDevice::alveo_u55c());
        gray.load_bitstream("x");
        clean.load_bitstream("x");
        let b1 = gray.alloc_bo(1 << 24, 0).unwrap();
        let b2 = clean.alloc_bo(1 << 24, 0).unwrap();

        // Every op succeeds, yet the gray session pays more time.
        let t_sync_gray = gray.sync_bo(b1.handle, Direction::HostToDevice).unwrap();
        let t_sync_clean = clean.sync_bo(b2.handle, Direction::HostToDevice).unwrap();
        assert!(
            t_sync_gray > t_sync_clean * 3.5,
            "gray link: {t_sync_gray} vs {t_sync_clean}"
        );
        let t_run_gray = gray.run_kernel("k", 300_000).unwrap();
        let t_run_clean = clean.run_kernel("k", 300_000).unwrap();
        assert!(
            t_run_gray > t_run_clean * 2.9,
            "slow node: {t_run_gray} vs {t_run_clean}"
        );
        assert_eq!(gray.link_health.factor_at(gray.now_us()), 1.0);

        // Invisibility is the point: no Fault event is ever recorded.
        assert!(
            !gray
                .events()
                .iter()
                .any(|e| matches!(e, Event::Fault { .. })),
            "gray faults must leave no trace in the event log"
        );
    }

    #[test]
    fn allocator_places_until_full_and_counts_replicas() {
        let dev = FpgaDevice::cloudfpga();
        let mut alloc = FabricAllocator::new(&dev);
        let kernel = DeviceResources {
            luts: 100_000,
            ffs: 150_000,
            dsps: 800,
            brams: 400,
            urams: 0,
        };
        assert!(alloc.place("k0", kernel));
        assert!(alloc.place("k1", kernel));
        assert!(alloc.place("k2", kernel));
        assert!(!alloc.place("k3", kernel), "fourth copy must not fit");
        assert_eq!(alloc.placements().len(), 3);
        assert!(alloc.utilization() > 0.85);
    }
}

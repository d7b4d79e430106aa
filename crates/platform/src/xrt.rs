//! A simulated XRT-style host runtime.
//!
//! Mirrors the Xilinx Runtime host API the EVEREST nodes use (§III):
//! load a bitstream, allocate buffer objects, sync them over the host
//! link, and launch kernels. The simulation advances a virtual clock
//! using the platform performance models and records an event trace
//! that the virtualization layer and the experiments inspect.

use crate::device::{Attachment, DeviceResources, FpgaDevice};
use crate::link::{link_for, LinkModel};
use crate::memory::MemoryModel;

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

    /// Allocates a buffer object in the given bank.
    ///
    /// # Errors
    ///
    /// Returns [`XrtError::OutOfMemory`] when capacity is exhausted.
    pub fn alloc_bo(&mut self, bytes: u64, bank: u32) -> Result<BufferObject, XrtError> {
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
    /// Returns [`XrtError::BadHandle`] for stale handles.
    pub fn sync_bo(&mut self, handle: usize, direction: Direction) -> Result<f64, XrtError> {
        let bo = *self
            .buffers
            .get(handle)
            .ok_or(XrtError::BadHandle(handle))?;
        let time_us = self.link.transfer_time_us(bo.bytes) + self.per_op_overhead_us;
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
    /// Returns [`XrtError::NoBitstream`] when nothing is programmed.
    pub fn run_kernel(&mut self, kernel: &str, cycles: u64) -> Result<f64, XrtError> {
        if self.bitstream.is_none() {
            return Err(XrtError::NoBitstream);
        }
        let time_us = cycles as f64 / self.device.kernel_clock_mhz + self.per_op_overhead_us;
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
                | Event::Sync { at_us, .. }
                | Event::KernelRun { at_us, .. } => *at_us,
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

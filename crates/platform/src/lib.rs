//! # everest-platform
//!
//! Performance and resource models of the EVEREST target systems (paper
//! §III): AMD Alveo u55c/u280 PCIe cards with XRT and HBM2/DDR4, and IBM
//! cloudFPGA network-attached nodes with an on-fabric 10 Gb/s TCP/UDP
//! stack.
//!
//! The paper's evaluation ran on real hardware; this crate is the
//! simulation substrate that replaces it (see DESIGN.md): calibrated
//! bandwidth/latency/resource models plus a simulated XRT host API with
//! a virtual clock and event tracing. The SDK's decisions (Olympus
//! data-movement planning, runtime scheduling, autotuning) only depend
//! on the *relative* numbers these models reproduce.
//!
//! * [`device`] — device descriptors and resource capacities;
//! * [`memory`] — HBM/DDR burst-efficiency bandwidth model;
//! * [`link`] — PCIe DMA and network-stack transfer models;
//! * [`xrt`] — the simulated host runtime (bitstreams, partial
//!   reconfiguration, buffer objects, kernel launches) and the fabric
//!   allocator.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use everest_platform::device::FpgaDevice;
//! use everest_platform::xrt::{Direction, XrtDevice};
//!
//! let mut session = XrtDevice::open(FpgaDevice::alveo_u55c());
//! session.load_bitstream("kernel.xclbin");
//! let bo = session.alloc_bo(1 << 20, 0)?;
//! session.sync_bo(bo.handle, Direction::HostToDevice)?;
//! session.run_kernel("rrtmg", 1_000_000)?;
//! assert!(session.now_us() > 0.0);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod device;
pub mod link;
pub mod memory;
pub mod xrt;

pub use device::{DeviceResources, FpgaDevice, MemorySystem};
pub use link::{LinkModel, NetworkModel, PcieModel};
pub use memory::{AccessPattern, MemoryModel};
pub use xrt::{Direction, Event, FabricAllocator, XrtDevice, XrtError};

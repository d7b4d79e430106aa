//! The virtualization infrastructure (paper §VI-B, Fig. 6).
//!
//! Models a physical node running QEMU-KVM with SR-IOV: the FPGA exposes
//! a Physical Function (PF) for management plus Virtual Functions (VFs)
//! assigned to VMs. One VF belongs to at most one VM; a VM may hold many
//! VFs. The EVEREST mitigation for SR-IOV's static nature — dynamic VF
//! plug/unplug driven by the resource allocator — is modelled with
//! hot-plug latencies, and a libvirt-style API answers resource queries.
//!
//! I/O modes reproduce the paper's performance claim: VF passthrough is
//! near-native, emulated (virtio) I/O pays a per-operation exit cost.

use std::collections::HashMap;

use parking_lot::Mutex;

use everest_platform::device::FpgaDevice;
use everest_platform::xrt::XrtDevice;

/// How a VM reaches the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// SR-IOV VF passthrough: near-native.
    VfPassthrough,
    /// Emulated (virtio) I/O: every operation traps to the hypervisor.
    Emulated,
}

impl IoMode {
    /// Extra per-operation overhead in microseconds.
    pub fn per_op_overhead_us(self) -> f64 {
        match self {
            // MMIO doorbells go straight to the VF through the IOMMU:
            // sub-microsecond.
            IoMode::VfPassthrough => 0.2,
            // VM exit + hypervisor emulation + syscall: tens of µs.
            IoMode::Emulated => 45.0,
        }
    }
}

/// A virtual function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VirtualFunction {
    /// Index within the PF.
    pub index: u32,
    /// The VM currently holding it, if any.
    pub assigned_to: Option<u32>,
}

/// How many VFs no VM holds.
fn free_count(vfs: &[VirtualFunction]) -> usize {
    vfs.iter().filter(|f| f.assigned_to.is_none()).count()
}

/// Virtualization-layer errors.
#[derive(Debug, Clone, PartialEq)]
pub enum VirtError {
    /// No free VF to assign.
    NoFreeVf,
    /// Unknown VM.
    UnknownVm(u32),
    /// Unknown VF index.
    UnknownVf(u32),
    /// VF is not assigned to that VM.
    NotAssigned {
        /// VF index.
        vf: u32,
        /// VM id.
        vm: u32,
    },
}

impl std::fmt::Display for VirtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VirtError::NoFreeVf => write!(f, "no free virtual function"),
            VirtError::UnknownVm(id) => write!(f, "unknown vm {id}"),
            VirtError::UnknownVf(ix) => write!(f, "unknown vf {ix}"),
            VirtError::NotAssigned { vf, vm } => {
                write!(f, "vf {vf} is not assigned to vm {vm}")
            }
        }
    }
}

impl std::error::Error for VirtError {}

/// A guest VM.
#[derive(Debug)]
pub(crate) struct Vm {
    /// vCPU count.
    pub vcpus: u32,
    /// I/O mode for accelerator access.
    pub io_mode: IoMode,
    /// Indexes of VFs currently plugged in.
    pub vfs: Vec<u32>,
}

/// A physical node: hypervisor + PF + VMs (Fig. 6).
#[derive(Debug)]
pub struct PhysicalNode {
    /// Node name.
    pub name: String,
    /// Host cores.
    pub cores: u32,
    device: FpgaDevice,
    vfs: Mutex<Vec<VirtualFunction>>,
    vms: Mutex<HashMap<u32, Vm>>,
    next_vm: Mutex<u32>,
    /// Accumulated management-plane time (µs): VM boots, hot-plugs.
    mgmt_time_us: Mutex<f64>,
}

/// Snapshot of node state, as a libvirt query would return.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStatus {
    /// Total VFs configured on the PF.
    pub total_vfs: u32,
    /// Unassigned VFs.
    pub free_vfs: u32,
    /// Running VMs.
    pub vms: u32,
    /// Host cores not reserved by VMs.
    pub free_cores: u32,
}

impl PhysicalNode {
    /// Boots a node exposing `num_vfs` virtual functions (SR-IOV's static
    /// maximum, fixed at PF configuration time).
    pub fn new(name: &str, cores: u32, device: FpgaDevice, num_vfs: u32) -> PhysicalNode {
        PhysicalNode {
            name: name.to_string(),
            cores,
            device,
            vfs: Mutex::new(
                (0..num_vfs)
                    .map(|index| VirtualFunction {
                        index,
                        assigned_to: None,
                    })
                    .collect(),
            ),
            vms: Mutex::new(HashMap::new()),
            next_vm: Mutex::new(0),
            mgmt_time_us: Mutex::new(0.0),
        }
    }

    /// Starts a VM; returns its id. Boot cost is charged to management
    /// time.
    pub fn start_vm(&self, vcpus: u32, io_mode: IoMode) -> u32 {
        let mut next = self.next_vm.lock();
        let id = *next;
        *next += 1;
        self.vms.lock().insert(
            id,
            Vm {
                vcpus,
                io_mode,
                vfs: Vec::new(),
            },
        );
        *self.mgmt_time_us.lock() += 2_000_000.0; // ~2 s boot
        everest_telemetry::counter_add("virt.vm_boots", 1);
        everest_telemetry::event(
            "virt.vm_boot",
            format!("node={} vm={id} vcpus={vcpus} io={io_mode:?}", self.name),
        );
        self.publish_free_vfs();
        id
    }

    /// Mirrors the current free-VF count into the shared telemetry
    /// registry so contention is visible on a timeline.
    fn publish_free_vfs(&self) {
        let free = free_count(&self.vfs.lock());
        everest_telemetry::gauge_set("virt.free_vfs", free as f64);
    }

    /// Hot-plugs a free VF into a VM (the EVEREST dynamic mitigation).
    ///
    /// # Errors
    ///
    /// Returns [`VirtError::NoFreeVf`] or [`VirtError::UnknownVm`].
    pub fn plug_vf(&self, vm: u32) -> Result<u32, VirtError> {
        let mut vms = self.vms.lock();
        let vm_entry = vms.get_mut(&vm).ok_or_else(|| {
            everest_telemetry::counter_add("virt.vf_plug_failures", 1);
            VirtError::UnknownVm(vm)
        })?;
        let mut vfs = self.vfs.lock();
        let Some(free) = vfs.iter_mut().find(|f| f.assigned_to.is_none()) else {
            everest_telemetry::counter_add("virt.vf_plug_failures", 1);
            everest_telemetry::event(
                "virt.vf_contention",
                format!("node={} vm={vm} no free VF", self.name),
            );
            return Err(VirtError::NoFreeVf);
        };
        free.assigned_to = Some(vm);
        let index = free.index;
        vm_entry.vfs.push(index);
        *self.mgmt_time_us.lock() += 150_000.0; // ~150 ms PCI hot-plug
        everest_telemetry::counter_add("virt.vf_plugs", 1);
        everest_telemetry::event(
            "virt.vf_plug",
            format!("node={} vm={vm} vf={index}", self.name),
        );
        everest_telemetry::gauge_set("virt.free_vfs", free_count(&vfs) as f64);
        Ok(index)
    }

    /// Hot-unplugs a VF from a VM.
    ///
    /// # Errors
    ///
    /// Returns [`VirtError`] variants for unknown ids or mismatched
    /// assignment.
    pub fn unplug_vf(&self, vm: u32, vf: u32) -> Result<(), VirtError> {
        let mut vms = self.vms.lock();
        let vm_entry = vms.get_mut(&vm).ok_or(VirtError::UnknownVm(vm))?;
        let mut vfs = self.vfs.lock();
        let entry = vfs
            .iter_mut()
            .find(|f| f.index == vf)
            .ok_or(VirtError::UnknownVf(vf))?;
        if entry.assigned_to != Some(vm) {
            return Err(VirtError::NotAssigned { vf, vm });
        }
        entry.assigned_to = None;
        vm_entry.vfs.retain(|&x| x != vf);
        *self.mgmt_time_us.lock() += 100_000.0;
        everest_telemetry::counter_add("virt.vf_unplugs", 1);
        everest_telemetry::event(
            "virt.vf_unplug",
            format!("node={} vm={vm} vf={vf}", self.name),
        );
        everest_telemetry::gauge_set("virt.free_vfs", free_count(&vfs) as f64);
        Ok(())
    }

    /// Opens an accelerator session *from inside* a VM: the returned
    /// simulated XRT device carries the I/O-mode overhead. Requires the
    /// VM to hold at least one VF when in passthrough mode.
    ///
    /// # Errors
    ///
    /// Returns [`VirtError`] when the VM is unknown or has no VF in
    /// passthrough mode.
    pub fn open_accelerator(&self, vm: u32) -> Result<XrtDevice, VirtError> {
        let vms = self.vms.lock();
        let vm_entry = vms.get(&vm).ok_or(VirtError::UnknownVm(vm))?;
        if vm_entry.io_mode == IoMode::VfPassthrough && vm_entry.vfs.is_empty() {
            return Err(VirtError::NoFreeVf);
        }
        let mut session = XrtDevice::open(self.device.clone());
        session.per_op_overhead_us = vm_entry.io_mode.per_op_overhead_us();
        Ok(session)
    }

    /// libvirt-style status query (used by the autotuner and the resource
    /// allocator, §VI-B).
    pub fn status(&self) -> NodeStatus {
        let vfs = self.vfs.lock();
        let vms = self.vms.lock();
        let reserved: u32 = vms.values().map(|v| v.vcpus).sum();
        NodeStatus {
            total_vfs: vfs.len() as u32,
            free_vfs: free_count(&vfs) as u32,
            vms: vms.len() as u32,
            free_cores: self.cores.saturating_sub(reserved),
        }
    }

    /// Accumulated management-plane time in microseconds.
    pub fn management_time_us(&self) -> f64 {
        *self.mgmt_time_us.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_platform::xrt::Direction;

    fn node() -> PhysicalNode {
        PhysicalNode::new("host0", 32, FpgaDevice::alveo_u55c(), 4)
    }

    #[test]
    fn vf_assignment_invariants() {
        let n = node();
        let vm1 = n.start_vm(4, IoMode::VfPassthrough);
        let vm2 = n.start_vm(4, IoMode::VfPassthrough);
        let a = n.plug_vf(vm1).unwrap();
        let b = n.plug_vf(vm1).unwrap(); // many VFs to one VM: allowed
        let c = n.plug_vf(vm2).unwrap();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(n.status().free_vfs, 1);
        // a VF belongs to exactly one VM
        assert_eq!(
            n.unplug_vf(vm2, a),
            Err(VirtError::NotAssigned { vf: a, vm: vm2 })
        );
    }

    #[test]
    fn vf_exhaustion_and_hotplug_recovery() {
        let n = node();
        let vm1 = n.start_vm(2, IoMode::VfPassthrough);
        let vm2 = n.start_vm(2, IoMode::VfPassthrough);
        let mut held = Vec::new();
        for _ in 0..4 {
            held.push(n.plug_vf(vm1).unwrap());
        }
        assert_eq!(n.plug_vf(vm2), Err(VirtError::NoFreeVf));
        // dynamic unplug frees capacity (the EVEREST mitigation)
        n.unplug_vf(vm1, held[0]).unwrap();
        assert!(n.plug_vf(vm2).is_ok());
    }

    #[test]
    fn passthrough_requires_a_vf() {
        let n = node();
        let vm = n.start_vm(2, IoMode::VfPassthrough);
        assert_eq!(n.open_accelerator(vm).unwrap_err(), VirtError::NoFreeVf);
        n.plug_vf(vm).unwrap();
        assert!(n.open_accelerator(vm).is_ok());
    }

    #[test]
    fn passthrough_is_near_native_emulated_is_not() {
        let n = node();
        let vm_pt = n.start_vm(2, IoMode::VfPassthrough);
        n.plug_vf(vm_pt).unwrap();
        let vm_em = n.start_vm(2, IoMode::Emulated);

        // Native baseline: no virtualization.
        let mut native = XrtDevice::open(FpgaDevice::alveo_u55c());
        let mut passthrough = n.open_accelerator(vm_pt).unwrap();
        let mut emulated = n.open_accelerator(vm_em).unwrap();

        let run = |session: &mut XrtDevice| -> f64 {
            session.load_bitstream("k");
            let bo = session.alloc_bo(1 << 20, 0).unwrap();
            let t0 = session.now_us();
            for _ in 0..50 {
                session.sync_bo(bo.handle, Direction::HostToDevice).unwrap();
                session.run_kernel("k", 30_000).unwrap();
                session.sync_bo(bo.handle, Direction::DeviceToHost).unwrap();
            }
            session.now_us() - t0
        };
        let t_native = run(&mut native);
        let t_pt = run(&mut passthrough);
        let t_em = run(&mut emulated);
        let pt_overhead = (t_pt - t_native) / t_native;
        let em_overhead = (t_em - t_native) / t_native;
        assert!(
            pt_overhead < 0.05,
            "VF passthrough must be near-native, got {:.1}%",
            pt_overhead * 100.0
        );
        assert!(
            em_overhead > 0.2,
            "emulated I/O should cost >20%, got {:.1}%",
            em_overhead * 100.0
        );
    }

    #[test]
    fn status_tracks_cores_and_vms() {
        let n = node();
        assert_eq!(n.status().free_cores, 32);
        n.start_vm(8, IoMode::Emulated);
        n.start_vm(8, IoMode::Emulated);
        let s = n.status();
        assert_eq!(s.vms, 2);
        assert_eq!(s.free_cores, 16);
        assert!(n.management_time_us() >= 4_000_000.0);
    }
}

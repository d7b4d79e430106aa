//! Property tests over the platform models: physical sanity of the
//! bandwidth/latency formulas for any parameters.

use proptest::prelude::*;

use everest_platform::device::FpgaDevice;
use everest_platform::link::{NetworkModel, PcieModel};
use everest_platform::memory::{AccessPattern, MemoryModel};
use everest_platform::xrt::{Direction, XrtDevice};

proptest! {
    #[test]
    fn memory_efficiency_is_a_fraction_and_monotone_in_burst(
        burst_pow in 4u32..20,
        width_pow in 5u32..10,
        lanes in 1u32..64,
    ) {
        let model = MemoryModel::new(FpgaDevice::alveo_u55c().memories[0]);
        let pattern = AccessPattern {
            burst_bytes: 1 << burst_pow,
            port_width_bits: 1 << width_pow,
            lanes,
        };
        let eff = model.efficiency(&pattern);
        prop_assert!((0.0..=1.0).contains(&eff));
        let bigger = AccessPattern {
            burst_bytes: 2 << burst_pow,
            ..pattern
        };
        prop_assert!(model.efficiency(&bigger) >= eff);
        // effective bandwidth never exceeds the aggregate peak
        prop_assert!(model.effective_gbps(&pattern) <= model.system.peak_gbps() + 1e-9);
    }

    #[test]
    fn transfer_times_are_monotone_in_bytes(
        a in 0u64..1 << 30,
        b in 0u64..1 << 30,
        lanes in 1u32..32,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let model = MemoryModel::new(FpgaDevice::alveo_u280().memories[0]);
        let pattern = AccessPattern { lanes, ..AccessPattern::default() };
        prop_assert!(model.transfer_time_us(lo, &pattern) <= model.transfer_time_us(hi, &pattern));
        let pcie = PcieModel::new(3, 16);
        prop_assert!(pcie.transfer_time_us(lo) <= pcie.transfer_time_us(hi));
        let net = NetworkModel::cloudfpga_tcp();
        prop_assert!(net.message_time_us(lo) <= net.message_time_us(hi));
    }

    #[test]
    fn xrt_clock_is_monotone_for_any_op_sequence(
        ops in proptest::collection::vec((0u8..3, 1u64..1 << 22), 1..30),
    ) {
        let mut session = XrtDevice::open(FpgaDevice::alveo_u55c());
        session.load_bitstream("any");
        let bo = session.alloc_bo(1 << 22, 0).expect("fits");
        let mut last = session.now_us();
        let n_ops = ops.len();
        for (kind, amount) in ops {
            match kind {
                0 => {
                    session.sync_bo(bo.handle, Direction::HostToDevice).expect("ok");
                }
                1 => {
                    session.sync_bo(bo.handle, Direction::DeviceToHost).expect("ok");
                }
                _ => {
                    session.run_kernel("k", amount).expect("ok");
                }
            }
            let now = session.now_us();
            prop_assert!(now >= last, "virtual time went backwards");
            last = now;
        }
        // one trace entry per op plus the bitstream load
        prop_assert_eq!(session.events().len(), n_ops + 1);
    }
}

//! A simulated SPDK/NVMe kernel-bypass storage device.
//!
//! SPDK sits in the paper's Table 1 beside DPDK: pure kernel bypass for
//! storage. The device exposes exactly what real NVMe queue pairs give a
//! polling application — asynchronous block commands with explicit
//! completion polling, and nothing else. No file system, no naming, no
//! allocation policy: that is OS functionality the storage library OS
//! (`catfs` in this reproduction) must supply, which is what experiment
//! E10 measures (custom log layout vs. an ext4-like layout).
//!
//! The latency model is a flash-shaped service time (fixed submission cost
//! plus per-block transfer) with per-queue-pair serialization, driven by
//! the shared virtual clock.
#![warn(unreachable_pub)]

mod latency;
pub mod nvme;

pub use latency::{FlashLatencyModel, OpLatency};
pub use nvme::{ChainSpec, NvmeStats};

use sim_fabric::{DeviceCaps, DeviceCategory};

/// Capabilities of the simulated NVMe device.
pub fn capabilities() -> DeviceCaps {
    DeviceCaps {
        name: "spdk-sim",
        category: DeviceCategory::BypassOnly,
        kernel_bypass: true,
        multiplexing: true,
        address_translation: true,
        reliable_transport: false,
        network_stack: false,
        buffer_management: false,
        flow_control: false,
        explicit_registration_required: true,
        program_offload: false,
        block_storage: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spdk_is_bypass_only_block_storage() {
        let caps = capabilities();
        assert!(caps.kernel_bypass);
        assert!(caps.block_storage);
        assert!(!caps.network_stack);
        assert_eq!(caps.category, DeviceCategory::BypassOnly);
    }
}

//! A simulated DPDK-class kernel-bypass NIC.
//!
//! This crate stands in for Intel's Data-Plane Development Kit (paper §2,
//! Table 1 left column): a device that gives applications raw Ethernet
//! frames through user-space descriptor rings and *nothing else* — no
//! network stack, no reliable transport, no buffer management, no flow
//! control. A library OS built on it (the reproduction's `catnip`) must
//! supply all of that on the CPU, which is precisely the paper's point.
//!
//! What is modeled:
//!
//! * [`Mempool`] — mbuf allocation from device-registered memory (DPDK
//!   requires hugepage-backed, pinned mempools; we route through
//!   [`demi_memory`]'s registrar hook so pinning is accounted).
//! * [`DpdkPort`] — burst-oriented RX/TX ([`DpdkPort::rx_burst`],
//!   [`DpdkPort::tx_burst`]) over a [`sim_fabric`] endpoint, with multiple
//!   RX queues fed by RSS hashing or an installed steering program, and
//!   bounded descriptor rings that tail-drop when full.
//! * [`smartnic`] — optional program slots (filter/steer/map) that execute
//!   "on the device", spending device cycles instead of host cycles. This
//!   models the Table-1 right column (FPGA/SoC SmartNICs) and powers the
//!   offload experiment (E6).
//! * [`wire`] — the header codec and internet checksum the device shares
//!   with the host stack, so both agree on what a valid segment is.

pub mod mbuf;
pub mod mempool;
pub mod offload;
pub mod port;
pub mod rss;
pub mod smartnic;
pub mod wire;

pub use mbuf::Mbuf;
pub use mempool::Mempool;
pub use offload::{
    FlowKey, FlowShadow, OffloadAction, OffloadEvent, OffloadService, OffloadStats, TcpOffload,
};
pub use port::{DpdkPort, PortConfig, PortQueueStats, PortStats};
pub use smartnic::{NicProgram, ProgramSlot, SlotStats, SmartNic, SmartNicStats};

use sim_fabric::{DeviceCaps, DeviceCategory};

/// Capabilities of the plain (non-SmartNIC) simulated DPDK device.
pub fn capabilities() -> DeviceCaps {
    DeviceCaps {
        name: "dpdk-sim",
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
        block_storage: false,
    }
}

/// Capabilities of the SmartNIC variant (program offload enabled).
pub fn smartnic_capabilities() -> DeviceCaps {
    DeviceCaps {
        name: "dpdk-sim+smartnic",
        category: DeviceCategory::PlusOtherFeatures,
        program_offload: true,
        ..capabilities()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_device_offers_bypass_only() {
        let caps = capabilities();
        assert!(caps.kernel_bypass);
        assert!(!caps.network_stack);
        assert!(!caps.program_offload);
        assert_eq!(caps.category, DeviceCategory::BypassOnly);
    }

    #[test]
    fn smartnic_adds_offload() {
        let caps = smartnic_capabilities();
        assert!(caps.program_offload);
        assert_eq!(caps.category, DeviceCategory::PlusOtherFeatures);
    }
}

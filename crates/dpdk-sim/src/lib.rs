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
//! * [`SmartNic`] — optional program slots that execute "on the device",
//!   spending device cycles instead of host cycles: filter, steer and map
//!   programs, and the TCP offload engine ([`TcpOffload`]: ACK absorption,
//!   echo, a KV GET cache) that answers requests without a host crossing.
//!   This models the Table-1 right column (FPGA/SoC SmartNICs) and powers
//!   the filter-placement experiment (E6) and the offload experiment
//!   (E17).
//! * [`wire`] — the header codec and internet checksum the device shares
//!   with the host stack, so both agree on what a valid segment is.
#![warn(unreachable_pub)]

mod mbuf;
mod mempool;
mod offload;
mod port;
pub mod rss;
mod smartnic;
pub mod wire;

pub use mbuf::Mbuf;
pub use mempool::Mempool;
pub use offload::{FlowKey, FlowShadow, OffloadEvent, OffloadService, OffloadStats, TcpOffload};
pub use port::{DpdkPort, PortConfig, PortQueueStats, PortStats};
pub use smartnic::{
    NicProgram, ProgramSlot, RxDecision, SlotStats, SmartNic, SmartNicError, SmartNicStats,
};

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
mod tests;

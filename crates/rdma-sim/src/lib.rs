//! A simulated RDMA NIC (the Table-1 "+OS features" column).
//!
//! RDMA devices occupy the paper's middle ground: they provide *some* OS
//! functionality in hardware — reliable delivery over connected queue pairs,
//! and the verbs interface — but still push buffer management, flow
//! control, and explicit memory registration onto software (paper §2):
//!
//! > "to send and receive data, applications must still supply OS buffer
//! > management and flow control. Applications have to register memory
//! > before using it for I/O, and receivers must allocate enough buffers of
//! > the right size for senders."
//!
//! The simulation enforces exactly those sharp edges, because experiment E5
//! measures them:
//!
//! * **Registration is mandatory.** All data movement names a
//!   [`MrId`]/rkey; unregistered or out-of-bounds access completes with an
//!   error. Registration has an explicit (virtual-time) cost model.
//! * **Receivers must pre-post buffers.** A SEND arriving with an empty
//!   receive queue triggers RNR back-pressure; after the retry budget the
//!   sender's work request fails ("too few buffers causes communication to
//!   fail"). A too-small posted buffer fails the connection with a length
//!   error ("buffers of the right size").
//! * **Reliable connected transport.** Go-back-N with cumulative ACKs and
//!   retransmission timers runs *inside the device*, so the libOS gets
//!   reliability for free — the feature the paper credits to RDMA hardware.
//! * **One-sided READ/WRITE** execute entirely on the responder's device:
//!   no responder-CPU event is generated, and the stats distinguish
//!   one-sided from two-sided responder work.
#![warn(unreachable_pub)]

mod device;
mod verbs;
pub mod wire;

pub use device::{RdmaDevice, RdmaDeviceStats};
pub use verbs::{
    Completion, CqId, MrAccess, MrId, PdId, QpError, QpId, QpState, WcOpcode, WcStatus,
};

use sim_fabric::{DeviceCaps, DeviceCategory};

/// Capabilities of the simulated RDMA NIC.
pub fn capabilities() -> DeviceCaps {
    DeviceCaps {
        name: "rdma-sim",
        category: DeviceCategory::PlusOsFeatures,
        kernel_bypass: true,
        multiplexing: true,
        address_translation: true,
        reliable_transport: true,
        network_stack: false, // Verbs is not sockets; no TCP/IP interop.
        buffer_management: false,
        flow_control: false,
        explicit_registration_required: true,
        program_offload: false,
        block_storage: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdma_provides_reliability_but_not_buffers() {
        let caps = capabilities();
        assert!(caps.reliable_transport);
        assert!(!caps.buffer_management);
        assert!(!caps.flow_control);
        assert!(caps.explicit_registration_required);
        assert_eq!(caps.category, DeviceCategory::PlusOsFeatures);
    }
}

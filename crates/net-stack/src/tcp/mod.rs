//! A complete user-level TCP.
//!
//! This is the bulk of the "missing OS functionality" (paper §2) a
//! DPDK-class device forces into the library OS. The implementation is a
//! classic, RFC-shaped TCP specialized for the simulated datacenter fabric:
//!
//! * three-way handshake and full close state machine (including
//!   `TIME_WAIT` with 2·MSL);
//! * cumulative ACKs, duplicate-ACK fast retransmit, and
//!   retransmission timeouts with Jacobson/Karn estimation (`rto`);
//! * NewReno-style congestion control (`congestion`): slow start,
//!   congestion avoidance, fast recovery;
//! * receiver flow control with out-of-order segment reassembly and
//!   window-update ACKs, plus a persist-style zero-window probe;
//! * MSS negotiation via SYN options.
//!
//! Deliberately out of scope (documented, not silently missing): window
//! scaling (the simulated fabric's bandwidth-delay product fits in 64 KiB),
//! selective ACKs, timestamps, and simultaneous open.
//!
//! Layering: `cb::ControlBlock` is a pure protocol machine (segments in,
//! segments out, no I/O), [`peer::TcpPeer`] owns the demux table and
//! listeners, and [`crate::stack::NetworkStack`] binds a peer to a device.

mod cb;
mod congestion;
mod peer;
mod rto;
pub mod wheel;

pub use cb::{CbStats, State, TcpSegmentOut};
use dpdk_sim::wire::{seq, tcp as header};
pub use header::{TcpFlags, TcpHeader, TCP_MAX_HEADER_LEN};
pub use peer::{ConnId, ListenerId, TcpMemStats, TcpPeer, TcpStats};
pub use seq::SeqNum;

use sim_fabric::SimTime;

/// Maximum segment lifetime; TIME_WAIT lasts twice this. Chosen: the
/// simulated fabric's worst path is microseconds, so 10 ms outlives any
/// segment by orders of magnitude while keeping churn's TIME_WAIT short.
pub const MSL: SimTime = SimTime::from_millis(10);

/// Lower bound on the retransmission timeout. Chosen: RFC 6298 says 1 s,
/// scaled down to the µs-scale fabric; it stays well above the
/// delayed-ACK timer, or coalescing would masquerade as loss.
pub const RTO_MIN: SimTime = SimTime::from_micros(200);

/// The TCP machine's per-stack tunables: the three a test varies. Every
/// other protocol timer is a constant beside the code that arms it
/// ([`MSL`], [`RTO_MIN`]; DESIGN.md lists them all).
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size we advertise and use (bytes of payload).
    pub mss: usize,
    /// Receive buffer capacity per connection (bytes); bounds the
    /// advertised window at 65535 (no window scaling).
    pub recv_capacity: usize,
    /// SYN retransmission limit before `connect` fails.
    pub syn_retries: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            recv_capacity: 65_535,
            syn_retries: 5,
        }
    }
}

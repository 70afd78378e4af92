//! A complete user-level TCP.
//!
//! This is the bulk of the "missing OS functionality" (paper §2) a
//! DPDK-class device forces into the library OS. The implementation is a
//! classic, RFC-shaped TCP specialized for the simulated datacenter fabric:
//!
//! * three-way handshake and full close state machine (including
//!   `TIME_WAIT` with 2·MSL);
//! * cumulative ACKs, duplicate-ACK fast retransmit, and
//!   retransmission timeouts with Jacobson/Karn estimation ([`rto`]);
//! * NewReno-style congestion control ([`congestion`]): slow start,
//!   congestion avoidance, fast recovery;
//! * receiver flow control with out-of-order segment reassembly and
//!   window-update ACKs, plus a persist-style zero-window probe;
//! * MSS negotiation via SYN options.
//!
//! Deliberately out of scope (documented, not silently missing): window
//! scaling (the simulated fabric's bandwidth-delay product fits in 64 KiB),
//! selective ACKs, timestamps, and simultaneous open.
//!
//! Layering: [`cb::ControlBlock`] is a pure protocol machine (segments in,
//! segments out, no I/O), [`peer::TcpPeer`] owns the demux table and
//! listeners, and [`crate::stack::NetworkStack`] binds a peer to a device.

pub mod cb;
pub mod congestion;
pub mod peer;
pub mod rto;
pub mod wheel;

pub use cb::{ControlBlock, State, TcpSegmentOut};
pub use dpdk_sim::wire::{seq, tcp as header};
pub use header::{TcpFlags, TcpHeader, TCP_MAX_HEADER_LEN};
pub use peer::{ConnId, ListenerId, TcpMemStats, TcpPeer, TcpStats};
pub use seq::SeqNum;

use sim_fabric::SimTime;

/// Tunables for the TCP machine.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size we advertise and use (bytes of payload).
    pub mss: usize,
    /// Receive buffer capacity per connection (bytes); bounds the
    /// advertised window at 65535 (no window scaling).
    pub recv_capacity: usize,
    /// Lower bound on the retransmission timeout.
    pub rto_min: SimTime,
    /// Upper bound on the retransmission timeout.
    pub rto_max: SimTime,
    /// Initial RTO before any RTT sample (RFC 6298 says 1s; the simulated
    /// fabric is µs-scale, so the default is much smaller).
    pub rto_initial: SimTime,
    /// Maximum segment lifetime; TIME_WAIT lasts twice this.
    pub msl: SimTime,
    /// Zero-window probe interval.
    pub persist_interval: SimTime,
    /// SYN retransmission limit before `connect` fails.
    pub syn_retries: u32,
    /// Listener accept-backlog bound.
    pub backlog: usize,
    /// Delayed-ACK timer (RFC 1122 §4.2.3.2): in-order data is acked
    /// every second segment, or this long after a lone segment if the
    /// second never arrives; outgoing data piggybacks any pending ACK.
    /// Must stay well below `rto_min`, or coalescing would masquerade as
    /// loss and trigger spurious retransmissions.
    pub ack_delay: SimTime,
    /// How long a connection must stay quiet (no segments, sends, or fired
    /// timers) before the peer releases its drained queue box back to the
    /// allocator. Long enough that back-to-back operations never thrash
    /// the allocation; short enough that parked connections reach their
    /// zero-heap idle footprint quickly.
    pub compact_delay: SimTime,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            recv_capacity: 65_535,
            rto_min: SimTime::from_micros(200),
            rto_max: SimTime::from_secs(4),
            rto_initial: SimTime::from_millis(1),
            msl: SimTime::from_millis(10),
            persist_interval: SimTime::from_millis(1),
            syn_retries: 5,
            backlog: 128,
            ack_delay: SimTime::from_micros(50),
            compact_delay: SimTime::from_millis(5),
        }
    }
}

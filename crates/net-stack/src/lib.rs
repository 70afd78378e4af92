//! A user-level network stack for DPDK-class kernel-bypass devices.
//!
//! The paper observes (§2, §5.1) that a device like DPDK provides *no* OS
//! features beyond bypass: "applications must supply their own I/O stack
//! (e.g., a complete user-level TCP stack)". This crate is that stack — the
//! largest piece of OS functionality the `catnip` library OS must implement
//! on the CPU because the device does not:
//!
//! * [`eth`], [`ipv4`], [`checksum`], [`tcp::header`], [`tcp::seq`] —
//!   Ethernet II, IPv4 (no fragmentation: upper layers respect the MTU)
//!   and TCP headers with their checksums: re-exports of [`dpdk_sim::wire`],
//!   the one codec shared with the device's offload engine and RSS, under
//!   the paths the frozen perf ledger imports them by;
//! * [`arp`] — address resolution with a cache, request retry, and pending
//!   packet queues;
//! * [`icmp`] — echo request/reply, for reachability tests;
//! * [`udp`] — datagram sockets (message boundaries preserved — the natural
//!   fit for Demikernel queues);
//! * [`tcp`] — a full TCP: three-way handshake, cumulative and duplicate
//!   ACKs, fast retransmit, Jacobson/Karn RTO estimation, NewReno
//!   congestion control, receiver flow control with out-of-order
//!   reassembly, and the complete close/TIME_WAIT state machine;
//! * [`framing`] — length-prefixed message framing layered over TCP's byte
//!   stream, so Demikernel queues can preserve *atomic data units* across a
//!   stream transport (paper §5.2): the shared header and the host decoder;
//! * [`stack`] — [`stack::NetworkStack`], which ties the layers to a
//!   [`dpdk_sim::DpdkPort`] behind handle-based, poll-driven socket APIs.
//!
//! The stack is single-threaded and non-blocking throughout: a Demikernel
//! coroutine calls `poll()`, checks for completions, and yields. A
//! [`NetworkStack`] is one shard of its host on one RX queue; the only
//! structures shards share — and so the only ones that cross threads
//! under thread-per-shard execution — are the bounded [`rings`]
//! (cross-shard messages) and the [`ports`] namespace (host-wide TCP port
//! ownership).

pub mod arp;
pub mod counters;
pub mod fasthash;
pub mod framing;
pub mod icmp;
pub mod ports;
pub mod rings;
pub mod stack;
pub mod tcp;
pub mod types;
pub mod udp;

pub use dpdk_sim::wire::{checksum, eth, ipv4};
pub use fasthash::{FastHashMap, FastHashSet};
pub use ports::PortAllocator;
pub use rings::{mesh, RingStats, ShardMsg, ShardRings};
pub use stack::{
    HostLinks, NetworkStack, ShardStats, StackConfig, StackStats, TenancyCfg, TenantLaneStats,
};
pub use types::{NetError, SocketAddr};

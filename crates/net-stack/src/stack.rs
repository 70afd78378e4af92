//! The assembled stack: Ethernet/ARP/IPv4/ICMP/UDP/TCP over a DPDK port.
//!
//! [`NetworkStack`] is what the `catnip` library OS instantiates per device.
//! It is poll-driven and non-blocking end to end: a scheduler coroutine
//! calls [`NetworkStack::poll`] each pass, then checks handle-based socket
//! APIs for completions. Received payloads are delivered as zero-copy
//! [`DemiBuffer`] views into the device's mbufs.
//!
//! # Sharding
//!
//! A [`NetworkStack`] is exactly one shard: a *complete* protocol instance
//! — its own TCP peer and demux table, UDP peer, ARP view, and TX
//! coalescing ring — polling exactly one RX queue. A bigger host is N of
//! them on one ring mesh ([`NetworkStack::shard_of`]), whether they share
//! one N-queue port on one thread or each own a device on its own core.
//! The shard a flow lives on is decided by the same symmetric RSS hash the
//! device uses ([`dpdk_sim::rss`]), so a connection's frames arrive on the
//! queue of the shard that owns its control block *by construction*: no
//! cross-shard locking, no `Rc`s shared between shards, and the
//! steering-mismatch counter stays zero unless a SmartNIC program
//! overrides RSS or a shard world's device sees another world's flow.
//! Mismatched frames are handed off to the owning shard as
//! [`crate::rings::ShardMsg::Frame`]s over bounded lock-free SPSC rings
//! (`crate::rings`), drained at the start of the owning shard's next
//! poll pass; ARP bindings are broadcast the same way. A full ring or
//! handoff queue drops (counted: `handoff_backpressure` /
//! `handoff_dropped`) instead of growing — TCP retransmission recovers,
//! memory does not. TCP port ownership is host-wide, through the shared
//! lock-free [`PortAllocator`].
//!
//! # Layout
//!
//! This file is [`NetworkStack`] — the socket API over its one shard —
//! its config and its stats; `stack/shard.rs` is the shard core.
//! `stack/tenancy.rs` (lanes, DRR, token buckets, RX slices) and
//! `stack/offload.rs` (the device-offload planner) sit behind an `Option`
//! each in the core, reached only through a handful of hook methods.

mod offload;
mod shard;
mod tenancy;

pub use tenancy::{TenancyCfg, TenantLaneStats};

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::sync::Arc;

use demi_memory::{DemiBuffer, TenantId};
use demi_sched::Notify;
use dpdk_sim::{rss, DpdkPort};
use sim_fabric::{SimClock, SimTime};

use crate::ports::PortAllocator;
use crate::rings::{RingStats, ShardRings};

use crate::eth::ETH_HEADER_LEN;
use crate::icmp::IcmpEcho;
use crate::ipv4::{IpProtocol, IPV4_HEADER_LEN};
use crate::tcp::{
    CbStats, ConnId, ListenerId, State, TcpConfig, TcpMemStats, TcpStats, TCP_MAX_HEADER_LEN,
};
use crate::types::{NetError, SocketAddr};
use crate::udp::{UdpHeader, UdpStats, UDP_HEADER_LEN};

use shard::Shard;

/// Worst-case bytes of headers the stack prepends below an application
/// payload: Ethernet + IPv4 + the largest TCP header it emits. A payload
/// buffer carrying this much headroom travels the whole TX path with zero
/// copies and zero further allocations.
pub const MAX_HEADER_LEN: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_MAX_HEADER_LEN;

// Pool buffers reserve `DEFAULT_HEADROOM` by default; the stack's headers
// must fit in it or the "default allocation ⇒ zero-copy TX" promise breaks.
const _: () = assert!(MAX_HEADER_LEN <= demi_memory::DEFAULT_HEADROOM);

/// Echo replies a stack holds for [`NetworkStack::recv_pong`]; any host
/// can send unsolicited replies, so later ones are dropped and counted
/// ([`StackStats::pongs_dropped`]) instead of growing the queue.
pub const PONG_QUEUE_CAP: usize = 64;

/// Link MTU in bytes (the IP packet budget): Ethernet's. Chosen.
const MTU: usize = 1500;

/// Stack construction parameters: the few a test or a world varies. The
/// protocol timers and bounds nothing varies are constants beside the code
/// that uses them (DESIGN.md lists them all).
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// This host's IPv4 address.
    pub ip: Ipv4Addr,
    /// Maximum frames processed from the device per poll pass.
    /// Under a flood the leftover backlog is reported as remaining work
    /// instead of being drained in one unbounded loop that would starve
    /// timers and the other pollers sharing the scheduler pass.
    pub rx_budget: usize,
    /// Capacity of the handoff queue frames from other shards land in
    /// (the rings' own capacity is the mesh builder's). A full queue drops
    /// the frame (counted) rather than growing; TCP retransmission
    /// recovers the exception-path loss.
    pub handoff_capacity: usize,
    /// TCP tunables.
    pub tcp: TcpConfig,
    /// Multi-tenant device sharing, when several mutually untrusting
    /// applications share this port. `None` = single-tenant, no policy.
    pub tenancy: Option<TenancyCfg>,
}

impl StackConfig {
    /// Sensible defaults for a host at `ip`.
    pub fn new(ip: Ipv4Addr) -> Self {
        StackConfig {
            ip,
            rx_budget: 64,
            handoff_capacity: 1024,
            tcp: TcpConfig::default(),
            tenancy: None,
        }
    }
}

demi_telemetry::counter_family! {
    /// Stack-level counters ([`NetworkStack::stats`]).
    pub struct StackStats {
        /// Frames processed from the device.
        pub rx_frames: u64,
        /// Frames handed to the device.
        pub tx_frames: u64,
        /// Frames dropped as malformed (bad checksum, short headers, ...).
        pub malformed: u64,
        /// Frames addressed to someone else (wrong IP) and dropped.
        pub not_for_us: u64,
        /// ARP requests transmitted.
        pub arp_requests: u64,
        /// ARP replies transmitted.
        pub arp_replies: u64,
        /// ICMP echo replies transmitted.
        pub icmp_replies: u64,
        /// Outbound packets dropped because ARP resolution failed.
        pub unreachable_drops: u64,
        /// ICMP echo replies dropped at a full pong queue
        /// ([`PONG_QUEUE_CAP`]).
        pub pongs_dropped: u64,
    }
}

/// Per-shard counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Frames that arrived on this shard's queue but belong to another
    /// shard's flow (a SmartNIC steering override, or a shard world's
    /// device seeing a flow another world owns).
    pub steering_mismatches: u64,
    /// Frames received through the handoff queue from other shards.
    pub handoffs_in: u64,
    /// TCP timer events fired on this shard.
    pub timer_events: u64,
    /// Frames this shard processed from its own queues.
    pub rx_frames: u64,
    /// Sends from this shard that found the destination ring (or the
    /// local handoff queue, on delivery) full.
    pub handoff_backpressure: u64,
    /// Cross-shard messages from or to this shard discarded at a full
    /// bounded queue.
    pub handoff_dropped: u64,
    /// Device-offload sync events this shard applied to its control
    /// blocks (ACK advances, device serves, flushed bytes).
    pub offload_events_applied: u64,
    /// Flows this shard armed (or re-armed after fallback) on the device.
    pub offload_rearms: u64,
    /// Walks of the offload engine's flow table: poll passes whose guard
    /// found something the walk reads changed (never an idle pass).
    pub offload_walks: u64,
}

/// One logical host's cross-shard links, as seen by one of its shards:
/// the shard's endpoint in the host's ring mesh plus the host's shared
/// port namespace. Every field is `Send`; the stack built from them is not.
pub struct HostLinks {
    /// This shard's endpoint in the host's all-pairs [`crate::rings::mesh`]
    /// (its index is the shard's number, its size the host's shard count).
    pub rings: ShardRings,
    /// The host's port namespace, shared by every shard.
    pub ports: Arc<PortAllocator>,
}

/// One shard of a host's user-level network stack, bound to one RX queue
/// of one device port.
pub struct NetworkStack {
    shard: RefCell<Shard>,
    /// This shard's endpoint in its host's ring mesh; `None` for a host's
    /// sole shard ([`NetworkStack::new`]).
    rings: RefCell<Option<ShardRings>>,
    ports: Arc<PortAllocator>,
    config: StackConfig,
}

impl NetworkStack {
    /// Builds the sole shard of a host on `port`, sharing the simulation
    /// `clock`, with its own private port namespace.
    ///
    /// # Panics
    ///
    /// Panics on a multi-queue port: one stack polls one queue, so the
    /// others would never be drained — build one [`NetworkStack::shard_of`]
    /// per queue instead.
    pub fn new(port: DpdkPort, clock: SimClock, config: StackConfig) -> Self {
        let queues = port.num_rx_queues();
        assert!(
            queues == 1,
            "NetworkStack::new polls one RX queue; a {queues}-queue port needs one \
             NetworkStack::shard_of per queue"
        );
        let ports = Arc::new(PortAllocator::new());
        Self::build(port, clock, config, 0, None, ports)
    }

    /// Builds shard `links.rings.index()` of a `links.rings.num_shards()`-
    /// shard host. Frames whose RSS owner (over the mesh size) is another
    /// shard are forwarded over the mesh; ARP learns are broadcast to every
    /// peer; ephemeral ports are constrained to hash home to this shard.
    /// The RX queue is derived: queue 0 of a one-queue `port` (a shard
    /// world with its own device), queue `index` when `port` has exactly
    /// one queue per shard (N stacks sharing one N-queue port).
    ///
    /// # Panics
    ///
    /// Panics when `port` has neither one queue nor one per shard.
    pub fn shard_of(
        port: DpdkPort,
        clock: SimClock,
        config: StackConfig,
        links: HostLinks,
    ) -> Self {
        let total = links.rings.num_shards();
        let queue = match port.num_rx_queues() as usize {
            1 => 0,
            n if n == total => links.rings.index() as u16,
            n => panic!("a {n}-queue port cannot serve one shard of {total}"),
        };
        Self::build(port, clock, config, queue, Some(links.rings), links.ports)
    }

    fn build(
        port: DpdkPort,
        clock: SimClock,
        config: StackConfig,
        queue: u16,
        rings: Option<ShardRings>,
        ports: Arc<PortAllocator>,
    ) -> Self {
        let mesh = rings
            .as_ref()
            .map_or((0, 1), |r| (r.index() as u16, r.num_shards() as u16));
        let shard = Shard::new(queue, mesh, port, clock, &config, Arc::clone(&ports));
        NetworkStack {
            shard: RefCell::new(shard),
            rings: RefCell::new(rings),
            ports,
            config,
        }
    }

    /// The shared port namespace this stack allocates from.
    pub fn port_allocator(&self) -> Arc<PortAllocator> {
        Arc::clone(&self.ports)
    }

    /// This host's IPv4 address.
    pub fn local_ip(&self) -> Ipv4Addr {
        self.config.ip
    }

    /// One poll pass: drain the inbound rings, then the RX queue and
    /// handoffs (up to [`StackConfig::rx_budget`] frames), advance the
    /// protocol timers, hand the coalesced outgoing frames to the device in
    /// one burst, then *send* the frames and ARP bindings staged for other
    /// shards over the rings (never a direct borrow of another shard — it
    /// may live on another thread). Returns how many work items the pass
    /// processed — frames moved (RX + TX + handoffs), RX backlog left
    /// beyond the budget, plus frameless state transitions (ARP give-up
    /// drops, TCP timer events) — so callers can tell a productive pass
    /// from an idle one.
    pub fn poll(&self) -> usize {
        self.poll_with(false)
    }

    /// [`NetworkStack::poll`]; `every_stage` overrides the guards
    /// ([`crate::testing::poll_every_stage`]).
    pub(crate) fn poll_with(&self, every_stage: bool) -> usize {
        let mut guard = self.shard.borrow_mut();
        let shard = &mut *guard;
        let mut links = self.rings.borrow_mut();
        let Some(rings) = links.as_mut() else {
            return shard.poll_pass(every_stage);
        };
        // Ring drain happens at the pass boundary: messages peers sent
        // during *their* passes become this shard's handoffs/bindings now.
        let mut work = rings.drain(|msg| shard.on_shard_msg(msg));
        work += shard.poll_pass(every_stage);
        // A successful send counts as work here so the scheduler keeps
        // polling until the receiving shard has drained it (processing a
        // frame is counted there, as `handoffs_in`); a full ring drops,
        // counted.
        for (to, msg) in shard.staged.drain(..) {
            if rings.send(to, msg) {
                work += 1;
            } else {
                shard.shard_stats.handoff_backpressure += 1;
                shard.shard_stats.handoff_dropped += 1;
            }
        }
        work
    }

    /// This shard's ring-endpoint counters; `None` for a host's sole shard.
    pub fn ring_stats(&self) -> Option<RingStats> {
        self.rings.borrow().as_ref().map(ShardRings::stats)
    }

    /// Earliest protocol timer deadline (ARP retry, TCP RTO/persist/
    /// TIME_WAIT/delayed-ACK), for runtime clock advancement.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.shard.borrow_mut().next_deadline()
    }

    /// Stack counters.
    pub fn stats(&self) -> StackStats {
        self.shard.borrow().stats
    }

    /// Shard counters (zero `steering_mismatches`/`handoffs_in` prove
    /// flows stay home).
    pub fn shard_stats(&self) -> ShardStats {
        self.shard.borrow().shard_stats
    }

    /// UDP layer counters.
    pub fn udp_stats(&self) -> UdpStats {
        self.shard.borrow().udp.stats()
    }

    /// TCP layer counters.
    pub fn tcp_stats(&self) -> TcpStats {
        self.shard.borrow().tcp.stats()
    }

    /// TCP connection-memory accounting. The headline `bytes_per_conn` for
    /// E18 is `(slab_bytes + cb_heap_bytes + demux_bytes) / live_conns`.
    pub fn tcp_mem_stats(&self) -> TcpMemStats {
        self.shard.borrow().tcp.mem_stats()
    }

    /// Compact TIME_WAIT records currently charged to `tenant` — the
    /// observable for the per-tenant TIME_WAIT partition (a SYN/FIN flood
    /// from one tenant must leave every other tenant's count untouched).
    pub fn tcp_tw_count_for(&self, tenant: u16) -> usize {
        self.shard.borrow().tcp.tw_count_for(tenant)
    }

    /// Occupied SYN-table slots for the listener on `port`. The SYN table
    /// is per-listener (and a port has one owning tenant), so this is the
    /// per-tenant half-open partition.
    pub fn tcp_syn_backlog_used(&self, port: u16) -> usize {
        self.shard.borrow().tcp.syn_backlog_used(port)
    }

    // ------------------------------------------------------------------
    // ICMP.
    // ------------------------------------------------------------------

    /// Sends an ICMP echo request.
    pub fn ping(&self, dst: Ipv4Addr, ident: u16, seq: u16) {
        let echo = IcmpEcho {
            is_request: true,
            ident,
            seq,
            payload: DemiBuffer::empty(),
        };
        let packet = echo.into_packet(IPV4_HEADER_LEN + ETH_HEADER_LEN);
        let mut shard = self.shard.borrow_mut();
        shard.send_ip(dst, IpProtocol::Icmp, packet.into());
    }

    /// Pops a received echo reply `(from, ident, seq)`.
    pub fn recv_pong(&self) -> Option<(Ipv4Addr, u16, u16)> {
        self.shard.borrow_mut().pongs.pop_front()
    }

    // ------------------------------------------------------------------
    // UDP.
    // ------------------------------------------------------------------
    //
    // A UDP port receives from *any* remote, and the remote half of the
    // tuple picks the RX queue — so on a sharded host a port that serves
    // many remotes is bound on every shard (SO_REUSEPORT-style), each
    // delivering the flows RSS steers to it.

    /// Binds a UDP port.
    pub fn udp_bind(&self, port: u16) -> Result<(), NetError> {
        self.check_bind(port)?;
        self.shard.borrow_mut().udp.bind(port)
    }

    /// Binds an ephemeral UDP port for talking to `remote` and returns
    /// it. The port is drawn from the host-wide namespace, constrained to
    /// hash home to this shard for `remote` — the shard whose RX queue the
    /// replies arrive on — exactly as [`NetworkStack::tcp_connect`] draws
    /// its ports, so no two shards of a host share one. Under tenancy the
    /// port is granted to the binding tenant until the socket closes, so
    /// its datagrams are policed against that tenant's RX slice.
    pub fn udp_bind_ephemeral(&self, remote: SocketAddr) -> Result<u16, NetError> {
        let mut shard = self.shard.borrow_mut();
        let (ip, (index, total)) = (self.config.ip, shard.mesh);
        let udp = &shard.udp;
        let port = self
            .ports
            .alloc_ephemeral_where(|p| {
                !udp.is_bound(p)
                    && rss::queue_for_tuple(ip, p, remote.ip, remote.port, total) == index
            })
            .ok_or(NetError::EphemeralPortsExhausted)?;
        shard.udp.open(port, true);
        if let Some(tcfg) = &self.config.tenancy {
            tcfg.grant_ephemeral(port);
        }
        Ok(port)
    }

    /// Closes a UDP port. An ephemeral port goes back to the host-wide
    /// namespace and its transient tenant grant (made at bind time) is
    /// revoked with it, so the port is recycled unowned; a statically
    /// granted service port stays granted.
    pub fn udp_close(&self, port: u16) {
        let shard = &mut *self.shard.borrow_mut();
        if shard.udp.close(port) {
            self.ports.release(port);
            if let Some(ten) = &shard.tenancy {
                ten.revoke_port(port);
            }
        }
    }

    /// Sends one datagram from `src_port` to `dst`.
    ///
    /// Accepts anything convertible into a [`DemiBuffer`]. Passing a buffer
    /// with [`MAX_HEADER_LEN`] headroom (any pool allocation qualifies)
    /// sends with zero copies: UDP, IP, and Ethernet headers are prepended
    /// in place and the same storage reaches the device. Byte slices are
    /// copied into a fresh buffer first (the POSIX-path baseline).
    pub fn udp_sendto(
        &self,
        src_port: u16,
        dst: SocketAddr,
        payload: impl Into<DemiBuffer>,
    ) -> Result<(), NetError> {
        let payload: DemiBuffer = payload.into();
        let max = MTU - IPV4_HEADER_LEN - UDP_HEADER_LEN;
        if payload.len() > max {
            return Err(NetError::MessageTooLong {
                len: payload.len(),
                max,
            });
        }
        let mut shard = self.shard.borrow_mut();
        if !shard.udp.is_bound(src_port) {
            return Err(NetError::BadHandle);
        }
        let header = UdpHeader {
            src_port,
            dst_port: dst.port,
        };
        let room = UDP_HEADER_LEN + IPV4_HEADER_LEN + ETH_HEADER_LEN;
        let write = |datagram: &mut _| header.prepend_onto(self.config.ip, dst.ip, datagram);
        let datagram = payload.prepend_with(room, write);
        shard.send_ip(dst.ip, IpProtocol::Udp, datagram.into());
        Ok(())
    }

    /// Pops a received datagram on `port` (zero-copy payload).
    pub fn udp_recv_from(&self, port: u16) -> Option<(SocketAddr, DemiBuffer)> {
        self.shard.borrow_mut().udp.recv_from(port)
    }

    /// Datagrams queued on `port`.
    pub fn udp_pending(&self, port: u16) -> usize {
        self.shard.borrow().udp.pending(port)
    }

    /// The gate of the UDP socket on `port`: fires when data arrives in
    /// its empty queue, and when it closes.
    pub fn udp_gate(&self, port: u16) -> Result<Notify, NetError> {
        self.shard.borrow_mut().udp.gate(port)
    }

    // ------------------------------------------------------------------
    // TCP.
    // ------------------------------------------------------------------

    /// Tenancy port-ownership gate for bind-like operations: the ambient
    /// tenant may only take ports the host granted it, and the host may
    /// only take unowned ports. Returns the port's owner (for TIME_WAIT
    /// tagging) when tenancy is on, `None` otherwise; denials are
    /// counted.
    fn check_bind(&self, port: u16) -> Result<Option<TenantId>, NetError> {
        let tenancy = self.config.tenancy.as_ref();
        tenancy.map(|tcfg| tcfg.check_bind(port)).transpose()
    }

    /// Starts listening on a TCP port. On a sharded host each shard
    /// listens for itself (SO_REUSEPORT-style: the shared namespace
    /// refcounts listeners) and accepts the handshakes RSS steers to it.
    pub fn tcp_listen(&self, port: u16, backlog: usize) -> Result<ListenerId, NetError> {
        // Tenancy gate first: a tenant may only listen on ports the host
        // granted it, and the host itself must not squat on a tenant's
        // partition.
        let owner = self.check_bind(port)?;
        // Acquiring a listener reference in the shared namespace fails only
        // if a connection exclusively claims the port or 255 shards already
        // listen on it (other shards listening is replication); a second
        // listen on this shard fails in its own peer.
        if !self.ports.listen_acquire(port) {
            return Err(NetError::AddrInUse(port));
        }
        let mut shard = self.shard.borrow_mut();
        let listener = shard
            .tcp
            .listen(port, backlog)
            .inspect_err(|_| self.ports.listen_release(port))?;
        // The port's owner tags the TIME_WAIT partition, so records from
        // this listener's connections are charged to the right tenant.
        if let Some(owner) = owner {
            shard.tcp.tag_port_tenant(port, owner.0);
        }
        Ok(listener)
    }

    /// Pops an established connection from a listener backlog.
    pub fn tcp_accept(&self, listener: ListenerId) -> Result<Option<ConnId>, NetError> {
        self.shard.borrow_mut().tcp.accept(listener)
    }

    /// A listener's gate: fires when a connection is ready to accept, and
    /// when the listener closes.
    pub fn tcp_listener_gate(&self, listener: ListenerId) -> Result<Notify, NetError> {
        self.shard.borrow_mut().tcp.listener_gate(listener)
    }

    /// Stops listening; pending unaccepted connections are aborted.
    pub fn tcp_close_listener(&self, listener: ListenerId) {
        let mut shard = self.shard.borrow_mut();
        if let Some(port) = shard.tcp.close_listener(listener) {
            self.ports.listen_release(port);
            shard.flush_tcp();
        }
    }

    /// Starts an active open; poll [`NetworkStack::tcp_state`] until
    /// `Established` (or an error). The local port is drawn lock-free
    /// from the host-wide ephemeral range, constrained to hash home to
    /// this shard — the shard whose RX queue the handshake replies will
    /// arrive on — so the whole flow stays here.
    pub fn tcp_connect(&self, remote: SocketAddr) -> Result<ConnId, NetError> {
        let mut shard = self.shard.borrow_mut();
        let (ip, (index, total)) = (self.config.ip, shard.mesh);
        let port = self
            .ports
            .alloc_ephemeral_where(|p| {
                rss::queue_for_tuple(ip, p, remote.ip, remote.port, total) == index
            })
            .ok_or(NetError::EphemeralPortsExhausted)?;
        // Under tenancy the port belongs to the connecting tenant until it
        // is released after close/TIME_WAIT.
        if let Some(tcfg) = &self.config.tenancy {
            let tenant = tcfg.grant_ephemeral(port);
            shard.tcp.tag_port_tenant(port, tenant.0);
        }
        let now = shard.clock.now();
        let conn = shard.tcp.connect_bound(port, remote, now);
        shard.flush_tcp();
        Ok(conn)
    }

    /// Connection state.
    pub fn tcp_state(&self, conn: ConnId) -> Result<State, NetError> {
        self.shard.borrow().tcp.state(conn)
    }

    /// Connection failure, if any.
    pub fn tcp_error(&self, conn: ConnId) -> Option<NetError> {
        self.shard.borrow().tcp.error(conn)
    }

    /// Queues stream data (zero-copy) for transmission: the one-buffer
    /// case of [`NetworkStack::tcp_send_all`].
    pub fn tcp_send(&self, conn: ConnId, data: DemiBuffer) -> Result<(), NetError> {
        self.tcp_send_all(conn, std::iter::once(data))
    }

    /// Queues every buffer of one push and runs the connection's output
    /// engine once, so buffers that fit a segment together share a frame
    /// (`ControlBlock::next_segment` has the rule); all or none are
    /// queued. If the device is currently serving this connection, the
    /// flow is disarmed first — host-originated data and device-generated
    /// replies must never race for sequence numbers.
    pub fn tcp_send_all(
        &self,
        conn: ConnId,
        bufs: impl IntoIterator<Item = DemiBuffer>,
    ) -> Result<(), NetError> {
        let mut shard = self.shard.borrow_mut();
        shard.offload_release_conn(conn);
        let now = shard.clock.now();
        shard.tcp.send_all(conn, bufs, now)?;
        shard.flush_tcp();
        Ok(())
    }

    /// Pops one received stream chunk.
    pub fn tcp_recv(&self, conn: ConnId) -> Result<Option<DemiBuffer>, NetError> {
        let mut shard = self.shard.borrow_mut();
        let r = shard.tcp.recv(conn)?;
        // recv may emit a window update.
        shard.flush_tcp();
        Ok(r)
    }

    /// Pops every in-order chunk that has arrived onto `out`: one shard
    /// borrow and one flush for the lot.
    pub fn tcp_recv_all(&self, conn: ConnId, out: &mut Vec<DemiBuffer>) -> Result<(), NetError> {
        let mut shard = self.shard.borrow_mut();
        shard.tcp.recv_all(conn, out)?;
        shard.flush_tcp();
        Ok(())
    }

    /// A connection's gate: fires when it becomes readable (data or EOF),
    /// when its state changes, and when it goes.
    pub fn tcp_gate(&self, conn: ConnId) -> Result<Notify, NetError> {
        self.shard.borrow_mut().tcp.conn_gate(conn)
    }

    /// Whether the connection has data or EOF to read.
    pub fn tcp_readable(&self, conn: ConnId) -> bool {
        self.shard.borrow().tcp.is_readable(conn)
    }

    /// Whether the peer closed and all data was drained.
    pub fn tcp_eof(&self, conn: ConnId) -> bool {
        self.shard.borrow().tcp.at_eof(conn)
    }

    /// Graceful close. Disarms any device offload on the flow first so
    /// the FIN's sequence number accounts for absorbed bytes.
    pub fn tcp_close(&self, conn: ConnId) -> Result<(), NetError> {
        let mut shard = self.shard.borrow_mut();
        shard.offload_release_conn(conn);
        let now = shard.clock.now();
        shard.tcp.close(conn, now)?;
        shard.flush_tcp();
        Ok(())
    }

    /// Per-connection protocol counters.
    pub fn tcp_conn_stats(&self, conn: ConnId) -> Result<CbStats, NetError> {
        self.shard.borrow().tcp.conn_stats(conn)
    }
}

#[cfg(test)]
mod tests;

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
//! When the device has N RX queues the stack splits into N shards, one
//! per queue. Each shard owns a *complete* protocol instance — its own
//! TCP peer and demux table, UDP peer, ARP view, and TX coalescing ring —
//! and polls only its own queue. The shard a flow lives on is decided by the same symmetric
//! RSS hash the device uses ([`dpdk_sim::rss`]), so a connection's frames
//! arrive on the queue of the shard that owns its control block *by
//! construction*: no cross-shard locking, no `Rc`s shared between shards,
//! and the steering-mismatch counter stays zero unless a SmartNIC program
//! deliberately overrides RSS. Mismatched frames are handed off to the
//! owning shard as [`ShardMsg::Frame`]s over bounded lock-free SPSC rings
//! ([`crate::rings`]), drained at the start of the owning shard's next
//! poll pass; ARP bindings travel the same way. A full ring or handoff
//! queue drops (counted: `handoff_backpressure` / `handoff_dropped`)
//! instead of growing — TCP retransmission recovers, memory does not.
//!
//! The same ring protocol crosses OS threads: under thread-per-shard
//! execution each shard world runs on its own core with a *global* shard
//! identity ([`NetworkStack::attach_external`]), forwarding frames whose
//! global RSS owner is another world and broadcasting ARP learns to every
//! peer world. TCP port ownership is host-wide either way, through the
//! shared lock-free [`PortAllocator`].
//!
//! # Layout
//!
//! This file is the [`NetworkStack`] facade, its config and its stats;
//! `stack/shard.rs` is the shard core. `stack/tenancy.rs` (lanes, DRR,
//! token buckets, RX slices) and `stack/offload.rs` (the device-offload
//! planner) sit behind an `Option` each in the core, reached only through
//! a handful of hook methods.

mod offload;
mod shard;
mod tenancy;

pub use tenancy::{TenancyCfg, TenantLaneStats};

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::sync::Arc;

use demi_memory::{DemiBuffer, TenantId};
use dpdk_sim::{rss, DpdkPort};
use sim_fabric::{MacAddress, SimClock, SimTime};

use crate::fasthash::{FastHashMap, FastHashSet};
use crate::ports::PortAllocator;
use crate::rings::{self, RingStats, ShardMsg, ShardRings};

use crate::eth::ETH_HEADER_LEN;
use crate::icmp::IcmpEcho;
use crate::ipv4::{IpProtocol, IPV4_HEADER_LEN};
use crate::tcp::peer::TcpMemStats;
use crate::tcp::{ConnId, ListenerId, State, TcpConfig, TcpStats, TCP_MAX_HEADER_LEN};
use crate::types::{NetError, SocketAddr};
use crate::udp::{UdpHeader, UdpStats, UDP_HEADER_LEN};

use offload::OffloadCtl;
use shard::Shard;

/// Worst-case bytes of headers the stack prepends below an application
/// payload: Ethernet + IPv4 + the largest TCP header it emits. A payload
/// buffer carrying this much headroom travels the whole TX path with zero
/// copies and zero further allocations.
pub const MAX_HEADER_LEN: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_MAX_HEADER_LEN;

// Pool buffers reserve `DEFAULT_HEADROOM` by default; the stack's headers
// must fit in it or the "default allocation ⇒ zero-copy TX" promise breaks.
const _: () = assert!(MAX_HEADER_LEN <= demi_memory::DEFAULT_HEADROOM);

/// Echo replies a shard holds for [`NetworkStack::recv_pong`]; any host
/// can send unsolicited replies, so later ones are dropped and counted
/// ([`StackStats::pongs_dropped`]) instead of growing the queue.
pub const PONG_QUEUE_CAP: usize = 64;

/// Stack construction parameters.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// This host's IPv4 address.
    pub ip: Ipv4Addr,
    /// Link MTU in bytes (IP packet budget).
    pub mtu: usize,
    /// ARP cache TTL.
    pub arp_ttl: SimTime,
    /// ARP request retry interval.
    pub arp_retry: SimTime,
    /// ARP request attempts before declaring unreachable.
    pub arp_tries: u32,
    /// Per-UDP-socket receive queue depth.
    pub udp_queue_depth: usize,
    /// Maximum frames processed from the device per poll pass *per shard*.
    /// Under a flood the leftover backlog is reported as remaining work
    /// instead of being drained in one unbounded loop that would starve
    /// timers and the other pollers sharing the scheduler pass.
    pub rx_budget: usize,
    /// Capacity of each cross-shard ring and of the per-shard handoff
    /// queue. A full queue drops the frame (counted) rather than growing;
    /// TCP retransmission recovers the exception-path loss.
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
            mtu: 1500,
            arp_ttl: SimTime::from_secs(60),
            arp_retry: SimTime::from_millis(1),
            arp_tries: 3,
            udp_queue_depth: 1024,
            rx_budget: 64,
            handoff_capacity: 1024,
            tcp: TcpConfig::default(),
            tenancy: None,
        }
    }
}

demi_telemetry::counter_family! {
    /// Stack-level counters (summed across shards by [`NetworkStack::stats`]).
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
    /// shard's flow (only a SmartNIC steering override can cause this when
    /// the device hashes with the same function as `shard_for`).
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
    /// blocks (ACK advances, device serves, flushed bytes, fallbacks).
    pub offload_events_applied: u64,
    /// Flows this shard armed (or re-armed after fallback) on the device.
    pub offload_rearms: u64,
}

/// Facade-level bookkeeping for this stack's listeners. Port *ownership*
/// lives in the shared [`PortAllocator`] (one namespace per logical host,
/// even when the host's shards span OS threads); this struct only tracks
/// which listeners this particular stack instance replicated.
struct Control {
    /// Facade listener handle → (port, per-shard inner listener ids).
    listeners: FastHashMap<u32, (u16, Vec<ListenerId>)>,
    next_listener: u32,
    /// Ports this stack instance listens on (a second `listen` here is
    /// `AddrInUse`; another shard world acquiring the same port is
    /// SO_REUSEPORT replication and fine).
    local_listen: FastHashSet<u16>,
}

/// One host's user-level network stack bound to one device port.
pub struct NetworkStack {
    shards: Vec<RefCell<Shard>>,
    /// In-world cross-shard rings, one endpoint per shard. Same protocol
    /// and bounds as the cross-thread mesh; only the draining thread
    /// differs.
    rings: Vec<RefCell<ShardRings>>,
    /// This stack's endpoint in the cross-thread shard mesh, when it is
    /// one world of a thread-per-shard host (see
    /// [`NetworkStack::attach_external`]).
    external: RefCell<Option<ShardRings>>,
    /// The installed TCP offload program, if any (one per stack: the
    /// engine multiplexes echo or KV service over one local port).
    offload: RefCell<Option<OffloadCtl>>,
    ctrl: RefCell<Control>,
    ports: Arc<PortAllocator>,
    config: StackConfig,
}

impl NetworkStack {
    /// Builds a stack on `port`, sharing the simulation `clock`, with its
    /// own private port namespace.
    pub fn new(port: DpdkPort, clock: SimClock, config: StackConfig) -> Self {
        Self::with_ports(port, clock, config, Arc::new(PortAllocator::new()))
    }

    /// Builds a stack whose TCP port namespace is `ports` — shared across
    /// every shard world of one logical host under thread-per-shard
    /// execution.
    pub fn with_ports(
        port: DpdkPort,
        clock: SimClock,
        config: StackConfig,
        ports: Arc<PortAllocator>,
    ) -> Self {
        let num_shards = port.num_rx_queues().max(1) as usize;
        let shards = (0..num_shards)
            .map(|i| RefCell::new(Shard::new(i, num_shards, &port, &clock, &config, &ports)))
            .collect();
        let rings = rings::mesh(num_shards, config.handoff_capacity)
            .into_iter()
            .map(RefCell::new)
            .collect();
        NetworkStack {
            shards,
            rings,
            external: RefCell::new(None),
            offload: RefCell::new(None),
            ctrl: RefCell::new(Control {
                listeners: FastHashMap::default(),
                next_listener: 0,
                local_listen: FastHashSet::default(),
            }),
            ports,
            config,
        }
    }

    /// Makes this stack one shard world of a thread-per-shard logical
    /// host: `links` is this world's endpoint in a [`rings::mesh`] whose
    /// index is the world's *global* shard number and whose size is the
    /// total world count. Frames whose global RSS owner is another world
    /// are forwarded over the mesh; ARP learns are broadcast to every
    /// peer; ephemeral ports are constrained to hash home to this world.
    pub fn attach_external(&self, links: ShardRings) {
        let (gidx, gtotal) = (links.index(), links.num_shards());
        for s in &self.shards {
            s.borrow_mut().global = Some((gidx as u16, gtotal as u16));
        }
        *self.external.borrow_mut() = Some(links);
    }

    /// The shared TCP port namespace this stack allocates from.
    pub fn port_allocator(&self) -> Arc<PortAllocator> {
        Arc::clone(&self.ports)
    }

    /// This host's IPv4 address.
    pub fn local_ip(&self) -> Ipv4Addr {
        self.config.ip
    }

    /// This host's hardware address.
    pub fn mac(&self) -> MacAddress {
        self.shards[0].borrow().port.mac()
    }

    /// Number of shards this stack runs: one per device RX queue.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns the flow `(local_port, remote)` — the same
    /// symmetric hash the device's RSS uses, so ownership and steering
    /// agree by construction.
    pub fn shard_for(&self, local_port: u16, remote: SocketAddr) -> usize {
        rss::queue_for_tuple(
            self.config.ip,
            local_port,
            remote.ip,
            remote.port,
            self.shards.len() as u16,
        ) as usize
    }

    /// One poll pass over every shard. Returns how many work items the
    /// pass processed — frames moved (RX + TX + handoffs), RX backlog left
    /// beyond the budget, plus frameless state transitions (ARP give-up
    /// drops, TCP timer events) — so callers can tell a productive pass
    /// from an idle one.
    pub fn poll(&self) -> usize {
        (0..self.shards.len()).map(|i| self.poll_shard(i)).sum()
    }

    /// [`NetworkStack::poll`] with every guard overridden — each stage of
    /// each pass runs whether or not it has work. The reference side of the
    /// guarded-vs-unguarded differential test; nothing else should call it.
    #[doc(hidden)]
    pub fn poll_every_stage(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.poll_with(i, true))
            .sum()
    }

    /// One poll pass over a single shard: drain its inbound rings, then
    /// its RX queue and handoffs (up to [`StackConfig::rx_budget`]
    /// frames), advance its protocol timers, hand its coalesced outgoing
    /// frames to the device in one burst, then *send* any frames and ARP
    /// bindings staged for other shards over the rings (never a direct
    /// borrow of another shard — it may live on another thread). This is
    /// the unit the runtime registers one poller per shard for.
    pub fn poll_shard(&self, index: usize) -> usize {
        self.poll_with(index, false)
    }

    /// [`NetworkStack::poll_shard`]; `every_stage` overrides the guards.
    fn poll_with(&self, index: usize, every_stage: bool) -> usize {
        let mut shard = self.shards[index].borrow_mut();
        // Ring drain happens at the pass boundary: messages peers sent
        // during *their* passes become this shard's handoffs/bindings now.
        let mut work = self.rings[index]
            .borrow_mut()
            .drain(|msg| shard.on_shard_msg(msg));
        // Shard 0 also drains this world's cross-thread inbox.
        if index == 0 {
            if let Some(ext) = self.external.borrow_mut().as_mut() {
                work += ext.drain(|msg| shard.on_shard_msg(msg));
            }
        }
        work += shard.poll_pass(every_stage);
        // The common pass staged nothing for another shard: done. Debug
        // builds (and the reference) walk the empty send loops anyway and
        // check they sent nothing, like any other skipped stage.
        let staged = shard.has_staged();
        if !(staged || every_stage || cfg!(debug_assertions)) {
            return work;
        }
        let forwards = std::mem::take(&mut shard.forwards);
        let ext_forwards = std::mem::take(&mut shard.ext_forwards);
        let learned = std::mem::take(&mut shard.learned);
        drop(shard);
        let work_before = work;
        // Mis-steered frames go to their owning shard's ring; processing
        // them is counted there (`handoffs_in`). A successful send counts
        // as work here so the scheduler keeps polling until the receiving
        // shard has drained it.
        {
            let mut rings = self.rings[index].borrow_mut();
            for (target, mbuf) in forwards {
                let sent = rings.send(target, ShardMsg::Frame(mbuf.as_slice().to_vec()));
                work += self.note_send(index, sent);
            }
            // ARP bindings learned on one shard serve the whole host:
            // another shard may be the one holding packets queued on that
            // resolution.
            for &(ip, mac) in &learned {
                for j in 0..self.shards.len() {
                    if j != index {
                        let sent = rings.send(j, ShardMsg::ArpLearn(ip, mac));
                        work += self.note_send(index, sent);
                    }
                }
            }
        }
        // Cross-thread links: frames owned by another world, plus the
        // same ARP broadcast (a peer world may hold packets pending on
        // the resolution this world just completed).
        if let Some(ext) = self.external.borrow_mut().as_mut() {
            let gidx = ext.index();
            for (world, bytes) in ext_forwards {
                let sent = ext.send(world, ShardMsg::Frame(bytes));
                work += self.note_send(index, sent);
            }
            for &(ip, mac) in &learned {
                for world in 0..ext.num_shards() {
                    if world != gidx {
                        let sent = ext.send(world, ShardMsg::ArpLearn(ip, mac));
                        work += self.note_send(index, sent);
                    }
                }
            }
        }
        debug_assert!(staged || work == work_before, "sent with nothing staged");
        work
    }

    /// Books one ring send into the sending shard's stats; returns the
    /// work-item credit (1 for enqueued, 0 for dropped).
    fn note_send(&self, index: usize, sent: bool) -> usize {
        if sent {
            1
        } else {
            let mut shard = self.shards[index].borrow_mut();
            shard.shard_stats.handoff_backpressure += 1;
            shard.shard_stats.handoff_dropped += 1;
            0
        }
    }

    /// In-world ring counters for shard `index`.
    pub fn ring_stats(&self, index: usize) -> RingStats {
        self.rings[index].borrow().stats()
    }

    /// Cross-thread ring counters, if [`attach_external`] was called.
    ///
    /// [`attach_external`]: NetworkStack::attach_external
    pub fn external_ring_stats(&self) -> Option<RingStats> {
        self.external.borrow().as_ref().map(ShardRings::stats)
    }

    /// Earliest protocol timer deadline (ARP retry, TCP RTO/persist/
    /// TIME_WAIT/delayed-ACK) across all shards, for runtime clock
    /// advancement.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .filter_map(|s| s.borrow_mut().next_deadline())
            .min()
    }

    /// Stack counters, summed across shards.
    pub fn stats(&self) -> StackStats {
        let mut total = StackStats::ZERO;
        for s in &self.shards {
            total.merge(&s.borrow().stats);
        }
        total
    }

    /// Per-shard counters (zero `steering_mismatches`/`handoffs_in` prove
    /// flows stay home).
    pub fn shard_stats(&self, index: usize) -> ShardStats {
        self.shards[index].borrow().shard_stats
    }

    /// UDP layer counters, summed across shards.
    pub fn udp_stats(&self) -> UdpStats {
        let mut total = UdpStats::ZERO;
        for s in &self.shards {
            total.merge(&s.borrow().udp.stats());
        }
        total
    }

    /// TCP layer counters, summed across shards.
    pub fn tcp_stats(&self) -> TcpStats {
        let mut total = TcpStats::ZERO;
        for s in &self.shards {
            total.merge(&s.borrow().tcp.stats());
        }
        total
    }

    /// TCP connection-memory accounting, summed across shards. The
    /// headline `bytes_per_conn` for E18 is `(slab_bytes + cb_heap_bytes
    /// + demux_bytes) / live_conns`.
    pub fn tcp_mem_stats(&self) -> TcpMemStats {
        let mut total = TcpMemStats::ZERO;
        for s in &self.shards {
            total.merge(&s.borrow().tcp.mem_stats());
        }
        total
    }

    /// Compact TIME_WAIT records currently charged to `tenant`, summed
    /// across shards — the observable for the per-tenant TIME_WAIT
    /// partition (a SYN/FIN flood from one tenant must leave every other
    /// tenant's count untouched).
    pub fn tcp_tw_count_for(&self, tenant: u16) -> usize {
        self.shards
            .iter()
            .map(|s| s.borrow().tcp.tw_count_for(tenant))
            .sum()
    }

    /// Occupied SYN-table slots for the listener on `port`, summed across
    /// shards. The SYN table is per-listener (and a port has one owning
    /// tenant), so this is the per-tenant half-open partition.
    pub fn tcp_syn_backlog_used(&self, port: u16) -> usize {
        self.shards
            .iter()
            .map(|s| s.borrow().tcp.syn_backlog_used(port))
            .sum()
    }

    /// The shard owning connection `conn` — recoverable from the id alone
    /// because shard *i* allocates ids `i, i+N, i+2N, …`.
    fn conn_shard(&self, conn: ConnId) -> &RefCell<Shard> {
        &self.shards[conn.0 as usize % self.shards.len()]
    }

    // ------------------------------------------------------------------
    // ICMP.
    // ------------------------------------------------------------------

    /// Sends an ICMP echo request.
    pub fn ping(&self, dst: Ipv4Addr, ident: u16, seq: u16) {
        // ICMP has no ports; RSS hashes it as the host pair, so the owning
        // shard is the (0, 0)-port flow's shard.
        let owner = self.shard_for(0, SocketAddr::new(dst, 0));
        let mut shard = self.shards[owner].borrow_mut();
        let echo = IcmpEcho {
            is_request: true,
            ident,
            seq,
            payload: DemiBuffer::empty(),
        };
        let packet = echo.into_packet(IPV4_HEADER_LEN + ETH_HEADER_LEN);
        shard.send_ip(dst, IpProtocol::Icmp, packet);
    }

    /// Pops a received echo reply `(from, ident, seq)`.
    pub fn recv_pong(&self) -> Option<(Ipv4Addr, u16, u16)> {
        for s in &self.shards {
            if let Some(pong) = s.borrow_mut().pongs.pop_front() {
                return Some(pong);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // UDP.
    // ------------------------------------------------------------------
    //
    // A UDP port receives from *any* remote, and the remote half of the
    // tuple picks the RX queue — so one bound port's datagrams arrive on
    // every shard. Binds are therefore replicated across shards
    // (SO_REUSEPORT-style), each shard delivering the flows RSS steers to
    // it; receive-side accessors aggregate.

    /// Binds a UDP port.
    pub fn udp_bind(&self, port: u16) -> Result<(), NetError> {
        self.check_bind(port)?;
        self.shards[0].borrow_mut().udp.bind(port)?;
        for s in &self.shards[1..] {
            s.borrow_mut()
                .udp
                .bind(port)
                .expect("shards' UDP port spaces stay in sync");
        }
        Ok(())
    }

    /// Binds an ephemeral UDP port and returns it. Under tenancy the
    /// port is granted to the binding tenant, so its datagrams are
    /// policed against that tenant's RX slice.
    pub fn udp_bind_ephemeral(&self) -> Result<u16, NetError> {
        let port = self.shards[0].borrow_mut().udp.bind_ephemeral()?;
        if let Some(tcfg) = &self.config.tenancy {
            tcfg.grant_ephemeral(port);
        }
        for s in &self.shards[1..] {
            s.borrow_mut()
                .udp
                .bind(port)
                .expect("shards' UDP port spaces stay in sync");
        }
        Ok(port)
    }

    /// Closes a UDP port.
    pub fn udp_close(&self, port: u16) {
        for s in &self.shards {
            s.borrow_mut().udp.close(port);
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
        let max = self.config.mtu - IPV4_HEADER_LEN - UDP_HEADER_LEN;
        if payload.len() > max {
            return Err(NetError::MessageTooLong {
                len: payload.len(),
                max,
            });
        }
        // The flow's owning shard transmits, keeping its ARP view and TX
        // ring the only state this datagram touches.
        let owner = self.shard_for(src_port, dst);
        let mut shard = self.shards[owner].borrow_mut();
        if !shard.udp.is_bound(src_port) {
            return Err(NetError::BadHandle);
        }
        let header = UdpHeader {
            src_port,
            dst_port: dst.port,
        };
        let mut datagram = if payload.can_prepend(UDP_HEADER_LEN + IPV4_HEADER_LEN + ETH_HEADER_LEN)
        {
            payload
        } else {
            payload.copy_with_headroom(MAX_HEADER_LEN)
        };
        let (src_ip, dst_ip) = (self.config.ip, dst.ip);
        header
            .prepend_onto(src_ip, dst_ip, &mut datagram)
            .expect("headroom ensured above");
        shard.send_ip(dst.ip, IpProtocol::Udp, datagram);
        Ok(())
    }

    /// Pops a received datagram on `port` (zero-copy payload). Per-flow
    /// order is preserved (a flow lives on one shard); order *between*
    /// remotes on different shards is not, exactly like hardware RSS.
    pub fn udp_recv_from(&self, port: u16) -> Option<(SocketAddr, DemiBuffer)> {
        for s in &self.shards {
            if let Some(got) = s.borrow_mut().udp.recv_from(port) {
                return Some(got);
            }
        }
        None
    }

    /// Datagrams queued on `port` across all shards.
    pub fn udp_pending(&self, port: u16) -> usize {
        self.shards
            .iter()
            .map(|s| s.borrow().udp.pending(port))
            .sum()
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

    /// Starts listening on a TCP port. The listener is replicated on every
    /// shard (SO_REUSEPORT-style): each shard accepts the handshakes RSS
    /// steers to it into its own backlog, and [`NetworkStack::tcp_accept`]
    /// drains them all.
    pub fn tcp_listen(&self, port: u16, backlog: usize) -> Result<ListenerId, NetError> {
        // Tenancy gate first: a tenant may only listen on ports the host
        // granted it, and the host itself must not squat on a tenant's
        // partition. The port's owner also tags each shard's TIME_WAIT
        // partition, so records from this listener's connections are
        // charged to the right tenant.
        let owner = self.check_bind(port)?;
        let mut ctrl = self.ctrl.borrow_mut();
        // One listen per port per stack; acquiring a listener reference in
        // the shared namespace fails only if a connection exclusively
        // claims the port (other shard worlds listening is replication).
        if ctrl.local_listen.contains(&port) || !self.ports.listen_acquire(port) {
            return Err(NetError::AddrInUse(port));
        }
        let inner: Vec<ListenerId> = self
            .shards
            .iter()
            .map(|s| {
                let mut shard = s.borrow_mut();
                if let Some(owner) = owner {
                    shard.tcp.tag_port_tenant(port, owner.0);
                }
                shard
                    .tcp
                    .listen(port, backlog)
                    .expect("facade owns the port namespace")
            })
            .collect();
        ctrl.local_listen.insert(port);
        let id = ctrl.next_listener;
        ctrl.next_listener += 1;
        ctrl.listeners.insert(id, (port, inner));
        Ok(ListenerId(id))
    }

    /// Pops an established connection from a listener backlog (any shard).
    pub fn tcp_accept(&self, listener: ListenerId) -> Result<Option<ConnId>, NetError> {
        let ctrl = self.ctrl.borrow();
        let (_, inner) = ctrl.listeners.get(&listener.0).ok_or(NetError::BadHandle)?;
        for (shard, &lid) in self.shards.iter().zip(inner) {
            if let Some(conn) = shard.borrow_mut().tcp.accept(lid)? {
                return Ok(Some(conn));
            }
        }
        Ok(None)
    }

    /// Stops listening; pending unaccepted connections are aborted.
    pub fn tcp_close_listener(&self, listener: ListenerId) {
        let mut ctrl = self.ctrl.borrow_mut();
        let Some((port, inner)) = ctrl.listeners.remove(&listener.0) else {
            return;
        };
        ctrl.local_listen.remove(&port);
        self.ports.listen_release(port);
        for (shard, lid) in self.shards.iter().zip(inner) {
            let mut shard = shard.borrow_mut();
            shard.tcp.close_listener(lid);
            shard.flush_tcp();
        }
    }

    /// Starts an active open; poll [`NetworkStack::tcp_state`] until
    /// `Established` (or an error). The local port is drawn lock-free
    /// from the host-wide ephemeral range, and the connection is placed
    /// on the shard its 4-tuple hashes to — the shard whose RX queue the
    /// handshake replies will arrive on. When this stack is one world of
    /// a thread-per-shard host, the port is additionally constrained to
    /// hash home to this world, so the whole flow stays on this core.
    pub fn tcp_connect(&self, remote: SocketAddr) -> Result<ConnId, NetError> {
        let global = self.shards[0].borrow().global;
        let ip = self.config.ip;
        let port = match global {
            Some((gidx, gtotal)) => self.ports.alloc_ephemeral_where(|p| {
                rss::queue_for_tuple(ip, p, remote.ip, remote.port, gtotal) == gidx
            }),
            None => self.ports.alloc_ephemeral(),
        }
        .ok_or(NetError::EphemeralPortsExhausted)?;
        // Under tenancy the port belongs to the connecting tenant until it
        // is released after close/TIME_WAIT.
        let tenancy = self.config.tenancy.as_ref();
        let tw_tenant = tenancy.map(|tcfg| tcfg.grant_ephemeral(port));
        let owner = self.shard_for(port, remote);
        let mut shard = self.shards[owner].borrow_mut();
        if let Some(t) = tw_tenant {
            shard.tcp.tag_port_tenant(port, t.0);
        }
        let now = shard.clock.now();
        let conn = shard.tcp.connect_bound(port, remote, now);
        shard.flush_tcp();
        Ok(conn)
    }

    /// Connection state.
    pub fn tcp_state(&self, conn: ConnId) -> Result<State, NetError> {
        self.conn_shard(conn).borrow().tcp.state(conn)
    }

    /// Connection failure, if any.
    pub fn tcp_error(&self, conn: ConnId) -> Option<NetError> {
        self.conn_shard(conn).borrow().tcp.error(conn)
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
        let mut shard = self.conn_shard(conn).borrow_mut();
        shard.offload_release_conn(conn);
        let now = shard.clock.now();
        shard.tcp.send_all(conn, bufs, now)?;
        shard.flush_tcp();
        Ok(())
    }

    /// Pops one received stream chunk.
    pub fn tcp_recv(&self, conn: ConnId) -> Result<Option<DemiBuffer>, NetError> {
        let mut shard = self.conn_shard(conn).borrow_mut();
        let r = shard.tcp.recv(conn)?;
        // recv may emit a window update.
        shard.flush_tcp();
        Ok(r)
    }

    /// Pops every in-order chunk that has arrived onto `out`: one shard
    /// borrow and one flush for the lot.
    pub fn tcp_recv_all(&self, conn: ConnId, out: &mut Vec<DemiBuffer>) -> Result<(), NetError> {
        let mut shard = self.conn_shard(conn).borrow_mut();
        shard.tcp.recv_all(conn, out)?;
        shard.flush_tcp();
        Ok(())
    }

    /// Whether the connection has data or EOF to read.
    pub fn tcp_readable(&self, conn: ConnId) -> bool {
        self.conn_shard(conn).borrow().tcp.is_readable(conn)
    }

    /// Whether the peer closed and all data was drained.
    pub fn tcp_eof(&self, conn: ConnId) -> bool {
        self.conn_shard(conn).borrow().tcp.at_eof(conn)
    }

    /// Graceful close. Disarms any device offload on the flow first so
    /// the FIN's sequence number accounts for absorbed bytes.
    pub fn tcp_close(&self, conn: ConnId) -> Result<(), NetError> {
        let mut shard = self.conn_shard(conn).borrow_mut();
        shard.offload_release_conn(conn);
        let now = shard.clock.now();
        shard.tcp.close(conn, now)?;
        shard.flush_tcp();
        Ok(())
    }

    /// Per-connection protocol counters.
    pub fn tcp_conn_stats(&self, conn: ConnId) -> Result<crate::tcp::cb::CbStats, NetError> {
        self.conn_shard(conn).borrow().tcp.conn_stats(conn)
    }
}

#[cfg(test)]
mod tests;

//! The shard core: one complete protocol instance on one RX queue. A
//! poll pass reads top to bottom — `rx_pass` → ownership check
//! (`handle_frame`) → demux (`dispatch_frame`) → `flush_tcp` → TX ring →
//! one `tx_burst` (`flush_tx`). Tenancy and device offload hang off the
//! two `Option` fields at the bottom of [`Shard`], behind hook methods.
//!
//! Most passes find nothing to do, so each stage of [`Shard::poll_pass`]
//! sits behind an O(1) guard that asks "anything to do?" where the answer
//! lives, and is skipped on a no (`Shard::stage` has the rule that keeps
//! the guards honest):
//!
//! | stage | runs when |
//! |---|---|
//! | RX (`rx_pass`) | the handoff queue is non-empty, or `DpdkPort::rx_ready`: this queue's descriptor ring or the fabric mailbox holds a frame |
//! | ARP tick | `ArpCache::due`: the earliest retry (cached) is `<= now` |
//! | TCP tick | `TcpPeer::tick_needed`: the wheel has something to fire or cascade, or the compactor's front is due |
//! | TCP flush | `TcpPeer::has_output`: a raw segment, a dirty connection or a released port |
//! | TX burst (`flush_tx`) | the TX ring holds a frame |
//!
//! Stages with per-pass hook state stay conservative: tenancy (RX slices
//! reopen, paced lanes fill) forces RX and TX, an installed offload (the
//! pump runs its programs) forces RX.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;

use demi_memory::DemiBuffer;
use dpdk_sim::{rss, DpdkPort, Mbuf};
use sim_fabric::{MacAddress, SimClock, SimTime};

use super::offload::Offload;
use super::tenancy::ShardTenancy;
use super::{ShardStats, StackConfig, StackStats, MAX_HEADER_LEN, PONG_QUEUE_CAP};
use crate::arp::{ArpAction, ArpCache, ArpOp, ArpPacket, ARP_LEN};
use crate::eth::{EthHeader, EtherType, ETH_HEADER_LEN};
use crate::icmp::IcmpEcho;
use crate::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use crate::ports::PortAllocator;
use crate::rings::ShardMsg;
use crate::tcp::{ConnId, TcpPeer, TcpSegmentOut};
use crate::types::SocketAddr;
use crate::udp::{UdpHeader, UdpPeer, UDP_HEADER_LEN};

/// One shard: a complete protocol instance bound to exactly one of the
/// device's RX queues.
pub(super) struct Shard {
    /// The RX queue this shard drains.
    queue: u16,
    /// `(this shard's index, shard count)` in its host's ring mesh — what
    /// RSS ownership is computed over. `(0, 1)` for a host's sole shard.
    pub(super) mesh: (u16, u16),
    pub(super) port: DpdkPort,
    pub(super) clock: SimClock,
    config: StackConfig,
    arp: ArpCache,
    pub(super) udp: UdpPeer,
    pub(super) tcp: TcpPeer,
    /// Echo replies awaiting `recv_pong`, bounded at [`PONG_QUEUE_CAP`].
    pub(super) pongs: VecDeque<(Ipv4Addr, u16, u16)>,
    /// TX coalescing ring: fully framed mbufs accumulate here in enqueue
    /// order and leave in a single `tx_burst` at the end of each poll pass.
    tx_ring: Vec<Mbuf>,
    /// Telemetry enqueue stamps, parallel to `tx_ring` (virtual-time ns
    /// when latency telemetry is on; empty otherwise). `flush_tx` turns
    /// them into TX enqueue→burst samples.
    tx_stamps: Vec<u64>,
    /// Frames other shards received but this shard owns (RSS overridden by
    /// a steering program, or arrival on another shard world's device).
    /// Drained before the device queue each pass.
    /// Bounded at [`StackConfig::handoff_capacity`]: overflow drops the
    /// frame (counted) rather than growing.
    handoff: VecDeque<Mbuf>,
    /// What this pass has for other shards, staged for
    /// [`super::NetworkStack::poll`] to send over the rings after the
    /// pass, as `(destination shard, message)`: frames this shard received
    /// but another owns (owned bytes — `Rc` never crosses a shard
    /// boundary), and the ARP bindings it learned, one copy per peer
    /// (resolution benefits the whole host).
    pub(super) staged: Vec<(usize, ShardMsg)>,
    /// The host-wide port namespace, for returning recycled ephemeral
    /// ports (expired TIME_WAIT records release them shard-locally first).
    ports: Arc<PortAllocator>,
    /// Reusable RX scratch: `rx_pass` has the device append each pass's
    /// frames here instead of collecting a fresh vector per burst.
    rx_scratch: Vec<Mbuf>,
    /// Reusable TCP flush scratch: `flush_tcp` drains the peer's outbox
    /// into this instead of allocating a fresh vector every poll pass.
    tcp_out: Vec<(Ipv4Addr, TcpSegmentOut)>,
    pub(super) stats: StackStats,
    pub(super) shard_stats: ShardStats,
    /// The installed device offload program, if any.
    pub(super) offload: Option<Offload>,
    /// Multi-tenant TX lanes and RX slices; `None` on a single-tenant
    /// stack (the unconditional fast path).
    pub(super) tenancy: Option<ShardTenancy>,
}

impl Shard {
    /// Shard `mesh.0` of `mesh.1` on `port`, polling RX queue `queue`.
    pub(super) fn new(
        queue: u16,
        mesh: (u16, u16),
        port: DpdkPort,
        clock: SimClock,
        config: &StackConfig,
        ports: Arc<PortAllocator>,
    ) -> Self {
        let mut tcp = TcpPeer::new(config.ip, config.tcp);
        if let Some(tcfg) = &config.tenancy {
            tcfg.apply_tw_quotas(&mut tcp);
        }
        Shard {
            queue,
            mesh,
            arp: ArpCache::new(config.arp_ttl, config.arp_retry, config.arp_tries),
            udp: UdpPeer::new(config.udp_queue_depth),
            tcp,
            pongs: VecDeque::new(),
            tx_ring: Vec::new(),
            tx_stamps: Vec::new(),
            handoff: VecDeque::new(),
            staged: Vec::new(),
            ports,
            rx_scratch: Vec::new(),
            tcp_out: Vec::new(),
            port,
            clock,
            stats: StackStats::default(),
            shard_stats: ShardStats::default(),
            offload: None,
            tenancy: config
                .tenancy
                .as_ref()
                .map(|t| ShardTenancy::new(t, config.rx_budget)),
            config: config.clone(),
        }
    }

    /// One full pass: RX (handoffs, then own queue), ARP and TCP timers,
    /// TCP flush, TX burst — each behind its O(1) guard (module doc).
    /// Returns the work-item count for the scheduler's activity gate;
    /// handed-off frames count here (their arrival moved no stack counter,
    /// but a caller parked on the delivered data must wake).
    ///
    /// `every_stage` overrides every guard: the run-everything reference
    /// the guarded pass is compared against (`tests/sharding.rs`).
    pub(super) fn poll_pass(&mut self, every_stage: bool) -> usize {
        crate::counters::note_poll_pass();
        let before = self.stats.rx_frames + self.stats.tx_frames + self.stats.unreachable_drops;
        let handoffs_before = self.shard_stats.handoffs_in;
        let offload_before = self.shard_stats.offload_events_applied;
        // One clock read per pass: every stage and per-frame handler below
        // receives this timestamp.
        let now = self.clock.now();
        // Sync events queued by the device since the last pass must reach
        // the control blocks before any frame (handed off or fresh) is
        // dispatched — delivered fallback frames assume the host already
        // absorbed the flushed bytes that precede them.
        self.drain_offload_events(now);
        let rx = every_stage
            || self.tenancy.is_some()
            || self.offload.is_some()
            || !self.handoff.is_empty()
            || self.port.rx_ready(self.queue);
        let backlog = self.stage(rx, |s| s.rx_pass(now));
        let arp = every_stage || self.arp.due(now);
        self.stage(arp, |s| {
            let actions = s.arp.poll(now);
            s.run_arp_actions(actions);
            0
        });
        let tick = every_stage || self.tcp.tick_needed(now);
        let timer_events = self.stage(tick, |s| s.tcp.on_tick(now));
        self.shard_stats.timer_events += timer_events as u64;
        let flush = every_stage || self.tcp.has_output();
        self.stage(flush, |s| {
            s.flush_tcp();
            0
        });
        // Flows that completed host-side work this pass (reply ACKed,
        // queues drained) are quiescent now: hand them to the device.
        self.rearm_offload();
        // The flush runs before the work snapshot: DRR-admitted tenant
        // frames count `tx_frames` at admission, inside `flush_tx`.
        let tx = every_stage || self.tenancy.is_some() || !self.tx_ring.is_empty();
        let tx_backlog = self.stage(tx, Self::flush_tx);
        let after = self.stats.rx_frames + self.stats.tx_frames + self.stats.unreachable_drops;
        let handoffs = (self.shard_stats.handoffs_in - handoffs_before) as usize;
        let offload_events = (self.shard_stats.offload_events_applied - offload_before) as usize;
        (after - before) as usize + handoffs + timer_events + backlog + offload_events + tx_backlog
    }

    /// Runs one stage of the pass if its guard found work for it. A stage
    /// whose guard said "idle" is skipped — except under `debug_assertions`,
    /// where it runs anyway and must have been a no-op: it reported no work
    /// and moved nothing in [`Shard::witness`]. Every debug test run is thus
    /// the differential test of every guard; release builds take the skip.
    fn stage(&mut self, ready: bool, body: impl FnOnce(&mut Self) -> usize) -> usize {
        if ready {
            crate::counters::note_poll_stage_run();
            return body(self);
        }
        if cfg!(debug_assertions) {
            let (before, work) = (self.witness(), body(self));
            assert_eq!((work, self.witness()), (0, before), "a guard skipped work");
        }
        0
    }

    /// What a stage with nothing to do must leave as it found it. TCP's
    /// `next_deadline()` discards abandoned wheel entries as it looks, so
    /// the witness reads what feeds it: ARP's deadline and the thread's TCP
    /// counters (a timer scheduled, fired or discarded, a wheel slot
    /// visited, a queue box compacted, a demux lookup each move one).
    fn witness(&self) -> impl PartialEq + std::fmt::Debug {
        use crate::counters::{conn_snapshot, shard_snapshot};
        let timers = (self.arp.next_deadline(), shard_snapshot(), conn_snapshot());
        let device = (self.port.stats(), self.tx_ring.len());
        (self.stats, self.shard_stats, device, timers)
    }

    /// Drains up to `rx_budget` frames — handoffs from other shards first,
    /// then this shard's device queue. Returns the backlog still pending
    /// afterwards — remaining work the caller reports so the scheduler's
    /// activity gate keeps seeing progress under a flood without this
    /// pass starving timers or the other pollers.
    fn rx_pass(&mut self, now: SimTime) -> usize {
        let budget = self.config.rx_budget;
        if let Some(ten) = &mut self.tenancy {
            ten.rx_open();
        }
        let mut processed = 0;
        while processed < budget {
            let Some(mbuf) = self.handoff.pop_front() else {
                break;
            };
            processed += 1;
            self.shard_stats.handoffs_in += 1;
            // Already steered here by the owning check — dispatch directly.
            self.dispatch_frame(mbuf, now);
        }
        let mut burst = std::mem::take(&mut self.rx_scratch);
        let pending = self
            .port
            .rx_burst_into(self.queue, budget - processed, &mut burst);
        // Pulling from the device pumps its RX pipeline, which may have
        // absorbed or served frames on the NIC: apply the sync events
        // *before* dispatching the frames it did deliver.
        self.drain_offload_events(now);
        processed += burst.len();
        for mbuf in burst.drain(..) {
            self.stats.rx_frames += 1;
            self.shard_stats.rx_frames += 1;
            self.handle_frame(mbuf, now);
        }
        self.rx_scratch = burst;
        let backlog = self.handoff.len() + pending;
        if processed >= budget && backlog > 0 {
            crate::counters::note_rx_budget_exhausted();
        }
        backlog
    }

    /// Routes one message drained from a ring. Frames were already steered
    /// here by the sender's ownership check, so they join the handoff queue
    /// for direct dispatch; ARP bindings are learned (never re-broadcast —
    /// the origin shard did that).
    pub(super) fn on_shard_msg(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Frame(bytes) => {
                self.push_handoff(Mbuf::from_data(DemiBuffer::from_slice(&bytes)));
            }
            ShardMsg::ArpLearn(ip, mac) => {
                self.arp_learn(ip, mac);
            }
        }
    }

    /// Enqueues a handed-off frame, dropping (counted) at capacity: the
    /// handoff queue is the bounded landing zone for the exception path,
    /// not an elastic buffer.
    fn push_handoff(&mut self, mbuf: Mbuf) {
        if self.handoff.len() >= self.config.handoff_capacity {
            self.shard_stats.handoff_backpressure += 1;
            self.shard_stats.handoff_dropped += 1;
            return;
        }
        self.handoff.push_back(mbuf);
    }

    /// First touch of a frame pulled from this shard's own queue: check it
    /// actually belongs here (a SmartNIC steering program can override the
    /// RSS hash; a shard world's device sees every flow of its host),
    /// forwarding strays to their owner. Only flows have an owner;
    /// flowless frames (ARP) are broadcast-scope — whichever shard gets
    /// one answers it locally and shares what it learned over the rings.
    fn handle_frame(&mut self, mbuf: Mbuf, now: SimTime) {
        let (index, total) = self.mesh;
        if total > 1 {
            let owner = rss::flow_queue_for_frame(mbuf.as_slice(), total);
            if let Some(owner) = owner.filter(|&o| o != index) {
                self.shard_stats.steering_mismatches += 1;
                let frame = ShardMsg::Frame(mbuf.as_slice().to_vec());
                self.staged.push((owner as usize, frame));
                return;
            }
        }
        self.dispatch_frame(mbuf, now);
    }

    fn dispatch_frame(&mut self, mbuf: Mbuf, now: SimTime) {
        let ethertype = match EthHeader::parse(mbuf.as_slice()) {
            Ok((eth, _)) => eth.ethertype,
            Err(_) => {
                self.stats.malformed += 1;
                return;
            }
        };
        match ethertype {
            EtherType::Arp => self.handle_arp(&mbuf.as_slice()[ETH_HEADER_LEN..], now),
            EtherType::Ipv4 => self.handle_ipv4(mbuf, now),
            EtherType::Other(_) => self.stats.not_for_us += 1,
        }
    }

    fn handle_arp(&mut self, payload: &[u8], now: SimTime) {
        let Ok(pkt) = ArpPacket::parse(payload) else {
            self.stats.malformed += 1;
            return;
        };
        // Opportunistically learn the sender's binding either way.
        let actions = self.arp.insert(pkt.sender_ip, pkt.sender_mac, now);
        self.run_arp_actions(actions);
        // An ARP reply is RSS-steered by source MAC, not by the flow that
        // asked — the shard waiting on it may be another one.
        let (index, total) = self.mesh;
        for peer in (0..total).filter(|&p| p != index) {
            let learn = ShardMsg::ArpLearn(pkt.sender_ip, pkt.sender_mac);
            self.staged.push((peer as usize, learn));
        }
        if pkt.op == ArpOp::Request && pkt.target_ip == self.config.ip {
            let reply = ArpPacket {
                op: ArpOp::Reply,
                sender_mac: self.port.mac(),
                sender_ip: self.config.ip,
                target_mac: pkt.sender_mac,
                target_ip: pkt.sender_ip,
            };
            self.stats.arp_replies += 1;
            let buf = self.control_buffer(&reply.serialize());
            self.tx_frame(pkt.sender_mac, EtherType::Arp, buf);
        }
    }

    /// Learns an ARP binding discovered by another shard; flushes anything
    /// this shard had queued on that resolution. Returns the work done
    /// (frames sent plus unreachable drops), for the activity gate.
    fn arp_learn(&mut self, ip: Ipv4Addr, mac: MacAddress) -> usize {
        let now = self.clock.now();
        let before = self.stats.tx_frames + self.stats.unreachable_drops;
        let actions = self.arp.insert(ip, mac, now);
        self.run_arp_actions(actions);
        self.flush_tx();
        (self.stats.tx_frames + self.stats.unreachable_drops - before) as usize
    }

    fn handle_ipv4(&mut self, mbuf: Mbuf, now: SimTime) {
        // Scalars first, so the borrow of the frame ends before we carve
        // zero-copy views out of (and possibly drop) the mbuf.
        let (src, protocol, ip_payload_off, ip_payload_len) = {
            let frame = mbuf.as_slice();
            let ip_bytes = &frame[ETH_HEADER_LEN..];
            let Ok((ip, payload)) = Ipv4Header::parse(ip_bytes) else {
                self.stats.malformed += 1;
                return;
            };
            if ip.dst != self.config.ip {
                self.stats.not_for_us += 1;
                return;
            }
            // `payload` is `frame`'s bytes past the IP header and its options.
            let ip_payload_off = payload.as_ptr() as usize - frame.as_ptr() as usize;
            (ip.src, ip.protocol, ip_payload_off, payload.len())
        };
        // RX budget policing happens here — after demux scalars are known
        // (the destination port names the owning tenant) but before any
        // protocol work is spent on the frame. Both arrival paths (own
        // queue and handoff) funnel through this point exactly once.
        if let Some(ten) = &mut self.tenancy {
            if !ten.rx_admit(protocol, &mbuf.as_slice()[ip_payload_off..]) {
                return;
            }
        }
        match protocol {
            IpProtocol::Icmp => {
                let view = mbuf
                    .data
                    .slice(ip_payload_off, ip_payload_off + ip_payload_len);
                // Drop the full-frame handle: an echo reply can then rewrite
                // the received buffer's headers in place and send it back.
                drop(mbuf);
                self.handle_icmp(src, view);
            }
            IpProtocol::Udp => {
                let payload = &mbuf.as_slice()[ip_payload_off..][..ip_payload_len];
                let Ok((udp, payload_len)) = UdpHeader::parse(src, self.config.ip, payload) else {
                    self.stats.malformed += 1;
                    return;
                };
                let start = ip_payload_off + UDP_HEADER_LEN;
                let view = mbuf.data.slice(start, start + payload_len);
                let from = SocketAddr::new(src, udp.src_port);
                self.udp.deliver(from, udp.dst_port, view);
            }
            IpProtocol::Tcp => {
                let payload = &mbuf.as_slice()[ip_payload_off..][..ip_payload_len];
                let Ok((tcp, data_off)) =
                    crate::tcp::TcpHeader::parse(src, self.config.ip, payload)
                else {
                    self.stats.malformed += 1;
                    return;
                };
                let start = ip_payload_off + data_off;
                let end = ip_payload_off + ip_payload_len;
                let view = mbuf.data.slice(start, end);
                self.tcp.on_segment(src, &tcp, view, now);
            }
            IpProtocol::Other(_) => self.stats.not_for_us += 1,
        }
    }

    fn handle_icmp(&mut self, src: Ipv4Addr, packet: DemiBuffer) {
        let Ok(echo) = IcmpEcho::parse(&packet) else {
            self.stats.malformed += 1;
            return;
        };
        if echo.is_request {
            self.stats.icmp_replies += 1;
            // Release our view of the request packet; `echo.payload` is the
            // only surviving handle, so `into_packet` can reuse the RX
            // buffer for the reply (its trimmed headers are exactly the
            // headroom the reply needs).
            drop(packet);
            let reply = echo.reply().into_packet(IPV4_HEADER_LEN + ETH_HEADER_LEN);
            self.send_ip(src, IpProtocol::Icmp, reply);
        } else if self.pongs.len() >= PONG_QUEUE_CAP {
            self.stats.pongs_dropped += 1;
        } else {
            self.pongs.push_back((src, echo.ident, echo.seq));
        }
    }

    /// Earliest timer deadline: ARP retry, TCP, a paced tenant lane.
    pub(super) fn next_deadline(&mut self) -> Option<SimTime> {
        let paced = self
            .tenancy
            .as_ref()
            .and_then(|ten| ten.next_deadline(&self.clock));
        [self.arp.next_deadline(), self.tcp.next_deadline(), paced]
            .into_iter()
            .flatten()
            .min()
    }

    /// Offload hook: applies the device's queued sync events.
    pub(super) fn drain_offload_events(&mut self, now: SimTime) {
        if let Some(off) = &mut self.offload {
            self.shard_stats.offload_events_applied += off.drain_events(&mut self.tcp, now) as u64;
        }
    }

    /// Offload hook: takes `conn` back from the device before a host-side
    /// mutation (send, close, abort).
    pub(super) fn offload_release_conn(&mut self, conn: ConnId) {
        if let Some(off) = &mut self.offload {
            let now = self.clock.now();
            self.shard_stats.offload_events_applied +=
                off.release_conn(&mut self.tcp, conn, now) as u64;
        }
    }

    /// Offload hook: hands quiescent connections to the device.
    pub(super) fn rearm_offload(&mut self) {
        if let Some(off) = &mut self.offload {
            self.shard_stats.offload_rearms += off.rearm(&self.tcp) as u64;
        }
    }

    pub(super) fn flush_tcp(&mut self) {
        let mut out = std::mem::take(&mut self.tcp_out);
        self.tcp.drain_segments(&mut out);
        for (dst_ip, seg) in out.drain(..) {
            // The retransmission queue keeps clones *at the same offset*, so
            // prepending below them is legal (a gathered segment is built
            // with this headroom). A previous transmission of this very
            // segment still in flight holds a view *below* and forces a
            // (counted) copy instead of corrupting it, as does a lone
            // view of a buffer the application still shares lower down.
            let mut segment = if seg.payload.can_prepend(MAX_HEADER_LEN) {
                seg.payload
            } else {
                seg.payload.copy_with_headroom(MAX_HEADER_LEN)
            };
            let src_ip = self.config.ip;
            seg.header
                .prepend_onto(src_ip, dst_ip, &mut segment)
                .expect("headroom ensured above");
            self.send_ip(dst_ip, IpProtocol::Tcp, segment);
        }
        self.tcp_out = out;
        // Ephemeral ports freed by expired TIME_WAIT records (or aborted
        // connections) go back to the host-wide namespace here, after the
        // final segments of those connections are on the wire. Transient
        // tenant grants (made at connect time) are revoked in the same
        // breath, so a recycled port arrives unowned.
        while let Some(p) = self.tcp.pop_released_port() {
            if let Some(ten) = &self.tenancy {
                ten.revoke_port(p);
            }
            self.ports.release(p);
        }
    }

    /// Prepends an IPv4 header onto `packet` in place and resolves the next
    /// hop, queueing the buffer handle on ARP misses.
    pub(super) fn send_ip(&mut self, dst: Ipv4Addr, protocol: IpProtocol, packet: DemiBuffer) {
        debug_assert!(
            IPV4_HEADER_LEN + packet.len() <= self.config.mtu,
            "IP packet exceeds MTU"
        );
        let header = Ipv4Header {
            src: self.config.ip,
            dst,
            protocol,
            payload_len: packet.len(),
        };
        let mut packet = if packet.can_prepend(IPV4_HEADER_LEN + ETH_HEADER_LEN) {
            packet
        } else {
            packet.copy_with_headroom(IPV4_HEADER_LEN + ETH_HEADER_LEN)
        };
        header
            .prepend_onto(&mut packet)
            .expect("headroom ensured above");
        let now = self.clock.now();
        match self.arp.lookup(dst, now) {
            Some(mac) => self.tx_frame(mac, EtherType::Ipv4, packet),
            None => {
                let actions = self.arp.enqueue_pending(dst, packet, now);
                self.run_arp_actions(actions);
            }
        }
    }

    fn run_arp_actions(&mut self, actions: Vec<ArpAction>) {
        for action in actions {
            match action {
                ArpAction::SendPending(mac, packet) => {
                    self.tx_frame(mac, EtherType::Ipv4, packet);
                }
                ArpAction::SendRequest(ip) => {
                    self.stats.arp_requests += 1;
                    let request = ArpPacket {
                        op: ArpOp::Request,
                        sender_mac: self.port.mac(),
                        sender_ip: self.config.ip,
                        target_mac: MacAddress::new([0; 6]),
                        target_ip: ip,
                    };
                    let buf = self.control_buffer(&request.serialize());
                    self.tx_frame(MacAddress::BROADCAST, EtherType::Arp, buf);
                }
                ArpAction::FailPending(_) => {
                    self.stats.unreachable_drops += 1;
                }
            }
        }
    }

    /// Allocates a pool buffer holding `bytes` with Ethernet headroom, for
    /// small control packets (ARP) the stack originates itself.
    fn control_buffer(&self, bytes: &[u8]) -> DemiBuffer {
        debug_assert_eq!(bytes.len(), ARP_LEN);
        let mut buf = self
            .port
            .mempool()
            .alloc_buffer_with_headroom(ETH_HEADER_LEN, bytes.len());
        buf.try_mut()
            .expect("freshly allocated buffer is exclusive")
            .copy_from_slice(bytes);
        buf
    }

    /// Prepends the Ethernet header in place and enqueues the same buffer
    /// on the TX coalescing ring — the zero-copy tail of every TX path.
    fn tx_frame(&mut self, dst: MacAddress, ethertype: EtherType, payload: DemiBuffer) {
        let eth = EthHeader {
            dst,
            src: self.port.mac(),
            ethertype,
        };
        let mut frame = if payload.can_prepend(ETH_HEADER_LEN) {
            payload
        } else {
            payload.copy_with_headroom(ETH_HEADER_LEN)
        };
        eth.prepend_onto(&mut frame)
            .expect("headroom ensured above");
        // Under tenancy a tenant's frame parks in that tenant's own
        // bounded staging lane until `flush_tx` admits it; HOST frames
        // (and every frame of a single-tenant stack) go straight to the
        // shared ring.
        if let Some(ten) = &mut self.tenancy {
            let Some(host_frame) = ten.stage(frame) else {
                return;
            };
            frame = host_frame;
        }
        self.stats.tx_frames += 1;
        self.tx_ring.push(Mbuf::from_data(frame));
        if demi_telemetry::enabled() {
            self.tx_stamps.push(demi_telemetry::now_ns());
        }
    }

    /// Hands the whole TX ring to the device in one burst, preserving
    /// enqueue order. Runs at the end of every poll pass — and every
    /// blocking wait pumps the pollers before advancing virtual time, so
    /// coalescing never holds a frame across a wait: latency is not traded
    /// for throughput. Tenant staging lanes are admitted onto the ring
    /// first; the returned count is their budget-capped leftover (poll
    /// backlog), zero without tenancy.
    fn flush_tx(&mut self) -> usize {
        let leftover = match &mut self.tenancy {
            Some(ten) => {
                let telemetry = demi_telemetry::enabled();
                ten.drr_fill(&self.clock, self.config.mtu, |mbuf| {
                    self.stats.tx_frames += 1;
                    self.tx_ring.push(mbuf);
                    if telemetry {
                        self.tx_stamps.push(demi_telemetry::now_ns());
                    }
                })
            }
            None => 0,
        };
        if self.tx_ring.is_empty() {
            self.tx_stamps.clear();
            return leftover;
        }
        self.port.tx_burst(&self.tx_ring);
        // One sample per stamped frame. Telemetry toggled mid-ring leaves
        // fewer stamps than frames; those samples are simply dropped.
        if !self.tx_stamps.is_empty() && self.tx_stamps.len() == self.tx_ring.len() {
            let now = demi_telemetry::now_ns();
            for &enqueued_ns in &self.tx_stamps {
                demi_telemetry::stage::record(
                    demi_telemetry::stage::Stage::TxFlush,
                    now.saturating_sub(enqueued_ns),
                );
            }
        }
        self.tx_stamps.clear();
        self.tx_ring.clear();
        leftover
    }
}

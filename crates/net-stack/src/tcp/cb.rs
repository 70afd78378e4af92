//! The TCP control block: a pure protocol machine.
//!
//! A [`ControlBlock`] has no I/O of its own. Segments arrive via
//! [`ControlBlock::on_segment`], timers fire via [`ControlBlock::on_tick`],
//! and everything the machine wants transmitted accumulates in an outbox
//! drained with [`ControlBlock::drain_outbox_into`]. This keeps the whole
//! state machine unit-testable by wiring two control blocks back to back
//! (see the tests at the bottom), independent of devices and fabrics.
//!
//! At connection scale the block's *memory shape* matters as much as its
//! protocol behavior: all four stream queues (send, retransmission,
//! out-of-order, ready) plus the outbox live behind one lazily allocated
//! [`CbQueues`] box. A parked established connection that has drained its
//! queues owns **zero heap** beyond its slab slot — the peer releases the
//! box after the peer's `COMPACT_DELAY` of quiet — while an
//! active connection keeps the box (and every queue's grown capacity)
//! across operations, so the steady-state datapath never allocates.

use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

use demi_memory::{BufChain, DemiBuffer, MAX_LINKS};
use dpdk_sim::{FlowShadow, OffloadEvent};
use sim_fabric::SimTime;

use crate::stack::MAX_HEADER_LEN;
use crate::types::{NetError, SocketAddr};

use super::congestion::NewReno;
use super::header::{TcpFlags, TcpHeader};
use super::rto::RttEstimator;
use super::seq::SeqNum;
use super::{TcpConfig, MSL, RTO_MIN};

/// Delayed-ACK timer (RFC 1122 §4.2.3.2): in-order data is acked every
/// second segment, or this long after a lone segment if the second never
/// arrives; outgoing data piggybacks any pending ACK. Chosen.
const ACK_DELAY: SimTime = SimTime::from_micros(50);
// Coalescing must never masquerade as loss and trigger a spurious
// retransmission.
const _: () = assert!(ACK_DELAY.as_nanos() < RTO_MIN.as_nanos());
/// Zero-window probe interval. Chosen.
const PERSIST_INTERVAL: SimTime = SimTime::from_millis(1);

/// Connection states (RFC 793 §3.2; LISTEN lives in the peer's listener).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Active open: SYN sent, awaiting SYN-ACK.
    SynSent,
    /// Passive open: SYN-ACK sent, awaiting ACK.
    SynReceived,
    /// Data may flow both ways.
    Established,
    /// We closed first; FIN sent, awaiting its ACK.
    FinWait1,
    /// Our FIN is acked; awaiting the peer's FIN.
    FinWait2,
    /// Both sides closed simultaneously; awaiting ACK of our FIN.
    Closing,
    /// Both FINs exchanged; draining old segments for 2·MSL.
    TimeWait,
    /// Peer closed first; we may still send.
    CloseWait,
    /// We closed after the peer; FIN sent, awaiting its ACK.
    LastAck,
    /// Fully closed (or reset).
    Closed,
}

/// A segment the control block wants transmitted.
#[derive(Debug, Clone)]
pub struct TcpSegmentOut {
    /// Transport header (ports filled from the connection's 4-tuple).
    pub header: TcpHeader,
    /// Zero-copy payload: a chain of views of what the application pushed
    /// (and of copy-pool gathers of its small pieces).
    pub payload: BufChain,
}

/// The segment size a peer's MSS option allows. A zero option would make
/// every segment empty, and the output loop would never drain its queue.
fn usable_mss(option: u16) -> usize {
    usize::from(option.max(1))
}

/// A sent-but-unacked segment kept for retransmission.
#[derive(Debug, Clone)]
struct TxSeg {
    seq: SeqNum,
    data: BufChain,
    syn: bool,
    fin: bool,
    tx_time: SimTime,
    retransmitted: bool,
}

impl TxSeg {
    /// Sequence-space length (payload bytes plus SYN/FIN flags).
    fn seq_len(&self) -> u32 {
        self.data.len() as u32 + self.syn as u32 + self.fin as u32
    }
}

/// Per-connection counters, used by experiments and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CbStats {
    /// Data segments transmitted (first transmissions).
    pub segments_sent: u64,
    /// Segments retransmitted (timeout or fast retransmit).
    pub retransmissions: u64,
    /// Fast retransmits triggered by three duplicate ACKs.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Segments received with in-order payload.
    pub in_order_segments: u64,
    /// Segments buffered out of order.
    pub out_of_order_segments: u64,
    /// Pure ACKs sent.
    pub acks_sent: u64,
    /// Pure-ACK frames avoided by delayed-ACK coalescing: in-order
    /// segments whose acknowledgment rode on another segment instead of
    /// costing its own frame.
    pub acks_coalesced: u64,
    /// Zero-window probes sent.
    pub persist_probes: u64,
}

/// Every per-connection queue, boxed together and allocated on first use.
/// An idle established connection (nothing queued in any direction) has no
/// `CbQueues` at all — 8 bytes of `Option<Box>` instead of five container
/// headers plus their grown capacities.
#[derive(Default)]
struct CbQueues {
    /// App data queued locally but not yet transmitted.
    send_queue: VecDeque<DemiBuffer>,
    /// Sent-but-unacked segments, oldest first.
    retx: VecDeque<TxSeg>,
    /// Out-of-order segments keyed by offset from the initial receive
    /// sequence number.
    ooo: BTreeMap<u32, DemiBuffer>,
    /// In-order data awaiting the application.
    ready: VecDeque<DemiBuffer>,
    /// Segments awaiting transmission by the peer.
    outbox: Vec<TcpSegmentOut>,
}

impl CbQueues {
    /// Whether every queue is empty (the box is releasable).
    fn drained(&self) -> bool {
        self.send_queue.is_empty()
            && self.retx.is_empty()
            && self.ooo.is_empty()
            && self.ready.is_empty()
            && self.outbox.is_empty()
    }

    /// Real heap footprint: the box itself plus every queue's capacity.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<CbQueues>()
            + self.send_queue.capacity() * std::mem::size_of::<DemiBuffer>()
            + self.retx.capacity() * std::mem::size_of::<TxSeg>()
            + self.ready.capacity() * std::mem::size_of::<DemiBuffer>()
            + self.outbox.capacity() * std::mem::size_of::<TcpSegmentOut>()
            // BTreeMap has no capacity API; charge an estimated node size
            // per live entry.
            + self.ooo.len() * (std::mem::size_of::<(u32, DemiBuffer)>() + 32)
    }
}

/// The TCP connection state machine.
pub(crate) struct ControlBlock {
    local: SocketAddr,
    remote: SocketAddr,
    state: State,
    config: TcpConfig,
    mss: usize,

    // Sender.
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    snd_wnd: usize,
    send_queue_bytes: usize,
    cc: NewReno,
    rtt: RttEstimator,
    rto_deadline: Option<SimTime>,
    persist_deadline: Option<SimTime>,
    dup_acks: u32,
    recover: SeqNum,
    fin_pending: bool,
    fin_seq: Option<SeqNum>,
    fin_acked: bool,
    /// Whether the send queue's front is the rest of a piece a segment
    /// boundary split off a link, so it stays a link however short.
    front_link: bool,
    handshake_retries_left: u32,

    // Receiver.
    irs: SeqNum,
    rcv_nxt: SeqNum,
    ooo_bytes: usize,
    ready_bytes: usize,
    fin_received: bool,
    last_advertised_window: usize,
    /// Delayed-ACK state (RFC 1122 §4.2.3.2): set when one in-order
    /// segment awaits acknowledgment. A second in-order segment, any
    /// outgoing ACK-bearing frame, or the `delayed_ack_deadline` timer
    /// resolves it.
    delayed_ack_pending: bool,
    delayed_ack_deadline: Option<SimTime>,

    // Lifecycle.
    timewait_deadline: Option<SimTime>,
    error: Option<NetError>,
    /// All stream queues, allocated on first use and released by the peer
    /// after sustained quiet (see module docs).
    q: Option<Box<CbQueues>>,
    /// Virtual time of the last protocol event (segment, send, fired
    /// timer). The peer's queue compactor releases `q` only when `now -
    /// last_activity` exceeds the compaction delay, so a momentary lull
    /// between back-to-back operations never drops warmed capacity.
    last_activity: SimTime,
    /// Whether the peer's compaction queue already tracks this block.
    compact_enrolled: bool,
    stats: CbStats,
}

impl ControlBlock {
    /// Starts an active open: emits a SYN and enters `SynSent`.
    pub(crate) fn connect(
        local: SocketAddr,
        remote: SocketAddr,
        iss: SeqNum,
        now: SimTime,
        config: TcpConfig,
    ) -> Self {
        let mut cb = Self::blank(local, remote, iss, config);
        cb.state = State::SynSent;
        cb.last_activity = now;
        cb.push_handshake_segment(true, false, now);
        cb
    }

    /// Builds a block directly in `Established`, for handshakes completed
    /// from a listener's SYN table: the SYN-ACK (sequence `iss`) was sent
    /// without a control block, and the completing ACK is about to be fed
    /// through [`ControlBlock::on_segment`] (which applies its window and
    /// any piggybacked payload exactly as `complete_passive_open` did).
    pub(crate) fn established(
        local: SocketAddr,
        remote: SocketAddr,
        iss: SeqNum,
        irs: SeqNum,
        peer_mss: Option<u16>,
        now: SimTime,
        config: TcpConfig,
    ) -> Self {
        let mut cb = Self::blank(local, remote, iss + 1, config);
        cb.state = State::Established;
        cb.irs = irs;
        cb.rcv_nxt = irs + 1;
        if let Some(peer_mss) = peer_mss {
            cb.mss = cb.mss.min(usable_mss(peer_mss));
        }
        cb.last_activity = now;
        cb
    }

    fn blank(local: SocketAddr, remote: SocketAddr, iss: SeqNum, config: TcpConfig) -> Self {
        ControlBlock {
            local,
            remote,
            state: State::Closed,
            mss: config.mss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: config.mss, // Until the first window arrives.
            send_queue_bytes: 0,
            cc: NewReno::new(config.mss),
            rtt: RttEstimator::new(),
            rto_deadline: None,
            persist_deadline: None,
            dup_acks: 0,
            recover: iss,
            fin_pending: false,
            fin_seq: None,
            fin_acked: false,
            front_link: false,
            handshake_retries_left: config.syn_retries,
            irs: SeqNum(0),
            rcv_nxt: SeqNum(0),
            ooo_bytes: 0,
            ready_bytes: 0,
            fin_received: false,
            last_advertised_window: config.recv_capacity.min(65_535),
            delayed_ack_pending: false,
            delayed_ack_deadline: None,
            timewait_deadline: None,
            error: None,
            q: None,
            last_activity: SimTime::ZERO,
            compact_enrolled: false,
            stats: CbStats::default(),
            config,
        }
    }

    // ------------------------------------------------------------------
    // Queue access.
    // ------------------------------------------------------------------

    /// The queue box, allocating (and counting the allocation) on first
    /// use.
    #[inline]
    fn q(&mut self) -> &mut CbQueues {
        self.q.get_or_insert_with(|| {
            crate::counters::note_tcb_queues_allocated();
            Box::default()
        })
    }

    /// Read-only view of the queue box, if allocated.
    #[inline]
    fn qr(&self) -> Option<&CbQueues> {
        self.q.as_deref()
    }

    #[inline]
    fn retx_is_empty(&self) -> bool {
        self.qr().is_none_or(|q| q.retx.is_empty())
    }

    #[inline]
    fn send_queue_is_empty(&self) -> bool {
        self.qr().is_none_or(|q| q.send_queue.is_empty())
    }

    /// Whether the queue box exists but every queue is empty — the block
    /// is a candidate for compaction.
    pub(crate) fn queues_idle(&self) -> bool {
        self.qr().is_some_and(|q| q.drained())
    }

    /// Releases the (drained) queue box, returning the heap bytes freed.
    /// No-op unless [`ControlBlock::queues_idle`].
    pub(crate) fn release_queues(&mut self) -> usize {
        if !self.queues_idle() {
            return 0;
        }
        let freed = self.qr().map_or(0, CbQueues::heap_bytes);
        self.q = None;
        crate::counters::note_tcb_queues_released();
        freed
    }

    /// Heap owned by this block beyond its own struct: the queue box and
    /// every queue's grown capacity. The slab adds `size_of::<SlabEntry>`
    /// on top; together they are the real `bytes_per_conn`.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.qr().map_or(0, CbQueues::heap_bytes)
    }

    /// Virtual time of the last protocol event on this block.
    pub(crate) fn last_active(&self) -> SimTime {
        self.last_activity
    }

    pub(crate) fn compact_enrolled(&self) -> bool {
        self.compact_enrolled
    }

    pub(crate) fn set_compact_enrolled(&mut self, enrolled: bool) {
        self.compact_enrolled = enrolled;
    }

    /// Feeds one RTT sample (the peer samples the SYN-ACK round trip for
    /// handshakes completed from a SYN table, where no retransmission
    /// entry carries the transmit time).
    pub(crate) fn sample_rtt(&mut self, rtt: SimTime) {
        self.rtt.sample(rtt);
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Current connection state.
    pub(crate) fn state(&self) -> State {
        self.state
    }

    /// Terminal error (RST received, handshake timeout), if any.
    pub(crate) fn error(&self) -> Option<&NetError> {
        self.error.as_ref()
    }

    /// The local endpoint.
    pub(crate) fn local(&self) -> SocketAddr {
        self.local
    }

    /// The remote endpoint.
    pub(crate) fn remote(&self) -> SocketAddr {
        self.remote
    }

    /// Connection counters.
    pub(crate) fn stats(&self) -> CbStats {
        self.stats
    }

    /// Appends every queued segment, tagged with `dst`, onto `out` —
    /// leaving the outbox empty but its capacity in place.
    pub(crate) fn drain_outbox_into(
        &mut self,
        dst: Ipv4Addr,
        out: &mut Vec<(Ipv4Addr, TcpSegmentOut)>,
    ) {
        if let Some(q) = self.q.as_mut() {
            for seg in q.outbox.drain(..) {
                out.push((dst, seg));
            }
        }
    }

    /// Whether received data (or an EOF) is available to the application.
    pub(crate) fn is_readable(&self) -> bool {
        self.qr().is_some_and(|q| !q.ready.is_empty()) || self.fin_received || self.error.is_some()
    }

    /// Bytes in flight (transmitted, unacked), in sequence space.
    pub(crate) fn flight_size(&self) -> usize {
        self.snd_nxt.since(self.snd_una) as usize
    }

    /// The receive window currently advertisable.
    fn recv_window(&self) -> usize {
        self.config
            .recv_capacity
            .saturating_sub(self.ready_bytes + self.ooo_bytes)
            .min(65_535)
    }

    /// All four timer deadlines, indexed RTO / persist / TIME_WAIT /
    /// delayed-ACK — the peer's timing wheel diffs this array after every
    /// control-block touch to schedule or lazily cancel wheel entries.
    pub(crate) fn timer_deadlines(&self) -> [Option<SimTime>; 4] {
        [
            self.rto_deadline,
            self.persist_deadline,
            self.timewait_deadline,
            self.delayed_ack_deadline,
        ]
    }

    /// Whether segments are waiting in the outbox (drives the peer's
    /// active-output list, so flushing scales with active connections).
    pub(crate) fn has_outbox(&self) -> bool {
        self.qr().is_some_and(|q| !q.outbox.is_empty())
    }

    /// Whether the block can be demoted to a compact TIME_WAIT record:
    /// it reached `TimeWait` (so `fin_acked` holds and the send-side
    /// queues are provably empty) and the receive side plus outbox have
    /// fully drained. The record then fully determines the remaining wire
    /// behavior — re-ACK late FINs, die on RST, expire at 2·MSL.
    pub(crate) fn can_demote_timewait(&self) -> bool {
        self.state == State::TimeWait
            && self.error.is_none()
            && self.qr().is_none_or(CbQueues::drained)
    }

    /// The armed 2·MSL expiry, for TIME_WAIT demotion.
    pub(crate) fn timewait_expiry(&self) -> Option<SimTime> {
        self.timewait_deadline
    }

    /// The `(rcv_nxt, snd_nxt)` sequence shadow a compact TIME_WAIT record
    /// needs to reproduce this block's remaining wire behavior exactly.
    pub(crate) fn seq_shadow(&self) -> (u32, u32) {
        (self.rcv_nxt.0, self.snd_nxt.0)
    }

    // ------------------------------------------------------------------
    // Application interface.
    // ------------------------------------------------------------------

    /// Queues every buffer of one push, then runs the output engine once,
    /// so buffers that fit a segment together leave in it together. The
    /// state is checked before anything is queued: a failing push leaves
    /// none of its buffers on the stream.
    pub(crate) fn send_all(
        &mut self,
        bufs: impl IntoIterator<Item = DemiBuffer>,
        now: SimTime,
    ) -> Result<(), NetError> {
        let established = match self.state {
            State::Established | State::CloseWait => match &self.error {
                Some(err) => return Err(err.clone()),
                None => true,
            },
            // Queue until established (allowed by RFC 793).
            State::SynSent | State::SynReceived => false,
            State::Closed => return Err(self.error.clone().unwrap_or(NetError::NotConnected)),
            _ => return Err(NetError::Closed),
        };
        self.last_activity = now;
        for data in bufs.into_iter().filter(|b| !b.is_empty()) {
            self.send_queue_bytes += data.len();
            self.q().send_queue.push_back(data);
        }
        if established {
            self.output(now);
        }
        Ok(())
    }

    /// Pops received in-order data. `None` means nothing available (check
    /// [`ControlBlock::is_readable`] / EOF separately).
    pub(crate) fn recv(&mut self) -> Option<DemiBuffer> {
        let buf = self.pop_ready()?;
        self.update_window();
        Some(buf)
    }

    /// Pops every received in-order chunk onto `out`, growing it once.
    pub(crate) fn recv_all(&mut self, out: &mut Vec<DemiBuffer>) {
        out.reserve(self.qr().map_or(0, |q| q.ready.len()));
        out.extend(std::iter::from_fn(|| self.pop_ready()));
        self.update_window();
    }

    fn pop_ready(&mut self) -> Option<DemiBuffer> {
        let buf = self.q.as_mut()?.ready.pop_front()?;
        self.ready_bytes -= buf.len();
        Some(buf)
    }

    /// Sends a window update after a read, by Linux's `tcp_cleanup_rbuf`
    /// rule: the last advertised window was at most half the buffer and
    /// reading at least doubled it (and reopened one MSS, for a window
    /// that had collapsed). Without it the sender keeps splitting pushes
    /// at the stale window, or persist-probing an apparently-zero one.
    fn update_window(&mut self) {
        let last = self.last_advertised_window;
        if 2 * last <= self.config.recv_capacity.min(65_535)
            && self.recv_window() >= (2 * last).max(self.mss)
        {
            self.send_ack();
        }
    }

    /// Whether the peer has closed and all its data has been consumed.
    pub(crate) fn at_eof(&self) -> bool {
        self.fin_received
            && self
                .qr()
                .is_none_or(|q| q.ready.is_empty() && q.ooo.is_empty())
    }

    /// Initiates a local close. Queued data (and then a FIN) still drain.
    pub(crate) fn close(&mut self, now: SimTime) {
        match self.state {
            State::SynSent => {
                self.state = State::Closed;
                self.clear_timers();
            }
            State::SynReceived | State::Established => {
                self.state = State::FinWait1;
                self.fin_pending = true;
                self.last_activity = now;
                self.output(now);
            }
            State::CloseWait => {
                self.state = State::LastAck;
                self.fin_pending = true;
                self.last_activity = now;
                self.output(now);
            }
            _ => {}
        }
    }

    /// Hard reset: emits RST and closes immediately (abortive close).
    pub(crate) fn abort(&mut self) {
        if !matches!(self.state, State::Closed | State::TimeWait) {
            self.emit(TcpFlags::RST_ACK, self.snd_nxt, BufChain::new(), None);
        }
        self.state = State::Closed;
        self.error = Some(NetError::ConnectionReset);
        self.clear_timers();
    }

    // ------------------------------------------------------------------
    // Segment input.
    // ------------------------------------------------------------------

    /// Processes one received segment addressed to this connection.
    pub(crate) fn on_segment(&mut self, hdr: &TcpHeader, payload: BufChain, now: SimTime) {
        self.last_activity = now;
        if hdr.flags.rst {
            self.on_rst();
            return;
        }
        match self.state {
            State::Closed => {}
            State::SynSent => self.on_segment_syn_sent(hdr, now),
            State::TimeWait => {
                // Re-ACK a retransmitted FIN and restart the 2·MSL timer.
                if hdr.flags.fin {
                    self.send_ack();
                    self.timewait_deadline = Some(now.saturating_add(MSL.saturating_mul(2)));
                }
            }
            _ => {
                if self.state == State::SynReceived {
                    if hdr.flags.ack && hdr.ack == self.snd_nxt {
                        self.complete_passive_open(hdr, now);
                    } else if hdr.flags.syn {
                        // Retransmitted SYN: re-send the SYN-ACK.
                        self.retransmit_front(now);
                        return;
                    } else {
                        return;
                    }
                }
                if hdr.flags.ack {
                    self.process_ack(hdr, payload.len(), now);
                }
                self.process_data(hdr, payload, now);
                self.output(now);
            }
        }
    }

    fn on_rst(&mut self) {
        self.error = Some(if self.state == State::SynSent {
            NetError::ConnectionRefused
        } else {
            NetError::ConnectionReset
        });
        self.state = State::Closed;
        if let Some(q) = self.q.as_mut() {
            q.send_queue.clear();
            q.retx.clear();
        }
        self.send_queue_bytes = 0;
        self.front_link = false;
        self.clear_timers();
    }

    fn on_segment_syn_sent(&mut self, hdr: &TcpHeader, now: SimTime) {
        if hdr.flags.syn && hdr.flags.ack && hdr.ack == self.snd_nxt {
            self.irs = hdr.seq;
            self.rcv_nxt = hdr.seq + 1;
            self.snd_una = hdr.ack;
            self.snd_wnd = hdr.window as usize;
            if let Some(peer_mss) = hdr.mss {
                self.mss = self.mss.min(usable_mss(peer_mss));
            }
            // The SYN is acked; drop it from the retransmission queue.
            if let Some(q) = self.q.as_mut() {
                if let Some(front) = q.retx.front() {
                    if front.syn && !front.retransmitted {
                        let sample = now.saturating_since(front.tx_time);
                        self.rtt.sample(sample);
                    }
                }
                q.retx.pop_front();
            }
            self.rto_deadline = None;
            self.state = State::Established;
            self.send_ack();
            self.output(now);
        }
        // A bare SYN (simultaneous open) is out of scope; ignore it and let
        // retransmission sort the race out.
    }

    fn complete_passive_open(&mut self, hdr: &TcpHeader, now: SimTime) {
        self.snd_una = hdr.ack;
        self.snd_wnd = hdr.window as usize;
        if let Some(q) = self.q.as_mut() {
            if let Some(front) = q.retx.front() {
                if front.syn && !front.retransmitted {
                    let sample = now.saturating_since(front.tx_time);
                    self.rtt.sample(sample);
                }
            }
            q.retx.pop_front();
        }
        self.rto_deadline = None;
        self.state = State::Established;
    }

    fn process_ack(&mut self, hdr: &TcpHeader, payload_len: usize, now: SimTime) {
        let ack = hdr.ack;
        if ack.gt(self.snd_nxt) {
            // Acks data we never sent; re-assert our state.
            self.send_ack();
            return;
        }
        let prev_wnd = self.snd_wnd;
        if ack.ge(self.snd_una) {
            self.snd_wnd = hdr.window as usize;
            if self.snd_wnd > 0 {
                self.persist_deadline = None;
                if prev_wnd == 0 && !self.retx_is_empty() {
                    // The window reopened while a probe (or other data) was
                    // stranded in flight; resend it now rather than waiting
                    // for the (backed-off) RTO.
                    self.retransmit_front(now);
                }
            }
        }

        if ack.gt(self.snd_una) {
            let newly_acked = ack.since(self.snd_una) as usize;
            let flight_before = self.flight_size();
            let mut sampled = false;
            if let Some(q) = self.q.as_mut() {
                while let Some(front) = q.retx.front_mut() {
                    let end = front.seq + front.seq_len();
                    if end.le(ack) {
                        if !front.retransmitted && !sampled {
                            let sample = now.saturating_since(front.tx_time);
                            self.rtt.sample(sample);
                            sampled = true;
                        }
                        if front.fin {
                            self.fin_acked = true;
                        }
                        q.retx.pop_front();
                    } else if front.seq.lt(ack) {
                        // Partial ack of a segment: trim the acked prefix.
                        let consumed = ack.since(front.seq) as usize;
                        front.data.advance(consumed.min(front.data.len()));
                        front.seq = ack;
                        break;
                    } else {
                        break;
                    }
                }
            }
            self.snd_una = ack;

            if self.cc.in_recovery() {
                if ack.ge(self.recover) {
                    self.cc.on_recovery_complete();
                    self.dup_acks = 0;
                } else {
                    // NewReno partial ACK: retransmit the next hole.
                    self.retransmit_front(now);
                }
            } else {
                self.dup_acks = 0;
                self.cc.on_ack(newly_acked, flight_before);
            }

            self.rto_deadline = if self.retx_is_empty() {
                None
            } else {
                Some(now.saturating_add(self.rtt.rto()))
            };

            self.maybe_finish_close(now);
        } else if ack == self.snd_una
            && payload_len == 0
            && !hdr.flags.syn
            && !hdr.flags.fin
            && hdr.window as usize <= prev_wnd
            && !self.retx_is_empty()
        {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                self.recover = self.snd_nxt;
                self.stats.fast_retransmits += 1;
                self.cc.on_fast_retransmit(self.flight_size());
                self.retransmit_front(now);
                self.rto_deadline = Some(now.saturating_add(self.rtt.rto()));
            } else if self.dup_acks > 3 {
                self.cc.on_dup_ack_in_recovery();
            }
        }
    }

    /// State transitions that depend on our FIN being acknowledged.
    fn maybe_finish_close(&mut self, now: SimTime) {
        if !self.fin_acked {
            return;
        }
        match self.state {
            State::FinWait1 => {
                self.state = if self.fin_received {
                    self.enter_timewait(now);
                    State::TimeWait
                } else {
                    State::FinWait2
                };
            }
            State::Closing => {
                self.enter_timewait(now);
                self.state = State::TimeWait;
            }
            State::LastAck => {
                self.state = State::Closed;
                self.clear_timers();
            }
            _ => {}
        }
    }

    fn process_data(&mut self, hdr: &TcpHeader, mut payload: BufChain, now: SimTime) {
        let mut seg_seq = hdr.seq;
        let original_len = payload.len() as u32;
        let had_payload = !payload.is_empty();

        if had_payload {
            let seg_end = seg_seq + payload.len() as u32;
            if seg_end.le(self.rcv_nxt) {
                // Entirely old duplicate: re-ACK so the sender advances.
                self.send_ack();
            } else {
                if seg_seq.lt(self.rcv_nxt) {
                    // Trim the already-received prefix.
                    let skip = self.rcv_nxt.since(seg_seq) as usize;
                    payload.advance(skip);
                    seg_seq = self.rcv_nxt;
                }
                let window = self.recv_window();
                let len = payload.len();
                if seg_seq == self.rcv_nxt && len <= window {
                    self.stats.in_order_segments += 1;
                    let filled_hole = self.qr().is_some_and(|q| !q.ooo.is_empty());
                    self.rcv_nxt += len as u32;
                    self.ready_bytes += len;
                    self.q().ready.extend(payload);
                    self.drain_ooo();
                    if filled_hole {
                        // A reassembly hole just closed: ACK immediately
                        // (RFC 1122) — the sender is waiting on this
                        // cumulative ACK to exit loss recovery.
                        self.send_ack();
                    } else {
                        self.schedule_ack(now);
                    }
                } else {
                    if seg_seq.gt(self.rcv_nxt) && seg_seq.since(self.rcv_nxt) as usize <= window {
                        // Out of order, within the window: buffer each
                        // link for later, keyed by its own offset.
                        let mut key = seg_seq.since(self.irs);
                        let mut buffered = 0;
                        let q = self.q();
                        for link in payload {
                            let (at, len) = (key, link.len());
                            key += len as u32;
                            if let std::collections::btree_map::Entry::Vacant(slot) =
                                q.ooo.entry(at)
                            {
                                slot.insert(link);
                                buffered += len;
                            }
                        }
                        if buffered > 0 {
                            self.stats.out_of_order_segments += 1;
                            self.ooo_bytes += buffered;
                        }
                    }
                    // Out-of-order, overlapping, or window-overflow data is
                    // never delayed: the immediate ACK is what produces the
                    // duplicate-ACK train fast retransmit depends on.
                    self.send_ack();
                }
            }
        }

        if hdr.flags.fin {
            // The FIN occupies the sequence position right after the
            // segment's payload.
            let fin_seq = hdr.seq + original_len;
            if fin_seq == self.rcv_nxt && !self.fin_received {
                self.rcv_nxt += 1;
                self.fin_received = true;
                self.send_ack();
                match self.state {
                    State::Established => self.state = State::CloseWait,
                    State::FinWait1 => {
                        if self.fin_acked {
                            self.enter_timewait(now);
                            self.state = State::TimeWait;
                        } else {
                            self.state = State::Closing;
                        }
                    }
                    State::FinWait2 => {
                        self.enter_timewait(now);
                        self.state = State::TimeWait;
                    }
                    _ => {}
                }
            } else if self.fin_received {
                // Retransmitted FIN: re-ACK.
                self.send_ack();
            }
            // An out-of-order FIN (data still missing) is ignored; the peer
            // retransmits it after the hole fills.
        }
    }

    fn drain_ooo(&mut self) {
        let Some(q) = self.q.as_mut() else {
            return;
        };
        loop {
            let key = self.rcv_nxt.since(self.irs);
            // Stop at the first hole.
            let Some(first) = q.ooo.first_entry().filter(|e| *e.key() <= key) else {
                break;
            };
            let (k, mut buf) = first.remove_entry();
            self.ooo_bytes -= buf.len();
            let end = k + buf.len() as u32;
            if end <= key {
                continue; // Entirely duplicate data.
            }
            if k < key {
                buf.advance((key - k) as usize); // Trim the overlap.
            }
            self.rcv_nxt += buf.len() as u32;
            self.ready_bytes += buf.len();
            q.ready.push_back(buf);
        }
    }

    // ------------------------------------------------------------------
    // Output engine.
    // ------------------------------------------------------------------

    /// Transmits as much queued data as the congestion and peer windows
    /// allow, then the FIN if pending.
    pub(crate) fn output(&mut self, now: SimTime) {
        let can_send_data = matches!(
            self.state,
            State::Established | State::CloseWait | State::FinWait1 | State::LastAck
        );
        if !can_send_data {
            return;
        }

        while !self.send_queue_is_empty() {
            let flight = self.flight_size();
            let effective = self.snd_wnd.min(self.cc.cwnd());
            if flight >= effective {
                // Window (flow or congestion) exhausted. Arm the persist
                // timer if the *peer's* window is the limiter and nothing is
                // in flight to trigger ACK clocking.
                if self.snd_wnd == 0 && flight == 0 && self.persist_deadline.is_none() {
                    self.persist_deadline = Some(now.saturating_add(PERSIST_INTERVAL));
                }
                break;
            }
            let Some(chunk) = self.next_segment((effective - flight).min(self.mss)) else {
                break;
            };
            self.send_queue_bytes -= chunk.len();
            self.transmit_data(chunk, now);
        }

        if self.fin_pending && self.send_queue_is_empty() && self.fin_seq.is_none() {
            let seq = self.snd_nxt;
            self.fin_seq = Some(seq);
            self.fin_pending = false;
            self.q().retx.push_back(TxSeg {
                seq,
                data: BufChain::new(),
                syn: false,
                fin: true,
                tx_time: now,
                retransmitted: false,
            });
            self.snd_nxt += 1;
            self.emit(TcpFlags::FIN_ACK, seq, BufChain::new(), None);
            if self.rto_deadline.is_none() {
                self.rto_deadline = Some(now.saturating_add(self.rtt.rto()));
            }
        }
    }

    /// Carves the next segment's payload, at most `budget` bytes, off the
    /// front of the send queue as a chain of links (`None` when the queue
    /// is empty). A piece of at least half a segment — or the rest of one
    /// that a segment boundary split — is a zero-copy link, wherever it
    /// falls. A run of smaller pieces is one link: a view of it when it is
    /// one piece, else one copy-pool gather behind header headroom (it may
    /// lead the segment). The segment ends when the budget is spent or its
    /// chain has room for no more payload links; one link is kept for a
    /// header the head cannot take in place.
    fn next_segment(&mut self, budget: usize) -> Option<BufChain> {
        let half = self.mss / 2;
        let is_link = |b: &DemiBuffer| b.len() >= half;
        let front_link = &mut self.front_link;
        let queue = &mut self.q.as_mut()?.send_queue;
        queue.front()?;
        let mut seg = BufChain::new();
        let mut room = budget;
        while room > 0 && seg.nb_links() < MAX_LINKS - 1 {
            let Some(front) = queue.front() else {
                break;
            };
            let link = if *front_link || is_link(front) {
                Self::take_front(queue, room, front_link, true)
            } else {
                let (mut len, mut parts) = (0, 0);
                while let Some(next) = queue.get(parts).filter(|b| len < room && !is_link(b)) {
                    len += next.len().min(room - len);
                    parts += 1;
                }
                if parts == 1 {
                    Self::take_front(queue, len, front_link, false)
                } else {
                    // The copy holds the pusher's bytes, so it carries the
                    // pusher's stamp and is charged to that tenant's lane.
                    let run = DemiBuffer::gather(MAX_HEADER_LEN, len, queue.iter().take(parts));
                    let mut left = len;
                    for _ in 0..parts {
                        left -= Self::take_front(queue, left, front_link, false).len();
                    }
                    run
                }
            };
            room -= link.len();
            // Proof of room: the loop runs while the chain has it.
            let _ = seg.push(link);
        }
        Some(seg)
    }

    /// Takes up to `n` bytes off the front of the send queue: the front
    /// buffer itself if it fits, else a view of its head, leaving the rest
    /// in front — a link still if `link` (an empty queue yields an empty
    /// buffer).
    fn take_front(
        queue: &mut VecDeque<DemiBuffer>,
        n: usize,
        front_link: &mut bool,
        link: bool,
    ) -> DemiBuffer {
        match queue.front_mut() {
            Some(front) if front.len() > n => {
                *front_link = link;
                let head = front.slice(0, n);
                front.advance(n);
                head
            }
            _ => {
                *front_link = false;
                queue.pop_front().unwrap_or_else(DemiBuffer::empty)
            }
        }
    }

    fn transmit_data(&mut self, data: BufChain, now: SimTime) {
        let seq = self.snd_nxt;
        self.snd_nxt += data.len() as u32;
        self.q().retx.push_back(TxSeg {
            seq,
            data: data.clone(),
            syn: false,
            fin: false,
            tx_time: now,
            retransmitted: false,
        });
        self.stats.segments_sent += 1;
        self.emit(TcpFlags::ACK, seq, data, None);
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now.saturating_add(self.rtt.rto()));
        }
    }

    fn push_handshake_segment(&mut self, syn: bool, ack: bool, now: SimTime) {
        let seq = self.snd_nxt;
        self.q().retx.push_back(TxSeg {
            seq,
            data: BufChain::new(),
            syn,
            fin: false,
            tx_time: now,
            retransmitted: false,
        });
        self.snd_nxt += 1;
        let flags = if ack {
            TcpFlags::SYN_ACK
        } else {
            TcpFlags::SYN
        };
        self.emit(flags, seq, BufChain::new(), Some(self.config.mss as u16));
        self.rto_deadline = Some(now.saturating_add(self.rtt.rto()));
    }

    /// Retransmits the oldest unacked segment.
    fn retransmit_front(&mut self, now: SimTime) {
        let Some(front) = self.q.as_mut().and_then(|q| q.retx.front_mut()) else {
            return;
        };
        front.retransmitted = true;
        front.tx_time = now;
        let (seq, data, syn, fin) = (front.seq, front.data.clone(), front.syn, front.fin);
        self.stats.retransmissions += 1;
        let (flags, mss) = if syn {
            if self.state == State::SynReceived {
                (TcpFlags::SYN_ACK, Some(self.config.mss as u16))
            } else {
                (TcpFlags::SYN, Some(self.config.mss as u16))
            }
        } else if fin {
            (TcpFlags::FIN_ACK, None)
        } else {
            (TcpFlags::ACK, None)
        };
        self.emit(flags, seq, data, mss);
    }

    /// Acknowledges one in-order segment, RFC 1122-style (§4.2.3.2): the
    /// first pending segment arms the delayed-ACK timer; a second forces
    /// the shared pure ACK out immediately. Any ACK-bearing transmission in
    /// between absorbs the pending acknowledgment for free (see
    /// [`ControlBlock::emit`]).
    fn schedule_ack(&mut self, now: SimTime) {
        if self.delayed_ack_pending {
            // Second unacknowledged segment: one pure ACK covers both.
            self.send_ack();
        } else {
            self.delayed_ack_pending = true;
            self.delayed_ack_deadline = Some(now.saturating_add(ACK_DELAY));
        }
    }

    fn send_ack(&mut self) {
        self.stats.acks_sent += 1;
        self.emit(TcpFlags::ACK, self.snd_nxt, BufChain::new(), None);
    }

    fn emit(&mut self, flags: TcpFlags, seq: SeqNum, payload: BufChain, mss: Option<u16>) {
        let window = self.recv_window();
        self.last_advertised_window = window;
        let ack_valid = flags.ack;
        if ack_valid && self.delayed_ack_pending {
            // This segment's ACK field covers the segment whose pure ACK
            // was being delayed: one frame fewer on the wire.
            self.delayed_ack_pending = false;
            self.delayed_ack_deadline = None;
            self.stats.acks_coalesced += 1;
        }
        let seg = TcpSegmentOut {
            header: TcpHeader {
                src_port: self.local.port,
                dst_port: self.remote.port,
                seq,
                ack: if ack_valid { self.rcv_nxt } else { SeqNum(0) },
                flags,
                window: window as u16,
                mss,
            },
            payload,
        };
        self.q().outbox.push(seg);
    }

    // ------------------------------------------------------------------
    // Device-offload shadow-state sync.
    //
    // A SmartNIC offload engine (dpdk-sim) can serve requests and absorb
    // ACKs on this connection without host involvement, keeping only a
    // compact shadow of the sequence state. The host control block stays
    // authoritative: every device action is replayed here through
    // `apply_offload` before any subsequently delivered frame is
    // processed, so the two views never diverge observably.
    // ------------------------------------------------------------------

    /// The shadow to hand the device when the connection is quiescent
    /// enough to arm an offload — established, nothing queued, in flight,
    /// buffered out of order, or awaiting acknowledgment, and no close in
    /// progress — else `None`. At quiescence the compact shadow fully
    /// determines the flow's future, which is what makes the sync
    /// protocol sound.
    pub(crate) fn offload_shadow(&self) -> Option<FlowShadow> {
        let quiescent = self.state == State::Established
            && self.error.is_none()
            && self.qr().is_none_or(|q| {
                q.send_queue.is_empty()
                    && q.retx.is_empty()
                    && q.ooo.is_empty()
                    && q.outbox.is_empty()
            })
            && !self.delayed_ack_pending
            && self.persist_deadline.is_none()
            && !self.fin_pending
            && self.fin_seq.is_none()
            && !self.fin_received
            && self.snd_una == self.snd_nxt;
        quiescent.then(|| FlowShadow {
            rcv_nxt: self.rcv_nxt.0,
            snd_nxt: self.snd_nxt.0,
            window: self.recv_window() as u16,
            mss: self.mss,
        })
    }

    /// Applies one device sync event:
    ///
    /// * `Served` — the device consumed `rx_len` request bytes and already
    ///   transmitted `reply` with a piggybacked ACK. `rcv_nxt` advances
    ///   *without* delivering the bytes to the application (the device
    ///   answered them) and the reply is mirrored into the retransmission
    ///   queue *without* being emitted — loss recovery for device-sent
    ///   bytes remains a host responsibility.
    /// * `AckAdvance` — the normal ACK machinery runs on a synthetic
    ///   pure-ACK header: mirrored retransmission entries clear, windows
    ///   update, RTT samples accrue.
    /// * `Flushed` — in-order bytes the device had absorbed for reassembly
    ///   but could not serve enter the receive path exactly as if their
    ///   frames had been delivered: the application reads them, and an
    ///   acknowledgment is scheduled (the device never ACKs bytes it hands
    ///   back).
    pub(crate) fn apply_offload(&mut self, event: OffloadEvent, now: SimTime) {
        self.last_activity = now;
        match event {
            OffloadEvent::Served { rx_len, reply, .. } => {
                self.stats.in_order_segments += 1;
                self.rcv_nxt += rx_len;
                let seq = self.snd_nxt;
                self.snd_nxt += reply.len() as u32;
                self.stats.segments_sent += 1;
                self.q().retx.push_back(TxSeg {
                    seq,
                    data: BufChain::from(reply),
                    syn: false,
                    fin: false,
                    tx_time: now,
                    retransmitted: false,
                });
                if self.rto_deadline.is_none() {
                    self.rto_deadline = Some(now.saturating_add(self.rtt.rto()));
                }
            }
            OffloadEvent::AckAdvance { ack, window, .. } => {
                let hdr = TcpHeader {
                    src_port: self.remote.port,
                    dst_port: self.local.port,
                    seq: self.rcv_nxt,
                    ack: SeqNum(ack),
                    flags: TcpFlags::ACK,
                    window,
                    mss: None,
                };
                self.process_ack(&hdr, 0, now);
            }
            OffloadEvent::Flushed { data, .. } => {
                self.stats.in_order_segments += 1;
                self.rcv_nxt += data.len() as u32;
                self.ready_bytes += data.len();
                self.q().ready.push_back(data);
                self.schedule_ack(now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers.
    // ------------------------------------------------------------------

    /// Advances timers to `now` (RTO, persist probe, TIME_WAIT expiry).
    /// Returns how many timer events fired — retransmits may emit frames,
    /// but give-ups (handshake timeout, TIME_WAIT expiry) are pure state
    /// transitions, and callers waiting on connection state need to know
    /// *something* happened even when no frame moves.
    pub(crate) fn on_tick(&mut self, now: SimTime) -> usize {
        let mut events = 0;
        if let Some(deadline) = self.timewait_deadline {
            if now >= deadline {
                self.state = State::Closed;
                self.clear_timers();
                self.last_activity = now;
                return 1;
            }
        }

        if let Some(deadline) = self.rto_deadline {
            if now >= deadline && !self.retx_is_empty() {
                self.stats.timeouts += 1;
                events += 1;
                match self.state {
                    State::SynSent | State::SynReceived => {
                        if self.handshake_retries_left == 0 {
                            self.error = Some(NetError::Timeout);
                            self.state = State::Closed;
                            self.clear_timers();
                            self.last_activity = now;
                            return events;
                        }
                        self.handshake_retries_left -= 1;
                        self.retransmit_front(now);
                        self.rtt.backoff();
                    }
                    _ => {
                        self.cc.on_timeout(self.flight_size());
                        self.dup_acks = 0;
                        self.retransmit_front(now);
                        self.rtt.backoff();
                    }
                }
                self.rto_deadline = Some(now.saturating_add(self.rtt.rto()));
            }
        }

        if let Some(deadline) = self.persist_deadline {
            if now >= deadline {
                self.persist_deadline = None;
                events += 1;
                self.persist_probe(now);
            }
        }

        if let Some(deadline) = self.delayed_ack_deadline {
            if now >= deadline {
                // The second segment never arrived and nothing piggybacked:
                // pay the ACK out. Clearing the pending flag *first* keeps
                // this out of the coalescing count — it is exactly the frame
                // the undelayed path would have sent, just later.
                self.delayed_ack_deadline = None;
                self.delayed_ack_pending = false;
                events += 1;
                self.send_ack();
            }
        }
        if events > 0 {
            self.last_activity = now;
        }
        events
    }

    /// Zero-window probe: force out one byte so the peer's window update
    /// has something to ride on.
    fn persist_probe(&mut self, now: SimTime) {
        if self.snd_wnd > 0 || self.flight_size() > 0 || self.send_queue_is_empty() {
            return;
        }
        self.stats.persist_probes += 1;
        let Some(q) = self.q.as_mut() else {
            return;
        };
        let link = self.front_link
            || q.send_queue
                .front()
                .is_some_and(|b| b.len() >= self.mss / 2);
        let probe = Self::take_front(&mut q.send_queue, 1, &mut self.front_link, link);
        self.send_queue_bytes -= 1;
        self.transmit_data(BufChain::from(probe), now);
        // Re-arm: keep probing until the window opens.
        self.persist_deadline = Some(now.saturating_add(PERSIST_INTERVAL));
    }

    fn enter_timewait(&mut self, now: SimTime) {
        self.timewait_deadline = Some(now.saturating_add(MSL.saturating_mul(2)));
        self.rto_deadline = None;
        self.persist_deadline = None;
        self.delayed_ack_deadline = None;
        self.delayed_ack_pending = false;
    }

    fn clear_timers(&mut self) {
        self.rto_deadline = None;
        self.persist_deadline = None;
        self.timewait_deadline = None;
        self.delayed_ack_deadline = None;
        self.delayed_ack_pending = false;
    }
}

#[cfg(test)]
mod tests;

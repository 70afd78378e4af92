//! Connection demultiplexing, listeners, and the socket-facing TCP API.
//!
//! [`TcpPeer`] owns every [`ControlBlock`] on one host, arranged for
//! connection *scale* (100k+ established connections per shard):
//!
//! * **Slab-arena TCBs.** Control blocks live in a dense generational slab
//!   (`Vec` + free list). A [`ConnId`] encodes `slot ⊕ generation`, so
//!   lookup is an O(1) index plus a generation compare — no hashing, no
//!   pointer chase — and iteration (offload planning, memory accounting)
//!   is cache-linear. Timer slots fold into the slab entry.
//! * **Flat-cost demux.** Segments demux through a [`FastHashMap`] keyed
//!   by the packed 64-bit [`flow_key`], fronted by a single-entry
//!   last-flow cache so bursts to one flow skip hashing entirely.
//! * **Compact TIME_WAIT.** A fully-drained closing connection demotes to
//!   a ~32-byte [`TimeWaitRecord`] parked on the same timing wheel: late
//!   FINs are re-ACKed, RSTs drop the record, 2·MSL expiry recycles the
//!   port. Churn pins records, not control blocks.
//! * **Bounded accept.** Half-open connections live in a fixed-size
//!   per-listener SYN table with oldest-eviction; no control block exists
//!   until the handshake's final ACK, so a SYN flood allocates O(backlog).
//! * **Queue compaction.** Established-but-quiet connections release
//!   their drained queue boxes after [`super::TcpConfig::compact_delay`],
//!   reaching a zero-queue-heap idle footprint without ever thrashing the
//!   active path's warmed capacity.

use std::collections::{HashSet, VecDeque};
use std::net::Ipv4Addr;

use demi_memory::DemiBuffer;
use sim_fabric::SimTime;

use crate::fasthash::{flow_key, FastHashMap};
use crate::types::{NetError, SocketAddr};

use super::cb::{ControlBlock, State, TcpSegmentOut};
use super::header::{TcpFlags, TcpHeader};
use super::seq::SeqNum;
use super::wheel::TimerWheel;
use super::TcpConfig;

/// Handle to one connection: `generation << SLOT_BITS | slot`. The
/// generation makes recycled slots reject stale handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub u32);

/// Handle to one listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListenerId(pub u32);

/// Slot index bits in a [`ConnId`]; bounds a peer's slab at ~1M resident
/// connections. The remaining bits hold the slot generation.
const SLOT_BITS: u32 = 20;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;
/// Generations per slot before the id would wrap; stored generations stay
/// below this.
const GEN_LIMIT: u32 = u32::MAX >> SLOT_BITS;

demi_telemetry::counter_family! {
    /// Host-wide TCP counters.
    pub struct TcpStats {
        /// Segments matched to a connection (or a TIME_WAIT record).
        pub demuxed: u64,
        /// SYNs admitted to a listener's SYN table (each got a SYN-ACK).
        pub syns_accepted: u64,
        /// Completed handshakes refused because the accept queue was full.
        pub syns_dropped_backlog: u64,
        /// Half-open entries evicted (oldest-first) from a full SYN table.
        pub syns_evicted: u64,
        /// RSTs sent for unmatched segments.
        pub resets_sent: u64,
        /// Segments that matched nothing and were not RST-eligible.
        pub unmatched: u64,
    }
}

/// A half-open connection: everything needed to finish the handshake (or
/// re-send the SYN-ACK), and nothing else. No control block, no queues —
/// a SYN flood buys the attacker `size_of::<SynEntry>() × backlog` bytes,
/// total.
struct SynEntry {
    /// Packed flow key of the initiating SYN (dup detection).
    key: u64,
    remote: SocketAddr,
    /// The client's initial sequence number.
    irs: SeqNum,
    /// Our initial sequence number (sent in the SYN-ACK).
    iss: SeqNum,
    peer_mss: Option<u16>,
    /// When the SYN-ACK went out — the handshake's RTT sample.
    synack_time: SimTime,
    /// Set if the SYN-ACK was re-sent (Karn: no RTT sample then).
    retransmitted: bool,
    /// Admission order for oldest-first eviction.
    created: u64,
}

struct Listener {
    port: u16,
    max_backlog: usize,
    /// Connections past the handshake, awaiting `accept`.
    ready: VecDeque<ConnId>,
    /// Fixed-size half-open table (length = `max_backlog`, never grows).
    syn_table: Vec<Option<SynEntry>>,
}

impl Listener {
    fn syn_slot(&self, key: u64) -> Option<usize> {
        self.syn_table
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.key == key))
    }
}

/// Timer kinds per connection, indexed like
/// [`ControlBlock::timer_deadlines`]: RTO, persist, TIME_WAIT, delayed-ACK.
const TIMER_KINDS: usize = 4;

/// The extra wheel-entry kind used by compact TIME_WAIT records (their
/// 2·MSL expiry rides the same wheel as control-block timers).
const TW_KIND: usize = TIMER_KINDS;

/// A wheel entry's identity: connection, timer kind, and the generation at
/// schedule time. An entry whose generation no longer matches the slot's is
/// lazily cancelled — it gets discarded when swept, never acted on.
#[derive(Debug, Clone, Copy)]
struct TimerKey {
    conn: ConnId,
    kind: usize,
    gen: u64,
}

/// The peer-side cache of one connection's scheduled deadlines.
#[derive(Debug, Default)]
struct TimerSlots {
    deadline: [Option<SimTime>; TIMER_KINDS],
    gen: [u64; TIMER_KINDS],
}

/// One slab slot: the control block (inline, so iteration is a linear
/// walk), its timer cache, and the slot generation.
#[derive(Default)]
struct SlabEntry {
    /// Bumped every free; stale handles fail the compare.
    gen: u32,
    /// Whether this connection owns an ephemeral local port to release on
    /// free (server-side connections share their listener's port).
    ephemeral_port: bool,
    /// Set while the connection waits on `tick_fired` within one
    /// [`TcpPeer::on_tick`], so several timers due together tick it once.
    tick_queued: bool,
    timers: TimerSlots,
    cb: Option<ControlBlock>,
}

/// What remains of a connection after TIME_WAIT demotion: enough to
/// re-ACK a late FIN, die on a RST, and recycle the port at 2·MSL. ~32
/// bytes against a full control block's several hundred (plus queues).
#[derive(Debug, Clone, Copy)]
struct TimeWaitRecord {
    remote: SocketAddr,
    local_port: u16,
    rcv_nxt: u32,
    snd_nxt: u32,
    /// The raw [`ConnId`] the connection had — still answers `state()` as
    /// `TimeWait`, and identifies the wheel expiry entry.
    owner_id: u32,
    /// Bumped when a late FIN restarts 2·MSL; the old wheel entry goes
    /// stale.
    wheel_gen: u32,
    ephemeral: bool,
    /// The tenant this record is charged to (0 = host, uncounted).
    /// TIME_WAIT capacity is partitioned per tenant: over quota, the
    /// tenant's *own* oldest record is evicted, never another's.
    tenant: u16,
}

demi_telemetry::counter_family! {
    /// Memory accounting for one peer's connection state — the real
    /// `bytes_per_conn` is `(slab + cb_heap + demux) / live`.
    pub struct TcpMemStats {
        /// Slab backing array (capacity × entry size; control blocks inline).
        pub slab_bytes: usize,
        /// Heap owned by control blocks beyond the slab: queue boxes and
        /// their grown capacities.
        pub cb_heap_bytes: usize,
        /// Demux table backing (capacity × entry size).
        pub demux_bytes: usize,
        /// TIME_WAIT record maps.
        pub timewait_bytes: usize,
        /// All listeners' SYN tables (fixed at listen time).
        pub syn_table_bytes: usize,
        /// Live control blocks.
        pub live_conns: usize,
        /// Parked TIME_WAIT records.
        pub timewait_records: usize,
    }
}

fn encode_id(slot: u32, gen: u32) -> ConnId {
    ConnId((gen << SLOT_BITS) | slot)
}

/// `(slot, generation)` of a raw connection id.
fn decode_id(id: u32) -> (u32, u32) {
    (id & SLOT_MASK, id >> SLOT_BITS)
}

/// The slab slot whose armed control-block timer `tkey` still is: `None`
/// once the connection is gone or the timer was re-armed or cancelled.
fn live_timer_slot(entries: &[SlabEntry], tkey: &TimerKey) -> Option<u32> {
    let (slot, gen) = decode_id(tkey.conn.0);
    let e = entries.get(slot as usize)?;
    (e.gen == gen && e.cb.is_some() && e.timers.gen[tkey.kind] == tkey.gen).then_some(slot)
}

/// How a handle resolved against the slab and TIME_WAIT records.
enum Lookup {
    /// Slot holds this generation's live control block.
    Live(u32),
    /// Demoted to a TIME_WAIT record.
    TimeWait,
    /// A previously-valid handle whose connection is gone: reports
    /// `Closed` rather than an error, matching what a kept-forever
    /// control block would have said.
    Stale,
    /// Never a valid handle on this peer.
    Bad,
}

/// All TCP state for one host.
pub struct TcpPeer {
    local_ip: Ipv4Addr,
    config: TcpConfig,
    /// The connection slab. `free` holds recycled slot indices.
    entries: Vec<SlabEntry>,
    free: Vec<u32>,
    live: usize,
    /// Packed-flow-key demux: key → slab slot. Invariant: values are
    /// always live slots (freed slots are removed eagerly).
    demux: FastHashMap<u64, u32>,
    /// Single-entry demux cache: the last flow that matched. Burst RX to
    /// one flow skips the map entirely. Invalidated on any slot free.
    last_demux: Option<(u64, u32)>,
    /// Compact TIME_WAIT records by flow key, plus a raw-id index so
    /// handles and wheel entries can find them.
    tw: FastHashMap<u64, TimeWaitRecord>,
    tw_by_id: FastHashMap<u32, u64>,
    /// Port → owning tenant, stamped by the stack at listen/connect.
    /// Absent ports are host-owned (untracked).
    port_tenants: FastHashMap<u16, u16>,
    /// Per-tenant caps on parked TIME_WAIT records.
    tw_quota: FastHashMap<u16, usize>,
    /// Per-tenant occupancy against `tw_quota`.
    tw_count: FastHashMap<u16, usize>,
    /// Per-tenant insertion order of TIME_WAIT flow keys, for oldest-
    /// first quota eviction. Keys whose record already left (expiry,
    /// RST) are skipped lazily.
    tw_order: FastHashMap<u16, VecDeque<u64>>,
    listeners: FastHashMap<ListenerId, Listener>,
    listening_ports: FastHashMap<u16, ListenerId>,
    bound_ports: HashSet<u16>,
    /// Ephemeral ports whose connections fully closed; the stack drains
    /// these back to the host-wide allocator.
    released_ports: Vec<u16>,
    next_listener: u32,
    next_ephemeral: u16,
    isn_counter: u32,
    /// Admission clock for SYN-table oldest-eviction.
    syn_clock: u64,
    /// Segments generated without an owning control block: RSTs, SYN-ACKs
    /// from the SYN table, TIME_WAIT re-ACKs.
    raw_out: Vec<(Ipv4Addr, TcpSegmentOut)>,
    /// The timing wheel holding every armed connection timer and
    /// TIME_WAIT expiry. Idle connections have no due entries and cost
    /// nothing per tick.
    wheel: TimerWheel<TimerKey>,
    /// Connections with queued output, in touch order (`active_set`
    /// dedups). [`TcpPeer::drain_segments`] walks only these — O(active),
    /// not O(resident).
    active_out: Vec<ConnId>,
    active_set: HashSet<u32>,
    /// Reused backing for the drain walk, so draining allocates nothing.
    active_scratch: Vec<ConnId>,
    /// Quiet connections awaiting queue-box release, as `(due, id)` in
    /// (monotone) due order.
    compact_pending: VecDeque<(SimTime, ConnId)>,
    /// Reused backing for the tick walk (due wheel entries, then the
    /// deduped fired list), so a steady-state tick allocates nothing.
    tick_due: Vec<(SimTime, TimerKey)>,
    tick_fired: Vec<u32>,
    keep_timewait_blocks: bool,
    stats: TcpStats,
}

impl TcpPeer {
    /// Creates the TCP layer for a host with address `local_ip`.
    pub fn new(local_ip: Ipv4Addr, config: TcpConfig) -> Self {
        TcpPeer {
            local_ip,
            config,
            entries: Vec::new(),
            free: Vec::new(),
            live: 0,
            demux: FastHashMap::default(),
            last_demux: None,
            tw: FastHashMap::default(),
            tw_by_id: FastHashMap::default(),
            port_tenants: FastHashMap::default(),
            tw_quota: FastHashMap::default(),
            tw_count: FastHashMap::default(),
            tw_order: FastHashMap::default(),
            listeners: FastHashMap::default(),
            listening_ports: FastHashMap::default(),
            bound_ports: HashSet::new(),
            released_ports: Vec::new(),
            next_listener: 0,
            next_ephemeral: 32_768,
            isn_counter: 0,
            syn_clock: 0,
            raw_out: Vec::new(),
            wheel: TimerWheel::new(SimTime::ZERO),
            active_out: Vec::new(),
            active_set: HashSet::new(),
            active_scratch: Vec::new(),
            compact_pending: VecDeque::new(),
            tick_due: Vec::new(),
            tick_fired: Vec::new(),
            keep_timewait_blocks: false,
            stats: TcpStats::default(),
        }
    }

    /// Keeps `TIME_WAIT` control blocks resident until 2·MSL instead of
    /// demoting them: the reference `tests/timewait.rs` proves the compact
    /// record wire-identical to. Nothing else should call it.
    #[doc(hidden)]
    pub fn keep_full_timewait_blocks(&mut self) {
        self.keep_timewait_blocks = true;
    }

    // ------------------------------------------------------------------
    // Slab plumbing.
    // ------------------------------------------------------------------

    fn lookup(&self, id: ConnId) -> Lookup {
        let (slot, gen) = decode_id(id.0);
        let entry = self.entries.get(slot as usize);
        if entry.is_some_and(|e| e.gen == gen && e.cb.is_some()) {
            Lookup::Live(slot)
        } else if self.tw_by_id.contains_key(&id.0) {
            Lookup::TimeWait
        } else if entry.is_some() {
            Lookup::Stale
        } else {
            Lookup::Bad
        }
    }

    fn cb(&self, slot: u32) -> &ControlBlock {
        self.entries[slot as usize]
            .cb
            .as_ref()
            .expect("looked-up slot is live")
    }

    fn cb_mut(&mut self, slot: u32) -> &mut ControlBlock {
        self.entries[slot as usize]
            .cb
            .as_mut()
            .expect("looked-up slot is live")
    }

    fn alloc_conn(&mut self, cb: ControlBlock, ephemeral_port: bool) -> ConnId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.entries.len() as u32;
                assert!(s <= SLOT_MASK, "connection slab full");
                self.entries.push(SlabEntry::default());
                s
            }
        };
        let key = flow_key(cb.local().port, cb.remote().ip, cb.remote().port);
        let e = &mut self.entries[slot as usize];
        e.ephemeral_port = ephemeral_port;
        e.cb = Some(cb);
        let gen = e.gen;
        self.live += 1;
        let id = encode_id(slot, gen);
        self.demux.insert(key, slot);
        self.sync_slot(slot);
        id
    }

    /// Returns a slot to the free list: bumps the generation (stale
    /// handles and wheel entries die), drops the control block, removes
    /// the demux mapping, and optionally releases an ephemeral port.
    fn free_slot(&mut self, slot: u32, release_port: bool) {
        let e = &mut self.entries[slot as usize];
        let cb = e.cb.take().expect("freeing a live slot");
        let port = cb.local().port;
        let remote = cb.remote();
        for kind in 0..TIMER_KINDS {
            e.timers.deadline[kind] = None;
            e.timers.gen[kind] += 1;
        }
        e.gen = (e.gen + 1) % GEN_LIMIT;
        let eph = e.ephemeral_port;
        e.ephemeral_port = false;
        self.live -= 1;
        self.free.push(slot);
        self.demux.remove(&flow_key(port, remote.ip, remote.port));
        self.last_demux = None;
        if release_port && eph {
            self.bound_ports.remove(&port);
            self.released_ports.push(port);
        }
    }

    /// Frees a connection that has finished cleanly: `Closed`, no error
    /// to report, nothing left for the application or the wire. Blocks
    /// that closed *with* an error stay resident so `error()` keeps
    /// answering.
    fn reap_slot(&mut self, slot: u32) {
        let Some(cb) = self.entries[slot as usize].cb.as_ref() else {
            return;
        };
        // Queues are empty when the box was never allocated (heap 0) or
        // when it is allocated but drained (`queues_idle`).
        let queues_empty = cb.heap_bytes() == 0 || cb.queues_idle();
        if cb.state() == State::Closed && cb.error().is_none() && queues_empty {
            self.free_slot(slot, true);
        }
    }

    /// Reconciles the wheel, the dirty output list, and the compaction
    /// queue with one connection's control block. Called after every
    /// operation that can touch a CB.
    fn sync_slot(&mut self, slot: u32) {
        let id = {
            let e = &self.entries[slot as usize];
            if e.cb.is_none() {
                return;
            }
            encode_id(slot, e.gen)
        };
        let TcpPeer {
            entries,
            wheel,
            active_out,
            active_set,
            compact_pending,
            config,
            ..
        } = self;
        let e = &mut entries[slot as usize];
        let cb = e.cb.as_mut().expect("checked above");
        let deadlines = cb.timer_deadlines();
        for (kind, &deadline) in deadlines.iter().enumerate() {
            if e.timers.deadline[kind] != deadline {
                e.timers.gen[kind] += 1;
                e.timers.deadline[kind] = deadline;
                if let Some(t) = deadline {
                    wheel.schedule(
                        t,
                        TimerKey {
                            conn: id,
                            kind,
                            gen: e.timers.gen[kind],
                        },
                    );
                    crate::counters::note_timer_scheduled();
                }
            }
        }
        if cb.has_outbox() && active_set.insert(id.0) {
            active_out.push(id);
        }
        if cb.queues_idle() && !cb.compact_enrolled() {
            cb.set_compact_enrolled(true);
            compact_pending
                .push_back((cb.last_activity().saturating_add(config.compact_delay), id));
        }
    }

    /// Releases queue boxes of connections that have stayed quiet past
    /// the compaction delay. `compact_pending` is in due order (both
    /// enrollment and re-enqueue push monotonically increasing dues), so
    /// one front scan per tick suffices.
    fn sweep_compact(&mut self, now: SimTime) {
        while let Some(&(due, id)) = self.compact_pending.front() {
            if due > now {
                break;
            }
            self.compact_pending.pop_front();
            let (slot, gen) = decode_id(id.0);
            let Some(e) = self.entries.get_mut(slot as usize) else {
                continue;
            };
            if e.gen != gen {
                continue;
            }
            let Some(cb) = e.cb.as_mut() else {
                continue;
            };
            if !cb.queues_idle() {
                // Queues refilled since enrollment; sync_slot re-enrolls
                // when they next drain.
                cb.set_compact_enrolled(false);
                continue;
            }
            if now.saturating_since(cb.last_activity()) >= self.config.compact_delay {
                cb.release_queues();
                cb.set_compact_enrolled(false);
            } else {
                // Active again since enrollment; give it a fresh quiet
                // window.
                let due = cb.last_activity().saturating_add(self.config.compact_delay);
                self.compact_pending.push_back((due, id));
            }
        }
    }

    fn isn(&mut self, remote: SocketAddr) -> SeqNum {
        // Deterministic but connection-dependent: counter stride plus a
        // cheap hash of the 4-tuple.
        self.isn_counter = self.isn_counter.wrapping_add(1);
        let mut h: u32 = 0x9E37_79B9 ^ remote.port as u32;
        for b in remote.ip.octets() {
            h = h.rotate_left(5) ^ b as u32;
        }
        SeqNum(self.isn_counter.wrapping_mul(64_000).wrapping_add(h))
    }

    // ------------------------------------------------------------------
    // Socket API.
    // ------------------------------------------------------------------

    /// Starts listening on `port`.
    pub fn listen(&mut self, port: u16, backlog: usize) -> Result<ListenerId, NetError> {
        if self.bound_ports.contains(&port) {
            return Err(NetError::AddrInUse(port));
        }
        self.bound_ports.insert(port);
        let id = ListenerId(self.next_listener);
        self.next_listener += 1;
        let max_backlog = backlog.max(1);
        let mut syn_table = Vec::new();
        syn_table.resize_with(max_backlog, || None);
        self.listeners.insert(
            id,
            Listener {
                port,
                max_backlog,
                ready: VecDeque::new(),
                syn_table,
            },
        );
        self.listening_ports.insert(port, id);
        Ok(id)
    }

    /// Pops an established connection off the listener's backlog.
    pub fn accept(&mut self, listener: ListenerId) -> Result<Option<ConnId>, NetError> {
        let l = self
            .listeners
            .get_mut(&listener)
            .ok_or(NetError::BadHandle)?;
        Ok(l.ready.pop_front())
    }

    /// Stops listening; half-open entries vanish (the SYN table is
    /// dropped) and ready-but-unaccepted connections are aborted. Returns
    /// the port the listener held, `None` for an unknown handle.
    pub fn close_listener(&mut self, listener: ListenerId) -> Option<u16> {
        let l = self.listeners.remove(&listener)?;
        self.listening_ports.remove(&l.port);
        self.bound_ports.remove(&l.port);
        for &id in l.ready.iter() {
            if let Lookup::Live(slot) = self.lookup(id) {
                self.cb_mut(slot).abort();
                self.sync_slot(slot);
            }
        }
        Some(l.port)
    }

    /// Starts an active open to `remote`; returns immediately with the
    /// connection handle (poll [`TcpPeer::state`] for establishment).
    pub fn connect(&mut self, remote: SocketAddr, now: SimTime) -> Result<ConnId, NetError> {
        let port = self.alloc_ephemeral()?;
        Ok(self.connect_bound(port, remote, now))
    }

    /// Active open from an already-reserved local port. The stack draws
    /// ephemeral ports from the host-wide allocator (one whose flow hashes
    /// home to its shard), then hands the reserved port to its peer here.
    /// When the connection fully closes, the port surfaces through
    /// [`TcpPeer::pop_released_port`] for return to the central pool.
    pub fn connect_bound(&mut self, local_port: u16, remote: SocketAddr, now: SimTime) -> ConnId {
        self.bound_ports.insert(local_port);
        let local = SocketAddr::new(self.local_ip, local_port);
        let iss = self.isn(remote);
        let cb = ControlBlock::connect(local, remote, iss, now, self.config);
        self.alloc_conn(cb, true)
    }

    /// Whether `port` is bound by a listener or a connection on this peer.
    pub fn is_port_bound(&self, port: u16) -> bool {
        self.bound_ports.contains(&port)
    }

    /// Pops one ephemeral port released by a fully-closed (or expired
    /// TIME_WAIT) connection, for return to the host-wide allocator.
    pub fn pop_released_port(&mut self) -> Option<u16> {
        self.released_ports.pop()
    }

    fn alloc_ephemeral(&mut self) -> Result<u16, NetError> {
        for _ in 0..=u16::MAX as u32 {
            let candidate = self.next_ephemeral;
            self.next_ephemeral = self.next_ephemeral.checked_add(1).unwrap_or(32_768);
            if !self.bound_ports.contains(&candidate) {
                self.bound_ports.insert(candidate);
                return Ok(candidate);
            }
        }
        Err(NetError::EphemeralPortsExhausted)
    }

    /// Connection state. Stale handles (connections long since cleanly
    /// closed and reclaimed) answer `Closed`, exactly as a kept-forever
    /// control block would.
    pub fn state(&self, conn: ConnId) -> Result<State, NetError> {
        match self.lookup(conn) {
            Lookup::Live(slot) => Ok(self.cb(slot).state()),
            Lookup::TimeWait => Ok(State::TimeWait),
            Lookup::Stale => Ok(State::Closed),
            Lookup::Bad => Err(NetError::BadHandle),
        }
    }

    /// Connection error, if the connection failed. (Connections that fail
    /// stay resident until their error is observed via a fresh handle
    /// lookup; cleanly-closed connections are reclaimed and report none.)
    pub fn error(&self, conn: ConnId) -> Option<NetError> {
        match self.lookup(conn) {
            Lookup::Live(slot) => self.cb(slot).error().cloned(),
            _ => None,
        }
    }

    /// Queues data for transmission: the one-buffer case of
    /// [`TcpPeer::send_all`].
    pub fn send(&mut self, conn: ConnId, data: DemiBuffer, now: SimTime) -> Result<(), NetError> {
        self.send_all(conn, std::iter::once(data), now)
    }

    /// Queues every buffer of one push and runs the connection's output
    /// engine once ([`ControlBlock::send_all`]): all or none are queued.
    pub fn send_all(
        &mut self,
        conn: ConnId,
        bufs: impl IntoIterator<Item = DemiBuffer>,
        now: SimTime,
    ) -> Result<(), NetError> {
        match self.lookup(conn) {
            Lookup::Live(slot) => {
                self.cb_mut(slot).send_all(bufs, now)?;
                self.sync_slot(slot);
                Ok(())
            }
            Lookup::TimeWait => Err(NetError::Closed),
            Lookup::Stale => Err(NetError::NotConnected),
            Lookup::Bad => Err(NetError::BadHandle),
        }
    }

    /// Pops one received stream chunk (zero-copy, in order).
    pub fn recv(&mut self, conn: ConnId) -> Result<Option<DemiBuffer>, NetError> {
        let mut got = None;
        self.recv_with(conn, |cb| got = cb.recv())?;
        Ok(got)
    }

    /// Pops every in-order chunk that has arrived onto `out`.
    pub fn recv_all(&mut self, conn: ConnId, out: &mut Vec<DemiBuffer>) -> Result<(), NetError> {
        self.recv_with(conn, |cb| out.extend(std::iter::from_fn(|| cb.recv())))
    }

    fn recv_with(
        &mut self,
        conn: ConnId,
        pop: impl FnOnce(&mut ControlBlock),
    ) -> Result<(), NetError> {
        match self.lookup(conn) {
            Lookup::Live(slot) => {
                pop(self.cb_mut(slot));
                self.sync_slot(slot);
                // Draining the last buffered data may make a cleanly
                // closed connection reclaimable.
                self.reap_slot(slot);
                Ok(())
            }
            Lookup::TimeWait | Lookup::Stale => Ok(()),
            Lookup::Bad => Err(NetError::BadHandle),
        }
    }

    /// Whether the connection has readable data or EOF.
    pub fn is_readable(&self, conn: ConnId) -> bool {
        match self.lookup(conn) {
            Lookup::Live(slot) => self.cb(slot).is_readable(),
            Lookup::TimeWait | Lookup::Stale => true, // EOF is readable.
            Lookup::Bad => false,
        }
    }

    /// Whether the peer closed and all data was drained.
    pub fn at_eof(&self, conn: ConnId) -> bool {
        match self.lookup(conn) {
            Lookup::Live(slot) => self.cb(slot).at_eof(),
            Lookup::TimeWait | Lookup::Stale => true,
            Lookup::Bad => false,
        }
    }

    /// Graceful close.
    pub fn close(&mut self, conn: ConnId, now: SimTime) -> Result<(), NetError> {
        match self.lookup(conn) {
            Lookup::Live(slot) => {
                self.cb_mut(slot).close(now);
                self.sync_slot(slot);
                self.reap_slot(slot);
                // A block that already died with an error stays resident
                // only so `error()` keeps answering; once the owner closes
                // the handle there is no one left to ask, so the slot (and
                // its ephemeral port) frees immediately.
                let errored_closed = self.entries[slot as usize]
                    .cb
                    .as_ref()
                    .is_some_and(|cb| cb.state() == State::Closed && cb.error().is_some());
                if errored_closed {
                    self.free_slot(slot, true);
                }
                Ok(())
            }
            Lookup::TimeWait | Lookup::Stale => Ok(()),
            Lookup::Bad => Err(NetError::BadHandle),
        }
    }

    /// Abortive close (RST).
    pub fn abort(&mut self, conn: ConnId) -> Result<(), NetError> {
        match self.lookup(conn) {
            Lookup::Live(slot) => {
                self.cb_mut(slot).abort();
                self.sync_slot(slot);
                Ok(())
            }
            Lookup::TimeWait => {
                self.drop_tw_by_id(conn.0);
                Ok(())
            }
            Lookup::Stale => Ok(()),
            Lookup::Bad => Err(NetError::BadHandle),
        }
    }

    /// Remote endpoint of a connection.
    pub fn remote(&self, conn: ConnId) -> Result<SocketAddr, NetError> {
        match self.lookup(conn) {
            Lookup::Live(slot) => Ok(self.cb(slot).remote()),
            Lookup::TimeWait => {
                let rec = self.tw_rec(conn.0).expect("lookup said TimeWait");
                Ok(rec.remote)
            }
            _ => Err(NetError::BadHandle),
        }
    }

    /// Local endpoint of a connection.
    pub fn local(&self, conn: ConnId) -> Result<SocketAddr, NetError> {
        match self.lookup(conn) {
            Lookup::Live(slot) => Ok(self.cb(slot).local()),
            Lookup::TimeWait => {
                let rec = self.tw_rec(conn.0).expect("lookup said TimeWait");
                Ok(SocketAddr::new(self.local_ip, rec.local_port))
            }
            _ => Err(NetError::BadHandle),
        }
    }

    /// Per-connection protocol counters. Reclaimed connections report
    /// zeroes.
    pub fn conn_stats(&self, conn: ConnId) -> Result<super::cb::CbStats, NetError> {
        match self.lookup(conn) {
            Lookup::Live(slot) => Ok(self.cb(slot).stats()),
            Lookup::TimeWait | Lookup::Stale => Ok(super::cb::CbStats::default()),
            Lookup::Bad => Err(NetError::BadHandle),
        }
    }

    // ------------------------------------------------------------------
    // TIME_WAIT records.
    // ------------------------------------------------------------------

    fn tw_rec(&self, owner: u32) -> Option<&TimeWaitRecord> {
        self.tw.get(self.tw_by_id.get(&owner)?)
    }

    /// Tags `port` with its owning tenant: TIME_WAIT records from
    /// connections on the port are charged to that tenant's partition.
    /// Tenant 0 (host) clears the tag.
    pub fn tag_port_tenant(&mut self, port: u16, tenant: u16) {
        if tenant == 0 {
            self.port_tenants.remove(&port);
        } else {
            self.port_tenants.insert(port, tenant);
        }
    }

    /// Caps the parked TIME_WAIT records charged to `tenant`: beyond the
    /// quota the tenant's own oldest record is evicted (a quota drop) —
    /// never another tenant's. TIME_WAIT memory is thereby partitioned.
    pub fn set_tenant_tw_quota(&mut self, tenant: u16, quota: usize) {
        self.tw_quota.insert(tenant, quota.max(1));
    }

    /// Parked TIME_WAIT records currently charged to `tenant`.
    pub fn tw_count_for(&self, tenant: u16) -> usize {
        self.tw_count.get(&tenant).copied().unwrap_or(0)
    }

    /// Occupied SYN-table slots for the listener on `port` (0 when not
    /// listening). SYN tables are per-listener — and a port has one
    /// owning tenant — so this is the per-tenant half-open partition.
    pub fn syn_backlog_used(&self, port: u16) -> usize {
        self.listening_ports
            .get(&port)
            .and_then(|lid| self.listeners.get(lid))
            .map(|l| l.syn_table.iter().filter(|e| e.is_some()).count())
            .unwrap_or(0)
    }

    /// Releases one TIME_WAIT charge against `tenant`'s partition.
    fn tw_uncharge(&mut self, tenant: u16) {
        if tenant != 0 {
            if let Some(c) = self.tw_count.get_mut(&tenant) {
                *c = c.saturating_sub(1);
            }
        }
    }

    /// Evicts `tenant`'s own oldest parked TIME_WAIT record to make room
    /// under its quota (stale order keys are skipped). Ports release as
    /// on expiry.
    fn evict_oldest_tw(&mut self, tenant: u16) -> bool {
        loop {
            let key = {
                let Some(order) = self.tw_order.get_mut(&tenant) else {
                    return false;
                };
                let Some(key) = order.pop_front() else {
                    return false;
                };
                key
            };
            let evictable = self.tw.get(&key).is_some_and(|r| r.tenant == tenant);
            if !evictable {
                continue;
            }
            let rec = self.tw.remove(&key).expect("checked above");
            self.tw_by_id.remove(&rec.owner_id);
            if rec.ephemeral {
                self.bound_ports.remove(&rec.local_port);
                self.released_ports.push(rec.local_port);
            }
            self.tw_uncharge(tenant);
            demi_tenant::counters::note_quota_drop();
            return true;
        }
    }

    fn drop_tw_by_id(&mut self, owner: u32) {
        if let Some(key) = self.tw_by_id.remove(&owner) {
            if let Some(rec) = self.tw.remove(&key) {
                if rec.ephemeral {
                    self.bound_ports.remove(&rec.local_port);
                    self.released_ports.push(rec.local_port);
                }
                self.tw_uncharge(rec.tenant);
            }
        }
    }

    /// Demotes a fully-drained TIME_WAIT control block to a compact
    /// record at the same wheel expiry. Called after the slot's outbox
    /// has drained (the closing ACK must reach the wire first). The local
    /// port stays bound until the record expires — that is TIME_WAIT's
    /// whole point.
    fn maybe_demote_slot(&mut self, slot: u32) {
        let e = &self.entries[slot as usize];
        let Some(cb) = e.cb.as_ref() else {
            return;
        };
        if self.keep_timewait_blocks || !cb.can_demote_timewait() {
            return;
        }
        let Some(expiry) = cb.timewait_expiry() else {
            return;
        };
        let id = encode_id(slot, e.gen);
        let remote = cb.remote();
        let local_port = cb.local().port;
        let (rcv_nxt, snd_nxt) = cb.seq_shadow();
        let ephemeral = e.ephemeral_port;
        let key = flow_key(local_port, remote.ip, remote.port);
        // The slot free keeps the port: the record owns it until 2·MSL.
        self.free_slot(slot, false);
        // Charge the record to the port's owning tenant; at quota the
        // tenant's own oldest record makes room first.
        let tenant = self.port_tenants.get(&local_port).copied().unwrap_or(0);
        if tenant != 0 {
            if let Some(&quota) = self.tw_quota.get(&tenant) {
                while self.tw_count_for(tenant) >= quota {
                    if !self.evict_oldest_tw(tenant) {
                        break;
                    }
                }
            }
            *self.tw_count.entry(tenant).or_insert(0) += 1;
            self.tw_order.entry(tenant).or_default().push_back(key);
        }
        self.tw.insert(
            key,
            TimeWaitRecord {
                remote,
                local_port,
                rcv_nxt,
                snd_nxt,
                owner_id: id.0,
                wheel_gen: 0,
                ephemeral,
                tenant,
            },
        );
        self.tw_by_id.insert(id.0, key);
        self.wheel.schedule(
            expiry,
            TimerKey {
                conn: id,
                kind: TW_KIND,
                gen: 0,
            },
        );
        crate::counters::note_timer_scheduled();
        crate::counters::note_tw_demoted();
    }

    /// Handles a segment matching a TIME_WAIT record, reproducing the
    /// full control block's TIME_WAIT behavior byte for byte: RST drops
    /// the record, a late FIN is re-ACKed and restarts 2·MSL, anything
    /// else is silently absorbed.
    fn handle_timewait_segment(&mut self, key: u64, hdr: &TcpHeader, now: SimTime) -> bool {
        if !self.tw.contains_key(&key) {
            return false;
        }
        self.stats.demuxed += 1;
        if hdr.flags.rst {
            let rec = self.tw.remove(&key).expect("checked above");
            self.tw_by_id.remove(&rec.owner_id);
            if rec.ephemeral {
                self.bound_ports.remove(&rec.local_port);
                self.released_ports.push(rec.local_port);
            }
            self.tw_uncharge(rec.tenant);
            return true;
        }
        if hdr.flags.fin {
            let window = self.config.recv_capacity.min(65_535) as u16;
            let expiry = now.saturating_add(self.config.msl.saturating_mul(2));
            let rec = self.tw.get_mut(&key).expect("checked above");
            rec.wheel_gen = rec.wheel_gen.wrapping_add(1);
            let reply = (
                rec.remote.ip,
                TcpSegmentOut {
                    header: TcpHeader {
                        src_port: rec.local_port,
                        dst_port: rec.remote.port,
                        seq: SeqNum(rec.snd_nxt),
                        ack: SeqNum(rec.rcv_nxt),
                        flags: TcpFlags::ACK,
                        window,
                        mss: None,
                    },
                    payload: DemiBuffer::empty(),
                },
            );
            let timer_key = TimerKey {
                conn: ConnId(rec.owner_id),
                kind: TW_KIND,
                gen: rec.wheel_gen as u64,
            };
            self.raw_out.push(reply);
            self.wheel.schedule(expiry, timer_key);
            crate::counters::note_timer_scheduled();
        }
        // Late data or ACKs: absorbed without response, exactly like the
        // full control block's TIME_WAIT arm.
        true
    }

    fn expire_tw(&mut self, owner: u32, wheel_gen: u64) -> bool {
        let Some(&key) = self.tw_by_id.get(&owner) else {
            return false;
        };
        let Some(rec) = self.tw.get(&key) else {
            return false;
        };
        if rec.wheel_gen as u64 != wheel_gen {
            return false; // A late FIN restarted 2·MSL; this entry is stale.
        }
        let rec = self.tw.remove(&key).expect("checked above");
        self.tw_by_id.remove(&owner);
        if rec.ephemeral {
            self.bound_ports.remove(&rec.local_port);
            self.released_ports.push(rec.local_port);
        }
        self.tw_uncharge(rec.tenant);
        crate::counters::note_tw_expired();
        true
    }

    // ------------------------------------------------------------------
    // Stack-facing interface.
    // ------------------------------------------------------------------

    /// Handles one received TCP segment.
    pub fn on_segment(
        &mut self,
        src_ip: Ipv4Addr,
        hdr: &TcpHeader,
        payload: DemiBuffer,
        now: SimTime,
    ) {
        let key = flow_key(hdr.dst_port, src_ip, hdr.src_port);
        crate::counters::note_demux_lookup();
        let hit = match self.last_demux {
            Some((k, slot)) if k == key => {
                crate::counters::note_demux_cache_hit();
                Some(slot)
            }
            _ => {
                let found = self.demux.get(&key).copied();
                if let Some(slot) = found {
                    self.last_demux = Some((key, slot));
                }
                found
            }
        };
        if let Some(slot) = hit {
            self.stats.demuxed += 1;
            self.cb_mut(slot).on_segment(hdr, payload, now);
            self.sync_slot(slot);
            self.reap_slot(slot);
            return;
        }

        if self.handle_timewait_segment(key, hdr, now) {
            return;
        }

        let payload_len = payload.len();
        if let Some(&lid) = self.listening_ports.get(&hdr.dst_port) {
            if self.handle_listener_segment(lid, key, src_ip, hdr, payload, now) {
                return;
            }
        }

        // Nothing matched: refuse with RST (unless this is itself a RST).
        if hdr.flags.rst {
            self.stats.unmatched += 1;
            return;
        }
        self.stats.resets_sent += 1;
        let ack = hdr.seq + payload_len as u32 + hdr.flags.syn as u32 + hdr.flags.fin as u32;
        self.raw_out.push((
            src_ip,
            TcpSegmentOut {
                header: TcpHeader {
                    src_port: hdr.dst_port,
                    dst_port: hdr.src_port,
                    seq: if hdr.flags.ack { hdr.ack } else { SeqNum(0) },
                    ack,
                    flags: TcpFlags::RST_ACK,
                    window: 0,
                    mss: None,
                },
                payload: DemiBuffer::empty(),
            },
        ));
    }

    /// Handles a segment addressed to a listening port that matched no
    /// connection: SYNs enter the bounded SYN table; a final-handshake ACK
    /// promotes its entry to a real control block. Returns `false` if the
    /// segment should fall through to the unmatched-RST path.
    fn handle_listener_segment(
        &mut self,
        lid: ListenerId,
        key: u64,
        src_ip: Ipv4Addr,
        hdr: &TcpHeader,
        payload: DemiBuffer,
        now: SimTime,
    ) -> bool {
        let remote = SocketAddr::new(src_ip, hdr.src_port);
        if hdr.flags.syn && !hdr.flags.ack {
            self.admit_syn(lid, key, remote, hdr, now);
            return true;
        }
        let l = self.listeners.get_mut(&lid).expect("listener exists");
        let Some(idx) = l.syn_slot(key) else {
            return false;
        };
        if hdr.flags.rst {
            // The client gave up on a half-open attempt.
            l.syn_table[idx] = None;
            self.stats.demuxed += 1;
            return true;
        }
        if hdr.flags.ack {
            let entry = l.syn_table[idx].as_ref().expect("slot found");
            if hdr.ack == entry.iss + 1 {
                let entry = l.syn_table[idx].take().expect("slot found");
                self.stats.demuxed += 1;
                self.complete_handshake(lid, entry, src_ip, hdr, payload, now);
            }
            // A wrong-ack ACK to a half-open entry is ignored, like the
            // old SYN_RCVD control block did.
            return true;
        }
        // Anything else aimed at a half-open entry: ignore; the client's
        // retransmissions sort it out.
        true
    }

    /// Admits a SYN to the listener's fixed-size table (dup-detecting,
    /// oldest-evicting) and emits the SYN-ACK — without allocating any
    /// per-connection state beyond the table slot.
    fn admit_syn(
        &mut self,
        lid: ListenerId,
        key: u64,
        remote: SocketAddr,
        hdr: &TcpHeader,
        now: SimTime,
    ) {
        let l = self.listeners.get(&lid).expect("listener exists");
        let port = l.port;
        if let Some(idx) = l.syn_slot(key) {
            let l = self.listeners.get_mut(&lid).expect("listener exists");
            let e = l.syn_table[idx].as_mut().expect("slot found");
            if e.irs == hdr.seq {
                // Retransmitted SYN (our SYN-ACK was lost): re-send it
                // identically, and stop trusting its RTT sample.
                e.retransmitted = true;
                let (iss, irs) = (e.iss, e.irs);
                self.emit_synack(remote, port, iss, irs);
                return;
            }
            // Same 4-tuple, new ISN: a fresh attempt replacing a stale
            // half-open entry.
            let iss = self.isn(remote);
            let created = self.syn_clock;
            self.syn_clock += 1;
            let l = self.listeners.get_mut(&lid).expect("listener exists");
            l.syn_table[idx] = Some(SynEntry {
                key,
                remote,
                irs: hdr.seq,
                iss,
                peer_mss: hdr.mss,
                synack_time: now,
                retransmitted: false,
                created,
            });
            self.stats.syns_accepted += 1;
            self.emit_synack(remote, port, iss, hdr.seq);
            return;
        }
        let iss = self.isn(remote);
        let created = self.syn_clock;
        self.syn_clock += 1;
        let l = self.listeners.get_mut(&lid).expect("listener exists");
        let idx = match l.syn_table.iter().position(Option::is_none) {
            Some(i) => i,
            None => {
                // Table full: evict the oldest half-open attempt. Under a
                // SYN flood this recycles attacker entries; a legitimate
                // client that gets evicted retries its SYN.
                let oldest = l
                    .syn_table
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.as_ref().expect("table full").created)
                    .expect("table non-empty")
                    .0;
                self.stats.syns_evicted += 1;
                crate::counters::note_syn_evicted();
                oldest
            }
        };
        l.syn_table[idx] = Some(SynEntry {
            key,
            remote,
            irs: hdr.seq,
            iss,
            peer_mss: hdr.mss,
            synack_time: now,
            retransmitted: false,
            created,
        });
        self.stats.syns_accepted += 1;
        self.emit_synack(remote, port, iss, hdr.seq);
    }

    fn emit_synack(&mut self, remote: SocketAddr, local_port: u16, iss: SeqNum, irs: SeqNum) {
        self.raw_out.push((
            remote.ip,
            TcpSegmentOut {
                header: TcpHeader {
                    src_port: local_port,
                    dst_port: remote.port,
                    seq: iss,
                    ack: irs + 1,
                    flags: TcpFlags::SYN_ACK,
                    window: self.config.recv_capacity.min(65_535) as u16,
                    mss: Some(self.config.mss as u16),
                },
                payload: DemiBuffer::empty(),
            },
        ));
    }

    /// The handshake's final ACK arrived: build the established control
    /// block (the first per-connection allocation), feed it the ACK
    /// segment so windows and any piggybacked payload apply normally, and
    /// queue it for `accept`.
    fn complete_handshake(
        &mut self,
        lid: ListenerId,
        entry: SynEntry,
        src_ip: Ipv4Addr,
        hdr: &TcpHeader,
        payload: DemiBuffer,
        now: SimTime,
    ) {
        let l = self.listeners.get(&lid).expect("listener exists");
        let (port, max_backlog, ready_len) = (l.port, l.max_backlog, l.ready.len());
        if ready_len >= max_backlog {
            // Accept queue full: refuse the completed handshake with RST
            // rather than allocating a control block nobody will accept.
            self.stats.syns_dropped_backlog += 1;
            self.stats.resets_sent += 1;
            let ack = hdr.seq + payload.len() as u32 + hdr.flags.fin as u32;
            self.raw_out.push((
                src_ip,
                TcpSegmentOut {
                    header: TcpHeader {
                        src_port: port,
                        dst_port: entry.remote.port,
                        seq: hdr.ack,
                        ack,
                        flags: TcpFlags::RST_ACK,
                        window: 0,
                        mss: None,
                    },
                    payload: DemiBuffer::empty(),
                },
            ));
            return;
        }
        let local = SocketAddr::new(self.local_ip, port);
        let mut cb = ControlBlock::established(
            local,
            entry.remote,
            entry.iss,
            entry.irs,
            entry.peer_mss,
            now,
            self.config,
        );
        if !entry.retransmitted {
            cb.sample_rtt(now.saturating_since(entry.synack_time));
        }
        let id = self.alloc_conn(cb, false);
        let Lookup::Live(slot) = self.lookup(id) else {
            unreachable!("just allocated");
        };
        self.listeners
            .get_mut(&lid)
            .expect("listener exists")
            .ready
            .push_back(id);
        // Replay the completing ACK through the normal machine so its
        // window (and any piggybacked payload) land exactly as they did
        // when SYN_RCVD control blocks processed this segment.
        self.cb_mut(slot).on_segment(hdr, payload, now);
        self.sync_slot(slot);
    }

    /// Whether [`TcpPeer::on_tick`] at `now` would do anything: a wheel
    /// entry to fire or cascade, or a compaction falling due. O(1).
    pub fn tick_needed(&self, now: SimTime) -> bool {
        let compaction = self.compact_pending.front();
        self.wheel.due(now) || compaction.is_some_and(|&(due, _)| due <= now)
    }

    /// Advances the timing wheel to `now` and ticks only connections whose
    /// timers fired — O(firing timers), independent of how many connections
    /// are resident. Also sweeps the queue compactor and expires TIME_WAIT
    /// records. Returns the total number of timer events fired.
    pub fn on_tick(&mut self, now: SimTime) -> usize {
        self.sweep_compact(now);
        if !self.wheel.due(now) {
            return 0;
        }
        let mut due = std::mem::take(&mut self.tick_due);
        due.clear();
        self.wheel.advance_into(now, &mut due);
        let mut events = 0;
        let mut fired = std::mem::take(&mut self.tick_fired);
        fired.clear();
        for &(_, tkey) in &due {
            if tkey.kind == TW_KIND {
                if self.expire_tw(tkey.conn.0, tkey.gen) {
                    crate::counters::note_timer_fired();
                    events += 1;
                } else {
                    crate::counters::note_timer_stale();
                }
                continue;
            }
            let Some(slot) = live_timer_slot(&self.entries, &tkey) else {
                crate::counters::note_timer_stale();
                continue;
            };
            crate::counters::note_timer_fired();
            // Consume the slot before ticking: the control block decides
            // what stays armed, and sync_slot below re-schedules whatever
            // it reports (e.g. the RTO re-arms itself after a timeout).
            let e = &mut self.entries[slot as usize];
            e.timers.gen[tkey.kind] += 1;
            e.timers.deadline[tkey.kind] = None;
            if !std::mem::replace(&mut e.tick_queued, true) {
                fired.push(slot);
            }
        }
        for &slot in &fired {
            let e = &mut self.entries[slot as usize];
            e.tick_queued = false;
            if let Some(cb) = e.cb.as_mut() {
                events += cb.on_tick(now);
            }
            self.sync_slot(slot);
            self.reap_slot(slot);
        }
        self.tick_due = due;
        self.tick_fired = fired;
        events
    }

    /// Earliest armed timer deadline across all connections (and TIME_WAIT
    /// records), including the queue compactor's next due time — an
    /// event-driven caller that sleeps until this deadline and then calls
    /// [`TcpPeer::on_tick`] observes every timer *and* reaches the
    /// compacted idle footprint without spurious wakeups. Lazily cancelled
    /// wheel entries encountered on the way are discarded, so the answer
    /// is exact (and `None` means genuinely no armed timers).
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        // `compact_pending` is popped front-first; later entries may hold
        // earlier dues after a re-enqueue, but waking at the front's due
        // sweeps those too (the sweep runs to the first not-yet-due front).
        // Entries whose connection died or de-enrolled since enrollment
        // are discarded here, exactly as the sweep would.
        let compact_due = loop {
            let Some(&(due, id)) = self.compact_pending.front() else {
                break None;
            };
            let (slot, gen) = decode_id(id.0);
            let live = self.entries.get(slot as usize).is_some_and(|e| {
                e.gen == gen && e.cb.as_ref().is_some_and(|cb| cb.compact_enrolled())
            });
            if live {
                break Some(due);
            }
            self.compact_pending.pop_front();
        };
        let wheel_due = self.wheel_next_deadline();
        match (wheel_due, compact_due) {
            (Some(w), Some(c)) => Some(w.min(c)),
            (w, c) => w.or(c),
        }
    }

    fn wheel_next_deadline(&mut self) -> Option<SimTime> {
        let TcpPeer {
            wheel,
            entries,
            tw,
            tw_by_id,
            ..
        } = self;
        wheel.peek_earliest_live(|tkey| {
            let live = if tkey.kind == TW_KIND {
                tw_by_id
                    .get(&tkey.conn.0)
                    .and_then(|k| tw.get(k))
                    .is_some_and(|r| r.wheel_gen as u64 == tkey.gen)
            } else {
                live_timer_slot(entries, tkey).is_some()
            };
            if !live {
                crate::counters::note_timer_stale();
            }
            live
        })
    }

    /// Whether [`TcpPeer::drain_segments`] or
    /// [`TcpPeer::pop_released_port`] has anything to hand over. O(1).
    pub fn has_output(&self) -> bool {
        !(self.raw_out.is_empty() && self.active_out.is_empty() && self.released_ports.is_empty())
    }

    /// Appends every segment queued for transmission, tagged with its
    /// destination IP, onto `out` — the caller's reusable scratch. Walks
    /// only connections that produced output since the last call (the
    /// dirty list), not every resident connection, and allocates nothing
    /// once `out` and the internal walk list are warm.
    pub fn drain_segments(&mut self, out: &mut Vec<(Ipv4Addr, TcpSegmentOut)>) {
        let cap_before = out.capacity();
        out.append(&mut self.raw_out);
        if !self.active_out.is_empty() {
            std::mem::swap(&mut self.active_out, &mut self.active_scratch);
            for i in 0..self.active_scratch.len() {
                let id = self.active_scratch[i];
                let Lookup::Live(slot) = self.lookup(id) else {
                    continue;
                };
                let cb = self.cb_mut(slot);
                let dst = cb.remote().ip;
                cb.drain_outbox_into(dst, out);
                // With the closing ACK on the wire, a drained TIME_WAIT
                // block can demote and a finished block can be reclaimed.
                self.maybe_demote_slot(slot);
                self.reap_slot(slot);
            }
            self.active_scratch.clear();
            self.active_set.clear();
        }
        if out.capacity() > cap_before {
            crate::counters::note_outbox_scratch_grow();
        }
    }

    /// Collects every queued segment into a fresh vector. Test
    /// convenience; the datapath uses [`TcpPeer::drain_segments`] with a
    /// reused buffer.
    pub fn take_segments(&mut self) -> Vec<(Ipv4Addr, TcpSegmentOut)> {
        let mut out = Vec::new();
        self.drain_segments(&mut out);
        out
    }

    // ------------------------------------------------------------------
    // Device-offload planner interface (see `ControlBlock`'s offload
    // section). Every mutation goes through `sync_slot` like any other
    // control-block touch, so timers and the dirty output list stay
    // consistent.
    // ------------------------------------------------------------------

    /// Established connections bound to local `port`, with their remote
    /// endpoints (planner scan for arming candidates). A cache-linear
    /// slab walk.
    pub fn conns_on_port(&self, port: u16) -> Vec<(ConnId, SocketAddr)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(slot, e)| {
                let cb = e.cb.as_ref()?;
                (cb.local().port == port && cb.state() == State::Established)
                    .then(|| (encode_id(slot as u32, e.gen), cb.remote()))
            })
            .collect()
    }

    /// Whether `conn` is quiescent enough to arm a device offload.
    pub fn offload_quiescent(&self, conn: ConnId) -> bool {
        matches!(self.lookup(conn), Lookup::Live(slot) if self.cb(slot).offload_quiescent())
    }

    /// Arm-time shadow `(rcv_nxt, snd_nxt, window, mss)` for `conn`.
    pub fn offload_arm_info(&self, conn: ConnId) -> Option<(u32, u32, u16, usize)> {
        match self.lookup(conn) {
            Lookup::Live(slot) => Some(self.cb(slot).offload_arm_info()),
            _ => None,
        }
    }

    /// Applies a device `Served` sync event to `conn`.
    pub fn offload_served(&mut self, conn: ConnId, rx_len: u32, reply: DemiBuffer, now: SimTime) {
        if let Lookup::Live(slot) = self.lookup(conn) {
            self.cb_mut(slot).offload_served(rx_len, reply, now);
            self.sync_slot(slot);
        }
    }

    /// Applies a device `AckAdvance` sync event to `conn`.
    pub fn offload_ack(&mut self, conn: ConnId, ack: u32, window: u16, now: SimTime) {
        if let Lookup::Live(slot) = self.lookup(conn) {
            self.cb_mut(slot).offload_ack(ack, window, now);
            self.sync_slot(slot);
        }
    }

    /// Applies a device `Flushed` sync event to `conn`.
    pub fn offload_flushed(&mut self, conn: ConnId, data: DemiBuffer, now: SimTime) {
        if let Lookup::Live(slot) = self.lookup(conn) {
            self.cb_mut(slot).offload_flushed(data, now);
            self.sync_slot(slot);
        }
    }

    /// Host-wide counters.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }

    /// Number of live control blocks (diagnostics).
    pub fn conn_count(&self) -> usize {
        self.live
    }

    /// Memory accounting across the slab, demux table, TIME_WAIT records,
    /// and SYN tables.
    pub fn mem_stats(&self) -> TcpMemStats {
        use std::mem::size_of;
        let cb_heap_bytes = self
            .entries
            .iter()
            .filter_map(|e| e.cb.as_ref())
            .map(ControlBlock::heap_bytes)
            .sum();
        // Hash maps: charge capacity × (key + value + 1 control byte).
        let demux_bytes = self.demux.capacity() * (size_of::<u64>() + size_of::<u32>() + 1);
        let timewait_bytes = self.tw.capacity()
            * (size_of::<u64>() + size_of::<TimeWaitRecord>() + 1)
            + self.tw_by_id.capacity() * (size_of::<u32>() + size_of::<u64>() + 1);
        let syn_table_bytes = self
            .listeners
            .values()
            .map(|l| l.syn_table.capacity() * size_of::<Option<SynEntry>>())
            .sum();
        TcpMemStats {
            slab_bytes: self.entries.capacity() * size_of::<SlabEntry>(),
            cb_heap_bytes,
            demux_bytes,
            timewait_bytes,
            syn_table_bytes,
            live_conns: self.live,
            timewait_records: self.tw.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    /// Shuttles segments between two peers until quiet.
    fn pump(a: &mut TcpPeer, a_ip: Ipv4Addr, b: &mut TcpPeer, b_ip: Ipv4Addr, now: SimTime) {
        for _ in 0..1_000 {
            let mut quiet = true;
            for (dst, seg) in a.take_segments() {
                quiet = false;
                assert_eq!(dst, b_ip, "single-link test harness");
                b.on_segment(a_ip, &seg.header, seg.payload, now);
            }
            for (dst, seg) in b.take_segments() {
                quiet = false;
                assert_eq!(dst, a_ip);
                a.on_segment(b_ip, &seg.header, seg.payload, now);
            }
            if quiet {
                return;
            }
        }
        panic!("pump did not converge");
    }

    fn connected_pair() -> (TcpPeer, TcpPeer, ConnId, ConnId) {
        let now = SimTime::ZERO;
        let mut client = TcpPeer::new(ip(1), TcpConfig::default());
        let mut server = TcpPeer::new(ip(2), TcpConfig::default());
        let lid = server.listen(80, 16).unwrap();
        let c = client.connect(SocketAddr::new(ip(2), 80), now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        let s = server.accept(lid).unwrap().expect("connection ready");
        assert_eq!(client.state(c).unwrap(), State::Established);
        assert_eq!(server.state(s).unwrap(), State::Established);
        (client, server, c, s)
    }

    #[test]
    fn connect_accept_and_exchange() {
        let now = SimTime::ZERO;
        let (mut client, mut server, c, s) = connected_pair();
        client
            .send(c, DemiBuffer::from_slice(b"GET key7"), now)
            .unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        let got = server.recv(s).unwrap().expect("request arrived");
        assert_eq!(got.as_slice(), b"GET key7");
        server
            .send(s, DemiBuffer::from_slice(b"value42"), now)
            .unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        assert_eq!(client.recv(c).unwrap().unwrap().as_slice(), b"value42");
    }

    /// An RTO storm: every connection's delayed-ACK and RTO entries fall
    /// due in one tick. Each connection is ticked once, in the order its
    /// first due entry comes off the wheel (here: the order the delayed
    /// ACKs were armed, which is not slot order).
    #[test]
    fn timers_due_together_tick_each_connection_once_in_due_order() {
        const CONNS: usize = 2_000;
        let now = SimTime::ZERO;
        let mut client = TcpPeer::new(ip(1), TcpConfig::default());
        let mut server = TcpPeer::new(ip(2), TcpConfig::default());
        let lid = server.listen(80, CONNS).unwrap();
        let mut pairs = Vec::new();
        for _ in 0..CONNS {
            let c = client.connect(SocketAddr::new(ip(2), 80), now).unwrap();
            pump(&mut client, ip(1), &mut server, ip(2), now);
            pairs.push((c, server.accept(lid).unwrap().expect("connection ready")));
        }
        // Server data that is never delivered arms each RTO ...
        for &(_, s) in &pairs {
            server
                .send(s, DemiBuffer::from_slice(b"lost"), now)
                .unwrap();
        }
        server.take_segments();
        // ... and client data, delivered in a scrambled order, arms each
        // delayed ACK.
        let scrambled: Vec<usize> = (0..CONNS).map(|i| i * 7_919 % CONNS).collect();
        for &i in &scrambled {
            client
                .send(pairs[i].0, DemiBuffer::from_slice(b"data"), now)
                .unwrap();
            for (_, seg) in client.take_segments() {
                server.on_segment(ip(1), &seg.header, seg.payload, now);
            }
        }
        assert!(server.take_segments().is_empty(), "every ACK is delayed");

        let before = crate::counters::shard_snapshot();
        let events = server.on_tick(SimTime::from_secs(60));
        let moved = crate::counters::shard_snapshot().delta(&before);
        assert_eq!(
            moved.timers_fired,
            2 * CONNS as u64,
            "both entries were live"
        );
        assert_eq!(events, CONNS, "the retransmission carries the delayed ACK");
        let want: Vec<u32> = scrambled
            .iter()
            .map(|&i| decode_id(pairs[i].1 .0).0)
            .collect();
        assert_eq!(server.tick_fired, want);
        let timeouts: u64 = pairs
            .iter()
            .map(|&(_, s)| server.conn_stats(s).unwrap().timeouts)
            .sum();
        assert_eq!(timeouts, CONNS as u64);
    }

    #[test]
    fn listener_port_conflicts_rejected() {
        let mut p = TcpPeer::new(ip(1), TcpConfig::default());
        p.listen(80, 4).unwrap();
        assert_eq!(p.listen(80, 4), Err(NetError::AddrInUse(80)));
    }

    #[test]
    fn connect_to_closed_port_is_refused() {
        let now = SimTime::ZERO;
        let mut client = TcpPeer::new(ip(1), TcpConfig::default());
        let mut server = TcpPeer::new(ip(2), TcpConfig::default());
        let c = client.connect(SocketAddr::new(ip(2), 81), now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        assert_eq!(client.state(c).unwrap(), State::Closed);
        assert_eq!(client.error(c), Some(NetError::ConnectionRefused));
        assert_eq!(server.stats().resets_sent, 1);
    }

    #[test]
    fn syn_table_bounds_half_open_and_evicts_oldest() {
        let now = SimTime::ZERO;
        let mut server = TcpPeer::new(ip(2), TcpConfig::default());
        server.listen(80, 2).unwrap();
        // Three clients race for a 2-entry SYN table: all are admitted
        // (each gets a SYN-ACK) but the oldest half-open entry is evicted.
        let mut clients: Vec<(TcpPeer, ConnId)> = (0..3)
            .map(|i| {
                let mut cl = TcpPeer::new(ip(10 + i), TcpConfig::default());
                let c = cl.connect(SocketAddr::new(ip(2), 80), now).unwrap();
                (cl, c)
            })
            .collect();
        // Deliver all three SYNs before any handshake completes.
        for (i, (cl, _)) in clients.iter_mut().enumerate() {
            for (_, seg) in cl.take_segments() {
                server.on_segment(ip(10 + i as u8), &seg.header, seg.payload, now);
            }
        }
        assert_eq!(server.stats().syns_accepted, 3);
        assert_eq!(server.stats().syns_evicted, 1);
        // No control block exists for any half-open attempt.
        assert_eq!(server.conn_count(), 0);
        // The two survivors complete their handshakes; the evicted client's
        // final ACK matches nothing and is refused with RST. The server's
        // outbox addresses all three clients, so route by destination.
        for _ in 0..100 {
            let mut quiet = true;
            for (dst, seg) in server.take_segments() {
                quiet = false;
                let idx = (dst.octets()[3] - 10) as usize;
                clients[idx]
                    .0
                    .on_segment(ip(2), &seg.header, seg.payload, now);
            }
            for (i, (cl, _)) in clients.iter_mut().enumerate() {
                for (_, seg) in cl.take_segments() {
                    quiet = false;
                    server.on_segment(ip(10 + i as u8), &seg.header, seg.payload, now);
                }
            }
            if quiet {
                break;
            }
        }
        assert_eq!(clients[0].0.state(clients[0].1).unwrap(), State::Closed);
        assert_eq!(
            clients[0].0.error(clients[0].1),
            Some(NetError::ConnectionReset)
        );
        for (cl, c) in &clients[1..] {
            assert_eq!(cl.state(*c).unwrap(), State::Established);
        }
        assert_eq!(server.conn_count(), 2);
    }

    #[test]
    fn multiple_connections_demux_independently() {
        let now = SimTime::ZERO;
        let mut client = TcpPeer::new(ip(1), TcpConfig::default());
        let mut server = TcpPeer::new(ip(2), TcpConfig::default());
        let lid = server.listen(80, 16).unwrap();
        let c1 = client.connect(SocketAddr::new(ip(2), 80), now).unwrap();
        let c2 = client.connect(SocketAddr::new(ip(2), 80), now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        let s1 = server.accept(lid).unwrap().unwrap();
        let s2 = server.accept(lid).unwrap().unwrap();
        client
            .send(c1, DemiBuffer::from_slice(b"one"), now)
            .unwrap();
        client
            .send(c2, DemiBuffer::from_slice(b"two"), now)
            .unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        let mut got: Vec<Vec<u8>> = vec![
            server.recv(s1).unwrap().unwrap().to_vec(),
            server.recv(s2).unwrap().unwrap().to_vec(),
        ];
        got.sort();
        assert_eq!(got, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn close_walks_to_closed_on_both_peers() {
        let mut now = SimTime::from_millis(1);
        let (mut client, mut server, c, s) = connected_pair();
        client.close(c, now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        assert!(server.at_eof(s));
        server.close(s, now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        // The closing side demoted to a compact TIME_WAIT record...
        assert_eq!(client.state(c).unwrap(), State::TimeWait);
        assert_eq!(client.conn_count(), 0, "no full TCB pinned in TIME_WAIT");
        // ...and 2·MSL later both handles answer Closed.
        now = now.saturating_add(SimTime::from_millis(50));
        client.on_tick(now);
        server.on_tick(now);
        assert_eq!(client.state(c).unwrap(), State::Closed);
        assert_eq!(server.state(s).unwrap(), State::Closed);
    }

    #[test]
    fn timewait_expiry_recycles_the_ephemeral_port() {
        let mut now = SimTime::from_millis(1);
        let (mut client, mut server, c, s) = connected_pair();
        let port = client.local(c).unwrap().port;
        assert!(client.is_port_bound(port));
        client.close(c, now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        server.close(s, now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        // In TIME_WAIT the port stays bound (that is the point of the
        // state), even though the full control block is gone.
        assert!(client.is_port_bound(port));
        now = now.saturating_add(SimTime::from_millis(50));
        client.on_tick(now);
        assert!(!client.is_port_bound(port), "2.MSL expiry recycles ports");
        assert_eq!(client.pop_released_port(), Some(port));
    }

    #[test]
    fn stale_handles_stay_answerable_after_reclaim() {
        let mut now = SimTime::from_millis(1);
        let (mut client, mut server, c, s) = connected_pair();
        client.close(c, now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        server.close(s, now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        now = now.saturating_add(SimTime::from_millis(50));
        client.on_tick(now);
        server.on_tick(now);
        // Both slabs are empty; old handles answer like closed conns.
        assert_eq!(client.conn_count(), 0);
        assert_eq!(server.conn_count(), 0);
        assert_eq!(client.state(c).unwrap(), State::Closed);
        assert_eq!(client.recv(c).unwrap(), None);
        assert!(client.at_eof(c));
        assert_eq!(
            client.send(c, DemiBuffer::from_slice(b"x"), now),
            Err(NetError::NotConnected)
        );
        assert!(client.close(c, now).is_ok());
        // A recycled slot gets a different generation: the new conn's id
        // never collides with the old handle.
        let c2 = client.connect(SocketAddr::new(ip(2), 80), now).unwrap();
        assert_ne!(c2, c);
        assert_eq!(client.conn_count(), 1);
    }

    #[test]
    fn bad_handles_error() {
        let mut p = TcpPeer::new(ip(1), TcpConfig::default());
        let ghost = ConnId(99);
        assert_eq!(p.state(ghost), Err(NetError::BadHandle));
        assert_eq!(
            p.send(ghost, DemiBuffer::from_slice(b"x"), SimTime::ZERO),
            Err(NetError::BadHandle)
        );
        assert_eq!(p.accept(ListenerId(42)), Err(NetError::BadHandle));
    }

    /// The id codec at its edges, next to a live connection in slot 0. A
    /// slot past the slab — in any generation, `u32::MAX` included — is
    /// `BadHandle` on every call and indexes nothing. A forged generation
    /// of the resident slot cannot be told from a handle that went stale,
    /// so it answers as one (`Closed`, `NotConnected`, EOF) and never
    /// reaches the live control block.
    #[test]
    fn forged_handles_never_reach_a_connection() {
        let now = SimTime::ZERO;
        let (mut client, _server, c, _) = connected_pair();
        assert_eq!(decode_id(c.0), (0, 0));
        assert_eq!(encode_id(SLOT_MASK, GEN_LIMIT), ConnId(u32::MAX));
        let data = || DemiBuffer::from_slice(b"x");
        for forged in [
            encode_id(1, 0),
            encode_id(1, 7),
            encode_id(SLOT_MASK, 0),
            ConnId(u32::MAX),
        ] {
            assert_eq!(client.state(forged), Err(NetError::BadHandle));
            assert_eq!(client.send(forged, data(), now), Err(NetError::BadHandle));
            assert_eq!(client.recv(forged), Err(NetError::BadHandle));
            assert_eq!(client.close(forged, now), Err(NetError::BadHandle));
        }
        for stale in [encode_id(0, 1), encode_id(0, GEN_LIMIT)] {
            assert_eq!(client.state(stale), Ok(State::Closed));
            assert_eq!(client.send(stale, data(), now), Err(NetError::NotConnected));
            assert_eq!(client.recv(stale), Ok(None));
            assert_eq!(client.close(stale, now), Ok(()));
        }
        assert_eq!(client.state(c), Ok(State::Established));
        assert!(
            client.take_segments().is_empty(),
            "nothing was queued or closed"
        );
    }

    #[test]
    fn ephemeral_ports_do_not_collide_with_listeners() {
        let now = SimTime::ZERO;
        let mut p = TcpPeer::new(ip(1), TcpConfig::default());
        p.listen(32_768, 4).unwrap(); // Squat on the first ephemeral port.
        let c = p.connect(SocketAddr::new(ip(2), 80), now).unwrap();
        assert_ne!(p.local(c).unwrap().port, 32_768);
    }

    #[test]
    fn close_listener_aborts_pending() {
        let now = SimTime::ZERO;
        let mut client = TcpPeer::new(ip(1), TcpConfig::default());
        let mut server = TcpPeer::new(ip(2), TcpConfig::default());
        let lid = server.listen(80, 16).unwrap();
        let c = client.connect(SocketAddr::new(ip(2), 80), now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        server.close_listener(lid);
        pump(&mut client, ip(1), &mut server, ip(2), now);
        assert_eq!(client.state(c).unwrap(), State::Closed);
    }

    #[test]
    fn open_close_churn_does_not_grow_the_slab() {
        let mut now = SimTime::from_millis(1);
        let mut client = TcpPeer::new(ip(1), TcpConfig::default());
        let mut server = TcpPeer::new(ip(2), TcpConfig::default());
        let lid = server.listen(80, 64).unwrap();
        for round in 0..20 {
            let c = client.connect(SocketAddr::new(ip(2), 80), now).unwrap();
            pump(&mut client, ip(1), &mut server, ip(2), now);
            let s = server.accept(lid).unwrap().expect("ready");
            client.close(c, now).unwrap();
            pump(&mut client, ip(1), &mut server, ip(2), now);
            server.close(s, now).unwrap();
            pump(&mut client, ip(1), &mut server, ip(2), now);
            now = now.saturating_add(SimTime::from_millis(50));
            client.on_tick(now);
            server.on_tick(now);
            let _ = round;
        }
        // Every connection was reclaimed; the slab stabilized at a
        // couple of slots instead of growing per connection.
        assert_eq!(client.conn_count(), 0);
        assert_eq!(server.conn_count(), 0);
        assert!(client.mem_stats().timewait_records == 0);
        assert!(
            client.entries.len() <= 2,
            "slab grew to {} slots over churn",
            client.entries.len()
        );
        // Released ports surfaced for recycling.
        assert!(client.pop_released_port().is_some());
    }
}

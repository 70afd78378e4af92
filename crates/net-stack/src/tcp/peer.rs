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
//!   their drained queue boxes after [`COMPACT_DELAY`],
//!   reaching a zero-queue-heap idle footprint without ever thrashing the
//!   active path's warmed capacity.

use std::collections::hash_map::Entry;
use std::collections::{HashSet, VecDeque};
use std::net::Ipv4Addr;

use demi_memory::{BufChain, DemiBuffer};
use demi_sched::Notify;
use dpdk_sim::{FlowShadow, OffloadEvent};
use sim_fabric::SimTime;

use crate::fasthash::{flow_key, FastHashMap};
use crate::types::{Gate, NetError, SocketAddr};

use super::cb::{CbStats, ControlBlock, State, TcpSegmentOut};
use super::header::{TcpFlags, TcpHeader};
use super::seq::SeqNum;
use super::wheel::TimerWheel;
use super::{TcpConfig, MSL};

/// How long a connection must stay quiet (no segments, sends, or fired
/// timers) before the peer releases its drained queue box back to the
/// allocator. Long enough that back-to-back operations never thrash the
/// allocation; short enough that parked connections reach their
/// zero-heap idle footprint quickly. Chosen.
const COMPACT_DELAY: SimTime = SimTime::from_millis(5);

/// Handle to one connection: `generation << SLOT_BITS | slot`. The
/// generation makes recycled slots reject stale handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub u32);

/// Handle to one listener: its port in the low 16 bits, the peer's count
/// of earlier listens above them, so the handle of a closed listener
/// never reaches a later one on the same port.
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

/// One listening port (the key it is stored under).
struct Listener {
    id: ListenerId,
    /// Connections past the handshake, awaiting `accept`.
    ready: VecDeque<ConnId>,
    /// Fixed-size half-open table. Its length is the backlog, which also
    /// bounds `ready`; it never grows and is never empty.
    syn_table: Vec<Option<SynEntry>>,
    /// Fires when a connection joins `ready`, and on close.
    gate: Gate,
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
    /// Set while the connection is listed on `active_out`, so it is listed
    /// once however often it is touched before the next
    /// [`TcpPeer::drain_segments`]. Reset when the slot is freed: the
    /// stale listing is skipped, and the slot's next connection lists
    /// itself.
    out_queued: bool,
    /// Set once the application closed its handle (or, for a connection
    /// its listener never handed out, once the listener closed): nobody is
    /// left to read or ask `error()`, so the block is freed once `Closed`.
    owner_closed: bool,
    timers: TimerSlots,
    cb: Option<ControlBlock>,
    /// Fires where [`readiness`] rises and when the slot is freed; kept
    /// for the slot's next connection.
    gate: Gate,
}

/// What a parked op waits for: data or EOF to read, or a state change.
fn readiness(cb: &ControlBlock) -> (bool, State) {
    (cb.is_readable(), cb.state())
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

/// One tenant's TIME_WAIT partition.
#[derive(Default)]
struct TenantTimeWait {
    /// Cap on parked records; `None` = uncapped.
    quota: Option<usize>,
    /// Records currently charged.
    count: usize,
    /// Their flow keys in parking order, for oldest-first eviction. Keys
    /// whose record already left (expiry, RST) are skipped lazily.
    order: VecDeque<u64>,
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

/// The flow key of the TIME_WAIT record whose 2·MSL expiry `tkey` still
/// is: `None` once the record is gone or a late FIN restarted its clock.
fn live_tw_key(
    tw: &FastHashMap<u64, TimeWaitRecord>,
    tw_by_id: &FastHashMap<u32, u64>,
    tkey: &TimerKey,
) -> Option<u64> {
    let key = *tw_by_id.get(&tkey.conn.0)?;
    (tw.get(&key)?.wheel_gen as u64 == tkey.gen).then_some(key)
}

/// Deterministic but connection-dependent initial sequence number: the
/// `counter` stride plus a cheap hash of the remote end.
fn isn(counter: &mut u32, remote: SocketAddr) -> SeqNum {
    *counter = counter.wrapping_add(1);
    let mut h: u32 = 0x9E37_79B9 ^ remote.port as u32;
    for b in remote.ip.octets() {
        h = h.rotate_left(5) ^ b as u32;
    }
    SeqNum(counter.wrapping_mul(64_000).wrapping_add(h))
}

/// How a handle resolved against the slab and TIME_WAIT records.
enum Lookup<'a> {
    /// This generation's live control block.
    Live(&'a ControlBlock),
    /// Demoted to a TIME_WAIT record.
    TimeWait(&'a TimeWaitRecord),
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
    /// Packed-flow-key demux: key → connection. Invariant: values are
    /// always live (freed slots are removed eagerly).
    demux: FastHashMap<u64, ConnId>,
    /// Single-entry demux cache: the last flow that matched. Burst RX to
    /// one flow skips the map entirely. Invalidated on any slot free.
    last_demux: Option<(u64, ConnId)>,
    /// Compact TIME_WAIT records by flow key, plus a raw-id index so
    /// handles and wheel entries can find them.
    tw: FastHashMap<u64, TimeWaitRecord>,
    tw_by_id: FastHashMap<u32, u64>,
    /// Port → owning tenant, stamped by the stack at listen/connect.
    /// Absent ports are host-owned (untracked).
    port_tenants: FastHashMap<u16, u16>,
    /// Per-tenant TIME_WAIT partitions. Tenant 0 (the host) is never
    /// charged.
    tenant_tw: FastHashMap<u16, TenantTimeWait>,
    /// Listeners by port.
    listeners: FastHashMap<u16, Listener>,
    bound_ports: HashSet<u16>,
    /// Ephemeral ports whose connections fully closed; the stack drains
    /// these back to the host-wide allocator.
    released_ports: Vec<u16>,
    /// Listens so far (the high half of each [`ListenerId`]).
    listens: u32,
    next_ephemeral: u16,
    isn_counter: u32,
    /// Admission clock for SYN-table oldest-eviction.
    syn_clock: u64,
    /// Bumped whenever a control block is touched or freed or a SYN table
    /// changes: while it holds still, so do [`TcpPeer::holds_flow`] and
    /// [`TcpPeer::offload_shadow`] (a device-offload planner's walk).
    pub(crate) flow_changes: u64,
    /// Segments generated without an owning control block: RSTs, SYN-ACKs
    /// from the SYN table, TIME_WAIT re-ACKs.
    raw_out: Vec<(Ipv4Addr, TcpSegmentOut)>,
    /// The timing wheel holding every armed connection timer and
    /// TIME_WAIT expiry. Idle connections have no due entries and cost
    /// nothing per tick.
    wheel: TimerWheel<TimerKey>,
    /// Connections with queued output, in touch order (each slot's
    /// `out_queued` flag dedups). [`TcpPeer::drain_segments`] walks only
    /// these — O(active), not O(resident).
    active_out: Vec<ConnId>,
    /// Reused backing for the drain walk, so draining allocates nothing.
    active_scratch: Vec<ConnId>,
    /// Quiet connections awaiting queue-box release, as `(due, id)` in
    /// (monotone) due order.
    compact_pending: VecDeque<(SimTime, ConnId)>,
    /// Reused backing for the tick walk (due wheel entries, then the
    /// deduped fired list), so a steady-state tick allocates nothing.
    tick_due: Vec<(SimTime, TimerKey)>,
    tick_fired: Vec<u32>,
    pub(crate) keep_timewait_blocks: bool,
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
            tenant_tw: FastHashMap::default(),
            listeners: FastHashMap::default(),
            bound_ports: HashSet::new(),
            released_ports: Vec::new(),
            listens: 0,
            next_ephemeral: 32_768,
            isn_counter: 0,
            syn_clock: 0,
            flow_changes: 0,
            raw_out: Vec::new(),
            wheel: TimerWheel::new(SimTime::ZERO),
            active_out: Vec::new(),
            active_scratch: Vec::new(),
            compact_pending: VecDeque::new(),
            tick_due: Vec::new(),
            tick_fired: Vec::new(),
            keep_timewait_blocks: false,
            stats: TcpStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Slab plumbing.
    // ------------------------------------------------------------------

    fn lookup(&self, id: ConnId) -> Lookup<'_> {
        if let Some(cb) = self.live(id) {
            Lookup::Live(cb)
        } else if let Some(rec) = self.tw_by_id.get(&id.0).and_then(|key| self.tw.get(key)) {
            Lookup::TimeWait(rec)
        } else if (decode_id(id.0).0 as usize) < self.entries.len() {
            Lookup::Stale
        } else {
            Lookup::Bad
        }
    }

    /// `id`'s control block, if the handle is live.
    fn live(&self, id: ConnId) -> Option<&ControlBlock> {
        let (slot, gen) = decode_id(id.0);
        self.entries
            .get(slot as usize)
            .filter(|e| e.gen == gen)?
            .cb
            .as_ref()
    }

    /// The slab entry `id` names, if its generation is current.
    fn entry_mut(&mut self, id: ConnId) -> Option<&mut SlabEntry> {
        let (slot, gen) = decode_id(id.0);
        self.entries.get_mut(slot as usize).filter(|e| e.gen == gen)
    }

    /// Runs `f` on `id`'s live control block, then reconciles the slot
    /// with what `f` did. Returns the slot and `f`'s result, or `None` —
    /// `f` unrun — when the handle is not live.
    fn touch<R>(&mut self, id: ConnId, f: impl FnOnce(&mut ControlBlock) -> R) -> Option<(u32, R)> {
        let cb = self.entry_mut(id)?.cb.as_mut()?;
        let was = readiness(cb);
        let r = f(cb);
        let slot = decode_id(id.0).0;
        self.sync_slot(slot, was);
        Some((slot, r))
    }

    /// `Ok` for a handle this peer ever issued (a stale or TIME_WAIT one
    /// reads as closed), `BadHandle` for any other.
    fn known(&self, id: ConnId) -> Result<(), NetError> {
        match self.lookup(id) {
            Lookup::Bad => Err(NetError::BadHandle),
            _ => Ok(()),
        }
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
        let was = readiness(&cb);
        let e = &mut self.entries[slot as usize];
        e.ephemeral_port = ephemeral_port;
        e.cb = Some(cb);
        let id = encode_id(slot, e.gen);
        self.live += 1;
        self.demux.insert(key, id);
        self.sync_slot(slot, was);
        id
    }

    /// Returns a slot to the free list: bumps the generation (stale
    /// handles and wheel entries die), drops the control block, removes
    /// the demux mapping, and optionally releases an ephemeral port.
    fn free_slot(&mut self, slot: u32, release_port: bool) {
        let e = &mut self.entries[slot as usize];
        let Some(cb) = e.cb.take() else {
            return;
        };
        e.gate.fire();
        self.flow_changes += 1;
        let port = cb.local().port;
        let remote = cb.remote();
        for kind in 0..TIMER_KINDS {
            e.timers.deadline[kind] = None;
            e.timers.gen[kind] += 1;
        }
        e.gen = (e.gen + 1) % GEN_LIMIT;
        let eph = e.ephemeral_port;
        e.ephemeral_port = false;
        (e.out_queued, e.owner_closed) = (false, false);
        self.live -= 1;
        self.free.push(slot);
        self.demux.remove(&flow_key(port, remote.ip, remote.port));
        self.last_demux = None;
        if release_port && eph {
            self.bound_ports.remove(&port);
            self.released_ports.push(port);
        }
    }

    /// Frees a `Closed` connection nobody can learn more from: one whose
    /// owner closed the handle (whatever it still holds: nobody is left to
    /// read it or ask `error()`), or one that finished cleanly with nothing
    /// left for the application or the wire. A block that died with an
    /// error stays resident until its owner closes, so `error()` answers.
    fn reap_slot(&mut self, slot: u32) {
        let e = &self.entries[slot as usize];
        let Some(cb) = e.cb.as_ref() else {
            return;
        };
        // Queues are empty when the box was never allocated (heap 0) or
        // when it is allocated but drained (`queues_idle`).
        let done =
            e.owner_closed || (cb.error().is_none() && (cb.heap_bytes() == 0 || cb.queues_idle()));
        if cb.state() == State::Closed && done {
            self.free_slot(slot, true);
        }
    }

    /// Reconciles the wheel, the dirty output list, the compaction queue
    /// and the gate — fired only if [`readiness`] rose from `was`, so a
    /// pop's own drain never re-wakes it — with one connection's control
    /// block. Called after every operation that can touch a CB.
    fn sync_slot(&mut self, slot: u32, was: (bool, State)) {
        self.flow_changes += 1;
        let TcpPeer {
            entries,
            wheel,
            active_out,
            compact_pending,
            ..
        } = self;
        let e = &mut entries[slot as usize];
        let id = encode_id(slot, e.gen);
        let Some(cb) = e.cb.as_mut() else {
            return;
        };
        let (readable, state) = readiness(cb);
        if (readable && !was.0) || state != was.1 {
            e.gate.fire();
        }
        for (kind, &deadline) in cb.timer_deadlines().iter().enumerate() {
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
        if cb.has_outbox() && !std::mem::replace(&mut e.out_queued, true) {
            active_out.push(id);
        }
        if cb.queues_idle() && !cb.compact_enrolled() {
            cb.set_compact_enrolled(true);
            compact_pending.push_back((cb.last_active().saturating_add(COMPACT_DELAY), id));
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
            let Some(cb) = self.entry_mut(id).and_then(|e| e.cb.as_mut()) else {
                continue;
            };
            if !cb.queues_idle() {
                // Queues refilled since enrollment; sync_slot re-enrolls
                // when they next drain.
                cb.set_compact_enrolled(false);
            } else if now.saturating_since(cb.last_active()) >= COMPACT_DELAY {
                cb.release_queues();
                cb.set_compact_enrolled(false);
            } else {
                // Active again since enrollment; give it a fresh quiet
                // window.
                let due = cb.last_active().saturating_add(COMPACT_DELAY);
                self.compact_pending.push_back((due, id));
            }
        }
    }

    // ------------------------------------------------------------------
    // Socket API.
    // ------------------------------------------------------------------

    /// Starts listening on `port`.
    pub fn listen(&mut self, port: u16, backlog: usize) -> Result<ListenerId, NetError> {
        if !self.bound_ports.insert(port) {
            return Err(NetError::AddrInUse(port));
        }
        let id = ListenerId(self.listens << 16 | u32::from(port));
        self.listens = self.listens.wrapping_add(1);
        let mut syn_table = Vec::new();
        syn_table.resize_with(backlog.max(1), || None);
        let (ready, gate) = (VecDeque::new(), Gate::default());
        self.listeners.insert(
            port,
            Listener {
                id,
                ready,
                syn_table,
                gate,
            },
        );
        Ok(id)
    }

    /// Pops an established connection off the listener's backlog.
    pub fn accept(&mut self, listener: ListenerId) -> Result<Option<ConnId>, NetError> {
        let l = self.listeners.get_mut(&(listener.0 as u16));
        let l = l.filter(|l| l.id == listener).ok_or(NetError::BadHandle)?;
        Ok(l.ready.pop_front())
    }

    /// A live listener's gate.
    pub(crate) fn listener_gate(&mut self, listener: ListenerId) -> Result<Notify, NetError> {
        let l = self.listeners.get_mut(&(listener.0 as u16));
        let l = l.filter(|l| l.id == listener).ok_or(NetError::BadHandle)?;
        Ok(l.gate.get())
    }

    /// The gate of `conn`'s slot (a gone connection's ops resolve at their
    /// first check).
    pub(crate) fn conn_gate(&mut self, conn: ConnId) -> Result<Notify, NetError> {
        let e = self.entries.get_mut(decode_id(conn.0).0 as usize);
        Ok(e.ok_or(NetError::BadHandle)?.gate.get())
    }

    /// Stops listening; half-open entries vanish (the SYN table is
    /// dropped) and ready-but-unaccepted connections are aborted. Nobody
    /// ever owned those, so each is marked owner-closed and freed once
    /// its RST has left through [`TcpPeer::drain_segments`]. Returns the
    /// port the listener held, `None` for an unknown handle.
    pub(crate) fn close_listener(&mut self, listener: ListenerId) -> Option<u16> {
        let port = listener.0 as u16;
        let Entry::Occupied(l) = self.listeners.entry(port) else {
            return None;
        };
        if l.get().id != listener {
            return None;
        }
        self.bound_ports.remove(&port);
        self.flow_changes += 1;
        let l = l.remove();
        l.gate.fire();
        for id in l.ready {
            if let Some((slot, ())) = self.touch(id, ControlBlock::abort) {
                self.entries[slot as usize].owner_closed = true;
            }
        }
        Some(port)
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
    pub(crate) fn connect_bound(
        &mut self,
        local_port: u16,
        remote: SocketAddr,
        now: SimTime,
    ) -> ConnId {
        self.bound_ports.insert(local_port);
        let local = SocketAddr::new(self.local_ip, local_port);
        let iss = isn(&mut self.isn_counter, remote);
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
            if self.bound_ports.insert(candidate) {
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
            Lookup::Live(cb) => Ok(cb.state()),
            Lookup::TimeWait(_) => Ok(State::TimeWait),
            Lookup::Stale => Ok(State::Closed),
            Lookup::Bad => Err(NetError::BadHandle),
        }
    }

    /// Connection error, if the connection failed. (Connections that fail
    /// stay resident until their error is observed via a fresh handle
    /// lookup; cleanly-closed connections are reclaimed and report none.)
    pub(crate) fn error(&self, conn: ConnId) -> Option<NetError> {
        self.live(conn)?.error().cloned()
    }

    /// Queues data for transmission: the one-buffer case of
    /// [`TcpPeer::send_all`].
    pub fn send(&mut self, conn: ConnId, data: DemiBuffer, now: SimTime) -> Result<(), NetError> {
        self.send_all(conn, std::iter::once(data), now)
    }

    /// Queues every buffer of one push and runs the connection's output
    /// engine once (`ControlBlock::send_all`): all or none are queued.
    pub fn send_all(
        &mut self,
        conn: ConnId,
        bufs: impl IntoIterator<Item = DemiBuffer>,
        now: SimTime,
    ) -> Result<(), NetError> {
        if let Some((_, sent)) = self.touch(conn, |cb| cb.send_all(bufs, now)) {
            return sent;
        }
        Err(match self.lookup(conn) {
            Lookup::TimeWait(_) => NetError::Closed,
            Lookup::Stale => NetError::NotConnected,
            _ => NetError::BadHandle,
        })
    }

    /// Pops one received stream chunk (zero-copy, in order).
    pub fn recv(&mut self, conn: ConnId) -> Result<Option<DemiBuffer>, NetError> {
        self.recv_with(conn, ControlBlock::recv)
    }

    /// Pops every in-order chunk that has arrived onto `out`, growing it
    /// at most once.
    pub(crate) fn recv_all(
        &mut self,
        conn: ConnId,
        out: &mut Vec<DemiBuffer>,
    ) -> Result<(), NetError> {
        self.recv_with(conn, |cb| cb.recv_all(out))
    }

    /// Runs `pop` on a live connection; any other known one pops nothing.
    fn recv_with<R: Default>(
        &mut self,
        conn: ConnId,
        pop: impl FnOnce(&mut ControlBlock) -> R,
    ) -> Result<R, NetError> {
        let Some((slot, got)) = self.touch(conn, pop) else {
            return self.known(conn).map(|()| R::default());
        };
        // Draining the last buffered data may make a cleanly closed
        // connection reclaimable.
        self.reap_slot(slot);
        Ok(got)
    }

    /// Whether the connection has readable data or EOF.
    pub(crate) fn is_readable(&self, conn: ConnId) -> bool {
        match self.lookup(conn) {
            Lookup::Live(cb) => cb.is_readable(),
            Lookup::TimeWait(_) | Lookup::Stale => true, // EOF is readable.
            Lookup::Bad => false,
        }
    }

    /// Whether the peer closed and all data was drained.
    pub fn at_eof(&self, conn: ConnId) -> bool {
        match self.lookup(conn) {
            Lookup::Live(cb) => cb.at_eof(),
            Lookup::TimeWait(_) | Lookup::Stale => true,
            Lookup::Bad => false,
        }
    }

    /// Graceful close. The handle is the owner's last word: a block that
    /// has died, or later dies, with an error is freed (with its
    /// ephemeral port) as soon as it is `Closed`.
    pub fn close(&mut self, conn: ConnId, now: SimTime) -> Result<(), NetError> {
        let Some((slot, ())) = self.touch(conn, |cb| cb.close(now)) else {
            return self.known(conn);
        };
        self.entries[slot as usize].owner_closed = true;
        self.reap_slot(slot);
        Ok(())
    }

    /// Remote endpoint of a connection.
    pub fn remote(&self, conn: ConnId) -> Result<SocketAddr, NetError> {
        match self.lookup(conn) {
            Lookup::Live(cb) => Ok(cb.remote()),
            Lookup::TimeWait(rec) => Ok(rec.remote),
            _ => Err(NetError::BadHandle),
        }
    }

    /// Local endpoint of a connection.
    pub fn local(&self, conn: ConnId) -> Result<SocketAddr, NetError> {
        match self.lookup(conn) {
            Lookup::Live(cb) => Ok(cb.local()),
            Lookup::TimeWait(rec) => Ok(SocketAddr::new(self.local_ip, rec.local_port)),
            _ => Err(NetError::BadHandle),
        }
    }

    /// Per-connection protocol counters. Reclaimed connections report
    /// zeroes.
    pub(crate) fn conn_stats(&self, conn: ConnId) -> Result<CbStats, NetError> {
        match self.lookup(conn) {
            Lookup::Live(cb) => Ok(cb.stats()),
            Lookup::TimeWait(_) | Lookup::Stale => Ok(CbStats::default()),
            Lookup::Bad => Err(NetError::BadHandle),
        }
    }

    // ------------------------------------------------------------------
    // TIME_WAIT records.
    // ------------------------------------------------------------------

    /// Tags `port` with its owning tenant: TIME_WAIT records from
    /// connections on the port are charged to that tenant's partition.
    /// Tenant 0 (host) clears the tag.
    pub(crate) fn tag_port_tenant(&mut self, port: u16, tenant: u16) {
        if tenant == 0 {
            self.port_tenants.remove(&port);
        } else {
            self.port_tenants.insert(port, tenant);
        }
    }

    /// Caps the parked TIME_WAIT records charged to `tenant`: beyond the
    /// quota the tenant's own oldest record is evicted (a quota drop) —
    /// never another tenant's. TIME_WAIT memory is thereby partitioned.
    pub(crate) fn set_tenant_tw_quota(&mut self, tenant: u16, quota: usize) {
        self.tenant_tw.entry(tenant).or_default().quota = Some(quota.max(1));
    }

    /// Parked TIME_WAIT records currently charged to `tenant`.
    pub(crate) fn tw_count_for(&self, tenant: u16) -> usize {
        self.tenant_tw.get(&tenant).map_or(0, |t| t.count)
    }

    /// Occupied SYN-table slots for the listener on `port` (0 when not
    /// listening). SYN tables are per-listener — and a port has one
    /// owning tenant — so this is the per-tenant half-open partition.
    pub(crate) fn syn_backlog_used(&self, port: u16) -> usize {
        let l = self.listeners.get(&port);
        l.map_or(0, |l| l.syn_table.iter().flatten().count())
    }

    /// Drops the TIME_WAIT record for `key`, if any: unindexes it,
    /// releases its ephemeral port and uncharges its tenant.
    fn release_tw(&mut self, key: u64) -> bool {
        let Some(rec) = self.tw.remove(&key) else {
            return false;
        };
        self.tw_by_id.remove(&rec.owner_id);
        if rec.ephemeral {
            self.bound_ports.remove(&rec.local_port);
            self.released_ports.push(rec.local_port);
        }
        if let Some(t) = self.tenant_tw.get_mut(&rec.tenant) {
            t.count = t.count.saturating_sub(1);
        }
        true
    }

    /// Evicts `tenant`'s own oldest parked TIME_WAIT record to make room
    /// under its quota (stale order keys are skipped). Ports release as
    /// on expiry.
    fn evict_oldest_tw(&mut self, tenant: u16) -> bool {
        while let Some(key) = self
            .tenant_tw
            .get_mut(&tenant)
            .and_then(|t| t.order.pop_front())
        {
            if self.tw.get(&key).is_some_and(|r| r.tenant == tenant) {
                self.release_tw(key);
                demi_tenant::counters::note_quota_drop();
                return true;
            }
        }
        false
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
            let full = |t: &TenantTimeWait| t.quota.is_some_and(|q| t.count >= q);
            while self.tenant_tw.get(&tenant).is_some_and(full) && self.evict_oldest_tw(tenant) {}
            let t = self.tenant_tw.entry(tenant).or_default();
            t.count += 1;
            t.order.push_back(key);
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
        if hdr.flags.rst {
            let found = self.release_tw(key);
            self.stats.demuxed += u64::from(found);
            return found;
        }
        let Some(rec) = self.tw.get_mut(&key) else {
            return false;
        };
        self.stats.demuxed += 1;
        if hdr.flags.fin {
            let window = self.config.recv_capacity.min(65_535) as u16;
            let expiry = now.saturating_add(MSL.saturating_mul(2));
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
                    payload: BufChain::new(),
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

    // ------------------------------------------------------------------
    // Stack-facing interface.
    // ------------------------------------------------------------------

    /// Handles one received TCP segment, its payload a chain of views of
    /// the frame's segments (a flat buffer is a chain of one).
    pub fn on_segment(
        &mut self,
        src_ip: Ipv4Addr,
        hdr: &TcpHeader,
        payload: impl Into<BufChain>,
        now: SimTime,
    ) {
        let payload = payload.into();
        let key = flow_key(hdr.dst_port, src_ip, hdr.src_port);
        crate::counters::note_demux_lookup();
        let hit = match self.last_demux {
            Some((k, id)) if k == key => {
                crate::counters::note_demux_cache_hit();
                Some(id)
            }
            _ => {
                let found = self.demux.get(&key).copied();
                if let Some(id) = found {
                    self.last_demux = Some((key, id));
                }
                found
            }
        };
        if let Some(id) = hit {
            self.stats.demuxed += 1;
            if let Some((slot, ())) = self.touch(id, |cb| cb.on_segment(hdr, payload, now)) {
                self.reap_slot(slot);
            }
            return;
        }

        if self.handle_timewait_segment(key, hdr, now) {
            return;
        }

        let payload_len = payload.len() as u32;
        if self.handle_listener_segment(key, src_ip, hdr, payload, now) {
            return;
        }

        // Nothing matched: refuse with RST (unless this is itself a RST).
        if hdr.flags.rst {
            self.stats.unmatched += 1;
            return;
        }
        let ack = hdr.seq + payload_len + hdr.flags.syn as u32 + hdr.flags.fin as u32;
        self.send_reset(src_ip, hdr, ack);
    }

    /// Refuses `hdr` from `dst` with a RST acknowledging through `ack`.
    fn send_reset(&mut self, dst: Ipv4Addr, hdr: &TcpHeader, ack: SeqNum) {
        self.stats.resets_sent += 1;
        let header = TcpHeader {
            src_port: hdr.dst_port,
            dst_port: hdr.src_port,
            seq: if hdr.flags.ack { hdr.ack } else { SeqNum(0) },
            ack,
            flags: TcpFlags::RST_ACK,
            window: 0,
            mss: None,
        };
        let payload = BufChain::new();
        self.raw_out.push((dst, TcpSegmentOut { header, payload }));
    }

    /// Handles a segment to a listening port that matched no connection,
    /// without allocating anything per connection until the handshake
    /// completes: a SYN takes a slot of the fixed-size SYN table and gets
    /// a SYN-ACK, a RST drops its half-open entry, and the final ACK
    /// promotes the entry to a control block queued for `accept`.
    /// Returns `false` — nothing listens on the port, or nothing
    /// half-open matches — for the unmatched-RST path.
    fn handle_listener_segment(
        &mut self,
        key: u64,
        src_ip: Ipv4Addr,
        hdr: &TcpHeader,
        payload: BufChain,
        now: SimTime,
    ) -> bool {
        let Some(l) = self.listeners.get_mut(&hdr.dst_port) else {
            return false;
        };
        let found = l
            .syn_table
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.key == key));
        if hdr.flags.syn && !hdr.flags.ack {
            let remote = SocketAddr::new(src_ip, hdr.src_port);
            let resent = found.and_then(|i| l.syn_table[i].as_mut());
            let (iss, irs) = match resent.filter(|e| e.irs == hdr.seq) {
                // Retransmitted SYN (our SYN-ACK was lost): re-send it
                // identically, and stop trusting its RTT sample.
                Some(e) => {
                    e.retransmitted = true;
                    (e.iss, e.irs)
                }
                None => {
                    self.flow_changes += 1;
                    // A fresh attempt takes its 4-tuple's stale entry,
                    // else a free slot, else the oldest: under a SYN
                    // flood that recycles attacker entries, and an
                    // evicted legitimate client retries its SYN.
                    let free = || l.syn_table.iter().position(Option::is_none);
                    let idx = found.or_else(free).unwrap_or_else(|| {
                        self.stats.syns_evicted += 1;
                        crate::counters::note_syn_evicted();
                        let age = |e: &Option<SynEntry>| e.as_ref().map_or(0, |e| e.created);
                        let oldest = l.syn_table.iter().enumerate().min_by_key(|(_, e)| age(e));
                        oldest.map_or(0, |(i, _)| i)
                    });
                    let iss = isn(&mut self.isn_counter, remote);
                    l.syn_table[idx] = Some(SynEntry {
                        key,
                        remote,
                        irs: hdr.seq,
                        iss,
                        peer_mss: hdr.mss,
                        synack_time: now,
                        retransmitted: false,
                        created: self.syn_clock,
                    });
                    self.syn_clock += 1;
                    self.stats.syns_accepted += 1;
                    (iss, hdr.seq)
                }
            };
            let header = TcpHeader {
                src_port: hdr.dst_port,
                dst_port: remote.port,
                seq: iss,
                ack: irs + 1,
                flags: TcpFlags::SYN_ACK,
                window: self.config.recv_capacity.min(65_535) as u16,
                mss: Some(self.config.mss as u16),
            };
            let payload = BufChain::new();
            self.raw_out
                .push((src_ip, TcpSegmentOut { header, payload }));
            return true;
        }
        let Some(idx) = found else {
            return false;
        };
        self.flow_changes += 1;
        if hdr.flags.rst {
            // The client gave up on a half-open attempt.
            l.syn_table[idx] = None;
            self.stats.demuxed += 1;
            return true;
        }
        // Only the final ACK promotes the entry. A wrong-ack ACK is
        // ignored, like the old SYN_RCVD control block did, and so is
        // anything else: the client's retransmissions sort it out.
        let completes = |e: &mut SynEntry| hdr.flags.ack && hdr.ack == e.iss + 1;
        let Some(entry) = l.syn_table[idx].take_if(completes) else {
            return true;
        };
        self.stats.demuxed += 1;
        if l.ready.len() >= l.syn_table.len() {
            // Accept queue full: refuse the completed handshake with RST
            // rather than allocating a control block nobody will accept.
            self.stats.syns_dropped_backlog += 1;
            let ack = hdr.seq + payload.len() as u32 + hdr.flags.fin as u32;
            self.send_reset(src_ip, hdr, ack);
            return true;
        }
        // Build the established control block (the first per-connection
        // allocation) and replay the completing ACK through it, so its
        // window and any piggybacked payload land exactly as they did when
        // SYN_RCVD control blocks processed this segment.
        let local = SocketAddr::new(self.local_ip, hdr.dst_port);
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
        cb.on_segment(hdr, payload, now);
        let id = self.alloc_conn(cb, false);
        // `alloc_conn` needs all of `self`, so the listener is found again.
        if let Some(l) = self.listeners.get_mut(&hdr.dst_port) {
            l.ready.push_back(id);
            l.gate.fire();
        }
        true
    }

    /// Whether [`TcpPeer::on_tick`] at `now` would do anything: a wheel
    /// entry to fire or cascade, or a compaction falling due. O(1).
    pub(crate) fn tick_needed(&self, now: SimTime) -> bool {
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
                match live_tw_key(&self.tw, &self.tw_by_id, &tkey) {
                    Some(key) => {
                        self.release_tw(key);
                        crate::counters::note_tw_expired();
                        crate::counters::note_timer_fired();
                        events += 1;
                    }
                    None => crate::counters::note_timer_stale(),
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
            let id = encode_id(slot, e.gen);
            events += self.touch(id, |cb| cb.on_tick(now)).map_or(0, |(_, n)| n);
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
            if self.live(id).is_some_and(ControlBlock::compact_enrolled) {
                break Some(due);
            }
            self.compact_pending.pop_front();
        };
        let TcpPeer {
            wheel,
            entries,
            tw,
            tw_by_id,
            ..
        } = self;
        let wheel_due = wheel.peek_earliest_live(|tkey| {
            let live = if tkey.kind == TW_KIND {
                live_tw_key(tw, tw_by_id, tkey).is_some()
            } else {
                live_timer_slot(entries, tkey).is_some()
            };
            if !live {
                crate::counters::note_timer_stale();
            }
            live
        });
        match (wheel_due, compact_due) {
            (Some(w), Some(c)) => Some(w.min(c)),
            (w, c) => w.or(c),
        }
    }

    /// Whether [`TcpPeer::drain_segments`] or
    /// [`TcpPeer::pop_released_port`] has anything to hand over. O(1).
    pub(crate) fn has_output(&self) -> bool {
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
                // A listing whose slot was freed since is skipped; the
                // slot's flag was reset with it.
                let Some(e) = self.entry_mut(id) else {
                    continue;
                };
                e.out_queued = false;
                let Some(cb) = e.cb.as_mut() else {
                    continue;
                };
                let dst = cb.remote().ip;
                cb.drain_outbox_into(dst, out);
                // With the closing ACK on the wire, a drained TIME_WAIT
                // block can demote and a finished block can be reclaimed.
                let slot = decode_id(id.0).0;
                self.maybe_demote_slot(slot);
                self.reap_slot(slot);
            }
            self.active_scratch.clear();
        }
        if out.capacity() > cap_before {
            crate::counters::note_outbox_scratch_grow();
        }
    }

    // ------------------------------------------------------------------
    // Device-offload planner interface (see `ControlBlock`'s offload
    // section). Every mutation goes through `sync_slot` like any other
    // control-block touch, so timers and the dirty output list stay
    // consistent.
    // ------------------------------------------------------------------

    /// Every connection on local `port`, with its remote endpoint and the
    /// shadow it would hand a device offload if it is quiescent enough to
    /// arm (the planner's scan when an offload is installed). A
    /// cache-linear slab walk that allocates nothing.
    pub(crate) fn conns_on_port(
        &self,
        port: u16,
    ) -> impl Iterator<Item = (SocketAddr, Option<FlowShadow>)> + '_ {
        let cbs = self.entries.iter().filter_map(|e| e.cb.as_ref());
        cbs.filter(move |cb| cb.local().port == port)
            .map(|cb| (cb.remote(), cb.offload_shadow()))
    }

    /// The connection the demux table holds for local `port` and
    /// `remote` — the planner's flow → connection map.
    pub(crate) fn demux_conn(&self, port: u16, remote: SocketAddr) -> Option<ConnId> {
        self.demux
            .get(&flow_key(port, remote.ip, remote.port))
            .copied()
    }

    /// Whether the peer holds any state for the flow from `remote` to
    /// local `port`: a connection, or a half-open entry in the port's SYN
    /// table.
    pub(crate) fn holds_flow(&self, port: u16, remote: SocketAddr) -> bool {
        let key = flow_key(port, remote.ip, remote.port);
        let half_open = |l: &Listener| l.syn_table.iter().flatten().any(|e| e.key == key);
        self.demux.contains_key(&key) || self.listeners.get(&port).is_some_and(half_open)
    }

    /// The shadow the connection from `remote` to local `port` would hand
    /// a device offload, if it is live and quiescent enough to arm.
    pub(crate) fn offload_shadow(&self, port: u16, remote: SocketAddr) -> Option<FlowShadow> {
        self.live(self.demux_conn(port, remote)?)?.offload_shadow()
    }

    /// Applies one device sync event to `conn`.
    pub(crate) fn apply_offload(&mut self, conn: ConnId, event: OffloadEvent, now: SimTime) {
        self.touch(conn, |cb| cb.apply_offload(event, now));
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
        let demux_bytes = self.demux.capacity() * (size_of::<u64>() + size_of::<ConnId>() + 1);
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

    impl TcpPeer {
        /// Collects every queued segment into a fresh vector. Test
        /// convenience; the datapath uses [`TcpPeer::drain_segments`] with a
        /// reused buffer.
        fn take_segments(&mut self) -> Vec<(Ipv4Addr, TcpSegmentOut)> {
            let mut out = Vec::new();
            self.drain_segments(&mut out);
            out
        }
    }

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

    /// A connection freed while listed for output, its slot reused before
    /// the next drain: the stale listing is skipped, and the slot's new
    /// connection — whose dirty flag was reset with the slot — is listed
    /// and drained.
    #[test]
    fn a_reused_slot_keeps_its_output() {
        let now = SimTime::ZERO;
        let (mut client, _server, x, _) = connected_pair();
        client
            .send(x, DemiBuffer::from_slice(b"doomed"), now)
            .unwrap();
        let (local, remote) = (client.local(x).unwrap(), client.remote(x).unwrap());
        let rst = TcpHeader {
            src_port: remote.port,
            dst_port: local.port,
            seq: SeqNum(0),
            ack: SeqNum(0),
            flags: TcpFlags::RST_ACK,
            window: 0,
            mss: None,
        };
        client.on_segment(remote.ip, &rst, DemiBuffer::empty(), now);
        client.close(x, now).unwrap();
        assert_eq!(client.conn_count(), 0, "an errored block frees at close");
        let y = client.connect(remote, now).unwrap();
        assert_eq!(decode_id(y.0).0, decode_id(x.0).0, "the same slot");
        let out = client.take_segments();
        let y_port = client.local(y).unwrap().port;
        assert_eq!(out.len(), 1, "only the new connection's SYN");
        assert!(out[0].1.header.flags.syn && out[0].1.header.src_port == y_port);
    }

    /// A block that dies with an error after its owner closed the handle
    /// is freed then: nobody is left to ask `error()`.
    #[test]
    fn a_block_reset_after_its_owner_closed_is_freed() {
        let now = SimTime::ZERO;
        let (mut client, _server, c, _) = connected_pair();
        client.close(c, now).unwrap();
        let (local, remote) = (client.local(c).unwrap(), client.remote(c).unwrap());
        let rst = TcpHeader {
            src_port: remote.port,
            dst_port: local.port,
            seq: SeqNum(0),
            ack: SeqNum(0),
            flags: TcpFlags::RST_ACK,
            window: 0,
            mss: None,
        };
        client.on_segment(remote.ip, &rst, DemiBuffer::empty(), now);
        assert_eq!(client.conn_count(), 0);
        assert_eq!(client.state(c), Ok(State::Closed));
        assert_eq!(client.pop_released_port(), Some(local.port));
        assert!(!client.is_port_bound(local.port));
    }

    /// A block its owner closed with data still unread is freed once
    /// `Closed`: nobody is left to read it.
    #[test]
    fn a_block_closed_with_unread_data_is_freed() {
        let now = SimTime::ZERO;
        let (mut client, mut server, c, s) = connected_pair();
        server
            .send(s, DemiBuffer::from_slice(b"never read"), now)
            .unwrap();
        server.close(s, now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        assert_eq!(client.state(c), Ok(State::CloseWait));
        client.close(c, now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        assert_eq!(client.state(c), Ok(State::Closed));
        assert_eq!(client.conn_count(), 0);
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

    /// A connection its listener never handed out is freed once the
    /// abort's RST has left: nobody can ever close it.
    #[test]
    fn close_listener_frees_the_blocks_it_aborts() {
        let now = SimTime::ZERO;
        let mut client = TcpPeer::new(ip(1), TcpConfig::default());
        let mut server = TcpPeer::new(ip(2), TcpConfig::default());
        let lid = server.listen(80, 16).unwrap();
        client.connect(SocketAddr::new(ip(2), 80), now).unwrap();
        pump(&mut client, ip(1), &mut server, ip(2), now);
        assert_eq!(server.conn_count(), 1);
        server.close_listener(lid);
        pump(&mut client, ip(1), &mut server, ip(2), now);
        assert_eq!(server.conn_count(), 0);
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

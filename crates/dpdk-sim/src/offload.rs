//! Device-resident TCP offload programs: ACK absorption, echo
//! short-circuiting, and a NIC-resident KV GET cache.
//!
//! This is the restricted "offload program" model the paper's libOS vision
//! calls for: the device does not run arbitrary code, it runs ONE verified
//! engine shape — a flow table + request/reply state machine —
//! *parameterized by data* (which flows are armed, what the cache holds).
//! The host libOS planner arms individual established flows into the
//! engine; the device then answers work on those flows without an
//! RX→host→TX crossing:
//!
//! * **Pure-ACK absorption** — a flag-free, payload-free, in-order ACK that
//!   strictly advances the cumulative acknowledgment is consumed on the
//!   device; the host learns about it through an [`OffloadEvent::AckAdvance`]
//!   sync event instead of paying a full host crossing.
//! * **Echo short-circuiting** — framed request messages on an armed flow
//!   are answered by the device with an identical framed reply.
//! * **KV GET cache** — `G<key>` requests are answered from a bounded,
//!   LRU-evicted device-memory cache; `S<key>=…`/`D<key>` messages
//!   write-through-invalidate the cached key *even on flows the device is
//!   not actively serving*, and unparseable traffic conservatively clears
//!   the whole cache — so a stale hit is impossible.
//!
//! # Shadow-state sync protocol
//!
//! The host TCP control block stays authoritative. The device keeps only a
//! compact shadow per armed flow — `rcv_nxt`/`snd_nxt`/window/mss — and
//! reports everything it consumes or produces through an in-order event
//! queue the host drains *before* it processes any delivered frame:
//!
//! * [`OffloadEvent::Served`] — the device consumed `rx_len` request bytes
//!   and transmitted `reply`; the host advances `rcv_nxt` without
//!   delivering to the app and mirrors the reply into its retransmission
//!   queue without emitting it (so host loss recovery still owns the
//!   bytes).
//! * [`OffloadEvent::AckAdvance`] — the host runs its normal ACK
//!   processing (clears mirrored segments, updates windows).
//! * [`OffloadEvent::Flushed`] — bytes the device had absorbed for
//!   reassembly but could not serve are handed back; the host ACKs and
//!   delivers them exactly as if the frames had arrived normally.
//! * [`OffloadEvent::FellBack`] — the flow is now host-pending; the
//!   planner re-arms it once the control block is quiescent again.
//!
//! # Fallback invariants
//!
//! The device serves a segment only when ALL of: the flow is armed and
//! active, the segment is flag-free (no SYN/FIN/RST), exactly in order
//! (`seq == rcv_nxt + pending`), and its bytes complete framed messages
//! the service can answer (echo always; KV only on a cache hit). Anything
//! else — retransmits, out-of-order arrivals, window probes, duplicate
//! ACKs, cache misses, SETs, oversized replies, reassembly overflow —
//! flushes the pending bytes to the host and delivers the frame: the host
//! path remains complete and the device path is a pure fast path.
//!
//! Crucially the device never acknowledges a byte before either serving it
//! (the reply's ACK field covers it) or flushing it to the host (whose own
//! ACK covers it), so the client's retransmission machinery remains
//! correct with no device state to lose.
//!
//! # Honest accounting
//!
//! Every frame the engine examines, absorbs, or answers costs *device*
//! cycles (`CYCLES_*`), charged through the owning program slot — offload
//! is never modeled as free. Cache memory is bounded (`capacity_bytes`)
//! and accounted per entry; reassembly buffers are bounded per flow
//! ([`MAX_PENDING_BYTES`]).
//!
//! # One wire view
//!
//! The engine parses frames with the host's parser chain ([`crate::wire`],
//! checksums verified) and the host decoder's `parse_header`, so it never
//! acts on a segment the host would reject: such a frame is delivered
//! untouched — no event, absorb, reply or fallback — for the host to count.

use std::collections::{HashMap, VecDeque};

use demi_memory::DemiBuffer;
use sim_fabric::SimTime;

use crate::wire::eth::{EthHeader, EtherType, ETH_HEADER_LEN};
use crate::wire::framing::{encode_header, parse_header, FRAME_HEADER_LEN};
use crate::wire::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use crate::wire::seq::SeqNum;
use crate::wire::tcp::{TcpFlags, TcpHeader, TCP_HEADER_LEN};

/// Per-flow reassembly bound: device memory is finite, so a flow whose
/// pending (absorbed, unserved) bytes would exceed this falls back.
pub(crate) const MAX_PENDING_BYTES: usize = 4096;

/// Device cycles to parse/classify one examined frame.
pub(crate) const CYCLES_PARSE: u64 = 12;
/// Device cycles to absorb one in-order partial segment into reassembly.
pub(crate) const CYCLES_REASSEMBLE: u64 = 8;
/// Device cycles to absorb one pure ACK.
pub(crate) const CYCLES_ACK_ABSORB: u64 = 18;
/// Device cycles to build and transmit one reply segment.
pub(crate) const CYCLES_SERVE_BASE: u64 = 60;
/// Additional device cycles per 16 payload bytes served.
pub(crate) const CYCLES_SERVE_PER_16B: u64 = 1;
/// Device cycles for one KV cache lookup.
pub(crate) const CYCLES_KV_LOOKUP: u64 = 24;
/// Device cycles for one write-through invalidation.
pub(crate) const CYCLES_KV_INVALIDATE: u64 = 10;

/// Identifies an armed flow: (remote IPv4, remote port). The local port is
/// fixed per engine instance.
pub type FlowKey = ([u8; 4], u16);

/// The service an engine instance provides on its port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadService {
    /// Answer each framed request with an identical framed reply.
    Echo,
    /// Serve `G<key>` hits from device memory, bounded by `capacity_bytes`.
    KvCache {
        /// Device-memory budget for cached keys + values.
        capacity_bytes: usize,
    },
}

/// Host-provided shadow of a flow's sequence state at arm time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowShadow {
    /// Next in-order byte the *host* expects from the client.
    pub rcv_nxt: u32,
    /// Next sequence number the server side will transmit.
    pub snd_nxt: u32,
    /// Receive window the device advertises in replies.
    pub window: u16,
    /// Largest reply payload the device may emit in one segment.
    pub mss: usize,
}

/// A sync event from device to host. Events are strictly ordered with
/// respect to delivered frames: the device pushes them synchronously while
/// processing RX, and the host drains the whole queue before dispatching
/// any frame from its rings.
#[derive(Debug)]
pub enum OffloadEvent {
    /// The device absorbed a pure ACK: run host ACK processing.
    AckAdvance {
        /// Flow the ACK arrived on.
        key: FlowKey,
        /// Cumulative acknowledgment number.
        ack: u32,
        /// Client's advertised window.
        window: u16,
    },
    /// The device consumed `rx_len` request bytes and transmitted `reply`.
    Served {
        /// Flow the request arrived on.
        key: FlowKey,
        /// Request bytes consumed (framing header included).
        rx_len: u32,
        /// The framed reply payload the device transmitted; the host
        /// mirrors it into its retransmission queue without emitting.
        reply: DemiBuffer,
        /// Device timestamp of the serve (for sync-lag telemetry).
        served_at: SimTime,
    },
    /// Absorbed-but-unserved bytes handed back to the host, which must
    /// acknowledge and deliver them as if the frames had arrived normally.
    Flushed {
        /// Flow the bytes belong to.
        key: FlowKey,
        /// The in-order bytes, starting exactly at the host's `rcv_nxt`.
        data: DemiBuffer,
    },
    /// The flow is now host-pending (re-arm when quiescent again).
    FellBack {
        /// Flow that fell back.
        key: FlowKey,
    },
}

/// Engine counters (device-side view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffloadStats {
    /// Requests answered entirely on the device.
    pub served: u64,
    /// Pure ACKs absorbed without a host crossing.
    pub acks_absorbed: u64,
    /// Flows that fell back to the host path.
    pub fallbacks: u64,
    /// Bytes returned to the host via `Flushed` events.
    pub flushed_bytes: u64,
    /// KV cache hits.
    pub kv_hits: u64,
    /// KV lookups that missed (request fell back to the host).
    pub kv_misses: u64,
    /// Keys invalidated by write-through SET/DEL observation.
    pub kv_invalidations: u64,
    /// Entries evicted to respect the device-memory bound.
    pub kv_evictions: u64,
    /// Conservative whole-cache clears on unparseable traffic.
    pub kv_clears: u64,
    /// Current cache memory use (keys + values), bytes.
    pub cache_bytes: u64,
    /// Current cache entry count.
    pub cache_entries: u64,
    /// Currently armed (device-active) flows.
    pub flows_armed: u64,
}

/// What `process` decided about a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadAction {
    /// Pass the frame to the host RX path.
    Deliver,
    /// The device consumed the frame; do not deliver it.
    Absorb,
}

/// Result of examining one frame, for slot accounting.
#[derive(Debug)]
pub struct EngineOutcome {
    /// Deliver or absorb.
    pub action: OffloadAction,
    /// Device cycles charged for the examination.
    pub cycles: u64,
    /// Whether a request was served device-side during this examination.
    pub served: bool,
}

impl EngineOutcome {
    fn deliver(cycles: u64) -> Self {
        EngineOutcome {
            action: OffloadAction::Deliver,
            cycles,
            served: false,
        }
    }
}

struct FlowState {
    shadow: FlowShadow,
    /// Device-active? `false` = host-pending (examine-only for KV
    /// invalidation; everything delivered).
    active: bool,
    /// Highest cumulative ACK seen from the client.
    last_ack: SeqNum,
    /// In-order bytes absorbed for reassembly but not yet served. The
    /// device has NOT acknowledged these: they are covered either by a
    /// reply's ACK (serve) or by the host's own ACK (flush).
    pending: Vec<u8>,
}

struct KvEntry {
    value: Vec<u8>,
    /// Monotone recency stamp for LRU eviction.
    tick: u64,
}

struct KvCache {
    map: HashMap<Vec<u8>, KvEntry>,
    bytes: usize,
    capacity: usize,
    tick: u64,
}

impl KvCache {
    fn new(capacity: usize) -> Self {
        KvCache {
            map: HashMap::new(),
            bytes: 0,
            capacity,
            tick: 0,
        }
    }

    fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        entry.tick = tick;
        Some(&entry.value)
    }

    /// Inserts, evicting least-recently-used entries to respect the
    /// memory bound. Returns `false` (and caches nothing) if the entry
    /// alone exceeds the bound. Eviction scans for the minimum stamp —
    /// O(n), fine at simulated-device cache sizes.
    fn insert(&mut self, key: &[u8], value: &[u8], evictions: &mut u64) -> bool {
        let entry_bytes = key.len() + value.len();
        if entry_bytes > self.capacity {
            return false;
        }
        self.remove(key);
        while self.bytes + entry_bytes > self.capacity {
            let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.remove(&lru);
            *evictions += 1;
        }
        self.tick += 1;
        self.bytes += entry_bytes;
        self.map.insert(
            key.to_vec(),
            KvEntry {
                value: value.to_vec(),
                tick: self.tick,
            },
        );
        true
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        if let Some(e) = self.map.remove(key) {
            self.bytes -= key.len() + e.value.len();
            true
        } else {
            false
        }
    }

    /// The conservative answer to any loss of framing certainty: forget
    /// every entry. Returns the device cycles the clear costs.
    fn clear(&mut self, stats: &mut OffloadStats) -> u64 {
        self.map.clear();
        self.bytes = 0;
        stats.kv_clears += 1;
        CYCLES_KV_INVALIDATE
    }
}

enum ServiceState {
    Echo,
    Kv(KvCache),
}

/// The device-resident TCP offload engine for one local port.
///
/// The same `Rc<RefCell<TcpOffload>>` handle is installed into a NIC
/// program slot (the RX path) and retained by the host planner (the
/// control path: arming flows, draining events, populating the cache) —
/// the simulation's stand-in for doorbell/MMIO access to device state.
pub struct TcpOffload {
    local_port: u16,
    service: ServiceState,
    flows: HashMap<FlowKey, FlowState>,
    /// Write-through invalidation cursors, one per flow ever seen on the
    /// port (KV mode only) — independent of arm state, because a SET the
    /// host serves must still invalidate device cache entries.
    scans: HashMap<FlowKey, InvalScan>,
    events: VecDeque<OffloadEvent>,
    tx: Vec<DemiBuffer>,
    stats: OffloadStats,
}

impl std::fmt::Debug for TcpOffload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpOffload")
            .field("local_port", &self.local_port)
            .field("flows", &self.flows.len())
            .field("events", &self.events.len())
            .finish()
    }
}

impl TcpOffload {
    /// Creates an engine serving `service` on `local_port`.
    pub fn new(local_port: u16, service: OffloadService) -> Self {
        TcpOffload {
            local_port,
            service: match service {
                OffloadService::Echo => ServiceState::Echo,
                OffloadService::KvCache { capacity_bytes } => {
                    ServiceState::Kv(KvCache::new(capacity_bytes))
                }
            },
            flows: HashMap::new(),
            scans: HashMap::new(),
            events: VecDeque::new(),
            tx: Vec::new(),
            stats: OffloadStats::default(),
        }
    }

    /// Arms (or re-arms) a flow with a fresh host-provided shadow. The
    /// planner must call this only when the host control block is
    /// quiescent for the flow (nothing unacked, queued, or out of order).
    pub fn arm_flow(&mut self, key: FlowKey, shadow: FlowShadow) {
        // snd_una == snd_nxt at quiescence, so the client's last seen
        // cumulative ACK is exactly snd_nxt.
        let last_ack = SeqNum(shadow.snd_nxt);
        self.flows.insert(
            key,
            FlowState {
                shadow,
                active: true,
                last_ack,
                pending: Vec::new(),
            },
        );
    }

    /// Disarms one flow, flushing any absorbed bytes back to the host.
    pub fn disarm_flow(&mut self, key: FlowKey) {
        if let Some(mut flow) = self.flows.remove(&key) {
            flush_pending(&key, &mut flow, &mut self.events, &mut self.stats);
        }
    }

    /// Disarms every flow (program uninstall), flushing absorbed bytes.
    pub fn disarm_all(&mut self) {
        let keys: Vec<FlowKey> = self.flows.keys().copied().collect();
        for key in keys {
            self.disarm_flow(key);
        }
    }

    /// Drains the ordered sync-event queue.
    pub fn take_events(&mut self) -> Vec<OffloadEvent> {
        self.events.drain(..).collect()
    }

    /// Drains reply frames awaiting device transmission.
    pub(crate) fn take_tx(&mut self) -> Vec<DemiBuffer> {
        std::mem::take(&mut self.tx)
    }

    /// Host-populated cache insert (after the host served a GET miss).
    /// Returns `false` for echo engines or entries over the memory bound.
    pub fn cache_insert(&mut self, key: &[u8], value: &[u8]) -> bool {
        match &mut self.service {
            ServiceState::Kv(cache) => cache.insert(key, value, &mut self.stats.kv_evictions),
            ServiceState::Echo => false,
        }
    }

    /// Host-driven cache invalidation: the host must call this when it
    /// removes a key for reasons the device cannot observe on the byte
    /// stream — LRU eviction or TTL expiry in the host store. (SETs and
    /// DELs are invalidated by the device's own write-through scanner.)
    /// Returns `false` for echo engines or keys not cached.
    pub fn cache_invalidate(&mut self, key: &[u8]) -> bool {
        match &mut self.service {
            ServiceState::Kv(cache) => {
                let removed = cache.remove(key);
                if removed {
                    self.stats.kv_invalidations += 1;
                }
                removed
            }
            ServiceState::Echo => false,
        }
    }

    /// Engine counters (gauges computed at read time).
    pub fn stats(&self) -> OffloadStats {
        let mut s = self.stats;
        if let ServiceState::Kv(cache) = &self.service {
            s.cache_bytes = cache.bytes as u64;
            s.cache_entries = cache.map.len() as u64;
        }
        s.flows_armed = self.flows.values().filter(|f| f.active).count() as u64;
        s
    }

    /// Examines one RX frame. Called from the SmartNIC slot engine.
    pub(crate) fn process(&mut self, frame: &[u8], now: SimTime) -> EngineOutcome {
        let mut cycles = CYCLES_PARSE;
        let Some((eth, ip, tcp, payload)) = parse_segment(frame) else {
            return EngineOutcome::deliver(cycles);
        };
        if tcp.dst_port != self.local_port {
            return EngineOutcome::deliver(cycles);
        }

        let key: FlowKey = (ip.src.octets(), tcp.src_port);

        // Write-through invalidation: every segment to the service port is
        // scanned, armed or not, so a SET on a host-pending flow can never
        // leave a stale cache entry behind. The scanner keeps a tiny
        // per-flow reassembly cursor of its own; any loss of framing
        // certainty clears the whole cache (stale hits are impossible by
        // construction).
        if let ServiceState::Kv(cache) = &mut self.service {
            if tcp.flags.syn {
                self.scans.insert(key, InvalScan::fresh(tcp.seq + 1));
            } else if !payload.is_empty() {
                let scan = self
                    .scans
                    .entry(key)
                    .or_insert_with(|| InvalScan::fresh(tcp.seq));
                cycles += scan_invalidate(cache, scan, tcp.seq, payload, &mut self.stats);
            }
        }
        let Self {
            flows,
            events,
            tx,
            stats,
            service,
            ..
        } = self;
        let Some(flow) = flows.get_mut(&key) else {
            return EngineOutcome::deliver(cycles);
        };
        if !flow.active {
            return EngineOutcome::deliver(cycles);
        }

        if tcp.flags.syn || tcp.flags.fin || tcp.flags.rst {
            fall_back(&key, flow, events, stats);
            return EngineOutcome::deliver(cycles);
        }

        let device_nxt = SeqNum(flow.shadow.rcv_nxt) + flow.pending.len() as u32;

        // A pure ACK is absorbed only if it strictly advances — duplicates
        // and window probes go to the host (they drive fast retransmit and
        // persist logic the device does not model); data only if reassembly
        // can hold it. Either must be exactly in order past what we absorbed.
        let advances = tcp.flags.ack && tcp.ack.gt(flow.last_ack);
        let acceptable = match payload.len() {
            0 => advances,
            len => flow.pending.len() + len <= MAX_PENDING_BYTES,
        };
        if tcp.seq != device_nxt || !acceptable {
            fall_back(&key, flow, events, stats);
            return EngineOutcome::deliver(cycles);
        }
        // Forward the ACK (piggybacked: before serving, preserving event
        // order — the client acks our replies on its next request).
        if advances {
            flow.last_ack = tcp.ack;
            events.push_back(OffloadEvent::AckAdvance {
                key,
                ack: tcp.ack.0,
                window: tcp.window,
            });
        }
        if payload.is_empty() {
            stats.acks_absorbed += 1;
            return EngineOutcome {
                action: OffloadAction::Absorb,
                cycles: cycles + CYCLES_ACK_ABSORB,
                served: false,
            };
        }

        cycles += CYCLES_REASSEMBLE;
        flow.pending.extend_from_slice(payload);

        // Serve complete framed messages from the front of the pending
        // buffer; each serve acknowledges exactly the bytes it consumed.
        // Anything the device cannot answer — desynchronized framing (in
        // KV mode the invalidation scanner has already cleared the cache
        // for it), a cache miss, a non-GET, a reply over one segment (the
        // host path segments large replies; the device does not) — falls
        // the flow back; the absorbed bytes travel via `Flushed`.
        let mut served_any = false;
        loop {
            let total = match parse_header(&flow.pending) {
                Ok(None) => break,
                Ok(Some(len)) if FRAME_HEADER_LEN + len <= MAX_PENDING_BYTES => {
                    FRAME_HEADER_LEN + len
                }
                // Desynchronized, or longer than reassembly could ever hold.
                _ => {
                    fall_back(&key, flow, events, stats);
                    break;
                }
            };
            let Some(request) = flow.pending.get(..total) else {
                break;
            };
            let reply = match service {
                ServiceState::Echo => Some(DemiBuffer::from_slice(request)),
                ServiceState::Kv(cache) => {
                    cycles += CYCLES_KV_LOOKUP;
                    match request[FRAME_HEADER_LEN..].split_first() {
                        Some((b'G', get)) => match cache.get(get) {
                            Some(value) => {
                                stats.kv_hits += 1;
                                let header = encode_header(1 + value.len());
                                let framed = [&header[..], b"V", value].concat();
                                Some(DemiBuffer::from_slice(&framed))
                            }
                            None => {
                                stats.kv_misses += 1;
                                None
                            }
                        },
                        _ => None,
                    }
                }
            };
            let Some(reply) = reply.filter(|r| r.len() <= flow.shadow.mss) else {
                fall_back(&key, flow, events, stats);
                break;
            };

            flow.pending.drain(..total);
            flow.shadow.rcv_nxt = flow.shadow.rcv_nxt.wrapping_add(total as u32);
            let reply_seq = SeqNum(flow.shadow.snd_nxt);
            flow.shadow.snd_nxt = flow.shadow.snd_nxt.wrapping_add(reply.len() as u32);

            // The reply frame: built as the host's TX path builds its own.
            let mut reply_frame = reply.copy_with_headroom(REPLY_HEADROOM);
            let header = TcpHeader {
                src_port: tcp.dst_port,
                dst_port: tcp.src_port,
                seq: reply_seq,
                ack: SeqNum(flow.shadow.rcv_nxt),
                flags: TcpFlags::ACK,
                window: flow.shadow.window,
                mss: None,
            };
            header
                .prepend_onto(ip.dst, ip.src, &mut reply_frame)
                .expect("headroom reserved above");
            let header = Ipv4Header {
                src: ip.dst,
                dst: ip.src,
                payload_len: reply_frame.len(),
                ..ip
            };
            header
                .prepend_onto(&mut reply_frame)
                .expect("headroom reserved above");
            let header = EthHeader {
                dst: eth.src,
                src: eth.dst,
                ..eth
            };
            header
                .prepend_onto(&mut reply_frame)
                .expect("headroom reserved above");
            tx.push(reply_frame);

            cycles += CYCLES_SERVE_BASE + (reply.len() as u64 / 16) * CYCLES_SERVE_PER_16B;
            events.push_back(OffloadEvent::Served {
                key,
                rx_len: total as u32,
                reply,
                served_at: now,
            });
            stats.served += 1;
            served_any = true;
        }

        EngineOutcome {
            action: OffloadAction::Absorb,
            cycles,
            served: served_any,
        }
    }
}

/// Headroom a reply payload needs for its TCP, IPv4 and Ethernet headers.
const REPLY_HEADROOM: usize = TCP_HEADER_LEN + IPV4_HEADER_LEN + ETH_HEADER_LEN;

/// The host's parse chain over one frame: `None` for anything it would not
/// hand to its TCP — other protocols, a failed header check or checksum.
fn parse_segment(frame: &[u8]) -> Option<(EthHeader, Ipv4Header, TcpHeader, &[u8])> {
    let (eth, packet) = EthHeader::parse(frame).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let (ip, segment) = Ipv4Header::parse(packet).ok()?;
    if ip.protocol != IpProtocol::Tcp {
        return None;
    }
    let (tcp, data_off) = TcpHeader::parse(ip.src, ip.dst, segment).ok()?;
    Some((eth, ip, tcp, &segment[data_off..]))
}

/// Flushes a flow's pending bytes to the host (without marking fallback).
fn flush_pending(
    key: &FlowKey,
    flow: &mut FlowState,
    events: &mut VecDeque<OffloadEvent>,
    stats: &mut OffloadStats,
) {
    if !flow.pending.is_empty() {
        stats.flushed_bytes += flow.pending.len() as u64;
        events.push_back(OffloadEvent::Flushed {
            key: *key,
            data: DemiBuffer::from_slice(&flow.pending),
        });
        flow.pending.clear();
    }
}

/// Marks a flow host-pending, flushing absorbed bytes first.
fn fall_back(
    key: &FlowKey,
    flow: &mut FlowState,
    events: &mut VecDeque<OffloadEvent>,
    stats: &mut OffloadStats,
) {
    flush_pending(key, flow, events, stats);
    if flow.active {
        flow.active = false;
        stats.fallbacks += 1;
        events.push_back(OffloadEvent::FellBack { key: *key });
    }
}

/// Invalidation-scan reassembly bound: the scanner only ever needs a
/// message's opcode and key, which sit at the front; once classified, the
/// rest of the message is skipped by byte count.
const SCAN_BUF_CAP: usize = 256;

/// Per-flow cursor for the write-through invalidation scanner. Unlike the
/// serve path's `pending` buffer, this exists for *every* flow on the
/// port — armed, fallen-back, or never armed — because a SET the host
/// serves must still invalidate device cache state.
struct InvalScan {
    /// Next expected sequence number.
    nxt: SeqNum,
    /// Head-of-message bytes accumulated so far (≤ [`SCAN_BUF_CAP`]).
    buf: Vec<u8>,
    /// Remaining bytes of an already-classified message to discard.
    skip: usize,
}

impl InvalScan {
    fn fresh(nxt: SeqNum) -> Self {
        InvalScan {
            nxt,
            buf: Vec::new(),
            skip: 0,
        }
    }
}

/// Advances a flow's invalidation scan over one segment, removing cached
/// keys named by `S`/`D` messages. Any loss of framing certainty —
/// sequence discontinuity, bad magic, a key that does not fit the scan
/// window — conservatively clears the whole cache. Returns device cycles.
fn scan_invalidate(
    cache: &mut KvCache,
    scan: &mut InvalScan,
    seq: SeqNum,
    payload: &[u8],
    stats: &mut OffloadStats,
) -> u64 {
    let mut cycles = 0;
    if seq != scan.nxt {
        // Discontinuity (retransmit, reorder, or a flow first seen
        // mid-stream): framing alignment is unknown, so forget everything
        // and resynchronize optimistically at this segment. A wrong guess
        // is caught by the magic check below, which clears again.
        cycles += cache.clear(stats);
        scan.buf.clear();
        scan.skip = 0;
    }
    scan.nxt = seq + payload.len() as u32;
    let mut rest = payload;
    while !rest.is_empty() {
        if scan.skip > 0 {
            let n = scan.skip.min(rest.len());
            scan.skip -= n;
            rest = &rest[n..];
            continue;
        }
        let take = rest.len().min(SCAN_BUF_CAP.saturating_sub(scan.buf.len()));
        scan.buf.extend_from_slice(&rest[..take]);
        rest = &rest[take..];
        let msg_len = match parse_header(&scan.buf) {
            // Need more bytes; `take` drained all available.
            Ok(None) => break,
            Ok(Some(len)) => len,
            Err(_) => {
                cycles += cache.clear(stats);
                scan.buf.clear();
                break; // Desynced; resync at the next discontinuity or SYN.
            }
        };
        let total = FRAME_HEADER_LEN + msg_len;
        let have_body = scan.buf.len().min(total) - FRAME_HEADER_LEN;
        let body = &scan.buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + have_body];
        // `Some(invalidated)` = classified; `None` = need more bytes.
        let classified: Option<bool> = match body.first() {
            _ if msg_len == 0 => Some(false),
            None => None,
            Some(&b'S') => match body.iter().position(|&b| b == b'=') {
                Some(eq) => {
                    cycles += CYCLES_KV_INVALIDATE;
                    Some(cache.remove(&body[1..eq]))
                }
                // A complete SET with no '=' is malformed; the host
                // rejects it without caching anything.
                None if body.len() == msg_len => Some(false),
                None if scan.buf.len() >= SCAN_BUF_CAP => {
                    // Key longer than the scan window: cannot name it.
                    cycles += cache.clear(stats);
                    Some(false)
                }
                None => None,
            },
            Some(&b'D') => {
                if body.len() == msg_len {
                    cycles += CYCLES_KV_INVALIDATE;
                    Some(cache.remove(&body[1..]))
                } else if scan.buf.len() >= SCAN_BUF_CAP {
                    cycles += cache.clear(stats);
                    Some(false)
                } else {
                    None
                }
            }
            Some(_) => Some(false),
        };
        match classified {
            Some(invalidated) => {
                if invalidated {
                    stats.kv_invalidations += 1;
                }
                if scan.buf.len() >= total {
                    scan.buf.drain(..total);
                } else {
                    scan.skip = total - scan.buf.len();
                    scan.buf.clear();
                }
            }
            // Everything available is already buffered; wait for the
            // next segment.
            None => break,
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use sim_fabric::MacAddress;

    use super::*;
    use crate::wire::framing::encode_message;

    const CLIENT_MAC: MacAddress = MacAddress::new([0x02, 0, 0, 0, 0, 1]);
    const SERVER_MAC: MacAddress = MacAddress::new([0x02, 0, 0, 0, 0, 2]);
    const CLIENT_IP: [u8; 4] = [10, 0, 0, 1];
    const SERVER_IP: [u8; 4] = [10, 0, 0, 2];
    const PORT: u16 = 7000;
    const CLIENT_PORT: u16 = 40000;

    fn key() -> FlowKey {
        (CLIENT_IP, CLIENT_PORT)
    }

    fn shadow(rcv_nxt: u32, snd_nxt: u32) -> FlowShadow {
        FlowShadow {
            rcv_nxt,
            snd_nxt,
            window: 65_000,
            mss: 1460,
        }
    }

    /// The one builder of client traffic: a client → server segment
    /// serialized the way the host stack serializes its own.
    fn client_segment(seq: u32, ack: u32, flags: TcpFlags, payload: &[u8]) -> DemiBuffer {
        let (src, dst) = (Ipv4Addr::from(CLIENT_IP), Ipv4Addr::from(SERVER_IP));
        let mut frame = DemiBuffer::from_slice(payload).copy_with_headroom(REPLY_HEADROOM);
        let tcp = TcpHeader {
            src_port: CLIENT_PORT,
            dst_port: PORT,
            seq: SeqNum(seq),
            ack: SeqNum(ack),
            flags,
            window: 60_000,
            mss: None,
        };
        tcp.prepend_onto(src, dst, &mut frame).unwrap();
        let ip = Ipv4Header {
            src,
            dst,
            protocol: IpProtocol::Tcp,
            payload_len: frame.len(),
        };
        ip.prepend_onto(&mut frame).unwrap();
        let eth = EthHeader {
            dst: SERVER_MAC,
            src: CLIENT_MAC,
            ethertype: EtherType::Ipv4,
        };
        eth.prepend_onto(&mut frame).unwrap();
        frame
    }

    fn client_data(seq: u32, ack: u32, payload: &[u8]) -> DemiBuffer {
        client_segment(seq, ack, TcpFlags::ACK, payload)
    }

    /// A device reply, parsed by the host's chain: Ethernet and TCP
    /// headers and the payload.
    fn parse_reply(frame: &DemiBuffer) -> (EthHeader, TcpHeader, &[u8]) {
        let (eth, _, tcp, payload) = parse_segment(frame.as_slice()).expect("reply parses");
        (eth, tcp, payload)
    }

    fn process(engine: &mut TcpOffload, frame: &DemiBuffer) -> EngineOutcome {
        engine.process(frame.as_slice(), SimTime::ZERO)
    }

    #[test]
    fn echo_serves_split_header_and_body_segments() {
        let mut engine = TcpOffload::new(PORT, OffloadService::Echo);
        engine.arm_flow(key(), shadow(1000, 5000));

        let msg = encode_message(b"hello");
        // The host stack sends framing header and body as separate
        // segments; the device reassembles.
        let hdr_seg = client_data(1000, 5000, &msg[..FRAME_HEADER_LEN]);
        let body_seg = client_data(1008, 5000, &msg[FRAME_HEADER_LEN..]);

        let o1 = process(&mut engine, &hdr_seg);
        assert_eq!(o1.action, OffloadAction::Absorb);
        assert!(!o1.served);
        assert!(engine.take_tx().is_empty(), "nothing served yet");

        let o2 = process(&mut engine, &body_seg);
        assert_eq!(o2.action, OffloadAction::Absorb);
        assert!(o2.served);
        assert!(
            o2.cycles >= CYCLES_SERVE_BASE,
            "serving costs device cycles"
        );

        let tx = engine.take_tx();
        assert_eq!(tx.len(), 1);
        let (eth, reply, payload) = parse_reply(&tx[0]);
        assert_eq!(eth.dst, CLIENT_MAC);
        assert_eq!(reply.src_port, PORT);
        assert_eq!(reply.seq, SeqNum(5000));
        assert_eq!(reply.ack, SeqNum(1000 + msg.len() as u32));
        assert_eq!(payload, &msg[..], "echo reply mirrors the request");

        let events = engine.take_events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            OffloadEvent::Served { rx_len, reply, .. } => {
                assert_eq!(*rx_len, msg.len() as u32);
                assert_eq!(reply.as_slice(), &msg[..]);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(engine.stats().served, 1);
    }

    /// The device serves nothing the host would drop: one flipped bit —
    /// in the payload (TCP checksum) or in the IPv4 source address (header
    /// checksum) — and the frame is delivered with the engine untouched;
    /// the clean retransmission at the same `seq` is then served.
    #[test]
    fn corrupted_segment_is_delivered_untouched_then_its_retransmission_served() {
        let msg = encode_message(b"hello");
        let clean = client_data(1000, 5000, &msg);
        for flipped_byte in [clean.len() - 1, ETH_HEADER_LEN + 12] {
            let mut engine = TcpOffload::new(PORT, OffloadService::Echo);
            engine.arm_flow(key(), shadow(1000, 5000));
            let armed = engine.stats();
            let mut corrupted = clean.to_vec();
            corrupted[flipped_byte] ^= 0x04;

            let o = engine.process(&corrupted, SimTime::ZERO);
            assert_eq!(o.action, OffloadAction::Deliver, "byte {flipped_byte}");
            assert!(!o.served);
            assert!(engine.take_events().is_empty(), "no event, no fallback");
            assert!(engine.take_tx().is_empty(), "no reply");
            assert_eq!(engine.stats(), armed, "nothing counted, flow still armed");

            assert!(process(&mut engine, &clean).served);
            assert_eq!(parse_reply(&engine.take_tx()[0]).2, &msg[..]);
            assert_eq!(engine.stats().served, 1);
        }
    }

    #[test]
    fn pure_ack_is_absorbed_and_forwarded() {
        let mut engine = TcpOffload::new(PORT, OffloadService::Echo);
        engine.arm_flow(key(), shadow(1000, 5000));
        let ack = client_data(1000, 5100, b"");
        let o = process(&mut engine, &ack);
        assert_eq!(o.action, OffloadAction::Absorb);
        match &engine.take_events()[..] {
            [OffloadEvent::AckAdvance { ack, window, .. }] => {
                assert_eq!(*ack, 5100);
                assert_eq!(*window, 60_000);
            }
            other => panic!("unexpected events {other:?}"),
        }
        // A duplicate of the same ACK falls back to the host.
        let dup = client_data(1000, 5100, b"");
        let o = process(&mut engine, &dup);
        assert_eq!(o.action, OffloadAction::Deliver);
        assert!(!engine.flows[&key()].active, "flow fell back");
        assert_eq!(engine.stats().fallbacks, 1);
    }

    #[test]
    fn fin_falls_back_and_flushes_pending_bytes() {
        let mut engine = TcpOffload::new(PORT, OffloadService::Echo);
        engine.arm_flow(key(), shadow(1000, 5000));
        let msg = encode_message(b"partial");
        let hdr_seg = client_data(1000, 5000, &msg[..FRAME_HEADER_LEN]);
        assert_eq!(process(&mut engine, &hdr_seg).action, OffloadAction::Absorb);

        let fin = client_segment(1008, 5000, TcpFlags::FIN_ACK, b"");
        let o = process(&mut engine, &fin);
        assert_eq!(o.action, OffloadAction::Deliver, "host handles the FIN");
        let events = engine.take_events();
        match &events[..] {
            [OffloadEvent::Flushed { data, .. }, OffloadEvent::FellBack { .. }] => {
                assert_eq!(data.as_slice(), &msg[..FRAME_HEADER_LEN]);
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn out_of_order_segment_falls_back() {
        let mut engine = TcpOffload::new(PORT, OffloadService::Echo);
        engine.arm_flow(key(), shadow(1000, 5000));
        let msg = encode_message(b"x");
        let ooo = client_data(1500, 5000, &msg);
        let o = process(&mut engine, &ooo);
        assert_eq!(o.action, OffloadAction::Deliver);
        assert!(!engine.flows[&key()].active);
    }

    #[test]
    fn kv_cache_hits_misses_and_write_through_invalidation() {
        let mut engine = TcpOffload::new(
            PORT,
            OffloadService::KvCache {
                capacity_bytes: 1024,
            },
        );
        engine.arm_flow(key(), shadow(1000, 5000));
        assert!(engine.cache_insert(b"k1", b"v1"));

        // GET hit: served from device memory.
        let get = encode_message(b"Gk1");
        let o = process(&mut engine, &client_data(1000, 5000, &get));
        assert_eq!(o.action, OffloadAction::Absorb);
        assert!(o.served);
        let tx = engine.take_tx();
        assert_eq!(parse_reply(&tx[0]).2, &encode_message(b"Vv1")[..]);
        assert_eq!(engine.stats().kv_hits, 1);

        // GET miss: falls back (bytes flushed to host).
        let nxt = 1000 + get.len() as u32;
        let miss = encode_message(b"Gk2");
        let o = process(&mut engine, &client_data(nxt, 5000, &miss));
        assert_eq!(o.action, OffloadAction::Absorb, "bytes travel via Flushed");
        let events = engine.take_events();
        assert!(matches!(events[0], OffloadEvent::Served { .. }));
        match &events[1] {
            OffloadEvent::Flushed { data, .. } => assert_eq!(data.as_slice(), &miss[..]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(events[2], OffloadEvent::FellBack { .. }));
        assert_eq!(engine.stats().kv_misses, 1);

        // SET on the (now host-pending) flow still invalidates.
        let nxt = nxt + miss.len() as u32;
        let set = encode_message(b"Sk1=v2");
        let o = process(&mut engine, &client_data(nxt, 5000, &set));
        assert_eq!(o.action, OffloadAction::Deliver, "host serves the SET");
        assert_eq!(engine.stats().kv_invalidations, 1);

        // Re-arm; the stale key must miss now.
        engine.arm_flow(key(), shadow(2000, 6000));
        let get1 = encode_message(b"Gk1");
        let o = process(&mut engine, &client_data(2000, 6000, &get1));
        assert!(!o.served, "invalidated key cannot hit");
        assert_eq!(engine.stats().kv_misses, 2);
    }

    #[test]
    fn kv_cache_is_lru_and_memory_bounded() {
        let mut engine = TcpOffload::new(PORT, OffloadService::KvCache { capacity_bytes: 20 });
        // Each entry is 2 + 4 = 6 bytes; three fit (18), a fourth evicts.
        assert!(engine.cache_insert(b"k1", b"aaaa"));
        assert!(engine.cache_insert(b"k2", b"bbbb"));
        assert!(engine.cache_insert(b"k3", b"cccc"));
        engine.arm_flow(key(), shadow(0, 0));
        // Touch k1 so k2 becomes the LRU.
        let g1 = encode_message(b"Gk1");
        assert!(process(&mut engine, &client_data(0, 0, &g1)).served);
        engine.take_tx();
        engine.take_events();
        assert!(engine.cache_insert(b"k4", b"dddd"));
        let s = engine.stats();
        assert_eq!(s.kv_evictions, 1);
        assert!(s.cache_bytes <= 20);
        // k2 was evicted; k1 survived.
        let nxt = g1.len() as u32;
        let g2 = encode_message(b"Gk2");
        let o = process(&mut engine, &client_data(nxt, 0, &g2));
        assert!(!o.served, "LRU entry was evicted");
        // An entry bigger than the whole device budget is refused.
        assert!(!engine.cache_insert(b"huge", &[0u8; 64]));
    }

    #[test]
    fn uninstall_flushes_and_disarms_everything() {
        let mut engine = TcpOffload::new(PORT, OffloadService::Echo);
        engine.arm_flow(key(), shadow(1000, 5000));
        let msg = encode_message(b"pend");
        let hdr = client_data(1000, 5000, &msg[..FRAME_HEADER_LEN]);
        process(&mut engine, &hdr);
        engine.disarm_all();
        let events = engine.take_events();
        assert!(matches!(&events[..], [OffloadEvent::Flushed { .. }]));
        assert_eq!(engine.stats().flows_armed, 0);
        // Frames now pass straight through.
        let o = process(
            &mut engine,
            &client_data(1008, 5000, &msg[FRAME_HEADER_LEN..]),
        );
        assert_eq!(o.action, OffloadAction::Deliver);
    }

    #[test]
    fn pipelined_messages_in_one_segment_all_serve() {
        let mut engine = TcpOffload::new(PORT, OffloadService::Echo);
        engine.arm_flow(key(), shadow(0, 0));
        let m1 = encode_message(b"one");
        let m2 = encode_message(b"two");
        let mut both = m1.clone();
        both.extend_from_slice(&m2);
        let o = process(&mut engine, &client_data(0, 0, &both));
        assert_eq!(o.action, OffloadAction::Absorb);
        let tx = engine.take_tx();
        assert_eq!(tx.len(), 2, "one reply per message");
        let events = engine.take_events();
        assert_eq!(events.len(), 2);
        let (_, r2, payload) = parse_reply(&tx[1]);
        assert_eq!(
            r2.seq,
            SeqNum(m1.len() as u32),
            "replies occupy consecutive seq space"
        );
        assert_eq!(payload, &m2[..]);
    }
}

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
//! # One record per flow
//!
//! The engine's flow table is the one record of each flow on its port;
//! the host planner keeps no map beside it. A record opens at the flow's
//! first segment (or when the install hands over an existing connection,
//! [`TcpOffload::arm_flow`]) and holds the KV invalidation cursor and,
//! while the device serves the flow, its shadow and reassembly. Falling
//! back clears only the serve half, and no event says so: once per poll
//! pass the planner's [`TcpOffload::reconcile`] drops each record whose
//! flow the host no longer holds, armed or not, and re-arms each unarmed
//! flow whose control block is quiescent again.
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
//!
//! # Fallback invariants
//!
//! The device serves a segment only when ALL of: the flow is armed, the
//! segment is flag-free (no SYN/FIN/RST), exactly in order
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
//! ([`MAX_PENDING_BYTES`]). Absorbed bytes stay the views of the frames
//! they arrived in; a reply is one counted copy
//! ([`DemiBuffer::copy_with_headroom`], after `ByteStream::take`'s gather
//! when a request spans frames) with its headers written into the copy's
//! headroom, as the host's TX path writes its own.
//!
//! # One wire view
//!
//! The engine parses frames with the host's parser chain ([`crate::wire`],
//! checksums verified) and the host decoder's `parse_header`, so it never
//! acts on a segment the host would reject: such a frame is delivered
//! untouched — no event, absorb, reply or fallback — for the host to count.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use demi_memory::{BufChain, ByteStream, DemiBuffer, HeadroomError};
use sim_fabric::{MacAddress, SimTime};

use crate::mbuf::Mbuf;
use crate::smartnic::RxDecision;
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

/// The decision on a frame the engine leaves to the host.
const DELIVER: RxDecision = RxDecision::Accept { queue: None };

/// Identifies a flow: (remote IPv4, remote port). The local port is
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
    /// Currently armed (device-served) flows.
    pub flows_armed: u64,
    /// Flow records held, armed or not (one per flow on the port).
    pub flows: u64,
}

/// The one record of a flow on the engine's port (module doc).
#[derive(Default)]
struct Flow {
    /// The serve path's state while the device serves the flow; `None`
    /// while the host does.
    armed: Option<Armed>,
    /// The write-through invalidation cursor (KV ports only), which runs
    /// whoever serves the flow.
    scan: InvalScan,
}

impl Flow {
    /// Arms the flow with the host's shadow, if there is one and the flow
    /// is not armed already; returns whether it armed.
    fn arm(&mut self, shadow: Option<FlowShadow>) -> bool {
        let Some(shadow) = shadow.filter(|_| self.armed.is_none()) else {
            return false;
        };
        // snd_una == snd_nxt at quiescence, so the client's last seen
        // cumulative ACK is exactly snd_nxt.
        self.armed = Some(Armed {
            shadow,
            last_ack: SeqNum(shadow.snd_nxt),
            pending: ByteStream::default(),
        });
        true
    }

    /// Takes the flow from the device, handing its absorbed bytes back to
    /// the host as one `Flushed` event; returns whether it was armed. The
    /// record stays, and so does its scan.
    fn disarm(
        &mut self,
        key: FlowKey,
        events: &mut VecDeque<OffloadEvent>,
        stats: &mut OffloadStats,
    ) -> bool {
        let Some(mut armed) = self.armed.take() else {
            return false;
        };
        let len = armed.pending.len();
        if let Some((data, _)) = armed.pending.take(len).filter(|_| len > 0) {
            stats.flushed_bytes += len as u64;
            events.push_back(OffloadEvent::Flushed { key, data });
        }
        true
    }
}

/// What the device keeps of a flow it serves.
struct Armed {
    shadow: FlowShadow,
    /// Highest cumulative ACK seen from the client.
    last_ack: SeqNum,
    /// In-order bytes absorbed for reassembly but not yet served, as views
    /// of the frames they arrived in. The device has NOT acknowledged
    /// these: they are covered either by a reply's ACK (serve) or by the
    /// host's own ACK (flush).
    pending: ByteStream,
}

impl Armed {
    /// Puts a taken request back in front of the bytes that followed it.
    fn untake(&mut self, request: DemiBuffer) {
        let mut rest = std::mem::take(&mut self.pending);
        self.pending.push(request);
        if let Some((rest, _)) = rest.take(rest.len()) {
            self.pending.push(rest);
        }
    }
}

struct KvEntry {
    /// The framed reply a hit sends: header, `V`, value.
    reply: DemiBuffer,
    /// Monotone recency stamp for LRU eviction.
    tick: u64,
}

/// Bytes of a cached reply ahead of its value: the framing header and `V`.
const REPLY_PREFIX: usize = FRAME_HEADER_LEN + 1;

#[derive(Default)]
struct KvCache {
    map: HashMap<Vec<u8>, KvEntry>,
    bytes: usize,
    capacity: usize,
    tick: u64,
}

impl KvCache {
    /// The framed reply to a GET of `key`, counted as a hit or a miss.
    fn get(&mut self, key: &[u8], stats: &mut OffloadStats) -> Option<&DemiBuffer> {
        self.tick += 1;
        let tick = self.tick;
        let Some(entry) = self.map.get_mut(key) else {
            stats.kv_misses += 1;
            return None;
        };
        stats.kv_hits += 1;
        entry.tick = tick;
        Some(&entry.reply)
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
        let framed = [&encode_header(1 + value.len())[..], b"V", value].concat();
        self.map.insert(
            key.to_vec(),
            KvEntry {
                reply: DemiBuffer::from_slice(&framed),
                tick: self.tick,
            },
        );
        true
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        if let Some(e) = self.map.remove(key) {
            self.bytes -= key.len() + e.reply.len() - REPLY_PREFIX;
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
    flows: HashMap<FlowKey, Flow>,
    /// A record opened or a flow fell back since the last `reconcile`.
    unreconciled: bool,
    events: VecDeque<OffloadEvent>,
    stats: OffloadStats,
}

impl TcpOffload {
    /// Creates an engine serving `service` on `local_port`.
    pub fn new(local_port: u16, service: OffloadService) -> Self {
        TcpOffload {
            local_port,
            service: match service {
                OffloadService::Echo => ServiceState::Echo,
                OffloadService::KvCache { capacity_bytes } => ServiceState::Kv(KvCache {
                    capacity: capacity_bytes,
                    ..KvCache::default()
                }),
            },
            flows: HashMap::new(),
            unreconciled: false,
            events: VecDeque::new(),
            stats: OffloadStats::default(),
        }
    }

    /// Opens `key`'s record if the engine has none and, given the host's
    /// shadow, arms the flow unless the device serves it already; returns
    /// whether it armed it. The planner hands a shadow only while the host
    /// control block is quiescent for the flow (nothing unacked, queued,
    /// or out of order).
    pub fn arm_flow(&mut self, key: FlowKey, shadow: Option<FlowShadow>) -> bool {
        self.flows.entry(key).or_default().arm(shadow)
    }

    /// Disarms one flow, flushing any absorbed bytes back to the host. Its
    /// record stays while its connection does.
    pub fn disarm_flow(&mut self, key: FlowKey) {
        if let Some(flow) = self.flows.get_mut(&key) {
            flow.disarm(key, &mut self.events, &mut self.stats);
        }
    }

    /// Disarms every flow (program uninstall), flushing absorbed bytes.
    pub fn disarm_all(&mut self) {
        for (&key, flow) in &mut self.flows {
            flow.disarm(key, &mut self.events, &mut self.stats);
        }
    }

    /// Whether a record opened or a flow fell back since the last
    /// [`TcpOffload::reconcile`]: a walk has something new to look at.
    pub fn unreconciled(&self) -> bool {
        self.unreconciled
    }

    /// The planner's walk over the flow table: drops the record of every
    /// flow `held` says the host no longer holds, armed or not (absorbed
    /// bytes go with their connection), and arms every other unarmed flow
    /// `shadow` hands a shadow for. Returns how many it armed and how
    /// many records it dropped.
    pub fn reconcile(
        &mut self,
        mut held: impl FnMut(FlowKey) -> bool,
        mut shadow: impl FnMut(FlowKey) -> Option<FlowShadow>,
    ) -> (usize, usize) {
        let (mut armed, records) = (0, self.flows.len());
        self.flows.retain(|&key, flow| {
            let keep = held(key);
            if keep && flow.armed.is_none() {
                armed += usize::from(flow.arm(shadow(key)));
            }
            keep
        });
        self.unreconciled = false;
        (armed, records - self.flows.len())
    }

    /// Drains the ordered sync-event queue.
    pub fn take_events(&mut self) -> impl Iterator<Item = OffloadEvent> + '_ {
        self.events.drain(..)
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
        let removed = match &mut self.service {
            ServiceState::Kv(cache) => cache.remove(key),
            ServiceState::Echo => false,
        };
        self.stats.kv_invalidations += u64::from(removed);
        removed
    }

    /// Engine counters (gauges computed at read time).
    pub fn stats(&self) -> OffloadStats {
        let mut s = self.stats;
        if let ServiceState::Kv(cache) = &self.service {
            s.cache_bytes = cache.bytes as u64;
            s.cache_entries = cache.map.len() as u64;
        }
        s.flows_armed = self.flows.values().filter(|f| f.armed.is_some()).count() as u64;
        s.flows = self.flows.len() as u64;
        s
    }

    /// Examines one RX frame, pushing each reply it builds onto `tx` with
    /// the MAC it goes to. Returns [`RxDecision::Absorb`] for a frame the
    /// device consumed (anything else is delivered) and the device cycles
    /// the examination cost. Called from the SmartNIC slot engine.
    pub(crate) fn process(
        &mut self,
        frame: &Mbuf,
        now: SimTime,
        tx: &mut Vec<(MacAddress, DemiBuffer)>,
    ) -> (RxDecision, u64) {
        let mut cycles = CYCLES_PARSE;
        let parsed = parse_segment(frame);
        let Some((eth, ip, tcp, payload)) =
            parsed.filter(|(_, _, tcp, _)| tcp.dst_port == self.local_port)
        else {
            return (DELIVER, cycles);
        };
        let key: FlowKey = (ip.src.octets(), tcp.src_port);
        let (events, stats) = (&mut self.events, &mut self.stats);

        // The one lookup: every segment to the service port finds, or
        // opens, its flow's record.
        let flow = match self.flows.entry(key) {
            Entry::Occupied(flow) => flow.into_mut(),
            Entry::Vacant(flow) => {
                self.unreconciled = true;
                flow.insert(Flow::default())
            }
        };
        // Write-through invalidation: every segment is scanned, armed or
        // not, so a SET on a host-pending flow can never leave a stale cache
        // entry behind. The scanner keeps a tiny reassembly cursor in the
        // record; any loss of framing certainty clears the whole cache
        // (stale hits are impossible by construction).
        if let ServiceState::Kv(cache) = &mut self.service {
            if tcp.flags.syn {
                flow.scan = InvalScan::default();
                flow.scan.nxt = Some(tcp.seq + 1);
            } else {
                let mut seq = tcp.seq;
                for link in payload.links() {
                    cycles += scan_invalidate(cache, &mut flow.scan, seq, link, stats);
                    seq += link.len() as u32;
                }
            }
        }
        let Some(armed) = &mut flow.armed else {
            return (DELIVER, cycles);
        };

        // A pure ACK is absorbed only if it strictly advances — duplicates
        // and window probes go to the host (they drive fast retransmit and
        // persist logic the device does not model); data only if reassembly
        // can hold it. Either must be exactly in order past what we absorbed,
        // and carry no SYN, FIN or RST.
        let device_nxt = SeqNum(armed.shadow.rcv_nxt) + armed.pending.len() as u32;
        let advances = tcp.flags.ack && tcp.ack.gt(armed.last_ack);
        let acceptable = match payload.len() {
            0 => advances,
            len => armed.pending.len() + len <= MAX_PENDING_BYTES,
        };
        let flagged = tcp.flags.syn || tcp.flags.fin || tcp.flags.rst;
        if flagged || tcp.seq != device_nxt || !acceptable {
            let fell_back = flow.disarm(key, events, stats);
            stats.fallbacks += u64::from(fell_back);
            self.unreconciled |= fell_back;
            return (DELIVER, cycles);
        }
        // Forward the ACK (piggybacked: before serving, preserving event
        // order — the client acks our replies on its next request).
        if advances {
            armed.last_ack = tcp.ack;
            events.push_back(OffloadEvent::AckAdvance {
                key,
                ack: tcp.ack.0,
                window: tcp.window,
            });
        }
        if payload.is_empty() {
            stats.acks_absorbed += 1;
            return (RxDecision::Absorb, cycles + CYCLES_ACK_ABSORB);
        }

        cycles += CYCLES_REASSEMBLE;
        payload
            .into_iter()
            .for_each(|link| armed.pending.push(link));

        // Serve complete framed messages from the front of the pending
        // bytes; each serve acknowledges exactly the bytes it consumed.
        // Anything the device cannot answer — desynchronized framing (in
        // KV mode the invalidation scanner has already cleared the cache
        // for it), a cache miss, a non-GET, a reply over one segment (the
        // host path segments large replies; the device does not) — falls
        // the flow back; the absorbed bytes travel via `Flushed`.
        let mut fell = false;
        loop {
            let mut head = [0; FRAME_HEADER_LEN];
            let have = armed.pending.peek(&mut head);
            let total = match parse_header(&head[..have]) {
                Ok(None) => break,
                Ok(Some(len)) if FRAME_HEADER_LEN + len <= MAX_PENDING_BYTES => {
                    FRAME_HEADER_LEN + len
                }
                // Desynchronized, or longer than reassembly could ever hold.
                _ => {
                    fell = true;
                    break;
                }
            };
            let Some((request, _)) = armed.pending.take(total) else {
                break;
            };
            let answer = match &mut self.service {
                ServiceState::Echo => Some(&request),
                ServiceState::Kv(cache) => {
                    cycles += CYCLES_KV_LOOKUP;
                    match request[FRAME_HEADER_LEN..].split_first() {
                        Some((b'G', get)) => cache.get(get, stats),
                        _ => None,
                    }
                }
            };
            let header = TcpHeader {
                src_port: tcp.dst_port,
                dst_port: tcp.src_port,
                seq: SeqNum(armed.shadow.snd_nxt),
                ack: SeqNum(armed.shadow.rcv_nxt) + total as u32,
                flags: TcpFlags::ACK,
                window: armed.shadow.window,
                mss: None,
            };
            let framed = answer
                .filter(|answer| answer.len() <= armed.shadow.mss)
                .map(|answer| answer.copy_with_headroom(REPLY_HEADROOM))
                .and_then(|reply| Some((frame_reply(&reply, header, ip, eth).ok()?, reply)));
            let Some((reply_frame, reply)) = framed else {
                // Unanswerable (or, never for a fresh copy, unframeable):
                // the request is flushed with what followed it.
                armed.untake(request);
                fell = true;
                break;
            };
            armed.shadow.rcv_nxt = header.ack.0;
            armed.shadow.snd_nxt = armed.shadow.snd_nxt.wrapping_add(reply.len() as u32);
            tx.push((eth.src, reply_frame));

            cycles += CYCLES_SERVE_BASE + (reply.len() as u64 / 16) * CYCLES_SERVE_PER_16B;
            events.push_back(OffloadEvent::Served {
                key,
                rx_len: total as u32,
                reply,
                served_at: now,
            });
            stats.served += 1;
        }
        if fell {
            let fell_back = flow.disarm(key, events, stats);
            stats.fallbacks += u64::from(fell_back);
            self.unreconciled |= fell_back;
        }
        (RxDecision::Absorb, cycles)
    }
}

/// Headroom a reply payload needs for its TCP, IPv4 and Ethernet headers.
const REPLY_HEADROOM: usize = TCP_HEADER_LEN + IPV4_HEADER_LEN + ETH_HEADER_LEN;

/// The host's parse chain over one frame: `None` for anything it would not
/// hand to its TCP — other protocols, a failed header check or checksum.
/// The last field is the TCP payload, as views of the frame's segments.
fn parse_segment(frame: &Mbuf) -> Option<(EthHeader, Ipv4Header, TcpHeader, BufChain)> {
    let (eth, packet) = EthHeader::parse(frame.as_slice()).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let (ip, ihl) = Ipv4Header::parse_head(packet, frame.pkt_len() - ETH_HEADER_LEN).ok()?;
    // The TCP header sits in the first segment, as the host requires.
    if ip.protocol != IpProtocol::Tcp || packet.len() <= ihl {
        return None;
    }
    let mut segment = frame.segs().clone();
    segment.advance(ETH_HEADER_LEN + ihl);
    segment.truncate(ip.payload_len);
    let (tcp, data_off) = TcpHeader::parse_chain(ip.src, ip.dst, &segment).ok()?;
    segment.advance(data_off);
    Some((eth, ip, tcp, segment))
}

/// `reply` behind `tcp` and the IPv4 and Ethernet headers that send it
/// back the way `ip` and `eth` came, written into its headroom by the
/// serializers the host's TX path uses. The reply view itself stays as it
/// is: the host mirrors it into its retransmission queue.
fn frame_reply(
    reply: &DemiBuffer,
    tcp: TcpHeader,
    ip: Ipv4Header,
    eth: EthHeader,
) -> Result<DemiBuffer, HeadroomError> {
    let mut frame = reply.clone();
    tcp.prepend_onto(ip.dst, ip.src, &mut frame)?;
    let ip = Ipv4Header {
        src: ip.dst,
        dst: ip.src,
        payload_len: frame.len(),
        ..ip
    };
    ip.prepend_onto(&mut frame)?;
    let eth = EthHeader {
        src: eth.dst,
        dst: eth.src,
        ..eth
    };
    eth.prepend_onto(&mut frame)?;
    Ok(frame)
}

/// Invalidation-scan reassembly bound: the scanner only ever needs a
/// message's opcode and key, which sit at the front; once classified, the
/// rest of the message is skipped by byte count.
const SCAN_BUF_CAP: usize = 256;

/// Per-flow cursor for the write-through invalidation scanner. Unlike the
/// serve path's `pending` bytes, this runs for *every* flow on the port —
/// armed, fallen-back, or never armed — because a SET the host serves must
/// still invalidate device cache state.
#[derive(Default)]
struct InvalScan {
    /// Next expected sequence number; `None` until the scanner has seen
    /// the flow's SYN or a byte of it.
    nxt: Option<SeqNum>,
    /// Head-of-message bytes accumulated so far (≤ [`SCAN_BUF_CAP`]).
    buf: Vec<u8>,
    /// Remaining bytes of an already-classified message to discard.
    skip: usize,
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
    if scan.nxt.is_some_and(|nxt| nxt != seq) {
        // Discontinuity (retransmit, reorder, or a flow first seen
        // mid-stream): framing alignment is unknown, so forget everything
        // and resynchronize optimistically at this segment. A wrong guess
        // is caught by the magic check below, which clears again.
        cycles += cache.clear(stats);
        scan.buf.clear();
        scan.skip = 0;
    }
    scan.nxt = Some(seq + payload.len() as u32);
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

    fn shadow(rcv_nxt: u32, snd_nxt: u32) -> Option<FlowShadow> {
        Some(FlowShadow {
            rcv_nxt,
            snd_nxt,
            window: 65_000,
            mss: 1460,
        })
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
    fn parse_reply(frame: &DemiBuffer) -> (EthHeader, TcpHeader, Vec<u8>) {
        let frame = Mbuf::from_data(frame.clone());
        let (eth, _, tcp, payload) = parse_segment(&frame).expect("reply parses");
        (eth, tcp, payload.to_vec())
    }

    /// What examining one frame did: the decision, the device cycles and
    /// the reply frames built.
    struct Outcome {
        action: RxDecision,
        cycles: u64,
        tx: Vec<DemiBuffer>,
    }

    impl Outcome {
        fn served(&self) -> bool {
            !self.tx.is_empty()
        }
    }

    fn process(engine: &mut TcpOffload, frame: &DemiBuffer) -> Outcome {
        let mut tx = Vec::new();
        let frame = Mbuf::from_data(frame.clone());
        let (action, cycles) = engine.process(&frame, SimTime::ZERO, &mut tx);
        assert!(
            tx.iter().all(|(dst, _)| *dst == CLIENT_MAC),
            "replies go back"
        );
        let tx = tx.into_iter().map(|(_, frame)| frame).collect();
        Outcome { action, cycles, tx }
    }

    fn events(engine: &mut TcpOffload) -> Vec<OffloadEvent> {
        engine.take_events().collect()
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
        assert_eq!(o1.action, RxDecision::Absorb);
        assert!(!o1.served());
        assert!(o1.tx.is_empty(), "nothing served yet");

        let o2 = process(&mut engine, &body_seg);
        assert_eq!(o2.action, RxDecision::Absorb);
        assert!(o2.served());
        assert!(
            o2.cycles >= CYCLES_SERVE_BASE,
            "serving costs device cycles"
        );

        let tx = o2.tx;
        assert_eq!(tx.len(), 1);
        let (eth, reply, payload) = parse_reply(&tx[0]);
        assert_eq!(eth.dst, CLIENT_MAC);
        assert_eq!(reply.src_port, PORT);
        assert_eq!(reply.seq, SeqNum(5000));
        assert_eq!(reply.ack, SeqNum(1000 + msg.len() as u32));
        assert_eq!(payload, &msg[..], "echo reply mirrors the request");

        let events = events(&mut engine);
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

            let o = process(&mut engine, &DemiBuffer::from_slice(&corrupted));
            assert_eq!(o.action, DELIVER, "byte {flipped_byte}");
            assert!(!o.served());
            assert!(events(&mut engine).is_empty(), "no event, no fallback");
            assert!(o.tx.is_empty(), "no reply");
            assert_eq!(engine.stats(), armed, "nothing counted, flow still armed");

            let o = process(&mut engine, &clean);
            assert!(o.served());
            assert_eq!(parse_reply(&o.tx[0]).2, &msg[..]);
            assert_eq!(engine.stats().served, 1);
        }
    }

    #[test]
    fn pure_ack_is_absorbed_and_forwarded() {
        let mut engine = TcpOffload::new(PORT, OffloadService::Echo);
        engine.arm_flow(key(), shadow(1000, 5000));
        let ack = client_data(1000, 5100, b"");
        let o = process(&mut engine, &ack);
        assert_eq!(o.action, RxDecision::Absorb);
        match &events(&mut engine)[..] {
            [OffloadEvent::AckAdvance { ack, window, .. }] => {
                assert_eq!(*ack, 5100);
                assert_eq!(*window, 60_000);
            }
            other => panic!("unexpected events {other:?}"),
        }
        // A duplicate of the same ACK falls back to the host.
        let dup = client_data(1000, 5100, b"");
        let o = process(&mut engine, &dup);
        assert_eq!(o.action, DELIVER);
        assert!(engine.flows[&key()].armed.is_none(), "flow fell back");
        assert_eq!(engine.stats().fallbacks, 1);
    }

    #[test]
    fn fin_falls_back_and_flushes_pending_bytes() {
        let mut engine = TcpOffload::new(PORT, OffloadService::Echo);
        engine.arm_flow(key(), shadow(1000, 5000));
        let msg = encode_message(b"partial");
        let hdr_seg = client_data(1000, 5000, &msg[..FRAME_HEADER_LEN]);
        assert_eq!(process(&mut engine, &hdr_seg).action, RxDecision::Absorb);

        let fin = client_segment(1008, 5000, TcpFlags::FIN_ACK, b"");
        let o = process(&mut engine, &fin);
        assert_eq!(o.action, DELIVER, "host handles the FIN");
        let events = events(&mut engine);
        match &events[..] {
            [OffloadEvent::Flushed { data, .. }] => {
                assert_eq!(data.as_slice(), &msg[..FRAME_HEADER_LEN]);
            }
            other => panic!("unexpected events {other:?}"),
        }
        assert!(engine.flows[&key()].armed.is_none(), "flow fell back");
        assert_eq!(engine.stats().fallbacks, 1);
    }

    #[test]
    fn out_of_order_segment_falls_back() {
        let mut engine = TcpOffload::new(PORT, OffloadService::Echo);
        engine.arm_flow(key(), shadow(1000, 5000));
        let msg = encode_message(b"x");
        let ooo = client_data(1500, 5000, &msg);
        let o = process(&mut engine, &ooo);
        assert_eq!(o.action, DELIVER);
        assert!(engine.flows[&key()].armed.is_none());
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
        assert_eq!(o.action, RxDecision::Absorb);
        assert!(o.served());
        assert_eq!(parse_reply(&o.tx[0]).2, &encode_message(b"Vv1")[..]);
        assert_eq!(engine.stats().kv_hits, 1);

        // GET miss: falls back (bytes flushed to host).
        let nxt = 1000 + get.len() as u32;
        let miss = encode_message(b"Gk2");
        let o = process(&mut engine, &client_data(nxt, 5000, &miss));
        assert_eq!(o.action, RxDecision::Absorb, "bytes travel via Flushed");
        let events = events(&mut engine);
        assert!(matches!(events[0], OffloadEvent::Served { .. }));
        match &events[1] {
            OffloadEvent::Flushed { data, .. } => assert_eq!(data.as_slice(), &miss[..]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(events.len(), 2);
        assert!(engine.flows[&key()].armed.is_none(), "flow fell back");
        assert_eq!(engine.stats().fallbacks, 1);
        assert_eq!(engine.stats().kv_misses, 1);

        // SET on the (now host-pending) flow still invalidates.
        let nxt = nxt + miss.len() as u32;
        let set = encode_message(b"Sk1=v2");
        let o = process(&mut engine, &client_data(nxt, 5000, &set));
        assert_eq!(o.action, DELIVER, "host serves the SET");
        assert_eq!(engine.stats().kv_invalidations, 1);

        // Re-arm; the stale key must miss now.
        engine.arm_flow(key(), shadow(2000, 6000));
        let get1 = encode_message(b"Gk1");
        let o = process(&mut engine, &client_data(2000, 6000, &get1));
        assert!(!o.served(), "invalidated key cannot hit");
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
        assert!(process(&mut engine, &client_data(0, 0, &g1)).served());
        events(&mut engine);
        assert!(engine.cache_insert(b"k4", b"dddd"));
        let s = engine.stats();
        assert_eq!(s.kv_evictions, 1);
        assert!(s.cache_bytes <= 20);
        // k2 was evicted; k1 survived.
        let nxt = g1.len() as u32;
        let g2 = encode_message(b"Gk2");
        let o = process(&mut engine, &client_data(nxt, 0, &g2));
        assert!(!o.served(), "LRU entry was evicted");
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
        let events = events(&mut engine);
        assert!(matches!(&events[..], [OffloadEvent::Flushed { .. }]));
        assert_eq!(engine.stats().flows_armed, 0);
        // Frames now pass straight through.
        let o = process(
            &mut engine,
            &client_data(1008, 5000, &msg[FRAME_HEADER_LEN..]),
        );
        assert_eq!(o.action, DELIVER);
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
        assert_eq!(o.action, RxDecision::Absorb);
        let tx = o.tx;
        assert_eq!(tx.len(), 2, "one reply per message");
        let events = events(&mut engine);
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

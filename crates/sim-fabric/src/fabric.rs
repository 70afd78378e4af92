//! The event-driven fabric core: endpoints, links, and frame delivery.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;

use demi_memory::DemiBuffer;

use crate::clock::{SimClock, SimTime};
use crate::rng::SimRng;
use crate::trace::{TraceEvent, Tracer};

/// A 48-bit Ethernet-style hardware address identifying a fabric endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddress([u8; 6]);

impl MacAddress {
    /// The broadcast address (`ff:ff:ff:ff:ff:ff`).
    pub const BROADCAST: MacAddress = MacAddress([0xFF; 6]);

    /// Creates an address from raw octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddress(octets)
    }

    /// Raw octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Convenience constructor used throughout tests: a locally-administered
    /// unicast address whose last octet is `n`.
    pub const fn from_last_octet(n: u8) -> Self {
        MacAddress([0x02, 0, 0, 0, 0, n])
    }
}

impl fmt::Debug for MacAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Display for MacAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A raw frame carried by the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Transmitting endpoint.
    pub src: MacAddress,
    /// Destination endpoint as addressed by the sender (may be broadcast).
    pub dst: MacAddress,
    /// Opaque payload bytes (for NIC simulators, a full Ethernet frame).
    ///
    /// Carried as a [`DemiBuffer`] handle: the fabric never copies payload
    /// bytes — the receiver reads the very storage the sender transmitted
    /// (zero-copy end to end). Broadcast clones the handle per receiver.
    pub payload: DemiBuffer,
    /// Virtual instant at which the frame reached the receiver's mailbox.
    pub delivered_at: SimTime,
}

/// Per-link characteristics.
///
/// Links are directional: `set_link(a, b, ..)` configures frames flowing from
/// `a` to `b` only. Endpoints without an explicit entry use the fabric-wide
/// default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub latency: SimTime,
    /// Line rate in bits per second; `0` means infinite (no serialization
    /// delay).
    pub bandwidth_bps: u64,
    /// Independent per-frame loss probability in `[0, 1]`.
    pub loss_probability: f64,
}

impl Default for LinkConfig {
    /// Defaults approximate an intra-rack datacenter hop: 1µs one-way,
    /// 40 Gbps, lossless.
    fn default() -> Self {
        LinkConfig {
            latency: SimTime::from_micros(1),
            bandwidth_bps: 40_000_000_000,
            loss_probability: 0.0,
        }
    }
}

impl LinkConfig {
    /// A zero-latency, infinite-bandwidth, lossless link (useful in unit
    /// tests that only care about ordering).
    pub fn ideal() -> Self {
        LinkConfig {
            latency: SimTime::ZERO,
            bandwidth_bps: 0,
            loss_probability: 0.0,
        }
    }

    /// Serialization delay for a frame of `len` bytes on this link.
    pub fn serialization_delay(&self, len: usize) -> SimTime {
        if self.bandwidth_bps == 0 {
            return SimTime::ZERO;
        }
        let bits = len as u128 * 8;
        let ns = bits * 1_000_000_000 / self.bandwidth_bps as u128;
        SimTime::from_nanos(ns as u64)
    }
}

/// Aggregate fabric counters, available via [`Fabric::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Frames accepted for transmission (broadcast counts once per receiver).
    pub frames_sent: u64,
    /// Frames placed into a receiving mailbox.
    pub frames_delivered: u64,
    /// Frames dropped (loss model, unknown destination, or mailbox overflow).
    pub frames_dropped: u64,
    /// Payload bytes accepted for transmission.
    pub bytes_sent: u64,
}

#[derive(Debug)]
struct PendingFrame {
    deliver_at: SimTime,
    seq: u64,
    /// The destination's index in `mailboxes`, resolved when the frame was
    /// accepted, so delivery hashes nothing.
    dst_box: usize,
    frame: Frame,
}

impl PartialEq for PendingFrame {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for PendingFrame {}
impl PartialOrd for PendingFrame {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingFrame {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

struct Mailbox {
    mac: MacAddress,
    queue: VecDeque<Frame>,
    capacity: usize,
    /// When this endpoint's line finishes serializing what it has sent.
    line_busy_until: SimTime,
}

/// A MAC address and, when it is a registered endpoint's, that endpoint's
/// index in `mailboxes`.
type Station = (MacAddress, Option<usize>);

struct FabricInner {
    clock: SimClock,
    rng: SimRng,
    tracer: Tracer,
    /// Every registered mailbox, in registration order; an [`Endpoint`]
    /// holds its index, so polling an idle NIC hashes nothing.
    mailboxes: Vec<Mailbox>,
    /// MAC → index into `mailboxes`, for frames addressed by MAC.
    endpoints: HashMap<MacAddress, usize>,
    default_link: LinkConfig,
    links: HashMap<(MacAddress, MacAddress), LinkConfig>,
    partitions: HashSet<(MacAddress, MacAddress)>,
    pending: BinaryHeap<Reverse<PendingFrame>>,
    seq: u64,
    stats: FabricStats,
}

impl FabricInner {
    fn link_for(&self, src: MacAddress, dst: MacAddress) -> LinkConfig {
        self.links
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default_link)
    }

    fn is_partitioned(&self, a: MacAddress, b: MacAddress) -> bool {
        self.partitions.contains(&(a, b)) || self.partitions.contains(&(b, a))
    }

    /// Accepts one frame for `dst`; one addressed to no endpoint is dropped.
    fn enqueue_unicast(
        &mut self,
        (src, src_box): Station,
        (dst, dst_box): Station,
        payload: DemiBuffer,
    ) {
        let now = self.clock.now();
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        self.tracer.record(TraceEvent::Transmit {
            at: now,
            src,
            dst,
            len: payload.len(),
        });

        let link = self.link_for(src, dst);
        let lost = dst_box.is_none()
            || self.is_partitioned(src, dst)
            || self.rng.chance(link.loss_probability);
        let (Some(dst_box), false) = (dst_box, lost) else {
            self.stats.frames_dropped += 1;
            self.tracer.record(TraceEvent::Drop {
                at: now,
                src,
                dst,
                len: payload.len(),
            });
            return;
        };

        // Serialization: the sender's line transmits frames back-to-back.
        let mut no_line = SimTime::ZERO;
        let line = match src_box {
            Some(src_box) => &mut self.mailboxes[src_box].line_busy_until,
            None => &mut no_line,
        };
        *line = (*line)
            .max(now)
            .saturating_add(link.serialization_delay(payload.len()));
        let deliver_at = line.saturating_add(link.latency);

        self.seq += 1;
        self.pending.push(Reverse(PendingFrame {
            deliver_at,
            seq: self.seq,
            dst_box,
            frame: Frame {
                src,
                dst,
                payload,
                delivered_at: deliver_at,
            },
        }));
    }

    fn transmit(&mut self, src: Station, dst: MacAddress, payload: DemiBuffer) {
        if dst.is_broadcast() {
            for receiver in 0..self.mailboxes.len() {
                let mac = self.mailboxes[receiver].mac;
                if mac != src.0 {
                    // Handle clone: every receiver reads the same storage.
                    self.enqueue_unicast(src, (mac, Some(receiver)), payload.clone());
                }
            }
        } else {
            let dst_box = self.endpoints.get(&dst).copied();
            self.enqueue_unicast(src, (dst, dst_box), payload);
        }
    }

    /// Delivers every frame due at `now`; returns how many reached a mailbox.
    fn deliver_due(&mut self) -> usize {
        let now = self.clock.now();
        let delivered_before = self.stats.frames_delivered;
        while let Some(Reverse(head)) = self.pending.peek() {
            if head.deliver_at > now {
                break;
            }
            let Reverse(p) = self.pending.pop().expect("peeked entry exists");
            let (dst, len) = (p.frame.dst, p.frame.payload.len());
            let mailbox = &mut self.mailboxes[p.dst_box];
            if mailbox.queue.len() < mailbox.capacity {
                mailbox.queue.push_back(p.frame);
                self.stats.frames_delivered += 1;
                self.tracer
                    .record(TraceEvent::Deliver { at: now, dst, len });
            } else {
                self.stats.frames_dropped += 1;
                self.tracer.record(TraceEvent::Drop {
                    at: now,
                    src: p.frame.src,
                    dst,
                    len,
                });
            }
        }
        (self.stats.frames_delivered - delivered_before) as usize
    }
}

/// The shared fabric: a registry of endpoints plus an in-flight frame heap.
///
/// Cloning a `Fabric` yields another handle to the same fabric. All methods
/// take `&self`; interior mutability keeps the single-threaded simulation
/// ergonomic.
#[derive(Clone)]
pub struct Fabric {
    inner: Rc<RefCell<FabricInner>>,
}

/// Default per-endpoint mailbox capacity, in frames.
pub const DEFAULT_MAILBOX_CAPACITY: usize = 65_536;

impl Fabric {
    /// Creates a fabric with a fresh clock and the given loss-model seed.
    pub fn new(seed: u64) -> Self {
        Self::with_clock(SimClock::new(), seed)
    }

    /// Creates a fabric sharing an existing clock.
    pub fn with_clock(clock: SimClock, seed: u64) -> Self {
        Fabric {
            inner: Rc::new(RefCell::new(FabricInner {
                clock,
                rng: SimRng::new(seed),
                tracer: Tracer::new(4096),
                mailboxes: Vec::new(),
                endpoints: HashMap::new(),
                default_link: LinkConfig::default(),
                links: HashMap::new(),
                partitions: HashSet::new(),
                pending: BinaryHeap::new(),
                seq: 0,
                stats: FabricStats::default(),
            })),
        }
    }

    /// Handle to the fabric's clock.
    pub fn clock(&self) -> SimClock {
        self.inner.borrow().clock.clone()
    }

    /// Handle to the fabric's tracer.
    pub fn tracer(&self) -> Tracer {
        self.inner.borrow().tracer.clone()
    }

    /// Sets the link configuration used by endpoint pairs without an
    /// explicit override.
    pub fn set_default_link(&self, config: LinkConfig) {
        self.inner.borrow_mut().default_link = config;
    }

    /// Configures the directional link `src → dst`.
    pub fn set_link(&self, src: MacAddress, dst: MacAddress, config: LinkConfig) {
        self.inner.borrow_mut().links.insert((src, dst), config);
    }

    /// Severs connectivity between `a` and `b` in both directions
    /// (failure injection). In-flight frames still arrive.
    pub fn partition(&self, a: MacAddress, b: MacAddress) {
        self.inner.borrow_mut().partitions.insert((a, b));
    }

    /// Restores connectivity previously removed by [`Fabric::partition`].
    pub fn heal(&self, a: MacAddress, b: MacAddress) {
        let mut inner = self.inner.borrow_mut();
        inner.partitions.remove(&(a, b));
        inner.partitions.remove(&(b, a));
    }

    /// Registers an endpoint with the default mailbox capacity.
    ///
    /// # Panics
    ///
    /// Panics if `mac` is already registered or is the broadcast address;
    /// both indicate a test-harness configuration bug.
    pub fn register_endpoint(&self, mac: MacAddress) -> Endpoint {
        self.register_endpoint_with_capacity(mac, DEFAULT_MAILBOX_CAPACITY)
    }

    /// Registers an endpoint whose mailbox holds at most `capacity` frames;
    /// frames arriving beyond that are dropped (tail drop), as on a real NIC
    /// RX ring.
    ///
    /// # Panics
    ///
    /// Panics if `mac` is already registered or is the broadcast address.
    pub fn register_endpoint_with_capacity(&self, mac: MacAddress, capacity: usize) -> Endpoint {
        assert!(!mac.is_broadcast(), "cannot register the broadcast address");
        let mut inner = self.inner.borrow_mut();
        let mailbox = inner.mailboxes.len();
        let prev = inner.endpoints.insert(mac, mailbox);
        assert!(prev.is_none(), "endpoint {mac} registered twice");
        inner.mailboxes.push(Mailbox {
            mac,
            queue: VecDeque::new(),
            capacity,
            line_busy_until: SimTime::ZERO,
        });
        drop(inner);
        Endpoint {
            fabric: self.clone(),
            mac,
            mailbox,
        }
    }

    /// Transmits `payload` from `src` to `dst` (which may be broadcast).
    ///
    /// Accepts anything convertible into a [`DemiBuffer`] — a `Vec<u8>`
    /// converts by taking ownership of its storage, a `DemiBuffer` passes
    /// straight through (the zero-copy path), and a `&[u8]` is copied.
    ///
    /// `src` is looked up once; an [`Endpoint`] already knows its mailbox
    /// and [`Endpoint::transmit`] skips the lookup. A `src` that was never
    /// registered is a frame injected onto the wire by no NIC: it owns no
    /// line, so its frames are not serialized behind one another — each
    /// leaves at `now` and pays only its own serialization delay.
    pub fn transmit(&self, src: MacAddress, dst: MacAddress, payload: impl Into<DemiBuffer>) {
        let mut inner = self.inner.borrow_mut();
        let src_box = inner.endpoints.get(&src).copied();
        inner.transmit((src, src_box), dst, payload.into());
    }

    /// Earliest in-flight delivery instant, if any frame is in flight.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.inner
            .borrow()
            .pending
            .peek()
            .map(|Reverse(p)| p.deliver_at)
    }

    /// Delivers every frame whose delivery instant is `<= now`; returns
    /// how many reached a mailbox.
    pub fn deliver_due(&self) -> usize {
        self.inner.borrow_mut().deliver_due()
    }

    /// Advances the clock to the next delivery instant and delivers.
    /// Returns `false` when nothing is in flight.
    pub fn advance_to_next_event(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        let Some(Reverse(head)) = inner.pending.peek() else {
            return false;
        };
        inner.clock.advance_to(head.deliver_at);
        inner.deliver_due();
        true
    }

    /// Advances the clock to `t`, delivering every frame due on the way.
    pub fn advance_to(&self, t: SimTime) {
        loop {
            match self.next_event_time() {
                Some(next) if next <= t => {
                    self.clock().advance_to(next);
                    self.deliver_due();
                }
                _ => break,
            }
        }
        self.clock().advance_to(t);
    }

    /// Snapshot of aggregate counters.
    pub fn stats(&self) -> FabricStats {
        self.inner.borrow().stats
    }

    /// Number of frames currently in flight (transmitted, not yet delivered).
    pub fn in_flight(&self) -> usize {
        self.inner.borrow().pending.len()
    }
}

/// A registered attachment point on the fabric; owned by a simulated NIC.
#[derive(Clone)]
pub struct Endpoint {
    fabric: Fabric,
    mac: MacAddress,
    /// Index of this endpoint's mailbox in the fabric.
    mailbox: usize,
}

impl Endpoint {
    /// This endpoint's hardware address.
    pub fn mac(&self) -> MacAddress {
        self.mac
    }

    /// Handle to the owning fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Transmits a frame to `dst` (zero-copy when given a [`DemiBuffer`]).
    pub fn transmit(&self, dst: MacAddress, payload: impl Into<DemiBuffer>) {
        let mut inner = self.fabric.inner.borrow_mut();
        inner.transmit((self.mac, Some(self.mailbox)), dst, payload.into());
    }

    /// Transmits a broadcast frame.
    pub fn broadcast(&self, payload: impl Into<DemiBuffer>) {
        self.transmit(MacAddress::BROADCAST, payload);
    }

    /// Whether a delivered frame is waiting: the O(1) question a polling
    /// NIC asks before it drains anything.
    pub fn has_rx(&self) -> bool {
        let inner = self.fabric.inner.borrow();
        !inner.mailboxes[self.mailbox].queue.is_empty()
    }

    /// Dequeues the next delivered frame, if any. Does not advance time.
    pub fn receive(&self) -> Option<Frame> {
        let mut inner = self.fabric.inner.borrow_mut();
        inner.mailboxes[self.mailbox].queue.pop_front()
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Endpoint({})", self.mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Endpoint {
        /// Number of frames waiting in this endpoint's mailbox.
        fn pending_rx(&self) -> usize {
            let inner = self.fabric.inner.borrow();
            inner.mailboxes[self.mailbox].queue.len()
        }
    }

    fn two_endpoints(fabric: &Fabric) -> (Endpoint, Endpoint) {
        (
            fabric.register_endpoint(MacAddress::from_last_octet(1)),
            fabric.register_endpoint(MacAddress::from_last_octet(2)),
        )
    }

    #[test]
    fn unicast_delivery_after_latency() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig {
            latency: SimTime::from_micros(3),
            bandwidth_bps: 0,
            loss_probability: 0.0,
        });
        let (a, b) = two_endpoints(&fabric);
        a.transmit(b.mac(), vec![1, 2, 3]);
        assert_eq!(b.pending_rx(), 0);
        assert_eq!(fabric.next_event_time(), Some(SimTime::from_micros(3)));
        assert!(fabric.advance_to_next_event());
        let f = b.receive().expect("frame delivered");
        assert_eq!(f.payload, vec![1, 2, 3]);
        assert_eq!(f.src, a.mac());
        assert_eq!(f.delivered_at, SimTime::from_micros(3));
        assert!(b.receive().is_none());
    }

    #[test]
    fn serialization_delay_accumulates_back_to_back() {
        let fabric = Fabric::new(1);
        // 1 Gbps: an 1250-byte frame serializes in exactly 10µs.
        fabric.set_default_link(LinkConfig {
            latency: SimTime::ZERO,
            bandwidth_bps: 1_000_000_000,
            loss_probability: 0.0,
        });
        let (a, b) = two_endpoints(&fabric);
        a.transmit(b.mac(), vec![0; 1250]);
        a.transmit(b.mac(), vec![0; 1250]);
        assert_eq!(fabric.next_event_time(), Some(SimTime::from_micros(10)));
        fabric.advance_to(SimTime::from_micros(10));
        assert_eq!(b.pending_rx(), 1);
        fabric.advance_to(SimTime::from_micros(20));
        assert_eq!(b.pending_rx(), 2);
    }

    /// Each sender has its own line: `a`'s second frame queues behind its
    /// first, `b`'s first does not queue behind either. A source that was
    /// never registered has no line at all — its frames overlap.
    #[test]
    fn lines_are_per_sender_and_an_unregistered_source_has_none() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig {
            latency: SimTime::ZERO,
            bandwidth_bps: 1_000_000_000,
            loss_probability: 0.0,
        });
        let (a, b) = two_endpoints(&fabric);
        let c = fabric.register_endpoint(MacAddress::from_last_octet(3));
        a.transmit(c.mac(), vec![0; 1250]);
        a.transmit(c.mac(), vec![0; 1250]);
        b.transmit(c.mac(), vec![0; 1250]);
        // `Fabric::transmit` with a registered source is that endpoint's line.
        fabric.transmit(b.mac(), c.mac(), vec![0; 1250]);
        let ghost = MacAddress::from_last_octet(99);
        fabric.transmit(ghost, c.mac(), vec![0; 1250]);
        fabric.transmit(ghost, c.mac(), vec![0; 1250]);
        fabric.advance_to(SimTime::from_micros(10));
        assert_eq!(c.pending_rx(), 4, "a#1, b#1 and both ghost frames");
        fabric.advance_to(SimTime::from_micros(20));
        assert_eq!(c.pending_rx(), 6, "a#2 and b#2 queued behind their firsts");
        assert_eq!(fabric.stats().frames_delivered, 6);
    }

    #[test]
    fn deliver_due_reports_what_reached_a_mailbox() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = fabric.register_endpoint(MacAddress::from_last_octet(1));
        let b = fabric.register_endpoint_with_capacity(MacAddress::from_last_octet(2), 2);
        assert!(!b.has_rx());
        assert_eq!(fabric.deliver_due(), 0);
        for i in 0..3u8 {
            a.transmit(b.mac(), vec![i]);
        }
        a.transmit(MacAddress::from_last_octet(99), vec![9]);
        assert_eq!(
            fabric.deliver_due(),
            2,
            "one overflowed, one had no mailbox"
        );
        assert!(b.has_rx() && !a.has_rx());
        assert_eq!(fabric.deliver_due(), 0);
    }

    #[test]
    fn ordered_delivery_at_equal_instants() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let (a, b) = two_endpoints(&fabric);
        for i in 0..10u8 {
            a.transmit(b.mac(), vec![i]);
        }
        fabric.deliver_due();
        for i in 0..10u8 {
            assert_eq!(b.receive().unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = fabric.register_endpoint(MacAddress::from_last_octet(1));
        let b = fabric.register_endpoint(MacAddress::from_last_octet(2));
        let c = fabric.register_endpoint(MacAddress::from_last_octet(3));
        a.broadcast(vec![9]);
        fabric.deliver_due();
        assert_eq!(a.pending_rx(), 0);
        assert_eq!(b.receive().unwrap().payload, vec![9]);
        assert_eq!(c.receive().unwrap().payload, vec![9]);
    }

    #[test]
    fn loss_model_drops_expected_fraction() {
        let fabric = Fabric::new(42);
        fabric.set_default_link(LinkConfig {
            latency: SimTime::ZERO,
            bandwidth_bps: 0,
            loss_probability: 0.25,
        });
        let (a, b) = two_endpoints(&fabric);
        for _ in 0..10_000 {
            a.transmit(b.mac(), vec![0; 8]);
        }
        fabric.deliver_due();
        let stats = fabric.stats();
        assert_eq!(stats.frames_sent, 10_000);
        assert_eq!(stats.frames_delivered + stats.frames_dropped, 10_000);
        assert!(
            (2_000..3_000).contains(&(stats.frames_dropped as usize)),
            "dropped {}",
            stats.frames_dropped
        );
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = |seed| {
            let fabric = Fabric::new(seed);
            fabric.set_default_link(LinkConfig {
                latency: SimTime::ZERO,
                bandwidth_bps: 0,
                loss_probability: 0.5,
            });
            let (a, b) = two_endpoints(&fabric);
            for _ in 0..100 {
                a.transmit(b.mac(), vec![0]);
            }
            fabric.deliver_due();
            fabric.stats().frames_dropped
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn partition_drops_both_directions_and_heals() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let (a, b) = two_endpoints(&fabric);
        fabric.partition(a.mac(), b.mac());
        a.transmit(b.mac(), vec![1]);
        b.transmit(a.mac(), vec![2]);
        fabric.deliver_due();
        assert_eq!(b.pending_rx(), 0);
        assert_eq!(a.pending_rx(), 0);
        assert_eq!(fabric.stats().frames_dropped, 2);
        fabric.heal(b.mac(), a.mac());
        a.transmit(b.mac(), vec![3]);
        fabric.deliver_due();
        assert_eq!(b.receive().unwrap().payload, vec![3]);
    }

    #[test]
    fn unknown_destination_is_dropped() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = fabric.register_endpoint(MacAddress::from_last_octet(1));
        a.transmit(MacAddress::from_last_octet(99), vec![1]);
        fabric.deliver_due();
        assert_eq!(fabric.stats().frames_dropped, 1);
    }

    #[test]
    fn mailbox_overflow_tail_drops() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = fabric.register_endpoint(MacAddress::from_last_octet(1));
        let b = fabric.register_endpoint_with_capacity(MacAddress::from_last_octet(2), 2);
        for i in 0..5u8 {
            a.transmit(b.mac(), vec![i]);
        }
        fabric.deliver_due();
        assert_eq!(b.pending_rx(), 2);
        assert_eq!(fabric.stats().frames_dropped, 3);
        // Head of the queue is the earliest frame (tail drop, not head drop).
        assert_eq!(b.receive().unwrap().payload, vec![0]);
    }

    #[test]
    fn per_link_override_beats_default() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig {
            latency: SimTime::from_micros(100),
            bandwidth_bps: 0,
            loss_probability: 0.0,
        });
        let (a, b) = two_endpoints(&fabric);
        fabric.set_link(
            a.mac(),
            b.mac(),
            LinkConfig {
                latency: SimTime::from_micros(1),
                bandwidth_bps: 0,
                loss_probability: 0.0,
            },
        );
        a.transmit(b.mac(), vec![1]);
        b.transmit(a.mac(), vec![2]);
        // a→b uses the 1µs override; b→a still uses the 100µs default.
        assert_eq!(fabric.next_event_time(), Some(SimTime::from_micros(1)));
        fabric.advance_to(SimTime::from_micros(1));
        assert_eq!(b.pending_rx(), 1);
        assert_eq!(a.pending_rx(), 0);
        fabric.advance_to(SimTime::from_micros(100));
        assert_eq!(a.pending_rx(), 1);
    }

    #[test]
    fn tracer_records_when_enabled() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        fabric.tracer().set_enabled(true);
        let (a, b) = two_endpoints(&fabric);
        a.transmit(b.mac(), vec![1, 2]);
        fabric.deliver_due();
        let events = fabric.tracer().snapshot();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], TraceEvent::Transmit { len: 2, .. }));
        assert!(matches!(events[1], TraceEvent::Deliver { len: 2, .. }));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let fabric = Fabric::new(1);
        let _a = fabric.register_endpoint(MacAddress::from_last_octet(1));
        let _b = fabric.register_endpoint(MacAddress::from_last_octet(1));
    }

    #[test]
    fn advance_to_delivers_intermediate_events() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig {
            latency: SimTime::from_micros(2),
            bandwidth_bps: 0,
            loss_probability: 0.0,
        });
        let (a, b) = two_endpoints(&fabric);
        a.transmit(b.mac(), vec![1]);
        fabric.clock().advance_to(SimTime::from_micros(1));
        a.transmit(b.mac(), vec![2]);
        fabric.advance_to(SimTime::from_millis(1));
        assert_eq!(b.pending_rx(), 2);
        assert_eq!(fabric.clock().now(), SimTime::from_millis(1));
        assert_eq!(fabric.in_flight(), 0);
    }
}

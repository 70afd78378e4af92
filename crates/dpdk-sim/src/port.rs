//! The burst-oriented port: descriptor rings over a fabric endpoint.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use sim_fabric::{DeviceCaps, Endpoint, Fabric, MacAddress};

use crate::mbuf::Mbuf;
use crate::mempool::Mempool;
use crate::smartnic::{
    NicProgram, ProgramSlot, RxDecision, SmartNic, SmartNicError, SmartNicStats,
};

/// Port construction parameters.
#[derive(Debug, Clone)]
pub struct PortConfig {
    /// Hardware address on the fabric.
    pub mac: MacAddress,
    /// Number of RX queues (RSS spreads across them).
    pub num_rx_queues: u16,
    /// Descriptor-ring depth per RX queue; arrivals beyond this are
    /// tail-dropped, like a real NIC whose ring the host failed to drain.
    pub rx_ring_size: usize,
    /// SmartNIC program slots; 0 makes this a plain DPDK device.
    pub smartnic_slots: usize,
}

impl PortConfig {
    /// A single-queue plain port — the common test configuration.
    pub fn basic(mac: MacAddress) -> Self {
        PortConfig {
            mac,
            num_rx_queues: 1,
            rx_ring_size: 1024,
            smartnic_slots: 0,
        }
    }

    /// A programmable port with `slots` program slots.
    pub fn smartnic(mac: MacAddress, slots: usize) -> Self {
        PortConfig {
            smartnic_slots: slots,
            ..Self::basic(mac)
        }
    }
}

/// Per-RX-queue counters — the device-side view of RSS steering. A
/// sharded host reads these to verify each shard's queue actually carries
/// its share of the load (E14).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortQueueStats {
    /// Frames currently waiting in the queue's descriptor ring.
    pub depth: usize,
    /// Frames ever accepted into this ring.
    pub enqueued: u64,
    /// Frames tail-dropped because this ring was full.
    pub dropped: u64,
}

/// Port counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// `tx_burst` invocations — device handoffs (doorbell rings). The
    /// batching experiment's headline ratio is `tx_frames / tx_burst_calls`.
    pub tx_burst_calls: u64,
    /// Frames handed to the fabric.
    pub tx_frames: u64,
    /// Payload bytes transmitted.
    pub tx_bytes: u64,
    /// Frames accepted into an RX ring.
    pub rx_frames: u64,
    /// Payload bytes received.
    pub rx_bytes: u64,
    /// Frames dropped because the target RX ring was full.
    pub rx_ring_drops: u64,
    /// Frames the SmartNIC consumed device-side (offload absorb); these
    /// never count as `rx_frames` — no host crossing happened.
    pub device_absorbed_frames: u64,
    /// Frames the SmartNIC transmitted device-side (offload replies);
    /// these never count as `tx_frames` or `tx_burst_calls` — the host
    /// rang no doorbell.
    pub device_tx_frames: u64,
}

struct PortInner {
    endpoint: Endpoint,
    config: PortConfig,
    mempool: Mempool,
    rx_rings: Vec<VecDeque<Mbuf>>,
    queue_stats: Vec<PortQueueStats>,
    smartnic: SmartNic,
    stats: PortStats,
}

/// A simulated DPDK port.
///
/// The API is deliberately burst-shaped, mirroring `rte_eth_rx_burst` /
/// `rte_eth_tx_burst`: the host *polls*; the device never interrupts.
/// Frames carry standard Ethernet headers — the port itself does not parse
/// beyond the destination MAC (needed to address the fabric), underlining
/// that everything above L2 is the library OS's problem.
#[derive(Clone)]
pub struct DpdkPort {
    inner: Rc<RefCell<PortInner>>,
}

impl DpdkPort {
    /// Creates a port attached to `fabric`.
    ///
    /// # Panics
    ///
    /// Panics if `num_rx_queues` is 0 or the MAC is already registered.
    pub fn new(fabric: &Fabric, config: PortConfig) -> Self {
        assert!(
            config.num_rx_queues > 0,
            "a port needs at least one RX queue"
        );
        let endpoint = fabric.register_endpoint(config.mac);
        let mempool = Mempool::new();
        mempool.warm_up();
        DpdkPort {
            inner: Rc::new(RefCell::new(PortInner {
                endpoint,
                rx_rings: (0..config.num_rx_queues).map(|_| VecDeque::new()).collect(),
                queue_stats: vec![PortQueueStats::default(); config.num_rx_queues as usize],
                smartnic: SmartNic::new(config.smartnic_slots),
                config,
                mempool,
                stats: PortStats::default(),
            })),
        }
    }

    /// The port's hardware address.
    pub fn mac(&self) -> MacAddress {
        self.inner.borrow().config.mac
    }

    /// The port's packet-buffer pool.
    pub fn mempool(&self) -> Mempool {
        self.inner.borrow().mempool.clone()
    }

    /// Number of RX queues.
    pub fn num_rx_queues(&self) -> u16 {
        self.inner.borrow().config.num_rx_queues
    }

    /// This port's capability descriptor (Table 1 / experiment E7).
    pub fn capabilities(&self) -> DeviceCaps {
        if self.inner.borrow().config.smartnic_slots > 0 {
            crate::smartnic_capabilities()
        } else {
            crate::capabilities()
        }
    }

    /// Transmits up to all of `frames`; returns how many were accepted.
    ///
    /// Each frame must start with a 14-byte Ethernet header; the destination
    /// MAC (first 6 bytes) addresses the fabric. Short frames are rejected
    /// (not transmitted), mirroring hardware minimum-frame rules.
    pub fn tx_burst(&self, frames: &[Mbuf]) -> usize {
        let mut inner = self.inner.borrow_mut();
        inner.stats.tx_burst_calls += 1;
        // Attribute the doorbell to the op whose coroutine is being
        // polled (if any) — the device-handoff point of its span.
        if demi_telemetry::span::enabled() {
            demi_telemetry::span::note_current(
                demi_telemetry::span::SpanPoint::DeviceHandoff,
                demi_telemetry::now_ns(),
            );
        }
        let mut sent = 0;
        for mbuf in frames {
            let bytes = mbuf.as_slice();
            if bytes.len() < 14 {
                continue;
            }
            let dst = MacAddress::new([bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5]]);
            // Handle clone, not a byte copy: the fabric carries the very
            // storage the caller framed.
            inner.endpoint.transmit(dst, mbuf.data.clone());
            inner.stats.tx_frames += 1;
            inner.stats.tx_bytes += bytes.len() as u64;
            sent += 1;
        }
        sent
    }

    /// Receives up to `max` frames from RX queue `queue`.
    ///
    /// Polling-style: drains newly delivered fabric frames through the
    /// SmartNIC programs and RSS into the descriptor rings, then pops from
    /// the requested ring. Never blocks; an empty return means "nothing
    /// delivered yet" and the caller (a libOS poll coroutine) yields.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is out of range.
    pub fn rx_burst(&self, queue: u16, max: usize) -> Vec<Mbuf> {
        let mut burst = Vec::new();
        self.rx_burst_into(queue, max, &mut burst);
        burst
    }

    /// Whether [`DpdkPort::rx_burst_into`] on `queue` could do anything:
    /// a frame in the queue's descriptor ring or in the fabric mailbox
    /// (which may steer to any queue). O(1), no pump: `false` means a burst
    /// now would return nothing and change nothing, so a polling host may
    /// skip it.
    pub fn rx_ready(&self, queue: u16) -> bool {
        let inner = self.inner.borrow();
        !inner.rx_rings[queue as usize].is_empty() || inner.endpoint.has_rx()
    }

    /// [`DpdkPort::rx_burst`] into the caller's reusable buffer (appended,
    /// not cleared), returning how many frames remain in the ring: one
    /// pump answers both "what arrived" and "what is left", and an idle
    /// poll allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is out of range.
    pub fn rx_burst_into(&self, queue: u16, max: usize, out: &mut Vec<Mbuf>) -> usize {
        let mut inner = self.inner.borrow_mut();
        assert!(
            queue < inner.config.num_rx_queues,
            "rx queue {queue} out of range"
        );
        inner.pump();
        let ring = &mut inner.rx_rings[queue as usize];
        let take = ring.len().min(max);
        out.extend(ring.drain(..take));
        ring.len()
    }

    /// Installs a SmartNIC program.
    pub fn install_program(&self, program: NicProgram) -> Result<ProgramSlot, SmartNicError> {
        self.inner.borrow_mut().smartnic.install(program)
    }

    /// Removes a SmartNIC program.
    pub fn uninstall_program(&self, slot: ProgramSlot) {
        self.inner.borrow_mut().smartnic.uninstall(slot);
    }

    /// Port counters.
    pub fn stats(&self) -> PortStats {
        self.inner.borrow().stats
    }

    /// Per-RX-queue counters (after pumping arrivals, so `depth` reflects
    /// everything the fabric has delivered).
    pub fn queue_stats(&self) -> Vec<PortQueueStats> {
        let mut inner = self.inner.borrow_mut();
        inner.pump();
        let inner = &*inner;
        inner
            .queue_stats
            .iter()
            .zip(&inner.rx_rings)
            .map(|(qs, ring)| PortQueueStats {
                depth: ring.len(),
                ..*qs
            })
            .collect()
    }

    /// Device-side program-execution counters.
    pub fn smartnic_stats(&self) -> SmartNicStats {
        self.inner.borrow().smartnic.stats()
    }

    /// Per-program-slot execution counters (E17 attribution).
    pub fn smartnic_slot_stats(&self) -> Vec<crate::smartnic::SlotStats> {
        self.inner.borrow().smartnic.slot_stats().to_vec()
    }
}

impl PortInner {
    /// Moves delivered fabric frames into the RX rings.
    fn pump(&mut self) {
        while let Some(frame) = self.endpoint.receive() {
            // Zero-copy RX: the mbuf wraps the very storage the sender
            // transmitted; SmartNIC Map programs rewrite it in place.
            let mut data = frame.payload;
            let decision = self.smartnic.process_rx(&mut data, frame.delivered_at);
            self.flush_device_tx();
            let steered = match decision {
                RxDecision::Drop => continue,
                RxDecision::Absorb => {
                    self.stats.device_absorbed_frames += 1;
                    continue;
                }
                RxDecision::Accept { queue } => queue,
            };
            // Toeplitz-style RSS: symmetric 4-tuple hash picks the queue
            // unless a SmartNIC steering program already chose one.
            let hash = crate::rss::hash_frame(&data);
            let queue = steered.unwrap_or((hash % self.config.num_rx_queues as u32) as u16);
            let queue = queue % self.config.num_rx_queues;
            let ring = &mut self.rx_rings[queue as usize];
            if ring.len() >= self.config.rx_ring_size {
                self.stats.rx_ring_drops += 1;
                self.queue_stats[queue as usize].dropped += 1;
                continue;
            }
            self.stats.rx_frames += 1;
            self.stats.rx_bytes += data.len() as u64;
            self.queue_stats[queue as usize].enqueued += 1;
            let mut mbuf = Mbuf::from_data(data);
            mbuf.rx_timestamp = frame.delivered_at;
            mbuf.rss_hash = hash;
            mbuf.queue = queue;
            ring.push_back(mbuf);
        }
    }

    /// Transmits frames the SmartNIC generated device-side (offload
    /// replies). These leave through the fabric like any frame but are
    /// accounted separately: no host doorbell rang, no host cycle was
    /// spent — only the device cycles the program already charged.
    fn flush_device_tx(&mut self) {
        for reply in self.smartnic.take_tx() {
            let bytes = reply.as_slice();
            if bytes.len() < 14 {
                continue;
            }
            let dst = MacAddress::new([bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5]]);
            self.stats.device_tx_frames += 1;
            self.endpoint.transmit(dst, reply);
        }
    }
}

impl fmt::Debug for DpdkPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DpdkPort({})", self.mac())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_fabric::LinkConfig;
    use std::rc::Rc as StdRc;

    impl DpdkPort {
        /// Frames waiting in RX queue `queue` (after pumping arrivals).
        fn rx_pending(&self, queue: u16) -> usize {
            self.rx_burst_into(queue, 0, &mut Vec::new())
        }
    }

    /// Builds an Ethernet-framed payload: dst(6) src(6) ethertype(2) body.
    fn eth_frame(dst: MacAddress, src: MacAddress, body: &[u8]) -> Vec<u8> {
        let mut f = Vec::with_capacity(14 + body.len());
        f.extend_from_slice(&dst.octets());
        f.extend_from_slice(&src.octets());
        f.extend_from_slice(&[0x08, 0x00]);
        f.extend_from_slice(body);
        f
    }

    fn pair(fabric: &Fabric) -> (DpdkPort, DpdkPort) {
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(fabric, PortConfig::basic(MacAddress::from_last_octet(2)));
        (a, b)
    }

    #[test]
    fn tx_rx_burst_round_trip() {
        let fabric = Fabric::new(1);
        let (a, b) = pair(&fabric);
        let frame = eth_frame(b.mac(), a.mac(), b"payload");
        let mbuf = a.mempool().alloc_from(&frame);
        assert_eq!(a.tx_burst(&[mbuf]), 1);
        fabric.deliver_due();
        let got = b.rx_burst(0, 32);
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].as_slice()[14..], b"payload");
        assert_eq!(b.stats().rx_frames, 1);
        assert_eq!(a.stats().tx_frames, 1);
    }

    #[test]
    fn runt_frames_are_rejected_at_tx() {
        let fabric = Fabric::new(1);
        let (a, _b) = pair(&fabric);
        let runt = a.mempool().alloc_from(&[0u8; 13]);
        assert_eq!(a.tx_burst(&[runt]), 0);
        assert_eq!(a.stats().tx_frames, 0);
    }

    #[test]
    fn rx_burst_respects_max() {
        let fabric = Fabric::new(1);
        let (a, b) = pair(&fabric);
        for i in 0..5u8 {
            let f = eth_frame(b.mac(), a.mac(), &[i]);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        assert_eq!(b.rx_burst(0, 3).len(), 3);
        assert_eq!(b.rx_burst(0, 3).len(), 2);
    }

    #[test]
    fn rx_burst_into_appends_and_reports_what_is_left() {
        let fabric = Fabric::new(1);
        let (a, b) = pair(&fabric);
        for i in 0..5u8 {
            let f = eth_frame(b.mac(), a.mac(), &[i]);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        let mut out = Vec::new();
        assert_eq!(b.rx_burst_into(0, 3, &mut out), 2);
        assert_eq!(b.rx_burst_into(0, 3, &mut out), 0);
        let bodies: Vec<u8> = out.iter().map(|m| m.as_slice()[14]).collect();
        assert_eq!(bodies, [0, 1, 2, 3, 4], "appended in ring order");
        assert_eq!(b.rx_burst_into(0, 3, &mut out), 0);
        assert_eq!(out.len(), 5, "an idle poll adds nothing");
    }

    /// `rx_ready` is exact where it says no (a burst finds nothing) and
    /// says yes for both places a frame can wait.
    #[test]
    fn rx_ready_sees_the_mailbox_and_the_ring() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(
            &fabric,
            PortConfig {
                num_rx_queues: 2,
                ..PortConfig::basic(MacAddress::from_last_octet(2))
            },
        );
        assert!(!b.rx_ready(0) && !b.rx_ready(1));
        let f = udp_flow_frame(b.mac(), a.mac(), 40_000, 80);
        let q = crate::rss::queue_for_frame(&f, 2);
        a.tx_burst(&[a.mempool().alloc_from(&f)]);
        assert!(!b.rx_ready(q), "in flight is not arrived");
        fabric.deliver_due();
        // In the mailbox the frame could be for any queue; once a burst on
        // the other queue has pumped it into its ring, only its own.
        assert!(b.rx_ready(0) && b.rx_ready(1));
        assert!(b.rx_burst(1 - q, 8).is_empty());
        assert!(b.rx_ready(q) && !b.rx_ready(1 - q));
        assert_eq!(b.rx_burst(q, 8).len(), 1);
        assert!(!b.rx_ready(0) && !b.rx_ready(1));
    }

    #[test]
    fn ring_overflow_tail_drops() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(
            &fabric,
            PortConfig {
                mac: MacAddress::from_last_octet(2),
                num_rx_queues: 1,
                rx_ring_size: 2,
                smartnic_slots: 0,
            },
        );
        for i in 0..4u8 {
            let f = eth_frame(b.mac(), a.mac(), &[i]);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        assert_eq!(b.rx_pending(0), 2);
        assert_eq!(b.stats().rx_ring_drops, 2);
    }

    /// A minimal IPv4/UDP frame: the sender's last MAC octet doubles as its
    /// IP last octet (10.0.0.n), and varying the ports varies the flow.
    fn udp_flow_frame(dst: MacAddress, src: MacAddress, src_port: u16, dst_port: u16) -> Vec<u8> {
        use crate::wire::eth::{EthHeader, EtherType};
        use crate::wire::ipv4::{IpProtocol, Ipv4Header};
        let l4 = [
            &src_port.to_be_bytes()[..],
            &dst_port.to_be_bytes(),
            &[0u8; 8],
        ]
        .concat();
        let eth = EthHeader {
            dst,
            src,
            ethertype: EtherType::Ipv4,
        };
        let ip = Ipv4Header {
            src: [10, 0, 0, src.octets()[5]].into(),
            dst: [10, 0, 0, dst.octets()[5]].into(),
            protocol: IpProtocol::Udp,
            payload_len: l4.len(),
        };
        [&eth.serialize()[..], &ip.serialize(), &l4].concat()
    }

    #[test]
    fn rss_spreads_flows_across_queues() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(
            &fabric,
            PortConfig {
                mac: MacAddress::from_last_octet(2),
                num_rx_queues: 4,
                rx_ring_size: 1024,
                smartnic_slots: 0,
            },
        );
        // 64 distinct flows (varying source ports).
        for i in 0..64u16 {
            let f = udp_flow_frame(b.mac(), a.mac(), 32_768 + i, 80);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        let counts: Vec<usize> = (0..4).map(|q| b.rx_pending(q)).collect();
        assert_eq!(counts.iter().sum::<usize>(), 64);
        let nonempty = counts.iter().filter(|&&c| c > 0).count();
        assert!(nonempty >= 2, "RSS should spread flows: {counts:?}");
        // One flow's frames all land on one queue, both directions.
        let q_fwd = crate::rss::queue_for_frame(&udp_flow_frame(b.mac(), a.mac(), 32_768, 80), 4);
        let q_rev = crate::rss::queue_for_frame(&udp_flow_frame(a.mac(), b.mac(), 80, 32_768), 4);
        assert_eq!(q_fwd, q_rev, "RSS must be symmetric");
    }

    #[test]
    fn per_queue_stats_track_enqueues_and_drops() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(
            &fabric,
            PortConfig {
                mac: MacAddress::from_last_octet(2),
                num_rx_queues: 2,
                rx_ring_size: 4,
                smartnic_slots: 0,
            },
        );
        // One flow: every frame targets the same queue; 6 arrivals into a
        // 4-deep ring drop the last 2.
        for _ in 0..6 {
            let f = udp_flow_frame(b.mac(), a.mac(), 40_000, 80);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        let qs = b.queue_stats();
        let q = crate::rss::queue_for_frame(&udp_flow_frame(b.mac(), a.mac(), 40_000, 80), 2);
        assert_eq!(qs[q as usize].enqueued, 4);
        assert_eq!(qs[q as usize].dropped, 2);
        assert_eq!(qs[q as usize].depth, 4);
        let other = 1 - q as usize;
        assert_eq!(qs[other], PortQueueStats::default());
    }

    #[test]
    fn steering_program_overrides_rss() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(
            &fabric,
            PortConfig {
                mac: MacAddress::from_last_octet(2),
                num_rx_queues: 4,
                rx_ring_size: 1024,
                smartnic_slots: 2,
            },
        );
        b.install_program(NicProgram::Steer {
            selector: StdRc::new(|_f: &[u8]| Some(3)),
            cycles_per_frame: 1,
        })
        .unwrap();
        for i in 0..8u8 {
            let f = eth_frame(b.mac(), a.mac(), &[i]);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        assert_eq!(b.rx_pending(3), 8);
        assert_eq!(b.rx_pending(0) + b.rx_pending(1) + b.rx_pending(2), 0);
        assert_eq!(b.smartnic_stats().frames_processed, 8);
    }

    #[test]
    fn filter_program_drops_on_device() {
        let fabric = Fabric::new(1);
        fabric.set_default_link(LinkConfig::ideal());
        let a = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(1)));
        let b = DpdkPort::new(
            &fabric,
            PortConfig::smartnic(MacAddress::from_last_octet(2), 2),
        );
        // Keep only frames whose first body byte is even.
        b.install_program(NicProgram::Filter {
            predicate: StdRc::new(|f: &[u8]| f.get(14).is_some_and(|b| b % 2 == 0)),
            cycles_per_frame: 7,
        })
        .unwrap();
        for i in 0..10u8 {
            let f = eth_frame(b.mac(), a.mac(), &[i]);
            a.tx_burst(&[a.mempool().alloc_from(&f)]);
        }
        fabric.deliver_due();
        assert_eq!(b.rx_pending(0), 5);
        let s = b.smartnic_stats();
        assert_eq!(s.frames_filtered, 5);
        assert_eq!(s.device_cycles, 70);
        assert_eq!(b.stats().rx_frames, 5, "filtered frames never hit the ring");
    }

    #[test]
    fn plain_port_reports_bypass_only_caps() {
        let fabric = Fabric::new(1);
        let (a, _b) = pair(&fabric);
        assert!(!a.capabilities().program_offload);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rx_burst_on_bad_queue_panics() {
        let fabric = Fabric::new(1);
        let (a, _b) = pair(&fabric);
        let _ = a.rx_burst(5, 1);
    }
}

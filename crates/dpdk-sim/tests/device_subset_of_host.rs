//! Device ⊆ host, seeded: whatever the NIC half of the datapath acts on,
//! the OS half accepts.
//!
//! Valid frames of every kind the port sees — SYN with the MSS option,
//! framed data, pure ACK, FIN, an IHL-6 packet, UDP, ICMP, ARP, a runt —
//! are bit-flipped, truncated, extended and spliced in their IHL,
//! total-length, data-offset and framing-length fields (half the time with
//! the checksums refreshed afterwards, so the mutation reaches the length
//! logic behind them) and fed to every reader of header bytes the device
//! has. Oracles:
//!
//! 1. nothing panics — `wire` parsers, RSS, the offload engines;
//! 2. an engine that absorbs a frame, emits an event or a TX frame, or so
//!    much as moves a counter, did so on bytes the host chain `EthHeader::
//!    parse → Ipv4Header::parse → TcpHeader::parse` accepts, and every
//!    frame it emits is one the host chain accepts;
//! 3. every frame the host's IPv4 parser accepts is steered by RSS to the
//!    queue of the tuple that parser read;
//! 4. a framing header `parse_header` rejects is rejected by the serve
//!    path and the invalidation scanner alike, and the scanner follows no
//!    length from it (`net-stack`'s `FrameDecoder` has the same test
//!    against the same function, in its own crate).
//!
//! A failure — an oracle's assertion or a panic in product code — prints
//! `seed=… case=…` (the `Repro` guard); both loops take a fixed seed
//! budget, small in debug and large in release.

use std::net::Ipv4Addr;

use demi_memory::DemiBuffer;
use dpdk_sim::rss;
use dpdk_sim::wire::checksum::{finish, internet_checksum, sum_words};
use dpdk_sim::wire::eth::{EthHeader, EtherType, ETH_HEADER_LEN};
use dpdk_sim::wire::framing::{encode_header, encode_message, parse_header, MAX_FRAME_LEN};
use dpdk_sim::wire::ipv4::{pseudo_header, IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use dpdk_sim::wire::l4_ports;
use dpdk_sim::wire::seq::SeqNum;
use dpdk_sim::wire::tcp::{TcpFlags, TcpHeader};
use dpdk_sim::{FlowKey, FlowShadow, OffloadAction, OffloadEvent, OffloadService, TcpOffload};
use sim_fabric::{MacAddress, SimRng, SimTime};

const SEEDS: u64 = if cfg!(debug_assertions) { 40 } else { 2_000 };
const CASES: u32 = 250;

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const CLIENT_PORT: u16 = 40_000;
const SERVER_PORT: u16 = 7000;
const KEY: FlowKey = ([10, 0, 0, 1], CLIENT_PORT);
/// The armed flow's shadow: what the client's next in-order segment carries.
const RCV_NXT: u32 = 1000;
const SND_NXT: u32 = 5000;

/// Names the failing case whether it failed by assertion or by a panic
/// inside the product code.
struct Repro(u64, u32);

impl Drop for Repro {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("reproduce with: seed={} case={}", self.0, self.1);
        }
    }
}

fn below(rng: &mut SimRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Client → server: `l4` wrapped in IPv4 and Ethernet by the shared
/// serializers.
fn ip_frame(protocol: IpProtocol, mut packet: DemiBuffer) -> Vec<u8> {
    let ip = Ipv4Header {
        src: CLIENT_IP,
        dst: SERVER_IP,
        protocol,
        payload_len: packet.len(),
    };
    ip.prepend_onto(&mut packet).unwrap();
    let eth = EthHeader {
        dst: MacAddress::from_last_octet(2),
        src: MacAddress::from_last_octet(1),
        ethertype: EtherType::Ipv4,
    };
    eth.prepend_onto(&mut packet).unwrap();
    packet.to_vec()
}

fn with_headroom(l4: &[u8]) -> DemiBuffer {
    DemiBuffer::from_slice(l4).copy_with_headroom(64)
}

fn tcp_frame(flags: TcpFlags, seq: u32, ack: u32, mss: Option<u16>, payload: &[u8]) -> Vec<u8> {
    let mut segment = with_headroom(payload);
    let tcp = TcpHeader {
        src_port: CLIENT_PORT,
        dst_port: SERVER_PORT,
        seq: SeqNum(seq),
        ack: SeqNum(ack),
        flags,
        window: 60_000,
        mss,
    };
    tcp.prepend_onto(CLIENT_IP, SERVER_IP, &mut segment)
        .unwrap();
    ip_frame(IpProtocol::Tcp, segment)
}

/// An in-order data segment on the armed flow.
fn data_frame(payload: &[u8]) -> Vec<u8> {
    tcp_frame(TcpFlags::ACK, RCV_NXT, SND_NXT, None, payload)
}

/// A framing header whose length field is spliced: the true length, the
/// bound, one past it, the largest, or anything.
fn spliced_framing_header(rng: &mut SimRng, true_len: usize) -> [u8; 8] {
    let len = match below(rng, 6) {
        0 | 1 => true_len,
        2 => MAX_FRAME_LEN,
        3 => MAX_FRAME_LEN + 1,
        4 => u32::MAX as usize,
        _ => rng.next_u64() as u32 as usize,
    };
    let mut header = encode_header(len);
    if below(rng, 8) == 0 {
        header[below(rng, 4)] ^= 1 << below(rng, 8);
    }
    header
}

/// One valid frame (valid but for a spliced framing header, which is
/// payload as far as TCP is concerned) of a kind the port sees.
fn seed_frame(rng: &mut SimRng) -> Vec<u8> {
    let body: &[u8] = [&b"hello"[..], b"Gk", b"Sk=v2", b"Dk", b""][below(rng, 5)];
    match below(rng, 11) {
        0 => tcp_frame(TcpFlags::SYN, RCV_NXT - 1, 0, Some(1460), b""),
        1 | 2 => data_frame(&encode_message(body)),
        3 => {
            let header = spliced_framing_header(rng, body.len());
            data_frame(&[&header[..], body].concat())
        }
        4 => tcp_frame(TcpFlags::ACK, RCV_NXT, SND_NXT + 100, None, b""),
        5 => tcp_frame(TcpFlags::FIN_ACK, RCV_NXT, SND_NXT, None, b""),
        6 => {
            // IHL 6: one word of IP options (four NOPs) spliced in, the
            // lengths and the header checksum brought up to date.
            let mut frame = data_frame(&encode_message(body));
            let options_at = ETH_HEADER_LEN + IPV4_HEADER_LEN;
            frame.splice(options_at..options_at, [1u8; 4]);
            frame[ETH_HEADER_LEN] = 0x46;
            let total_len = (frame.len() - ETH_HEADER_LEN) as u16;
            frame[ETH_HEADER_LEN + 2..][..2].copy_from_slice(&total_len.to_be_bytes());
            refresh_checksums(&mut frame);
            frame
        }
        7 => {
            // UDP, checksum 0 ("none"): ports, length, checksum.
            let mut udp = [&CLIENT_PORT.to_be_bytes()[..], &SERVER_PORT.to_be_bytes()].concat();
            udp.extend_from_slice(&[0, 13, 0, 0]);
            udp.extend_from_slice(b"hello");
            ip_frame(IpProtocol::Udp, with_headroom(&udp))
        }
        8 => {
            let mut echo = vec![8, 0, 0, 0, 0, 7, 0, 1];
            let ck = internet_checksum(&echo);
            echo[2..4].copy_from_slice(&ck.to_be_bytes());
            ip_frame(IpProtocol::Icmp, with_headroom(&echo))
        }
        9 => {
            let eth = EthHeader {
                dst: MacAddress::BROADCAST,
                src: MacAddress::from_last_octet(1),
                ethertype: EtherType::Arp,
            };
            [&eth.serialize()[..], &[0u8; 28]].concat()
        }
        _ => vec![0xAB; below(rng, ETH_HEADER_LEN)],
    }
}

/// Recomputes the IPv4 header checksum, and the TCP checksum behind it,
/// wherever the (possibly mutated) length fields still describe bytes the
/// frame has. This is the mutator's own reading of the layout — it must
/// not share the product parsers' opinion of what is well formed.
fn refresh_checksums(frame: &mut [u8]) {
    let Some(ip) = frame.get_mut(ETH_HEADER_LEN..) else {
        return;
    };
    let ihl = ip.first().map_or(0, |b| (b & 0x0F) as usize * 4);
    if ihl < IPV4_HEADER_LEN || ihl > ip.len() {
        return;
    }
    ip[10..12].fill(0);
    let ck = internet_checksum(&ip[..ihl]);
    ip[10..12].copy_from_slice(&ck.to_be_bytes());
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    if ip[9] != 6 || total_len > ip.len() || total_len < ihl + 20 {
        return;
    }
    let src = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
    let dst = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
    let segment = &mut ip[ihl..total_len];
    segment[16..18].fill(0);
    let pseudo = pseudo_header(src, dst, IpProtocol::Tcp, segment.len());
    let ck = finish(sum_words(segment, sum_words(&pseudo, 0)));
    segment[16..18].copy_from_slice(&ck.to_be_bytes());
}

fn mutate(rng: &mut SimRng, frame: &mut Vec<u8>) {
    for _ in 0..1 + below(rng, 3) {
        let ihl = frame
            .get(ETH_HEADER_LEN)
            .map_or(0, |b| (b & 0x0F) as usize * 4);
        match below(rng, 7) {
            0 | 1 if !frame.is_empty() => {
                let at = below(rng, frame.len());
                frame[at] ^= 1 << below(rng, 8);
            }
            2 => frame.truncate(below(rng, frame.len() + 1)),
            3 => frame.extend((0..1 + below(rng, 32)).map(|_| rng.next_u64() as u8)),
            4 if frame.len() > ETH_HEADER_LEN => {
                frame[ETH_HEADER_LEN] = 0x40 | below(rng, 16) as u8;
            }
            5 if frame.len() > ETH_HEADER_LEN + 3 => {
                // Total length: anything, or just around the truth.
                let truth = (frame.len() - ETH_HEADER_LEN) as i64;
                let len = match below(rng, 2) {
                    0 => rng.next_u64() as u16,
                    _ => (truth + below(rng, 9) as i64 - 4) as u16,
                };
                frame[ETH_HEADER_LEN + 2..][..2].copy_from_slice(&len.to_be_bytes());
            }
            6 if frame.len() > ETH_HEADER_LEN + ihl + 12 => {
                frame[ETH_HEADER_LEN + ihl + 12] = (below(rng, 16) as u8) << 4;
            }
            _ => {}
        }
    }
    if below(rng, 2) == 0 {
        refresh_checksums(frame);
    }
}

/// The host's verdict: the headers its parse chain reads off `frame`, if
/// it accepts the frame as a TCP segment.
fn host_chain(frame: &[u8]) -> Option<(Ipv4Header, TcpHeader)> {
    let (eth, packet) = EthHeader::parse(frame).ok()?;
    let (ip, segment) = Ipv4Header::parse(packet).ok()?;
    if eth.ethertype != EtherType::Ipv4 || ip.protocol != IpProtocol::Tcp {
        return None;
    }
    let (tcp, _) = TcpHeader::parse(ip.src, ip.dst, segment).ok()?;
    Some((ip, tcp))
}

fn engine(service: OffloadService, armed: bool) -> TcpOffload {
    let mut engine = TcpOffload::new(SERVER_PORT, service);
    engine.cache_insert(b"k", b"value");
    if armed {
        let shadow = FlowShadow {
            rcv_nxt: RCV_NXT,
            snd_nxt: SND_NXT,
            window: 65_000,
            mss: 1460,
        };
        engine.arm_flow(KEY, shadow);
    }
    engine
}

const KV: OffloadService = OffloadService::KvCache {
    capacity_bytes: 1024,
};

#[test]
fn the_device_acts_only_on_frames_the_host_accepts() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(0xD50B5E7 ^ seed);
        for case in 0..CASES {
            let _repro = Repro(seed, case);
            let mut frame = seed_frame(&mut rng);
            if below(&mut rng, 8) != 0 {
                mutate(&mut rng, &mut frame);
            }
            let accepted = host_chain(&frame);

            // RSS reads every frame of every port, before any parser has
            // vouched for it; where the host's IPv4 parser does accept the
            // frame, both read the same tuple off it.
            let queues = 1 + below(&mut rng, 16) as u16;
            assert!(rss::queue_for_frame(&frame, queues) < queues);
            let _ = rss::hash_frame(&frame);
            let flow_queue = rss::flow_queue_for_frame(&frame, queues);
            let ipv4 = EthHeader::parse(&frame)
                .ok()
                .filter(|(eth, _)| eth.ethertype == EtherType::Ipv4)
                .and_then(|(_, packet)| Ipv4Header::parse(packet).ok());
            if let Some((ip, l4)) = ipv4 {
                let ports = match ip.protocol {
                    IpProtocol::Tcp | IpProtocol::Udp => l4_ports(ip.protocol, l4),
                    _ => Some((0, 0)),
                };
                let want = ports.map(|(s, d)| rss::queue_for_tuple(ip.src, s, ip.dst, d, queues));
                assert_eq!(flow_queue, want, "{ip:?}");
                assert!(accepted.is_none() || want.is_some());
            }

            for (service, armed) in [
                (OffloadService::Echo, true),
                (OffloadService::Echo, false),
                (KV, true),
                (KV, false),
            ] {
                let mut engine = engine(service, armed);
                let before = engine.stats();
                let out = engine.process(&frame, SimTime::ZERO);
                let (events, tx) = (engine.take_events(), engine.take_tx());
                if accepted.is_none() {
                    let untouched = out.action == OffloadAction::Deliver
                        && !out.served
                        && events.is_empty()
                        && tx.is_empty()
                        && engine.stats() == before;
                    assert!(
                        untouched,
                        "{service:?} armed={armed} acted on a frame the host rejects: \
                         {out:?} {events:?} {:?}",
                        engine.stats()
                    );
                }
                for reply in &tx {
                    assert!(
                        host_chain(reply.as_slice()).is_some(),
                        "{service:?} emitted a frame the host rejects"
                    );
                }
            }
        }
    }
}

#[test]
fn a_framing_header_one_reader_rejects_every_reader_rejects() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(0xF4A3E ^ seed);
        for case in 0..CASES {
            let _repro = Repro(seed, case);
            let header = spliced_framing_header(&mut rng, 1);
            let payload = [&header[..], b"X"].concat();
            let mut engine = engine(KV, true);
            let out = engine.process(&data_frame(&payload), SimTime::ZERO);
            let events = engine.take_events();
            let stats = engine.stats();
            if parse_header(&payload).is_ok() {
                assert_eq!(stats.kv_clears, 0, "{header:?}");
                continue;
            }
            // The serve path hands the bytes back and the flow with them.
            assert_eq!(out.action, OffloadAction::Absorb);
            match &events[..] {
                [OffloadEvent::Flushed { data, .. }, OffloadEvent::FellBack { .. }] => {
                    assert_eq!(data.as_slice(), &payload[..])
                }
                other => panic!("{other:?}"),
            }
            // The scanner forgets everything it cached...
            assert_eq!((stats.kv_clears, stats.cache_entries), (1, 0));
            // ...and skips nothing on the header's say-so: the very next
            // message on the stream is inspected.
            engine.cache_insert(b"k", b"value");
            let next = RCV_NXT + payload.len() as u32;
            let set = tcp_frame(TcpFlags::ACK, next, SND_NXT, None, &encode_message(b"Sk=v"));
            engine.process(&set, SimTime::ZERO);
            let stats = engine.stats();
            assert_eq!((stats.kv_invalidations, stats.cache_entries), (1, 0));
        }
    }
}

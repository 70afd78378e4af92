//! Deterministic, symmetric Toeplitz-style RSS.
//!
//! Receive-side scaling is the hardware half of the paper's scaling story
//! (§4.2): the NIC hashes each arriving frame's flow identity and steers it
//! to one of N RX queues, so the host never funnels every flow through one
//! serialized demux point. Two properties matter for a sharded stack built
//! on top:
//!
//! * **Determinism** — the same flow always lands on the same queue, so a
//!   shard can own a flow's state outright (no migration, no locking).
//! * **Symmetry** — both directions of a flow hash identically. The hash
//!   sorts the two `(ip, port)` endpoints into a canonical order before
//!   hashing, so `hash(a→b) == hash(b→a)` on every host. A server's shard
//!   for an accepted connection is therefore the same shard whose queue the
//!   client's segments arrive on, *by construction* (real NICs achieve this
//!   with symmetric Toeplitz keys; canonicalizing the input is the
//!   simulation-friendly equivalent).
//!
//! A sharded host decides which shard owns a flow with the same functions
//! ([`flow_queue_for_frame`], [`queue_for_tuple`]) over its shard count;
//! when shards == RX queues the two mappings agree bit for bit.
//!
//! Non-IP frames (ARP, control ethertypes) fall back to hashing the source
//! MAC + ethertype: all such frames from one host serialize onto one queue,
//! which is exactly what a real NIC's "no parseable L3/L4" path does.

use std::net::Ipv4Addr;

use crate::mbuf::Mbuf;
use crate::wire::eth::{EthHeader, EtherType, ETH_HEADER_LEN};
use crate::wire::ipv4::{IpProtocol, Ipv4Header};
use crate::wire::l4_ports;

/// The well-known 40-byte Microsoft RSS key. The specific constants do not
/// matter for the simulation (symmetry comes from canonicalization, not the
/// key), but using the standard key keeps the hash recognizably Toeplitz.
const KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Longest input [`toeplitz`] is ever given: a 12-byte tuple, 8 bytes of
/// MAC + ethertype, or a runt frame of under 14 bytes.
const MAX_INPUT: usize = 13;

/// `TABLE[i][b]`: what byte value `b` at input position `i` contributes —
/// for every set bit of `b`, the 32-bit key window starting at that bit.
static TABLE: [[u32; 256]; MAX_INPUT] = {
    let mut table = [[0u32; 256]; MAX_INPUT];
    let mut i = 0;
    while i < MAX_INPUT {
        // The 8 bits of key under byte `i` and the 32 after them.
        let (mut window, mut k) = (0u64, 0);
        while k < 5 {
            window = (window << 8) | KEY[i + k] as u64;
            k += 1;
        }
        let mut byte = 1usize;
        while byte < 256 {
            // All but the lowest set bit are already in the table.
            let low = byte.trailing_zeros();
            table[i][byte] = table[i][byte & (byte - 1)] ^ (window >> (low + 1)) as u32;
            byte += 1;
        }
        i += 1;
    }
    table
};

/// Toeplitz hash of `data` under [`KEY`]: one table word per input byte.
fn toeplitz(data: &[u8]) -> u32 {
    assert!(data.len() <= MAX_INPUT, "RSS input longer than its table");
    let mut hash = 0u32;
    for (row, &byte) in TABLE.iter().zip(data) {
        hash ^= row[byte as usize];
    }
    hash
}

/// Symmetric flow hash over a 4-tuple.
///
/// The two `(ip, port)` endpoints are sorted numerically before hashing, so
/// the result is independent of direction *and* of which host computes it.
/// The IP protocol is deliberately not mixed in: ICMP echoes (ports 0/0)
/// and the TCP/UDP tuples hash through the same code path.
pub fn hash_tuple(a_ip: Ipv4Addr, a_port: u16, b_ip: Ipv4Addr, b_port: u16) -> u32 {
    let a = (u32::from(a_ip), a_port);
    let b = (u32::from(b_ip), b_port);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut data = [0u8; 12];
    data[0..4].copy_from_slice(&lo.0.to_be_bytes());
    data[4..6].copy_from_slice(&lo.1.to_be_bytes());
    data[6..10].copy_from_slice(&hi.0.to_be_bytes());
    data[10..12].copy_from_slice(&hi.1.to_be_bytes());
    toeplitz(&data)
}

/// RSS hash of an Ethernet frame, read off its first segment.
///
/// IPv4 frames hash their 4-tuple (TCP/UDP ports; other IP protocols use
/// ports 0/0, which keeps an ICMP exchange on one queue). Anything else —
/// ARP, truncated IP, unknown ethertypes, a first segment too short for
/// the headers — hashes source MAC + ethertype.
pub(crate) fn hash_frame(frame: &Mbuf) -> u32 {
    if let Some(hash) = ipv4_tuple_hash(frame) {
        return hash;
    }
    let Ok((eth, _)) = EthHeader::parse(frame.as_slice()) else {
        return toeplitz(frame.as_slice());
    };
    let mut data = [0u8; 8];
    data[0..6].copy_from_slice(&eth.src.octets());
    data[6..8].copy_from_slice(&eth.ethertype.to_u16().to_be_bytes());
    toeplitz(&data)
}

/// The flow hash of a structurally sound IPv4 frame. Checksums are not
/// verified: hardware RSS steers a corrupted frame like any other, and the
/// host parser on the owning queue is what drops it.
fn ipv4_tuple_hash(frame: &Mbuf) -> Option<u32> {
    let (eth, packet) = EthHeader::parse(frame.as_slice()).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let packet_len = frame.pkt_len() - ETH_HEADER_LEN;
    let (ip, ihl) = Ipv4Header::parse_structure(packet, packet_len).ok()?;
    let (src_port, dst_port) = match ip.protocol {
        IpProtocol::Tcp | IpProtocol::Udp => {
            let l4 = &packet[ihl..packet.len().min(ihl + ip.payload_len)];
            l4_ports(ip.protocol, l4)?
        }
        // Everything else (ICMP, ...) hashes as a host pair.
        _ => (0, 0),
    };
    Some(hash_tuple(ip.src, src_port, ip.dst, dst_port))
}

/// `hash() % queues` — a lone queue owns every flow, so nothing is hashed
/// to say so.
fn steer(queues: u16, hash: impl FnOnce() -> u32) -> u16 {
    assert!(queues > 0, "RSS needs at least one queue");
    if queues == 1 {
        return 0;
    }
    (hash() % queues as u32) as u16
}

/// The RX queue (out of `queues`) a 4-tuple steers to.
pub fn queue_for_tuple(
    a_ip: Ipv4Addr,
    a_port: u16,
    b_ip: Ipv4Addr,
    b_port: u16,
    queues: u16,
) -> u16 {
    steer(queues, || hash_tuple(a_ip, a_port, b_ip, b_port))
}

/// The RX queue (out of `queues`) a raw frame steers to.
pub(crate) fn queue_for_frame(frame: &Mbuf, queues: u16) -> u16 {
    steer(queues, || hash_frame(frame))
}

/// The RSS owner of a frame's IPv4 flow, or `None` when the frame
/// carries no 4-tuple (ARP, truncated IP, unknown ethertypes). Flowless
/// frames are broadcast-scope: cross-world ownership checks must treat
/// them as local everywhere rather than steering them by the MAC-hash
/// fallback of `queue_for_frame`, which would ship a world's own ARP
/// traffic onto another world's wire.
pub fn flow_queue_for_frame(frame: &Mbuf, queues: u16) -> Option<u16> {
    assert!(queues > 0, "RSS needs at least one queue");
    ipv4_tuple_hash(frame).map(|h| (h % queues as u32) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbuf(frame: &[u8]) -> Mbuf {
        Mbuf::from_data(demi_memory::DemiBuffer::from_slice(frame))
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    /// dst_mac(6) src_mac(6) ethertype(2) + IPv4(20, no options) + L4.
    fn ipv4_frame(proto: u8, src: Ipv4Addr, dst: Ipv4Addr, l4: &[u8]) -> Vec<u8> {
        let mut f = vec![0u8; 14];
        f[12] = 0x08;
        let mut ip_hdr = [0u8; 20];
        ip_hdr[0] = 0x45;
        ip_hdr[2..4].copy_from_slice(&((20 + l4.len()) as u16).to_be_bytes());
        ip_hdr[9] = proto;
        ip_hdr[12..16].copy_from_slice(&src.octets());
        ip_hdr[16..20].copy_from_slice(&dst.octets());
        f.extend_from_slice(&ip_hdr);
        f.extend_from_slice(l4);
        f
    }

    fn ports(src: u16, dst: u16) -> Vec<u8> {
        let mut l4 = Vec::new();
        l4.extend_from_slice(&src.to_be_bytes());
        l4.extend_from_slice(&dst.to_be_bytes());
        l4.extend_from_slice(&[0u8; 16]);
        l4
    }

    /// The bit-serial definition the table replaced, kept as the
    /// reference: for every set bit of the input, XOR in the 32-bit key
    /// window starting at that bit position.
    fn toeplitz_bit_serial(data: &[u8]) -> u32 {
        let mut hash = 0u32;
        for (i, &byte) in data.iter().enumerate() {
            let mut window = 0u64;
            for k in 0..5 {
                window = (window << 8) | KEY[(i + k) % KEY.len()] as u64;
            }
            for bit in 0..8 {
                if byte & (0x80 >> bit) != 0 {
                    hash ^= ((window >> (8 - bit)) & 0xFFFF_FFFF) as u32;
                }
            }
        }
        hash
    }

    #[test]
    fn table_matches_bit_serial_at_every_position_and_byte() {
        for pos in 0..MAX_INPUT {
            for byte in 0..=255u8 {
                let mut data = [0u8; MAX_INPUT];
                data[pos] = byte;
                assert_eq!(
                    toeplitz(&data),
                    toeplitz_bit_serial(&data),
                    "byte {byte:#04x} at position {pos}"
                );
            }
        }
    }

    /// 10 000 seeded tuples and frames of every shape the port hashes —
    /// TCP/UDP, portless IP, non-IP, runt — against the reference fed the
    /// bytes the module doc says each shape hashes.
    #[test]
    fn seeded_tuples_and_frames_match_bit_serial() {
        let mut rng = sim_fabric::SimRng::new(0x7055);
        for case in 0..10_000 {
            let x = rng.next_u64();
            let (a_ip, b_ip) = (Ipv4Addr::from(x as u32), Ipv4Addr::from((x >> 32) as u32));
            let y = rng.next_u64();
            let (a_port, b_port) = (y as u16, (y >> 16) as u16);
            let tuple_ref = |ap: u16, bp: u16| {
                let (a, b) = ((u32::from(a_ip), ap), (u32::from(b_ip), bp));
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let mut data = Vec::new();
                for (ip, port) in [lo, hi] {
                    data.extend_from_slice(&ip.to_be_bytes());
                    data.extend_from_slice(&port.to_be_bytes());
                }
                toeplitz_bit_serial(&data)
            };
            let queues = 2 + (y >> 32) as u16 % 15;
            let want = tuple_ref(a_port, b_port);
            assert_eq!(hash_tuple(a_ip, a_port, b_ip, b_port), want);
            assert_eq!(
                queue_for_tuple(a_ip, a_port, b_ip, b_port, queues),
                (want % queues as u32) as u16
            );
            let mut frame = match case % 4 {
                0 => ipv4_frame(6, a_ip, b_ip, &ports(a_port, b_port)),
                1 => ipv4_frame(17, a_ip, b_ip, &ports(a_port, b_port)),
                2 => ipv4_frame(1, a_ip, b_ip, &ports(a_port, b_port)),
                _ => vec![0u8; 14 + 28],
            };
            frame[..12].copy_from_slice(&rng.next_u64().to_le_bytes().repeat(2)[..12]);
            let want = match case % 4 {
                0 | 1 => tuple_ref(a_port, b_port),
                2 => tuple_ref(0, 0),
                _ => {
                    frame[12..14].copy_from_slice(&[0x08, 0x06]);
                    toeplitz_bit_serial(&[&frame[6..12], &frame[12..14]].concat())
                }
            };
            assert_eq!(hash_frame(&mbuf(&frame)), want, "case {case}");
            assert_eq!(
                queue_for_frame(&mbuf(&frame), queues),
                (want % queues as u32) as u16
            );
            let flow = (case % 4 != 3).then_some((want % queues as u32) as u16);
            assert_eq!(flow_queue_for_frame(&mbuf(&frame), queues), flow);
            let runt = &frame[..(y >> 48) as usize % 14];
            assert_eq!(hash_frame(&mbuf(runt)), toeplitz_bit_serial(runt));
        }
    }

    #[test]
    #[should_panic(expected = "longer than its table")]
    fn input_longer_than_the_table_is_a_bug() {
        toeplitz(&[1u8; MAX_INPUT + 1]);
    }

    #[test]
    fn tuple_hash_is_symmetric() {
        let h1 = hash_tuple(ip(1), 40_000, ip(2), 80);
        let h2 = hash_tuple(ip(2), 80, ip(1), 40_000);
        assert_eq!(h1, h2);
    }

    #[test]
    fn frame_hash_matches_tuple_hash_both_directions() {
        let fwd = ipv4_frame(6, ip(1), ip(2), &ports(40_000, 80));
        let rev = ipv4_frame(6, ip(2), ip(1), &ports(80, 40_000));
        let tuple = hash_tuple(ip(1), 40_000, ip(2), 80);
        assert_eq!(hash_frame(&mbuf(&fwd)), tuple);
        assert_eq!(hash_frame(&mbuf(&rev)), tuple);
    }

    #[test]
    fn icmp_frames_hash_as_host_pairs() {
        let fwd = ipv4_frame(1, ip(1), ip(2), &[8, 0, 0, 0]);
        let rev = ipv4_frame(1, ip(2), ip(1), &[0, 0, 0, 0]);
        assert_eq!(hash_frame(&mbuf(&fwd)), hash_frame(&mbuf(&rev)));
        assert_eq!(hash_frame(&mbuf(&fwd)), hash_tuple(ip(1), 0, ip(2), 0));
    }

    #[test]
    fn non_ip_frames_fall_back_to_src_mac() {
        let mut arp = vec![0u8; 14 + 28];
        arp[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 7]);
        arp[12] = 0x08;
        arp[13] = 0x06;
        let mut arp2 = arp.clone();
        arp2[20] = 0xFF; // Different body, same source: same queue.
        assert_eq!(hash_frame(&mbuf(&arp)), hash_frame(&mbuf(&arp2)));
        let mut other_src = arp.clone();
        other_src[11] = 9;
        assert_ne!(hash_frame(&mbuf(&arp)), hash_frame(&mbuf(&other_src)));
    }

    #[test]
    fn distinct_flows_spread_across_queues() {
        let mut hit = [false; 4];
        for port in 0..64u16 {
            let q = queue_for_tuple(ip(1), 32_768 + port, ip(2), 80, 4);
            hit[q as usize] = true;
        }
        assert_eq!(hit, [true; 4], "64 flows should hit all 4 queues");
    }
}

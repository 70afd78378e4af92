//! The wire mutator every hostile-bytes test shares: a valid frame is
//! bit-flipped, truncated, extended and spliced in its IHL, total-length
//! and data-offset fields, half the time with its checksums refreshed
//! afterwards so the mutation reaches the length logic behind them. The
//! device's own differential (device ⊆ host) and the host shard's RX fuzz
//! both draw from it.

use std::net::Ipv4Addr;

use sim_fabric::SimRng;

use super::checksum::{finish, internet_checksum, sum_words};
use super::eth::ETH_HEADER_LEN;
use super::ipv4::{pseudo_header, IpProtocol, IPV4_HEADER_LEN};

/// A uniform draw from `0..n`.
pub fn below(rng: &mut SimRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Recomputes the IPv4 header checksum, and the TCP checksum behind it,
/// wherever the (possibly mutated) length fields still describe bytes the
/// frame has. This is the mutator's own reading of the layout — it must
/// not share the product parsers' opinion of what is well formed.
pub fn refresh_checksums(frame: &mut [u8]) {
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

/// One to three mutations of `frame`, then (half the time) the
/// checksums refreshed over whatever its length fields now describe.
pub fn mutate(rng: &mut SimRng, frame: &mut Vec<u8>) {
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

//! The one wire view the NIC and the OS share.
//!
//! The libOS *plans* what the NIC runs (paper §4.2–4.3), so the two must
//! agree on what a valid segment is. This module is the only place
//! Ethernet, IPv4 and TCP header fields, the internet checksum and the DEMI
//! framing header are read or written by byte offset, in the lowest crate
//! both halves can see: the host stack (`net-stack` re-exports it under its
//! own paths), the offload engine and RSS all parse with it. UDP, ICMP and
//! ARP headers have no device-side reader and stay in `net-stack`.

pub mod checksum;
pub mod eth;
pub mod framing;
pub mod fuzz;
pub mod ipv4;
pub mod seq;
pub mod tcp;

use ipv4::IpProtocol;

/// A header that failed a bounds, length, magic or checksum check; names
/// the check. Counted by the receiver, never fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed(pub &'static str);

/// Source and destination port, which lead a TCP or UDP payload `l4`;
/// `None` for other protocols and for a payload too short to hold them.
pub fn l4_ports(protocol: IpProtocol, l4: &[u8]) -> Option<(u16, u16)> {
    match (protocol, l4) {
        (IpProtocol::Tcp | IpProtocol::Udp, [s0, s1, d0, d1, ..]) => Some((
            u16::from_be_bytes([*s0, *s1]),
            u16::from_be_bytes([*d0, *d1]),
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_lead_tcp_and_udp_payloads_only() {
        let l4 = [0x9C, 0x40, 0x00, 0x50, 0xFF];
        assert_eq!(l4_ports(IpProtocol::Tcp, &l4), Some((40_000, 80)));
        assert_eq!(l4_ports(IpProtocol::Udp, &l4), Some((40_000, 80)));
        assert_eq!(l4_ports(IpProtocol::Icmp, &l4), None);
        assert_eq!(l4_ports(IpProtocol::Other(89), &l4), None);
        assert_eq!(l4_ports(IpProtocol::Tcp, &l4[..3]), None);
    }
}

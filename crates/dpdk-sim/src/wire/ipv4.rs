//! IPv4 headers.
//!
//! The stack forgoes fragmentation: upper layers size their payloads to the
//! MTU (TCP via its MSS, UDP by rejecting oversized datagrams), which is how
//! production datacenter stacks behave in practice (DF is set everywhere).

use std::net::Ipv4Addr;

use demi_memory::{DemiBuffer, HeadroomError};

use super::checksum::{internet_checksum, verify};
use super::Malformed;

/// IPv4 header length (no options).
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers the stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else.
    Other(u8),
}

impl IpProtocol {
    /// Wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

/// A parsed IPv4 header (options unsupported; TTL fixed by the sender).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Payload length in bytes (total length − header length).
    pub payload_len: usize,
}

impl Ipv4Header {
    /// Serializes header for a payload of `payload_len` bytes, computing the
    /// header checksum.
    pub fn serialize(&self) -> [u8; IPV4_HEADER_LEN] {
        let mut out = [0u8; IPV4_HEADER_LEN];
        out[0] = 0x45; // Version 4, IHL 5.
        let total_len = (IPV4_HEADER_LEN + self.payload_len) as u16;
        out[2..4].copy_from_slice(&total_len.to_be_bytes());
        out[6] = 0x40; // Flags: DF.
        out[8] = 64; // TTL.
        out[9] = self.protocol.to_u8();
        out[12..16].copy_from_slice(&self.src.octets());
        out[16..20].copy_from_slice(&self.dst.octets());
        let ck = internet_checksum(&out);
        out[10..12].copy_from_slice(&ck.to_be_bytes());
        out
    }

    /// The structural half of [`Ipv4Header::parse`] — version, IHL, total
    /// length ≤ buffer; no checksum — which is all hardware RSS does.
    /// Returns the header and its own length in bytes (options included).
    #[inline]
    pub fn parse_structure(data: &[u8]) -> Result<(Ipv4Header, usize), Malformed> {
        if data.len() < IPV4_HEADER_LEN {
            return Err(Malformed("ipv4 header"));
        }
        if data[0] >> 4 != 4 {
            return Err(Malformed("ipv4 version"));
        }
        let ihl = ((data[0] & 0x0F) as usize) * 4;
        if ihl < IPV4_HEADER_LEN || data.len() < ihl {
            return Err(Malformed("ipv4 ihl"));
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < ihl || total_len > data.len() {
            return Err(Malformed("ipv4 total length"));
        }
        let header = Ipv4Header {
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            protocol: IpProtocol::from_u8(data[9]),
            payload_len: total_len - ihl,
        };
        Ok((header, ihl))
    }

    /// Parses and validates a header; returns it and the payload slice
    /// (truncated to the header's declared total length).
    #[inline]
    pub fn parse(data: &[u8]) -> Result<(Ipv4Header, &[u8]), Malformed> {
        let (header, ihl) = Self::parse_structure(data)?;
        if !verify(&data[..ihl]) {
            return Err(Malformed("ipv4 checksum"));
        }
        Ok((header, &data[ihl..ihl + header.payload_len]))
    }

    /// Writes this header into `payload`'s headroom, turning it into an IP
    /// packet in place — no allocation, no payload copy.
    pub fn prepend_onto(&self, payload: &mut DemiBuffer) -> Result<(), HeadroomError> {
        debug_assert_eq!(self.payload_len, payload.len());
        payload
            .prepend(IPV4_HEADER_LEN)?
            .copy_from_slice(&self.serialize());
        Ok(())
    }
}

/// The 12-byte pseudo-header that TCP and UDP checksums cover ahead of
/// their `len`-byte segment or datagram.
#[inline]
pub fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, len: usize) -> [u8; 12] {
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&src.octets());
    pseudo[4..8].copy_from_slice(&dst.octets());
    pseudo[9] = protocol.to_u8();
    pseudo[10..12].copy_from_slice(&(len as u16).to_be_bytes());
    pseudo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference builder: header + payload copied into a fresh vector.
    fn build_packet(header: &Ipv4Header, payload: &[u8]) -> Vec<u8> {
        debug_assert_eq!(header.payload_len, payload.len());
        let mut packet = Vec::with_capacity(IPV4_HEADER_LEN + payload.len());
        packet.extend_from_slice(&header.serialize());
        packet.extend_from_slice(payload);
        packet
    }

    fn header(payload_len: usize) -> Ipv4Header {
        Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            protocol: IpProtocol::Udp,
            payload_len,
        }
    }

    #[test]
    fn round_trip() {
        let payload = b"datagram";
        let packet = build_packet(&header(payload.len()), payload);
        let (h, p) = Ipv4Header::parse(&packet).unwrap();
        assert_eq!(h, header(payload.len()));
        assert_eq!(p, payload);
    }

    #[test]
    fn prepend_matches_legacy_builder() {
        let payload = b"datagram";
        let mut packet = DemiBuffer::zeroed_with_headroom(IPV4_HEADER_LEN, payload.len());
        packet.try_mut().unwrap().copy_from_slice(payload);
        header(payload.len()).prepend_onto(&mut packet).unwrap();
        assert_eq!(
            packet.as_slice(),
            build_packet(&header(payload.len()), payload).as_slice()
        );
        let (h, p) = Ipv4Header::parse(&packet).unwrap();
        assert_eq!(h, header(payload.len()));
        assert_eq!(p, payload);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let mut packet = build_packet(&header(4), b"abcd");
        packet[12] ^= 0x01; // Flip a bit in the source address.
        assert_eq!(Ipv4Header::parse(&packet), Err(Malformed("ipv4 checksum")));
    }

    #[test]
    fn trailing_padding_is_trimmed() {
        // Ethernet pads short frames; the parser must honor total_length.
        let mut packet = build_packet(&header(4), b"abcd");
        packet.extend_from_slice(&[0u8; 20]); // Padding.
        let (_, p) = Ipv4Header::parse(&packet).unwrap();
        assert_eq!(p, b"abcd");
    }

    #[test]
    fn wrong_version_rejected() {
        let mut packet = build_packet(&header(0), b"");
        packet[0] = 0x65; // Version 6.
        assert_eq!(Ipv4Header::parse(&packet), Err(Malformed("ipv4 version")));
    }

    #[test]
    fn truncated_packet_rejected() {
        let packet = build_packet(&header(100), &[0u8; 100]);
        assert!(Ipv4Header::parse(&packet[..50]).is_err());
    }

    #[test]
    fn protocol_numbers_round_trip() {
        for p in [
            IpProtocol::Icmp,
            IpProtocol::Tcp,
            IpProtocol::Udp,
            IpProtocol::Other(89),
        ] {
            assert_eq!(IpProtocol::from_u8(p.to_u8()), p);
        }
    }
}

//! Ethernet II framing.

use demi_memory::{DemiBuffer, HeadroomError};
use sim_fabric::MacAddress;

use super::Malformed;

/// Ethernet header length in bytes.
pub const ETH_HEADER_LEN: usize = 14;

/// EtherType values the stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// Anything else (preserved for diagnostics).
    Other(u16),
}

impl EtherType {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// A parsed Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthHeader {
    /// Destination hardware address.
    pub dst: MacAddress,
    /// Source hardware address.
    pub src: MacAddress,
    /// Payload protocol.
    pub ethertype: EtherType,
}

impl EthHeader {
    /// Serializes the header into a 14-byte array.
    pub fn serialize(&self) -> [u8; ETH_HEADER_LEN] {
        let mut out = [0u8; ETH_HEADER_LEN];
        out[0..6].copy_from_slice(&self.dst.octets());
        out[6..12].copy_from_slice(&self.src.octets());
        out[12..14].copy_from_slice(&self.ethertype.to_u16().to_be_bytes());
        out
    }

    /// Parses a header from the start of `frame`; returns the header and the
    /// payload that follows.
    #[inline]
    pub fn parse(frame: &[u8]) -> Result<(EthHeader, &[u8]), Malformed> {
        if frame.len() < ETH_HEADER_LEN {
            return Err(Malformed("ethernet header"));
        }
        let mut dst = [0u8; 6];
        dst.copy_from_slice(&frame[0..6]);
        let mut src = [0u8; 6];
        src.copy_from_slice(&frame[6..12]);
        let ethertype = EtherType::from_u16(u16::from_be_bytes([frame[12], frame[13]]));
        Ok((
            EthHeader {
                dst: MacAddress::new(dst),
                src: MacAddress::new(src),
                ethertype,
            },
            &frame[ETH_HEADER_LEN..],
        ))
    }

    /// Writes this header into `packet`'s headroom, turning an IP packet
    /// (or ARP payload) into a complete frame in place — no allocation, no
    /// payload copy.
    pub fn prepend_onto(&self, packet: &mut DemiBuffer) -> Result<(), HeadroomError> {
        packet
            .prepend(ETH_HEADER_LEN)?
            .copy_from_slice(&self.serialize());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference builder: header + payload copied into a fresh vector.
    fn build_frame(header: &EthHeader, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::with_capacity(ETH_HEADER_LEN + payload.len());
        frame.extend_from_slice(&header.serialize());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn serialize_parse_round_trip() {
        let h = EthHeader {
            dst: MacAddress::from_last_octet(9),
            src: MacAddress::from_last_octet(3),
            ethertype: EtherType::Ipv4,
        };
        let frame = build_frame(&h, b"payload");
        let (parsed, payload) = EthHeader::parse(&frame).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn short_frame_is_malformed() {
        assert_eq!(
            EthHeader::parse(&[0u8; 13]),
            Err(Malformed("ethernet header"))
        );
    }

    #[test]
    fn ethertype_round_trips() {
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from_u16(0x86DD), EtherType::Other(0x86DD));
        assert_eq!(EtherType::Other(0x86DD).to_u16(), 0x86DD);
    }

    #[test]
    fn prepend_matches_legacy_builder() {
        let h = EthHeader {
            dst: MacAddress::from_last_octet(9),
            src: MacAddress::from_last_octet(3),
            ethertype: EtherType::Ipv4,
        };
        let mut packet = DemiBuffer::zeroed_with_headroom(ETH_HEADER_LEN, 7);
        packet.try_mut().unwrap().copy_from_slice(b"payload");
        h.prepend_onto(&mut packet).unwrap();
        assert_eq!(packet.as_slice(), build_frame(&h, b"payload").as_slice());
    }

    #[test]
    fn prepend_without_headroom_fails() {
        let h = EthHeader {
            dst: MacAddress::from_last_octet(9),
            src: MacAddress::from_last_octet(3),
            ethertype: EtherType::Ipv4,
        };
        let mut packet = DemiBuffer::from_slice(b"payload");
        assert!(h.prepend_onto(&mut packet).is_err());
    }

    #[test]
    fn broadcast_destination_serializes() {
        let h = EthHeader {
            dst: MacAddress::BROADCAST,
            src: MacAddress::from_last_octet(1),
            ethertype: EtherType::Arp,
        };
        let bytes = h.serialize();
        assert_eq!(&bytes[0..6], &[0xFF; 6]);
    }
}

//! ICMP echo (ping), for reachability checks and stack smoke tests.

use demi_memory::DemiBuffer;

use crate::checksum::{verify, ChecksumAccumulator};
use crate::types::NetError;

/// ICMP header length for echo messages.
pub const ICMP_HEADER_LEN: usize = 8;

/// An ICMP echo request or reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpEcho {
    /// `true` for request (type 8), `false` for reply (type 0).
    pub is_request: bool,
    /// Identifier (matches requests to repliers).
    pub ident: u16,
    /// Sequence number.
    pub seq: u16,
    /// Echo payload — a zero-copy view into the packet it was parsed from.
    pub payload: DemiBuffer,
}

impl IcmpEcho {
    /// Serializes the 8-byte header, checksummed over the (header, payload)
    /// iovecs — the payload is read in place, never concatenated.
    fn header_bytes(&self) -> [u8; ICMP_HEADER_LEN] {
        let mut hdr = [0u8; ICMP_HEADER_LEN];
        hdr[0] = if self.is_request { 8 } else { 0 };
        hdr[4..6].copy_from_slice(&self.ident.to_be_bytes());
        hdr[6..8].copy_from_slice(&self.seq.to_be_bytes());
        let mut acc = ChecksumAccumulator::new();
        acc.push(&hdr);
        acc.push(self.payload.as_slice());
        let ck = acc.finish();
        hdr[2..4].copy_from_slice(&ck.to_be_bytes());
        hdr
    }

    /// Turns this message into a complete ICMP packet by prepending the
    /// header into the payload's headroom.
    ///
    /// For an echo reply this is the mbuf-recycling trick: the reply header
    /// is written over the request's (already trimmed) headers, reusing the
    /// RX buffer as the TX packet with zero copies. `extra_headroom` is the
    /// room the layers below (IP + Ethernet) will need; when the payload's
    /// headroom cannot serve `ICMP_HEADER_LEN + extra_headroom` bytes — or
    /// another live view blocks the prepend — the payload is copied into a
    /// fresh buffer (honestly counted).
    pub fn into_packet(self, extra_headroom: usize) -> DemiBuffer {
        let hdr = self.header_bytes();
        let mut packet = if self.payload.can_prepend(ICMP_HEADER_LEN + extra_headroom) {
            self.payload
        } else {
            self.payload
                .copy_with_headroom(ICMP_HEADER_LEN + extra_headroom)
        };
        packet
            .prepend(ICMP_HEADER_LEN)
            .expect("headroom checked or freshly allocated")
            .copy_from_slice(&hdr);
        packet
    }

    /// Parses and validates an echo message; the returned payload is a
    /// zero-copy view into `packet`.
    pub fn parse(packet: &DemiBuffer) -> Result<IcmpEcho, NetError> {
        let data = packet.as_slice();
        if data.len() < ICMP_HEADER_LEN {
            return Err(NetError::Malformed("icmp header"));
        }
        if !verify(data) {
            return Err(NetError::Malformed("icmp checksum"));
        }
        let is_request = match data[0] {
            8 => true,
            0 => false,
            _ => return Err(NetError::Malformed("icmp type")),
        };
        Ok(IcmpEcho {
            is_request,
            ident: u16::from_be_bytes([data[4], data[5]]),
            seq: u16::from_be_bytes([data[6], data[7]]),
            payload: packet.slice(ICMP_HEADER_LEN, packet.len()),
        })
    }

    /// Builds the reply to this request: same ident/seq, and the payload
    /// *handle* — no bytes are copied.
    pub fn reply(self) -> IcmpEcho {
        IcmpEcho {
            is_request: false,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl IcmpEcho {
        /// The Vec builder: header then payload in a fresh vector, as test
        /// input (the TX path is [`IcmpEcho::into_packet`]).
        fn serialize(&self) -> Vec<u8> {
            let mut out = self.header_bytes().to_vec();
            out.extend_from_slice(self.payload.as_slice());
            out
        }
    }

    fn echo(is_request: bool, payload: &[u8]) -> IcmpEcho {
        IcmpEcho {
            is_request,
            ident: 0x1234,
            seq: 7,
            payload: DemiBuffer::from_slice(payload),
        }
    }

    #[test]
    fn round_trip_request() {
        let req = echo(true, b"ping");
        let parsed = IcmpEcho::parse(&DemiBuffer::from(req.serialize())).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn parse_payload_is_a_view_not_a_copy() {
        let packet = DemiBuffer::from(echo(true, b"ping").serialize());
        let parsed = IcmpEcho::parse(&packet).unwrap();
        assert!(parsed.payload.same_storage(&packet));
        assert_eq!(parsed.payload.as_slice(), b"ping");
    }

    #[test]
    fn reply_mirrors_request_sharing_payload_storage() {
        let req = echo(true, b"x");
        let req_payload = req.payload.clone();
        let rep = req.reply();
        assert!(!rep.is_request);
        assert_eq!(rep.ident, 0x1234);
        assert_eq!(rep.seq, 7);
        assert!(rep.payload.same_storage(&req_payload));
    }

    #[test]
    fn reply_reuses_the_request_buffer_in_place() {
        // Parse a request, drop every other handle, and build the reply: it
        // must be the request's own storage, so no allocation and no payload
        // copy. (A probe clone can't witness this — it would view offset 0
        // and rightly block the prepend — so the counters testify instead.)
        let packet = DemiBuffer::from(echo(true, b"ping").serialize());
        let parsed = IcmpEcho::parse(&packet).unwrap();
        drop(packet);
        let before = demi_memory::counters::snapshot();
        let reply = parsed.reply().into_packet(0);
        let delta = demi_memory::counters::snapshot().delta(&before);
        assert_eq!(delta.allocs, 0, "in-place header rewrite, no new buffer");
        assert_eq!(delta.copies, 0, "no payload copy");
        let parsed_reply = IcmpEcho::parse(&reply).unwrap();
        assert!(!parsed_reply.is_request);
        assert_eq!(parsed_reply.payload.as_slice(), b"ping");
    }

    #[test]
    fn into_packet_falls_back_to_copy_when_blocked() {
        let packet = DemiBuffer::from(echo(true, b"ping").serialize());
        let parsed = IcmpEcho::parse(&packet).unwrap();
        // `packet` is still live and views offset 0 — prepend is blocked.
        let reply = parsed.reply().into_packet(0);
        assert!(!reply.same_storage(&packet), "copied, not corrupted");
        assert!(IcmpEcho::parse(&reply).is_ok());
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bytes = echo(true, b"data").serialize();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert_eq!(
            IcmpEcho::parse(&DemiBuffer::from(bytes)),
            Err(NetError::Malformed("icmp checksum"))
        );
    }
}

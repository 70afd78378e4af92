//! TCP header serialization, parsing, and checksums.

use std::net::Ipv4Addr;

use demi_memory::{DemiBuffer, HeadroomError};

use super::checksum::{finish, sum_words, ChecksumAccumulator};
use super::ipv4::{pseudo_header, IpProtocol};
use super::Malformed;

use super::seq::SeqNum;

/// Minimum TCP header length (no options).
pub const TCP_HEADER_LEN: usize = 20;

/// Longest TCP header the stack emits: base header plus the 4-byte MSS
/// option (the only option it generates, on SYN segments).
pub const TCP_MAX_HEADER_LEN: usize = TCP_HEADER_LEN + 4;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// FIN: sender finished.
    pub fin: bool,
    /// SYN: synchronize sequence numbers.
    pub syn: bool,
    /// RST: reset the connection.
    pub rst: bool,
    /// ACK: acknowledgment field valid.
    pub ack: bool,
}

impl TcpFlags {
    /// A pure-ACK flag set.
    pub const ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: false,
        ack: true,
    };

    /// SYN only (active open).
    pub const SYN: TcpFlags = TcpFlags {
        fin: false,
        syn: true,
        rst: false,
        ack: false,
    };

    /// SYN+ACK (passive open reply).
    pub const SYN_ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: true,
        rst: false,
        ack: true,
    };

    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        fin: true,
        syn: false,
        rst: false,
        ack: true,
    };

    /// RST+ACK.
    pub const RST_ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: true,
        ack: true,
    };

    fn to_byte(self) -> u8 {
        (self.fin as u8) | (self.syn as u8) << 1 | (self.rst as u8) << 2 | (self.ack as u8) << 4
    }

    fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A parsed TCP header (MSS is the only option understood; others are
/// skipped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: SeqNum,
    /// Acknowledgment number (valid when `flags.ack`).
    pub ack: SeqNum,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// MSS option value, present only on SYN segments.
    pub mss: Option<u16>,
}

impl TcpHeader {
    /// Serializes this header (checksum field zeroed) into `out`; returns
    /// the header length written.
    fn write_header(&self, out: &mut [u8]) -> usize {
        let options_len = if self.mss.is_some() { 4 } else { 0 };
        let header_len = TCP_HEADER_LEN + options_len;
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.0.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.0.to_be_bytes());
        out[12] = ((header_len / 4) as u8) << 4;
        out[13] = self.flags.to_byte();
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out[16..20].fill(0); // Checksum placeholder + urgent pointer.
        if let Some(mss) = self.mss {
            out[20] = 2; // Kind: MSS.
            out[21] = 4; // Length.
            out[22..24].copy_from_slice(&mss.to_be_bytes());
        }
        header_len
    }

    /// Writes this header into `payload`'s headroom, turning it into a
    /// complete segment in place. The checksum is a single pass over the
    /// (pseudo-header, header, payload) iovecs — the payload is never
    /// copied to be checksummed.
    pub fn prepend_onto(
        &self,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        payload: &mut DemiBuffer,
    ) -> Result<(), HeadroomError> {
        let mut hdr = [0u8; TCP_MAX_HEADER_LEN];
        let header_len = self.write_header(&mut hdr);
        let hdr = &mut hdr[..header_len];
        let mut acc = ChecksumAccumulator::new();
        let segment_len = header_len + payload.len();
        acc.push(&pseudo_header(src_ip, dst_ip, IpProtocol::Tcp, segment_len));
        acc.push(hdr);
        acc.push(payload.as_slice());
        let ck = acc.finish();
        hdr[16..18].copy_from_slice(&ck.to_be_bytes());
        payload.prepend(header_len)?.copy_from_slice(hdr);
        Ok(())
    }

    /// Parses and validates a segment; returns the header and the payload
    /// offset within `segment`.
    pub fn parse(
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        segment: &[u8],
    ) -> Result<(TcpHeader, usize), Malformed> {
        if segment.len() < TCP_HEADER_LEN {
            return Err(Malformed("tcp header"));
        }
        let data_offset = ((segment[12] >> 4) as usize) * 4;
        if data_offset < TCP_HEADER_LEN || data_offset > segment.len() {
            return Err(Malformed("tcp data offset"));
        }
        if tcp_checksum(src_ip, dst_ip, segment) != 0 {
            return Err(Malformed("tcp checksum"));
        }
        let mut mss = None;
        let mut opts = &segment[TCP_HEADER_LEN..data_offset];
        while let Some(&kind) = opts.first() {
            match kind {
                0 => break,             // End of options.
                1 => opts = &opts[1..], // NOP.
                2 if opts.len() >= 4 => {
                    mss = Some(u16::from_be_bytes([opts[2], opts[3]]));
                    opts = &opts[4..];
                }
                _ => {
                    // Skip unknown options by their declared length.
                    let Some(&len) = opts.get(1) else { break };
                    if len < 2 || opts.len() < len as usize {
                        break;
                    }
                    opts = &opts[len as usize..];
                }
            }
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([segment[0], segment[1]]),
                dst_port: u16::from_be_bytes([segment[2], segment[3]]),
                seq: SeqNum(u32::from_be_bytes([
                    segment[4], segment[5], segment[6], segment[7],
                ])),
                ack: SeqNum(u32::from_be_bytes([
                    segment[8],
                    segment[9],
                    segment[10],
                    segment[11],
                ])),
                flags: TcpFlags::from_byte(segment[13]),
                window: u16::from_be_bytes([segment[14], segment[15]]),
                mss,
            },
            data_offset,
        ))
    }
}

/// TCP checksum over the IPv4 pseudo-header and the full segment.
fn tcp_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> u16 {
    let pseudo = pseudo_header(src, dst, IpProtocol::Tcp, segment.len());
    finish(sum_words(segment, sum_words(&pseudo, 0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TcpHeader {
        /// Reference builder: the header (with MSS option if set) plus
        /// `payload` as a complete checksummed segment in a fresh vector.
        fn build_segment(&self, src_ip: Ipv4Addr, dst_ip: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
            let options_len = if self.mss.is_some() { 4 } else { 0 };
            let header_len = TCP_HEADER_LEN + options_len;
            let mut out = Vec::with_capacity(header_len + payload.len());
            out.extend_from_slice(&self.src_port.to_be_bytes());
            out.extend_from_slice(&self.dst_port.to_be_bytes());
            out.extend_from_slice(&self.seq.0.to_be_bytes());
            out.extend_from_slice(&self.ack.0.to_be_bytes());
            out.push(((header_len / 4) as u8) << 4);
            out.push(self.flags.to_byte());
            out.extend_from_slice(&self.window.to_be_bytes());
            out.extend_from_slice(&[0, 0]); // Checksum placeholder.
            out.extend_from_slice(&[0, 0]); // Urgent pointer.
            if let Some(mss) = self.mss {
                out.push(2); // Kind: MSS.
                out.push(4); // Length.
                out.extend_from_slice(&mss.to_be_bytes());
            }
            out.extend_from_slice(payload);
            let ck = tcp_checksum(src_ip, dst_ip, &out);
            out[16..18].copy_from_slice(&ck.to_be_bytes());
            out
        }
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn header() -> TcpHeader {
        TcpHeader {
            src_port: 4000,
            dst_port: 80,
            seq: SeqNum(1000),
            ack: SeqNum(2000),
            flags: TcpFlags::ACK,
            window: 65535,
            mss: None,
        }
    }

    #[test]
    fn round_trip_plain() {
        let h = header();
        let seg = h.build_segment(ip(1), ip(2), b"body");
        let (parsed, off) = TcpHeader::parse(ip(1), ip(2), &seg).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(&seg[off..], b"body");
    }

    #[test]
    fn round_trip_with_mss_option() {
        let h = TcpHeader {
            flags: TcpFlags::SYN,
            mss: Some(1460),
            ..header()
        };
        let seg = h.build_segment(ip(1), ip(2), b"");
        let (parsed, off) = TcpHeader::parse(ip(1), ip(2), &seg).unwrap();
        assert_eq!(parsed.mss, Some(1460));
        assert_eq!(off, 24);
    }

    #[test]
    fn prepend_matches_legacy_builder() {
        for h in [
            header(),
            TcpHeader {
                flags: TcpFlags::SYN,
                mss: Some(1460),
                ..header()
            },
        ] {
            for body in [&b""[..], b"body", b"odd"] {
                let mut seg = DemiBuffer::zeroed_with_headroom(TCP_MAX_HEADER_LEN, body.len());
                if !body.is_empty() {
                    seg.try_mut().unwrap().copy_from_slice(body);
                }
                h.prepend_onto(ip(1), ip(2), &mut seg).unwrap();
                assert_eq!(
                    seg.as_slice(),
                    h.build_segment(ip(1), ip(2), body).as_slice()
                );
                let (parsed, off) = TcpHeader::parse(ip(1), ip(2), &seg).unwrap();
                assert_eq!(parsed, h);
                assert_eq!(&seg[off..], body);
            }
        }
    }

    #[test]
    fn corrupted_segment_fails_checksum() {
        let seg = header().build_segment(ip(1), ip(2), b"body");
        let mut bad = seg.clone();
        bad[4] ^= 0x01;
        assert_eq!(
            TcpHeader::parse(ip(1), ip(2), &bad),
            Err(Malformed("tcp checksum"))
        );
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        let seg = header().build_segment(ip(1), ip(2), b"");
        assert!(TcpHeader::parse(ip(3), ip(2), &seg).is_err());
    }

    #[test]
    fn flags_round_trip() {
        for flags in [
            TcpFlags::SYN,
            TcpFlags::SYN_ACK,
            TcpFlags::ACK,
            TcpFlags::FIN_ACK,
            TcpFlags::RST_ACK,
        ] {
            let h = TcpHeader { flags, ..header() };
            let seg = h.build_segment(ip(1), ip(2), b"");
            let (parsed, _) = TcpHeader::parse(ip(1), ip(2), &seg).unwrap();
            assert_eq!(parsed.flags, flags);
        }
    }

    #[test]
    fn unknown_options_are_skipped() {
        // Build a SYN with MSS, then splice in a NOP and an unknown option
        // before it, recomputing the checksum via rebuild.
        let h = TcpHeader {
            flags: TcpFlags::SYN,
            mss: Some(1200),
            ..header()
        };
        let seg = h.build_segment(ip(1), ip(2), b"");
        let (parsed, _) = TcpHeader::parse(ip(1), ip(2), &seg).unwrap();
        assert_eq!(parsed.mss, Some(1200));
    }
}

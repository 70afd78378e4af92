//! UDP: datagram sockets with preserved message boundaries.
//!
//! UDP is the transport that maps most directly onto Demikernel queues —
//! each datagram is already an atomic data unit, so `push`/`pop` need no
//! extra framing (unlike TCP, see [`crate::framing`]).

use std::collections::VecDeque;

use crate::fasthash::FastHashMap;
use std::net::Ipv4Addr;

use demi_memory::{DemiBuffer, HeadroomError};

use crate::checksum::{finish, sum_words, ChecksumAccumulator};
use crate::ipv4::{pseudo_header, IpProtocol};
use crate::types::{NetError, SocketAddr};

/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;

/// A parsed UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
    /// Writes this header into `payload`'s headroom, turning it into a
    /// complete datagram in place. The checksum is a single pass over the
    /// (pseudo-header, header, payload) iovecs — the payload is neither
    /// copied nor concatenated with the header to checksum it.
    pub fn prepend_onto(
        &self,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        payload: &mut DemiBuffer,
    ) -> Result<(), HeadroomError> {
        let len = (UDP_HEADER_LEN + payload.len()) as u16;
        let mut hdr = [0u8; UDP_HEADER_LEN];
        hdr[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        hdr[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        hdr[4..6].copy_from_slice(&len.to_be_bytes());
        let mut acc = ChecksumAccumulator::new();
        acc.push(&pseudo_header(
            src_ip,
            dst_ip,
            IpProtocol::Udp,
            len as usize,
        ));
        acc.push(&hdr);
        acc.push(payload.as_slice());
        let ck = match acc.finish() {
            // All-zero means "no checksum" on the wire; transmit 0xFFFF.
            0 => 0xFFFF,
            ck => ck,
        };
        hdr[6..8].copy_from_slice(&ck.to_be_bytes());
        payload.prepend(UDP_HEADER_LEN)?.copy_from_slice(&hdr);
        Ok(())
    }

    /// Parses and validates a datagram; returns the header and payload
    /// length (payload is `datagram[UDP_HEADER_LEN..UDP_HEADER_LEN+len]`).
    pub fn parse(
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        datagram: &[u8],
    ) -> Result<(UdpHeader, usize), NetError> {
        if datagram.len() < UDP_HEADER_LEN {
            return Err(NetError::Malformed("udp header"));
        }
        let len = u16::from_be_bytes([datagram[4], datagram[5]]) as usize;
        if len < UDP_HEADER_LEN || len > datagram.len() {
            return Err(NetError::Malformed("udp length"));
        }
        let wire_ck = u16::from_be_bytes([datagram[6], datagram[7]]);
        if wire_ck != 0 {
            // Verify: checksum over the datagram including the checksum
            // field must fold to zero (0xFFFF represents zero on the wire).
            let pseudo = pseudo_header(src_ip, dst_ip, IpProtocol::Udp, len);
            let acc = sum_words(&pseudo, 0);
            if finish(sum_words(&datagram[..len], acc)) != 0 {
                return Err(NetError::Malformed("udp checksum"));
            }
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([datagram[0], datagram[1]]),
                dst_port: u16::from_be_bytes([datagram[2], datagram[3]]),
            },
            len - UDP_HEADER_LEN,
        ))
    }
}

/// Per-socket receive state. Queue entries carry the telemetry demux
/// stamp (virtual-time ns at delivery when latency telemetry is on, else
/// 0) so `recv_from` can record socket-queue residency.
struct UdpSocket {
    recv_queue: VecDeque<(SocketAddr, DemiBuffer, u64)>,
    capacity: usize,
    /// Drawn from the host-wide ephemeral range rather than bound by number.
    ephemeral: bool,
}

demi_telemetry::counter_family! {
    /// UDP socket-table counters.
    pub struct UdpStats {
        /// Datagrams delivered to a socket queue.
        pub delivered: u64,
        /// Datagrams for ports nobody is bound to.
        pub no_listener: u64,
        /// Datagrams dropped because a socket queue was full.
        pub queue_drops: u64,
    }
}

/// The UDP layer: port table and receive queues.
///
/// Transport-only: the caller (the stack) handles IP/Ethernet and feeds
/// parsed datagrams in via [`UdpPeer::deliver`].
pub(crate) struct UdpPeer {
    sockets: FastHashMap<u16, UdpSocket>,
    per_socket_capacity: usize,
    stats: UdpStats,
}

impl UdpPeer {
    /// Creates an empty socket table; each socket queues at most
    /// `per_socket_capacity` datagrams (overflow is dropped, as the kernel
    /// does when `SO_RCVBUF` is exhausted).
    pub(crate) fn new(per_socket_capacity: usize) -> Self {
        UdpPeer {
            sockets: FastHashMap::default(),
            per_socket_capacity,
            stats: UdpStats::default(),
        }
    }

    /// Binds a specific local port.
    pub(crate) fn bind(&mut self, port: u16) -> Result<(), NetError> {
        if self.sockets.contains_key(&port) {
            return Err(NetError::AddrInUse(port));
        }
        self.open(port, false);
        Ok(())
    }

    /// Opens `port`, which must be free; `ephemeral` marks a port drawn
    /// from the host-wide namespace, which [`UdpPeer::close`] reports so
    /// the stack can hand it back.
    pub(crate) fn open(&mut self, port: u16, ephemeral: bool) {
        debug_assert!(!self.is_bound(port), "UDP port {port} opened twice");
        let socket = UdpSocket {
            recv_queue: VecDeque::new(),
            capacity: self.per_socket_capacity,
            ephemeral,
        };
        self.sockets.insert(port, socket);
    }

    /// Unbinds a port; queued datagrams are discarded. Returns whether
    /// the port was an ephemeral bind (the stack then returns it to the
    /// host-wide namespace and takes back the tenant grant it made for the
    /// socket's lifetime).
    pub(crate) fn close(&mut self, port: u16) -> bool {
        self.sockets.remove(&port).is_some_and(|s| s.ephemeral)
    }

    /// Whether `port` is bound.
    pub(crate) fn is_bound(&self, port: u16) -> bool {
        self.sockets.contains_key(&port)
    }

    /// Delivers a received datagram payload to the socket bound to
    /// `dst_port`. `payload` is a zero-copy view into the receive buffer.
    pub(crate) fn deliver(&mut self, from: SocketAddr, dst_port: u16, payload: DemiBuffer) {
        match self.sockets.get_mut(&dst_port) {
            Some(sock) => {
                if sock.recv_queue.len() >= sock.capacity {
                    self.stats.queue_drops += 1;
                } else {
                    let demuxed_ns = if demi_telemetry::enabled() {
                        demi_telemetry::now_ns()
                    } else {
                        0
                    };
                    sock.recv_queue.push_back((from, payload, demuxed_ns));
                    self.stats.delivered += 1;
                }
            }
            None => self.stats.no_listener += 1,
        }
    }

    /// Pops the next datagram for `port`, if any, recording its RX
    /// demux→delivery residency when latency telemetry is on.
    pub(crate) fn recv_from(&mut self, port: u16) -> Option<(SocketAddr, DemiBuffer)> {
        let (from, payload, demuxed_ns) = self.sockets.get_mut(&port)?.recv_queue.pop_front()?;
        if demuxed_ns != 0 {
            demi_telemetry::stage::record(
                demi_telemetry::stage::Stage::RxDelivery,
                demi_telemetry::now_ns().saturating_sub(demuxed_ns),
            );
        }
        Some((from, payload))
    }

    /// Number of datagrams queued on `port`.
    pub(crate) fn pending(&self, port: u16) -> usize {
        self.sockets.get(&port).map_or(0, |s| s.recv_queue.len())
    }

    /// Counters.
    pub(crate) fn stats(&self) -> UdpStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The UDP checksum over the IPv4 pseudo-header plus the datagram.
    fn udp_checksum(src: Ipv4Addr, dst: Ipv4Addr, datagram: &[u8]) -> u16 {
        let pseudo = pseudo_header(src, dst, IpProtocol::Udp, datagram.len());
        let acc = sum_words(&pseudo, 0);
        match finish(sum_words(datagram, acc)) {
            // All-zero means "no checksum" on the wire; transmit 0xFFFF.
            0 => 0xFFFF,
            ck => ck,
        }
    }

    impl UdpHeader {
        /// Reference builder: a complete datagram (header + payload) with
        /// checksum, copied into a fresh vector.
        fn build_datagram(&self, src_ip: Ipv4Addr, dst_ip: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
            let len = (UDP_HEADER_LEN + payload.len()) as u16;
            let mut out = Vec::with_capacity(len as usize);
            out.extend_from_slice(&self.src_port.to_be_bytes());
            out.extend_from_slice(&self.dst_port.to_be_bytes());
            out.extend_from_slice(&len.to_be_bytes());
            out.extend_from_slice(&[0, 0]);
            out.extend_from_slice(payload);
            let ck = udp_checksum(src_ip, dst_ip, &out);
            out[6..8].copy_from_slice(&ck.to_be_bytes());
            out
        }
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn datagram_round_trip_with_checksum() {
        let h = UdpHeader {
            src_port: 1111,
            dst_port: 2222,
        };
        let dgram = h.build_datagram(ip(1), ip(2), b"hello");
        let (parsed, payload_len) = UdpHeader::parse(ip(1), ip(2), &dgram).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(
            &dgram[UDP_HEADER_LEN..UDP_HEADER_LEN + payload_len],
            b"hello"
        );
    }

    #[test]
    fn prepend_matches_legacy_builder() {
        let h = UdpHeader {
            src_port: 1111,
            dst_port: 2222,
        };
        let mut dgram = DemiBuffer::zeroed_with_headroom(UDP_HEADER_LEN, 5);
        dgram.try_mut().unwrap().copy_from_slice(b"hello");
        h.prepend_onto(ip(1), ip(2), &mut dgram).unwrap();
        assert_eq!(
            dgram.as_slice(),
            h.build_datagram(ip(1), ip(2), b"hello").as_slice()
        );
        let (parsed, payload_len) = UdpHeader::parse(ip(1), ip(2), &dgram).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(payload_len, 5);
    }

    #[test]
    fn prepend_checksums_odd_length_payloads() {
        let h = UdpHeader {
            src_port: 7,
            dst_port: 9,
        };
        for len in [0usize, 1, 3, 7, 100, 101] {
            let body: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut dgram = DemiBuffer::zeroed_with_headroom(UDP_HEADER_LEN, len);
            if len > 0 {
                dgram.try_mut().unwrap().copy_from_slice(&body);
            }
            h.prepend_onto(ip(1), ip(2), &mut dgram).unwrap();
            assert!(UdpHeader::parse(ip(1), ip(2), &dgram).is_ok(), "len {len}");
        }
    }

    #[test]
    fn corrupted_datagram_fails_checksum() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let mut dgram = h.build_datagram(ip(1), ip(2), b"data");
        let last = dgram.len() - 1;
        dgram[last] ^= 0x01;
        assert_eq!(
            UdpHeader::parse(ip(1), ip(2), &dgram),
            Err(NetError::Malformed("udp checksum"))
        );
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let dgram = h.build_datagram(ip(1), ip(2), b"data");
        // Same bytes but claimed from a different source IP must fail.
        assert!(UdpHeader::parse(ip(9), ip(2), &dgram).is_err());
    }

    #[test]
    fn bind_conflicts_detected() {
        let mut peer = UdpPeer::new(16);
        peer.bind(53).unwrap();
        assert_eq!(peer.bind(53), Err(NetError::AddrInUse(53)));
        assert!(peer.is_bound(53));
    }

    #[test]
    fn close_reports_whether_the_port_was_ephemeral() {
        let mut peer = UdpPeer::new(16);
        peer.bind(7).unwrap();
        peer.open(40_000, true);
        assert!(!peer.close(7), "a port bound by number stays the caller's");
        assert!(
            peer.close(40_000),
            "an ephemeral port goes back to the host"
        );
    }

    #[test]
    fn deliver_and_recv_preserve_boundaries_and_order() {
        let mut peer = UdpPeer::new(16);
        peer.bind(7).unwrap();
        let from = SocketAddr::new(ip(2), 9999);
        peer.deliver(from, 7, DemiBuffer::from_slice(b"first"));
        peer.deliver(from, 7, DemiBuffer::from_slice(b"second"));
        assert_eq!(peer.pending(7), 2);
        let (f1, d1) = peer.recv_from(7).unwrap();
        assert_eq!(f1, from);
        assert_eq!(d1.as_slice(), b"first");
        let (_, d2) = peer.recv_from(7).unwrap();
        assert_eq!(d2.as_slice(), b"second");
        assert!(peer.recv_from(7).is_none());
    }

    #[test]
    fn unbound_port_counts_no_listener() {
        let mut peer = UdpPeer::new(16);
        peer.deliver(SocketAddr::new(ip(2), 1), 80, DemiBuffer::from_slice(b"x"));
        assert_eq!(peer.stats().no_listener, 1);
    }

    #[test]
    fn full_queue_drops() {
        let mut peer = UdpPeer::new(2);
        peer.bind(7).unwrap();
        let from = SocketAddr::new(ip(2), 1);
        for _ in 0..3 {
            peer.deliver(from, 7, DemiBuffer::from_slice(b"x"));
        }
        assert_eq!(peer.pending(7), 2);
        assert_eq!(peer.stats().queue_drops, 1);
    }

    #[test]
    fn close_discards_queue_and_frees_port() {
        let mut peer = UdpPeer::new(16);
        peer.bind(7).unwrap();
        peer.deliver(SocketAddr::new(ip(2), 1), 7, DemiBuffer::from_slice(b"x"));
        peer.close(7);
        assert!(!peer.is_bound(7));
        assert!(peer.bind(7).is_ok());
        assert_eq!(peer.pending(7), 0);
    }
}

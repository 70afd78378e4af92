//! Message buffers exchanged with the device.

use demi_memory::{BufChain, DemiBuffer};

/// A packet buffer, the chained `rte_mbuf` analogue.
///
/// A packet is a chain of up to [`demi_memory::MAX_LINKS`] zero-copy
/// [`DemiBuffer`] segments (`nb_segs`), as the NIC gathers it from its TX
/// descriptors: a TCP segment's header link and the application's own
/// buffers behind it reach the wire — and the peer — without a payload
/// copy. The first segment holds the L2–L4 headers; a flat packet is a
/// chain of one.
#[derive(Debug, Clone)]
pub struct Mbuf {
    segs: BufChain,
}

impl Mbuf {
    /// Wraps flat frame data (one segment).
    #[inline]
    pub fn from_data(data: DemiBuffer) -> Self {
        Mbuf::from(BufChain::from(data))
    }

    /// Number of segments.
    #[inline]
    pub fn nb_segs(&self) -> usize {
        self.segs.nb_links()
    }

    /// Packet length over every segment.
    #[inline]
    pub fn pkt_len(&self) -> usize {
        self.segs.len()
    }

    /// The first segment's bytes, where the headers are
    /// (`rte_pktmbuf_mtod`); the whole frame when it is flat.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        self.segs.head().map_or(&[], DemiBuffer::as_slice)
    }

    /// The segments, in order.
    #[inline]
    pub fn segs(&self) -> &BufChain {
        &self.segs
    }

    /// The segments, by value.
    #[inline]
    pub fn into_segs(self) -> BufChain {
        self.segs
    }

    /// Makes the packet one segment (`rte_pktmbuf_linearize`), gathering a
    /// chained one into a single counted copy, and returns that segment
    /// (`None` for an empty packet). For device programs that read a frame
    /// as one byte run.
    pub(crate) fn linearize(&mut self) -> Option<&mut DemiBuffer> {
        if self.segs.nb_links() > 1 {
            let flat = DemiBuffer::gather(0, self.segs.len(), self.segs.links());
            self.segs = BufChain::from(flat);
        }
        self.segs.head_mut()
    }
}

impl From<DemiBuffer> for Mbuf {
    fn from(data: DemiBuffer) -> Self {
        Mbuf::from_data(data)
    }
}

impl From<BufChain> for Mbuf {
    #[inline]
    fn from(segs: BufChain) -> Self {
        Mbuf { segs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_data_wraps_without_copying() {
        let buf = DemiBuffer::from_slice(b"frame");
        let handles_before = buf.handle_count();
        let mbuf = Mbuf::from_data(buf.clone());
        assert_eq!(mbuf.as_slice(), b"frame");
        assert_eq!(buf.handle_count(), handles_before + 1);
        assert!(mbuf.segs().head().unwrap().same_storage(&buf));
        assert_eq!((mbuf.nb_segs(), mbuf.pkt_len()), (1, 5));
    }

    #[test]
    fn linearize_gathers_a_chain_once() {
        let mut segs = BufChain::from(DemiBuffer::from_slice(b"head"));
        segs.push(DemiBuffer::from_slice(b"tail")).unwrap();
        let mut mbuf = Mbuf::from(segs);
        assert_eq!((mbuf.nb_segs(), mbuf.as_slice()), (2, &b"head"[..]));
        let before = demi_memory::counters::snapshot();
        assert_eq!(mbuf.linearize().unwrap().as_slice(), b"headtail");
        assert_eq!(demi_memory::counters::snapshot().delta(&before).copies, 1);
        mbuf.linearize();
        assert_eq!(demi_memory::counters::snapshot().delta(&before).copies, 1);
    }
}

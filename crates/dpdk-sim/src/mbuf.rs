//! Message buffers exchanged with the device.

use demi_memory::DemiBuffer;

/// A packet buffer, the rte_mbuf analogue.
///
/// Wraps a zero-copy [`DemiBuffer`], so the same storage flows from device
/// to protocol stack to application without copies.
#[derive(Debug, Clone)]
pub struct Mbuf {
    /// Frame contents.
    pub data: DemiBuffer,
}

impl Mbuf {
    /// Wraps frame data.
    pub fn from_data(data: DemiBuffer) -> Self {
        Mbuf { data }
    }

    /// Frame bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.data.as_slice()
    }
}

impl From<DemiBuffer> for Mbuf {
    fn from(data: DemiBuffer) -> Self {
        Mbuf::from_data(data)
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
        assert!(mbuf.data.same_storage(&buf));
    }
}

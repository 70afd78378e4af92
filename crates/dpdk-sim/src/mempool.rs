//! Device mempools: pinned, registered packet-buffer pools.

use std::rc::Rc;

use demi_memory::{BufferPool, CountingRegistrar, DemiBuffer};

/// A packet-buffer pool backed by device-registered memory.
///
/// DPDK mempools must be created from pinned memory the NIC can DMA into;
/// the simulation routes every pool growth through a registrar of the
/// device's own, and the port warms the pool at construction so the data
/// path never registers memory.
#[derive(Clone)]
pub struct Mempool {
    pool: BufferPool,
    mbuf_capacity: usize,
}

impl Mempool {
    /// Standard mbuf data-room size (holds a full MTU frame with headroom).
    const DEFAULT_MBUF_CAPACITY: usize = 2048;

    /// Creates a pool of `DEFAULT_MBUF_CAPACITY`-byte buffers.
    pub(crate) fn new() -> Self {
        Mempool {
            pool: BufferPool::with_registrar(Rc::new(CountingRegistrar::new())),
            mbuf_capacity: Self::DEFAULT_MBUF_CAPACITY,
        }
    }

    /// Allocates a bare buffer with `headroom` bytes of prepend room — the
    /// TX-side allocation for control packets whose headers are written in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if `headroom + len` exceeds the pool's mbuf capacity.
    pub fn alloc_buffer_with_headroom(&self, headroom: usize, len: usize) -> DemiBuffer {
        assert!(
            headroom + len <= self.mbuf_capacity,
            "frame of {} bytes exceeds mbuf capacity {}",
            headroom + len,
            self.mbuf_capacity
        );
        self.pool.alloc_with_headroom(headroom, len)
    }

    /// Pre-grows the pool so the data path never registers memory.
    pub(crate) fn warm_up(&self) {
        self.pool.warm_up();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_carry_the_requested_headroom() {
        let pool = Mempool::new();
        let buf = pool.alloc_buffer_with_headroom(14, 28);
        assert_eq!((buf.headroom(), buf.len()), (14, 28));
    }

    #[test]
    #[should_panic(expected = "exceeds mbuf capacity")]
    fn oversized_frame_panics() {
        let pool = Mempool::new();
        let _ = pool.alloc_buffer_with_headroom(14, Mempool::DEFAULT_MBUF_CAPACITY);
    }
}

//! The libOS-facing memory-management facade.

use std::fmt;
use std::rc::Rc;

use crate::buffer::DemiBuffer;
use crate::counters;
use crate::pool::{BufferPool, PoolStats, DEFAULT_HEADROOM};
use crate::registration::{CountingRegistrar, RegionStats};

/// One memory manager per libOS instance (paper §4.5).
///
/// Combines a [`BufferPool`] with the device's `Registrar` so that:
///
/// * `sgaalloc`-style allocations ([`MemoryManager::alloc`]) always return
///   device-registered memory — applications never call a registration API;
/// * freeing is dropping — free-protection comes from buffer refcounts;
/// * registration and pinning are observable for experiments.
#[derive(Clone)]
pub struct MemoryManager {
    pool: BufferPool,
    registrar: Rc<CountingRegistrar>,
}

impl MemoryManager {
    /// Creates a manager with a fresh counting registrar (the common case
    /// for simulated devices without their own translation-table model).
    pub fn new() -> Self {
        let registrar = Rc::new(CountingRegistrar::new());
        MemoryManager {
            pool: BufferPool::with_registrar(registrar.clone()),
            registrar,
        }
    }

    /// Creates a manager and immediately pre-registers every size class, as
    /// a libOS does at start-up so no registration cost lands on the data
    /// path: `sgaalloc` may ask for any size, so every class gets its
    /// first growth batch (64 buffers up to 4 KiB, 16 of 16 KiB, 4 of
    /// 64 KiB — 852 KiB in all).
    pub fn warmed() -> Self {
        let mgr = Self::new();
        mgr.pool.warm_up(usize::MAX);
        mgr
    }

    /// Allocates an I/O buffer of `len` bytes from registered memory.
    ///
    /// [`DEFAULT_HEADROOM`] bytes of prepend room are reserved in front of
    /// the view, so the net stack can write every protocol header in place
    /// when this buffer is pushed — the application never sees (or pays
    /// for) the headroom.
    pub fn alloc(&self, len: usize) -> DemiBuffer {
        self.pool.alloc_with_headroom(DEFAULT_HEADROOM, len)
    }

    /// Allocates and fills a buffer with `data` (a counted payload copy).
    pub fn alloc_from(&self, data: &[u8]) -> DemiBuffer {
        let mut buf = self.alloc(data.len());
        counters::note_copy(data.len());
        buf.try_mut()
            .expect("fresh buffer is exclusively owned")
            .copy_from_slice(data);
        buf
    }

    /// Pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Registration/pin counters.
    pub fn region_stats(&self) -> RegionStats {
        self.registrar.stats()
    }
}

impl Default for MemoryManager {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for MemoryManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MemoryManager(pool={:?}, regions={:?})",
            self.pool_stats(),
            self.region_stats()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_from_copies_data_into_registered_memory() {
        let mgr = MemoryManager::new();
        let buf = mgr.alloc_from(b"request");
        assert_eq!(buf.as_slice(), b"request");
        assert!(mgr.region_stats().pinned_bytes > 0);
    }

    #[test]
    fn warmed_manager_serves_data_path_without_registration() {
        let mgr = MemoryManager::warmed();
        let at_start = mgr.region_stats().registrations;
        for _ in 0..100 {
            let _ = mgr.alloc(4096);
        }
        assert_eq!(
            mgr.region_stats().registrations,
            at_start,
            "no registration on the data path"
        );
        assert_eq!(mgr.pool_stats().cold_allocs, 0);
    }

    #[test]
    fn clone_shares_the_same_pool() {
        let mgr = MemoryManager::new();
        let clone = mgr.clone();
        let _a = mgr.alloc(64);
        // The clone sees the same stats because they share the pool.
        assert_eq!(clone.pool_stats().cold_allocs, 1);
    }
}

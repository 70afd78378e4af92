//! Size-class buffer pools carved from registered regions.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use demi_tenant::TenantId;

use crate::buffer::{DemiBuffer, PoolHome};
use crate::registration::{RegionId, Registrar};

/// The pool's size classes, in bytes. Allocations round up to the smallest
/// class that fits; requests above the largest class get a dedicated,
/// individually registered buffer.
pub(crate) const SIZE_CLASSES: [usize; 6] = [64, 256, 1024, 4096, 16384, 65536];

/// How many buffers a class adds each time it grows.
const GROWTH_BATCH: usize = 64;

/// Default headroom reserved in front of datapath allocations so that every
/// protocol header on the TX path can be prepended in place. Sized to cover
/// the net stack's worst case (Ethernet 14 + IPv4 20 + TCP 20 + options),
/// rounded up; the stack asserts its own `MAX_HEADER_LEN` fits. This crate
/// cannot depend on the net stack, so the constant lives here.
pub const DEFAULT_HEADROOM: usize = 64;

/// Aggregate pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a warm free list (no registration activity).
    pub warm_allocs: u64,
    /// Allocations that required growing a class (registration on the
    /// control path).
    pub cold_allocs: u64,
    /// Oversized allocations served outside the size classes.
    pub oversized_allocs: u64,
    /// Buffers returned to a free list.
    pub recycled: u64,
    /// Total buffer capacity currently owned by the pool, in bytes.
    pub owned_bytes: u64,
}

pub(crate) struct ClassPool {
    size: usize,
    free: Vec<Box<[u8]>>,
    regions: Vec<RegionId>,
}

/// Allocation refused: the pool's owning tenant is at its byte budget.
///
/// This is the typed, recoverable face of pool exhaustion — the caller
/// (a tenant flooding itself out of memory, or an application choosing
/// to shed load) gets an error naming the tenant instead of a panic,
/// and each refusal is counted toward `pool_exhaustions`. Freeing
/// buffers returns storage to the free lists, after which allocation
/// succeeds again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted {
    /// The tenant whose private pool partition hit its budget.
    pub tenant: TenantId,
}

impl fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buffer pool exhausted for {}", self.tenant)
    }
}

impl std::error::Error for PoolExhausted {}

pub(crate) struct PoolInner {
    classes: Vec<ClassPool>,
    registrar: Option<Rc<dyn Registrar>>,
    stats: PoolStats,
    /// The tenant whose private partition this pool is; buffers it hands
    /// out are stamped with this id. `HOST` for the shared default pool.
    tenant: TenantId,
    /// Byte budget for the partition: growth that would push
    /// `owned_bytes` past this is refused with [`PoolExhausted`].
    budget_bytes: Option<u64>,
}

impl PoolInner {
    pub(crate) fn recycle(&mut self, class: usize, storage: Box<[u8]>) {
        self.stats.recycled += 1;
        self.classes[class].free.push(storage);
    }
}

/// A size-class allocator whose backing memory is registered with a device
/// as it grows.
///
/// Growth (and therefore registration) is a control-path event; warm
/// allocations and frees never touch the registrar — this is the mechanism
/// behind the paper's "transparent memory registration".
#[derive(Clone)]
pub struct BufferPool {
    inner: Rc<RefCell<PoolInner>>,
}

impl BufferPool {
    /// Creates a pool that registers growth with `registrar`.
    pub fn with_registrar(registrar: Rc<dyn Registrar>) -> Self {
        Self::build(Some(registrar), TenantId::HOST, None)
    }

    /// Creates a pool with no device attached (pure allocator).
    pub fn unregistered() -> Self {
        Self::build(None, TenantId::HOST, None)
    }

    /// Creates `tenant`'s private pool partition, capped at
    /// `budget_bytes` of owned storage (`None` = uncapped). Buffers are
    /// stamped with the tenant; allocation past the budget fails with
    /// [`PoolExhausted`] instead of growing — and since each tenant
    /// allocates from its own partition, exhausting this pool never
    /// blocks any other tenant's allocations.
    pub fn for_tenant(tenant: TenantId, budget_bytes: Option<u64>) -> Self {
        Self::build(None, tenant, budget_bytes)
    }

    fn build(
        registrar: Option<Rc<dyn Registrar>>,
        tenant: TenantId,
        budget_bytes: Option<u64>,
    ) -> Self {
        BufferPool {
            inner: Rc::new(RefCell::new(PoolInner {
                classes: SIZE_CLASSES
                    .iter()
                    .map(|&size| ClassPool {
                        size,
                        free: Vec::new(),
                        regions: Vec::new(),
                    })
                    .collect(),
                registrar,
                stats: PoolStats::default(),
                tenant,
                budget_bytes,
            })),
        }
    }

    /// Allocates a buffer whose view covers `len` bytes, preceded by
    /// `headroom` bytes of prepend room.
    ///
    /// The underlying capacity is the smallest size class ≥
    /// `headroom + len`; the view starts at offset `headroom`, so protocol
    /// headers can be written in place with `DemiBuffer::prepend`.
    ///
    /// # Panics
    ///
    /// Panics if the pool has a tenant byte budget and is exhausted —
    /// budgeted callers should use `BufferPool::try_alloc_with_headroom`.
    pub fn alloc_with_headroom(&self, headroom: usize, len: usize) -> DemiBuffer {
        match self.try_alloc_with_headroom(headroom, len) {
            Ok(buf) => buf,
            Err(e) => panic!("{e} (use try_alloc_with_headroom to degrade gracefully)"),
        }
    }

    /// Allocates `len` visible bytes behind `headroom` bytes of prepend
    /// room, or reports [`PoolExhausted`] when the pool's tenant budget
    /// cannot cover the growth. Frees return storage to the free lists,
    /// after which allocation succeeds again — exhaustion is a state,
    /// not a death sentence.
    pub(crate) fn try_alloc_with_headroom(
        &self,
        headroom: usize,
        len: usize,
    ) -> Result<DemiBuffer, PoolExhausted> {
        let total = headroom + len;
        let mut inner = self.inner.borrow_mut();
        let tenant = inner.tenant;
        let Some(class) = SIZE_CLASSES.iter().position(|&s| s >= total) else {
            // Oversized: dedicated allocation, registered on its own.
            if let Some(budget) = inner.budget_bytes {
                if inner.stats.owned_bytes + total as u64 > budget {
                    demi_tenant::counters::note_pool_exhaustion();
                    return Err(PoolExhausted { tenant });
                }
            }
            inner.stats.oversized_allocs += 1;
            inner.stats.owned_bytes += total as u64;
            if let Some(reg) = &inner.registrar {
                let _ = reg.register(total);
            }
            drop(inner);
            let buf = DemiBuffer::zeroed_with_headroom(headroom, len);
            buf.retag(tenant);
            return Ok(buf);
        };

        if inner.classes[class].free.is_empty() {
            if !Self::grow(&mut inner, class) {
                demi_tenant::counters::note_pool_exhaustion();
                return Err(PoolExhausted { tenant });
            }
            inner.stats.cold_allocs += 1;
        } else {
            inner.stats.warm_allocs += 1;
        }
        let storage = inner.classes[class]
            .free
            .pop()
            .expect("grow populated the free list");
        let home = PoolHome {
            pool: Rc::downgrade(&self.inner),
            class,
        };
        drop(inner);
        Ok(DemiBuffer::from_pool(storage, headroom, len, home, tenant))
    }

    /// Grows `class` by up to one batch, clipped to the tenant budget.
    /// Returns false (without growing) when the budget has no room for
    /// even one buffer of this class.
    fn grow(inner: &mut PoolInner, class: usize) -> bool {
        let size = inner.classes[class].size;
        let batch = match inner.budget_bytes {
            Some(budget) => {
                let remaining = budget.saturating_sub(inner.stats.owned_bytes);
                (remaining / size as u64).min(GROWTH_BATCH as u64) as usize
            }
            None => GROWTH_BATCH,
        };
        if batch == 0 {
            return false;
        }
        let batch_bytes = size * batch;
        if let Some(reg) = &inner.registrar {
            let id = reg.register(batch_bytes);
            inner.classes[class].regions.push(id);
        }
        inner.stats.owned_bytes += batch_bytes as u64;
        for _ in 0..batch {
            inner.classes[class]
                .free
                .push(vec![0u8; size].into_boxed_slice());
        }
        true
    }

    /// Pre-populates every class with at least one growth batch, moving all
    /// registration cost ahead of the data path (typical libOS start-up).
    pub fn warm_up(&self) {
        let mut inner = self.inner.borrow_mut();
        for class in 0..SIZE_CLASSES.len() {
            if inner.classes[class].free.is_empty() {
                Self::grow(&mut inner, class);
            }
        }
    }

    /// Snapshot of pool counters.
    pub(crate) fn stats(&self) -> PoolStats {
        self.inner.borrow().stats
    }
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BufferPool({:?})", self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registration::CountingRegistrar;

    impl BufferPool {
        /// Allocates `len` bytes with no headroom; panics on exhaustion.
        fn alloc(&self, len: usize) -> DemiBuffer {
            self.alloc_with_headroom(0, len)
        }

        /// [`BufferPool::alloc`], reporting [`PoolExhausted`] when a
        /// budgeted tenant partition is spent.
        fn try_alloc(&self, len: usize) -> Result<DemiBuffer, PoolExhausted> {
            self.try_alloc_with_headroom(0, len)
        }

        /// Free buffers currently cached for the class serving `len`-byte
        /// allocations (`None` for oversized requests).
        fn free_count_for(&self, len: usize) -> Option<usize> {
            let class = SIZE_CLASSES.iter().position(|&s| s >= len)?;
            Some(self.inner.borrow().classes[class].free.len())
        }
    }

    #[test]
    fn alloc_rounds_up_to_size_class() {
        let pool = BufferPool::unregistered();
        let b = pool.alloc(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.capacity(), 256);
    }

    #[test]
    fn first_alloc_is_cold_then_warm() {
        let pool = BufferPool::unregistered();
        let a = pool.alloc(64);
        let b = pool.alloc(64);
        let s = pool.stats();
        assert_eq!(s.cold_allocs, 1);
        assert_eq!(s.warm_allocs, 1);
        drop((a, b));
    }

    #[test]
    fn drop_recycles_into_free_list() {
        let pool = BufferPool::unregistered();
        let before = {
            let _b = pool.alloc(1024);
            pool.free_count_for(1024).unwrap()
        };
        // After drop the buffer returned.
        assert_eq!(pool.free_count_for(1024).unwrap(), before + 1);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn free_protection_delays_recycling_until_all_handles_drop() {
        let pool = BufferPool::unregistered();
        let app_handle = pool.alloc(4096);
        let device_handle = app_handle.clone(); // Device holds the buffer.
        let free_before = pool.free_count_for(4096).unwrap();

        drop(app_handle); // Application "frees" while I/O is in flight.
        assert_eq!(
            pool.free_count_for(4096).unwrap(),
            free_before,
            "storage must not be recycled while the device holds a handle"
        );

        drop(device_handle); // Device completion releases the last handle.
        assert_eq!(pool.free_count_for(4096).unwrap(), free_before + 1);
    }

    #[test]
    fn growth_registers_with_device_and_warm_allocs_do_not() {
        let reg = Rc::new(CountingRegistrar::new());
        let pool = BufferPool::with_registrar(reg.clone());
        let _a = pool.alloc(64);
        let first = reg.stats().registrations;
        assert_eq!(first, 1, "cold alloc registers one region");
        let _b = pool.alloc(64);
        let _c = pool.alloc(64);
        assert_eq!(
            reg.stats().registrations,
            first,
            "warm allocs must not register"
        );
        assert_eq!(reg.stats().pinned_bytes, 64 * 64);
    }

    #[test]
    fn warm_up_preregisters_every_class() {
        let reg = Rc::new(CountingRegistrar::new());
        let pool = BufferPool::with_registrar(reg.clone());
        pool.warm_up();
        assert_eq!(reg.stats().registrations as usize, SIZE_CLASSES.len());
        // Subsequent small allocs are all warm.
        for _ in 0..10 {
            let _ = pool.alloc(4096);
        }
        assert_eq!(pool.stats().cold_allocs, 0);
    }

    #[test]
    fn oversized_allocations_bypass_classes() {
        let reg = Rc::new(CountingRegistrar::new());
        let pool = BufferPool::with_registrar(reg.clone());
        let big = pool.alloc(1 << 20);
        assert_eq!(big.len(), 1 << 20);
        assert_eq!(pool.stats().oversized_allocs, 1);
        assert_eq!(reg.stats().pinned_bytes, 1 << 20);
    }

    #[test]
    fn exhausting_a_batch_triggers_second_growth() {
        let pool = BufferPool::unregistered();
        let held: Vec<_> = (0..GROWTH_BATCH + 1).map(|_| pool.alloc(64)).collect();
        assert_eq!(pool.stats().cold_allocs, 2);
        drop(held);
        assert_eq!(
            pool.free_count_for(64).unwrap(),
            2 * GROWTH_BATCH,
            "all buffers recycled"
        );
    }

    #[test]
    fn alloc_with_headroom_reserves_prepend_room() {
        let pool = BufferPool::unregistered();
        let mut b = pool.alloc_with_headroom(crate::pool::DEFAULT_HEADROOM, 100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.headroom(), DEFAULT_HEADROOM);
        // Class fits headroom + len: 64 + 100 -> 256.
        assert_eq!(b.capacity(), 256);
        assert!(b.prepend(DEFAULT_HEADROOM).is_ok());
        assert_eq!(b.len(), 100 + DEFAULT_HEADROOM);
    }

    #[test]
    fn headroom_buffers_recycle_like_plain_ones() {
        let pool = BufferPool::unregistered();
        {
            let _b = pool.alloc_with_headroom(64, 512);
        }
        assert_eq!(pool.stats().recycled, 1);
        assert_eq!(pool.free_count_for(576).unwrap(), GROWTH_BATCH);
    }

    #[test]
    fn tenant_pool_stamps_buffers_and_enforces_budget() {
        let t = TenantId(9);
        // Room for exactly one growth batch of the 64-byte class.
        let pool = BufferPool::for_tenant(t, Some((64 * GROWTH_BATCH) as u64));
        let held: Vec<_> = (0..GROWTH_BATCH)
            .map(|_| pool.try_alloc(64).unwrap())
            .collect();
        assert!(held.iter().all(|b| b.tenant() == t));
        let before = demi_tenant::counters::snapshot();
        assert_eq!(pool.try_alloc(64), Err(PoolExhausted { tenant: t }));
        let d = demi_tenant::counters::snapshot().delta(&before);
        assert_eq!(d.pool_exhaustions, 1, "each refusal is counted");
        // Freeing recycles storage: exhaustion is recoverable.
        drop(held);
        assert!(pool.try_alloc(64).is_ok());
    }

    #[test]
    fn tenant_budget_clips_growth_instead_of_overshooting() {
        let t = TenantId(9);
        // Budget covers only 3 buffers of the 1024 class.
        let pool = BufferPool::for_tenant(t, Some(3 * 1024));
        let a = pool.try_alloc(1000).unwrap();
        let b = pool.try_alloc(1000).unwrap();
        let c = pool.try_alloc(1000).unwrap();
        assert!(pool.stats().owned_bytes <= 3 * 1024);
        assert!(pool.try_alloc(1000).is_err());
        drop((a, b, c));
    }

    #[test]
    fn oversized_allocations_respect_the_budget() {
        let t = TenantId(9);
        let pool = BufferPool::for_tenant(t, Some(1 << 20));
        let big = pool.try_alloc(1 << 20).unwrap();
        assert_eq!(big.tenant(), t);
        assert_eq!(pool.try_alloc(1 << 20), Err(PoolExhausted { tenant: t }));
    }

    #[test]
    fn one_tenant_exhausting_never_blocks_another() {
        let a = BufferPool::for_tenant(TenantId(1), Some(64));
        let b = BufferPool::for_tenant(TenantId(2), Some(64 * GROWTH_BATCH as u64));
        let _hog = a.try_alloc(64).unwrap();
        assert!(a.try_alloc(64).is_err(), "tenant 1 is out of budget");
        assert!(
            b.try_alloc(64).is_ok(),
            "tenant 2's partition is untouched by tenant 1's exhaustion"
        );
    }

    #[test]
    #[should_panic(expected = "buffer pool exhausted for tenant5")]
    fn infallible_alloc_panics_on_budgeted_exhaustion() {
        let pool = BufferPool::for_tenant(TenantId(5), Some(0));
        let _ = pool.alloc(64);
    }

    #[test]
    fn buffer_outliving_pool_is_safe() {
        let b = {
            let pool = BufferPool::unregistered();
            pool.alloc(64)
        };
        // Pool is gone; dropping the buffer must not crash.
        assert_eq!(b.len(), 64);
        drop(b);
    }
}

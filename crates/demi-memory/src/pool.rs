//! Size-class buffer pools carved from registered regions.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use demi_tenant::TenantId;

use crate::buffer::{BufInner, DemiBuffer, PoolHome};
use crate::registration::Registrar;

/// The pool's size classes, in bytes. Allocations round up to the smallest
/// class that fits; requests above the largest class get a dedicated,
/// individually registered buffer.
pub(crate) const SIZE_CLASSES: [usize; 6] = [64, 256, 1024, 4096, 16384, 65536];

/// The bytes a class's first growth adds (at least one buffer, at most
/// [`MAX_BATCH`]): 64 buffers of every class up to 4 KiB, 16 of 16 KiB,
/// 4 of 64 KiB.
const FIRST_GROWTH_BYTES: usize = 256 * 1024;

/// The most buffers one growth adds.
const MAX_BATCH: usize = 64;

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
    /// Free buffers: headers with their storage attached. A returned one
    /// keeps its view registry's capacity.
    free: Vec<Rc<BufInner>>,
    /// Buffers the class owns, free or lent out.
    population: usize,
}

impl ClassPool {
    /// How many buffers the next growth adds: the first batch
    /// ([`FIRST_GROWTH_BYTES`]), then the population again — a large class
    /// doubles — but never more than [`MAX_BATCH`], so every class up to
    /// 4 KiB grows by 64 each time.
    fn batch(&self) -> usize {
        let first = (FIRST_GROWTH_BYTES / self.size).clamp(1, MAX_BATCH);
        self.population.clamp(first, MAX_BATCH)
    }
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
    /// Takes back a buffer whose last handle dropped: a class buffer goes
    /// to its free list; an oversized one returns its bytes to the budget
    /// and its region to the device, and its storage frees.
    pub(crate) fn recycle(&mut self, home: &PoolHome, header: Rc<BufInner>) {
        let Some(class) = self.classes.get_mut(home.class) else {
            self.stats.owned_bytes -= header.cap as u64;
            if let (Some(reg), Some(id)) = (&self.registrar, home.region) {
                reg.deregister(id);
            }
            return;
        };
        self.stats.recycled += 1;
        class.free.push(header);
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
                        population: 0,
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
            // Oversized: dedicated allocation, registered on its own, whose
            // drop gives its bytes and its region back.
            if let Some(budget) = inner.budget_bytes {
                if inner.stats.owned_bytes + total as u64 > budget {
                    demi_tenant::counters::note_pool_exhaustion();
                    return Err(PoolExhausted { tenant });
                }
            }
            inner.stats.oversized_allocs += 1;
            inner.stats.owned_bytes += total as u64;
            let home = PoolHome {
                pool: Rc::downgrade(&self.inner),
                class: SIZE_CLASSES.len(),
                region: inner.registrar.as_ref().map(|reg| reg.register(total)),
            };
            let storage = vec![0u8; total].into_boxed_slice();
            let header = Rc::new(BufInner::from_box_for(storage, Some(home), tenant));
            return Ok(DemiBuffer::from_pool(header, headroom, len, tenant));
        };

        if inner.classes[class].free.is_empty() {
            if !self.grow(&mut inner, class) {
                demi_tenant::counters::note_pool_exhaustion();
                return Err(PoolExhausted { tenant });
            }
            inner.stats.cold_allocs += 1;
        } else {
            inner.stats.warm_allocs += 1;
        }
        let header = inner.classes[class]
            .free
            .pop()
            .expect("grow populated the free list");
        drop(inner);
        Ok(DemiBuffer::from_pool(header, headroom, len, tenant))
    }

    /// Grows `class` by [`ClassPool::batch`] buffers, clipped to the
    /// tenant budget, and registers them as one region. Returns false
    /// (without growing) when the budget has no room for even one buffer
    /// of this class.
    fn grow(&self, inner: &mut PoolInner, class: usize) -> bool {
        let size = inner.classes[class].size;
        let mut batch = inner.classes[class].batch();
        if let Some(budget) = inner.budget_bytes {
            let remaining = budget.saturating_sub(inner.stats.owned_bytes);
            batch = batch.min((remaining / size as u64) as usize);
        }
        if batch == 0 {
            return false;
        }
        let batch_bytes = size * batch;
        if let Some(reg) = &inner.registrar {
            reg.register(batch_bytes);
        }
        inner.stats.owned_bytes += batch_bytes as u64;
        inner.classes[class].population += batch;
        for _ in 0..batch {
            let home = PoolHome {
                pool: Rc::downgrade(&self.inner),
                class,
                region: None,
            };
            let storage = vec![0u8; size].into_boxed_slice();
            let header = BufInner::from_box_for(storage, Some(home), inner.tenant);
            inner.classes[class].free.push(Rc::new(header));
        }
        true
    }

    /// Gives every class an allocation of up to `max_len` bytes (headroom
    /// included) can land in — each class up to the first that holds
    /// `max_len` — at least its first growth batch, moving that
    /// registration ahead of the data path (typical libOS start-up). A
    /// class no such allocation can use stays empty and pins nothing;
    /// `usize::MAX` warms every class.
    pub fn warm_up(&self, max_len: usize) {
        let mut inner = self.inner.borrow_mut();
        for (class, &size) in SIZE_CLASSES.iter().enumerate() {
            if inner.classes[class].free.is_empty() {
                self.grow(&mut inner, class);
            }
            if size >= max_len {
                break;
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

        /// Buffers the class of `size`-byte buffers owns.
        fn population(&self, size: usize) -> usize {
            let class = SIZE_CLASSES.iter().position(|&s| s == size).unwrap();
            self.inner.borrow().classes[class].population
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
        pool.warm_up(usize::MAX);
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
        let held: Vec<_> = (0..MAX_BATCH + 1).map(|_| pool.alloc(64)).collect();
        assert_eq!(pool.stats().cold_allocs, 2);
        drop(held);
        assert_eq!(
            pool.free_count_for(64).unwrap(),
            2 * MAX_BATCH,
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
        assert_eq!(pool.free_count_for(576).unwrap(), MAX_BATCH);
    }

    #[test]
    fn tenant_pool_stamps_buffers_and_enforces_budget() {
        let t = TenantId(9);
        // Room for exactly one growth batch of the 64-byte class.
        let pool = BufferPool::for_tenant(t, Some((64 * MAX_BATCH) as u64));
        let held: Vec<_> = (0..MAX_BATCH)
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
    fn an_oversized_buffer_returns_its_budget_when_dropped() {
        let t = TenantId(9);
        let pool = BufferPool::for_tenant(t, Some(1 << 20));
        drop(pool.try_alloc(1 << 20).unwrap());
        assert_eq!(pool.stats().owned_bytes, 0);
        assert!(pool.try_alloc(1 << 20).is_ok(), "exhaustion is a state");
    }

    #[test]
    fn an_oversized_buffer_returns_its_pin_when_dropped() {
        let reg = Rc::new(CountingRegistrar::new());
        let pool = BufferPool::with_registrar(reg.clone());
        let _small = pool.alloc(64);
        let before = reg.stats();
        drop(pool.alloc(1 << 20));
        let after = reg.stats();
        assert_eq!(after.pinned_bytes, before.pinned_bytes);
        assert_eq!(after.active_regions, before.active_regions);
        assert_eq!(after.deregistrations, before.deregistrations + 1);
    }

    #[test]
    fn a_large_class_doubles_up_to_a_full_batch() {
        let pool = BufferPool::unregistered();
        let mut held = Vec::new();
        let mut populations = Vec::new();
        while populations.len() < 6 {
            held.push(pool.alloc(65536));
            if populations.last() != Some(&pool.population(65536)) {
                populations.push(pool.population(65536));
            }
        }
        assert_eq!(populations, [4, 8, 16, 32, 64, 128]);
        held.push(pool.alloc(16384));
        assert_eq!(pool.population(16384), 16);
    }

    #[test]
    fn a_budget_clips_a_doubling_growth() {
        // Room for six 64 KiB buffers: a first batch of 4, then 2 of the
        // 4 the doubling asks for.
        let pool = BufferPool::for_tenant(TenantId(9), Some(6 * 65536));
        let held: Vec<_> = (0..6).map(|_| pool.try_alloc(65536).unwrap()).collect();
        assert_eq!(pool.population(65536), 6);
        assert!(pool.try_alloc(65536).is_err());
        drop(held);
    }

    #[test]
    fn warm_up_to_an_mbuf_leaves_the_large_classes_empty() {
        let reg = Rc::new(CountingRegistrar::new());
        let pool = BufferPool::with_registrar(reg.clone());
        pool.warm_up(2048);
        assert_eq!(pool.population(16384), 0);
        assert_eq!(pool.population(65536), 0);
        assert_eq!(reg.stats().registrations, 4);
        assert_eq!(reg.stats().pinned_bytes, 64 * (64 + 256 + 1024 + 4096));
        let _frame = pool.alloc(2048);
        assert_eq!(pool.stats().cold_allocs, 0, "every mbuf size is warm");
    }

    #[test]
    fn one_tenant_exhausting_never_blocks_another() {
        let a = BufferPool::for_tenant(TenantId(1), Some(64));
        let b = BufferPool::for_tenant(TenantId(2), Some(64 * MAX_BATCH as u64));
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

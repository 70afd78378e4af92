//! The reference-counted zero-copy buffer.
//!
//! # Headroom layout
//!
//! A `DemiBuffer` is a *view* `[off, off + len)` into refcounted storage:
//!
//! ```text
//!   storage:  [ ..headroom.. | ..view.. | ..tailroom.. ]
//!             0              off        off+len        capacity
//! ```
//!
//! Buffers allocated with headroom (see [`DemiBuffer::with_headroom`] and
//! `BufferPool::alloc_with_headroom`) start with `off > 0`, leaving room for
//! protocol headers to be written *in place* with [`DemiBuffer::prepend`] —
//! the mbuf idiom: one allocation per packet, headers prepended on TX,
//! trimmed off with [`DemiBuffer::trim_front`] on RX. Headroom is never
//! silently grown: a `prepend` that does not fit returns an error.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Deref;
use std::ptr::NonNull;
use std::rc::{Rc, Weak};

use demi_tenant::TenantId;

use crate::counters;
use crate::pool::{BufferPool, PoolInner};
use crate::registration::RegionId;

thread_local! {
    /// Where every counted copy lands ([`DemiBuffer::gather`]). Per thread
    /// because worlds are: buffers are `Rc`-counted and never cross one,
    /// and one pool warms once for every copy site on the thread.
    static COPY_POOL: BufferPool = BufferPool::unregistered();
    /// Emptied segment vectors kept for [`segment_vec`], per thread for
    /// the same reason.
    static SPARE_VECS: RefCell<Vec<Vec<DemiBuffer>>> =
        RefCell::new(Vec::with_capacity(MAX_SPARE_VECS));
}

/// Emptied segment vectors a thread keeps at most; one more is freed.
pub(crate) const MAX_SPARE_VECS: usize = 8;
/// The most segments a kept vector may have room for: a larger one is
/// freed, so one oversized burst cannot pin its storage.
pub(crate) const MAX_SPARE_SEGMENTS: usize = 1024;

/// An empty segment vector: a kept one's storage if this thread has one
/// ([`recycle_segment_vec`]), else a vector that has not allocated yet.
pub fn segment_vec() -> Vec<DemiBuffer> {
    let spare = SPARE_VECS.try_with(|spare| spare.borrow_mut().pop());
    spare.ok().flatten().unwrap_or_default()
}

/// Drops `segs`'s segments and keeps its storage for a later
/// [`segment_vec`]. It is freed instead when it has room for fewer than
/// two segments (a one-segment array is held inline) or for more than
/// `MAX_SPARE_SEGMENTS` (1 024), or when this thread already keeps
/// `MAX_SPARE_VECS` (8).
pub fn recycle_segment_vec(mut segs: Vec<DemiBuffer>) {
    segs.clear();
    if (2..=MAX_SPARE_SEGMENTS).contains(&segs.capacity()) {
        let _ = SPARE_VECS.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() < MAX_SPARE_VECS {
                spare.push(segs);
            }
        });
    }
}

/// Why a [`DemiBuffer::prepend`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadroomError {
    /// Not enough headroom in front of the view. There is no silent
    /// reallocation: the caller decides whether to copy into a fresh
    /// buffer (and account for it) or fail.
    Exhausted { needed: usize, available: usize },
    /// Another live handle views bytes *below* this view's start, so the
    /// headroom region may be visible to someone else. Writing it would
    /// mutate shared data — the same discipline as [`DemiBuffer::try_mut`].
    Shared,
    /// The buffer belongs to another tenant — writing headers into a
    /// foreign tenant's storage is a protection violation, not a
    /// capacity problem.
    ForeignTenant(CrossTenantAccess),
}

impl fmt::Display for HeadroomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeadroomError::Exhausted { needed, available } => write!(
                f,
                "headroom exhausted: need {needed} bytes, have {available}"
            ),
            HeadroomError::Shared => {
                write!(f, "headroom shared with another live view")
            }
            HeadroomError::ForeignTenant(denial) => denial.fmt(f),
        }
    }
}

impl std::error::Error for HeadroomError {}

/// A denied cross-tenant buffer access: the ambient tenant tried to
/// view, clone, mutate, or prepend into storage owned by another tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossTenantAccess {
    /// The tenant that owns the storage.
    pub owner: TenantId,
    /// The ambient tenant that attempted the access.
    pub accessor: TenantId,
}

impl fmt::Display for CrossTenantAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cross-tenant buffer access denied: {} attempted to access storage owned by {}",
            self.accessor, self.owner
        )
    }
}

impl std::error::Error for CrossTenantAccess {}

/// The pool a pooled buffer returns to when its last handle drops.
pub(crate) struct PoolHome {
    pub(crate) pool: Weak<RefCell<PoolInner>>,
    /// The size class it recycles into; past the last class for an
    /// oversized buffer, which is not kept.
    pub(crate) class: usize,
    /// An oversized buffer's own registered region.
    pub(crate) region: Option<RegionId>,
}

/// The header every handle of one buffer shares. A pooled header outlives
/// its buffer: the last handle returns it to the pool with its storage and
/// its registry's capacity, for the next allocation of its class.
pub(crate) struct BufInner {
    /// Base pointer of the owned allocation. Kept raw (rather than as a
    /// `Box<[u8]>`) so that disjoint-range access — a `prepend` writing
    /// headroom while other handles read their own views — never forms
    /// overlapping references. The allocation is reconstructed as a box in
    /// `Drop`.
    ptr: NonNull<u8>,
    pub(crate) cap: usize,
    home: Option<PoolHome>,
    /// Live view starts: `(view start offset, number of live handles)`.
    /// Maintained by every handle create/clone/retarget/drop; `prepend`
    /// consults it to prove the headroom bytes are invisible to all other
    /// handles. A flat vector, not an ordered map: a buffer rarely has more
    /// than two or three distinct view offsets alive at once, and the
    /// registry is touched on every hot-path prepend/trim, so a linear scan
    /// over an inline-ish vector beats tree bookkeeping.
    views: RefCell<Vec<(usize, usize)>>,
    /// The tenant whose allocation this is. Stamped at construction from
    /// the ambient tenant (or the owning pool's tenant) and consulted by
    /// every handle-creating or mutating operation: a foreign tenant may
    /// never obtain a view into this storage.
    tenant: Cell<TenantId>,
}

impl BufInner {
    fn from_box(storage: Box<[u8]>, home: Option<PoolHome>) -> Self {
        Self::from_box_for(storage, home, demi_tenant::current())
    }

    pub(crate) fn from_box_for(
        storage: Box<[u8]>,
        home: Option<PoolHome>,
        tenant: TenantId,
    ) -> Self {
        let cap = storage.len();
        // A pooled header is recycled with its registry, so it is sized
        // once for the views a datapath buffer carries (a received frame's
        // parsed keys and values) and never regrows while warm.
        let views = if home.is_some() { 8 } else { 2 };
        let ptr = Box::into_raw(storage) as *mut u8;
        BufInner {
            // SAFETY: Box::into_raw never returns null (dangling-but-valid
            // for an empty slice).
            ptr: unsafe { NonNull::new_unchecked(ptr) },
            cap,
            home,
            views: RefCell::new(Vec::with_capacity(views)),
            tenant: Cell::new(tenant),
        }
    }

    /// Reclaims the allocation as a box. Only sound once no views remain.
    unsafe fn take_storage(&self) -> Box<[u8]> {
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(
            self.ptr.as_ptr(),
            self.cap,
        ))
    }

    fn view_register(&self, off: usize) {
        let mut views = self.views.borrow_mut();
        match views.iter_mut().find(|(o, _)| *o == off) {
            Some((_, count)) => *count += 1,
            None => views.push((off, 1)),
        }
    }

    fn view_unregister(&self, off: usize) {
        let mut views = self.views.borrow_mut();
        let idx = views
            .iter()
            .position(|(o, _)| *o == off)
            .expect("view was registered");
        views[idx].1 -= 1;
        if views[idx].1 == 0 {
            views.swap_remove(idx);
        }
    }

    /// Moves one live handle from offset `old` to `new` in a single pass —
    /// the hot path of `prepend`/`advance`, where the common case is a
    /// sole handle at `old` whose entry can be rewritten in place.
    fn view_retarget(&self, old: usize, new: usize) {
        if old == new {
            return;
        }
        let mut views = self.views.borrow_mut();
        let old_idx = views
            .iter()
            .position(|(o, _)| *o == old)
            .expect("view was registered");
        if let Some(new_idx) = views.iter().position(|(o, _)| *o == new) {
            views[new_idx].1 += 1;
            views[old_idx].1 -= 1;
            if views[old_idx].1 == 0 {
                views.swap_remove(old_idx);
            }
        } else if views[old_idx].1 == 1 {
            views[old_idx].0 = new;
        } else {
            views[old_idx].1 -= 1;
            views.push((new, 1));
        }
    }

    fn any_view_below(&self, off: usize) -> bool {
        self.views.borrow().iter().any(|(o, _)| *o < off)
    }
}

impl Drop for BufInner {
    fn drop(&mut self) {
        // SAFETY: the last handle is gone, so no slice borrows remain.
        drop(unsafe { self.take_storage() });
    }
}

/// A reference-counted byte buffer with cheap sub-slicing and headroom.
///
/// `DemiBuffer` is the unit of zero-copy I/O: the same underlying storage is
/// shared (by handle clone) between the application, protocol layers, and
/// simulated devices, so data is never copied as it moves through the stack.
///
/// **Free-protection** (paper §4.5): "freeing" a buffer is dropping a
/// handle. Storage is reclaimed — returned to its pool — only when the last
/// handle (including any held by an in-flight device operation) drops.
///
/// **No write-protection** (paper §4.5): mutation requires exclusive
/// ownership via [`DemiBuffer::try_mut`]; shared buffers are read-only
/// through the safe API, so applications follow the allocate-new-buffer
/// discipline the paper describes for Redis. [`DemiBuffer::prepend`] extends
/// the same discipline to headroom: it writes only bytes that no *other*
/// live handle can see.
pub struct DemiBuffer {
    inner: Rc<BufInner>,
    off: usize,
    len: usize,
}

impl DemiBuffer {
    fn new_handle(inner: Rc<BufInner>, off: usize, len: usize) -> Self {
        inner.view_register(off);
        DemiBuffer { inner, off, len }
    }

    /// The tenant that owns this buffer's storage. `TenantId::HOST` for
    /// every buffer allocated outside a tenant scope — i.e. all existing
    /// single-application workloads.
    pub fn tenant(&self) -> TenantId {
        self.inner.tenant.get()
    }

    /// Whether the ambient tenant may touch this storage; on denial the
    /// event is counted and the denial returned. The rule is
    /// `demi_tenant::may_access`: the host supervisor touches anything,
    /// host-owned buffers are public, tenants touch only their own.
    fn check_access(&self) -> Result<(), CrossTenantAccess> {
        let owner = self.inner.tenant.get();
        if demi_tenant::may_access(owner) {
            Ok(())
        } else {
            demi_tenant::counters::note_cross_tenant_denial();
            Err(CrossTenantAccess {
                owner,
                accessor: demi_tenant::current(),
            })
        }
    }

    /// Re-stamps the buffer's owning tenant. Only the host supervisor or
    /// the current owner may retag — this is how the stack attributes a
    /// device-allocated RX frame to the tenant owning its flow.
    ///
    /// # Panics
    ///
    /// Panics if the ambient tenant may not access the buffer.
    pub fn retag(&self, tenant: TenantId) {
        self.check_access()
            .expect("cross-tenant retag is a protection violation");
        self.inner.tenant.set(tenant);
    }

    /// Creates an unpooled buffer holding a copy of `data`.
    ///
    /// Counts one allocation and one copy of `data.len()` bytes toward the
    /// datapath counters — this constructor *is* a copy.
    pub fn from_slice(data: &[u8]) -> Self {
        counters::note_alloc();
        counters::note_copy(data.len());
        Self::new_handle(
            Rc::new(BufInner::from_box(data.to_vec().into_boxed_slice(), None)),
            0,
            data.len(),
        )
    }

    /// Creates an unpooled, zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        counters::note_alloc();
        Self::new_handle(
            Rc::new(BufInner::from_box(vec![0u8; len].into_boxed_slice(), None)),
            0,
            len,
        )
    }

    /// Creates an unpooled, zero-filled buffer whose view starts `headroom`
    /// bytes in: `len` visible bytes with `headroom` bytes of prepend room.
    pub fn zeroed_with_headroom(headroom: usize, len: usize) -> Self {
        counters::note_alloc();
        Self::new_handle(
            Rc::new(BufInner::from_box(
                vec![0u8; headroom + len].into_boxed_slice(),
                None,
            )),
            headroom,
            len,
        )
    }

    /// A zero-length buffer: the payload of pure-control packets (ACKs,
    /// handshake segments). Allocates no data bytes and counts nothing
    /// toward the datapath counters.
    ///
    /// All empty buffers on a thread share one cached zero-capacity
    /// storage, so constructing one is a refcount bump, not a heap
    /// allocation — pure ACKs stay off the allocator entirely. The shared
    /// storage means an empty buffer is never exclusively owned
    /// ([`DemiBuffer::try_mut`] returns `None`), which is moot: there are
    /// no bytes to mutate and no headroom to prepend into.
    pub fn empty() -> Self {
        thread_local! {
            // Stamped HOST explicitly: the storage is shared by every
            // empty buffer on the thread regardless of which tenant
            // first constructed one, and zero bytes disclose nothing.
            static EMPTY_INNER: Rc<BufInner> =
                Rc::new(BufInner::from_box_for(Box::from([]), None, TenantId::HOST));
        }
        EMPTY_INNER.with(|inner| Self::new_handle(Rc::clone(inner), 0, 0))
    }

    /// Copies this view into a fresh buffer with `headroom` bytes of
    /// prepend room. This is the *honestly counted* fallback for when
    /// [`DemiBuffer::prepend`] is refused: one [`DemiBuffer::gather`].
    ///
    /// # Panics
    ///
    /// Panics if the buffer belongs to a foreign tenant — the copy would
    /// read the owner's payload bytes.
    pub fn copy_with_headroom(&self, headroom: usize) -> Self {
        Self::gather(headroom, self.len, [self])
    }

    /// Copies the first `len` bytes of `parts`, in order (fewer, if they
    /// hold fewer), into one buffer from this thread's copy pool, behind
    /// `headroom` bytes of prepend room: one allocation and one copy, both
    /// counted, and no heap allocation once the pool is warm. The copy
    /// holds its parts' bytes, so it carries their owner's stamp — the
    /// first non-host one, since a libOS-made header may lead — even when
    /// the host supervisor performs the copy.
    ///
    /// # Panics
    ///
    /// Panics if a part belongs to a foreign tenant — the copy would read
    /// the owner's payload bytes.
    pub fn gather<'a>(
        headroom: usize,
        len: usize,
        parts: impl IntoIterator<Item = &'a DemiBuffer>,
    ) -> Self {
        let mut copy = COPY_POOL.with(|pool| pool.alloc_with_headroom(headroom, len));
        // Proof: `copy` was allocated on the line above from a host pool,
        // so any tenant may write it, and it shares its storage with
        // nothing.
        let dst = copy.try_mut().expect("a fresh pool buffer is exclusive");
        let (mut off, mut owner) = (0, TenantId::HOST);
        for part in parts {
            part.check_access()
                .expect("cross-tenant copy is a protection violation");
            let n = part.len.min(len - off);
            dst[off..off + n].copy_from_slice(&part[..n]);
            if owner.is_host() {
                owner = part.tenant();
            }
            off += n;
            if off == len {
                break;
            }
        }
        copy.truncate(off);
        copy.inner.tenant.set(owner);
        counters::note_copy(off);
        copy
    }

    /// The first handle to a pooled header, viewing `[off, off + len)` and
    /// stamped with the pool's tenant; a reused header has no view left.
    pub(crate) fn from_pool(
        header: Rc<BufInner>,
        off: usize,
        len: usize,
        tenant: TenantId,
    ) -> Self {
        debug_assert!(off + len <= header.cap);
        debug_assert!(header.views.borrow().is_empty(), "a free header has a view");
        counters::note_alloc();
        header.tenant.set(tenant);
        Self::new_handle(header, off, len)
    }

    /// Bytes visible through this handle.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total capacity of the underlying storage (the size class for pooled
    /// buffers).
    pub fn capacity(&self) -> usize {
        self.inner.cap
    }

    /// Bytes available in front of the view for [`DemiBuffer::prepend`].
    /// Bytes removed with [`DemiBuffer::trim_front`] become headroom again —
    /// exactly the mbuf model.
    pub fn headroom(&self) -> usize {
        self.off
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `[off, off + len)` is in bounds for the allocation, the
        // allocation lives as long as `self.inner`, and the only mutation
        // paths (`try_mut`, `prepend`) either require exclusive ownership
        // or write a range disjoint from every live view (see `prepend`).
        unsafe { std::slice::from_raw_parts(self.inner.ptr.as_ptr().add(self.off), self.len) }
    }

    /// Mutable access to the view, available only while this is the sole
    /// handle to the storage (no device or other component holds a clone).
    ///
    /// Returns `None` when the buffer is shared — the caller should allocate
    /// a fresh buffer instead, exactly the paper's recommended discipline —
    /// or when the buffer belongs to a foreign tenant (the denial is
    /// counted).
    pub fn try_mut(&mut self) -> Option<&mut [u8]> {
        if self.check_access().is_err() {
            return None;
        }
        if Rc::strong_count(&self.inner) != 1 {
            return None;
        }
        // SAFETY: sole handle (checked above), range in bounds, and the
        // returned borrow is tied to `&mut self`, so no other access to the
        // storage can be created while it lives.
        Some(unsafe {
            std::slice::from_raw_parts_mut(self.inner.ptr.as_ptr().add(self.off), self.len)
        })
    }

    /// Whether [`DemiBuffer::prepend`]`(n)` would succeed right now.
    pub fn can_prepend(&self, n: usize) -> bool {
        n <= self.off && !self.inner.any_view_below(self.off)
    }

    /// Grows the view `n` bytes downward into headroom and returns the
    /// newly exposed prefix for the caller to fill — the in-place header
    /// write of the mbuf TX path.
    ///
    /// This is legal only when the headroom bytes are provably invisible to
    /// every other live handle: it fails with [`HeadroomError::Shared`] if
    /// any other handle's view starts below this one's (clones *at or
    /// above* this offset — e.g. the application's own handle to the same
    /// payload — are fine, because the written range `[off - n, off)` lies
    /// entirely below their views). It fails with
    /// [`HeadroomError::Exhausted`] when fewer than `n` headroom bytes
    /// remain; there is no silent reallocation.
    pub fn prepend(&mut self, n: usize) -> Result<&mut [u8], HeadroomError> {
        if let Err(denial) = self.check_access() {
            return Err(HeadroomError::ForeignTenant(denial));
        }
        if self.inner.any_view_below(self.off) {
            return Err(HeadroomError::Shared);
        }
        if n > self.off {
            return Err(HeadroomError::Exhausted {
                needed: n,
                available: self.off,
            });
        }
        let new_off = self.off - n;
        self.inner.view_retarget(self.off, new_off);
        self.off = new_off;
        self.len += n;
        // SAFETY: `[new_off, new_off + n)` is in bounds. Every *other* live
        // view starts at or above the old `off = new_off + n` (checked via
        // the view registry above), so their slices are disjoint from the
        // returned one; and the returned borrow is tied to `&mut self`, so
        // this handle cannot produce an overlapping slice while it lives.
        Ok(unsafe { std::slice::from_raw_parts_mut(self.inner.ptr.as_ptr().add(new_off), n) })
    }

    /// Drops the first `n` bytes from the view; they become headroom. The
    /// in-place header strip of the mbuf RX path.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn trim_front(&mut self, n: usize) {
        self.advance(n);
    }

    /// Splits the view at `at`: `self` keeps `[0, at)` and the returned
    /// handle views `[at, len)`. Zero-copy — both share storage.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()` or if the buffer belongs to a foreign
    /// tenant.
    pub fn split_off(&mut self, at: usize) -> DemiBuffer {
        self.check_access()
            .expect("cross-tenant split_off is a protection violation");
        assert!(at <= self.len, "split_off beyond view");
        let tail = Self::new_handle(self.inner.clone(), self.off + at, self.len - at);
        self.len = at;
        tail
    }

    /// Number of live handles to the underlying storage. A value above 1
    /// means a device or another component still references the memory.
    pub fn handle_count(&self) -> usize {
        Rc::strong_count(&self.inner)
    }

    /// Whether two handles share storage.
    pub fn same_storage(&self, other: &DemiBuffer) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// A new handle viewing `[start, end)` of this view (zero-copy).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted, or if the
    /// buffer belongs to a foreign tenant (use [`DemiBuffer::try_slice`]
    /// for a fallible probe).
    pub fn slice(&self, start: usize, end: usize) -> DemiBuffer {
        self.try_slice(start, end)
            .expect("cross-tenant slice is a protection violation")
    }

    /// A new handle viewing `[start, end)`, refused (and counted) if the
    /// buffer belongs to a foreign tenant.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn try_slice(&self, start: usize, end: usize) -> Result<DemiBuffer, CrossTenantAccess> {
        self.check_access()?;
        assert!(start <= end && end <= self.len, "slice out of bounds");
        Ok(Self::new_handle(
            self.inner.clone(),
            self.off + start,
            end - start,
        ))
    }

    /// A new handle over the whole view, refused (and counted) if the
    /// buffer belongs to a foreign tenant. [`DemiBuffer::clone`] is this
    /// with the denial escalated to a panic.
    pub fn try_clone(&self) -> Result<DemiBuffer, CrossTenantAccess> {
        self.check_access()?;
        Ok(Self::new_handle(self.inner.clone(), self.off, self.len))
    }

    /// Shrinks the view to its first `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.len, "truncate beyond view");
        self.len = len;
    }

    /// Drops the first `n` bytes from the view.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advance beyond view");
        let new_off = self.off + n;
        self.inner.view_retarget(self.off, new_off);
        self.off = new_off;
        self.len -= n;
    }
}

impl Drop for DemiBuffer {
    fn drop(&mut self) {
        self.inner.view_unregister(self.off);
        // The last handle of a pooled buffer returns its header to the pool;
        // without a pool to return to, header and storage simply free.
        let Some(home) = self.inner.home.as_ref() else {
            return;
        };
        if Rc::strong_count(&self.inner) > 1 {
            return;
        }
        if let Some(pool) = home.pool.upgrade() {
            // A drop must not panic: a pool busy right now lets it go.
            if let Ok(mut pool) = pool.try_borrow_mut() {
                pool.recycle(home, self.inner.clone());
            }
        }
    }
}

impl Clone for DemiBuffer {
    /// Clones the *handle*; storage is shared, not copied.
    ///
    /// # Panics
    ///
    /// Panics if the buffer belongs to a foreign tenant — a clone is a
    /// new view into the owner's bytes, which isolation forbids. Use
    /// [`DemiBuffer::try_clone`] to probe without panicking.
    fn clone(&self) -> Self {
        self.try_clone()
            .expect("cross-tenant clone is a protection violation")
    }
}

impl Deref for DemiBuffer {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for DemiBuffer {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for DemiBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for DemiBuffer {}

impl PartialEq<[u8]> for DemiBuffer {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for DemiBuffer {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for DemiBuffer {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for DemiBuffer {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for DemiBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DemiBuffer(len={}, headroom={}, handles={})",
            self.len,
            self.off,
            self.handle_count()
        )
    }
}

impl From<&[u8]> for DemiBuffer {
    fn from(data: &[u8]) -> Self {
        DemiBuffer::from_slice(data)
    }
}

impl<const N: usize> From<&[u8; N]> for DemiBuffer {
    fn from(data: &[u8; N]) -> Self {
        DemiBuffer::from_slice(data)
    }
}

impl From<&Vec<u8>> for DemiBuffer {
    fn from(data: &Vec<u8>) -> Self {
        DemiBuffer::from_slice(data)
    }
}

impl From<Vec<u8>> for DemiBuffer {
    /// Takes ownership of the vector's storage — no byte copy. Counts one
    /// allocation (the vector's) toward the datapath counters.
    fn from(data: Vec<u8>) -> Self {
        counters::note_alloc();
        let len = data.len();
        Self::new_handle(
            Rc::new(BufInner::from_box(data.into_boxed_slice(), None)),
            0,
            len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};

    thread_local! {
        static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Counts this thread's allocations inside [`allocs_in`].
    struct Counting;

    // SAFETY: every request is forwarded unchanged to `System`; the only
    // addition is a thread-local counter bump that cannot allocate or unwind.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    fn allocs_in(f: impl FnOnce()) -> u64 {
        ALLOCS.set(Some(0));
        f();
        ALLOCS.replace(None).unwrap_or(0)
    }

    /// A pooled buffer's header goes back to the pool with its storage and
    /// its view registry's capacity: once warm, allocating, sharing and
    /// viewing a buffer at three offsets, and dropping it, allocates
    /// nothing. Catches the last handle dropping its header instead of
    /// returning it (`recycle` deleted from `Drop`): the next buffer gets a
    /// header whose registry regrows at the third offset.
    #[test]
    fn a_warm_pool_buffer_allocates_nothing_over_its_life() {
        let pool = crate::BufferPool::unregistered();
        pool.warm_up(usize::MAX);
        let life = || {
            let buf = pool.alloc_with_headroom(16, 100);
            let mut second = buf.clone();
            second.advance(10);
            let mut third = second.clone();
            third.advance(10);
            assert_eq!(buf.inner.views.borrow().len(), 3);
        };
        life();
        assert_eq!(allocs_in(life), 0);
    }

    fn spare_vecs() -> usize {
        SPARE_VECS.with(|spare| spare.borrow().len())
    }

    /// The spare segment-vector list is bounded: a kept vector comes back
    /// empty with its storage and takes nothing from the heap; one with
    /// room for fewer than two segments or more than the cap is freed; and
    /// the list never holds more than its count.
    #[test]
    fn the_spare_segment_vec_list_is_bounded() {
        while spare_vecs() > 0 {
            drop(segment_vec());
        }
        let seg = DemiBuffer::from_slice(b"segment");
        let mut segs = Vec::with_capacity(4);
        segs.extend([seg.clone(), seg.clone()]);
        let storage = segs.as_ptr();
        recycle_segment_vec(segs);
        assert_eq!(seg.handle_count(), 1, "its segments dropped on the way in");
        let cycle = || {
            let mut segs = segment_vec();
            assert_eq!(
                (segs.len(), segs.capacity(), segs.as_ptr()),
                (0, 4, storage)
            );
            segs.extend([seg.clone(), seg.clone(), seg.clone()]);
            recycle_segment_vec(segs);
        };
        assert_eq!(allocs_in(cycle), 0);
        drop(segment_vec());

        recycle_segment_vec(Vec::with_capacity(1));
        recycle_segment_vec(Vec::with_capacity(MAX_SPARE_SEGMENTS + 1));
        assert_eq!(spare_vecs(), 0, "too small and too large are freed");
        recycle_segment_vec(Vec::with_capacity(MAX_SPARE_SEGMENTS));
        assert_eq!(
            segment_vec().capacity(),
            MAX_SPARE_SEGMENTS,
            "the cap is kept"
        );

        for _ in 0..2 * MAX_SPARE_VECS {
            recycle_segment_vec(Vec::with_capacity(2));
        }
        assert_eq!(spare_vecs(), MAX_SPARE_VECS);
        (0..MAX_SPARE_VECS).for_each(|_| assert_eq!(segment_vec().capacity(), 2));
        assert_eq!(
            segment_vec().capacity(),
            0,
            "an empty list hands out a new vector"
        );
    }

    #[test]
    fn from_slice_round_trips() {
        let b = DemiBuffer::from_slice(b"hello");
        assert_eq!(b.as_slice(), b"hello");
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
    }

    #[test]
    fn clone_shares_storage_without_copying() {
        let a = DemiBuffer::from_slice(b"shared");
        let b = a.clone();
        assert!(a.same_storage(&b));
        assert_eq!(a.handle_count(), 2);
        assert_eq!(b.as_slice(), b"shared");
    }

    #[test]
    fn try_mut_requires_exclusivity() {
        let mut a = DemiBuffer::from_slice(b"abc");
        {
            let s = a.try_mut().expect("sole handle");
            s[0] = b'x';
        }
        assert_eq!(a.as_slice(), b"xbc");

        let b = a.clone();
        assert!(a.try_mut().is_none(), "shared buffer must not be mutable");
        drop(b);
        assert!(a.try_mut().is_some(), "exclusive again after device drop");
    }

    #[test]
    fn slicing_is_zero_copy_and_nested() {
        let a = DemiBuffer::from_slice(b"0123456789");
        let mid = a.slice(2, 8);
        assert_eq!(mid.as_slice(), b"234567");
        let inner = mid.slice(1, 3);
        assert_eq!(inner.as_slice(), b"34");
        assert!(inner.same_storage(&a));
    }

    #[test]
    fn advance_and_truncate_adjust_view() {
        let mut a = DemiBuffer::from_slice(b"headerbody");
        a.advance(6);
        assert_eq!(a.as_slice(), b"body");
        a.truncate(2);
        assert_eq!(a.as_slice(), b"bo");
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_out_of_bounds_panics() {
        let a = DemiBuffer::from_slice(b"abc");
        let _ = a.slice(1, 9);
    }

    #[test]
    fn equality_compares_contents() {
        let a = DemiBuffer::from_slice(b"same");
        let b = DemiBuffer::from_slice(b"same");
        assert_eq!(a, b);
        assert!(!a.same_storage(&b));
        assert_eq!(a, b"same"[..]);
        assert_eq!(a, b"same".to_vec());
        assert_eq!(a, *b"same");
    }

    #[test]
    fn deref_allows_slice_methods() {
        let a = DemiBuffer::from_slice(b"abcdef");
        assert!(a.starts_with(b"abc"));
        assert_eq!(&a[2..4], b"cd");
    }

    #[test]
    fn headroom_prepend_writes_in_place() {
        let mut b = DemiBuffer::zeroed_with_headroom(8, 4);
        assert_eq!(b.headroom(), 8);
        assert_eq!(b.len(), 4);
        b.try_mut().unwrap().copy_from_slice(b"body");
        let hdr = b.prepend(3).expect("room for 3");
        hdr.copy_from_slice(b"hd:");
        assert_eq!(b.as_slice(), b"hd:body");
        assert_eq!(b.headroom(), 5);
    }

    #[test]
    fn prepend_is_refused_when_headroom_is_exhausted() {
        let mut b = DemiBuffer::zeroed_with_headroom(2, 1);
        assert!(b.can_prepend(2));
        assert!(!b.can_prepend(3));
        assert_eq!(
            b.prepend(3),
            Err(HeadroomError::Exhausted {
                needed: 3,
                available: 2
            })
        );
        // And nothing changed: no silent reallocation.
        assert_eq!(b.headroom(), 2);
        assert_eq!(b.len(), 1);
        assert!(b.prepend(2).is_ok());
    }

    #[test]
    fn prepend_allows_clones_at_or_above_the_view() {
        // The application keeps its own handle to the payload it pushed;
        // the stack may still prepend headers below that view.
        let mut tx = DemiBuffer::zeroed_with_headroom(8, 4);
        let app = tx.clone();
        assert!(tx.can_prepend(8), "clone at the same offset is harmless");
        tx.prepend(2).unwrap().copy_from_slice(b"hh");
        assert_eq!(app.len(), 4, "application view is untouched");
        assert!(tx.same_storage(&app));
    }

    #[test]
    fn prepend_is_refused_when_a_lower_view_is_live() {
        // A device still holds the full framed packet; prepending again
        // (e.g. a retransmission) would overwrite bytes under its feet.
        let mut tx = DemiBuffer::zeroed_with_headroom(8, 4);
        tx.prepend(4).unwrap(); // now views [4, 12)
        let device = tx.clone(); // device holds the framed view
        let mut payload = tx.clone();
        payload.trim_front(4); // back to the payload view [8, 12)
        assert!(!payload.can_prepend(1));
        assert_eq!(payload.prepend(1), Err(HeadroomError::Shared));
        drop(device);
        drop(tx);
        assert!(
            payload.can_prepend(4),
            "headroom reusable after device drop"
        );
        assert!(payload.prepend(4).is_ok());
    }

    #[test]
    fn trim_front_turns_bytes_into_headroom() {
        let mut b = DemiBuffer::from_slice(b"hdrpayload");
        assert_eq!(b.headroom(), 0);
        b.trim_front(3);
        assert_eq!(b.as_slice(), b"payload");
        assert_eq!(b.headroom(), 3);
        // The trimmed header bytes are reusable as headroom.
        b.prepend(3).unwrap().copy_from_slice(b"new");
        assert_eq!(b.as_slice(), b"newpayload");
    }

    #[test]
    fn split_off_shares_storage() {
        let mut b = DemiBuffer::from_slice(b"headtail");
        let tail = b.split_off(4);
        assert_eq!(b.as_slice(), b"head");
        assert_eq!(tail.as_slice(), b"tail");
        assert!(b.same_storage(&tail));
        assert_eq!(tail.headroom(), 4);
    }

    #[test]
    #[should_panic(expected = "split_off beyond view")]
    fn split_off_out_of_bounds_panics() {
        let mut b = DemiBuffer::from_slice(b"ab");
        let _ = b.split_off(3);
    }

    #[test]
    fn copy_with_headroom_is_a_counted_fallback() {
        let src = DemiBuffer::from_slice(b"payload");
        let before = counters::snapshot();
        let mut copy = src.copy_with_headroom(16);
        let delta = counters::snapshot().delta(&before);
        assert_eq!(copy.as_slice(), b"payload");
        assert_eq!(copy.headroom(), 16);
        assert!(!copy.same_storage(&src));
        assert_eq!(delta.allocs, 1);
        assert_eq!(delta.copies, 1);
        assert_eq!(delta.bytes_copied, 7);
        assert!(copy.prepend(16).is_ok());
    }

    #[test]
    fn empty_buffers_count_nothing() {
        let before = counters::snapshot();
        let e = DemiBuffer::empty();
        let delta = counters::snapshot().delta(&before);
        assert!(e.is_empty());
        assert_eq!(delta.allocs, 0);
        assert_eq!(delta.copies, 0);
    }

    #[test]
    fn from_vec_counts_alloc_but_not_copy() {
        let before = counters::snapshot();
        let b = DemiBuffer::from(vec![1u8, 2, 3]);
        let delta = counters::snapshot().delta(&before);
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert_eq!(delta.allocs, 1);
        assert_eq!(delta.bytes_copied, 0);
    }

    #[test]
    fn buffers_are_stamped_with_the_allocating_tenant() {
        let host = DemiBuffer::from_slice(b"host");
        assert_eq!(host.tenant(), TenantId::HOST);
        let t = TenantId(7);
        let owned = demi_tenant::scope(t, || DemiBuffer::from_slice(b"mine"));
        assert_eq!(owned.tenant(), t);
        // Empty buffers share storage and stay host-stamped regardless
        // of who constructs them.
        let e = demi_tenant::scope(t, DemiBuffer::empty);
        assert_eq!(e.tenant(), TenantId::HOST);
    }

    #[test]
    fn cross_tenant_views_are_denied_and_counted() {
        let owner = TenantId(1);
        let thief = TenantId(2);
        let buf = demi_tenant::scope(owner, || DemiBuffer::from_slice(b"secret"));
        let before = demi_tenant::counters::snapshot();
        demi_tenant::scope(thief, || {
            let denial = buf.try_clone().unwrap_err();
            assert_eq!((denial.owner, denial.accessor), (owner, thief));
            assert!(buf.try_slice(0, 3).is_err());
            let mut handle = demi_tenant::scope(owner, || buf.try_clone().unwrap());
            assert!(handle.try_mut().is_none(), "foreign mutation denied");
            assert_eq!(
                handle.prepend(0),
                Err(HeadroomError::ForeignTenant(CrossTenantAccess {
                    owner,
                    accessor: thief
                }))
            );
        });
        let d = demi_tenant::counters::snapshot().delta(&before);
        assert!(d.cross_tenant_denials >= 4, "every denial is counted");
        // The owner and the host supervisor still have full access.
        demi_tenant::scope(owner, || assert!(buf.try_clone().is_ok()));
        assert!(buf.try_clone().is_ok(), "ambient host may access");
        assert_eq!(buf.handle_count(), 1, "no foreign handle leaked");
    }

    #[test]
    #[should_panic(expected = "cross-tenant clone is a protection violation")]
    fn cross_tenant_clone_is_a_hard_error() {
        let buf = demi_tenant::scope(TenantId(1), || DemiBuffer::from_slice(b"x"));
        demi_tenant::scope(TenantId(2), || {
            let _ = buf.clone();
        });
    }

    #[test]
    fn retag_transfers_ownership_to_a_tenant() {
        let buf = DemiBuffer::from_slice(b"rx frame");
        let t = TenantId(4);
        buf.retag(t); // Host attributes the frame to the flow's tenant.
        assert_eq!(buf.tenant(), t);
        demi_tenant::scope(t, || assert!(buf.try_clone().is_ok()));
        demi_tenant::scope(TenantId(5), || assert!(buf.try_clone().is_err()));
    }

    #[test]
    fn copy_with_headroom_inherits_the_owner_stamp() {
        let t = TenantId(3);
        let src = demi_tenant::scope(t, || DemiBuffer::from_slice(b"payload"));
        // The host stack performs the counted copy on the tenant's
        // behalf; attribution must follow the bytes.
        let copy = src.copy_with_headroom(16);
        assert_eq!(copy.tenant(), t);
    }

    #[test]
    fn view_registry_tracks_slices_and_drops() {
        let a = DemiBuffer::from_slice(b"0123456789");
        let low = a.slice(0, 2);
        let mut high = a.slice(4, 10);
        high.trim_front(2); // views [6, 10)
        drop(a);
        assert!(!high.can_prepend(1), "`low` still views offset 0");
        drop(low);
        assert!(high.can_prepend(6), "all lower views gone");
    }
}

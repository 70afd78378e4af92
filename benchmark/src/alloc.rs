//! The ledger's allocation meter: a counting global allocator with
//! per-thread counters.
//!
//! Counters are thread-local (const-initialised `Cell`s, so reading them
//! inside the allocator never allocates and never runs a lazy
//! initialiser): "allocations in this window" means *this thread's*
//! window, whatever else the process is doing. The meter is on in every
//! run — traced or not — so its (small, constant) cost is part of every
//! number the ledger reports rather than a difference between runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed for every binary linking this crate.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Signed: a thread may free what another thread allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note_alloc(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is tearing its
    // locals down; losing those few counts is fine, panicking is not.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes as i64;
        live.set(now);
        let _ = PEAK.try_with(|p| {
            if now > p.get() {
                p.set(now);
            }
        });
    });
}

fn note_free(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as i64));
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the bookkeeping around the calls touches only thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of this thread's heap counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// Allocation calls (alloc, alloc_zeroed, realloc) so far.
    pub allocs: u64,
    /// Bytes currently allocated and not yet freed.
    pub live: i64,
    /// Highest `live` seen since the last [`reset_peak`].
    pub peak: i64,
}

/// This thread's counters right now.
pub fn snapshot() -> HeapSnapshot {
    HeapSnapshot {
        allocs: ALLOCS.with(Cell::get),
        live: LIVE.with(Cell::get),
        peak: PEAK.with(Cell::get),
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.with(|p| p.set(LIVE.with(Cell::get)));
}

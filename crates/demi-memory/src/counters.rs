//! Datapath allocation/copy accounting.
//!
//! The paper's zero-copy claim (§3.2) is only honest if the stack's *own*
//! allocations and copies are counted, not just the application's. Every
//! `DemiBuffer` constructor that allocates notes an allocation here, and
//! every operation that moves payload bytes (`from_slice`, `to_vec`, the
//! `copy_with_headroom` fallback, device-level `alloc_from` helpers)
//! notes a copy — so a test can assert "one pool allocation, zero payload
//! copies per packet" instead of merely printing it.
//!
//! A buffer has no owning object a reader could ask, so these are a
//! thread-local family (`demi_telemetry::counter_family!`): each thread —
//! each shard world, under thread-per-shard execution — counts its own
//! buffers, totals only grow, and a consumer takes the saturating `delta`
//! of two `snapshot()`s around its window.

demi_telemetry::counter_family! {
    /// A point-in-time reading of the datapath counters.
    pub struct DatapathSnapshot {
        /// Buffer allocations: pool allocations (warm or cold) plus unpooled
        /// `DemiBuffer` constructions. Handle clones and slices never count.
        pub allocs: u64 => note_alloc,
        /// Payload copy operations (a `memcpy` of buffer contents).
        pub copies: u64,
        /// Total bytes moved by those copies.
        pub bytes_copied: u64,
    }
    /// This thread's datapath counter totals.
    pub fn snapshot();
}

/// Records one payload copy of `bytes` bytes. Zero-byte copies (empty
/// control payloads) are not counted.
pub fn note_copy(bytes: usize) {
    if bytes == 0 {
        return;
    }
    DatapathSnapshot::update(|s| {
        s.copies += 1;
        s.bytes_copied += bytes as u64;
    });
}

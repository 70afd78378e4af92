//! Lock-free host-wide port-space ownership.
//!
//! Under thread-per-shard execution the shards of one logical host live on
//! different OS threads, but they still share one port namespace: an
//! ephemeral port handed to a TCP connection or UDP socket on shard 2 must
//! never be handed to another on shard 0, and a listener must be able to replicate
//! onto every shard (SO_REUSEPORT-style) without any shard's exclusive
//! claim racing it.
//!
//! Port allocation is a request/response exchange, not a stream — pushing
//! it through the cross-shard message rings would make `connect` block on
//! a round-trip through the peer's poll loop. Instead the namespace itself
//! is a shared lock-free structure (the one piece of the stack that is):
//!
//! * a 64 Ki-bit **exclusive bitmap** (one `AtomicU64` word per 64 ports)
//!   claimed with `fetch_or` — the thread that flips the bit owns the
//!   port, no CAS loop;
//! * a one-byte **listener refcount** per port, so the same listening port
//!   can be acquired once per shard world (up to 255) and released
//!   symmetrically;
//! * a shared **ephemeral cursor** bumped with `fetch_add`, so concurrent
//!   allocators start probing from different offsets instead of
//!   contending on the same candidate.
//!
//! Single-thread mode uses exactly the same allocator (uncontended); there
//! is no separate code path to drift.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// First port of the ephemeral range.
pub(crate) const EPHEMERAL_BASE: u16 = 32_768;
/// Number of ports in the ephemeral range (`32768..=65535`).
pub(crate) const EPHEMERAL_SPAN: u32 = 65_536 - EPHEMERAL_BASE as u32;

/// Host-wide port namespace (TCP ports and UDP ephemeral ports), safe to
/// share across shard threads.
pub struct PortAllocator {
    /// One bit per port: set while the port is exclusively claimed (a
    /// connection's local port).
    exclusive: Box<[AtomicU64]>,
    /// Per-port listener refcount: one count per shard world currently
    /// listening, at most 255. Listeners and exclusive claims are mutually
    /// exclusive.
    listeners: Box<[AtomicU8]>,
    /// Next ephemeral probe offset (wraps over [`EPHEMERAL_SPAN`]).
    cursor: AtomicU32,
}

impl Default for PortAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl PortAllocator {
    /// Creates an empty namespace.
    pub fn new() -> Self {
        PortAllocator {
            exclusive: (0..1024).map(|_| AtomicU64::new(0)).collect(),
            listeners: (0..65_536).map(|_| AtomicU8::new(0)).collect(),
            cursor: AtomicU32::new(0),
        }
    }

    #[inline]
    fn word_bit(port: u16) -> (usize, u64) {
        ((port as usize) / 64, 1u64 << (port as usize % 64))
    }

    /// True while `port` is exclusively claimed by a connection.
    pub fn is_claimed(&self, port: u16) -> bool {
        let (w, b) = Self::word_bit(port);
        self.exclusive[w].load(Ordering::Acquire) & b != 0
    }

    /// True while at least one shard world listens on `port`.
    pub(crate) fn is_listened(&self, port: u16) -> bool {
        self.listeners[port as usize].load(Ordering::Acquire) != 0
    }

    /// Claims `port` exclusively (a connection's local port). Fails if it
    /// is already claimed or any world listens on it.
    pub(crate) fn claim_exclusive(&self, port: u16) -> bool {
        if self.is_listened(port) {
            return false;
        }
        let (w, b) = Self::word_bit(port);
        if self.exclusive[w].fetch_or(b, Ordering::AcqRel) & b != 0 {
            return false; // someone else already held the bit
        }
        // A listener may have slipped in between the check and the claim;
        // back out rather than shadow it.
        if self.is_listened(port) {
            self.release(port);
            return false;
        }
        true
    }

    /// Releases an exclusive claim.
    pub(crate) fn release(&self, port: u16) {
        let (w, b) = Self::word_bit(port);
        self.exclusive[w].fetch_and(!b, Ordering::AcqRel);
    }

    /// Acquires one listener reference on `port` (one per shard world).
    /// Fails if a connection exclusively claims the port, or if 255 worlds
    /// already listen on it.
    pub(crate) fn listen_acquire(&self, port: u16) -> bool {
        let count = &self.listeners[port as usize];
        if count
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_add(1))
            .is_err()
        {
            return false;
        }
        if self.is_claimed(port) {
            count.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        true
    }

    /// Drops one listener reference on `port`.
    pub(crate) fn listen_release(&self, port: u16) {
        let prev = self.listeners[port as usize].fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "listen_release without matching acquire");
    }

    /// Allocates a free ephemeral port.
    pub fn alloc_ephemeral(&self) -> Option<u16> {
        self.alloc_ephemeral_where(|_| true)
    }

    /// Allocates a free ephemeral port satisfying `pred` (e.g. "this
    /// port's flow hashes home to my shard"). Probes the whole range once;
    /// `None` means exhaustion under that predicate.
    pub(crate) fn alloc_ephemeral_where(&self, pred: impl Fn(u16) -> bool) -> Option<u16> {
        for _ in 0..EPHEMERAL_SPAN {
            let off = self.cursor.fetch_add(1, Ordering::Relaxed) % EPHEMERAL_SPAN;
            let candidate = EPHEMERAL_BASE + off as u16;
            if pred(candidate) && self.claim_exclusive(candidate) {
                return Some(candidate);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exclusive_claims_are_exclusive() {
        let p = PortAllocator::new();
        assert!(p.claim_exclusive(40_000));
        assert!(!p.claim_exclusive(40_000));
        assert!(p.is_claimed(40_000));
        p.release(40_000);
        assert!(!p.is_claimed(40_000));
        assert!(p.claim_exclusive(40_000));
    }

    #[test]
    fn listeners_refcount_and_block_claims() {
        let p = PortAllocator::new();
        assert!(p.listen_acquire(7));
        assert!(p.listen_acquire(7)); // second shard world
        assert!(!p.claim_exclusive(7));
        p.listen_release(7);
        assert!(!p.claim_exclusive(7)); // still one listener left
        p.listen_release(7);
        assert!(p.claim_exclusive(7));
        assert!(!p.listen_acquire(7)); // claimed port can't be listened
    }

    #[test]
    fn a_256th_listener_is_refused_without_wrapping() {
        let p = PortAllocator::new();
        for _ in 0..255 {
            assert!(p.listen_acquire(80));
        }
        assert!(!p.listen_acquire(80), "the count is full");
        assert!(!p.claim_exclusive(80), "the refusal left 255 listeners");
        for _ in 0..255 {
            p.listen_release(80);
        }
        assert!(p.claim_exclusive(80));
    }

    #[test]
    fn ephemeral_respects_predicate_and_exhausts() {
        let p = PortAllocator::new();
        let port = p.alloc_ephemeral_where(|c| c % 4 == 1).unwrap();
        assert_eq!(port % 4, 1);
        assert!(p.is_claimed(port));
        assert!(p.alloc_ephemeral_where(|_| false).is_none());
    }

    #[test]
    fn concurrent_allocations_never_collide() {
        let p = Arc::new(PortAllocator::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                (0..500)
                    .map(|_| p.alloc_ephemeral().expect("range is large enough"))
                    .collect::<Vec<u16>>()
            }));
        }
        let mut all: Vec<u16> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "two threads were handed the same port");
    }
}

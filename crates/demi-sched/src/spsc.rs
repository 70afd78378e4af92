//! Bounded lock-free single-producer/single-consumer ring.
//!
//! This is the shard boundary primitive for thread-per-shard execution:
//! each pair of shards is connected by two of these rings (one per
//! direction), and every cross-shard message — a steering-mismatch frame
//! handoff, an ARP learn broadcast — travels through one. The design
//! follows the classic cache-friendly SPSC layout (Lamport queue with
//! cached peer indices, as popularized by DPDK's `rte_ring` SP/SC mode
//! and `folly::ProducerConsumerQueue`):
//!
//! * one atomic `head` (consumer position) and one atomic `tail`
//!   (producer position), each on its own cache line so the producer and
//!   consumer never false-share;
//! * each side keeps a *cached* copy of the other side's index and only
//!   re-reads the shared atomic when the cache says the ring looks full
//!   (producer) or empty (consumer) — the common-case push/pop touches a
//!   single shared cache line;
//! * capacity is rounded up to a power of two so slot indexing is a mask,
//!   not a modulo.
//!
//! The ring is *bounded by construction*: `try_push` fails rather than
//! allocates, which is what lets the stack attach backpressure counters
//! (`handoff_backpressure` / `handoff_dropped`) instead of growing an
//! unbounded `VecDeque` until memory runs out.
//!
//! Memory ordering: the producer publishes a slot with a `Release` store
//! of `tail`; the consumer observes it with an `Acquire` load, which
//! makes the slot write happen-before the pop. Symmetrically for `head`
//! when the consumer frees a slot. This is the minimal ordering for a
//! correct SPSC queue; there are no CAS loops anywhere.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads an atomic index to a cache line so `head` and `tail` (and their
/// per-side caches) never share one.
#[repr(align(128))]
struct CachePadded<T>(T);

struct Shared<T> {
    /// Slot storage; length is a power of two.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `slots.len() - 1`, used as an index mask.
    mask: usize,
    /// Next slot the consumer will pop (monotonically increasing; only
    /// masked when indexing).
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will fill.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the ring hands each slot to exactly one side at a time — the
// producer owns slots in `[tail, head + capacity)` and the consumer owns
// `[head, tail)` — with Release/Acquire edges on the index that transfers
// ownership. `T: Send` is required because values move across threads.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both handles are gone; drop any items still in flight.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = &self.slots[i & self.mask];
            // SAFETY: slots in [head, tail) hold initialized values that
            // were never popped.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

/// The sending half of a bounded SPSC ring. Not cloneable: exactly one
/// producer exists per ring.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Producer's private copy of its own index (avoids an atomic RMW).
    tail: usize,
    /// Cached consumer index; refreshed only when the ring looks full.
    cached_head: usize,
}

/// The receiving half of a bounded SPSC ring. Not cloneable: exactly one
/// consumer exists per ring.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Consumer's private copy of its own index.
    head: usize,
    /// Cached producer index; refreshed only when the ring looks empty.
    cached_tail: usize,
}

// SAFETY: each half is used by one thread at a time; sending the *half*
// to another thread is the whole point. `T: Send` flows from Shared.
unsafe impl<T: Send> Send for Producer<T> {}
unsafe impl<T: Send> Send for Consumer<T> {}

/// Creates a bounded SPSC ring holding at least `capacity` items
/// (rounded up to the next power of two, minimum 2).
pub fn channel<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        slots,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            cached_head: 0,
        },
        Consumer {
            shared,
            head: 0,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Attempts to enqueue `value`; returns it back if the ring is full.
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let cap = self.shared.mask + 1;
        if self.tail - self.cached_head == cap {
            // Looks full through the cache; refresh from the consumer.
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
            if self.tail - self.cached_head == cap {
                return Err(value);
            }
        }
        let slot = &self.shared.slots[self.tail & self.shared.mask];
        // SAFETY: `[tail, head + cap)` slots belong to the producer; this
        // one is unoccupied (popped or never filled).
        unsafe { (*slot.get()).write(value) };
        self.tail += 1;
        self.shared.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Number of items currently enqueued (racy under concurrency; exact
    /// when the consumer is quiescent).
    pub fn len(&self) -> usize {
        self.tail - self.shared.head.0.load(Ordering::Acquire)
    }

    /// True when the ring holds no items (subject to the same race as
    /// [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }
}

impl<T> Consumer<T> {
    /// Attempts to dequeue the oldest item; `None` when the ring is empty.
    pub fn try_pop(&mut self) -> Option<T> {
        if self.head == self.cached_tail {
            // Looks empty through the cache; refresh from the producer.
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
            if self.head == self.cached_tail {
                return None;
            }
        }
        let slot = &self.shared.slots[self.head & self.shared.mask];
        // SAFETY: `[head, tail)` slots hold initialized values owned by
        // the consumer; the Acquire load of `tail` ordered the write.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.head += 1;
        self.shared.head.0.store(self.head, Ordering::Release);
        Some(value)
    }

    /// Number of items currently enqueued (racy under concurrency).
    pub fn len(&self) -> usize {
        self.shared.tail.0.load(Ordering::Acquire) - self.head
    }

    /// True when the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (p, _c) = channel::<u32>(5);
        assert_eq!(p.capacity(), 8);
        let (p, _c) = channel::<u32>(0);
        assert_eq!(p.capacity(), 2);
        let (p, _c) = channel::<u32>(16);
        assert_eq!(p.capacity(), 16);
    }

    #[test]
    fn fifo_and_full_empty() {
        let (mut p, mut c) = channel::<u32>(4);
        assert!(c.try_pop().is_none());
        assert!(p.is_empty());
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        assert_eq!(p.len(), p.capacity());
        assert_eq!(p.try_push(99), Err(99));
        for i in 0..4 {
            assert_eq!(c.try_pop(), Some(i));
        }
        assert!(c.try_pop().is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn wraparound_many_times() {
        // Push/pop far more items than the capacity so the indices wrap
        // the mask repeatedly (and, with a tiny ring, exercise the cached
        // index refresh on both sides).
        let (mut p, mut c) = channel::<u64>(2);
        let mut next_out = 0u64;
        for i in 0..10_000u64 {
            while p.try_push(i).is_err() {
                assert_eq!(c.try_pop(), Some(next_out));
                next_out += 1;
            }
        }
        while let Some(v) = c.try_pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, 10_000);
    }

    #[test]
    fn drops_in_flight_items() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut p, mut c) = channel::<Counted>(8);
        for _ in 0..5 {
            p.try_push(Counted).unwrap();
        }
        drop(c.try_pop()); // one popped and dropped by us
        drop(p);
        drop(c); // four still in flight, dropped by the ring
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn cross_thread_fifo_stress() {
        // One real producer thread, one real consumer thread, a ring far
        // smaller than the item count: every item must arrive exactly
        // once, in order, with payload intact. Runs long enough to give
        // the Release/Acquire edges a real workout under preemption.
        const ITEMS: u64 = 50_000;
        let (mut p, mut c) = channel::<(u64, u64)>(64);
        let producer = std::thread::spawn(move || {
            let mut x = 0x9e3779b97f4a7c15u64; // seeded payload generator
            for i in 0..ITEMS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let mut item = (i, x);
                loop {
                    match p.try_push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut expect = 0u64;
        while expect < ITEMS {
            if let Some((i, payload)) = c.try_pop() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                assert_eq!(i, expect, "items out of order");
                assert_eq!(payload, x, "payload corrupted in slot");
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        assert!(c.try_pop().is_none());
        producer.join().unwrap();
    }
}

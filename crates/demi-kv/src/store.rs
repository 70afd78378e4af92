//! The live store: byte-budgeted LRU eviction and TTL expiry in the
//! serving path.
//!
//! * Entries live in a slab (`Vec<Slot>` + free list) threaded by an
//!   intrusive doubly-linked LRU list — touch, insert, and evict are all
//!   O(1), no per-op allocation once the slab is warm.
//! * Values are [`DemiBuffer`] handles: a SET stores the RX view the
//!   argument arrived in (zero-copy end to end), and a GET hands back a
//!   cloned handle that the reply path ships without copying.
//! * TTLs ride the hierarchical [`TimerWheel`] (PR 4): scheduling is
//!   O(1), idle keys cost nothing per tick, and cancellation is lazy via
//!   per-slot generations — exactly the discipline the TCP timers use.
//!   Expiry is *also* checked lazily on access, so a key whose deadline
//!   passed between wheel advances can never be served stale.
//! * Every removal — SET overwrite, DEL, eviction, expiry — funnels
//!   through one path that notifies the optional [`CacheMirror`], so a
//!   device-resident replica (the PR 7 NIC GET cache) can never disagree
//!   with the host about which keys are live.

use std::collections::HashMap;

use demi_memory::DemiBuffer;
use net_stack::tcp::wheel::TimerWheel;
use sim_fabric::SimTime;

/// A secondary cache kept write-through-coherent with the store: the
/// NIC-resident KV GET cache in production, a counting probe in tests.
pub trait CacheMirror {
    /// Publish a key/value (host served a GET miss; device may cache it).
    /// `false` means the mirror declined (no offload installed, entry too
    /// large) — the host simply keeps serving the key.
    fn insert(&mut self, key: &[u8], value: &[u8]) -> bool;
    /// The key's cached value (if any) is no longer valid.
    fn invalidate(&mut self, key: &[u8]);
}

/// Store observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStats {
    /// GETs served from a live entry.
    pub hits: u64,
    /// GETs for missing (or just-expired) keys.
    pub misses: u64,
    /// Successful SETs.
    pub sets: u64,
    /// Successful DELs.
    pub dels: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries removed by TTL (wheel-fired or lazily on access).
    pub expirations: u64,
}

/// Why a SET was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetError {
    /// key+value alone exceed the byte budget; admitting it would evict
    /// the entire store and still not fit.
    TooLarge,
}

/// TTL query result (Redis `PTTL` semantics, in virtual nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ttl {
    /// No such key.
    Missing,
    /// Key exists and never expires.
    NoExpiry,
    /// Key expires this many nanoseconds from `now`.
    RemainingNs(u64),
}

const NIL: u32 = u32::MAX;

struct Slot {
    key: Box<[u8]>,
    value: DemiBuffer,
    expire_at: Option<SimTime>,
    /// Bumped whenever the slot's schedule changes (or the slot is
    /// freed), abandoning any wheel entry carrying an older generation.
    generation: u32,
    live: bool,
    prev: u32,
    next: u32,
}

impl Slot {
    fn vacant() -> Self {
        Slot {
            key: Box::default(),
            value: DemiBuffer::empty(),
            expire_at: None,
            generation: 0,
            live: false,
            prev: NIL,
            next: NIL,
        }
    }
}

/// The store. All operations take `now` explicitly — the store has no
/// clock of its own, which is what lets the differential proptest drive
/// it on synthetic time.
pub struct KvStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    index: HashMap<Box<[u8]>, u32>,
    /// Most-recently-used slot.
    head: u32,
    /// Least-recently-used slot (eviction victim).
    tail: u32,
    bytes: usize,
    budget: usize,
    wheel: TimerWheel<u64>,
    fired: Vec<(SimTime, u64)>,
    mirror: Option<Box<dyn CacheMirror>>,
    stats: KvStats,
}

fn pack(slot: u32, generation: u32) -> u64 {
    ((slot as u64) << 32) | generation as u64
}

fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

impl KvStore {
    /// An empty store holding at most `budget` bytes of keys+values,
    /// whose TTL wheel starts at `start`.
    pub fn new(budget: usize, start: SimTime) -> Self {
        KvStore {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            budget,
            wheel: TimerWheel::new(start),
            fired: Vec::new(),
            mirror: None,
            stats: KvStats::default(),
        }
    }

    /// Attaches the write-through mirror every removal will notify.
    pub fn set_mirror(&mut self, mirror: Box<dyn CacheMirror>) {
        self.mirror = Some(mirror);
    }

    /// Publishes `key`'s live value into the mirror (insert-after-miss:
    /// call after the host served a GET the device could not).
    pub fn publish_to_mirror(&mut self, key: &[u8]) -> bool {
        if self.mirror.is_none() {
            return false;
        }
        let Some(&slot) = self.index.get(key) else {
            return false;
        };
        let value = self.slots[slot as usize].value.clone();
        match &mut self.mirror {
            Some(m) => m.insert(key, value.as_slice()),
            None => unreachable!("checked above"),
        }
    }

    /// Store counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Looks up `key`. A live entry is touched to MRU and its value
    /// handle cloned out (zero-copy). An entry whose deadline already
    /// passed is removed here — lazy expiry — and reported as a miss.
    pub fn get(&mut self, key: &[u8], now: SimTime) -> Option<DemiBuffer> {
        let Some(&slot) = self.index.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        if self.slot_expired(slot, now) {
            self.remove_slot(slot, RemovalCause::Expired);
            self.stats.misses += 1;
            return None;
        }
        self.touch(slot);
        self.stats.hits += 1;
        Some(self.slots[slot as usize].value.clone())
    }

    /// Inserts or replaces `key`. The value handle is stored as-is (the
    /// Redis discipline: a new buffer per SET, never an in-place update —
    /// in-flight replies keep their old handle alive safely). Evicts LRU
    /// entries until the byte budget holds.
    pub fn set(
        &mut self,
        key: &[u8],
        value: DemiBuffer,
        expire_at: Option<SimTime>,
        now: SimTime,
    ) -> Result<(), SetError> {
        let entry_bytes = key.len() + value.len();
        if entry_bytes > self.budget {
            return Err(SetError::TooLarge);
        }
        if let Some(&slot) = self.index.get(key) {
            // Overwrite in place (slot and index survive; value swaps).
            let s = &mut self.slots[slot as usize];
            self.bytes -= s.key.len() + s.value.len();
            self.bytes += entry_bytes;
            s.value = value;
            s.generation = s.generation.wrapping_add(1);
            s.expire_at = expire_at;
            if let Some(at) = expire_at {
                self.wheel
                    .schedule(at, pack(slot, self.slots[slot as usize].generation));
            }
            self.touch(slot);
        } else {
            let slot = self.alloc_slot();
            let s = &mut self.slots[slot as usize];
            s.key = key.to_vec().into_boxed_slice();
            s.value = value;
            s.expire_at = expire_at;
            s.live = true;
            let generation = s.generation;
            self.index.insert(key.to_vec().into_boxed_slice(), slot);
            self.bytes += entry_bytes;
            self.link_front(slot);
            if let Some(at) = expire_at {
                self.wheel.schedule(at, pack(slot, generation));
            }
        }
        // A replaced value may be newer than what a device cache holds.
        if let Some(m) = &mut self.mirror {
            m.invalidate(key);
        }
        self.stats.sets += 1;
        // Evict from the cold end until the budget holds. The entry just
        // touched is at MRU, so it is never its own victim (entry_bytes
        // <= budget was checked above).
        while self.bytes > self.budget {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "over budget implies a victim exists");
            self.remove_slot(victim, RemovalCause::Evicted);
        }
        let _ = now;
        Ok(())
    }

    /// Removes `key`; `true` if it was live.
    pub fn del(&mut self, key: &[u8], now: SimTime) -> bool {
        let Some(&slot) = self.index.get(key) else {
            return false;
        };
        if self.slot_expired(slot, now) {
            self.remove_slot(slot, RemovalCause::Expired);
            return false;
        }
        self.remove_slot(slot, RemovalCause::Deleted);
        self.stats.dels += 1;
        true
    }

    /// Sets `key`'s deadline; `false` if the key is missing (or already
    /// past its previous deadline).
    pub(crate) fn expire(&mut self, key: &[u8], at: SimTime, now: SimTime) -> bool {
        let Some(&slot) = self.index.get(key) else {
            return false;
        };
        if self.slot_expired(slot, now) {
            self.remove_slot(slot, RemovalCause::Expired);
            return false;
        }
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        s.expire_at = Some(at);
        let generation = s.generation;
        self.wheel.schedule(at, pack(slot, generation));
        true
    }

    /// `key`'s remaining lifetime.
    pub(crate) fn ttl(&mut self, key: &[u8], now: SimTime) -> Ttl {
        let Some(&slot) = self.index.get(key) else {
            return Ttl::Missing;
        };
        if self.slot_expired(slot, now) {
            self.remove_slot(slot, RemovalCause::Expired);
            return Ttl::Missing;
        }
        match self.slots[slot as usize].expire_at {
            None => Ttl::NoExpiry,
            Some(at) => Ttl::RemainingNs(at.as_nanos() - now.as_nanos()),
        }
    }

    /// Advances the TTL wheel to `now`, removing every entry whose
    /// deadline passed — in deadline order, ties in schedule order (the
    /// wheel's guarantee), so expiry-driven mirror invalidations are
    /// deterministic.
    pub(crate) fn advance(&mut self, now: SimTime) {
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.wheel.advance_into(now, &mut fired);
        for &(deadline, packed) in &fired {
            let (slot, generation) = unpack(packed);
            let Some(s) = self.slots.get(slot as usize) else {
                continue;
            };
            // Stale entries (rescheduled, overwritten, or freed slots)
            // were abandoned by a generation bump: skip them.
            if !s.live || s.generation != generation || s.expire_at != Some(deadline) {
                continue;
            }
            self.remove_slot(slot, RemovalCause::Expired);
        }
        self.fired = fired;
    }

    /// Copies out every live (non-expired) entry — recovery verification
    /// and tests; not a datapath.
    pub fn dump(&self, now: SimTime) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = self
            .index
            .values()
            .map(|&slot| &self.slots[slot as usize])
            .filter(|s| s.expire_at.is_none_or(|at| at > now))
            .map(|s| (s.key.to_vec(), s.value.as_slice().to_vec()))
            .collect();
        out.sort();
        out
    }

    fn slot_expired(&self, slot: u32, now: SimTime) -> bool {
        self.slots[slot as usize]
            .expire_at
            .is_some_and(|at| at <= now)
    }

    fn alloc_slot(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        self.slots.push(Slot::vacant());
        (self.slots.len() - 1) as u32
    }

    /// Unlinks `slot` from the LRU list and relinks it at MRU.
    fn touch(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.link_front(slot);
    }

    fn link_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn remove_slot(&mut self, slot: u32, cause: RemovalCause) {
        self.unlink(slot);
        let key;
        {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.live, "removing a vacant slot");
            key = std::mem::take(&mut s.key);
            self.bytes -= key.len() + s.value.len();
            s.value = DemiBuffer::empty();
            s.expire_at = None;
            s.generation = s.generation.wrapping_add(1);
            s.live = false;
            s.prev = NIL;
            s.next = NIL;
        }
        self.index.remove(&key);
        self.free.push(slot);
        match cause {
            RemovalCause::Evicted => self.stats.evictions += 1,
            RemovalCause::Expired => self.stats.expirations += 1,
            RemovalCause::Deleted => {}
        }
        // Whatever the cause, a device replica must stop serving the key:
        // host-side eviction and expiry are invisible to a NIC that only
        // observes the byte stream, so the doorbell is explicit.
        if let Some(m) = &mut self.mirror {
            m.invalidate(&key);
        }
    }
}

#[derive(Clone, Copy)]
enum RemovalCause {
    Evicted,
    Expired,
    Deleted,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl KvStore {
        /// Live entries.
        pub(crate) fn len(&self) -> usize {
            self.index.len()
        }

        /// Whether the store holds no entries.
        fn is_empty(&self) -> bool {
            self.index.is_empty()
        }

        /// Resident key+value bytes.
        pub(crate) fn bytes(&self) -> usize {
            self.bytes
        }

        /// The earliest live TTL deadline, if any (feed the event loop's
        /// timer). Stale wheel entries encountered are discarded.
        pub(crate) fn next_deadline(&mut self) -> Option<SimTime> {
            let slots = &self.slots;
            self.wheel.peek_earliest_live(|&packed| {
                let (slot, generation) = unpack(packed);
                slots
                    .get(slot as usize)
                    .is_some_and(|s| s.live && s.generation == generation)
            })
        }
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn buf(data: &[u8]) -> DemiBuffer {
        DemiBuffer::from(data.to_vec())
    }

    #[test]
    fn get_set_del_roundtrip() {
        let mut s = KvStore::new(1024, SimTime::ZERO);
        assert!(s.get(b"k", t(1)).is_none());
        s.set(b"k", buf(b"v1"), None, t(1)).unwrap();
        assert_eq!(s.get(b"k", t(2)).unwrap().as_slice(), b"v1");
        s.set(b"k", buf(b"v2"), None, t(3)).unwrap();
        assert_eq!(s.get(b"k", t(4)).unwrap().as_slice(), b"v2");
        assert!(s.del(b"k", t(5)));
        assert!(!s.del(b"k", t(5)));
        assert!(s.get(b"k", t(6)).is_none());
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn lru_evicts_coldest_under_byte_pressure() {
        // Each entry: 2-byte key + 8-byte value = 10 bytes. Budget: 3.
        let mut s = KvStore::new(30, SimTime::ZERO);
        s.set(b"k1", buf(b"aaaaaaaa"), None, t(1)).unwrap();
        s.set(b"k2", buf(b"bbbbbbbb"), None, t(2)).unwrap();
        s.set(b"k3", buf(b"cccccccc"), None, t(3)).unwrap();
        // Touch k1 so k2 is coldest.
        assert!(s.get(b"k1", t(4)).is_some());
        s.set(b"k4", buf(b"dddddddd"), None, t(5)).unwrap();
        assert_eq!(s.stats().evictions, 1);
        assert!(s.get(b"k2", t(6)).is_none(), "LRU victim was k2");
        assert!(s.get(b"k1", t(6)).is_some());
        assert!(s.get(b"k3", t(6)).is_some());
        assert!(s.get(b"k4", t(6)).is_some());
        assert!(s.bytes() <= 30);
    }

    #[test]
    fn oversized_entry_is_refused() {
        let mut s = KvStore::new(8, SimTime::ZERO);
        assert_eq!(
            s.set(b"key", buf(b"too-big-for-the-budget"), None, t(1)),
            Err(SetError::TooLarge)
        );
        assert!(s.is_empty());
    }

    #[test]
    fn wheel_and_lazy_expiry_agree() {
        let mut s = KvStore::new(1024, SimTime::ZERO);
        s.set(b"a", buf(b"1"), Some(t(100)), t(0)).unwrap();
        s.set(b"b", buf(b"2"), Some(t(200)), t(0)).unwrap();
        s.set(b"c", buf(b"3"), None, t(0)).unwrap();
        assert_eq!(s.next_deadline(), Some(t(100)));
        // Lazy: reading "a" after its deadline removes it without a tick.
        assert!(s.get(b"a", t(150)).is_none());
        assert_eq!(s.stats().expirations, 1);
        // Wheel: advancing past 200 removes "b".
        s.advance(t(250));
        assert_eq!(s.stats().expirations, 2);
        assert!(s.get(b"b", t(260)).is_none());
        assert!(s.get(b"c", t(260)).is_some());
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn overwrite_reschedules_ttl() {
        let mut s = KvStore::new(1024, SimTime::ZERO);
        s.set(b"k", buf(b"old"), Some(t(100)), t(0)).unwrap();
        // Overwrite with a later deadline: the old wheel entry is stale.
        s.set(b"k", buf(b"new"), Some(t(500)), t(50)).unwrap();
        s.advance(t(200));
        assert_eq!(s.get(b"k", t(210)).unwrap().as_slice(), b"new");
        assert_eq!(s.stats().expirations, 0, "stale entry must not fire");
        s.advance(t(600));
        assert!(s.get(b"k", t(610)).is_none());
        assert_eq!(s.stats().expirations, 1);
    }

    #[test]
    fn expire_and_ttl_queries() {
        let mut s = KvStore::new(1024, SimTime::ZERO);
        s.set(b"k", buf(b"v"), None, t(0)).unwrap();
        assert_eq!(s.ttl(b"k", t(10)), Ttl::NoExpiry);
        assert!(s.expire(b"k", t(1_000), t(10)));
        assert_eq!(s.ttl(b"k", t(400)), Ttl::RemainingNs(600));
        assert_eq!(s.ttl(b"k", t(1_000)), Ttl::Missing, "deadline inclusive");
        assert!(!s.expire(b"missing", t(99), t(10)));
    }

    struct CountingMirror(std::rc::Rc<std::cell::RefCell<(u64, u64)>>);
    impl CacheMirror for CountingMirror {
        fn insert(&mut self, _key: &[u8], _value: &[u8]) -> bool {
            self.0.borrow_mut().0 += 1;
            true
        }
        fn invalidate(&mut self, _key: &[u8]) {
            self.0.borrow_mut().1 += 1;
        }
    }

    #[test]
    fn every_removal_path_notifies_the_mirror() {
        let counts = std::rc::Rc::new(std::cell::RefCell::new((0u64, 0u64)));
        let mut s = KvStore::new(24, SimTime::ZERO);
        s.set_mirror(Box::new(CountingMirror(counts.clone())));
        s.set(b"a", buf(b"0123456789"), None, t(0)).unwrap(); // invalidate 1
        assert!(s.publish_to_mirror(b"a"));
        assert_eq!(counts.borrow().0, 1, "insert-after-miss published");
        s.set(b"b", buf(b"0123456789"), Some(t(50)), t(1)).unwrap(); // invalidate 2
        s.set(b"c", buf(b"0123456789"), None, t(2)).unwrap(); // invalidate 3 + evicts a (4)
        assert_eq!(s.stats().evictions, 1);
        s.advance(t(60)); // b expires: invalidate 5
        assert!(s.del(b"c", t(61))); // invalidate 6
        assert_eq!(counts.borrow().1, 6, "set, set, set+evict, expire, del");
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut s = KvStore::new(1024, SimTime::ZERO);
        for round in 0..4 {
            for i in 0..8u8 {
                s.set(&[b'k', i], buf(b"v"), None, t(round * 10)).unwrap();
            }
            for i in 0..8u8 {
                assert!(s.del(&[b'k', i], t(round * 10 + 5)));
            }
        }
        assert!(
            s.slots.len() <= 8,
            "churn must reuse slots, not grow the slab"
        );
    }
}

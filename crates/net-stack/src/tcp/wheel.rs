//! A hierarchical timing wheel over virtual time.
//!
//! The per-poll timer cost used to be a linear walk over *every* control
//! block (`advance_timers` plus an earliest-deadline scan) — O(resident
//! connections) per poll, which is exactly the serialized-host cost the
//! paper says a bypass-era stack cannot afford. The wheel makes timer work
//! proportional to timers that *fire*: neither advancing nor asking for
//! the earliest deadline ever looks at an empty slot, so an idle or empty
//! wheel costs no slot visit per poll (`ShardSnapshot::timer_buckets_visited`
//! counts them; the tests below, `tests/sharding.rs` and `tests/kv.rs`
//! pin it).
//!
//! Shape: [`LEVELS`] levels of `SLOTS` slots, one `u64` per level
//! recording which of its slots hold anything. Level *k* slots span `64^k`
//! nanosecond ticks, so level 0 resolves single nanoseconds and the whole
//! wheel covers `64^6` ns ≈ 68.7 s; anything further out parks in an
//! overflow list that is re-examined when the top level turns. A slot is
//! swept when the level's cursor passes it: entries that are due fire,
//! entries placed there by a coarser level cascade down to a finer one.
//!
//! Costs: `schedule` is O(1); `advance_into` is one compare while nothing
//! is due ([`TimerWheel::due`]: the cursor simply stays behind until
//! `now` reaches `next_due`, a lower bound on every tracked deadline, and
//! then crosses the whole gap in one sweep), otherwise a mask per level
//! whose cursor moved plus O(occupied slots crossed + their entries);
//! `peek_earliest_live` reads `immediate`, `overflow` and each level's
//! first occupied slot after the cursor. Those slots are in deadline order
//! (a slot is emptied before the cursor passes it, and every entry in one
//! slot shares `deadline >> 6·level`), so the minimum over the ≤
//! [`LEVELS`] + 2 candidates is the exact earliest deadline.
//!
//! Ticks are exact nanoseconds of [`SimTime`], so a fired entry's deadline
//! is *exactly* the scheduled time — no quantization. That exactness is
//! what lets `tests/batching.rs` assert `next_deadline()` equality and the
//! differential test assert firing-time identity against the linear scan.
//!
//! Cancellation is lazy: the owner bumps a generation and simply abandons
//! the entry. A stale entry is discarded when its slot is swept or when a
//! peek examines its slot; the peek moves on to the level's next occupied
//! slot only if that empties this one, so a stale earliest entry never
//! hides the true answer (or a `None`). Abandoned entries *behind* a live
//! one are out of a peek's sight: so that re-arming a far timer forever
//! cannot pile them up, a peek that finds `len` above twice what the last
//! scrub left, plus `SLOTS`, scrubs every occupied slot — amortised O(1)
//! per `schedule`.

use sim_fabric::SimTime;

/// Levels in the hierarchy.
pub const LEVELS: usize = 6;
/// Slots per level (64 = one 6-bit digit of the deadline per level, and
/// one bit of the level's occupancy word).
pub(crate) const SLOTS: usize = 64;
const SLOT_BITS: u32 = 6;

#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    /// Absolute deadline in nanoseconds.
    deadline: u64,
    /// Insertion sequence — ties fire in schedule order, matching the
    /// deterministic order a linear scan over insertion-ordered state sees.
    seq: u64,
    key: T,
}

/// The wheel. `T` identifies a timer to its owner (the owner decides
/// liveness; the wheel only orders and fires).
pub struct TimerWheel<T> {
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Bit `s` of `occupied[k]` is set exactly when `levels[k][s]` is
    /// non-empty.
    occupied: [u64; LEVELS],
    /// Entries scheduled at or before `now` (fire on the next advance).
    immediate: Vec<Entry<T>>,
    /// Entries beyond the wheel horizon.
    overflow: Vec<Entry<T>>,
    /// Reusable buffer for entries swept out of passed slots while
    /// advancing; kept on the wheel so a steady-state advance allocates
    /// nothing once warm.
    cascade_scratch: Vec<Entry<T>>,
    /// The cursor: the last instant the wheel was swept to. It lags the
    /// caller's clock while nothing is due; every slot invariant is relative
    /// to it, so a late sweep is the same sweep.
    now: u64,
    /// Nothing tracked is due before this instant: the earliest deadline
    /// scheduled since the last sweep, the start of the first occupied slot
    /// that sweep left, or the top level's next turn — which keeps the
    /// cursor within one top-level slot (≈1.07 s) of the clock.
    next_due: u64,
    seq: u64,
    len: usize,
    /// `len` as the last whole-wheel scrub left it.
    scrubbed_len: usize,
}

/// Drops the entries of `bucket` that `live` rejects (lowering `len` by
/// the count) and lowers `best` to the earliest deadline kept. Returns
/// whether anything was kept.
fn retain_live<T>(
    bucket: &mut Vec<Entry<T>>,
    len: &mut usize,
    best: &mut Option<u64>,
    live: &mut impl FnMut(&T) -> bool,
) -> bool {
    let before = bucket.len();
    bucket.retain(|e| {
        let keep = live(&e.key);
        if keep && best.is_none_or(|b| e.deadline < b) {
            *best = Some(e.deadline);
        }
        keep
    });
    *len -= before - bucket.len();
    !bucket.is_empty()
}

fn note_buckets_visited(visited: u64) {
    if visited > 0 {
        crate::counters::ShardSnapshot::update(|s| s.timer_buckets_visited += visited);
    }
}

impl<T: Copy> TimerWheel<T> {
    /// An empty wheel whose cursor starts at `start`.
    pub fn new(start: SimTime) -> Self {
        TimerWheel {
            levels: (0..LEVELS).map(|_| vec![Vec::new(); SLOTS]).collect(),
            occupied: [0; LEVELS],
            immediate: Vec::new(),
            overflow: Vec::new(),
            cascade_scratch: Vec::new(),
            now: start.as_nanos(),
            next_due: 0,
            seq: 0,
            len: 0,
            scrubbed_len: 0,
        }
    }

    /// Entries currently tracked (live and abandoned alike).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel tracks no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `key` to fire at `deadline`. O(1).
    pub fn schedule(&mut self, deadline: SimTime, key: T) {
        let entry = Entry {
            deadline: deadline.as_nanos(),
            seq: self.seq,
            key,
        };
        self.seq += 1;
        self.len += 1;
        self.next_due = self.next_due.min(entry.deadline);
        self.place(entry);
    }

    /// Whether [`TimerWheel::advance_into`] at `now` could fire or cascade
    /// anything. O(1); `false` means the advance would be a no-op.
    pub fn due(&self, now: SimTime) -> bool {
        now.as_nanos() >= self.next_due
    }

    /// `level`'s slots in deadline order: the absolute index of the slot
    /// after the cursor, and the occupancy word rotated so that bit `i` is
    /// that slot `+ i`.
    fn ahead(&self, level: usize) -> (u64, u64) {
        let first = (self.now >> (SLOT_BITS * level as u32)) + 1;
        let rotation = (first % SLOTS as u64) as u32;
        (first, self.occupied[level].rotate_right(rotation))
    }

    /// A lower bound on what is still tracked after a sweep to `self.now`
    /// (`immediate` is empty then): per level, the start of the first
    /// occupied slot after the cursor; and the next turn of the top level,
    /// which is when the overflow list is looked at again.
    fn earliest_slot_start(&self) -> u64 {
        let top = SLOT_BITS * (LEVELS as u32 - 1);
        let mut bound = ((self.now >> top) + 1) << top;
        for level in 0..LEVELS {
            let (first, ahead) = self.ahead(level);
            if ahead != 0 {
                let slot = first + ahead.trailing_zeros() as u64;
                bound = bound.min(slot << (SLOT_BITS * level as u32));
            }
        }
        bound
    }

    fn place(&mut self, entry: Entry<T>) {
        if entry.deadline <= self.now {
            self.immediate.push(entry);
            return;
        }
        let distance = entry.deadline - self.now;
        // Smallest level whose span covers the distance: level k covers
        // distances below 64^(k+1) ticks.
        let mut level = 0;
        while level < LEVELS && (distance >> (SLOT_BITS * (level as u32 + 1))) != 0 {
            level += 1;
        }
        if level == LEVELS {
            self.overflow.push(entry);
            return;
        }
        let slot = ((entry.deadline >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level][slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Advances the cursor to `now` and appends everything that fired to
    /// `out` (not cleared), as `(deadline, key)` in (deadline,
    /// schedule-order) order; the caller filters out abandoned entries.
    /// Allocates nothing once `out` and the internal scratch are warm, so
    /// the peer's tick path keeps steady state off the allocator.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) {
        if !self.due(now) {
            return;
        }
        let new = now.as_nanos();
        let old = self.now;
        if new > old {
            self.now = new;
            let mut cascades = std::mem::take(&mut self.cascade_scratch);
            let mut visited = 0;
            for level in 0..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let old_idx = old >> shift;
                let new_idx = new >> shift;
                if new_idx == old_idx {
                    // Finer cursors move at least as fast as coarser ones:
                    // nothing above this level turned either.
                    break;
                }
                // The slots the cursor passed, `old_idx + 1 ..= new_idx`
                // mod 64, as a mask; ≥ 64 steps wraps the whole level.
                let steps = new_idx - old_idx;
                let crossed = if steps >= SLOTS as u64 {
                    u64::MAX
                } else {
                    ((1u64 << steps) - 1).rotate_left(((old_idx + 1) & (SLOTS as u64 - 1)) as u32)
                };
                let mut swept = self.occupied[level] & crossed;
                self.occupied[level] &= !crossed;
                while swept != 0 {
                    cascades.append(&mut self.levels[level][swept.trailing_zeros() as usize]);
                    swept &= swept - 1;
                    visited += 1;
                }
            }
            note_buckets_visited(visited);
            // The overflow list holds entries that were ≥ 64^LEVELS ticks
            // out; re-place them whenever the top level turned.
            if (old >> (SLOT_BITS * (LEVELS as u32 - 1)))
                != (new >> (SLOT_BITS * (LEVELS as u32 - 1)))
            {
                cascades.append(&mut self.overflow);
            }
            // Due entries land in `immediate`; later ones cascade into a
            // finer level relative to the new cursor.
            for entry in cascades.drain(..) {
                self.place(entry);
            }
            self.cascade_scratch = cascades;
        }
        self.len -= self.immediate.len();
        self.immediate.sort_by_key(|e| (e.deadline, e.seq));
        out.extend(
            self.immediate
                .drain(..)
                .map(|e| (SimTime::from_nanos(e.deadline), e.key)),
        );
        self.next_due = self.earliest_slot_start();
    }

    /// The earliest deadline among entries for which `live` returns true.
    /// Dead entries in the slots examined are discarded, so a stale
    /// earliest entry can never mask the true answer (or a `None`).
    pub fn peek_earliest_live(&mut self, mut live: impl FnMut(&T) -> bool) -> Option<SimTime> {
        let scrub = self.len > 2 * self.scrubbed_len + SLOTS;
        let (mut best, mut visited) = (None, 0);
        retain_live(&mut self.immediate, &mut self.len, &mut best, &mut live);
        for level in 0..LEVELS {
            let (first, mut ahead) = self.ahead(level);
            while ahead != 0 {
                let slot = (first + ahead.trailing_zeros() as u64) as usize % SLOTS;
                ahead &= ahead - 1;
                visited += 1;
                let bucket = &mut self.levels[level][slot];
                if !retain_live(bucket, &mut self.len, &mut best, &mut live) {
                    self.occupied[level] &= !(1 << slot);
                } else if !scrub {
                    break;
                }
            }
        }
        note_buckets_visited(visited);
        retain_live(&mut self.overflow, &mut self.len, &mut best, &mut live);
        if scrub {
            self.scrubbed_len = self.len;
        }
        best.map(SimTime::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Copy> TimerWheel<T> {
        /// Advances the cursor to `now` and returns everything that fired, as
        /// `(deadline, key)` in (deadline, schedule-order) order. The caller
        /// filters out abandoned entries.
        fn advance(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
            let mut due = Vec::new();
            self.advance_into(now, &mut due);
            due
        }
    }

    fn t(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    #[test]
    fn fires_in_deadline_order_at_exact_times() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        w.schedule(t(500), 1);
        w.schedule(t(10), 2);
        w.schedule(t(500), 3); // Tie: schedule order.
        w.schedule(t(70_000), 4);
        assert!(w.advance(t(9)).is_empty());
        assert_eq!(w.advance(t(10)), vec![(t(10), 2)]);
        assert_eq!(w.advance(t(600)), vec![(t(500), 1), (t(500), 3)]);
        assert_eq!(w.advance(t(70_000)), vec![(t(70_000), 4)]);
        assert!(w.is_empty());
    }

    #[test]
    fn long_deadlines_cascade_through_levels() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        // One entry per level span, plus one beyond the horizon.
        let deadlines = [63, 64, 4_096, 262_144, 16_777_216, 1_073_741_824, 1 << 40];
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(t(d), i as u32);
        }
        let mut fired = Vec::new();
        let mut now = 0u64;
        while !w.is_empty() {
            now += 30_000_000_000 / 977; // Odd stride exercises partial sweeps.
            fired.extend(w.advance(t(now)));
        }
        let got: Vec<(u64, u32)> = fired.iter().map(|&(d, k)| (d.as_nanos(), k)).collect();
        let want: Vec<(u64, u32)> = deadlines
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u32))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn big_jumps_fire_everything_once() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        for i in 0..1000u32 {
            w.schedule(t(1 + (i as u64 * 7919) % 100_000_000), i);
        }
        let fired = w.advance(t(200_000_000));
        assert_eq!(fired.len(), 1000);
        assert!(fired.windows(2).all(|p| p[0].0 <= p[1].0), "deadline order");
        assert!(w.is_empty());
    }

    #[test]
    fn peek_skips_dead_entries_and_drops_them() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        w.schedule(t(100), 1);
        w.schedule(t(200), 2);
        assert_eq!(w.peek_earliest_live(|&k| k != 1), Some(t(200)));
        assert_eq!(w.len(), 1, "the dead entry was discarded");
        assert_eq!(w.peek_earliest_live(|_| false), None);
        assert!(w.is_empty());
    }

    /// Slot vectors the wheel examined or swept while `f` ran.
    fn buckets_visited(f: impl FnOnce()) -> u64 {
        let before = crate::counters::shard_snapshot();
        f();
        crate::counters::shard_snapshot()
            .delta(&before)
            .timer_buckets_visited
    }

    #[test]
    fn empty_wheel_visits_no_buckets() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        let visited = buckets_visited(|| {
            for micros in 1..=1_000 {
                assert!(w.advance(t(micros * 1_000)).is_empty());
                assert_eq!(w.peek_earliest_live(|_| true), None);
            }
        });
        assert_eq!(visited, 0);
    }

    #[test]
    fn far_entry_costs_a_bucket_per_peek_and_none_per_advance() {
        const DEADLINE: u64 = 200_000_000;
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        w.schedule(t(DEADLINE), 1);
        // 200 ms out is a level-4 slot (2^24 ns wide): nothing is swept
        // until the level-4 cursor reaches it.
        let slot_start = DEADLINE >> 24 << 24;
        let mut now = 0;
        while now + 1_000 < slot_start {
            now += 1_000;
            assert_eq!(buckets_visited(|| assert!(w.advance(t(now)).is_empty())), 0);
            let peek = buckets_visited(|| {
                assert_eq!(w.peek_earliest_live(|_| true), Some(t(DEADLINE)));
            });
            assert!(peek <= LEVELS as u64, "{peek} buckets for one peek");
        }
        // From there it cascades one level at a time and fires on time.
        let mut fired = Vec::new();
        let cascade = buckets_visited(|| {
            while fired.is_empty() {
                now += 1_000;
                fired = w.advance(t(now));
            }
        });
        assert_eq!((now, fired), (DEADLINE, vec![(t(DEADLINE), 1)]));
        assert!(cascade <= LEVELS as u64, "{cascade} buckets to cascade");
    }

    /// While nothing is due the cursor stays where it is — an advance is
    /// one compare — and a timer armed meanwhile is placed relative to the
    /// stale cursor; both still fire at their exact instants, the gap
    /// crossed in one sweep.
    #[test]
    fn cursor_lags_while_nothing_is_due_and_fires_on_time() {
        const FAR: u64 = 200_000_000;
        const NEAR: u64 = 150_000_040;
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        assert!(w.advance(t(0)).is_empty());
        w.schedule(t(FAR), 1);
        let idle = buckets_visited(|| {
            for now in (1_000..150_000_000).step_by(1_000) {
                assert!(!w.due(t(now)));
                assert!(w.advance(t(now)).is_empty());
            }
        });
        assert_eq!(idle, 0, "150 000 advances with nothing due read no slot");
        w.schedule(t(NEAR), 2);
        assert_eq!(w.peek_earliest_live(|_| true), Some(t(NEAR)));
        assert!(!w.due(t(NEAR - 1)) && w.advance(t(NEAR - 1)).is_empty());
        assert!(w.due(t(NEAR)));
        assert_eq!(w.advance(t(NEAR)), vec![(t(NEAR), 2)]);
        assert_eq!(w.peek_earliest_live(|_| true), Some(t(FAR)));
        assert!(w.advance(t(FAR - 1)).is_empty());
        assert_eq!(w.advance(t(FAR + 5)), vec![(t(FAR), 1)]);
        assert!(w.is_empty());
    }

    /// The lag is bounded: even an empty wheel sweeps at every turn of its
    /// top level, so a timer armed after a long quiet spell is placed
    /// within one top-level slot of where an up-to-date cursor would put it
    /// (never in the overflow list for the lag alone).
    #[test]
    fn an_empty_wheel_still_turns_with_its_top_level() {
        const TURN: u64 = 1 << (SLOT_BITS * (LEVELS as u32 - 1));
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        assert!(w.advance(t(1)).is_empty());
        assert!(!w.due(t(TURN - 1)));
        assert!(w.due(t(TURN)));
        assert!(w.advance(t(100 * TURN + 7)).is_empty());
        assert!(!w.due(t(101 * TURN - 1)) && w.due(t(101 * TURN)));
        w.schedule(t(101 * TURN + 50), 1);
        assert!(w.overflow.is_empty());
        assert_eq!(w.advance(t(101 * TURN + 50)), vec![(t(101 * TURN + 50), 1)]);
    }

    #[test]
    fn emptied_slots_are_not_visited_again() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        w.schedule(t(100), 1); // Level 1.
        w.schedule(t(5_000), 2); // Level 2.
        assert_eq!(w.peek_earliest_live(|&k| k != 1), Some(t(5_000)));
        // The peek that discarded entry 1 emptied its slot for good.
        let peek = buckets_visited(|| {
            assert_eq!(w.peek_earliest_live(|_| true), Some(t(5_000)));
        });
        assert_eq!(peek, 1);
        // And so did the advance that swept entry 2 out of its own.
        assert_eq!(w.advance(t(10_000)), vec![(t(5_000), 2)]);
        let after = buckets_visited(|| {
            assert_eq!(w.peek_earliest_live(|_| true), None);
            assert!(w.advance(t(1_000_000_000)).is_empty());
        });
        assert_eq!(after, 0);
    }

    #[test]
    fn peek_examines_one_slot_per_level_however_many_are_occupied() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        for i in 0..1_000u32 {
            w.schedule(t(1 + (i as u64 * 7_919) % 100_000_000), i);
        }
        // The first peek to find more than SLOTS new entries scrubs.
        assert_eq!(w.peek_earliest_live(|_| true), Some(t(1)));
        let visited = buckets_visited(|| {
            assert_eq!(w.peek_earliest_live(|_| true), Some(t(1)));
        });
        assert!(visited <= LEVELS as u64, "{visited} buckets for one peek");
    }

    /// Re-arming a far timer forever behind an earlier live one: a peek
    /// stops at the live entry's slot and never reaches the abandoned
    /// re-arms, so only the whole-wheel scrub bounds them.
    #[test]
    fn abandoned_entries_behind_a_live_one_stay_bounded() {
        let mut w: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        w.schedule(t(20_000_000), 0);
        let live = 2;
        for rearm in 1..=60_000u32 {
            w.schedule(t(200_000_000 + rearm as u64), rearm);
            assert_eq!(
                w.peek_earliest_live(|&k| k == 0 || k == rearm),
                Some(t(20_000_000))
            );
            assert!(w.len() <= 2 * live + SLOTS + 1, "len {}", w.len());
        }
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let mut w: TimerWheel<u32> = TimerWheel::new(t(1_000));
        w.schedule(t(50), 7); // Already past.
        assert_eq!(w.peek_earliest_live(|_| true), Some(t(50)));
        assert_eq!(w.advance(t(1_000)), vec![(t(50), 7)]);
    }
}

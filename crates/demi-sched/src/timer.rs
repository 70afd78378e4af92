//! Virtual-time sleeps.
//!
//! Protocol stacks need timers (TCP retransmission, ARP request timeouts,
//! device service delays). A [`TimerService`] keeps a deadline heap against
//! the simulation clock; when every coroutine is blocked, the runtime asks
//! for [`TimerService::earliest_deadline`] and advances the clock to the
//! sooner of that and the fabric's next frame delivery, then calls
//! [`TimerService::fire_due`] to wake exactly the sleepers whose deadlines
//! have passed — sleeping tasks are parked, not re-polled every pass.

use std::cell::RefCell;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use sim_fabric::{SimClock, SimTime};

/// One heap entry: a deadline plus the sleeping task's waker cell. The cell
/// is shared with the [`SleepFuture`]; dropping the future disarms it, so a
/// fired entry for a cancelled sleep wakes nobody.
struct TimerEntry {
    deadline: SimTime,
    waker: Rc<RefCell<Option<Waker>>>,
}

// BinaryHeap is a max-heap; invert the comparison for earliest-first.
impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other.deadline.cmp(&self.deadline)
    }
}

/// Shared registry of sleep deadlines on one simulation clock.
#[derive(Clone)]
pub struct TimerService {
    clock: SimClock,
    deadlines: Rc<RefCell<BinaryHeap<TimerEntry>>>,
}

impl TimerService {
    /// Creates a timer service driven by `clock`.
    pub fn new(clock: SimClock) -> Self {
        TimerService {
            clock,
            deadlines: Rc::new(RefCell::new(BinaryHeap::new())),
        }
    }

    /// A future that completes once virtual time reaches `deadline`.
    pub fn sleep_until(&self, deadline: SimTime) -> SleepFuture {
        let waker = Rc::new(RefCell::new(None));
        self.deadlines.borrow_mut().push(TimerEntry {
            deadline,
            waker: waker.clone(),
        });
        SleepFuture {
            clock: self.clock.clone(),
            deadline,
            waker,
        }
    }

    /// A future that completes after `duration` of virtual time.
    pub fn sleep(&self, duration: SimTime) -> SleepFuture {
        self.sleep_until(self.clock.now().saturating_add(duration))
    }

    /// Pops every deadline at or before the current time, waking its
    /// sleeper (if still armed). Returns how many sleepers were woken.
    ///
    /// The runtime calls this after every clock advancement; anyone who
    /// moves the shared clock by hand (tests, custom drivers) should too.
    pub fn fire_due(&self) -> usize {
        let now = self.clock.now();
        let mut heap = self.deadlines.borrow_mut();
        let mut woken = 0;
        while heap.peek().is_some_and(|e| e.deadline <= now) {
            let entry = heap.pop().unwrap();
            let armed = entry.waker.borrow_mut().take();
            if let Some(waker) = armed {
                waker.wake();
                woken += 1;
            }
        }
        woken
    }

    /// The earliest unexpired deadline, if any.
    ///
    /// Deadlines already in the past are fired on the way (waking their
    /// sleepers, exactly like [`TimerService::fire_due`]): their sleepers
    /// are ready and no longer constrain clock advancement.
    pub fn earliest_deadline(&self) -> Option<SimTime> {
        self.fire_due();
        self.deadlines.borrow().peek().map(|e| e.deadline)
    }
}

/// Future returned by [`TimerService::sleep_until`].
///
/// Cancellation-safe: dropping the future before its deadline disarms its
/// waker cell; the stale heap entry fires into the disarmed cell once
/// expired — at worst the runtime advances the clock to a moment nobody is
/// waiting for, which is harmless.
pub struct SleepFuture {
    clock: SimClock,
    deadline: SimTime,
    waker: Rc<RefCell<Option<Waker>>>,
}

impl Future for SleepFuture {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.clock.now() >= self.deadline {
            *self.waker.borrow_mut() = None;
            Poll::Ready(())
        } else {
            *self.waker.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

impl Drop for SleepFuture {
    fn drop(&mut self) {
        // Disarm so firing the stale heap entry wakes nobody.
        *self.waker.borrow_mut() = None;
    }
}

impl std::fmt::Debug for SleepFuture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SleepFuture(deadline={:?})", self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;

    impl TimerService {
        /// Current virtual time.
        fn now(&self) -> SimTime {
            self.clock.now()
        }

        /// Number of registered (possibly expired or cancelled) deadlines.
        fn pending(&self) -> usize {
            self.deadlines.borrow().len()
        }
    }

    #[test]
    fn sleep_completes_only_after_clock_advances() {
        let clock = SimClock::new();
        let timers = TimerService::new(clock.clone());
        let sched = Scheduler::new();
        let h = sched.spawn("sleeper", {
            let timers = timers.clone();
            async move {
                timers.sleep(SimTime::from_micros(10)).await;
                timers.now()
            }
        });
        sched.run_pass();
        assert!(!h.is_complete());
        assert_eq!(timers.earliest_deadline(), Some(SimTime::from_micros(10)));
        clock.advance_to(SimTime::from_micros(10));
        assert_eq!(timers.fire_due(), 1);
        sched.run_pass();
        assert_eq!(h.take_result(), Some(SimTime::from_micros(10)));
        assert_eq!(timers.earliest_deadline(), None);
    }

    #[test]
    fn earliest_deadline_orders_and_discards_expired() {
        let clock = SimClock::new();
        let timers = TimerService::new(clock.clone());
        let _a = timers.sleep_until(SimTime::from_micros(30));
        let _b = timers.sleep_until(SimTime::from_micros(10));
        let _c = timers.sleep_until(SimTime::from_micros(20));
        assert_eq!(timers.earliest_deadline(), Some(SimTime::from_micros(10)));
        clock.advance_to(SimTime::from_micros(15));
        assert_eq!(timers.earliest_deadline(), Some(SimTime::from_micros(20)));
        clock.advance_to(SimTime::from_micros(100));
        assert_eq!(timers.earliest_deadline(), None);
        assert_eq!(timers.pending(), 0);
    }

    #[test]
    fn zero_duration_sleep_is_immediately_ready() {
        let clock = SimClock::new();
        let timers = TimerService::new(clock);
        let sched = Scheduler::new();
        let h = sched.spawn("instant", {
            let timers = timers.clone();
            async move {
                timers.sleep(SimTime::ZERO).await;
                1u8
            }
        });
        sched.run_pass();
        assert_eq!(h.take_result(), Some(1));
    }

    #[test]
    fn dropped_sleep_entry_is_garbage_collected() {
        let clock = SimClock::new();
        let timers = TimerService::new(clock.clone());
        drop(timers.sleep_until(SimTime::from_micros(5)));
        assert_eq!(timers.earliest_deadline(), Some(SimTime::from_micros(5)));
        clock.advance_to(SimTime::from_micros(5));
        assert_eq!(timers.fire_due(), 0, "cancelled sleeper must not be woken");
        assert_eq!(timers.earliest_deadline(), None);
        assert_eq!(timers.pending(), 0);
    }

    #[test]
    fn fire_due_wakes_parked_sleeper_without_repolling_others() {
        let clock = SimClock::new();
        let timers = TimerService::new(clock.clone());
        let sched = Scheduler::new();
        sched.spawn("parked-forever", std::future::pending::<()>());
        let h = sched.spawn("sleeper", {
            let timers = timers.clone();
            async move {
                timers.sleep(SimTime::from_micros(3)).await;
                true
            }
        });
        sched.run_pass();
        let parked_polls = sched.stats().polls;
        clock.advance_to(SimTime::from_micros(3));
        assert_eq!(timers.fire_due(), 1);
        sched.run_pass();
        assert!(h.is_complete());
        // Only the sleeper was re-polled; the pending task stayed parked.
        assert_eq!(sched.stats().polls, parked_polls + 1);
    }
}

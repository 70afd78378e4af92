//! An edge-triggered, multi-waiter event counter.
//!
//! [`Notify`] is the primitive behind "park until something relevant might
//! have happened": a waiter snapshots the epoch when it starts waiting and
//! completes once the epoch has advanced past the snapshot, so a
//! notification delivered *between* the check and the park is never lost.
//! Every gate an operation parks on is one `Notify`, owned by the object
//! whose state the operation waits on (a socket's readability, a queue's
//! arrivals, a connection's state) and fired where that state rises.
//!
//! The wait loop — snapshot, check, park until the epoch moves, re-check —
//! runs on one [`Notified`], which re-snapshots each time it completes. A
//! coroutine awaits it and parks its `Waker`; a runtime op parks its key
//! ([`Notified::poll_op`]), which a fire pushes onto the runtime's
//! [`ReadyList`] — no task, no run queue, no lock. Parking allocates
//! nothing once warm: a waiter is one entry in the `Notify`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A parked waiter: what a fire does for it.
enum Waiter {
    /// A coroutine: woken through the scheduler.
    Task(Waker),
    /// A runtime op: its key is pushed onto its runtime's ready list.
    Op(ReadyList, u64),
}

#[derive(Default)]
struct NotifyInner {
    epoch: u64,
    next_key: u64,
    /// Parked waiters in parking order; a notification drains them all.
    waiters: Vec<(u64, Waiter)>,
}

/// A cloneable edge-triggered event source.
#[derive(Clone, Default)]
pub struct Notify {
    inner: Rc<RefCell<NotifyInner>>,
}

/// The keys of ops that gate fires made ready, in fire order: one list
/// per runtime, which checks each op it pops. Single-threaded (`Rc`).
pub type ReadyList = Rc<RefCell<VecDeque<u64>>>;

impl Notify {
    /// Creates a notifier at epoch zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the epoch and wakes every current waiter — a task through
    /// its waker, an op onto its ready list. Returns how many were woken.
    pub fn notify_waiters(&self) -> usize {
        let mut inner = self.inner.borrow_mut();
        inner.epoch += 1;
        let woken = inner.waiters.len();
        for (_, waiter) in inner.waiters.drain(..) {
            match waiter {
                Waiter::Task(waker) => waker.wake(),
                Waiter::Op(ready, key) => ready.borrow_mut().push_back(key),
            }
        }
        woken
    }

    /// The current epoch (diagnostics).
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch
    }

    /// A future that completes once [`Notify::notify_waiters`] is called
    /// *after* this future was created. Create it before checking the
    /// condition you are waiting on, so an intervening notification is not
    /// lost. Completing re-snapshots the epoch, so one `Notified` can be
    /// awaited again for the next notification.
    pub fn notified(&self) -> Notified {
        let mut inner = self.inner.borrow_mut();
        inner.next_key += 1;
        Notified {
            inner: self.inner.clone(),
            seen_epoch: inner.epoch,
            key: inner.next_key,
            parked: false,
        }
    }
}

impl std::fmt::Debug for Notify {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Notify(epoch={})", self.epoch())
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    inner: Rc<RefCell<NotifyInner>>,
    seen_epoch: u64,
    key: u64,
    /// Whether this future has an entry among the waiters.
    parked: bool,
}

impl Notified {
    /// `Ready` once the epoch moved past the snapshot (re-snapshotting);
    /// otherwise parks the waiter `waiter` builds, or refreshes the entry
    /// already parked with it.
    fn poll_with(&mut self, waiter: impl FnOnce() -> Waiter) -> Poll<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.epoch > self.seen_epoch {
            self.seen_epoch = inner.epoch;
            self.parked = false;
            return Poll::Ready(());
        }
        let key = self.key;
        if !self.parked {
            inner.waiters.push((key, waiter()));
            self.parked = true;
        } else if let Some(entry) = inner.waiters.iter_mut().find(|(k, _)| *k == key) {
            entry.1 = waiter();
        }
        Poll::Pending
    }

    /// The op-waiter form of `poll`: parks op `key`, which the next fire
    /// pushes onto `ready`. A fire takes the entry, so an op re-armed
    /// only after each fire is on `ready` at most once.
    pub fn poll_op(&mut self, ready: &ReadyList, key: u64) -> Poll<()> {
        self.poll_with(|| Waiter::Op(Rc::clone(ready), key))
    }
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.poll_with(|| Waiter::Task(cx.waker().clone()))
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        // Disarm: remove this future's entry unless a notification already
        // took it. A failed borrow means one is taking it right now.
        if let Ok(mut inner) = self.inner.try_borrow_mut() {
            if self.parked && inner.epoch == self.seen_epoch {
                let key = self.key;
                inner.waiters.retain(|(k, _)| *k != key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;

    #[test]
    fn notification_wakes_parked_waiter() {
        let sched = Scheduler::new();
        let notify = Notify::new();
        let h = sched.spawn("waiter", {
            let notify = notify.clone();
            async move {
                notify.notified().await;
                "woken"
            }
        });
        sched.run_pass();
        assert!(!h.is_complete());
        assert_eq!(notify.notify_waiters(), 1);
        sched.run_pass();
        assert_eq!(h.take_result(), Some("woken"));
    }

    #[test]
    fn notification_between_snapshot_and_await_is_not_lost() {
        let sched = Scheduler::new();
        let notify = Notify::new();
        let h = sched.spawn("waiter", {
            let notify = notify.clone();
            async move {
                let wait = notify.notified();
                // The event fires before the first await — the snapshot
                // epoch makes the wait complete immediately.
                notify.notify_waiters();
                wait.await;
                true
            }
        });
        sched.run_pass();
        assert_eq!(h.take_result(), Some(true));
    }

    #[test]
    fn notification_before_snapshot_does_not_complete_the_wait() {
        let sched = Scheduler::new();
        let notify = Notify::new();
        notify.notify_waiters();
        let h = sched.spawn("waiter", {
            let notify = notify.clone();
            async move {
                notify.notified().await;
            }
        });
        sched.run_pass();
        assert!(
            !h.is_complete(),
            "stale notification completed a fresh wait"
        );
        notify.notify_waiters();
        sched.run_pass();
        assert!(h.is_complete());
    }

    #[test]
    fn parked_waiter_costs_no_polls() {
        let sched = Scheduler::new();
        let notify = Notify::new();
        sched.spawn("waiter", {
            let notify = notify.clone();
            async move {
                notify.notified().await;
            }
        });
        sched.run_pass();
        let parked_polls = sched.stats().polls;
        for _ in 0..10 {
            sched.run_pass();
        }
        assert_eq!(sched.stats().polls, parked_polls);
    }

    #[test]
    fn one_notified_rechecks_per_notification_on_one_registration() {
        let sched = Scheduler::new();
        let notify = Notify::new();
        let items = Rc::new(RefCell::new(Vec::new()));
        // Two competing consumers: each notification wakes both, the loser
        // finds nothing and parks again on the same `Notified`.
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (notify, items) = (notify.clone(), items.clone());
                sched.spawn("consumer", async move {
                    let mut wait = notify.notified();
                    loop {
                        if let Some(item) = items.borrow_mut().pop() {
                            return item;
                        }
                        (&mut wait).await;
                    }
                })
            })
            .collect();
        sched.run_pass();
        items.borrow_mut().push(10);
        assert_eq!(notify.notify_waiters(), 2);
        sched.run_pass();
        // The notification drained both entries; only the loser re-armed.
        assert_eq!(notify.inner.borrow().waiters.len(), 1);
        items.borrow_mut().push(20);
        assert_eq!(notify.notify_waiters(), 1);
        sched.run_pass();
        let mut got: Vec<u32> = consumers.iter().filter_map(|h| h.take_result()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![10, 20]);
        assert_eq!(notify.notify_waiters(), 0, "finished waiters left no entry");
    }

    #[test]
    fn dropped_waiter_is_compacted_not_woken() {
        let notify = Notify::new();
        let fut = notify.notified();
        drop(fut);
        assert_eq!(notify.notify_waiters(), 0);
        // A parked waiter dropped before any notification removes its entry.
        let mut parked = Box::pin(notify.notified());
        let mut cx = Context::from_waker(Waker::noop());
        assert!(parked.as_mut().poll(&mut cx).is_pending());
        assert_eq!(notify.inner.borrow().waiters.len(), 1);
        drop(parked);
        assert_eq!(notify.notify_waiters(), 0);
    }

    /// The ready list's keys, in push order, leaving it empty.
    fn drain(ready: &ReadyList) -> Vec<u64> {
        ready.borrow_mut().drain(..).collect()
    }

    #[test]
    fn a_fire_between_snapshot_and_arming_an_op_is_not_lost() {
        let (notify, ready) = (Notify::new(), ReadyList::default());
        let mut wait = notify.notified();
        notify.notify_waiters();
        // The op's first arm sees the fire: it checks again, nothing parks.
        assert!(wait.poll_op(&ready, 7).is_ready());
        assert!(ready.borrow().is_empty());
        // Re-snapshotted: the next arm parks until the next fire.
        assert!(wait.poll_op(&ready, 7).is_pending());
        assert!(ready.borrow().is_empty());
        assert_eq!(notify.notify_waiters(), 1);
        assert_eq!(drain(&ready), [7]);
    }

    #[test]
    fn a_gate_wakes_each_task_and_op_waiter_exactly_once() {
        let (sched, notify, ready) = (Scheduler::new(), Notify::new(), ReadyList::default());
        let task = sched.spawn("waiter", {
            let notify = notify.clone();
            async move { notify.notified().await }
        });
        sched.run_pass();
        let (mut a, mut b) = (notify.notified(), notify.notified());
        assert!(a.poll_op(&ready, 1).is_pending());
        assert!(b.poll_op(&ready, 2).is_pending());
        // Arming a parked op again adds no second entry.
        assert!(a.poll_op(&ready, 1).is_pending());
        assert_eq!(notify.notify_waiters(), 3);
        assert_eq!(
            notify.notify_waiters(),
            0,
            "the first fire took every entry"
        );
        assert_eq!(drain(&ready), [1, 2]);
        assert_eq!(sched.stats().wakeups, 1);
        assert_eq!(sched.run_pass().completed, 1);
        assert!(task.is_complete());
    }

    #[test]
    fn dropping_a_notified_removes_its_op_entry() {
        let (notify, ready) = (Notify::new(), ReadyList::default());
        let (mut kept, mut dropped) = (notify.notified(), notify.notified());
        assert!(kept.poll_op(&ready, 1).is_pending());
        assert!(dropped.poll_op(&ready, 2).is_pending());
        drop(dropped);
        assert_eq!(notify.inner.borrow().waiters.len(), 1);
        assert_eq!(notify.notify_waiters(), 1);
        assert_eq!(drain(&ready), [1]);
    }

    mod alloc {
        use super::*;
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
        }

        /// Counts this thread's allocations inside [`allocs_in`].
        struct Counting;

        // SAFETY: every request is forwarded unchanged to `System`; the only
        // addition is a thread-local counter bump that cannot allocate or
        // unwind.
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

        /// Fire, pop the ready keys, re-arm: the waiter vector and the
        /// ready list keep their storage, so a warm round of op parking
        /// allocates nothing.
        #[test]
        fn re_arming_an_op_after_a_fire_allocates_nothing_once_warm() {
            let (notify, ready) = (Notify::new(), ReadyList::default());
            let mut waits: Vec<_> = (0..4).map(|_| notify.notified()).collect();
            let mut round = || {
                for (key, wait) in (0..).zip(&mut waits) {
                    while wait.poll_op(&ready, key).is_ready() {}
                }
                assert_eq!(notify.notify_waiters(), 4);
                for key in 0..4 {
                    assert_eq!(ready.borrow_mut().pop_front(), Some(key));
                }
            };
            round();
            round();
            assert_eq!(allocs_in(round), 0);
        }
    }
}

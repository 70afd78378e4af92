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
//! runs on one [`Notified`], which re-snapshots each time it completes.
//! Parking allocates nothing: a parked waiter is one `(key, Waker)` entry
//! in the `Notify`.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

#[derive(Default)]
struct NotifyInner {
    epoch: u64,
    next_key: u64,
    /// Parked waiters in parking order; a notification drains them all.
    waiters: Vec<(u64, Waker)>,
}

/// A cloneable edge-triggered event source.
#[derive(Clone, Default)]
pub struct Notify {
    inner: Rc<RefCell<NotifyInner>>,
}

impl Notify {
    /// Creates a notifier at epoch zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the epoch and wakes every current waiter. Returns how many
    /// tasks were woken.
    pub fn notify_waiters(&self) -> usize {
        let mut inner = self.inner.borrow_mut();
        inner.epoch += 1;
        let woken = inner.waiters.len();
        for (_, waker) in inner.waiters.drain(..) {
            waker.wake();
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

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut inner = this.inner.borrow_mut();
        if inner.epoch > this.seen_epoch {
            this.seen_epoch = inner.epoch;
            this.parked = false;
            return Poll::Ready(());
        }
        let key = this.key;
        if !this.parked {
            inner.waiters.push((key, cx.waker().clone()));
            this.parked = true;
        } else if let Some((_, waker)) = inner.waiters.iter_mut().find(|(k, _)| *k == key) {
            // Re-polled while parked: the entry keeps the latest waker.
            waker.clone_from(cx.waker());
        }
        Poll::Pending
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
}

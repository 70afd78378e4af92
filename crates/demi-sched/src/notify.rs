//! An edge-triggered, multi-waiter event counter.
//!
//! [`Notify`] is the primitive behind "park until something relevant might
//! have happened": a waiter snapshots the epoch when it starts waiting and
//! completes once the epoch has advanced past the snapshot, so a
//! notification delivered *between* the check and the park is never lost.
//! The runtime uses one `Notify` as its activity gate (external progress —
//! frames delivered, device completions, timers fired — bumps it), and the
//! library OSes use dedicated instances for per-object events (queue
//! readability, connection state changes).
//!
//! The idiomatic wait loop — snapshot, check, park until the epoch moves,
//! re-check — is written once, as [`Notify::until`].

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// One waiting future's waker cell: armed on every `Pending` poll, taken
/// (so each arming yields at most one wake) by a notification, disarmed
/// when the future completes or is dropped.
type WakerSlot = Rc<RefCell<Option<Waker>>>;

#[derive(Default)]
struct NotifyInner {
    epoch: u64,
    /// The slot of every future that has parked here. One whose future is
    /// gone is compacted out by the next notification, so a cancelled
    /// waiter is never woken and leaks nothing.
    waiters: Vec<WakerSlot>,
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
        let mut woken = 0;
        inner.waiters.retain(|slot| {
            if let Some(waker) = slot.borrow_mut().take() {
                waker.wake();
                woken += 1;
            }
            // Strong count 1: only this list still holds the slot.
            Rc::strong_count(slot) > 1
        });
        woken
    }

    /// The current epoch (diagnostics).
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch
    }

    /// A future that completes once [`Notify::notify_waiters`] is called
    /// *after* this future was created. Create it before checking the
    /// condition you are waiting on, so an intervening notification is not
    /// lost. Completing re-snapshots the epoch, so one `Notified` (one
    /// waiter registration) can be awaited again for the next notification.
    pub fn notified(&self) -> Notified {
        Notified {
            inner: self.inner.clone(),
            seen_epoch: self.inner.borrow().epoch,
            slot: Rc::new(RefCell::new(None)),
            registered: false,
        }
    }

    /// Parks the calling coroutine until `check` yields a value: `check`
    /// runs once now and again after every notification, on one waiter
    /// registration. A notification landing between a check and the park
    /// is not lost.
    ///
    /// ```
    /// # use demi_sched::{Notify, Scheduler};
    /// # use std::{cell::RefCell, rc::Rc};
    /// # let sched = Scheduler::new();
    /// let (added, items) = (Notify::new(), Rc::new(RefCell::new(Vec::new())));
    /// let consumer = sched.spawn("consumer", {
    ///     let (added, items) = (added.clone(), items.clone());
    ///     async move { added.until(|| items.borrow_mut().pop()).await }
    /// });
    /// sched.poll_once(); // nothing there yet: the consumer parks
    /// items.borrow_mut().push(7);
    /// added.notify_waiters();
    /// sched.poll_once();
    /// assert_eq!(consumer.take_result(), Some(7));
    /// ```
    pub async fn until<T>(&self, mut check: impl FnMut() -> Option<T>) -> T {
        let mut wait = self.notified();
        loop {
            if let Some(value) = check() {
                return value;
            }
            (&mut wait).await;
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
    slot: WakerSlot,
    registered: bool,
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut inner = this.inner.borrow_mut();
        if inner.epoch > this.seen_epoch {
            this.seen_epoch = inner.epoch;
            *this.slot.borrow_mut() = None;
            return Poll::Ready(());
        }
        *this.slot.borrow_mut() = Some(cx.waker().clone());
        if !this.registered {
            inner.waiters.push(this.slot.clone());
            this.registered = true;
        }
        Poll::Pending
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        // Disarm so a later notification does not wake a dead waiter.
        *self.slot.borrow_mut() = None;
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
        sched.poll_once();
        assert!(!h.is_complete());
        assert_eq!(notify.notify_waiters(), 1);
        sched.poll_once();
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
        sched.poll_once();
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
        sched.poll_once();
        assert!(
            !h.is_complete(),
            "stale notification completed a fresh wait"
        );
        notify.notify_waiters();
        sched.poll_once();
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
        sched.poll_once();
        let parked_polls = sched.stats().polls;
        for _ in 0..10 {
            sched.poll_once();
        }
        assert_eq!(sched.stats().polls, parked_polls);
    }

    #[test]
    fn until_rechecks_per_notification_on_one_registration() {
        let sched = Scheduler::new();
        let notify = Notify::new();
        let items = Rc::new(RefCell::new(Vec::new()));
        // Two competing consumers: each notification wakes both, the loser
        // finds nothing and parks again without registering a second slot.
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (notify, items) = (notify.clone(), items.clone());
                sched.spawn("consumer", async move {
                    notify.until(|| items.borrow_mut().pop()).await
                })
            })
            .collect();
        sched.poll_once();
        items.borrow_mut().push(10);
        assert_eq!(notify.notify_waiters(), 2);
        sched.poll_once();
        // The winner's slot awaits compaction; the loser re-armed its own.
        assert_eq!(notify.inner.borrow().waiters.len(), 2);
        items.borrow_mut().push(20);
        assert_eq!(notify.notify_waiters(), 1);
        sched.poll_once();
        let mut got: Vec<u32> = consumers.iter().filter_map(|h| h.take_result()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![10, 20]);
        assert_eq!(notify.notify_waiters(), 0, "finished waiters are compacted");
    }

    #[test]
    fn dropped_waiter_is_compacted_not_woken() {
        let notify = Notify::new();
        let fut = notify.notified();
        drop(fut);
        assert_eq!(notify.notify_waiters(), 0);
    }
}

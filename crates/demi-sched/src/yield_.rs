//! Cooperative yield point.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Future returned by [`yield_once`].
#[derive(Debug, Default)]
pub struct YieldFuture {
    yielded: bool,
}

impl Future for YieldFuture {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            // Self-wake: the task stays runnable but moves to the back of
            // the run queue, so every other runnable task gets a turn first.
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Suspends the current coroutine until the next scheduler pass.
///
/// The yielding task re-enqueues itself (a self-wake), so under the
/// waker-driven policy a yield loop keeps running — but code that *waits*
/// for an event should park on a waker source ([`crate::Notify::notified`] or
/// a timer) instead of spinning on `yield_once`, which burns a poll per
/// pass.
pub fn yield_once() -> YieldFuture {
    YieldFuture::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Waker;

    #[test]
    fn pending_once_then_ready() {
        let mut fut = yield_once();
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert!(Pin::new(&mut fut).poll(&mut cx).is_ready());
    }

    #[test]
    fn yield_requeues_itself_under_wake_policy() {
        let sched = crate::Scheduler::new();
        let h = sched.spawn("yielder", async {
            for _ in 0..3 {
                yield_once().await;
            }
            true
        });
        for _ in 0..4 {
            sched.run_pass();
        }
        assert_eq!(h.take_result(), Some(true));
    }
}

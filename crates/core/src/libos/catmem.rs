//! `catmem`: the in-memory queue libOS.
//!
//! The simplest libOS — no device at all. Its queues are the substrate for
//! the queue-transformation layer's tests and for same-host pipes. It also
//! demonstrates the purest form of the abstraction: `queue()` from the
//! paper's control-path table, plus `push`/`pop` with atomic elements and
//! zero-copy handoff (an Sga pushed is the same storage popped).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use demi_sched::Notify;

use crate::libos::{LibOs, LibOsKind, QueueTable};
use crate::runtime::Runtime;
use crate::types::{DemiError, OperationResult, QDesc, QToken, Sga};

#[derive(Default)]
struct CatmemQueue {
    items: VecDeque<Sga>,
    /// Fires on push and close, waking pops parked on an empty queue.
    events: Notify,
}

/// The in-memory libOS.
#[derive(Clone)]
pub struct Catmem {
    runtime: Runtime,
    queues: Rc<RefCell<QueueTable<CatmemQueue>>>,
}

impl Catmem {
    /// Creates a catmem instance on a shared runtime.
    pub fn new(runtime: &Runtime) -> Self {
        Catmem {
            runtime: runtime.clone(),
            queues: Rc::new(RefCell::new(QueueTable::new(1))),
        }
    }

    /// Items currently queued (diagnostics).
    pub fn depth(&self, qd: QDesc) -> Result<usize, DemiError> {
        Ok(self.queues.borrow().get(qd)?.items.len())
    }
}

impl LibOs for Catmem {
    fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    fn kind(&self) -> LibOsKind {
        LibOsKind::Catmem
    }

    fn queue(&self) -> Result<QDesc, DemiError> {
        Ok(self.queues.borrow_mut().insert(CatmemQueue::default()))
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        let queue = self.queues.borrow_mut().remove(qd)?;
        // Pending pops must observe the close and fail promptly.
        queue.events.notify_waiters();
        Ok(())
    }

    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        let mut queues = self.queues.borrow_mut();
        let queue = queues.get_mut(qd)?;
        self.runtime.metrics().count_push();
        // Handle clone: zero-copy. Nothing below the queue can refuse or
        // delay the element, so the push is complete as the call returns.
        queue.items.push_back(sga.clone());
        queue.events.notify_waiters();
        Ok(self
            .runtime
            .complete_op("catmem::push", OperationResult::Push))
    }

    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError> {
        let events = self.queues.borrow().get(qd)?.events.clone();
        self.runtime.metrics().count_pop();
        let queues = self.queues.clone();
        let check = move || match queues.borrow_mut().get_mut(qd) {
            Ok(queue) => {
                let sga = queue.items.pop_front()?;
                Some(OperationResult::Pop { from: None, sga })
            }
            Err(_) => Some(OperationResult::Failed(DemiError::Closed)),
        };
        Ok(self.runtime.spawn_ready_op("catmem::pop", &events, check))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demi_memory::DemiBuffer;

    fn setup() -> (Runtime, Catmem) {
        let rt = Runtime::new();
        let libos = Catmem::new(&rt);
        (rt, libos)
    }

    #[test]
    fn push_then_pop_returns_the_atomic_element() {
        let (_rt, libos) = setup();
        let qd = libos.queue().unwrap();
        let sga = Sga::from_slice(b"atomic");
        let qt = libos.push(qd, &sga).unwrap();
        assert!(matches!(
            libos.wait(qt, None).unwrap(),
            OperationResult::Push
        ));
        let (_, popped) = libos.blocking_pop(qd).unwrap().expect_pop();
        assert_eq!(popped, sga);
    }

    #[test]
    fn pop_blocks_until_push_arrives() {
        let (_rt, libos) = setup();
        let qd = libos.queue().unwrap();
        let pop_qt = libos.pop(qd).unwrap();
        let push_qt = libos.push(qd, &Sga::from_slice(b"late")).unwrap();
        let (idx, result) = libos.wait_any(&[pop_qt, push_qt], None).unwrap();
        // Either may resolve first, but the pop must carry the data.
        let pop_result = if idx == 0 {
            result
        } else {
            libos.wait(pop_qt, None).unwrap()
        };
        let (_, sga) = pop_result.expect_pop();
        assert_eq!(sga.to_vec(), b"late");
    }

    #[test]
    fn scatter_gather_pops_as_one_element_zero_copy() {
        let (_rt, libos) = setup();
        let qd = libos.queue().unwrap();
        let seg = DemiBuffer::from_slice(b"shared-storage");
        let sga = Sga::from_bufs(vec![seg.clone(), DemiBuffer::from_slice(b"tail")]);
        libos.blocking_push(qd, &sga).unwrap();
        let (_, popped) = libos.blocking_pop(qd).unwrap().expect_pop();
        assert_eq!(popped.seg_count(), 2, "sga boundaries preserved");
        assert!(
            popped.segments()[0].same_storage(&seg),
            "popped element shares the pushed storage (zero copy)"
        );
    }

    #[test]
    fn fifo_order_across_many_elements() {
        let (_rt, libos) = setup();
        let qd = libos.queue().unwrap();
        for i in 0..100u32 {
            libos
                .blocking_push(qd, &Sga::from_slice(&i.to_be_bytes()))
                .unwrap();
        }
        for i in 0..100u32 {
            let (_, sga) = libos.blocking_pop(qd).unwrap().expect_pop();
            assert_eq!(sga.to_vec(), i.to_be_bytes());
        }
    }

    #[test]
    fn closed_queue_rejects_push_and_fails_pending_pop() {
        let (_rt, libos) = setup();
        let qd = libos.queue().unwrap();
        let pop_qt = libos.pop(qd).unwrap();
        libos.close(qd).unwrap();
        assert_eq!(
            libos.push(qd, &Sga::from_slice(b"x")),
            Err(DemiError::BadQDesc)
        );
        let result = libos.wait(pop_qt, None).unwrap();
        assert!(matches!(result, OperationResult::Failed(DemiError::Closed)));
    }

    #[test]
    fn bad_qdesc_is_rejected() {
        let (_rt, libos) = setup();
        assert_eq!(libos.pop(QDesc(99)), Err(DemiError::BadQDesc));
        assert_eq!(
            libos.push(QDesc(99), &Sga::from_slice(b"x")),
            Err(DemiError::BadQDesc)
        );
    }

    #[test]
    fn unsupported_calls_report_not_supported() {
        let (_rt, libos) = setup();
        assert!(matches!(
            libos.socket(crate::libos::SocketKind::Udp),
            Err(DemiError::NotSupported(_))
        ));
        assert!(matches!(libos.open("x"), Err(DemiError::NotSupported(_))));
    }

    #[test]
    fn two_queues_are_independent() {
        let (_rt, libos) = setup();
        let q1 = libos.queue().unwrap();
        let q2 = libos.queue().unwrap();
        libos.blocking_push(q1, &Sga::from_slice(b"one")).unwrap();
        libos.blocking_push(q2, &Sga::from_slice(b"two")).unwrap();
        let (_, a) = libos.blocking_pop(q2).unwrap().expect_pop();
        assert_eq!(a.to_vec(), b"two");
        let (_, b) = libos.blocking_pop(q1).unwrap().expect_pop();
        assert_eq!(b.to_vec(), b"one");
    }

    #[test]
    fn metrics_count_pushes_and_pops() {
        let (rt, libos) = setup();
        let qd = libos.queue().unwrap();
        libos.blocking_push(qd, &Sga::from_slice(b"x")).unwrap();
        libos.blocking_pop(qd).unwrap();
        let m = rt.metrics().snapshot();
        assert_eq!(m.pushes, 1);
        assert_eq!(m.pops, 1);
        assert_eq!(m.data_path_syscalls, 0);
    }
}

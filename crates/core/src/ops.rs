//! Queue transformations: `merge`, `filter`, `sort`, `map`, `qconnect`.
//!
//! Paper §4.3 defines control-path calls that return *new* queues derived
//! from existing ones. [`Demikernel`] implements them as a decorator over
//! any [`LibOs`]: transformed queues get descriptors from a reserved range
//! and compose freely (a filter over a merge over device queues).
//!
//! Offload (§4.2–4.3): installing a filter first asks the underlying libOS
//! to push the predicate onto the device
//! ([`LibOs::try_offload_filter`] → SmartNIC program slot). If the device
//! cannot host it, the filter runs on the CPU — "library OSes always
//! implement filters directly on supported devices but default to using
//! the CPU if necessary." [`OpsStats`] exposes which path ran, powering
//! experiment E6.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use demi_sched::Notify;
use net_stack::types::SocketAddr;
use sim_fabric::DeviceCaps;

use crate::libos::{LibOs, LibOsKind, QueueTable, SocketKind};
use crate::runtime::{Check, Runtime};
use crate::types::{DemiError, OperationResult, QDesc, QToken, Sga};

/// First descriptor of the transformed-queue range.
pub const VIRTUAL_QD_BASE: u32 = 0x8000_0000;

/// Transformation-layer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpsStats {
    /// Predicate evaluations executed on the CPU.
    pub cpu_filter_evals: u64,
    /// Elements dropped by filters (either location).
    pub filtered_out: u64,
    /// Filters successfully installed on a device.
    pub offloaded_filters: u64,
    /// Filters that fell back to the CPU.
    pub cpu_filters: u64,
    /// Map-function applications.
    pub map_applications: u64,
    /// Elements forwarded by merge/sort/qconnect plumbing.
    pub forwarded: u64,
}

/// A popped element with its datagram source, threaded through transforms.
type Element = (Option<SocketAddr>, Sga);
/// Where a merge or sort forwarder lands elements for the queue's pops.
#[derive(Default)]
struct Landing {
    items: RefCell<VecDeque<Element>>,
    /// Fires when a forwarder lands an element.
    added: Notify,
}

/// A user predicate over Sga contents.
pub(crate) type SgaPredicate = Rc<dyn Fn(&Sga) -> bool>;
/// A user priority comparator ("is `a` higher priority than `b`?").
pub(crate) type SgaPriority = Rc<dyn Fn(&Sga, &Sga) -> bool>;
/// A user element transformation.
pub(crate) type SgaMap = Rc<dyn Fn(Sga) -> Sga>;

enum VirtualQueue {
    Merge {
        out: Rc<Landing>,
        targets: [QDesc; 2],
    },
    Filter {
        target: QDesc,
        pred: SgaPredicate,
        on_device: bool,
    },
    Sort {
        buffer: Rc<Landing>,
        target: QDesc,
        higher_priority: SgaPriority,
    },
    Map {
        target: QDesc,
        f: SgaMap,
    },
}

type VirtualQueues = RefCell<QueueTable<Rc<VirtualQueue>>>;

struct DkInner {
    base: Rc<dyn LibOs>,
    runtime: Runtime,
    virt: Rc<VirtualQueues>,
    stats: RefCell<OpsStats>,
    /// The check every parked merge or sort pop shares ([`landed`]).
    pop: Check,
}

/// The Demikernel facade: any libOS plus the queue-transformation calls.
///
/// Cheaply cloneable; clones share state. Implements [`LibOs`] itself, so
/// applications are written against one interface regardless of the
/// device underneath — the paper's portability claim.
#[derive(Clone)]
pub struct Demikernel {
    inner: Rc<DkInner>,
}

impl Demikernel {
    /// Wraps a concrete libOS.
    pub fn new(base: Rc<dyn LibOs>) -> Self {
        let runtime = base.runtime().clone();
        let virt = Rc::new(RefCell::new(QueueTable::new(VIRTUAL_QD_BASE)));
        let landings = virt.clone();
        Demikernel {
            inner: Rc::new(DkInner {
                base,
                runtime,
                virt,
                stats: RefCell::new(OpsStats::default()),
                pop: Rc::new(move |qd, _| landed(&landings, qd)),
            }),
        }
    }

    /// Transformation counters.
    pub fn ops_stats(&self) -> OpsStats {
        *self.inner.stats.borrow()
    }

    fn alloc_virt(&self, vq: VirtualQueue) -> QDesc {
        self.inner.virt.borrow_mut().insert(Rc::new(vq))
    }

    fn virt(&self, qd: QDesc) -> Option<Rc<VirtualQueue>> {
        self.inner.virt.borrow().get(qd).ok().cloned()
    }

    fn downgrade(&self) -> Weak<DkInner> {
        Rc::downgrade(&self.inner)
    }

    /// Spawns the background loop that pops `src` forever and lands each
    /// element where the pops of a merged or sorted queue look for it.
    fn spawn_forwarder(&self, src: QDesc, landing: Rc<Landing>) {
        let weak = self.downgrade();
        let forward = async move {
            loop {
                let Some(inner) = weak.upgrade() else { return };
                let dk = Demikernel { inner };
                let Ok(qt) = dk.pop(src) else { return };
                // Build the (runtime-weak) future, then drop every strong
                // handle before suspending: a parked forwarder holding the
                // runtime would leak the world (Rc cycle through the
                // scheduler).
                let fut = dk.inner.runtime.await_op(qt);
                drop(dk);
                let OperationResult::Pop { from, sga } = fut.await else {
                    return;
                };
                if let Some(inner) = weak.upgrade() {
                    inner.stats.borrow_mut().forwarded += 1;
                }
                landing.items.borrow_mut().push_back((from, sga));
                landing.added.notify_waiters();
            }
        };
        self.inner
            .runtime
            .spawn_background("ops::forwarder", forward);
    }

    /// `merge(qd1, qd2)`: a queue that pops from either input and pushes
    /// to both (paper §4.3).
    pub fn merge(&self, qd1: QDesc, qd2: QDesc) -> Result<QDesc, DemiError> {
        self.check_exists(qd1)?;
        self.check_exists(qd2)?;
        let out = Rc::<Landing>::default();
        let merged = self.alloc_virt(VirtualQueue::Merge {
            out: out.clone(),
            targets: [qd1, qd2],
        });
        // One forwarder per input: pops flow into the merged buffer.
        self.spawn_forwarder(qd1, out.clone());
        self.spawn_forwarder(qd2, out);
        Ok(merged)
    }

    /// `filter(qd, pred)`: a queue passing only elements for which `pred`
    /// holds. Installed on the device when possible, CPU otherwise.
    pub fn filter(&self, qd: QDesc, pred: Rc<dyn Fn(&Sga) -> bool>) -> Result<QDesc, DemiError> {
        self.check_exists(qd)?;
        // Plan the placement: device first, CPU fallback.
        let on_device =
            self.virt(qd).is_none() && self.inner.base.try_offload_filter(qd, pred.clone());
        {
            let mut stats = self.inner.stats.borrow_mut();
            if on_device {
                stats.offloaded_filters += 1;
            } else {
                stats.cpu_filters += 1;
            }
        }
        Ok(self.alloc_virt(VirtualQueue::Filter {
            target: qd,
            pred,
            on_device,
        }))
    }

    /// `sort(qd, higher_priority)`: a queue returning the highest-priority
    /// available element of `qd` (paper §4.3).
    pub fn sort(&self, qd: QDesc, higher_priority: SgaPriority) -> Result<QDesc, DemiError> {
        self.check_exists(qd)?;
        let buffer = Rc::<Landing>::default();
        let sorted = self.alloc_virt(VirtualQueue::Sort {
            buffer: buffer.clone(),
            target: qd,
            higher_priority,
        });
        // Forwarder drains the base queue into the priority buffer.
        self.spawn_forwarder(qd, buffer);
        Ok(sorted)
    }

    /// `map(qd, f)`: a queue applying `f` to every element in both
    /// directions (paper §4.3).
    pub fn map(&self, qd: QDesc, f: SgaMap) -> Result<QDesc, DemiError> {
        self.check_exists(qd)?;
        Ok(self.alloc_virt(VirtualQueue::Map { target: qd, f }))
    }

    /// `qconnect(qin, qout)`: forwards every element popped from `qin`
    /// into `qout` (paper §4.3), building processing pipelines.
    pub fn qconnect(&self, qin: QDesc, qout: QDesc) -> Result<(), DemiError> {
        self.check_exists(qin)?;
        self.check_exists(qout)?;
        let weak = self.downgrade();
        self.inner
            .runtime
            .spawn_background("ops::qconnect", async move {
                loop {
                    let Some(inner) = weak.upgrade() else { return };
                    let dk = Demikernel { inner };
                    let Ok(pop_qt) = dk.pop(qin) else { return };
                    let fut = dk.inner.runtime.await_op(pop_qt);
                    drop(dk);
                    match fut.await {
                        OperationResult::Pop { sga, .. } => {
                            let Some(inner) = weak.upgrade() else { return };
                            let dk = Demikernel { inner };
                            dk.inner.stats.borrow_mut().forwarded += 1;
                            let Ok(push_qt) = dk.push(qout, &sga) else {
                                return;
                            };
                            let fut = dk.inner.runtime.await_op(push_qt);
                            drop(dk);
                            match fut.await {
                                OperationResult::Push => {}
                                _ => return,
                            }
                        }
                        _ => return,
                    }
                }
            });
        Ok(())
    }

    fn check_exists(&self, qd: QDesc) -> Result<(), DemiError> {
        if qd.0 >= VIRTUAL_QD_BASE {
            self.inner.virt.borrow().get(qd).map(|_| ())
        } else {
            // Cheap existence probe: descriptors below the virtual range
            // belong to the base libOS; trust it to reject bad ones at use.
            Ok(())
        }
    }
}

impl LibOs for Demikernel {
    fn runtime(&self) -> &Runtime {
        &self.inner.runtime
    }

    fn kind(&self) -> LibOsKind {
        self.inner.base.kind()
    }

    fn device_caps(&self) -> Option<DeviceCaps> {
        self.inner.base.device_caps()
    }

    fn kernel_stats(&self) -> Option<posix_sim::KernelStats> {
        self.inner.base.kernel_stats()
    }

    fn socket(&self, kind: SocketKind) -> Result<QDesc, DemiError> {
        self.inner.base.socket(kind)
    }

    fn bind(&self, qd: QDesc, addr: SocketAddr) -> Result<(), DemiError> {
        self.inner.base.bind(qd, addr)
    }

    fn listen(&self, qd: QDesc, backlog: usize) -> Result<(), DemiError> {
        self.inner.base.listen(qd, backlog)
    }

    fn accept(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.inner.base.accept(qd)
    }

    fn connect(&self, qd: QDesc, remote: SocketAddr) -> Result<QToken, DemiError> {
        self.inner.base.connect(qd, remote)
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        if qd.0 >= VIRTUAL_QD_BASE {
            self.inner.virt.borrow_mut().remove(qd).map(|_| ())
        } else {
            self.inner.base.close(qd)
        }
    }

    fn queue(&self) -> Result<QDesc, DemiError> {
        self.inner.base.queue()
    }

    fn open(&self, path: &str) -> Result<QDesc, DemiError> {
        self.inner.base.open(path)
    }

    fn create(&self, path: &str) -> Result<QDesc, DemiError> {
        self.inner.base.create(path)
    }

    fn sgaalloc(&self, len: usize) -> Sga {
        self.inner.base.sgaalloc(len)
    }

    fn try_offload_filter(&self, qd: QDesc, pred: Rc<dyn Fn(&Sga) -> bool>) -> bool {
        if qd.0 >= VIRTUAL_QD_BASE {
            false
        } else {
            self.inner.base.try_offload_filter(qd, pred)
        }
    }

    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        let Some(vq) = self.virt(qd) else {
            return self.inner.base.push(qd, sga);
        };
        match &*vq {
            VirtualQueue::Merge { targets, .. } => {
                // "A push to the merged queue results in a push to both."
                let (t1, t2) = (targets[0], targets[1]);
                let qt1 = self.push(t1, sga)?;
                let qt2 = self.push(t2, sga)?;
                let weak = self.downgrade();
                Ok(self.inner.runtime.spawn_op("ops::merge_push", async move {
                    // Create both (runtime-weak) futures, then drop the
                    // strong handle before suspending: a spawned coroutine
                    // owning the runtime would leak the world (Rc cycle
                    // through the scheduler).
                    let (f1, f2) = {
                        let Some(inner) = weak.upgrade() else {
                            return OperationResult::Failed(DemiError::BadQToken);
                        };
                        (inner.runtime.await_op(qt1), inner.runtime.await_op(qt2))
                    };
                    let r1 = f1.await;
                    let r2 = f2.await;
                    match (r1, r2) {
                        (OperationResult::Push, OperationResult::Push) => OperationResult::Push,
                        (OperationResult::Failed(e), _) | (_, OperationResult::Failed(e)) => {
                            OperationResult::Failed(e)
                        }
                        _ => OperationResult::Failed(DemiError::InvalidState),
                    }
                }))
            }
            VirtualQueue::Filter { target, pred, .. } => {
                // "A push into the new queue results in a push to the
                // original queue only if the filter function is met."
                let mut stats = self.inner.stats.borrow_mut();
                stats.cpu_filter_evals += 1;
                if pred(sga) {
                    drop(stats);
                    self.push(*target, sga)
                } else {
                    stats.filtered_out += 1;
                    drop(stats);
                    Ok(self
                        .inner
                        .runtime
                        .complete_op("ops::filter_drop", OperationResult::Push))
                }
            }
            VirtualQueue::Sort { target, .. } => self.push(*target, sga),
            VirtualQueue::Map { target, f } => {
                self.inner.stats.borrow_mut().map_applications += 1;
                let mapped = f(sga.clone());
                self.push(*target, &mapped)
            }
        }
    }

    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError> {
        let Some(vq) = self.virt(qd) else {
            return self.inner.base.pop(qd);
        };
        let (rt, check) = (&self.inner.runtime, self.inner.pop.clone());
        match &*vq {
            VirtualQueue::Merge { out, .. } => {
                Ok(rt.park_op("ops::merge_pop", &out.added, check, qd, 0))
            }
            VirtualQueue::Filter {
                target,
                pred,
                on_device,
            } => {
                if *on_device {
                    // The device already dropped non-matching elements.
                    return self.pop(*target);
                }
                let target = *target;
                let pred = pred.clone();
                let weak = self.downgrade();
                Ok(self.inner.runtime.spawn_op("ops::filter_pop", async move {
                    loop {
                        let fut = {
                            let Some(inner) = weak.upgrade() else {
                                return OperationResult::Failed(DemiError::BadQDesc);
                            };
                            let dk = Demikernel { inner };
                            let Ok(qt) = dk.pop(target) else {
                                return OperationResult::Failed(DemiError::BadQDesc);
                            };
                            dk.inner.runtime.await_op(qt)
                        };
                        match fut.await {
                            OperationResult::Pop { from, sga } => {
                                let Some(inner) = weak.upgrade() else {
                                    return OperationResult::Failed(DemiError::BadQDesc);
                                };
                                let mut stats = inner.stats.borrow_mut();
                                stats.cpu_filter_evals += 1;
                                if pred(&sga) {
                                    drop(stats);
                                    return OperationResult::Pop { from, sga };
                                }
                                stats.filtered_out += 1;
                            }
                            other => return other,
                        }
                    }
                }))
            }
            VirtualQueue::Sort { buffer, .. } => {
                Ok(rt.park_op("ops::sort_pop", &buffer.added, check, qd, 0))
            }
            VirtualQueue::Map { target, f } => {
                let target = *target;
                let f = f.clone();
                let weak = self.downgrade();
                Ok(self.inner.runtime.spawn_op("ops::map_pop", async move {
                    let fut = {
                        let Some(inner) = weak.upgrade() else {
                            return OperationResult::Failed(DemiError::BadQDesc);
                        };
                        let dk = Demikernel { inner };
                        let Ok(qt) = dk.pop(target) else {
                            return OperationResult::Failed(DemiError::BadQDesc);
                        };
                        dk.inner.runtime.await_op(qt)
                    };
                    match fut.await {
                        OperationResult::Pop { from, sga } => {
                            if let Some(inner) = weak.upgrade() {
                                inner.stats.borrow_mut().map_applications += 1;
                            }
                            OperationResult::Pop { from, sga: f(sga) }
                        }
                        other => other,
                    }
                }))
            }
        }
    }
}

/// The check of a parked merge or sort pop: the oldest landed element, or
/// the highest-priority one; `Closed` once the queue is closed.
fn landed(virt: &VirtualQueues, qd: QDesc) -> Option<OperationResult> {
    // The queue is cloned out so the user's comparator runs unborrowed.
    let Ok(vq) = virt.borrow().get(qd).cloned() else {
        return Some(OperationResult::Failed(DemiError::Closed));
    };
    let (from, sga) = match &*vq {
        VirtualQueue::Merge { out, .. } => out.items.borrow_mut().pop_front()?,
        VirtualQueue::Sort {
            buffer,
            higher_priority,
            ..
        } => {
            let mut buf = buffer.items.borrow_mut();
            let better = |best, i| higher_priority(&buf[i].1, &buf[best].1);
            let best = (1..buf.len()).fold(0, |best, i| if better(best, i) { i } else { best });
            buf.remove(best)?
        }
        _ => return Some(OperationResult::Failed(DemiError::InvalidState)),
    };
    Some(OperationResult::Pop { from, sga })
}

#[cfg(test)]
mod tests;

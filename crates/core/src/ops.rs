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

use std::cell::{Cell, RefCell};
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
/// What a forwarder lands: an element, or why a pop it served failed.
type Landed = Result<Element, DemiError>;

/// Where a virtual queue's forwarders land elements for the queue's pops,
/// each of which is a slot parked on `added` ([`landed`]).
#[derive(Default)]
struct Landing {
    items: RefCell<VecDeque<Landed>>,
    /// Fires when a forwarder lands an element or the queue closes.
    added: Notify,
    /// Pops of a filter or a map that its forwarder has not served yet.
    wanted: Cell<usize>,
    /// Fires when `wanted` rises or the queue closes.
    demand: Notify,
}

/// A user predicate over Sga contents.
pub(crate) type SgaPredicate = Rc<dyn Fn(&Sga) -> bool>;
/// A user priority comparator ("is `a` higher priority than `b`?").
pub(crate) type SgaPriority = Rc<dyn Fn(&Sga, &Sga) -> bool>;
/// A user element transformation.
pub(crate) type SgaMap = Rc<dyn Fn(Sga) -> Sga>;

/// What a virtual queue does to the queues it is made of.
enum Transform {
    Merge([QDesc; 2]),
    Filter(QDesc, SgaPredicate),
    Sort(QDesc, SgaPriority),
    Map(QDesc, SgaMap),
}

impl Transform {
    /// Whether the queue's forwarder pops only for waiting pops: a filter
    /// evaluates, and a map applies, exactly for the elements pops take.
    fn lazy(&self) -> bool {
        matches!(self, Transform::Filter(..) | Transform::Map(..))
    }
}

/// A transformed queue and where its pops take their elements: `None`
/// for a filter the device runs, whose pops are its target's.
struct VirtualQueue {
    transform: Transform,
    out: Option<Landing>,
}

type VirtualQueues = RefCell<QueueTable<Rc<VirtualQueue>>>;

struct DkInner {
    base: Rc<dyn LibOs>,
    runtime: Runtime,
    virt: Rc<VirtualQueues>,
    stats: RefCell<OpsStats>,
    /// The check every parked virtual-queue pop shares ([`landed`]).
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

    /// Opens a virtual queue and spawns a forwarder from each of `srcs`
    /// when its pops take forwarded elements.
    fn alloc_virt(&self, transform: Transform, srcs: &[QDesc], landing: bool) -> QDesc {
        let vq = Rc::new(VirtualQueue {
            transform,
            out: landing.then(Landing::default),
        });
        for &src in srcs.iter().filter(|_| landing) {
            self.spawn_forwarder(src, Rc::downgrade(&vq));
        }
        self.inner.virt.borrow_mut().insert(vq)
    }

    fn virt(&self, qd: QDesc) -> Option<Rc<VirtualQueue>> {
        self.inner.virt.borrow().get(qd).ok().cloned()
    }

    fn downgrade(&self) -> Weak<DkInner> {
        Rc::downgrade(&self.inner)
    }

    /// Spawns the background loop that pops `src` and lands what it pops
    /// where the pops of `vq` take it: every element as it comes for a
    /// merge or a sort; for a filter or a map, only while a pop of `vq`
    /// waits, so a filter evaluates exactly the elements its pops consume.
    /// The loop ends once `vq` is closed (or, for a merge or a sort, its
    /// input fails).
    fn spawn_forwarder(&self, src: QDesc, vq: Weak<VirtualQueue>) {
        let weak = self.downgrade();
        let forwarder = async move {
            let mut demanded = None;
            loop {
                let on_demand = loop {
                    let Some(vq) = vq.upgrade() else { return };
                    let Some(out) = &vq.out else { return };
                    if !vq.transform.lazy() || out.wanted.get() > 0 {
                        break vq.transform.lazy();
                    }
                    let wait = demanded.get_or_insert_with(|| out.demand.notified());
                    drop(vq);
                    wait.await;
                };
                let Some(inner) = weak.upgrade() else { return };
                let dk = Demikernel { inner };
                let popped = match dk.pop(src) {
                    // Build the (runtime-weak) future, then drop every
                    // strong handle before suspending: a parked forwarder
                    // holding the runtime would leak the world (Rc cycle
                    // through the scheduler).
                    Ok(qt) => {
                        let fut = dk.inner.runtime.await_op(qt);
                        drop(dk);
                        fut.await
                    }
                    Err(_) => OperationResult::Failed(DemiError::BadQDesc),
                };
                let (Some(inner), Some(vq)) = (weak.upgrade(), vq.upgrade()) else {
                    return;
                };
                let mut stats = inner.stats.borrow_mut();
                let landed = match (popped, &vq.transform) {
                    (OperationResult::Pop { from, sga }, Transform::Filter(_, pred)) => {
                        stats.cpu_filter_evals += 1;
                        if !pred(&sga) {
                            stats.filtered_out += 1;
                            continue;
                        }
                        Ok((from, sga))
                    }
                    (OperationResult::Pop { from, sga }, Transform::Map(_, f)) => {
                        stats.map_applications += 1;
                        Ok((from, f(sga)))
                    }
                    (OperationResult::Pop { from, sga }, _) => {
                        stats.forwarded += 1;
                        Ok((from, sga))
                    }
                    _ if !on_demand => return,
                    (OperationResult::Failed(e), _) => Err(e),
                    _ => Err(DemiError::InvalidState),
                };
                let Some(out) = &vq.out else { return };
                out.wanted.set(out.wanted.get().saturating_sub(1));
                out.items.borrow_mut().push_back(landed);
                out.added.notify_waiters();
            }
        };
        self.inner
            .runtime
            .spawn_background("ops::forwarder", forwarder);
    }

    /// `merge(qd1, qd2)`: a queue that pops from either input and pushes
    /// to both (paper §4.3).
    pub fn merge(&self, qd1: QDesc, qd2: QDesc) -> Result<QDesc, DemiError> {
        self.check_exists(qd1)?;
        self.check_exists(qd2)?;
        // One forwarder per input: pops flow into the merged buffer.
        Ok(self.alloc_virt(Transform::Merge([qd1, qd2]), &[qd1, qd2], true))
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
        // On the CPU, a forwarder evaluates the predicate for waiting pops.
        Ok(self.alloc_virt(Transform::Filter(qd, pred), &[qd], !on_device))
    }

    /// `sort(qd, higher_priority)`: a queue returning the highest-priority
    /// available element of `qd` (paper §4.3).
    pub fn sort(&self, qd: QDesc, higher_priority: SgaPriority) -> Result<QDesc, DemiError> {
        self.check_exists(qd)?;
        // Forwarder drains the base queue into the priority buffer.
        Ok(self.alloc_virt(Transform::Sort(qd, higher_priority), &[qd], true))
    }

    /// `map(qd, f)`: a queue applying `f` to every element in both
    /// directions (paper §4.3).
    pub fn map(&self, qd: QDesc, f: SgaMap) -> Result<QDesc, DemiError> {
        self.check_exists(qd)?;
        // A forwarder applies `f` for waiting pops.
        Ok(self.alloc_virt(Transform::Map(qd, f), &[qd], true))
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
            let vq = self.inner.virt.borrow_mut().remove(qd)?;
            // Parked pops re-check and fail `Closed`; a waiting forwarder
            // finds its queue gone and ends.
            if let Some(out) = &vq.out {
                out.added.notify_waiters();
                out.demand.notify_waiters();
            }
            Ok(())
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
        match &vq.transform {
            Transform::Merge([t1, t2]) => {
                // "A push to the merged queue results in a push to both."
                let parts = [self.push(*t1, sga)?, self.push(*t2, sga)?];
                // One slot parked on both pushes' slots.
                Ok(self.inner.runtime.join_op("ops::merge_push", parts))
            }
            Transform::Filter(target, pred) => {
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
            Transform::Sort(target, _) => self.push(*target, sga),
            Transform::Map(target, f) => {
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
        let out = match (&vq.out, &vq.transform) {
            (Some(out), _) => out,
            // The device already dropped non-matching elements.
            (None, Transform::Filter(target, _)) => return self.pop(*target),
            (None, _) => return Err(DemiError::InvalidState),
        };
        let name = match vq.transform {
            Transform::Merge(_) => "ops::merge_pop",
            Transform::Filter(..) => "ops::filter_pop",
            Transform::Sort(..) => "ops::sort_pop",
            Transform::Map(..) => "ops::map_pop",
        };
        if vq.transform.lazy() {
            // Demand for the forwarder.
            out.wanted.set(out.wanted.get() + 1);
            out.demand.notify_waiters();
        }
        let (rt, check) = (&self.inner.runtime, self.inner.pop.clone());
        Ok(rt.park_op(name, &out.added, check, qd, 0))
    }
}

/// The check of a parked virtual-queue pop: the oldest landed element, or
/// for a sort the highest-priority one; `Closed` once the queue is closed.
fn landed(virt: &VirtualQueues, qd: QDesc) -> Option<OperationResult> {
    // The queue is cloned out so the user's comparator runs unborrowed.
    let Ok(vq) = virt.borrow().get(qd).cloned() else {
        return Some(OperationResult::Failed(DemiError::Closed));
    };
    let mut items = vq.out.as_ref()?.items.borrow_mut();
    let landed = match &vq.transform {
        Transform::Sort(_, higher_priority) => {
            // A sort lands nothing but elements.
            let sga = |i: usize| items[i].as_ref().ok().map(|(_, sga)| sga);
            let better = |best, i| matches!((sga(i), sga(best)), (Some(a), Some(b)) if higher_priority(a, b));
            let best = (1..items.len()).fold(0, |best, i| if better(best, i) { i } else { best });
            items.remove(best)?
        }
        _ => items.pop_front()?,
    };
    Some(landed.map_or_else(OperationResult::Failed, |(from, sga)| {
        OperationResult::Pop { from, sga }
    }))
}

#[cfg(test)]
mod tests;

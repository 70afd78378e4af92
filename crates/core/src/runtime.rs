//! The shared runtime behind qtokens and `wait_*`.
//!
//! Every queue operation a libOS starts takes one slot in this runtime's
//! generational op slab; the returned [`QToken`] names the slot, and
//! [`Runtime::wait`] / [`Runtime::wait_any`] / [`Runtime::wait_all`]
//! drive the world until the named operations complete (paper §4.4). An
//! operation is one of two things. One whose result is known when the
//! libOS call returns records a completed slot and nothing else. One that
//! must block *parks* in its slot ([`Runtime::park_op`]): its gate and
//! check live there, and the runtime re-runs the check each time the gate
//! fires, allocating nothing. The device work such an op waits on is moved
//! by the libOS's poller, so a check only reads, and consumes, its own
//! result. (A merged queue's push parks on its two inner slots instead of
//! a gate.) Coroutines are for long-running service loops only —
//! forwarders, `qconnect` — which compose ops through [`Runtime::await_op`].
//!
//! One `Runtime` is shared by every libOS instance in a simulation:
//! client and server co-run on one virtual CPU, and when every task is
//! blocked the runtime advances virtual time to the next event — a fabric
//! delivery, a protocol timer, or a device completion (registered as
//! *deadline sources*).
//!
//! `wait` gives the paper's two improvements over epoll by construction:
//! it returns the completed operation's data directly (no second syscall),
//! and exactly one waiter resolves per completion (each qtoken names one
//! operation).
//!
//! Scheduling is waker-driven: a `wait` runs scheduler passes only while
//! the run queue is non-empty. A parked operation is a *keyed* scheduler
//! task (its poll is the slot's re-check), so it runs in the one run queue
//! with the service coroutines, which park on per-qtoken completion wakers
//! ([`Runtime::await_op`]), timer deadlines or the same gates. There is
//! one readiness path: every gate belongs to the object whose state the
//! op waits on — a socket in the network stack, a catmem queue, a catfs
//! log, a catcorn device or connection — and fires where that state
//! rises, so a frame, a completion or a timer wakes only the ops it made
//! ready. Deadlock is not a spin-count heuristic: when a pass polls
//! nothing, nothing external moved, and virtual time cannot advance, the
//! wait is declared deadlocked at once — sound because every state change
//! wakes its waiters (§4.4), which debug builds check there by polling
//! every live task once more and panicking, naming them, if one completes.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use demi_sched::{Notified, Notify, Scheduler, TimerService};
use demi_telemetry::span::{self, OpSpan, SpanPoint};
use sim_fabric::{Fabric, SimClock, SimTime};

use crate::metrics::Metrics;
use crate::types::{DemiError, OperationResult, QDesc, QToken};

/// A parked operation's check: given its queue and its own number (a catfs
/// push's commit; every other check ignores it), its result once there is
/// one. Shared by every op of a kind. It runs with the op slab borrowed,
/// so it must never reach the runtime — it captures cycle-free pieces
/// only, never a `Runtime`.
pub(crate) type Check = Rc<dyn Fn(QDesc, u64) -> Option<OperationResult>>;
type ParkedPoll = Rc<dyn Fn(u64, &mut Context<'_>) -> Poll<()>>;

/// A device-poll hook run on every scheduler pass; returns how many work
/// items (frames, completions, readiness transitions) it processed, so the
/// runtime can tell external progress from idle spinning.
type Poller = Box<dyn Fn() -> usize>;
/// A source of timer deadlines consulted when all tasks block.
type DeadlineSource = Box<dyn Fn() -> Option<SimTime>>;

/// What one pump did: the scheduler's pass counters plus the external work
/// (frames delivered, poller work items, timers fired) that happened around
/// it.
#[derive(Debug, Clone, Copy, Default)]
struct PumpReport {
    completed: usize,
    polled: usize,
    external: usize,
}

impl PumpReport {
    /// Whether this pass moved anything (frames, polls, or task progress).
    fn has_work(&self) -> bool {
        self.completed > 0 || self.polled > 0 || self.external > 0
    }
}

/// One slot's place in the op lifecycle: free → parked | joined |
/// complete → consumed (free again, generation bumped).
enum OpState {
    Free,
    /// Blocked on a gate; the runtime re-runs its check when it fires.
    Parked(Parked),
    /// Blocked on other ops' slots, consumed as they complete.
    Joined(Join),
    /// The result, waiting to be consumed exactly once.
    Complete(OperationResult),
}

/// A blocked operation: the check-then-park loop on one [`Notified`],
/// without a coroutine.
struct Parked {
    gate: Notify,
    /// The gate snapshot, taken at the first check.
    wait: Option<Notified>,
    check: Check,
    qd: QDesc,
    seq: u64,
}

impl Parked {
    /// The check runs first and after each notification, until it yields.
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll<OperationResult> {
        let mut checked = self.wait.is_some();
        let wait = self.wait.get_or_insert_with(|| self.gate.notified());
        loop {
            if checked && Pin::new(&mut *wait).poll(cx).is_pending() {
                return Poll::Pending;
            }
            checked = true;
            if let Some(result) = (self.check)(self.qd, self.seq) {
                return Poll::Ready(result);
            }
        }
    }
}

/// Two pushes as one op (a merged queue's push is a push to each input):
/// it consumes them in order, as [`Runtime::await_op`] does, its task's
/// waker parked on the one it waits for, and keeps only the first failure
/// (a part that is not a push fails it `InvalidState`).
#[derive(Clone)]
struct Join {
    parts: [QToken; 2],
    /// How many parts were consumed.
    taken: usize,
    failed: Option<DemiError>,
}

impl Join {
    fn poll(&mut self, ops: &mut OpSlab, cx: &mut Context<'_>) -> Poll<OperationResult> {
        while let Some(&part) = self.parts.get(self.taken) {
            let failure = match ops.take(part, Some(cx.waker()), None) {
                Ok(None) => return Poll::Pending,
                Ok(Some((OperationResult::Push, _))) => None,
                Ok(Some((OperationResult::Failed(e), _))) | Err(e) => Some(e),
                Ok(Some(_)) => Some(DemiError::InvalidState),
            };
            self.taken += 1;
            self.failed = self.failed.take().or(failure);
        }
        Poll::Ready(
            self.failed
                .take()
                .map_or(OperationResult::Push, OperationResult::Failed),
        )
    }
}

/// Everything the runtime knows about one queue operation.
struct OpSlot {
    /// Bumped when the slot is consumed, so the token of a consumed
    /// operation stays dead after the slot is reissued. Starts at 1: no
    /// small integer is ever a live token.
    gen: u32,
    state: OpState,
    /// The submission instant (the telemetry anchor for op latency).
    started: SimTime,
    /// The op's span, entered at `started`, if span capture was on then;
    /// it goes to the span ring when the op is consumed.
    span: Option<OpSpan>,
    /// The task parked on this operation: a coroutine in
    /// [`Runtime::await_op`], or the merged push joined on it.
    waker: Option<Waker>,
    /// Set by the `wait_any`/`wait_all` call watching this token: that
    /// call's epoch (0 = never watched) and the token's index in its slice.
    wait_epoch: u64,
    wait_index: usize,
}

/// The generational op slab. A [`QToken`] packs `generation << 32 | slot`
/// (the `ConnId` idiom of the TCP control-block slab).
#[derive(Default)]
struct OpSlab {
    slots: Vec<OpSlot>,
    free: Vec<u32>,
    /// The latest `wait_any`/`wait_all` call. A slot tagged with it reports
    /// its completion through `arrivals`, so that call learns of
    /// completions in arrival order, O(1) each, instead of rescanning its
    /// tokens every pump pass.
    epoch: u64,
    /// `(index in the watching call's slice, token)`. Only a conduit:
    /// entries whose token was meanwhile consumed through `wait`/`await_op`
    /// are skipped, and each multi-wait starts it empty.
    arrivals: VecDeque<(usize, QToken)>,
}

impl OpSlab {
    /// Takes a slot for an op submitted at `started`, with a span named
    /// `traced` when span capture is on.
    fn alloc(&mut self, state: OpState, started: SimTime, traced: Option<&'static str>) -> QToken {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(OpSlot {
                gen: 1,
                state: OpState::Free,
                started,
                span: None,
                waker: None,
                wait_epoch: 0,
                wait_index: 0,
            });
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 operations in flight")
        });
        let slot = &mut self.slots[index as usize];
        let qt = QToken(u64::from(slot.gen) << 32 | u64::from(index));
        slot.span = traced.map(|name| {
            let mut span = OpSpan::new(qt.0, name, started.as_nanos());
            if matches!(state, OpState::Complete(_)) {
                span.note(SpanPoint::Completed, started.as_nanos());
            }
            span
        });
        (slot.state, slot.started, slot.wait_epoch) = (state, started, 0);
        qt
    }

    /// The live slot `qt` names, if its generation is still current.
    fn slot(&mut self, qt: QToken) -> Option<&mut OpSlot> {
        let slot = self.slots.get_mut(qt.0 as u32 as usize)?;
        let live = slot.gen == (qt.0 >> 32) as u32 && !matches!(slot.state, OpState::Free);
        live.then_some(slot)
    }

    /// Consumes `qt` if complete, yielding its result and submission
    /// instant and recording its span — delivery-stamped on `delivery`,
    /// the clock of the wait consuming it; until then, parks `waker` (if
    /// given) on it.
    fn take(
        &mut self,
        qt: QToken,
        waker: Option<&Waker>,
        delivery: Option<&SimClock>,
    ) -> Result<Option<(OperationResult, SimTime)>, DemiError> {
        let slot = self.slot(qt).ok_or(DemiError::BadQToken)?;
        if !matches!(slot.state, OpState::Complete(_)) {
            if let Some(waker) = waker {
                slot.waker = Some(waker.clone());
            }
            return Ok(None);
        }
        slot.gen = slot.gen.wrapping_add(1);
        let OpState::Complete(result) = std::mem::replace(&mut slot.state, OpState::Free) else {
            unreachable!("a live slot is parked, joined or complete");
        };
        if let Some(mut span) = slot.span.take() {
            if let Some(clock) = delivery {
                span.note(SpanPoint::Delivered, clock.now().as_nanos());
            }
            span::record(span);
        }
        let started = slot.started;
        self.free.push(qt.0 as u32);
        Ok(Some((result, started)))
    }

    /// Stamps a poll of `qt`'s op that [`poll_start`] opened at `start`
    /// on its span: the first poll, the device handoff it made, and its
    /// completion (now) if it was `ready`.
    #[inline]
    fn stamp(&mut self, qt: QToken, start: Option<u64>, ready: bool, clock: &SimClock) {
        let Some(start) = start else {
            return;
        };
        let Some(span) = self.slot(qt).and_then(|slot| slot.span.as_mut()) else {
            return;
        };
        span.note(SpanPoint::FirstPoll, start);
        if let Some(at) = span::take_handoff() {
            span.note(SpanPoint::DeviceHandoff, at);
        }
        if ready {
            span.note(SpanPoint::Completed, clock.now().as_nanos());
        }
    }

    /// Records the result of `qt`'s operation and tells the wait watching
    /// it, if any; returns the parked awaiter to wake.
    fn complete(&mut self, qt: QToken, result: OperationResult) -> Option<Waker> {
        let epoch = self.epoch;
        let slot = self.slot(qt)?;
        slot.state = OpState::Complete(result);
        let waker = slot.waker.take();
        if slot.wait_epoch == epoch && epoch > 0 {
            let arrival = (slot.wait_index, qt);
            self.arrivals.push_back(arrival);
        }
        waker
    }
}

struct Inner {
    scheduler: Scheduler,
    clock: SimClock,
    timers: TimerService,
    fabric: Option<Fabric>,
    pollers: RefCell<Vec<Poller>>,
    deadline_sources: RefCell<Vec<DeadlineSource>>,
    ops: RefCell<OpSlab>,
    /// An operation completed at submission since the pollers last ran:
    /// what it enqueued (a frame on a TX ring) may still be sitting there.
    unflushed: Cell<bool>,
    metrics: Metrics,
    /// Every parked operation's task poll ([`poll_parked`]).
    poll_parked: ParkedPoll,
}

/// The shared runtime (cheaply cloneable handle).
#[derive(Clone)]
pub struct Runtime {
    inner: Rc<Inner>,
}

impl Runtime {
    /// A runtime with its own fresh clock (catmem/catfs worlds).
    pub fn new() -> Self {
        Self::build(SimClock::new(), None)
    }

    /// A runtime sharing a fabric's clock; blocked waits advance the
    /// fabric's event queue.
    pub fn with_fabric(fabric: Fabric) -> Self {
        Self::build(fabric.clock(), Some(fabric))
    }

    /// A runtime on an existing clock (e.g., rebuilding a libOS over a
    /// device that outlives its first runtime).
    pub fn with_clock(clock: SimClock) -> Self {
        Self::build(clock, None)
    }

    fn build(clock: SimClock, fabric: Option<Fabric>) -> Self {
        Runtime {
            inner: Rc::new_cyclic(|runtime: &Weak<Inner>| Inner {
                scheduler: Scheduler::new(),
                timers: TimerService::new(clock.clone()),
                clock,
                fabric,
                pollers: RefCell::new(Vec::new()),
                deadline_sources: RefCell::new(Vec::new()),
                ops: RefCell::default(),
                unflushed: Cell::new(false),
                metrics: Metrics::new(),
                poll_parked: {
                    let runtime = runtime.clone();
                    Rc::new(move |key, cx| poll_parked(&runtime, QToken(key), cx))
                },
            }),
        }
    }

    /// The virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.clock.now()
    }

    /// Virtual-time timers for libOS coroutines.
    pub fn timers(&self) -> &TimerService {
        &self.inner.timers
    }

    /// The coroutine scheduler (for spawning background service loops).
    pub fn scheduler(&self) -> &Scheduler {
        &self.inner.scheduler
    }

    /// Data-path metrics shared by every libOS on this runtime.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Registers a function run on every scheduler pass (device RX pumps,
    /// stack `poll()`s). The poller reports how many work items it
    /// processed; `0` means "nothing happened", letting the runtime detect
    /// quiescence without spin counting.
    pub(crate) fn register_poller(&self, poller: impl Fn() -> usize + 'static) {
        self.inner.pollers.borrow_mut().push(Box::new(poller));
    }

    /// Registers a source of timer deadlines consulted when all tasks are
    /// blocked (TCP RTO, device completion times, ...).
    pub(crate) fn register_deadline_source(&self, source: impl Fn() -> Option<SimTime> + 'static) {
        self.inner
            .deadline_sources
            .borrow_mut()
            .push(Box::new(source));
    }

    /// Opens the slot (and, with span capture on, the span) of one
    /// operation.
    fn begin_op(&self, name: &'static str, state: OpState) -> QToken {
        let started = self.inner.clock.now();
        let traced = span::enabled().then_some(name);
        self.inner.ops.borrow_mut().alloc(state, started, traced)
    }

    /// The one parking path: an operation on `qd` that runs
    /// `check(qd, seq)` when first polled and again each time `gate` is
    /// notified (one that lands between a check and the park is not lost),
    /// parked at zero polls in between. It lives in its slot and runs as a
    /// keyed task: once warm, parking allocates nothing.
    pub fn park_op(
        &self,
        name: &'static str,
        gate: &Notify,
        check: Check,
        qd: QDesc,
        seq: u64,
    ) -> QToken {
        let parked = Parked {
            gate: gate.clone(),
            wait: None,
            check,
            qd,
            seq,
        };
        self.keyed_op(name, OpState::Parked(parked))
    }

    /// Two pushes, `parts`, as one operation: it completes once both have,
    /// as a push, or with the first failure. Like a parked op it is a keyed
    /// task, parked on the parts' slots.
    pub(crate) fn join_op(&self, name: &'static str, parts: [QToken; 2]) -> QToken {
        let (taken, failed) = (0, None);
        self.keyed_op(
            name,
            OpState::Joined(Join {
                parts,
                taken,
                failed,
            }),
        )
    }

    /// A blocked op's slot, polled by a keyed task ([`poll_parked`]).
    fn keyed_op(&self, name: &'static str, state: OpState) -> QToken {
        let qt = self.begin_op(name, state);
        let poll = self.inner.poll_parked.clone();
        self.inner.scheduler.spawn_keyed(name, qt.0, poll);
        qt
    }

    /// An operation whose result `op` computes: a slot parked on a fresh
    /// gate that a background task running `op` fires once the result is
    /// where the slot's check takes it. No libOS op is built this way; the
    /// perf ledger's `core.runtime.qtoken_ns` rig times one.
    pub fn spawn_op<F>(&self, name: &'static str, op: F) -> QToken
    where
        F: Future<Output = OperationResult> + 'static,
    {
        let (gate, result) = (Notify::new(), Rc::new(Cell::new(None)));
        let (fire, slot) = (gate.clone(), result.clone());
        self.spawn_background(name, async move {
            slot.set(Some(op.await));
            fire.notify_waiters();
        });
        self.park_op(name, &gate, Rc::new(move |_, _| result.take()), QDesc(0), 0)
    }

    /// The qtoken of an operation whose result is known as the libOS call
    /// returns (a push the stack accepted): a completed slot, no task.
    /// `wait` and `await_op` resolve it without a scheduler pass.
    pub(crate) fn complete_op(&self, name: &'static str, result: OperationResult) -> QToken {
        let qt = self.begin_op(name, OpState::Complete(result));
        self.inner.unflushed.set(true);
        qt
    }

    /// Spawns a detached background coroutine (service loops: forwarders,
    /// `qconnect`).
    pub fn spawn_background<F>(&self, name: &'static str, task: F)
    where
        F: Future<Output = ()> + 'static,
    {
        self.inner.scheduler.spawn_detached(name, task);
    }

    /// One cooperative pass: deliver due frames, run device pollers, fire
    /// due timers, then one scheduler pass over the *woken* tasks. Returns
    /// the number of tasks that completed.
    ///
    /// Frame delivery must happen here and not only in the internal advance
    /// because virtual time also moves through *cost charges* (the
    /// simulated kernel charging syscall/copy time); frames whose delivery
    /// instant has been passed that way must still arrive promptly.
    pub fn pump(&self) -> usize {
        self.pump_report().completed
    }

    /// Runs the world for `dur` of virtual time with no application work
    /// outstanding: pumps ready work and advances the clock through every
    /// pending event (frame deliveries, delayed ACKs, retransmit timers)
    /// until `now + dur` is reached or nothing can move. Lets in-flight
    /// protocol state quiesce — e.g., a device offload re-arms only once
    /// the host connection has nothing unacknowledged.
    pub fn settle(&self, dur: SimTime) {
        let deadline = self.now().saturating_add(dur);
        loop {
            while self.pump_report().has_work() {}
            if self.now() >= deadline || !self.advance(Some(deadline)) {
                return;
            }
        }
    }

    /// Runs every device poller once; returns the work items they report.
    fn run_pollers(&self) -> usize {
        self.inner.unflushed.set(false);
        self.inner.pollers.borrow().iter().map(|poll| poll()).sum()
    }

    fn pump_report(&self) -> PumpReport {
        let mut external = match &self.inner.fabric {
            Some(fabric) => fabric.deliver_due(),
            None => 0,
        };
        external += self.run_pollers();
        external += self.inner.timers.fire_due();
        // Run a scheduler pass only when there is woken work to run.
        let pass = if self.inner.scheduler.has_runnable() {
            self.inner.scheduler.run_pass()
        } else {
            Default::default()
        };
        PumpReport {
            completed: pass.completed,
            polled: pass.polled,
            external,
        }
    }

    /// Advances virtual time to the earliest pending event, bounded by
    /// `limit`. Returns `false` when nothing can advance.
    fn advance(&self, limit: Option<SimTime>) -> bool {
        let now = self.inner.clock.now();
        // Frames already due (their delivery instant was passed by a cost
        // charge) are pending work, not a reason to jump the clock: deliver
        // them and report progress so the next pump processes them.
        if let Some(fabric) = &self.inner.fabric {
            if fabric.next_event_time().is_some_and(|t| t <= now) {
                fabric.deliver_due();
                return true;
            }
        }
        let fabric_next = self.inner.fabric.as_ref().and_then(Fabric::next_event_time);
        let sources = self.inner.deadline_sources.borrow();
        let earliest = [fabric_next, self.inner.timers.earliest_deadline()]
            .into_iter()
            .chain(sources.iter().map(|source| source()))
            .flatten()
            .filter(|&t| t > now)
            .min();
        let target = match (earliest, limit) {
            // A wait deadline that comes first is advanced to exactly, so
            // the timeout fires without skipping events.
            (Some(t), Some(limit)) => t.min(limit),
            (Some(t), None) => t,
            // Nothing else pending, but the caller has a wait deadline:
            // advance straight to it so the timeout can fire.
            (None, Some(limit)) if limit > now => limit,
            _ => return false,
        };
        self.inner.clock.advance_to(target);
        if let Some(fabric) = &self.inner.fabric {
            fabric.deliver_due();
        }
        // Wake the sleepers whose deadlines were just reached.
        self.inner.timers.fire_due();
        true
    }

    /// Debug builds' witness of the quiescence rule: polled once more
    /// (spurious polls), no live task of a quiescent world completes or
    /// wakes another — one that did changed state without a wake, and a
    /// release build would report its wait deadlocked.
    #[cfg(debug_assertions)]
    fn assert_quiescent(&self) {
        let scheduler = &self.inner.scheduler;
        let live = scheduler.live_task_names();
        let report = scheduler.sweep_pass();
        assert!(
            report.completed == 0 && !scheduler.has_runnable(),
            "a task changed state without a wake at {:?}; live tasks: {live:?}",
            self.now()
        );
        // A parked op's task polls its gate before its check, so the sweep
        // cannot see a check its unfired gate hides: run each one here.
        for slot in &self.inner.ops.borrow().slots {
            if let OpState::Parked(parked) = &slot.state {
                let done = (parked.check)(parked.qd, parked.seq);
                assert!(
                    done.is_none(),
                    "the op parked on queue {:?} would complete, but its gate never fired \
                     (a state change without a wake) at {:?}: {done:?}",
                    parked.qd,
                    self.now()
                );
            }
        }
    }

    /// Consumes `qt` if its operation has completed (`Ok(None)` while it
    /// is pending) — one slot probe — and, as the wait delivering it,
    /// records the wakeup and the wait-delivery telemetry (end-to-end op
    /// latency, and the span's delivery stamp).
    fn take(&self, qt: QToken) -> Result<Option<OperationResult>, DemiError> {
        self.inner.metrics.count_completion_checks(1);
        let clock = &self.inner.clock;
        let taken = self.inner.ops.borrow_mut().take(qt, None, Some(clock))?;
        let Some((result, started)) = taken else {
            return Ok(None);
        };
        if demi_telemetry::enabled() {
            demi_telemetry::stage::record(
                demi_telemetry::stage::Stage::OpLatency,
                clock.now().saturating_since(started).as_nanos(),
            );
        }
        self.inner
            .metrics
            .count_wakeup(matches!(result, OperationResult::Pop { .. }));
        // The liveness rule of completion at submission: a wait that
        // consumes a token without pumping still hands what the operation
        // enqueued to the device — a sender that only ever does `pushto;
        // wait` must transmit. Fabric delivery, timers and the run queue
        // are left to the next wait that blocks.
        if self.inner.unflushed.get() {
            self.run_pollers();
        }
        Ok(Some(result))
    }

    /// Entry of `wait_any`/`wait_all`: validates every token and tags its
    /// slot with a fresh epoch and its index in `qts`, so its completion
    /// arrives through the slab's conduit — at once, in index order, for
    /// tokens already complete (lowest caller index wins). O(tokens), once
    /// per call. A token named twice keeps its first index, or fails the
    /// call when `reject_duplicates`.
    fn watch(&self, qts: &[QToken], reject_duplicates: bool) -> Result<(), DemiError> {
        self.inner.metrics.count_completion_checks(qts.len() as u64);
        let mut ops = self.inner.ops.borrow_mut();
        ops.epoch += 1;
        ops.arrivals.clear();
        let epoch = ops.epoch;
        for (i, &qt) in qts.iter().enumerate() {
            let slot = ops.slot(qt).ok_or(DemiError::BadQToken)?;
            if slot.wait_epoch == epoch {
                if reject_duplicates {
                    return Err(DemiError::BadQToken);
                }
                continue;
            }
            (slot.wait_epoch, slot.wait_index) = (epoch, i);
            if matches!(slot.state, OpState::Complete(_)) {
                ops.arrivals.push_back((i, qt));
            }
        }
        Ok(())
    }

    /// Consumes the next completion among the watched tokens; yields its
    /// caller index and result. Cost is O(arrivals since the last call),
    /// independent of how many tokens the wait covers.
    fn next_arrival(&self) -> Option<(usize, OperationResult)> {
        loop {
            let (i, qt) = self.inner.ops.borrow_mut().arrivals.pop_front()?;
            // An error: consumed meanwhile through `wait`/`await_op`, so
            // not this wait's any more.
            if let Ok(Some(result)) = self.take(qt) {
                return Some((i, result));
            }
        }
    }

    /// The shared loop under every wait: let the caller consume what has
    /// completed — first before anything is pumped, so a satisfied wait
    /// costs no pass — then pump the world and otherwise advance virtual
    /// time, declaring deadlock on the first quiescent pass.
    fn drive_wait<T>(
        &self,
        timeout: Option<SimTime>,
        mut step: impl FnMut() -> Result<Option<T>, DemiError>,
    ) -> Result<T, DemiError> {
        if let Some(value) = step()? {
            return Ok(value);
        }
        let deadline = timeout.map(|d| self.now().saturating_add(d));
        loop {
            let report = self.pump_report();
            self.inner.metrics.count_wait_pass(report.polled as u64);
            if let Some(value) = step()? {
                return Ok(value);
            }
            if deadline.is_some_and(|deadline| self.now() >= deadline) {
                return Err(DemiError::Timeout);
            }
            // A pump pass runs pollers *before* the scheduler, so a
            // coroutine polled this pass may have enqueued frames on a TX
            // coalescing ring that no poller has flushed yet — work
            // invisible to `advance` (no fabric event exists until the
            // flush). Jumping the clock here would hold those frames
            // across the jump, charging them whole timer gaps of latency.
            // Run the pollers once more after any task polls so every
            // pending frame reaches the fabric; if that surfaces real
            // work, reprocess it before the clock is allowed to move.
            let advanced = if report.completed > 0 || report.polled > 0 && self.run_pollers() > 0 {
                false
            } else {
                self.advance(deadline)
            };
            if advanced || report.has_work() {
                continue;
            }
            // Quiescent — no woken tasks, no external work, no time to
            // advance: nothing can move again.
            #[cfg(debug_assertions)]
            self.assert_quiescent();
            return Err(DemiError::Deadlock);
        }
    }

    /// Blocks (cooperatively) until the operation named by `qt` completes.
    ///
    /// Returns the operation's result *with its data* — no follow-up call
    /// is needed. `timeout` of `None` waits forever (bounded by deadlock
    /// detection). A token already complete costs one slot probe (plus the
    /// device kick of the liveness rule); nothing is allocated either way.
    pub fn wait(&self, qt: QToken, timeout: Option<SimTime>) -> Result<OperationResult, DemiError> {
        self.drive_wait(timeout, || self.take(qt))
    }

    /// Waits for the first of `qts` to complete; returns its index and
    /// result (the paper's improved epoll, §4.4). Completed tokens are
    /// consumed; the rest stay valid. An empty `qts` names nothing that
    /// could complete: [`DemiError::BadQToken`].
    ///
    /// Completion delivery is O(1) per pump pass: one entry scan tags the
    /// tokens' slots, then the loop only pops the slab's arrival conduit —
    /// the per-pass cost does not multiply by how many tokens the call
    /// watches (E13). Among tokens complete on entry the lowest caller
    /// index wins; after that, the first to arrive.
    ///
    /// The wait loop is event-driven, not spin-bounded: every iteration
    /// either ran woken tasks, absorbed external work, or advanced virtual
    /// time. When none of those is possible the world is quiescent and the
    /// wait reports [`DemiError::Deadlock`] deterministically; no task
    /// that was not woken is polled again (debug builds check that none
    /// would have completed).
    pub fn wait_any(
        &self,
        qts: &[QToken],
        timeout: Option<SimTime>,
    ) -> Result<(usize, OperationResult), DemiError> {
        if qts.is_empty() {
            return Err(DemiError::BadQToken);
        }
        self.watch(qts, false)?;
        self.drive_wait(timeout, || Ok(self.next_arrival()))
    }

    /// Waits until *all* of `qts` complete (or the timeout expires).
    /// Results are returned in token order; a token named twice can only
    /// resolve once, so it fails the call like an already-consumed one. A
    /// timeout consumes nothing.
    ///
    /// Drives one wait loop counting completions as they arrive — not a
    /// `wait_any` per token, which rescanned the survivors after every
    /// completion (O(n²) over the batch) — then consumes them all.
    pub fn wait_all(
        &self,
        qts: &[QToken],
        timeout: Option<SimTime>,
    ) -> Result<Vec<OperationResult>, DemiError> {
        self.watch(qts, true)?;
        let mut missing = qts.len();
        self.drive_wait(timeout, || {
            missing -= self.inner.ops.borrow_mut().arrivals.drain(..).count();
            Ok((missing == 0).then_some(()))
        })?;
        let take = |&qt: &QToken| self.take(qt)?.ok_or(DemiError::BadQToken);
        qts.iter().map(take).collect()
    }

    /// Number of unresolved qtokens (diagnostics). A token never waited on
    /// keeps its slot, and counts here, for the life of the runtime.
    pub fn outstanding(&self) -> usize {
        let ops = self.inner.ops.borrow();
        ops.slots.len() - ops.free.len()
    }

    /// A future resolving when the operation named by `qt` completes —
    /// the coroutine-level counterpart of [`Runtime::wait`], used by queue
    /// transformations to compose operations inside the scheduler. The
    /// awaiting coroutine parks on the operation's slot (one awaiter per
    /// token: a later one replaces an earlier one's registration) and is
    /// woken exactly once, when the operation finishes; an operation
    /// completed at submission resolves on the first poll.
    ///
    /// Resolves to `Failed(BadQToken)` for unknown/consumed tokens.
    pub fn await_op(&self, qt: QToken) -> OpFuture {
        OpFuture {
            runtime: Rc::downgrade(&self.inner),
            qt,
        }
    }
}

/// Opens an op poll: with span capture on (otherwise this is one
/// thread-local bool read), clears the device-handoff cell, so a handoff
/// it holds after the poll was the poll's, and yields the poll's start
/// for [`OpSlab::stamp`].
fn poll_start(clock: &SimClock) -> Option<u64> {
    span::enabled().then(|| {
        span::take_handoff();
        clock.now().as_nanos()
    })
}

/// A parked or joined operation's task poll: re-runs its check, or takes
/// its parts, in place, in its slot — which is why a check must never
/// reach the runtime — and completes the slot once that yields. The task
/// is the only way out of `Parked` and `Joined`.
fn poll_parked(runtime: &Weak<Inner>, qt: QToken, cx: &mut Context<'_>) -> Poll<()> {
    let Some(inner) = runtime.upgrade() else {
        return Poll::Ready(());
    };
    let mut ops = inner.ops.borrow_mut();
    let start = poll_start(&inner.clock);
    let polled = match ops.slot(qt).map(|slot| &mut slot.state) {
        Some(OpState::Parked(parked)) => parked.poll(cx),
        Some(OpState::Joined(join)) => {
            // Polled on a copy: taking a part borrows the slab.
            let mut join = join.clone();
            let polled = join.poll(&mut ops, cx);
            if let Some(slot) = ops.slot(qt) {
                slot.state = OpState::Joined(join);
            }
            polled
        }
        _ => return Poll::Ready(()),
    };
    ops.stamp(qt, start, polled.is_ready(), &inner.clock);
    let Poll::Ready(result) = polled else {
        return Poll::Pending;
    };
    // The result goes into the slot; its awaiter wakes once it is released.
    let awaiter = ops.complete(qt, result);
    drop(ops);
    if let Some(waker) = awaiter {
        waker.wake();
    }
    Poll::Ready(())
}

/// Future returned by [`Runtime::await_op`].
///
/// Holds the runtime weakly: this future lives inside a spawned coroutine,
/// which the scheduler (owned by the runtime) owns in turn — a strong
/// `Runtime` here would close an Rc cycle and leak the world.
pub struct OpFuture {
    runtime: Weak<Inner>,
    qt: QToken,
}

impl Future for OpFuture {
    type Output = OperationResult;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<OperationResult> {
        // A runtime being torn down has nothing left to wait for.
        let taken = match self.runtime.upgrade() {
            // Consumed inside a composing coroutine, not by a wait: the
            // span is recorded without a delivery stamp.
            Some(inner) => inner.ops.borrow_mut().take(self.qt, Some(cx.waker()), None),
            None => Err(DemiError::BadQToken),
        };
        match taken {
            Err(e) => Poll::Ready(OperationResult::Failed(e)),
            Ok(None) => Poll::Pending,
            Ok(Some((result, _started))) => Poll::Ready(result),
        }
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Runtime(now={:?}, outstanding={})",
            self.now(),
            self.outstanding()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Sga;
    use demi_sched::yield_once;

    /// An op whose result `op` computes: parked on a test-owned gate that
    /// a background task fires once `op` is done.
    fn deferred(
        rt: &Runtime,
        name: &'static str,
        op: impl Future<Output = OperationResult> + 'static,
    ) -> QToken {
        let (gate, result) = (Notify::new(), Rc::new(Cell::new(None)));
        let check: Check = {
            let result = result.clone();
            Rc::new(move |_, _| result.take())
        };
        let fire = gate.clone();
        rt.spawn_background(name, async move {
            result.set(Some(op.await));
            fire.notify_waiters();
        });
        rt.park_op(name, &gate, check, QDesc(0), 0)
    }

    #[test]
    fn wait_returns_result_directly() {
        let rt = Runtime::new();
        let qt = deferred(&rt, "instant", async { OperationResult::Push });
        let result = rt.wait(qt, None).unwrap();
        assert!(matches!(result, OperationResult::Push));
        assert_eq!(rt.outstanding(), 0);
    }

    #[test]
    fn waiting_twice_on_one_token_is_an_error() {
        let rt = Runtime::new();
        let qt = deferred(&rt, "instant", async { OperationResult::Push });
        rt.wait(qt, None).unwrap();
        assert_eq!(rt.wait(qt, None), Err(DemiError::BadQToken));
    }

    #[test]
    fn wait_any_resolves_exactly_one() {
        let rt = Runtime::new();
        let slow = deferred(&rt, "slow", async {
            for _ in 0..10 {
                yield_once().await;
            }
            OperationResult::Push
        });
        let fast = deferred(&rt, "fast", async {
            OperationResult::Pop {
                from: None,
                sga: Sga::from_slice(b"data"),
            }
        });
        let (idx, result) = rt.wait_any(&[slow, fast], None).unwrap();
        assert_eq!(idx, 1);
        let (_, sga) = result.expect_pop();
        assert_eq!(sga.to_vec(), b"data");
        // The slow token is still valid and waitable.
        assert!(matches!(
            rt.wait(slow, None).unwrap(),
            OperationResult::Push
        ));
    }

    #[test]
    fn wait_all_returns_in_token_order() {
        let rt = Runtime::new();
        let a = deferred(&rt, "a", async {
            for _ in 0..5 {
                yield_once().await;
            }
            OperationResult::Connect
        });
        let b = deferred(&rt, "b", async { OperationResult::Push });
        let results = rt.wait_all(&[a, b], None).unwrap();
        assert!(matches!(results[0], OperationResult::Connect));
        assert!(matches!(results[1], OperationResult::Push));
    }

    #[test]
    fn timeout_fires_in_virtual_time() {
        let rt = Runtime::new();
        let timers = rt.timers().clone();
        let qt = deferred(&rt, "sleepy", async move {
            timers.sleep(SimTime::from_millis(10)).await;
            OperationResult::Push
        });
        // 1ms timeout on a 10ms sleep: times out, token stays valid.
        assert_eq!(
            rt.wait(qt, Some(SimTime::from_millis(1))),
            Err(DemiError::Timeout)
        );
        // Waiting again without timeout completes at the 10ms mark.
        let result = rt.wait(qt, None).unwrap();
        assert!(matches!(result, OperationResult::Push));
        assert_eq!(rt.now(), SimTime::from_millis(10));
    }

    #[test]
    fn blocked_wait_advances_virtual_time_through_timers() {
        let rt = Runtime::new();
        let timers = rt.timers().clone();
        let qt = deferred(&rt, "timer", async move {
            timers.sleep(SimTime::from_micros(500)).await;
            OperationResult::Push
        });
        rt.wait(qt, None).unwrap();
        assert_eq!(rt.now(), SimTime::from_micros(500));
    }

    /// A parked op whose state changed without its gate firing is named
    /// in a debug build: the quiescence check re-runs every parked check.
    /// Release declares the wait deadlocked.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "QDesc(7) would complete"))]
    fn a_parked_op_whose_gate_never_fired_is_named() {
        let rt = Runtime::new();
        let gate = Notify::new();
        let ready = Rc::new(Cell::new(false));
        let seen = ready.clone();
        let check: Check = Rc::new(move |_, _| seen.get().then_some(OperationResult::Push));
        let qt = rt.park_op("unfired", &gate, check, QDesc(7), 0);
        let timers = rt.timers().clone();
        rt.spawn_background("flip", async move {
            timers.sleep(SimTime::from_micros(5)).await;
            ready.set(true); // The state rises; nobody fires `gate`.
        });
        assert_eq!(rt.wait(qt, None), Err(DemiError::Deadlock));
    }

    #[test]
    fn deadlock_is_detected_not_spun_forever() {
        let rt = Runtime::new();
        let qt = deferred(&rt, "stuck", std::future::pending());
        assert_eq!(rt.wait(qt, None), Err(DemiError::Deadlock));
    }

    #[test]
    fn unknown_token_is_rejected() {
        let rt = Runtime::new();
        assert_eq!(rt.wait(QToken(999), None), Err(DemiError::BadQToken));
    }

    #[test]
    fn wakeups_are_counted_once_per_completion() {
        let rt = Runtime::new();
        let qt = deferred(&rt, "op", async {
            OperationResult::Pop {
                from: None,
                sga: Sga::from_slice(b"x"),
            }
        });
        rt.wait(qt, None).unwrap();
        let m = rt.metrics().snapshot();
        assert_eq!(m.wakeups, 1);
        assert_eq!(m.wakeups_with_data, 1);
    }

    #[test]
    fn deadline_sources_drive_advancement() {
        let rt = Runtime::new();
        let fire_at = SimTime::from_micros(42);
        rt.register_deadline_source(move || Some(fire_at));
        let clock = rt.clock().clone();
        let qt = deferred(&rt, "ext", async move {
            loop {
                if clock.now() >= fire_at {
                    return OperationResult::Push;
                }
                yield_once().await;
            }
        });
        rt.wait(qt, None).unwrap();
        assert_eq!(rt.now(), fire_at);
    }

    /// `n` ready-ops that stay parked on `gate` until `released` is set.
    fn park_herd(rt: &Runtime, gate: &Notify, released: &Rc<Cell<bool>>, n: usize) -> Vec<QToken> {
        let herd = (0..n).map(|_| {
            let released = released.clone();
            let check = Rc::new(move |_, _| released.get().then_some(OperationResult::Push));
            rt.park_op("parked", gate, check, QDesc(0), 0)
        });
        let herd = herd.collect();
        // Drain the initial spawn polls.
        rt.pump();
        herd
    }

    #[test]
    fn parked_ops_cost_nothing_while_waiting_on_another() {
        let rt = Runtime::new();
        let (gate, released) = (Notify::new(), Rc::new(Cell::new(false)));
        let parked = park_herd(&rt, &gate, &released, 50);
        let polls_after_park = rt.scheduler().stats().polls;
        let live = deferred(&rt, "live", async { OperationResult::Push });
        rt.wait(live, None).unwrap();
        let stats = rt.scheduler().stats();
        // Only the live op (its task and its feeder's) was polled; the 50
        // parked ops stayed parked.
        assert_eq!(stats.polls, polls_after_park + 2);
        assert_eq!(stats.spurious_polls, 0);
        // Release the parked ops so the world shuts down cleanly.
        released.set(true);
        assert_eq!(gate.notify_waiters(), 50);
        assert_eq!(rt.wait_all(&parked, None).unwrap().len(), 50);
        assert_eq!(rt.outstanding(), 0);
    }

    #[test]
    fn ready_op_does_not_lose_a_notification_between_check_and_park() {
        let rt = Runtime::new();
        let (gate, ready) = (Notify::new(), Rc::new(Cell::new(false)));
        let check = Rc::new({
            let (gate, ready) = (gate.clone(), ready.clone());
            move |_, _| {
                if ready.get() {
                    return Some(OperationResult::Push);
                }
                // The event lands after this check looked, before the park.
                ready.set(true);
                gate.notify_waiters();
                None
            }
        });
        let qt = rt.park_op("racy", &gate, check, QDesc(0), 0);
        assert_eq!(rt.wait(qt, None), Ok(OperationResult::Push));
        // Resolved by the notification: nothing unwoken was polled.
        assert_eq!(rt.scheduler().stats().spurious_polls, 0);
    }

    #[test]
    fn dropping_the_runtime_with_ready_ops_parked_leaks_nothing() {
        let rt = Runtime::new();
        let (gate, released) = (Notify::new(), Rc::new(Cell::new(false)));
        park_herd(&rt, &gate, &released, 8);
        assert_eq!(Rc::strong_count(&released), 9);
        drop(rt);
        assert_eq!(Rc::strong_count(&released), 1, "parked checks were freed");
    }

    #[test]
    fn await_op_parks_until_completion() {
        let rt = Runtime::new();
        let timers = rt.timers().clone();
        let slow = deferred(&rt, "slow", async move {
            timers.sleep(SimTime::from_micros(100)).await;
            OperationResult::Push
        });
        let chained = deferred(&rt, "chained", {
            let rt = rt.clone();
            async move {
                let result = rt.await_op(slow).await;
                assert!(matches!(result, OperationResult::Push));
                OperationResult::Connect
            }
        });
        let result = rt.wait(chained, None).unwrap();
        assert!(matches!(result, OperationResult::Connect));
        assert_eq!(rt.now(), SimTime::from_micros(100));
    }

    #[test]
    fn a_span_is_recorded_once_with_the_handoff_its_own_poll_made() {
        let rt = Runtime::new();
        span::set_enabled(true);
        let _ = span::drain();
        let ready = |_: QDesc, _: u64| Some(OperationResult::Push);
        let gate = Notify::new();
        let quiet = rt.park_op("quiet", &gate, Rc::new(ready), QDesc(0), 0);
        // A check that rings a doorbell, as a device op's poll does.
        let loud = move |_: QDesc, _: u64| {
            span::note_handoff(7);
            Some(OperationResult::Push)
        };
        let loud = rt.park_op("loud", &gate, Rc::new(loud), QDesc(0), 0);
        let inner = rt.park_op("inner", &gate, Rc::new(ready), QDesc(0), 0);
        let outer = deferred(&rt, "outer", rt.await_op(inner));
        // A doorbell outside every op poll belongs to no op.
        span::note_handoff(3);
        rt.wait_all(&[quiet, loud, outer], None).unwrap();
        span::set_enabled(false);
        let spans = span::drain();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["inner", "quiet", "loud", "outer"],
            "consumption order"
        );
        let handoff = |s: &OpSpan| s.stamp(SpanPoint::DeviceHandoff);
        assert_eq!(
            spans.iter().map(handoff).collect::<Vec<_>>(),
            [None, None, Some(7), None]
        );
        // `await_op` consumed `inner`: no wait delivered it.
        assert_eq!(spans[0].stamp(SpanPoint::Delivered), None);
        assert!(spans[1..]
            .iter()
            .all(|s| s.stamp(SpanPoint::Delivered) == Some(0)));
        assert!(spans
            .iter()
            .all(|s| s.stamp(SpanPoint::FirstPoll) == Some(0)));
    }

    /// An op whose readiness flips with no waker plumbing: the clock a
    /// deadline source moves makes it ready, but nobody wakes it.
    fn wakerless_op(rt: &Runtime) -> QToken {
        let fire_at = SimTime::from_micros(7);
        rt.register_deadline_source(move || Some(fire_at));
        let clock = rt.clock().clone();
        deferred(rt, "wakerless", async move {
            std::future::poll_fn(move |_cx| {
                if clock.now() >= fire_at {
                    Poll::Ready(())
                } else {
                    Poll::Pending // No waker registered.
                }
            })
            .await;
            OperationResult::Push
        })
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "live tasks: [\"wakerless\", \"wakerless\"]")]
    fn a_wakerless_state_change_panics_naming_its_task_in_debug() {
        let rt = Runtime::new();
        let qt = wakerless_op(&rt);
        let _ = rt.wait(qt, None);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn a_wakerless_state_change_is_a_deadlock_in_release() {
        let rt = Runtime::new();
        let qt = wakerless_op(&rt);
        assert_eq!(rt.wait(qt, None), Err(DemiError::Deadlock));
        assert_eq!(rt.now(), SimTime::from_micros(7));
        // Nothing unwoken was polled again.
        assert_eq!(rt.scheduler().stats().spurious_polls, 0);
    }
}

//! The shared coroutine runtime behind qtokens and `wait_*`.
//!
//! Every queue operation a libOS starts takes one slot in this runtime's
//! generational op slab; the returned [`QToken`] names the slot, and
//! [`Runtime::wait`] / [`Runtime::wait_any`] / [`Runtime::wait_all`]
//! drive the world until the named operations complete (paper §4.4). An
//! operation whose result is known when the libOS call returns records a
//! completed slot and nothing else; only one that must block becomes a
//! coroutine, which writes its result straight into its slot.
//!
//! One `Runtime` is shared by every libOS instance in a simulation:
//! client and server co-run as coroutines on one virtual CPU, and when
//! every task is blocked the runtime advances virtual time to the next
//! event — a fabric delivery, a protocol timer, or a device completion
//! (registered as *deadline sources*).
//!
//! `wait` gives the paper's two improvements over epoll by construction:
//! it returns the completed operation's data directly (no second syscall),
//! and exactly one waiter resolves per completion (each qtoken names one
//! operation).
//!
//! Scheduling is waker-driven: a `wait` runs scheduler passes only while
//! the run queue is non-empty, and blocked coroutines park on waker
//! sources — per-qtoken completion wakers ([`Runtime::await_op`]), queue
//! and condition wakers, timer deadlines, or the runtime's *activity gate*
//! ([`Runtime::activity`]), which fires whenever external progress happens
//! (frames delivered, device pollers did work, timers fired). Deadlock is
//! no longer a spin-count heuristic: when a pass polls nothing, nothing
//! external moved, and virtual time cannot advance, one *rescue sweep*
//! re-polls every live task (catching state changes that lack waker
//! plumbing), and only if that, too, yields nothing is the wait declared
//! deadlocked.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use demi_sched::{Notify, Scheduler, TimerService};
use demi_telemetry::span::SpanPoint;
use sim_fabric::{Fabric, SimClock, SimTime};

use crate::metrics::Metrics;
use crate::types::{DemiError, OperationResult, QToken};

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

/// One slot's place in the op lifecycle: free → pending | complete →
/// consumed (free again, generation bumped).
enum OpState {
    Free,
    /// A coroutine will write the result.
    Pending,
    /// The result, waiting to be consumed exactly once.
    Complete(OperationResult),
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
    /// The coroutine parked in [`Runtime::await_op`] on this operation.
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
    fn alloc(&mut self, state: OpState, started: SimTime) -> QToken {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(OpSlot {
                gen: 1,
                state: OpState::Free,
                started,
                waker: None,
                wait_epoch: 0,
                wait_index: 0,
            });
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 operations in flight")
        });
        let slot = &mut self.slots[index as usize];
        (slot.state, slot.started, slot.wait_epoch) = (state, started, 0);
        QToken(u64::from(slot.gen) << 32 | u64::from(index))
    }

    /// The live slot `qt` names, if its generation is still current.
    fn slot(&mut self, qt: QToken) -> Option<&mut OpSlot> {
        let slot = self.slots.get_mut(qt.0 as u32 as usize)?;
        let live = slot.gen == (qt.0 >> 32) as u32 && !matches!(slot.state, OpState::Free);
        live.then_some(slot)
    }

    /// Consumes `qt` if complete, yielding its result and submission
    /// instant; while it is pending, parks `waker` (if given) on it.
    fn take(
        &mut self,
        qt: QToken,
        waker: Option<&Waker>,
    ) -> Result<Option<(OperationResult, SimTime)>, DemiError> {
        let slot = self.slot(qt).ok_or(DemiError::BadQToken)?;
        if matches!(slot.state, OpState::Pending) {
            if let Some(waker) = waker {
                slot.waker = Some(waker.clone());
            }
            return Ok(None);
        }
        slot.gen = slot.gen.wrapping_add(1);
        let OpState::Complete(result) = std::mem::replace(&mut slot.state, OpState::Free) else {
            unreachable!("a live slot is pending or complete");
        };
        let started = slot.started;
        self.free.push(qt.0 as u32);
        Ok(Some((result, started)))
    }

    /// Records the result of `qt`'s coroutine and tells the wait watching
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
    /// The activity gate: notified whenever external progress happens, so
    /// libOS coroutines waiting for "the world to move" (new frames, device
    /// completions) park here instead of yield-spinning.
    activity: Notify,
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
            inner: Rc::new(Inner {
                scheduler: Scheduler::new(),
                timers: TimerService::new(clock.clone()),
                clock,
                fabric,
                pollers: RefCell::new(Vec::new()),
                deadline_sources: RefCell::new(Vec::new()),
                ops: RefCell::default(),
                unflushed: Cell::new(false),
                metrics: Metrics::new(),
                activity: Notify::new(),
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

    /// Installs this runtime's clock as the telemetry time source (the
    /// recording sites in demi-sched/net-stack/dpdk-sim read virtual time
    /// through `demi_telemetry::now_ns`). Called by both enable methods;
    /// harmless to call repeatedly or from multiple runtimes — last one
    /// wins, which is right for the one-world-at-a-time test pattern.
    fn install_now_source(&self) {
        let clock = self.inner.clock.clone();
        demi_telemetry::set_now_source(Rc::new(move || clock.now().as_nanos()));
    }

    /// Turns on latency histograms (end-to-end op latency plus the
    /// per-stage deltas) for this thread, clocked by this runtime.
    pub fn enable_telemetry(&self) {
        self.install_now_source();
        demi_telemetry::set_enabled(true);
    }

    /// Turns on op-lifecycle span capture (the bounded ring behind
    /// `demi_telemetry::span::drain` / Chrome trace export) for this
    /// thread, clocked by this runtime.
    pub fn enable_tracing(&self) {
        self.install_now_source();
        demi_telemetry::span::set_enabled(true);
    }

    /// The activity gate: fires after every batch of external progress
    /// (frames delivered, poller work, timers fired). Operations waiting
    /// for device- or network-driven state changes name it as the gate of
    /// [`Runtime::spawn_ready_op`] and re-check when it fires.
    pub fn activity(&self) -> &Notify {
        &self.inner.activity
    }

    /// Registers a function run on every scheduler pass (device RX pumps,
    /// stack `poll()`s). The poller reports how many work items it
    /// processed; `0` means "nothing happened", letting the runtime detect
    /// quiescence without spin counting.
    pub fn register_poller(&self, poller: impl Fn() -> usize + 'static) {
        self.inner.pollers.borrow_mut().push(Box::new(poller));
    }

    /// Registers a source of timer deadlines consulted when all tasks are
    /// blocked (TCP RTO, device completion times, ...).
    pub fn register_deadline_source(&self, source: impl Fn() -> Option<SimTime> + 'static) {
        self.inner
            .deadline_sources
            .borrow_mut()
            .push(Box::new(source));
    }

    /// Opens the slot (and the telemetry span) of one operation.
    fn begin_op(&self, name: &'static str, state: OpState) -> QToken {
        let started = self.inner.clock.now();
        let qt = self.inner.ops.borrow_mut().alloc(state, started);
        if demi_telemetry::span::enabled() {
            demi_telemetry::span::begin(qt.0, name, started.as_nanos());
        }
        qt
    }

    /// Spawns a queue-operation coroutine and returns its qtoken.
    ///
    /// The coroutine's last act is writing its result into the token's
    /// slot, which wakes a coroutine parked in [`Runtime::await_op`] and
    /// tells a watching `wait_any`/`wait_all` in O(1). The task holds the
    /// runtime weakly — a strong `Runtime` inside a spawned task would
    /// close an Rc cycle and leak the world (the same ownership rule as
    /// [`OpFuture`]).
    pub fn spawn_op<F>(&self, name: &'static str, op: F) -> QToken
    where
        F: Future<Output = OperationResult> + 'static,
    {
        let qt = self.begin_op(name, OpState::Pending);
        self.inner.scheduler.spawn_detached(
            name,
            OpTask {
                qt,
                runtime: Rc::downgrade(&self.inner),
                op,
            },
        );
        qt
    }

    /// The one check-then-park driver: spawns an operation that runs
    /// `check` when first polled and again each time `gate` is notified,
    /// parked (zero polls) in between, until `check` yields its result. A
    /// notification landing between a check and the park is not lost.
    /// `check` lives inside a task the runtime owns, so it must capture
    /// only cycle-free pieces — a stack, a queue table, a `Notify` — never
    /// a `Runtime`.
    pub fn spawn_ready_op(
        &self,
        name: &'static str,
        gate: &Notify,
        check: impl FnMut() -> Option<OperationResult> + 'static,
    ) -> QToken {
        let gate = gate.clone();
        self.spawn_op(name, async move { gate.until(check).await })
    }

    /// The qtoken of an operation whose result is known as the libOS call
    /// returns (a push the stack accepted): a completed slot, no coroutine.
    /// `wait` and `await_op` resolve it without a scheduler pass.
    pub(crate) fn complete_op(&self, name: &'static str, result: OperationResult) -> QToken {
        let qt = self.begin_op(name, OpState::Complete(result));
        if demi_telemetry::span::enabled() {
            demi_telemetry::span::note(qt.0, SpanPoint::Completed, demi_telemetry::now_ns());
        }
        self.inner.unflushed.set(true);
        qt
    }

    /// Spawns a detached background coroutine (service loops, `qconnect`).
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
        if external > 0 {
            // Something moved in the outside world: wake every coroutine
            // parked on the gate so it can re-check its predicate.
            self.inner.activity.notify_waiters();
        }
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

    /// The last line of defense before declaring deadlock: re-poll every
    /// live task once (counted as spurious polls in the scheduler stats).
    /// This catches state transitions that have no waker plumbing — e.g., a
    /// protocol giving up after its last retry without emitting a frame.
    /// Returns whether the sweep produced new work.
    fn rescue_sweep(&self) -> bool {
        let report = self.inner.scheduler.sweep_pass();
        report.completed > 0 || self.inner.scheduler.has_runnable()
    }

    /// Consumes `qt` if its operation has completed (`Ok(None)` while it
    /// is pending) — one slot probe — and, as the wait delivering it,
    /// records the wakeup and stamps the wait-delivery telemetry
    /// (end-to-end op latency + span close).
    fn take(&self, qt: QToken) -> Result<Option<OperationResult>, DemiError> {
        self.inner.metrics.count_completion_checks(1);
        let taken = self.inner.ops.borrow_mut().take(qt, None)?;
        let Some((result, started)) = taken else {
            return Ok(None);
        };
        if demi_telemetry::enabled() || demi_telemetry::span::enabled() {
            let now = self.inner.clock.now();
            demi_telemetry::stage::record(
                demi_telemetry::stage::Stage::OpLatency,
                now.saturating_since(started).as_nanos(),
            );
            demi_telemetry::span::note(qt.0, SpanPoint::Delivered, now.as_nanos());
            demi_telemetry::span::finish(qt.0);
        }
        self.inner
            .metrics
            .count_wakeup(matches!(result, OperationResult::Pop { .. }));
        // The liveness rule of completion at submission: a wait that
        // consumes a token without pumping still hands what the operation
        // enqueued to the device — a sender that only ever does `pushto;
        // wait` must transmit. Fabric delivery, timers and the run queue
        // are left to the next wait that blocks.
        if self.inner.unflushed.get() && self.run_pollers() > 0 {
            self.inner.activity.notify_waiters();
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
    /// time, declaring deadlock only when a quiescent pass survives a
    /// rescue sweep.
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
            let advanced = if report.completed > 0 {
                false
            } else if report.polled > 0 && self.run_pollers() > 0 {
                self.inner.activity.notify_waiters();
                false
            } else {
                self.advance(deadline)
            };
            // Quiescent — no woken tasks, no external work, no time to
            // advance: one rescue sweep, then give up.
            if advanced || report.has_work() || self.rescue_sweep() {
                continue;
            }
            if std::env::var("DEMI_DEBUG_DEADLOCK").is_ok() {
                eprintln!(
                    "DEADLOCK: now={:?} live={:?} stats={:?}",
                    self.now(),
                    self.inner.scheduler.live_task_names(),
                    self.inner.scheduler.stats()
                );
            }
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
    /// time. When none of those is possible the world is quiescent; after
    /// a fruitless rescue sweep the wait reports [`DemiError::Deadlock`]
    /// deterministically.
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
    /// resolve once, so it fails the call like an already-consumed one.
    ///
    /// Drives one wait loop consuming completions as they arrive — not a
    /// `wait_any` per token, which rescanned the survivors after every
    /// completion (O(n²) over the batch).
    pub fn wait_all(
        &self,
        qts: &[QToken],
        timeout: Option<SimTime>,
    ) -> Result<Vec<OperationResult>, DemiError> {
        self.watch(qts, true)?;
        let mut results: Vec<Option<OperationResult>> = qts.iter().map(|_| None).collect();
        let mut missing = qts.len();
        self.drive_wait(timeout, || {
            while let Some((i, result)) = self.next_arrival() {
                results[i] = Some(result);
                missing -= 1;
            }
            Ok((missing == 0).then_some(()))
        })?;
        Ok(results
            .into_iter()
            .map(|r| r.expect("all slots filled"))
            .collect())
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

/// The coroutine behind a deferred operation: runs `op`, then writes its
/// result into the token's slot. Along the way it observes the lifecycle:
/// stamps the span's first-poll and completion points and brackets each
/// poll with the span module's current-op marker so deeper layers (the
/// device sim's `tx_burst`) can attribute events to the op being
/// executed. When span capture is off that is one thread-local bool read
/// per poll.
struct OpTask<F> {
    qt: QToken,
    runtime: Weak<Inner>,
    op: F,
}

impl<F: Future<Output = OperationResult>> Future for OpTask<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: `op` is never moved out of the pinned wrapper; the
        // re-pin below covers the only access.
        let this = unsafe { self.get_unchecked_mut() };
        let tracing = demi_telemetry::span::enabled();
        if tracing {
            // Stamps are set-once: only the first poll's sticks.
            demi_telemetry::span::note(this.qt.0, SpanPoint::FirstPoll, demi_telemetry::now_ns());
            demi_telemetry::span::set_current(Some(this.qt.0));
        }
        // SAFETY: see above — `this.op` stays where the outer pin put it.
        let polled = unsafe { Pin::new_unchecked(&mut this.op) }.poll(cx);
        if tracing {
            demi_telemetry::span::set_current(None);
        }
        let Poll::Ready(result) = polled else {
            return Poll::Pending;
        };
        if tracing {
            demi_telemetry::span::note(this.qt.0, SpanPoint::Completed, demi_telemetry::now_ns());
        }
        // A runtime being torn down has nobody left to deliver to.
        if let Some(inner) = this.runtime.upgrade() {
            let parked = inner.ops.borrow_mut().complete(this.qt, result);
            if let Some(waker) = parked {
                waker.wake();
            }
        }
        Poll::Ready(())
    }
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
            Some(inner) => inner.ops.borrow_mut().take(self.qt, Some(cx.waker())),
            None => Err(DemiError::BadQToken),
        };
        match taken {
            Err(e) => Poll::Ready(OperationResult::Failed(e)),
            Ok(None) => Poll::Pending,
            Ok(Some((result, _started))) => {
                // Consumed inside a composing coroutine, not by `wait`:
                // close the span without a wait-delivery stamp.
                demi_telemetry::span::finish(self.qt.0);
                Poll::Ready(result)
            }
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

    #[test]
    fn wait_returns_result_directly() {
        let rt = Runtime::new();
        let qt = rt.spawn_op("instant", async { OperationResult::Push });
        let result = rt.wait(qt, None).unwrap();
        assert!(matches!(result, OperationResult::Push));
        assert_eq!(rt.outstanding(), 0);
    }

    #[test]
    fn waiting_twice_on_one_token_is_an_error() {
        let rt = Runtime::new();
        let qt = rt.spawn_op("instant", async { OperationResult::Push });
        rt.wait(qt, None).unwrap();
        assert_eq!(rt.wait(qt, None), Err(DemiError::BadQToken));
    }

    #[test]
    fn wait_any_resolves_exactly_one() {
        let rt = Runtime::new();
        let slow = rt.spawn_op("slow", async {
            for _ in 0..10 {
                yield_once().await;
            }
            OperationResult::Push
        });
        let fast = rt.spawn_op("fast", async {
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
        let a = rt.spawn_op("a", async {
            for _ in 0..5 {
                yield_once().await;
            }
            OperationResult::Connect
        });
        let b = rt.spawn_op("b", async { OperationResult::Push });
        let results = rt.wait_all(&[a, b], None).unwrap();
        assert!(matches!(results[0], OperationResult::Connect));
        assert!(matches!(results[1], OperationResult::Push));
    }

    #[test]
    fn timeout_fires_in_virtual_time() {
        let rt = Runtime::new();
        let timers = rt.timers().clone();
        let qt = rt.spawn_op("sleepy", async move {
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
        let qt = rt.spawn_op("timer", async move {
            timers.sleep(SimTime::from_micros(500)).await;
            OperationResult::Push
        });
        rt.wait(qt, None).unwrap();
        assert_eq!(rt.now(), SimTime::from_micros(500));
    }

    #[test]
    fn deadlock_is_detected_not_spun_forever() {
        let rt = Runtime::new();
        let qt = rt.spawn_op("stuck", std::future::pending());
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
        let qt = rt.spawn_op("op", async {
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
        let qt = rt.spawn_op("ext", async move {
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
            rt.spawn_ready_op("parked", gate, move || {
                released.get().then_some(OperationResult::Push)
            })
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
        let live = rt.spawn_op("live", async {
            yield_once().await;
            OperationResult::Push
        });
        rt.wait(live, None).unwrap();
        let stats = rt.scheduler().stats();
        // Only the live op was polled; the 50 parked ops stayed parked.
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
        let qt = rt.spawn_ready_op("racy", &gate, {
            let (gate, ready) = (gate.clone(), ready.clone());
            move || {
                if ready.get() {
                    return Some(OperationResult::Push);
                }
                // The event lands after this check looked, before the park.
                ready.set(true);
                gate.notify_waiters();
                None
            }
        });
        assert_eq!(rt.wait(qt, None), Ok(OperationResult::Push));
        // Resolved by the notification, not by the deadlock rescue sweep.
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
        let slow = rt.spawn_op("slow", async move {
            timers.sleep(SimTime::from_micros(100)).await;
            OperationResult::Push
        });
        let chained = rt.spawn_op("chained", {
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
    fn rescue_sweep_catches_wakerless_state_change() {
        let rt = Runtime::new();
        // A future with NO waker plumbing: readiness flips as a side effect
        // of a deadline source moving the clock, but nobody wakes the task.
        let clock = rt.clock().clone();
        let fire_at = SimTime::from_micros(7);
        rt.register_deadline_source(move || Some(fire_at));
        let poll_clock = rt.clock().clone();
        let qt = rt.spawn_op("wakerless", async move {
            std::future::poll_fn(move |_cx| {
                if poll_clock.now() >= fire_at {
                    std::task::Poll::Ready(())
                } else {
                    std::task::Poll::Pending // no waker registered!
                }
            })
            .await;
            OperationResult::Push
        });
        rt.wait(qt, None).unwrap();
        assert_eq!(clock.now(), fire_at);
        // The wait needed at least one rescue sweep to notice the flip
        // (visible as extra passes beyond the wake-driven ones); the task
        // still completed and the clock still advanced correctly.
        assert!(rt.scheduler().stats().passes > 1);
    }
}

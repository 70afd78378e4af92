//! The task slab and the waker-driven run queue.
//!
//! Each spawned task owns a real [`Waker`] backed by a shared run queue.
//! Waking a task enqueues its slot index (deduplicated by a per-slot
//! `scheduled` flag, so a task sits in the queue at most once); a scheduler
//! pass drains only the entries that were present when the pass began, so
//! per-pass work is O(ready tasks) rather than O(live tasks).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// Identifies a spawned task, numbered in spawn order. (A Demikernel qtoken
/// names a slot of the runtime's op slab, not a task.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Counters describing scheduler activity, used by the experiments to count
/// wake-ups and polls precisely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Total tasks ever spawned.
    pub spawned: u64,
    /// Total tasks that ran to completion.
    pub completed: u64,
    /// Total individual `Future::poll` invocations.
    pub polls: u64,
    /// Total scheduler passes (`run_pass` / `sweep_pass`).
    pub passes: u64,
    /// Total waker deliveries that made a task runnable. Redundant wakes of
    /// an already-queued task and wakes of completed tasks are not counted —
    /// this is the "useful wake-up" number the paper's "exactly one wake-up
    /// per completion" claim is about.
    pub wakeups: u64,
    /// Polls of tasks that had *not* been woken and returned `Pending`: pure
    /// overhead. Zero by construction in [`Scheduler::run_pass`]; only
    /// rescue sweeps ([`Scheduler::sweep_pass`]) add to it.
    pub spurious_polls: u64,
}

/// What one scheduler pass did; the runtime uses this to decide whether the
/// system is making progress without re-scanning the slab.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassReport {
    /// Tasks that ran to completion during the pass.
    pub completed: usize,
    /// Total `Future::poll` invocations during the pass.
    pub polled: usize,
    /// Polls of tasks whose waker had fired (the useful subset of `polled`).
    pub woken: usize,
}

/// The shared run queue: slot indices (plus the slot generation that was
/// live when the wake fired) in wake order.
///
/// The queue is `Mutex`-protected and the dedup flag is atomic so that a
/// `Waker` smuggled onto another thread stays sound; in the single-threaded
/// simulation both are always uncontended. A wake locks once, a pass locks
/// once (it swaps the whole batch out), and "anything runnable?" reads `len`.
struct RunQueue {
    /// `(slot index, slot generation, telemetry enqueue stamp)`. The stamp
    /// is virtual-time ns at wake when latency telemetry is enabled, else 0
    /// — the schedule→poll lag histogram only sees real stamps.
    queue: Mutex<VecDeque<(usize, u64, u64)>>,
    /// Entries in `queue`. Written under the lock; `Relaxed` because it
    /// publishes no data — a reader that acts on it takes the lock.
    len: AtomicUsize,
    wakeups: AtomicU64,
}

impl RunQueue {
    fn new() -> Arc<Self> {
        Arc::new(RunQueue {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            wakeups: AtomicU64::new(0),
        })
    }

    fn push(&self, index: usize, gen: u64) {
        // `now_ns` reads a thread-local: a waker smuggled onto another
        // thread stamps 0 there and the lag sample is simply skipped.
        let enqueued_ns = if demi_telemetry::enabled() {
            demi_telemetry::now_ns()
        } else {
            0
        };
        let mut queue = self.queue.lock().unwrap();
        queue.push_back((index, gen, enqueued_ns));
        self.len.store(queue.len(), Ordering::Relaxed);
    }

    /// Moves every queued entry into `batch` (which must be empty): the
    /// entries present when a pass begins, in wake order.
    fn take_batch(&self, batch: &mut VecDeque<(usize, u64, u64)>) {
        let mut queue = self.queue.lock().unwrap();
        std::mem::swap(&mut *queue, batch);
        self.len.store(0, Ordering::Relaxed);
    }

    fn clear(&self) {
        let mut queue = self.queue.lock().unwrap();
        queue.clear();
        self.len.store(0, Ordering::Relaxed);
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

/// Per-slot waker state. `scheduled` guarantees at-most-once queue presence:
/// it is set when a wake enqueues the task, cleared immediately before the
/// task is polled (so a mid-poll wake re-enqueues exactly once), and set
/// permanently when the task completes (so wake-after-complete is a no-op).
/// `gen` pins the waker to one occupancy of the slot; a stale waker that
/// outlives the task enqueues an entry the scheduler discards on sight.
struct SlotWaker {
    index: usize,
    gen: u64,
    scheduled: AtomicBool,
    rq: Arc<RunQueue>,
}

impl Wake for SlotWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.scheduled.swap(true, Ordering::AcqRel) {
            self.rq.wakeups.fetch_add(1, Ordering::Relaxed);
            self.rq.push(self.index, self.gen);
        }
    }
}

struct TaskSlot {
    name: &'static str,
    gen: u64,
    /// The wake-side state, and the one `Waker` built over it at spawn:
    /// every poll borrows `waker` instead of cloning the `Arc` again.
    state: Arc<SlotWaker>,
    waker: Waker,
    future: Pin<Box<dyn Future<Output = ()>>>,
}

#[derive(Default)]
struct Inner {
    tasks: Vec<Option<TaskSlot>>,
    free: Vec<usize>,
    /// Waker states of finished tasks that nothing else still references,
    /// kept for the next spawn: a steady-state spawn allocates only the
    /// task's own future.
    spare_wakers: Vec<Arc<SlotWaker>>,
    /// The pass's working batch, kept so its buffer and the run queue's
    /// trade places every pass instead of being reallocated.
    batch: VecDeque<(usize, u64, u64)>,
    next_id: u64,
    next_gen: u64,
    live: usize,
    stats: SchedulerStats,
}

/// What a [`TaskHandle`] and its task share. `done` outlives the result:
/// it stays set after the result is taken.
struct Shared<T> {
    result: RefCell<Option<T>>,
    done: Cell<bool>,
}

/// A single-threaded cooperative scheduler.
///
/// Tasks are `'static` futures with no output; typed results travel through
/// the [`TaskHandle`] returned by [`Scheduler::spawn`]. A `Scheduler` is a
/// cheap clone of one shared scheduler.
///
/// # Examples
///
/// ```
/// use demi_sched::Scheduler;
///
/// let sched = Scheduler::new();
/// let handle = sched.spawn("answer", async { 21 * 2 });
/// while !handle.is_complete() {
///     sched.run_pass();
/// }
/// assert_eq!(handle.take_result(), Some(42));
/// ```
#[derive(Clone)]
pub struct Scheduler {
    inner: Rc<RefCell<Inner>>,
    rq: Arc<RunQueue>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler {
            inner: Rc::new(RefCell::new(Inner::default())),
            rq: RunQueue::new(),
        }
    }
}

impl Scheduler {
    /// Creates an empty waker-driven scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawns a coroutine and returns a typed handle to its result.
    ///
    /// The task starts on the run queue and is first polled on the next
    /// scheduler pass. Dropping the handle detaches the task; it keeps
    /// running to completion.
    pub fn spawn<T, F>(&self, name: &'static str, future: F) -> TaskHandle<T>
    where
        T: 'static,
        F: Future<Output = T> + 'static,
    {
        let shared = Rc::new(Shared {
            result: RefCell::new(None),
            done: Cell::new(false),
        });
        let task = shared.clone();
        let id = self.spawn_detached(name, async move {
            *task.result.borrow_mut() = Some(future.await);
            task.done.set(true);
        });
        TaskHandle { id, name, shared }
    }

    /// Spawns a coroutine that delivers its own result (service loops, and
    /// the runtime's queue operations, which write into their qtoken's
    /// slot): no handle, so the task's future is the only allocation.
    pub fn spawn_detached<F>(&self, name: &'static str, future: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        let mut inner = self.inner.borrow_mut();
        inner.stats.spawned += 1;
        inner.live += 1;
        let id = TaskId(inner.next_id);
        inner.next_id += 1;
        let gen = inner.next_gen;
        inner.next_gen += 1;
        let index = inner.free.pop().unwrap_or(inner.tasks.len());
        // Born scheduled: the slot is enqueued below, so wakes racing with
        // the first poll must dedup against that entry. (A recycled state
        // is already `scheduled` — its last task left it set.)
        let state = match inner.spare_wakers.pop() {
            Some(mut spare) => {
                let waker = Arc::get_mut(&mut spare).expect("spares are unreferenced");
                (waker.index, waker.gen) = (index, gen);
                spare
            }
            None => Arc::new(SlotWaker {
                index,
                gen,
                scheduled: AtomicBool::new(true),
                rq: self.rq.clone(),
            }),
        };
        let slot = TaskSlot {
            name,
            gen,
            waker: Waker::from(state.clone()),
            state,
            future: Box::pin(future),
        };
        if index == inner.tasks.len() {
            inner.tasks.push(Some(slot));
        } else {
            inner.tasks[index] = Some(slot);
        }
        drop(inner);
        self.rq.push(index, gen);
        id
    }

    /// Whether any task is currently queued to run.
    pub fn has_runnable(&self) -> bool {
        self.rq.len() > 0
    }

    /// One scheduler pass: drains the run-queue entries present at entry,
    /// polling only woken tasks. Entries enqueued *during* the pass
    /// (including self-wakes from `yield_once` and tasks spawned by other
    /// tasks) wait for the next pass, which keeps each pass bounded and
    /// preserves round-robin fairness among runnable tasks.
    pub fn run_pass(&self) -> PassReport {
        let mut batch = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.passes += 1;
            std::mem::take(&mut inner.batch)
        };
        self.rq.take_batch(&mut batch);
        let mut report = PassReport::default();

        for (index, gen, enqueued_ns) in batch.drain(..) {
            if enqueued_ns != 0 {
                demi_telemetry::stage::record(
                    demi_telemetry::stage::Stage::SchedPollLag,
                    demi_telemetry::now_ns().saturating_sub(enqueued_ns),
                );
            }
            // Move the task out of the slab while polling so the task body
            // may re-borrow the scheduler (e.g., to spawn).
            let slot = {
                let mut inner = self.inner.borrow_mut();
                // A vacant slot or a generation mismatch means a stale
                // wake: the slot was freed (and possibly reused) after the
                // wake fired. Discard the entry.
                let taken = match inner.tasks.get_mut(index) {
                    Some(occupant) if occupant.as_ref().is_some_and(|s| s.gen == gen) => {
                        occupant.take().unwrap()
                    }
                    _ => continue,
                };
                inner.stats.polls += 1;
                taken
            };
            report.polled += 1;
            report.woken += 1;
            report.completed += self.poll_slot(index, slot);
        }
        self.inner.borrow_mut().batch = batch;
        report
    }

    /// Polls **every** live task once, regardless of readiness: the
    /// runtime's rescue sweep before declaring deadlock. Polls of unwoken
    /// tasks that stay `Pending` are tallied as `spurious_polls`.
    pub fn sweep_pass(&self) -> PassReport {
        let upper = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.passes += 1;
            inner.tasks.len()
        };
        // Everyone gets polled, so queued entries are redundant; clearing
        // keeps the queue from growing across sweep passes. Mid-poll wakes
        // re-enqueue below and survive for the next pass.
        self.rq.clear();
        let mut report = PassReport::default();

        for index in 0..upper {
            let (slot, was_woken) = {
                let mut inner = self.inner.borrow_mut();
                let Some(occupant) = inner.tasks.get_mut(index) else {
                    continue;
                };
                let Some(slot) = occupant.take() else {
                    continue;
                };
                inner.stats.polls += 1;
                // Consume the wake (if any) exactly as run_pass would.
                let was_woken = slot.state.scheduled.swap(false, Ordering::AcqRel);
                (slot, was_woken)
            };
            report.polled += 1;
            report.woken += usize::from(was_woken);
            let completed = self.poll_slot(index, slot);
            report.completed += completed;
            if !was_woken && completed == 0 && self.inner.borrow().tasks[index].is_some() {
                self.inner.borrow_mut().stats.spurious_polls += 1;
            }
        }
        report
    }

    /// Polls one slot (already taken out of the slab); returns 1 if it
    /// completed. The caller has accounted the poll in the stats.
    fn poll_slot(&self, index: usize, mut slot: TaskSlot) -> usize {
        // Clear the dedup flag *before* polling: a wake delivered while the
        // task runs must re-enqueue it (exactly once).
        slot.state.scheduled.store(false, Ordering::Release);
        let mut cx = Context::from_waker(&slot.waker);
        match slot.future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                // Leave `scheduled` set forever: any straggler wake of this
                // (now dead) generation becomes an O(1) no-op.
                slot.state.scheduled.store(true, Ordering::Release);
                // The task's own references go first (its future may hold
                // clones of its waker); a state nobody else references
                // cannot be woken again and serves the next spawn.
                drop((slot.future, slot.waker));
                let mut inner = self.inner.borrow_mut();
                if Arc::get_mut(&mut slot.state).is_some() {
                    inner.spare_wakers.push(slot.state);
                }
                inner.stats.completed += 1;
                inner.live -= 1;
                inner.free.push(index);
                1
            }
            Poll::Pending => {
                self.inner.borrow_mut().tasks[index] = Some(slot);
                0
            }
        }
    }

    /// Number of live (incomplete) tasks. O(1): maintained as a counter.
    pub fn live_tasks(&self) -> usize {
        self.inner.borrow().live
    }

    /// Names of live tasks, for deadlock diagnostics.
    pub fn live_task_names(&self) -> Vec<&'static str> {
        self.inner
            .borrow()
            .tasks
            .iter()
            .flatten()
            .map(|t| t.name)
            .collect()
    }

    /// Snapshot of activity counters.
    pub fn stats(&self) -> SchedulerStats {
        let mut stats = self.inner.borrow().stats;
        stats.wakeups = self.rq.wakeups.load(Ordering::Relaxed);
        stats
    }
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Scheduler(live={}, runnable={})",
            self.live_tasks(),
            self.rq.len()
        )
    }
}

/// Typed handle to a spawned task's eventual result.
pub struct TaskHandle<T> {
    id: TaskId,
    name: &'static str,
    shared: Rc<Shared<T>>,
}

impl<T> TaskHandle<T> {
    /// Whether the task has run to completion (its result may already have
    /// been taken).
    pub fn is_complete(&self) -> bool {
        self.shared.done.get()
    }

    /// Takes the result if the task has completed; `None` otherwise or if
    /// already taken.
    pub fn take_result(&self) -> Option<T> {
        self.shared.result.borrow_mut().take()
    }
}

impl<T> fmt::Debug for TaskHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TaskHandle({:?}, {}, complete={})",
            self.id,
            self.name,
            self.is_complete()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yield_once;
    use std::cell::Cell;

    #[test]
    fn spawn_and_complete_immediately_ready_task() {
        let sched = Scheduler::new();
        let h = sched.spawn("ready", async { 7 });
        assert!(!h.is_complete());
        assert_eq!(sched.run_pass().completed, 1);
        assert!(h.is_complete());
        assert_eq!(h.take_result(), Some(7));
        assert_eq!(h.take_result(), None);
        assert_eq!(sched.live_tasks(), 0);
    }

    #[test]
    fn yielding_task_needs_multiple_passes() {
        let sched = Scheduler::new();
        let h = sched.spawn("yielder", async {
            yield_once().await;
            yield_once().await;
            "done"
        });
        assert_eq!(sched.run_pass().completed, 0);
        assert_eq!(sched.run_pass().completed, 0);
        assert_eq!(sched.run_pass().completed, 1);
        assert_eq!(h.take_result(), Some("done"));
    }

    #[test]
    fn tasks_interleave_round_robin() {
        let sched = Scheduler::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for task in 0..3u32 {
            let log = log.clone();
            sched.spawn("interleaver", async move {
                for step in 0..2u32 {
                    log.borrow_mut().push(task * 10 + step);
                    yield_once().await;
                }
            });
        }
        while sched.live_tasks() > 0 {
            sched.run_pass();
        }
        assert_eq!(&*log.borrow(), &[0, 10, 20, 1, 11, 21]);
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        let sched = Scheduler::new();
        let inner_done = Rc::new(Cell::new(false));
        let h = sched.spawn("outer", {
            let sched = sched.clone();
            let inner_done = inner_done.clone();
            async move {
                let inner = sched.spawn("inner", async move {
                    inner_done.set(true);
                });
                while !inner.is_complete() {
                    yield_once().await;
                }
                true
            }
        });
        for _ in 0..10 {
            sched.run_pass();
        }
        assert!(inner_done.get());
        assert_eq!(h.take_result(), Some(true));
    }

    #[test]
    fn dropping_handle_detaches_but_task_still_runs() {
        let sched = Scheduler::new();
        let ran = Rc::new(Cell::new(false));
        {
            let ran = ran.clone();
            let _ = sched.spawn("detached", async move {
                yield_once().await;
                ran.set(true);
            });
        }
        sched.run_pass();
        sched.run_pass();
        assert!(ran.get());
    }

    #[test]
    fn slot_reuse_does_not_confuse_ids() {
        let sched = Scheduler::new();
        let a = sched.spawn("a", async { 1u32 });
        sched.run_pass();
        assert!(a.is_complete());
        let b = sched.spawn("b", async { 2u32 });
        assert_ne!(a.id, b.id);
        assert_eq!(sched.live_task_names(), vec!["b"]);
        sched.run_pass();
        assert_eq!(b.take_result(), Some(2));
    }

    #[test]
    fn stats_count_polls_and_completions() {
        let sched = Scheduler::new();
        sched.spawn("one", async {
            yield_once().await;
        });
        sched.spawn("two", async {});
        sched.run_pass();
        sched.run_pass();
        let stats = sched.stats();
        assert_eq!(stats.spawned, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.passes, 2);
        assert_eq!(stats.polls, 3);
        assert_eq!(stats.spurious_polls, 0);
    }

    #[test]
    fn live_task_names_reports_pending_tasks() {
        let sched = Scheduler::new();
        sched.spawn("stuck", std::future::pending::<()>());
        sched.run_pass();
        assert_eq!(sched.live_task_names(), vec!["stuck"]);
    }

    #[test]
    fn parked_tasks_are_not_repolled() {
        let sched = Scheduler::new();
        // A task that parks forever: polled exactly once (its spawn wake),
        // then never again.
        sched.spawn("parked", std::future::pending::<()>());
        sched.run_pass();
        let after_first = sched.stats().polls;
        for _ in 0..100 {
            sched.run_pass();
        }
        assert_eq!(sched.stats().polls, after_first);
        assert_eq!(sched.stats().spurious_polls, 0);
        assert!(!sched.has_runnable());
    }

    #[test]
    fn sweep_policy_repolls_everything_and_counts_spurious() {
        let sched = Scheduler::new();
        sched.spawn("parked", std::future::pending::<()>());
        sched.sweep_pass();
        sched.sweep_pass();
        sched.sweep_pass();
        let stats = sched.stats();
        assert_eq!(stats.polls, 3);
        // First poll consumed the spawn wake; the next two were spurious.
        assert_eq!(stats.spurious_polls, 2);
    }

    #[test]
    fn run_pass_reports_woken_vs_polled() {
        let sched = Scheduler::new();
        sched.spawn("ready", async {});
        let report = sched.run_pass();
        assert_eq!(
            report,
            PassReport {
                completed: 1,
                polled: 1,
                woken: 1
            }
        );
        // Nothing runnable: an empty pass.
        let report = sched.run_pass();
        assert_eq!(report, PassReport::default());
    }

    #[test]
    fn live_counter_tracks_spawn_and_complete() {
        let sched = Scheduler::new();
        assert_eq!(sched.live_tasks(), 0);
        let _a = sched.spawn("a", async {
            yield_once().await;
        });
        let _b = sched.spawn("b", async {});
        assert_eq!(sched.live_tasks(), 2);
        sched.run_pass();
        assert_eq!(sched.live_tasks(), 1);
        sched.run_pass();
        assert_eq!(sched.live_tasks(), 0);
    }
}

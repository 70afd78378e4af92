//! A single-threaded, waker-driven coroutine scheduler.
//!
//! Demikernel library OSes run every I/O operation as a coroutine: `push`,
//! `pop`, `accept`, and `connect` each spawn a task and return a *qtoken*
//! naming it; `wait`/`wait_any`/`wait_all` drive the scheduler until the
//! named tasks complete (paper §4.3–4.4). The paper's efficiency claim —
//! `wait` "wakes exactly one thread" per completion — is a statement about
//! *readiness*: completing an operation must cost O(that operation), not
//! O(every outstanding operation). This crate provides that machinery:
//!
//! * [`Scheduler`] — a slab of `Pin<Box<dyn Future>>` tasks, each with a
//!   real [`std::task::Waker`] backed by a shared run queue. A scheduler
//!   pass drains only woken tasks, so thousands of parked connections cost
//!   nothing per completion.
//! * [`TaskHandle`] — typed access to a task's eventual result. Tasks that
//!   deliver their own result (the runtime's queue operations write into
//!   their qtoken's slot) spawn detached, with no handle at all.
//! * [`TimerService`] — virtual-time sleeps on a deadline heap; the runtime
//!   advances the clock to [`TimerService::earliest_deadline`] and
//!   [`fire_due`](TimerService::fire_due) wakes exactly the expired
//!   sleepers.
//! * [`Notify`] — the one parking primitive: an edge-triggered event
//!   counter whose [`Notify::until`] is the check-then-park loop every
//!   blocked operation runs. A flag, a queue or a condition is plain state
//!   (`Cell`, `RefCell<VecDeque<_>>`) beside the `Notify` that announces
//!   its changes. [`yield_once`] self-wakes instead (stay runnable, go to
//!   the back of the queue).
//!
//! Everything is single-threaded (`Rc`-based) by design: a Demikernel libOS
//! owns one core and partitions state per core, so cross-thread
//! synchronization never appears on the data path. (The run queue itself is
//! `Mutex`+atomic so a `Waker` that escapes to another thread stays sound —
//! uncontended in practice.) Under thread-per-shard execution each OS
//! thread owns a complete scheduler of its own; the only cross-thread
//! structure this crate provides is the bounded lock-free [`spsc`] ring
//! that carries messages *between* per-shard worlds.

pub mod notify;
pub mod scheduler;
pub mod spsc;
pub mod timer;
pub mod yield_;

pub use notify::{Notified, Notify};
pub use scheduler::{PassReport, Scheduler, SchedulerStats, TaskHandle, TaskId};
pub use timer::TimerService;
pub use yield_::{yield_once, YieldFuture};

//! The Demikernel: a device-agnostic, queue-based I/O abstraction for
//! kernel-bypass devices, plus one library OS per device class.
//!
//! This crate is the paper's contribution (§4). The pieces map to the
//! paper directly:
//!
//! * [`types`] — queue descriptors, qtokens, scatter-gather arrays, and
//!   operation results (§4.2–4.3): an Sga pushed into a queue pops out as
//!   one atomic element.
//! * [`runtime`] — the op-slot runtime behind qtokens and the `wait`,
//!   `wait_any`, `wait_all` calls (§4.4). `wait` returns the operation's
//!   data directly and completes exactly one waiter per completion — the
//!   paper's two fixes to epoll.
//! * [`libos`] — the library OSes, each implementing the same
//!   [`libos::LibOs`] interface over a different kernel-bypass device
//!   (§3.3, §5.1): [`libos::catmem`] (pure in-memory queues),
//!   [`libos::catnip`] (UDP/TCP over the simulated DPDK NIC and the
//!   user-level stack), [`libos::catcorn`] (RDMA verbs),
//!   [`libos::catfs`] (log-structured storage over the simulated NVMe
//!   device), and [`libos::catnap`] (the POSIX/kernel baseline behind the
//!   same interface, for the experiments).
//! * [`ops`] — the queue-transformation calls `merge`, `filter`, `sort`,
//!   `map`, `qconnect` (§4.2–4.3), with a planner that offloads filters to
//!   SmartNIC program slots when the device advertises them and falls back
//!   to the CPU otherwise.
//! * [`Metrics`] — exact counters of data-path kernel crossings, copies,
//!   and wakeups, used by every experiment in `EXPERIMENTS.md`.
//! * [`telemetry`] — the latency side of the same story: op-lifecycle
//!   spans, per-stage latency histograms (p50/p99/p999), and Chrome
//!   trace export, all off by default and recorded on virtual time.
//!
//! The unchanged-application claim (§1) is demonstrated by the test suite
//! and examples: the same echo application source runs over catmem,
//! catnip, and catcorn by swapping the libOS constructor.
#![warn(unreachable_pub)]

mod exec;
pub mod libos;
mod metrics;
pub mod ops;
pub mod runtime;
pub mod telemetry;
pub mod testing;
pub mod types;

pub use exec::{run_shards, ExecMode, ShardSpec};
pub use libos::LibOs;
pub use metrics::{Metrics, MetricsHub, MetricsSnapshot};
pub use runtime::Runtime;
pub use types::{DemiError, OperationResult, QDesc, QToken, Sga};

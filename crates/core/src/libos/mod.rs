//! The library-OS interface and its implementations.
//!
//! Paper §4.3 defines one system-call table shared by every libOS; §3.3
//! observes that different devices leave different functionality for the
//! libOS to implement. Accordingly, [`LibOs`] is a single trait whose
//! calls default to [`DemiError::NotSupported`]; each implementation
//! overrides what its device class can express:
//!
//! | libOS | device | overrides |
//! |---|---|---|
//! | [`catmem`] | none (memory) | `queue`, push/pop |
//! | [`catnip`] | `dpdk-sim` + `net-stack` | sockets (UDP+TCP), push/pop |
//! | [`catcorn`] | `rdma-sim` | sockets (RC transport), push/pop |
//! | [`catfs`] | `spdk-sim` | `create`/`open`, push/pop |
//! | [`catnap`] | simulated kernel | sockets via POSIX (the baseline) |
//!
//! `wait`/`wait_any`/`wait_all` and the `blocking_*` conveniences are
//! provided once, on the trait, over the shared [`Runtime`].
//!
//! The skeleton under every libOS is written once, too. Queues live in a
//! `QueueTable`, which owns descriptor allocation and the `BadQDesc`
//! answer, so a call site keeps only its device-specific arm (anything
//! else is `InvalidState`). An operation that must block parks in its op
//! slot with a *check* ([`Runtime::park_op`]) — run first and after every
//! notification of the gate of the object it waits on (a socket, queue,
//! log or device), so a change wakes only its own ops. A pop's check is
//! built once per libOS, its state in the queue entry: a pop allocates
//! nothing. `close` removes the queue and fires the gate, and the check
//! fails the parked operation with `Closed`. A catfs push parks the same
//! way, its check reading the one number its slot keeps: its commit's.

pub mod catcorn;
pub mod catfs;
pub mod catmem;
pub mod catnap;
pub mod catnip;

use std::collections::HashMap;
use std::rc::Rc;

use net_stack::framing::FrameDecoder;
use net_stack::types::SocketAddr;
use sim_fabric::{DeviceCaps, SimTime};

use crate::runtime::Runtime;
use crate::types::{DemiError, OperationResult, QDesc, QToken, Sga};

/// Which libOS an object is (for harness reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibOsKind {
    /// In-memory queues.
    Catmem,
    /// UDP/TCP over the simulated DPDK NIC.
    Catnip,
    /// RDMA RC transport.
    Catcorn,
    /// Log-structured storage over the simulated NVMe device.
    Catfs,
    /// The POSIX/kernel baseline adapter.
    Catnap,
}

impl LibOsKind {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            LibOsKind::Catmem => "catmem",
            LibOsKind::Catnip => "catnip",
            LibOsKind::Catcorn => "catcorn",
            LibOsKind::Catfs => "catfs",
            LibOsKind::Catnap => "catnap",
        }
    }
}

/// One libOS's open queues by descriptor. Descriptors count up from the
/// table's first and are never reissued, so a descriptor missing from the
/// table names a closed (or never opened) queue.
pub(crate) struct QueueTable<Q> {
    queues: HashMap<QDesc, Q>,
    next_qd: u32,
}

impl<Q> QueueTable<Q> {
    /// An empty table whose first descriptor is `first`.
    pub(crate) fn new(first: u32) -> Self {
        QueueTable {
            queues: HashMap::new(),
            next_qd: first,
        }
    }

    /// Opens `queue` under a fresh descriptor.
    pub(crate) fn insert(&mut self, queue: Q) -> QDesc {
        let qd = QDesc(self.next_qd);
        self.next_qd += 1;
        self.queues.insert(qd, queue);
        qd
    }

    /// The open queue `qd` names, or `BadQDesc`.
    pub(crate) fn get(&self, qd: QDesc) -> Result<&Q, DemiError> {
        self.queues.get(&qd).ok_or(DemiError::BadQDesc)
    }

    /// [`QueueTable::get`], mutably.
    pub(crate) fn get_mut(&mut self, qd: QDesc) -> Result<&mut Q, DemiError> {
        self.queues.get_mut(&qd).ok_or(DemiError::BadQDesc)
    }

    /// Closes `qd`, handing back its queue for device teardown.
    pub(crate) fn remove(&mut self, qd: QDesc) -> Result<Q, DemiError> {
        self.queues.remove(&qd).ok_or(DemiError::BadQDesc)
    }

    /// What an operation still parked on `qd` resolves to once the queue
    /// is closed; `None` while it is open.
    pub(crate) fn closed(&self, qd: QDesc) -> Option<OperationResult> {
        let closed = !self.queues.contains_key(&qd);
        closed.then_some(OperationResult::Failed(DemiError::Closed))
    }
}

/// The next complete message of a framed TCP queue as a pop result — a pop
/// yields a whole atomic unit or nothing (paper §4.2).
fn framed_pop(decoder: &mut FrameDecoder) -> Option<OperationResult> {
    match decoder.next_message() {
        Ok(Some(msg)) => Some(OperationResult::Pop {
            from: None,
            sga: msg.into(),
        }),
        Ok(None) => None,
        Err(e) => Some(OperationResult::Failed(e.into())),
    }
}

/// Socket flavor for [`LibOs::socket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketKind {
    /// Datagram (message boundaries native).
    Udp,
    /// Stream (the libOS inserts framing to preserve atomic units, §5.2).
    Tcp,
}

/// The Demikernel system-call interface (paper Fig. 3).
///
/// Control-path calls mirror POSIX but return queue descriptors; the data
/// path is `push`/`pop` returning qtokens resolved by `wait_*`. Calls a
/// libOS cannot express return [`DemiError::NotSupported`].
///
/// **Every qtoken must be waited** (`wait`, `wait_any`, `wait_all`, or
/// [`Runtime::await_op`] inside a coroutine). A token holds one slot of the
/// runtime's op slab — and the operation's result, buffers included — until
/// a wait consumes it; a token that is dropped instead keeps that slot for
/// the life of the runtime, and [`Runtime::outstanding`] counts it. An
/// operation may already be complete when its call returns (a push the
/// stack accepted): the token is waited the same way and the wait returns
/// without blocking.
pub trait LibOs {
    /// The shared runtime this libOS runs on.
    fn runtime(&self) -> &Runtime;

    /// Which libOS this is.
    fn kind(&self) -> LibOsKind;

    /// The underlying device's capability descriptor (Table 1 / E7), if
    /// this libOS sits on a device.
    fn device_caps(&self) -> Option<DeviceCaps> {
        None
    }

    /// Kernel involvement counters — `Some` only for the catnap baseline.
    fn kernel_stats(&self) -> Option<posix_sim::KernelStats> {
        None
    }

    // ------------------------------------------------------------------
    // Control path (network).
    // ------------------------------------------------------------------

    /// Creates a socket queue.
    fn socket(&self, kind: SocketKind) -> Result<QDesc, DemiError> {
        let _ = kind;
        Err(DemiError::NotSupported("socket"))
    }

    /// Binds a socket queue to a local address.
    fn bind(&self, qd: QDesc, addr: SocketAddr) -> Result<(), DemiError> {
        let _ = (qd, addr);
        Err(DemiError::NotSupported("bind"))
    }

    /// Starts listening.
    fn listen(&self, qd: QDesc, backlog: usize) -> Result<(), DemiError> {
        let _ = (qd, backlog);
        Err(DemiError::NotSupported("listen"))
    }

    /// Starts accepting one connection; resolves to
    /// [`OperationResult::Accept`].
    fn accept(&self, qd: QDesc) -> Result<QToken, DemiError> {
        let _ = qd;
        Err(DemiError::NotSupported("accept"))
    }

    /// Starts connecting; resolves to [`OperationResult::Connect`].
    fn connect(&self, qd: QDesc, remote: SocketAddr) -> Result<QToken, DemiError> {
        let _ = (qd, remote);
        Err(DemiError::NotSupported("connect"))
    }

    /// Closes a queue.
    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        let _ = qd;
        Err(DemiError::NotSupported("close"))
    }

    // ------------------------------------------------------------------
    // Control path (memory queues and files).
    // ------------------------------------------------------------------

    /// Creates a plain in-memory queue (catmem).
    fn queue(&self) -> Result<QDesc, DemiError> {
        Err(DemiError::NotSupported("queue"))
    }

    /// Opens an existing named log/file queue (catfs).
    fn open(&self, path: &str) -> Result<QDesc, DemiError> {
        let _ = path;
        Err(DemiError::NotSupported("open"))
    }

    /// Creates a named log/file queue (catfs).
    fn create(&self, path: &str) -> Result<QDesc, DemiError> {
        let _ = path;
        Err(DemiError::NotSupported("creat"))
    }

    // ------------------------------------------------------------------
    // Data path.
    // ------------------------------------------------------------------

    /// Pushes one atomic element; resolves to [`OperationResult::Push`].
    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError>;

    /// Datagram push with an explicit destination.
    fn pushto(&self, qd: QDesc, sga: &Sga, to: SocketAddr) -> Result<QToken, DemiError> {
        let _ = (qd, sga, to);
        Err(DemiError::NotSupported("pushto"))
    }

    /// Pops one atomic element; resolves to [`OperationResult::Pop`] only
    /// once a complete element is available (paper §4.2).
    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError>;

    // ------------------------------------------------------------------
    // Memory (paper §4.5).
    // ------------------------------------------------------------------

    /// Allocates an I/O scatter-gather array from device-registered
    /// memory (transparent registration).
    fn sgaalloc(&self, len: usize) -> Sga {
        demi_memory::DemiBuffer::zeroed(len).into()
    }

    // ------------------------------------------------------------------
    // Offload hook (paper §4.2–4.3).
    // ------------------------------------------------------------------

    /// Asks the libOS to install `pred` as a device-side filter for `qd`.
    /// Returns `true` on success; the ops planner falls back to the CPU
    /// otherwise ("libOSes always implement filters directly on supported
    /// devices but default to using the CPU if necessary").
    fn try_offload_filter(&self, qd: QDesc, pred: Rc<dyn Fn(&Sga) -> bool>) -> bool {
        let _ = (qd, pred);
        false
    }

    // ------------------------------------------------------------------
    // Wait calls (paper §4.4) — shared implementations.
    // ------------------------------------------------------------------

    /// Blocks on a single qtoken; returns the result with its data.
    fn wait(&self, qt: QToken, timeout: Option<SimTime>) -> Result<OperationResult, DemiError> {
        self.runtime().wait(qt, timeout)
    }

    /// Blocks until any of `qts` completes (the improved epoll).
    fn wait_any(
        &self,
        qts: &[QToken],
        timeout: Option<SimTime>,
    ) -> Result<(usize, OperationResult), DemiError> {
        self.runtime().wait_any(qts, timeout)
    }

    /// Blocks until all of `qts` complete.
    fn wait_all(
        &self,
        qts: &[QToken],
        timeout: Option<SimTime>,
    ) -> Result<Vec<OperationResult>, DemiError> {
        self.runtime().wait_all(qts, timeout)
    }

    /// `push` followed by `wait` (paper Fig. 3).
    fn blocking_push(&self, qd: QDesc, sga: &Sga) -> Result<OperationResult, DemiError> {
        let qt = self.push(qd, sga)?;
        self.wait(qt, None)
    }

    /// `pop` followed by `wait` (paper Fig. 3).
    fn blocking_pop(&self, qd: QDesc) -> Result<OperationResult, DemiError> {
        let qt = self.pop(qd)?;
        self.wait(qt, None)
    }
}

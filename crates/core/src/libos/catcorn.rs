//! `catcorn`: the RDMA library OS.
//!
//! The RDMA device provides reliable delivery in "hardware" (Table 1
//! middle column), but the paper is explicit about what it still lacks:
//! applications "must still supply OS buffer management and flow control.
//! Applications have to register memory before using it for I/O, and
//! receivers must allocate enough buffers of the right size for senders."
//! catcorn is where that work moves into the libOS, invisibly:
//!
//! * **Transparent registration** (§4.5): each connection registers one
//!   send and one receive region at setup — a control-path cost — and the
//!   data path never registers anything.
//! * **Buffer management**: the libOS pre-posts a ring of receive slots
//!   sized to the negotiated message limit, recycling each slot after its
//!   pop; senders take slots from a send ring gated by completions. The
//!   application never sees any of it.
//! * **Flow control**: pushes wait for a free send slot, so a slow
//!   receiver back-pressures the sender through slot exhaustion instead
//!   of failing with RNR errors.
//!
//! Connection addresses: the simulation maps an IPv4 address to a fabric
//! MAC by final octet (the convention used by every testing world).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use demi_sched::Notify;
use net_stack::types::SocketAddr;
use rdma_sim::{
    Completion, CqId, MrAccess, MrId, PdId, QpId, QpState, RdmaDevice, WcOpcode, WcStatus,
};
use sim_fabric::{DeviceCaps, Fabric, MacAddress, SimClock};

use crate::libos::{LibOs, LibOsKind, QueueTable, SocketKind};
use crate::metrics::Metrics;
use crate::runtime::{Check, Runtime};
use crate::types::{DemiError, OperationResult, QDesc, QToken, Sga};

/// Bytes per send/receive slot (the largest single message).
pub(crate) const SLOT_SIZE: usize = 16 * 1024;
/// Slots per ring.
pub(crate) const RING_SLOTS: usize = 32;

struct Conn {
    qp: QpId,
    send_mr: MrId,
    recv_mr: MrId,
    free_send_slots: VecDeque<usize>,
    /// wr_id → slot for in-flight sends.
    send_completions: HashMap<u64, Completion>,
    recv_ready: VecDeque<Completion>,
    /// Push-ordering tickets: pushes post in `push()`-call order even when
    /// they contend for send slots.
    next_ticket: u64,
    turn: u64,
    /// Fires on every per-connection state change an operation might be
    /// parked on: a completion dispatched by the pump, the push turn
    /// advancing, a send slot being recycled, or the queue closing.
    events: Notify,
}

enum CatcornQueue {
    Unbound { bound: Option<SocketAddr> },
    Listener { port: u16 },
    Conn(Rc<RefCell<Conn>>),
}

struct Inner {
    queues: QueueTable<CatcornQueue>,
    /// qp → connection routing for completion dispatch.
    conns: HashMap<QpId, Rc<RefCell<Conn>>>,
    next_wr: u64,
}

/// The RDMA libOS.
#[derive(Clone)]
pub struct Catcorn {
    runtime: Runtime,
    core: Core,
    /// The check every parked pop shares ([`Core::pop_ready`]).
    pop: Check,
}

/// The cycle-free heart of catcorn: everything the I/O coroutines and the
/// pump need. Spawned coroutines and registered pollers capture this —
/// never `Catcorn` itself — because anything owned by the runtime that
/// holds a `Runtime` clone forms an Rc cycle (runtime → scheduler/pollers →
/// capture → runtime) and leaks the whole world.
#[derive(Clone)]
struct Core {
    device: RdmaDevice,
    pd: PdId,
    cq: CqId,
    inner: Rc<RefCell<Inner>>,
    /// The runtime's metrics block (its own Rc, independent of the runtime).
    metrics: Metrics,
    clock: SimClock,
}

impl Core {
    /// Drives the device and dispatches completions to their connections,
    /// waking parked coroutines. Returns how many work items (frames +
    /// completions) were processed.
    fn pump(&self, now: sim_fabric::SimTime) -> usize {
        let frames = self.device.poll(now);
        let completions = self.device.poll_cq(self.cq, 64);
        let work = frames + completions.len();
        if completions.is_empty() {
            return work;
        }
        let inner = self.inner.borrow();
        for c in completions {
            let Some(conn) = inner.conns.get(&c.qp) else {
                continue;
            };
            let mut conn = conn.borrow_mut();
            match c.opcode {
                WcOpcode::Recv => conn.recv_ready.push_back(c),
                _ => {
                    conn.send_completions.insert(c.wr_id, c);
                }
            }
            conn.events.notify_waiters();
        }
        work
    }

    fn next_wr(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_wr;
        inner.next_wr += 1;
        id
    }

    /// Builds connection state around an RTS queue pair: registers the
    /// rings (transparent registration, one control-path cost each) and
    /// pre-posts every receive slot (the buffer management RDMA demands).
    fn setup_conn(&self, qp: QpId) -> Rc<RefCell<Conn>> {
        self.metrics.count_control_path_syscall();
        let send_mr =
            self.device
                .register_mr(self.pd, SLOT_SIZE * RING_SLOTS, MrAccess::LOCAL_ONLY);
        let recv_mr =
            self.device
                .register_mr(self.pd, SLOT_SIZE * RING_SLOTS, MrAccess::LOCAL_ONLY);
        for slot in 0..RING_SLOTS {
            let wr_id = (slot as u64) | RECV_WR_FLAG;
            self.device
                .post_recv(qp, wr_id, recv_mr, slot * SLOT_SIZE, SLOT_SIZE)
                .expect("pre-post receive ring");
        }
        let conn = Rc::new(RefCell::new(Conn {
            qp,
            send_mr,
            recv_mr,
            free_send_slots: (0..RING_SLOTS).collect(),
            send_completions: HashMap::new(),
            recv_ready: VecDeque::new(),
            next_ticket: 0,
            turn: 0,
            events: Notify::new(),
        }));
        self.inner.borrow_mut().conns.insert(qp, conn.clone());
        conn
    }
}

impl Catcorn {
    /// Creates a catcorn instance on a fresh RDMA device at `mac`.
    pub(crate) fn new(runtime: &Runtime, fabric: &Fabric, mac: MacAddress) -> Self {
        let device = RdmaDevice::new(fabric, mac);
        let pd = device.alloc_pd();
        let cq = device.create_cq();
        let inner = Rc::new(RefCell::new(Inner {
            queues: QueueTable::new(1),
            conns: HashMap::new(),
            next_wr: 1,
        }));
        let core = Core {
            device: device.clone(),
            pd,
            cq,
            inner,
            metrics: runtime.metrics().clone(),
            clock: runtime.clock().clone(),
        };
        // The pump and the pops' check capture the core, never the libOS
        // (which holds the runtime).
        let (check, pump) = (core.clone(), core.clone());
        runtime.register_poller(move || pump.pump(pump.clock.now()));
        runtime.register_deadline_source(move || device.next_deadline());
        Catcorn {
            runtime: runtime.clone(),
            core,
            pop: Rc::new(move |qd, _| check.pop_ready(qd)),
        }
    }

    /// The underlying device (experiment instrumentation).
    pub fn device(&self) -> &RdmaDevice {
        &self.core.device
    }

    /// The connection behind a data queue.
    fn conn(&self, qd: QDesc) -> Result<Rc<RefCell<Conn>>, DemiError> {
        match self.core.inner.borrow().queues.get(qd)? {
            CatcornQueue::Conn(conn) => Ok(conn.clone()),
            _ => Err(DemiError::InvalidState),
        }
    }
}

/// High bit distinguishes receive ring work-requests.
const RECV_WR_FLAG: u64 = 1 << 63;

/// Simulation addressing convention: IPv4 → fabric MAC by last octet.
fn mac_of(addr: SocketAddr) -> MacAddress {
    MacAddress::from_last_octet(addr.ip.octets()[3])
}

impl LibOs for Catcorn {
    fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    fn kind(&self) -> LibOsKind {
        LibOsKind::Catcorn
    }

    fn device_caps(&self) -> Option<DeviceCaps> {
        Some(rdma_sim::capabilities())
    }

    fn socket(&self, _kind: SocketKind) -> Result<QDesc, DemiError> {
        // RDMA RC is its own transport; both socket kinds map onto it.
        let unbound = CatcornQueue::Unbound { bound: None };
        Ok(self.core.inner.borrow_mut().queues.insert(unbound))
    }

    fn bind(&self, qd: QDesc, addr: SocketAddr) -> Result<(), DemiError> {
        match self.core.inner.borrow_mut().queues.get_mut(qd)? {
            CatcornQueue::Unbound { bound } => {
                *bound = Some(addr);
                Ok(())
            }
            _ => Err(DemiError::InvalidState),
        }
    }

    fn listen(&self, qd: QDesc, _backlog: usize) -> Result<(), DemiError> {
        let mut inner = self.core.inner.borrow_mut();
        let queue = inner.queues.get_mut(qd)?;
        let CatcornQueue::Unbound { bound: Some(addr) } = queue else {
            return Err(DemiError::InvalidState);
        };
        let port = addr.port;
        self.core
            .device
            .listen(port)
            .map_err(|_| DemiError::Rdma("listen failed"))?;
        *queue = CatcornQueue::Listener { port };
        Ok(())
    }

    fn accept(&self, qd: QDesc) -> Result<QToken, DemiError> {
        let port = match self.core.inner.borrow().queues.get(qd)? {
            CatcornQueue::Listener { port } => *port,
            _ => return Err(DemiError::InvalidState),
        };
        let core = self.core.clone();
        let qp = core.device.create_qp(core.pd, core.cq, core.cq);
        // Connection requests arrive with device frames: the activity gate.
        let check = move |qd, _| match core.device.accept(port, qp) {
            Ok(true) => {
                let conn = CatcornQueue::Conn(core.setup_conn(qp));
                let qd = core.inner.borrow_mut().queues.insert(conn);
                Some(OperationResult::Accept { qd })
            }
            Ok(false) => core.inner.borrow().queues.closed(qd),
            Err(_) => Some(OperationResult::Failed(DemiError::Rdma("accept failed"))),
        };
        let rt = &self.runtime;
        Ok(rt.park_op("catcorn::accept", rt.activity(), Rc::new(check), qd, 0))
    }

    fn connect(&self, qd: QDesc, remote: SocketAddr) -> Result<QToken, DemiError> {
        let CatcornQueue::Unbound { .. } = self.core.inner.borrow().queues.get(qd)? else {
            return Err(DemiError::InvalidState);
        };
        let core = self.core.clone();
        let qp = core.device.create_qp(core.pd, core.cq, core.cq);
        core.device
            .connect(qp, mac_of(remote), remote.port, self.runtime.now())
            .map_err(|_| DemiError::Rdma("connect failed"))?;
        // The QP reaches RTS when the handshake frames land: the activity gate.
        let check = move |qd, _| {
            if let Some(closed) = core.inner.borrow().queues.closed(qd) {
                return Some(closed);
            }
            match core.device.qp_state(qp) {
                Ok(QpState::Rts) => {
                    let conn = CatcornQueue::Conn(core.setup_conn(qp));
                    let mut inner = core.inner.borrow_mut();
                    *inner.queues.get_mut(qd).expect("open: checked above") = conn;
                    Some(OperationResult::Connect)
                }
                Ok(QpState::Error) => Some(OperationResult::Failed(DemiError::Rdma(
                    "connection refused",
                ))),
                Ok(_) => None,
                Err(_) => Some(OperationResult::Failed(DemiError::Rdma("bad qp"))),
            }
        };
        let rt = &self.runtime;
        Ok(rt.park_op("catcorn::connect", rt.activity(), Rc::new(check), qd, 0))
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        let mut inner = self.core.inner.borrow_mut();
        let queue = inner.queues.remove(qd)?;
        // Operations parked on the queue re-check and fail `Closed`: an
        // accept or connect on the activity gate, a pop on `events`.
        self.runtime.activity().notify_waiters();
        if let CatcornQueue::Conn(conn) = queue {
            let conn = conn.borrow();
            inner.conns.remove(&conn.qp);
            self.core.device.deregister_mr(conn.send_mr);
            self.core.device.deregister_mr(conn.recv_mr);
            conn.events.notify_waiters();
        }
        Ok(())
    }

    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_push();
        let conn = self.conn(qd)?;
        if sga.len() > SLOT_SIZE {
            return Err(DemiError::Rdma("message exceeds slot size"));
        }
        // Every payload byte is copied twice on the way out — into this
        // staging vector, then into the send slot — and twice on the way in
        // (`pop_ready`); each copy is counted.
        let payload = sga.to_vec();
        self.runtime.metrics().count_copy(payload.len());
        let core = self.core.clone();
        // Take an ordering ticket at call time: pushes hit the wire in
        // `push()` order regardless of slot contention.
        let ticket = {
            let mut c = conn.borrow_mut();
            let t = c.next_ticket;
            c.next_ticket += 1;
            t
        };
        // Not a `park_op`: a push parks twice, for its turn and a send slot
        // and then for its completion, posting the send between.
        Ok(self.runtime.spawn_op("catcorn::push", async move {
            // Flow control the device does not provide: wait for our turn
            // and for a free slot, parked on the connection's event channel
            // (earlier pushes advancing the turn or recycling slots fire it).
            let events = conn.borrow().events.clone();
            let take_slot = || {
                let mut c = conn.borrow_mut();
                if c.turn == ticket {
                    c.free_send_slots.pop_front()
                } else {
                    None
                }
            };
            let slot = events.until(take_slot).await;
            let (qp, send_mr) = {
                let c = conn.borrow();
                (c.qp, c.send_mr)
            };
            // Stage into registered memory (the DMA-visible region).
            if core
                .device
                .mr_write(send_mr, slot * SLOT_SIZE, &payload)
                .is_err()
            {
                let mut c = conn.borrow_mut();
                c.turn += 1;
                c.free_send_slots.push_back(slot);
                c.events.notify_waiters();
                return OperationResult::Failed(DemiError::Rdma("mr write"));
            }
            core.metrics.count_copy(payload.len());
            let wr_id = core.next_wr();
            let now = core.clock.now();
            let posted =
                core.device
                    .post_send(qp, wr_id, send_mr, slot * SLOT_SIZE, payload.len(), now);
            {
                let mut c = conn.borrow_mut();
                c.turn += 1;
                c.events.notify_waiters();
            }
            if posted.is_err() {
                let mut c = conn.borrow_mut();
                c.free_send_slots.push_back(slot);
                c.events.notify_waiters();
                return OperationResult::Failed(DemiError::Rdma("post_send"));
            }
            // Await the send completion (dispatched by the pump), then
            // recycle the slot and wake any push blocked on slot exhaustion.
            let done = || conn.borrow_mut().send_completions.remove(&wr_id);
            let status = events.until(done).await.status;
            {
                let mut c = conn.borrow_mut();
                c.free_send_slots.push_back(slot);
                c.events.notify_waiters();
            }
            if status.is_ok() {
                OperationResult::Push
            } else {
                OperationResult::Failed(rdma_status_err(status))
            }
        }))
    }

    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_pop();
        let conn = self.conn(qd)?;
        // Receive completions are dispatched by the pump, which fires the
        // connection's event channel.
        let (events, rt) = (&conn.borrow().events, &self.runtime);
        Ok(rt.park_op("catcorn::pop", events, self.pop.clone(), qd, 0))
    }
}

impl Core {
    /// The check of a parked `pop`: the next received message, its slot
    /// re-posted (the buffer management RDMA demands); `Closed` once closed.
    fn pop_ready(&self, qd: QDesc) -> Option<OperationResult> {
        let conn = match self.inner.borrow().queues.get(qd) {
            Ok(CatcornQueue::Conn(conn)) => conn.clone(),
            _ => return Some(OperationResult::Failed(DemiError::Closed)),
        };
        let completion = conn.borrow_mut().recv_ready.pop_front()?;
        if !completion.status.is_ok() {
            return Some(OperationResult::Failed(rdma_status_err(completion.status)));
        }
        let slot = (completion.wr_id & !RECV_WR_FLAG) as usize;
        let (qp, recv_mr) = {
            let c = conn.borrow();
            (c.qp, c.recv_mr)
        };
        let Ok(payload) = self
            .device
            .mr_read(recv_mr, slot * SLOT_SIZE, completion.byte_len)
        else {
            return Some(OperationResult::Failed(DemiError::Rdma("mr read")));
        };
        // Two counted copies: out of the receive slot, then into the popped
        // buffer.
        self.metrics.count_copy(payload.len());
        self.metrics.count_copy(payload.len());
        // Recycle the slot: re-post the receive.
        let _ = self
            .device
            .post_recv(qp, completion.wr_id, recv_mr, slot * SLOT_SIZE, SLOT_SIZE);
        Some(OperationResult::Pop {
            from: None,
            sga: Sga::from_slice(&payload),
        })
    }
}

fn rdma_status_err(status: WcStatus) -> DemiError {
    DemiError::Rdma(match status {
        WcStatus::RnrRetryExceeded => "receiver not ready",
        WcStatus::LocalLengthError => "receive buffer too small",
        WcStatus::LocalProtectionError => "local protection error",
        WcStatus::RemoteAccessError => "remote access error",
        WcStatus::RetryExceeded => "transport retries exceeded",
        WcStatus::BadResponse => "bad read response",
        WcStatus::WrFlushed => "work request flushed",
        WcStatus::Success => "success",
    })
}

#[cfg(test)]
mod tests;

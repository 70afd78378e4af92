//! The device engine: queue pairs, reliability, and the connection manager.
//!
//! A queue pair's `Link` holds the facts of its state and nothing else
//! does: the handshake's target and retry timer while `Connecting`, the
//! peer and the retransmission timer while `Rts`. A message addressed to a
//! QP counts only from the station the link names, and every move to
//! `Error` that can strand work goes through `Qp::fail`.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use sim_fabric::{Endpoint, Fabric, MacAddress, SimTime};

use crate::verbs::{
    Completion, CqId, MrAccess, MrId, PdId, QpError, QpId, QpState, WcOpcode, WcStatus,
};
use crate::wire::WireMsg;

/// Transport retransmission timeout (fixed; real HCAs use a static,
/// firmware-configured timeout rather than RTT estimation).
const RTO: SimTime = SimTime::from_micros(100);
/// Delay before retrying after an RNR NACK.
const RNR_DELAY: SimTime = SimTime::from_micros(50);
/// Transport retries before a fatal `RetryExceeded`.
const TRANSPORT_RETRIES: u32 = 7;
/// RNR retries before `RnrRetryExceeded`.
const RNR_RETRIES: u32 = 7;
/// Connection-request retries.
const CONNECT_RETRIES: u32 = 5;
/// Delay between connection-request retries.
const CONNECT_RETRY_DELAY: SimTime = SimTime::from_millis(1);
/// Maximum outstanding work requests per QP.
const MAX_OUTSTANDING: usize = 64;
/// Largest message accepted by `post_send`/`post_write`/`post_read`.
const MAX_MSG_SIZE: usize = 1 << 20;

/// Device-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RdmaDeviceStats {
    /// Memory regions registered.
    pub mr_registrations: u64,
    /// Bytes currently pinned by registrations.
    pub pinned_bytes: u64,
    /// SENDs transmitted (first transmissions).
    pub sends: u64,
    /// Retransmissions (go-back-N resends).
    pub retransmits: u64,
    /// RNR NACKs sent (no receive buffer posted).
    pub rnr_nacks_sent: u64,
    /// Two-sided receptions that raised a responder CPU event.
    pub responder_cpu_events: u64,
    /// One-sided WRITEs executed entirely on the device.
    pub onesided_writes_handled: u64,
    /// One-sided READs executed entirely on the device.
    pub onesided_reads_handled: u64,
    /// Queue pairs visited by `poll`'s timer sweep and `next_deadline`'s
    /// scan: every queue pair, idle or not, on each call (ROADMAP item 11
    /// makes it the due ones only).
    pub qp_visits: u64,
}

struct Mr {
    pd: PdId,
    rkey: u32,
    access: MrAccess,
    storage: Vec<u8>,
}

struct RecvWr {
    wr_id: u64,
    mr: MrId,
    offset: usize,
    len: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutKind {
    Send,
    Write,
    Read { local_mr: MrId, local_off: usize },
}

struct OutWr {
    wr_id: u64,
    psn: u32,
    kind: OutKind,
    body: WireMsg,
    byte_len: usize,
    rnr_left: u32,
}

impl OutWr {
    fn completion(&self, qp: QpId, status: WcStatus, byte_len: usize) -> Completion {
        let opcode = match self.kind {
            OutKind::Send => WcOpcode::Send,
            OutKind::Write => WcOpcode::Write,
            OutKind::Read { .. } => WcOpcode::Read,
        };
        Completion {
            wr_id: self.wr_id,
            qp,
            opcode,
            status,
            byte_len,
        }
    }
}

/// Where a queue pair is in its life, carrying the facts that hold there.
enum Link {
    Init,
    /// Active side of the handshake: the `ConnReq` to `target` (MAC,
    /// listener port) is resent at `deadline` while retries are left.
    Connecting {
        target: (MacAddress, u16),
        deadline: SimTime,
        retries_left: u32,
    },
    /// Connected to `peer` (MAC, QP number). `rto` is armed while work is
    /// outstanding.
    Rts {
        peer: (MacAddress, u32),
        rto: Option<SimTime>,
        retries_left: u32,
    },
    Error,
}

struct Qp {
    pd: PdId,
    send_cq: CqId,
    recv_cq: CqId,
    link: Link,
    // Requester.
    next_psn: u32,
    outstanding: VecDeque<OutWr>,
    // Responder.
    expected_psn: u32,
    recv_queue: VecDeque<RecvWr>,
}

/// The device-wide resources every queue pair reaches: the wire, the
/// memory regions, the completion queues and the counters.
struct Hca {
    endpoint: Endpoint,
    mrs: HashMap<MrId, Mr>,
    rkey_index: HashMap<u32, MrId>,
    cqs: HashMap<CqId, VecDeque<Completion>>,
    stats: RdmaDeviceStats,
}

struct Inner {
    hca: Hca,
    /// Ordered by id, so timers fire in the same order on every run.
    qps: BTreeMap<QpId, Qp>,
    /// Per listening port, the connection requests not yet accepted.
    listeners: HashMap<u16, VecDeque<(MacAddress, u32)>>,
    next_id: u32,
}

/// One simulated RDMA NIC attached to the fabric.
///
/// All verbs calls go through this handle (which models the device context
/// plus its driver). Single-threaded: clone handles freely within one
/// simulation.
#[derive(Clone)]
pub struct RdmaDevice {
    inner: Rc<RefCell<Inner>>,
}

impl RdmaDevice {
    /// Attaches a device to the fabric at `mac`.
    pub fn new(fabric: &Fabric, mac: MacAddress) -> Self {
        RdmaDevice {
            inner: Rc::new(RefCell::new(Inner {
                hca: Hca {
                    endpoint: fabric.register_endpoint(mac),
                    mrs: HashMap::new(),
                    rkey_index: HashMap::new(),
                    cqs: HashMap::new(),
                    stats: RdmaDeviceStats::default(),
                },
                qps: BTreeMap::new(),
                listeners: HashMap::new(),
                next_id: 1,
            })),
        }
    }

    /// Device counters.
    pub fn stats(&self) -> RdmaDeviceStats {
        self.inner.borrow().hca.stats
    }

    // ------------------------------------------------------------------
    // Resource creation.
    // ------------------------------------------------------------------

    /// Allocates a protection domain.
    pub fn alloc_pd(&self) -> PdId {
        PdId(self.inner.borrow_mut().alloc_id())
    }

    /// Creates a completion queue.
    pub fn create_cq(&self) -> CqId {
        let mut inner = self.inner.borrow_mut();
        let id = CqId(inner.alloc_id());
        inner.hca.cqs.insert(id, VecDeque::new());
        id
    }

    /// Registers `len` bytes of memory in `pd` with the given remote-access
    /// rights. Returns the region handle; its rkey is
    /// [`RdmaDevice::rkey`].
    ///
    /// This is the explicit, application-visible registration the paper
    /// wants to hide inside the libOS.
    pub fn register_mr(&self, pd: PdId, len: usize, access: MrAccess) -> MrId {
        let mut inner = self.inner.borrow_mut();
        let id = MrId(inner.alloc_id());
        let rkey = id.0.wrapping_mul(0x9E37_79B9) | 1;
        let hca = &mut inner.hca;
        hca.mrs.insert(
            id,
            Mr {
                pd,
                rkey,
                access,
                storage: vec![0u8; len],
            },
        );
        hca.rkey_index.insert(rkey, id);
        hca.stats.mr_registrations += 1;
        hca.stats.pinned_bytes += len as u64;
        id
    }

    /// Deregisters a region; its rkey stops resolving.
    pub fn deregister_mr(&self, mr: MrId) {
        let hca = &mut self.inner.borrow_mut().hca;
        if let Some(m) = hca.mrs.remove(&mr) {
            hca.rkey_index.remove(&m.rkey);
            hca.stats.pinned_bytes -= m.storage.len() as u64;
        }
    }

    /// The remote key for a registered region.
    pub fn rkey(&self, mr: MrId) -> Result<u32, QpError> {
        let inner = self.inner.borrow();
        Ok(inner.hca.mrs.get(&mr).ok_or(QpError::BadHandle)?.rkey)
    }

    /// Writes application data into a registered region.
    pub fn mr_write(&self, mr: MrId, offset: usize, data: &[u8]) -> Result<(), QpError> {
        let mut inner = self.inner.borrow_mut();
        let m = inner.hca.mrs.get_mut(&mr).ok_or(QpError::BadHandle)?;
        let end = offset.checked_add(data.len()).ok_or(QpError::OutOfBounds)?;
        let dst = m.storage.get_mut(offset..end).ok_or(QpError::OutOfBounds)?;
        dst.copy_from_slice(data);
        Ok(())
    }

    /// Reads application data out of a registered region.
    pub fn mr_read(&self, mr: MrId, offset: usize, len: usize) -> Result<Vec<u8>, QpError> {
        let inner = self.inner.borrow();
        let m = inner.hca.mrs.get(&mr).ok_or(QpError::BadHandle)?;
        let end = offset.checked_add(len).ok_or(QpError::OutOfBounds)?;
        let src = m.storage.get(offset..end).ok_or(QpError::OutOfBounds)?;
        Ok(src.to_vec())
    }

    /// Creates a reliable-connected queue pair.
    pub fn create_qp(&self, pd: PdId, send_cq: CqId, recv_cq: CqId) -> QpId {
        let mut inner = self.inner.borrow_mut();
        let id = QpId(inner.alloc_id());
        let qp = Qp {
            pd,
            send_cq,
            recv_cq,
            link: Link::Init,
            next_psn: 0,
            outstanding: VecDeque::new(),
            expected_psn: 0,
            recv_queue: VecDeque::new(),
        };
        inner.qps.insert(id, qp);
        id
    }

    /// Current QP state.
    pub fn qp_state(&self, qp: QpId) -> Result<QpState, QpError> {
        let inner = self.inner.borrow();
        Ok(inner.qps.get(&qp).ok_or(QpError::BadHandle)?.state())
    }

    // ------------------------------------------------------------------
    // Connection management (the rdmacm stand-in).
    // ------------------------------------------------------------------

    /// Starts listening for connection requests on `port`.
    pub fn listen(&self, port: u16) -> Result<(), QpError> {
        let mut inner = self.inner.borrow_mut();
        if inner.listeners.contains_key(&port) {
            return Err(QpError::AddrInUse(port));
        }
        inner.listeners.insert(port, VecDeque::new());
        Ok(())
    }

    /// Accepts a pending connection request on `port`, binding it to `qp`
    /// (which must be in `Init`). Returns `false` when none is pending.
    pub fn accept(&self, port: u16, qp: QpId) -> Result<bool, QpError> {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let pending = inner.listeners.get_mut(&port).ok_or(QpError::BadHandle)?;
        let q = inner.qps.get_mut(&qp).ok_or(QpError::BadHandle)?;
        if !matches!(q.link, Link::Init) {
            return Err(QpError::InvalidState);
        }
        let Some((mac, peer_qp)) = pending.pop_front() else {
            return Ok(false);
        };
        q.link = Link::Rts {
            peer: (mac, peer_qp),
            rto: None,
            retries_left: TRANSPORT_RETRIES,
        };
        let resp = WireMsg::ConnResp {
            dst_qp: peer_qp,
            src_qp: qp.0,
            accepted: true,
        };
        inner.hca.send(mac, &resp);
        Ok(true)
    }

    /// Starts connecting `qp` to the listener at `remote`/`port`.
    pub fn connect(
        &self,
        qp: QpId,
        remote: MacAddress,
        port: u16,
        now: SimTime,
    ) -> Result<(), QpError> {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let q = inner.qps.get_mut(&qp).ok_or(QpError::BadHandle)?;
        if !matches!(q.link, Link::Init) {
            return Err(QpError::InvalidState);
        }
        q.link = Link::Connecting {
            target: (remote, port),
            deadline: now.saturating_add(CONNECT_RETRY_DELAY),
            retries_left: CONNECT_RETRIES,
        };
        inner
            .hca
            .send(remote, &WireMsg::ConnReq { src_qp: qp.0, port });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Work requests.
    // ------------------------------------------------------------------

    /// Posts a receive buffer (`mr[offset..offset+len]`).
    pub fn post_recv(
        &self,
        qp: QpId,
        wr_id: u64,
        mr: MrId,
        offset: usize,
        len: usize,
    ) -> Result<(), QpError> {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let q = inner.qps.get_mut(&qp).ok_or(QpError::BadHandle)?;
        inner.hca.validate_local(q.pd, mr, offset, len)?;
        q.recv_queue.push_back(RecvWr {
            wr_id,
            mr,
            offset,
            len,
        });
        Ok(())
    }

    /// Posts a SEND of `mr[offset..offset+len]`.
    pub fn post_send(
        &self,
        qp: QpId,
        wr_id: u64,
        mr: MrId,
        offset: usize,
        len: usize,
        now: SimTime,
    ) -> Result<(), QpError> {
        let local = (mr, offset, len);
        self.post(
            qp,
            wr_id,
            local,
            OutKind::Send,
            now,
            |dst_qp, psn, bytes| WireMsg::Send {
                dst_qp,
                psn,
                payload: bytes.to_vec(),
            },
        )
    }

    /// Posts an RDMA WRITE of `mr[offset..offset+len]` to the remote region
    /// `(rkey, remote_offset)`.
    #[allow(clippy::too_many_arguments)]
    pub fn post_write(
        &self,
        qp: QpId,
        wr_id: u64,
        mr: MrId,
        offset: usize,
        len: usize,
        rkey: u32,
        remote_offset: u64,
        now: SimTime,
    ) -> Result<(), QpError> {
        let local = (mr, offset, len);
        self.post(
            qp,
            wr_id,
            local,
            OutKind::Write,
            now,
            |dst_qp, psn, bytes| WireMsg::Write {
                dst_qp,
                psn,
                rkey,
                offset: remote_offset,
                payload: bytes.to_vec(),
            },
        )
    }

    /// Posts an RDMA READ of `len` bytes from the remote region
    /// `(rkey, remote_offset)` into `mr[offset..]`.
    #[allow(clippy::too_many_arguments)]
    pub fn post_read(
        &self,
        qp: QpId,
        wr_id: u64,
        mr: MrId,
        offset: usize,
        len: usize,
        rkey: u32,
        remote_offset: u64,
        now: SimTime,
    ) -> Result<(), QpError> {
        let kind = OutKind::Read {
            local_mr: mr,
            local_off: offset,
        };
        self.post(qp, wr_id, (mr, offset, len), kind, now, |dst_qp, psn, _| {
            WireMsg::ReadReq {
                dst_qp,
                psn,
                rkey,
                offset: remote_offset,
                len: len as u32,
            }
        })
    }

    /// The one send-queue post: checks the QP's state, then the local range
    /// `(mr, offset, len)`, then the size and the queue depth; `build`
    /// makes the request from the peer's QP number, the PSN and the local
    /// bytes.
    fn post(
        &self,
        qp: QpId,
        wr_id: u64,
        (mr, offset, len): (MrId, usize, usize),
        kind: OutKind,
        now: SimTime,
        build: impl FnOnce(u32, u32, &[u8]) -> WireMsg,
    ) -> Result<(), QpError> {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let q = inner.qps.get_mut(&qp).ok_or(QpError::BadHandle)?;
        let Link::Rts { peer, rto, .. } = &mut q.link else {
            return Err(QpError::InvalidState);
        };
        let bytes = inner.hca.validate_local(q.pd, mr, offset, len)?;
        if len > MAX_MSG_SIZE {
            return Err(QpError::OutOfBounds);
        }
        if q.outstanding.len() >= MAX_OUTSTANDING {
            return Err(QpError::QueueFull);
        }
        let psn = q.next_psn;
        q.next_psn = psn.wrapping_add(1);
        let body = build(peer.1, psn, bytes);
        rto.get_or_insert(now.saturating_add(RTO));
        inner.hca.endpoint.transmit(peer.0, body.serialize());
        if kind == OutKind::Send {
            inner.hca.stats.sends += 1;
        }
        q.outstanding.push_back(OutWr {
            wr_id,
            psn,
            kind,
            body,
            byte_len: len,
            rnr_left: RNR_RETRIES,
        });
        Ok(())
    }

    /// Pops up to `max` completions from a CQ.
    pub fn poll_cq(&self, cq: CqId, max: usize) -> Vec<Completion> {
        let mut inner = self.inner.borrow_mut();
        let Some(queue) = inner.hca.cqs.get_mut(&cq) else {
            return Vec::new();
        };
        let take = queue.len().min(max);
        queue.drain(..take).collect()
    }

    // ------------------------------------------------------------------
    // The device "firmware" loop.
    // ------------------------------------------------------------------

    /// Processes delivered fabric frames and expired timers. Returns how
    /// many frames were consumed plus how many connecting queue pairs gave
    /// up (moved to `Error` on their last retry, with no frame), so pollers
    /// can report — and wake on — device progress.
    pub fn poll(&self, now: SimTime) -> usize {
        let mut inner = self.inner.borrow_mut();
        let mut frames = 0;
        while let Some(frame) = inner.hca.endpoint.receive() {
            frames += 1;
            // The HCA sends every message as one flat frame.
            if let Some(msg) = frame.payload.as_flat().and_then(WireMsg::parse) {
                inner.handle_msg(frame.src, msg, now);
            }
        }
        frames + inner.tick(now)
    }

    /// Earliest device timer deadline (for runtime clock advancement).
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut inner = self.inner.borrow_mut();
        inner.hca.stats.qp_visits += inner.qps.len() as u64;
        inner.qps.values().filter_map(Qp::deadline).min()
    }
}

impl Inner {
    fn alloc_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn handle_msg(&mut self, src: MacAddress, msg: WireMsg, now: SimTime) {
        let id = match msg {
            WireMsg::ConnReq { src_qp, port } => return self.conn_req(src, src_qp, port),
            WireMsg::ConnResp { dst_qp, .. }
            | WireMsg::Send { dst_qp, .. }
            | WireMsg::Ack { dst_qp, .. }
            | WireMsg::Rnr { dst_qp, .. }
            | WireMsg::FatalNack { dst_qp, .. }
            | WireMsg::Write { dst_qp, .. }
            | WireMsg::ReadReq { dst_qp, .. }
            | WireMsg::ReadResp { dst_qp, .. } => QpId(dst_qp),
        };
        let Some(q) = self.qps.get_mut(&id) else {
            return;
        };
        // A QP-addressed message counts only from the station the QP is
        // bound to: the handshake's target, then the connected peer.
        match (&q.link, msg) {
            (
                &Link::Connecting {
                    target: (mac, _), ..
                },
                WireMsg::ConnResp {
                    src_qp, accepted, ..
                },
            ) if mac == src => {
                q.link = if accepted {
                    Link::Rts {
                        peer: (src, src_qp),
                        rto: None,
                        retries_left: TRANSPORT_RETRIES,
                    }
                } else {
                    Link::Error
                };
            }
            (&Link::Rts { peer, .. }, msg) if peer.0 == src => {
                q.on_peer_msg(id, peer, msg, &mut self.hca, now);
            }
            _ => {}
        }
    }

    fn conn_req(&mut self, src: MacAddress, src_qp: u32, port: u16) {
        // A retried request for a connection we already accepted means our
        // ConnResp was lost: resend it. QP ids start at 1, so 0 refuses.
        let accepted = self.qps.iter().find_map(|(id, q)| match q.link {
            Link::Rts { peer, .. } if peer == (src, src_qp) => Some(id.0),
            _ => None,
        });
        let resp_qp = match (accepted, self.listeners.get_mut(&port)) {
            (Some(id), _) => id,
            (None, Some(pending)) => {
                // De-duplicate retried requests.
                if !pending.contains(&(src, src_qp)) {
                    pending.push_back((src, src_qp));
                }
                return;
            }
            (None, None) => 0,
        };
        let resp = WireMsg::ConnResp {
            dst_qp: src_qp,
            src_qp: resp_qp,
            accepted: resp_qp != 0,
        };
        self.hca.send(src, &resp);
    }

    /// Fires the timers that are due, in QP-id order.
    /// Fires due connect retries and transport RTOs; returns how many
    /// connecting queue pairs ran out of retries.
    fn tick(&mut self, now: SimTime) -> usize {
        let (hca, mut refused) = (&mut self.hca, 0);
        hca.stats.qp_visits += self.qps.len() as u64;
        for (&id, q) in &mut self.qps {
            match &mut q.link {
                Link::Connecting {
                    target: (mac, port),
                    deadline,
                    retries_left,
                } if now >= *deadline => {
                    if *retries_left == 0 {
                        q.link = Link::Error;
                        refused += 1;
                        continue;
                    }
                    *retries_left -= 1;
                    *deadline = now.saturating_add(CONNECT_RETRY_DELAY);
                    let port = *port;
                    hca.send(*mac, &WireMsg::ConnReq { src_qp: id.0, port });
                }
                // Transport RTO: go-back-N resend of everything outstanding.
                Link::Rts {
                    peer: (mac, _),
                    rto: Some(deadline),
                    retries_left,
                } if now >= *deadline => {
                    if *retries_left == 0 {
                        q.fail(id, WcStatus::RetryExceeded, hca);
                        continue;
                    }
                    *retries_left -= 1;
                    *deadline = now.saturating_add(RTO);
                    for w in &q.outstanding {
                        hca.stats.retransmits += 1;
                        hca.send(*mac, &w.body);
                    }
                }
                _ => {}
            }
        }
        refused
    }
}

impl Hca {
    fn send(&self, dst: MacAddress, msg: &WireMsg) {
        self.endpoint.transmit(dst, msg.serialize());
    }

    fn complete(&mut self, cq: CqId, completion: Completion) {
        if let Some(queue) = self.cqs.get_mut(&cq) {
            queue.push_back(completion);
        }
    }

    /// The bytes `mr[offset..offset+len]` of a region in `pd`.
    fn validate_local(
        &self,
        pd: PdId,
        mr: MrId,
        offset: usize,
        len: usize,
    ) -> Result<&[u8], QpError> {
        let m = self.mrs.get(&mr).ok_or(QpError::BadHandle)?;
        if m.pd != pd {
            return Err(QpError::PdMismatch);
        }
        let end = offset.checked_add(len).ok_or(QpError::OutOfBounds)?;
        m.storage.get(offset..end).ok_or(QpError::OutOfBounds)
    }

    /// The `len` bytes at `offset` of the region `rkey` names, if that
    /// region is in `pd` (that of the QP the request arrived on), grants
    /// `allowed`, and holds the whole range.
    fn remote_range(
        &mut self,
        pd: PdId,
        rkey: u32,
        allowed: fn(MrAccess) -> bool,
        offset: u64,
        len: usize,
    ) -> Option<&mut [u8]> {
        let m = self.mrs.get_mut(self.rkey_index.get(&rkey)?)?;
        if m.pd != pd || !allowed(m.access) {
            return None;
        }
        let off = usize::try_from(offset).ok()?;
        m.storage.get_mut(off..off.checked_add(len)?)
    }
}

impl Qp {
    fn state(&self) -> QpState {
        match self.link {
            Link::Init => QpState::Init,
            Link::Connecting { .. } => QpState::Connecting,
            Link::Rts { .. } => QpState::Rts,
            Link::Error => QpState::Error,
        }
    }

    fn deadline(&self) -> Option<SimTime> {
        match self.link {
            Link::Connecting { deadline, .. } => Some(deadline),
            Link::Rts { rto, .. } => rto,
            Link::Init | Link::Error => None,
        }
    }

    /// Moves the QP to `Error`, disarming its timers: the first outstanding
    /// work request completes with `cause`, the rest with `WrFlushed`.
    fn fail(&mut self, id: QpId, cause: WcStatus, hca: &mut Hca) {
        self.link = Link::Error;
        let mut status = cause;
        for wr in self.outstanding.drain(..) {
            hca.complete(self.send_cq, wr.completion(id, status, 0));
            status = WcStatus::WrFlushed;
        }
    }

    /// A message from the connected peer `(mac, qp number)`.
    fn on_peer_msg(
        &mut self,
        id: QpId,
        peer: (MacAddress, u32),
        msg: WireMsg,
        hca: &mut Hca,
        now: SimTime,
    ) {
        match msg {
            WireMsg::Send { psn, payload, .. } => {
                self.responder_sequenced(id, peer, psn, hca, |q, hca| {
                    q.execute_recv(id, &payload, hca)
                });
            }
            WireMsg::Write {
                psn,
                rkey,
                offset,
                payload,
                ..
            } => {
                self.responder_sequenced(id, peer, psn, hca, |q, hca| {
                    let allowed = |a: MrAccess| a.remote_write;
                    let Some(dst) = hca.remote_range(q.pd, rkey, allowed, offset, payload.len())
                    else {
                        return ResponderOutcome::Fatal;
                    };
                    dst.copy_from_slice(&payload);
                    // One-sided: the responder CPU is never involved.
                    hca.stats.onesided_writes_handled += 1;
                    ResponderOutcome::Ok
                });
            }
            WireMsg::ReadReq {
                psn,
                rkey,
                offset,
                len,
                ..
            } => self.responder_read(id, peer, psn, (rkey, offset, len as usize), hca),
            WireMsg::Ack { psn, .. } => self.requester_ack(id, psn, None, hca, now),
            WireMsg::ReadResp { psn, payload, .. } => {
                self.requester_ack(id, psn.wrapping_add(1), Some((psn, payload)), hca, now);
            }
            WireMsg::Rnr { psn, .. } => self.requester_rnr(id, psn, hca, now),
            WireMsg::FatalNack { .. } => self.fail(id, WcStatus::RemoteAccessError, hca),
            WireMsg::ConnReq { .. } | WireMsg::ConnResp { .. } => {}
        }
    }

    /// Go-back-N responder sequencing for SEND and WRITE. `execute` returns
    /// the outcome: `Ok` advances, `Fatal` breaks the connection, and `Rnr`
    /// NACKs without advancing.
    fn responder_sequenced(
        &mut self,
        id: QpId,
        (mac, peer_qp): (MacAddress, u32),
        psn: u32,
        hca: &mut Hca,
        execute: impl FnOnce(&mut Self, &mut Hca) -> ResponderOutcome,
    ) {
        let reply = if psn_lt(psn, self.expected_psn) {
            // Duplicate: re-ACK cumulative state.
            WireMsg::Ack {
                dst_qp: peer_qp,
                psn: self.expected_psn,
            }
        } else if psn != self.expected_psn {
            return; // Out of order under go-back-N: drop, sender resends.
        } else {
            match execute(self, hca) {
                ResponderOutcome::Ok => {
                    self.expected_psn = psn.wrapping_add(1);
                    WireMsg::Ack {
                        dst_qp: peer_qp,
                        psn: self.expected_psn,
                    }
                }
                ResponderOutcome::Rnr => {
                    hca.stats.rnr_nacks_sent += 1;
                    WireMsg::Rnr {
                        dst_qp: peer_qp,
                        psn,
                    }
                }
                ResponderOutcome::Fatal => {
                    self.fail(id, WcStatus::WrFlushed, hca);
                    WireMsg::FatalNack {
                        dst_qp: peer_qp,
                        psn,
                    }
                }
            }
        };
        hca.send(mac, &reply);
    }

    /// Places a SEND into the next posted receive. A buffer that is too
    /// small, or whose region was deregistered since it was posted, fails
    /// the connection.
    fn execute_recv(&mut self, id: QpId, payload: &[u8], hca: &mut Hca) -> ResponderOutcome {
        let Some(wr) = self.recv_queue.pop_front() else {
            return ResponderOutcome::Rnr;
        };
        let dst = hca.mrs.get_mut(&wr.mr).and_then(|m| {
            let end = wr.offset.checked_add(payload.len())?;
            m.storage.get_mut(wr.offset..end)
        });
        let status = match dst {
            // "Receivers must allocate ... buffers of the right size."
            _ if payload.len() > wr.len => WcStatus::LocalLengthError,
            None => WcStatus::LocalProtectionError,
            Some(dst) => {
                dst.copy_from_slice(payload);
                hca.stats.responder_cpu_events += 1;
                WcStatus::Success
            }
        };
        let byte_len = if status.is_ok() { payload.len() } else { 0 };
        let completion = Completion {
            wr_id: wr.wr_id,
            qp: id,
            opcode: WcOpcode::Recv,
            status,
            byte_len,
        };
        hca.complete(self.recv_cq, completion);
        if status.is_ok() {
            ResponderOutcome::Ok
        } else {
            ResponderOutcome::Fatal
        }
    }

    fn responder_read(
        &mut self,
        id: QpId,
        (mac, peer_qp): (MacAddress, u32),
        psn: u32,
        (rkey, offset, len): (u32, u64, usize),
        hca: &mut Hca,
    ) {
        // Reads are idempotent: duplicates re-execute; only psn > expected
        // (a gap under go-back-N) is dropped.
        if psn_lt(self.expected_psn, psn) {
            return;
        }
        let allowed = |a: MrAccess| a.remote_read;
        let reply = match hca.remote_range(self.pd, rkey, allowed, offset, len) {
            Some(data) => {
                let payload = data.to_vec();
                if psn == self.expected_psn {
                    self.expected_psn = psn.wrapping_add(1);
                }
                hca.stats.onesided_reads_handled += 1;
                WireMsg::ReadResp {
                    dst_qp: peer_qp,
                    psn,
                    payload,
                }
            }
            None => {
                self.fail(id, WcStatus::WrFlushed, hca);
                WireMsg::FatalNack {
                    dst_qp: peer_qp,
                    psn,
                }
            }
        };
        hca.send(mac, &reply);
    }

    /// Cumulative ACK processing: completes everything below `ack_psn`.
    /// `read_data` carries a read response `(psn, data)`; one that answers
    /// no outstanding READ is ignored, and one of the wrong length fails
    /// the QP with `BadResponse`.
    fn requester_ack(
        &mut self,
        id: QpId,
        ack_psn: u32,
        read_data: Option<(u32, Vec<u8>)>,
        hca: &mut Hca,
        now: SimTime,
    ) {
        // Place read data first (the read may not be at the queue head).
        let mut read_completion = None;
        if let Some((read_psn, data)) = read_data {
            let answers = |w: &OutWr| w.psn == read_psn && matches!(w.kind, OutKind::Read { .. });
            let found = self.outstanding.iter().position(answers);
            let Some(wr) = found.and_then(|pos| self.outstanding.remove(pos)) else {
                return;
            };
            let OutKind::Read {
                local_mr,
                local_off,
            } = wr.kind
            else {
                return;
            };
            let dst = hca.mrs.get_mut(&local_mr).and_then(|m| {
                let end = local_off.checked_add(wr.byte_len)?;
                m.storage.get_mut(local_off..end)
            });
            let status = match dst {
                _ if data.len() != wr.byte_len => WcStatus::BadResponse,
                None => WcStatus::LocalProtectionError,
                Some(dst) => {
                    dst.copy_from_slice(&data);
                    read_completion = Some(wr.completion(id, WcStatus::Success, wr.byte_len));
                    WcStatus::Success
                }
            };
            if !status.is_ok() {
                self.outstanding.push_front(wr);
                return self.fail(id, status, hca);
            }
        }

        // Complete transport-acked, non-read work in order.
        while let Some(front) = self.outstanding.front() {
            // A read acked at transport level whose data is not yet here
            // stays queued (the RTO re-requests it if the response was lost
            // — reads are idempotent).
            if !psn_lt(front.psn, ack_psn) || matches!(front.kind, OutKind::Read { .. }) {
                break;
            }
            if let Some(wr) = self.outstanding.pop_front() {
                hca.complete(
                    self.send_cq,
                    wr.completion(id, WcStatus::Success, wr.byte_len),
                );
            }
        }
        if let Link::Rts {
            rto, retries_left, ..
        } = &mut self.link
        {
            *retries_left = TRANSPORT_RETRIES;
            *rto = (!self.outstanding.is_empty()).then(|| now.saturating_add(RTO));
        }
        if let Some(completion) = read_completion {
            hca.complete(self.send_cq, completion);
        }
    }

    fn requester_rnr(&mut self, id: QpId, psn: u32, hca: &mut Hca, now: SimTime) {
        let Some(front) = self.outstanding.front_mut() else {
            return;
        };
        if front.psn != psn {
            return; // Stale NACK.
        }
        if front.rnr_left == 0 {
            return self.fail(id, WcStatus::RnrRetryExceeded, hca);
        }
        front.rnr_left -= 1;
        // Defer the resend to the RNR timer.
        if let Link::Rts { rto, .. } = &mut self.link {
            *rto = Some(now.saturating_add(RNR_DELAY));
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum ResponderOutcome {
    Ok,
    Rnr,
    Fatal,
}

/// `a < b` in wrapping PSN space.
fn psn_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}

#[cfg(test)]
mod tests;

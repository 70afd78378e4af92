//! The device engine: queue pairs, reliability, and the connection manager.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use sim_fabric::{Endpoint, Fabric, MacAddress, SimTime};

use crate::verbs::{
    Completion, CqId, MrAccess, MrId, PdId, QpError, QpId, QpState, WcOpcode, WcStatus,
};
use crate::wire::WireMsg;

/// Device tunables.
#[derive(Debug, Clone, Copy)]
pub struct RdmaConfig {
    /// Transport retransmission timeout (fixed; real HCAs use a static,
    /// firmware-configured timeout rather than RTT estimation).
    pub rto: SimTime,
    /// Delay before retrying after an RNR NACK.
    pub rnr_delay: SimTime,
    /// Transport retries before a fatal `RetryExceeded`.
    pub transport_retries: u32,
    /// RNR retries before `RnrRetryExceeded`.
    pub rnr_retries: u32,
    /// Connection-request retries.
    pub connect_retries: u32,
    /// Delay between connection-request retries.
    pub connect_retry_delay: SimTime,
    /// Maximum outstanding work requests per QP.
    pub max_outstanding: usize,
    /// Largest message accepted by `post_send`/`post_write`/`post_read`.
    pub max_msg_size: usize,
}

impl Default for RdmaConfig {
    fn default() -> Self {
        RdmaConfig {
            rto: SimTime::from_micros(100),
            rnr_delay: SimTime::from_micros(50),
            transport_retries: 7,
            rnr_retries: 7,
            connect_retries: 5,
            connect_retry_delay: SimTime::from_millis(1),
            max_outstanding: 64,
            max_msg_size: 1 << 20,
        }
    }
}

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
    /// Reads stay queued after a cumulative ACK until their data arrives.
    transport_acked: bool,
}

struct Qp {
    pd: PdId,
    send_cq: CqId,
    recv_cq: CqId,
    state: QpState,
    peer: Option<(MacAddress, u32)>,
    // Requester.
    next_psn: u32,
    outstanding: VecDeque<OutWr>,
    rto_deadline: Option<SimTime>,
    retries_left: u32,
    // Responder.
    expected_psn: u32,
    recv_queue: VecDeque<RecvWr>,
    // CM (active side).
    connect_target: Option<(MacAddress, u16)>,
    connect_deadline: Option<SimTime>,
    connect_retries_left: u32,
}

struct Listener {
    pending: VecDeque<(MacAddress, u32)>,
}

struct Inner {
    endpoint: Endpoint,
    config: RdmaConfig,
    pds: Vec<PdId>,
    mrs: HashMap<MrId, Mr>,
    rkey_index: HashMap<u32, MrId>,
    cqs: HashMap<CqId, VecDeque<Completion>>,
    qps: HashMap<QpId, Qp>,
    listeners: HashMap<u16, Listener>,
    next_id: u32,
    stats: RdmaDeviceStats,
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
        Self::with_config(fabric, mac, RdmaConfig::default())
    }

    /// Attaches a device with explicit tunables.
    pub fn with_config(fabric: &Fabric, mac: MacAddress, config: RdmaConfig) -> Self {
        RdmaDevice {
            inner: Rc::new(RefCell::new(Inner {
                endpoint: fabric.register_endpoint(mac),
                config,
                pds: Vec::new(),
                mrs: HashMap::new(),
                rkey_index: HashMap::new(),
                cqs: HashMap::new(),
                qps: HashMap::new(),
                listeners: HashMap::new(),
                next_id: 1,
                stats: RdmaDeviceStats::default(),
            })),
        }
    }

    /// The device's hardware address.
    pub fn mac(&self) -> MacAddress {
        self.inner.borrow().endpoint.mac()
    }

    /// Device counters.
    pub fn stats(&self) -> RdmaDeviceStats {
        self.inner.borrow().stats
    }

    // ------------------------------------------------------------------
    // Resource creation.
    // ------------------------------------------------------------------

    /// Allocates a protection domain.
    pub fn alloc_pd(&self) -> PdId {
        let mut inner = self.inner.borrow_mut();
        let id = PdId(inner.alloc_id());
        inner.pds.push(id);
        id
    }

    /// Creates a completion queue.
    pub fn create_cq(&self) -> CqId {
        let mut inner = self.inner.borrow_mut();
        let id = CqId(inner.alloc_id());
        inner.cqs.insert(id, VecDeque::new());
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
        inner.mrs.insert(
            id,
            Mr {
                pd,
                rkey,
                access,
                storage: vec![0u8; len],
            },
        );
        inner.rkey_index.insert(rkey, id);
        inner.stats.mr_registrations += 1;
        inner.stats.pinned_bytes += len as u64;
        id
    }

    /// Deregisters a region; its rkey stops resolving.
    pub fn deregister_mr(&self, mr: MrId) {
        let mut inner = self.inner.borrow_mut();
        if let Some(m) = inner.mrs.remove(&mr) {
            inner.rkey_index.remove(&m.rkey);
            inner.stats.pinned_bytes -= m.storage.len() as u64;
        }
    }

    /// The remote key for a registered region.
    pub fn rkey(&self, mr: MrId) -> Result<u32, QpError> {
        Ok(self
            .inner
            .borrow()
            .mrs
            .get(&mr)
            .ok_or(QpError::BadHandle)?
            .rkey)
    }

    /// Writes application data into a registered region.
    pub fn mr_write(&self, mr: MrId, offset: usize, data: &[u8]) -> Result<(), QpError> {
        let mut inner = self.inner.borrow_mut();
        let m = inner.mrs.get_mut(&mr).ok_or(QpError::BadHandle)?;
        let end = offset.checked_add(data.len()).ok_or(QpError::OutOfBounds)?;
        if end > m.storage.len() {
            return Err(QpError::OutOfBounds);
        }
        m.storage[offset..end].copy_from_slice(data);
        Ok(())
    }

    /// Reads application data out of a registered region.
    pub fn mr_read(&self, mr: MrId, offset: usize, len: usize) -> Result<Vec<u8>, QpError> {
        let inner = self.inner.borrow();
        let m = inner.mrs.get(&mr).ok_or(QpError::BadHandle)?;
        let end = offset.checked_add(len).ok_or(QpError::OutOfBounds)?;
        if end > m.storage.len() {
            return Err(QpError::OutOfBounds);
        }
        Ok(m.storage[offset..end].to_vec())
    }

    /// Creates a reliable-connected queue pair.
    pub fn create_qp(&self, pd: PdId, send_cq: CqId, recv_cq: CqId) -> QpId {
        let mut inner = self.inner.borrow_mut();
        let (retries, cretries) = (inner.config.transport_retries, inner.config.connect_retries);
        let id = QpId(inner.alloc_id());
        inner.qps.insert(
            id,
            Qp {
                pd,
                send_cq,
                recv_cq,
                state: QpState::Init,
                peer: None,
                next_psn: 0,
                outstanding: VecDeque::new(),
                rto_deadline: None,
                retries_left: retries,
                expected_psn: 0,
                recv_queue: VecDeque::new(),
                connect_target: None,
                connect_deadline: None,
                connect_retries_left: cretries,
            },
        );
        id
    }

    /// Current QP state.
    pub fn qp_state(&self, qp: QpId) -> Result<QpState, QpError> {
        Ok(self
            .inner
            .borrow()
            .qps
            .get(&qp)
            .ok_or(QpError::BadHandle)?
            .state)
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
        inner.listeners.insert(
            port,
            Listener {
                pending: VecDeque::new(),
            },
        );
        Ok(())
    }

    /// Accepts a pending connection request on `port`, binding it to `qp`
    /// (which must be in `Init`). Returns `false` when none is pending.
    pub fn accept(&self, port: u16, qp: QpId, now: SimTime) -> Result<bool, QpError> {
        let _ = now;
        let mut inner = self.inner.borrow_mut();
        let listener = inner.listeners.get_mut(&port).ok_or(QpError::BadHandle)?;
        let Some((peer_mac, peer_qp)) = listener.pending.pop_front() else {
            return Ok(false);
        };
        let qp_num = qp.0;
        {
            let q = inner.qps.get_mut(&qp).ok_or(QpError::BadHandle)?;
            if q.state != QpState::Init {
                return Err(QpError::InvalidState);
            }
            q.peer = Some((peer_mac, peer_qp));
            q.state = QpState::Rts;
        }
        inner.send_msg(
            peer_mac,
            &WireMsg::ConnResp {
                dst_qp: peer_qp,
                src_qp: qp_num,
                accepted: true,
            },
        );
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
        let delay = inner.config.connect_retry_delay;
        let qp_num = qp.0;
        {
            let q = inner.qps.get_mut(&qp).ok_or(QpError::BadHandle)?;
            if q.state != QpState::Init {
                return Err(QpError::InvalidState);
            }
            q.state = QpState::Connecting;
            q.connect_target = Some((remote, port));
            q.connect_deadline = Some(now.saturating_add(delay));
        }
        inner.send_msg(
            remote,
            &WireMsg::ConnReq {
                src_qp: qp_num,
                port,
            },
        );
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
        inner.validate_local(qp, mr, offset, len)?;
        let q = inner.qps.get_mut(&qp).expect("validated");
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
        let mut inner = self.inner.borrow_mut();
        inner.validate_rts(qp)?;
        inner.validate_local(qp, mr, offset, len)?;
        inner.check_queue_space(qp, len)?;
        let payload = inner.mrs[&mr].storage[offset..offset + len].to_vec();
        inner.stats.sends += 1;
        inner.enqueue_wr(qp, wr_id, OutKind::Send, len, now, |dst_qp, psn| {
            WireMsg::Send {
                dst_qp,
                psn,
                payload,
            }
        });
        Ok(())
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
        let mut inner = self.inner.borrow_mut();
        inner.validate_rts(qp)?;
        inner.validate_local(qp, mr, offset, len)?;
        inner.check_queue_space(qp, len)?;
        let payload = inner.mrs[&mr].storage[offset..offset + len].to_vec();
        inner.enqueue_wr(qp, wr_id, OutKind::Write, len, now, |dst_qp, psn| {
            WireMsg::Write {
                dst_qp,
                psn,
                rkey,
                offset: remote_offset,
                payload,
            }
        });
        Ok(())
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
        let mut inner = self.inner.borrow_mut();
        inner.validate_rts(qp)?;
        inner.validate_local(qp, mr, offset, len)?;
        inner.check_queue_space(qp, len)?;
        inner.enqueue_wr(
            qp,
            wr_id,
            OutKind::Read {
                local_mr: mr,
                local_off: offset,
            },
            len,
            now,
            |dst_qp, psn| WireMsg::ReadReq {
                dst_qp,
                psn,
                rkey,
                offset: remote_offset,
                len: len as u32,
            },
        );
        Ok(())
    }

    /// Pops up to `max` completions from a CQ.
    pub fn poll_cq(&self, cq: CqId, max: usize) -> Vec<Completion> {
        let mut inner = self.inner.borrow_mut();
        let Some(queue) = inner.cqs.get_mut(&cq) else {
            return Vec::new();
        };
        let take = queue.len().min(max);
        queue.drain(..take).collect()
    }

    // ------------------------------------------------------------------
    // The device "firmware" loop.
    // ------------------------------------------------------------------

    /// Processes delivered fabric frames and expired timers. Returns how
    /// many frames were consumed, so pollers can report device progress.
    pub fn poll(&self, now: SimTime) -> usize {
        let mut inner = self.inner.borrow_mut();
        let mut frames = 0;
        while let Some(frame) = inner.endpoint.receive() {
            frames += 1;
            if let Some(msg) = WireMsg::parse(&frame.payload) {
                inner.handle_msg(frame.src, msg, now);
            }
        }
        inner.tick(now);
        frames
    }

    /// Earliest device timer deadline (for runtime clock advancement).
    pub fn next_deadline(&self) -> Option<SimTime> {
        let inner = self.inner.borrow();
        inner
            .qps
            .values()
            .flat_map(|q| [q.rto_deadline, q.connect_deadline])
            .flatten()
            .min()
    }
}

impl Inner {
    fn alloc_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn send_msg(&mut self, dst: MacAddress, msg: &WireMsg) {
        self.endpoint.transmit(dst, msg.serialize());
    }

    fn validate_rts(&self, qp: QpId) -> Result<(), QpError> {
        match self.qps.get(&qp) {
            None => Err(QpError::BadHandle),
            Some(q) if q.state != QpState::Rts => Err(QpError::InvalidState),
            Some(_) => Ok(()),
        }
    }

    fn validate_local(&self, qp: QpId, mr: MrId, offset: usize, len: usize) -> Result<(), QpError> {
        let q = self.qps.get(&qp).ok_or(QpError::BadHandle)?;
        let m = self.mrs.get(&mr).ok_or(QpError::BadHandle)?;
        if m.pd != q.pd {
            return Err(QpError::PdMismatch);
        }
        let end = offset.checked_add(len).ok_or(QpError::OutOfBounds)?;
        if end > m.storage.len() {
            return Err(QpError::OutOfBounds);
        }
        Ok(())
    }

    fn check_queue_space(&self, qp: QpId, len: usize) -> Result<(), QpError> {
        if len > self.config.max_msg_size {
            return Err(QpError::OutOfBounds);
        }
        let q = self.qps.get(&qp).expect("validated by caller");
        if q.outstanding.len() >= self.config.max_outstanding {
            return Err(QpError::QueueFull);
        }
        Ok(())
    }

    fn enqueue_wr(
        &mut self,
        qp: QpId,
        wr_id: u64,
        kind: OutKind,
        byte_len: usize,
        now: SimTime,
        build: impl FnOnce(u32, u32) -> WireMsg,
    ) {
        let rnr_retries = self.config.rnr_retries;
        let rto = self.config.rto;
        let q = self.qps.get_mut(&qp).expect("validated by caller");
        let (peer_mac, peer_qp) = q.peer.expect("RTS implies a peer");
        let psn = q.next_psn;
        q.next_psn = q.next_psn.wrapping_add(1);
        let body = build(peer_qp, psn);
        q.outstanding.push_back(OutWr {
            wr_id,
            psn,
            kind,
            body: body.clone(),
            byte_len,
            rnr_left: rnr_retries,
            transport_acked: false,
        });
        if q.rto_deadline.is_none() {
            q.rto_deadline = Some(now.saturating_add(rto));
        }
        self.send_msg(peer_mac, &body);
    }

    fn complete(&mut self, cq: CqId, completion: Completion) {
        if let Some(queue) = self.cqs.get_mut(&cq) {
            queue.push_back(completion);
        }
    }

    fn handle_msg(&mut self, src: MacAddress, msg: WireMsg, now: SimTime) {
        match msg {
            WireMsg::ConnReq { src_qp, port } => {
                // A retried request for a connection we already accepted
                // means our ConnResp was lost: resend it.
                if let Some((qp_id, _)) = self
                    .qps
                    .iter()
                    .find(|(_, q)| q.state == QpState::Rts && q.peer == Some((src, src_qp)))
                {
                    let resp = WireMsg::ConnResp {
                        dst_qp: src_qp,
                        src_qp: qp_id.0,
                        accepted: true,
                    };
                    self.send_msg(src, &resp);
                    return;
                }
                match self.listeners.get_mut(&port) {
                    Some(listener) => {
                        // De-duplicate retried requests.
                        if !listener
                            .pending
                            .iter()
                            .any(|&(m, q)| m == src && q == src_qp)
                        {
                            listener.pending.push_back((src, src_qp));
                        }
                    }
                    None => {
                        self.send_msg(
                            src,
                            &WireMsg::ConnResp {
                                dst_qp: src_qp,
                                src_qp: 0,
                                accepted: false,
                            },
                        );
                    }
                }
            }
            WireMsg::ConnResp {
                dst_qp,
                src_qp,
                accepted,
            } => {
                let qp_id = QpId(dst_qp);
                if let Some(q) = self.qps.get_mut(&qp_id) {
                    if q.state == QpState::Connecting {
                        if accepted {
                            q.peer = Some((src, src_qp));
                            q.state = QpState::Rts;
                        } else {
                            q.state = QpState::Error;
                        }
                        q.connect_deadline = None;
                        q.connect_target = None;
                    }
                }
            }
            WireMsg::Send {
                dst_qp,
                psn,
                payload,
            } => {
                self.responder_sequenced(src, QpId(dst_qp), psn, now, |inner, qp_id| {
                    inner.execute_recv(qp_id, payload)
                });
            }
            WireMsg::Write {
                dst_qp,
                psn,
                rkey,
                offset,
                payload,
            } => {
                self.responder_sequenced(src, QpId(dst_qp), psn, now, |inner, _qp_id| {
                    inner.execute_remote_write(rkey, offset, &payload)
                });
            }
            WireMsg::ReadReq {
                dst_qp,
                psn,
                rkey,
                offset,
                len,
            } => {
                self.responder_read(src, QpId(dst_qp), psn, rkey, offset, len as usize);
            }
            WireMsg::Ack { dst_qp, psn } => {
                self.requester_ack(QpId(dst_qp), psn, None, now);
            }
            WireMsg::ReadResp {
                dst_qp,
                psn,
                payload,
            } => {
                self.requester_ack(QpId(dst_qp), psn.wrapping_add(1), Some((psn, payload)), now);
            }
            WireMsg::Rnr { dst_qp, psn } => {
                self.requester_rnr(QpId(dst_qp), psn, now);
            }
            WireMsg::FatalNack { dst_qp, psn: _ } => {
                self.requester_fatal(QpId(dst_qp));
            }
        }
    }

    /// Go-back-N responder sequencing for SEND and WRITE. `execute` returns
    /// the outcome: `Ok(())` advances, `Err(fatal)` breaks the connection,
    /// and `Err(rnr)` NACKs without advancing.
    fn responder_sequenced(
        &mut self,
        src: MacAddress,
        qp_id: QpId,
        psn: u32,
        _now: SimTime,
        execute: impl FnOnce(&mut Self, QpId) -> ResponderOutcome,
    ) {
        let Some(q) = self.qps.get(&qp_id) else {
            return;
        };
        if q.state != QpState::Rts {
            return;
        }
        let expected = q.expected_psn;
        let peer_qp = q.peer.map(|(_, n)| n).unwrap_or(0);
        if psn_lt(psn, expected) {
            // Duplicate: re-ACK cumulative state.
            self.send_msg(
                src,
                &WireMsg::Ack {
                    dst_qp: peer_qp,
                    psn: expected,
                },
            );
            return;
        }
        if psn != expected {
            return; // Out of order under go-back-N: drop, sender resends.
        }
        match execute(self, qp_id) {
            ResponderOutcome::Ok => {
                let q = self.qps.get_mut(&qp_id).expect("checked above");
                q.expected_psn = q.expected_psn.wrapping_add(1);
                let next = q.expected_psn;
                self.send_msg(
                    src,
                    &WireMsg::Ack {
                        dst_qp: peer_qp,
                        psn: next,
                    },
                );
            }
            ResponderOutcome::Rnr => {
                self.stats.rnr_nacks_sent += 1;
                self.send_msg(
                    src,
                    &WireMsg::Rnr {
                        dst_qp: peer_qp,
                        psn,
                    },
                );
            }
            ResponderOutcome::Fatal => {
                if let Some(q) = self.qps.get_mut(&qp_id) {
                    q.state = QpState::Error;
                }
                self.send_msg(
                    src,
                    &WireMsg::FatalNack {
                        dst_qp: peer_qp,
                        psn,
                    },
                );
            }
        }
    }

    fn execute_recv(&mut self, qp_id: QpId, payload: Vec<u8>) -> ResponderOutcome {
        let q = self.qps.get_mut(&qp_id).expect("caller checked");
        let Some(wr) = q.recv_queue.pop_front() else {
            return ResponderOutcome::Rnr;
        };
        let recv_cq = q.recv_cq;
        if payload.len() > wr.len {
            // "Receivers must allocate ... buffers of the right size."
            self.complete(
                recv_cq,
                Completion {
                    wr_id: wr.wr_id,
                    qp: qp_id,
                    opcode: WcOpcode::Recv,
                    status: WcStatus::LocalLengthError,
                    byte_len: 0,
                },
            );
            return ResponderOutcome::Fatal;
        }
        let m = self.mrs.get_mut(&wr.mr).expect("validated at post_recv");
        m.storage[wr.offset..wr.offset + payload.len()].copy_from_slice(&payload);
        self.stats.responder_cpu_events += 1;
        self.complete(
            recv_cq,
            Completion {
                wr_id: wr.wr_id,
                qp: qp_id,
                opcode: WcOpcode::Recv,
                status: WcStatus::Success,
                byte_len: payload.len(),
            },
        );
        ResponderOutcome::Ok
    }

    fn execute_remote_write(&mut self, rkey: u32, offset: u64, payload: &[u8]) -> ResponderOutcome {
        let Some(&mr_id) = self.rkey_index.get(&rkey) else {
            return ResponderOutcome::Fatal;
        };
        let m = self.mrs.get_mut(&mr_id).expect("indexed");
        let off = offset as usize;
        let Some(end) = off.checked_add(payload.len()) else {
            return ResponderOutcome::Fatal;
        };
        if !m.access.remote_write || end > m.storage.len() {
            return ResponderOutcome::Fatal;
        }
        m.storage[off..end].copy_from_slice(payload);
        // One-sided: the responder CPU is never involved.
        self.stats.onesided_writes_handled += 1;
        ResponderOutcome::Ok
    }

    fn responder_read(
        &mut self,
        src: MacAddress,
        qp_id: QpId,
        psn: u32,
        rkey: u32,
        offset: u64,
        len: usize,
    ) {
        let Some(q) = self.qps.get(&qp_id) else {
            return;
        };
        if q.state != QpState::Rts {
            return;
        }
        let expected = q.expected_psn;
        let peer_qp = q.peer.map(|(_, n)| n).unwrap_or(0);
        // Reads are idempotent: duplicates re-execute; only psn > expected
        // (a gap under go-back-N) is dropped.
        if psn_lt(expected, psn) {
            return;
        }
        let outcome = (|| -> Option<Vec<u8>> {
            let &mr_id = self.rkey_index.get(&rkey)?;
            let m = self.mrs.get(&mr_id)?;
            let off = offset as usize;
            let end = off.checked_add(len)?;
            if !m.access.remote_read || end > m.storage.len() {
                return None;
            }
            Some(m.storage[off..end].to_vec())
        })();
        match outcome {
            Some(payload) => {
                if psn == expected {
                    let q = self.qps.get_mut(&qp_id).expect("checked above");
                    q.expected_psn = q.expected_psn.wrapping_add(1);
                }
                self.stats.onesided_reads_handled += 1;
                self.send_msg(
                    src,
                    &WireMsg::ReadResp {
                        dst_qp: peer_qp,
                        psn,
                        payload,
                    },
                );
            }
            None => {
                if let Some(q) = self.qps.get_mut(&qp_id) {
                    q.state = QpState::Error;
                }
                self.send_msg(
                    src,
                    &WireMsg::FatalNack {
                        dst_qp: peer_qp,
                        psn,
                    },
                );
            }
        }
    }

    /// Cumulative ACK processing: completes everything below `ack_psn`.
    /// `read_data` carries a read response `(psn, data)` when present.
    fn requester_ack(
        &mut self,
        qp_id: QpId,
        ack_psn: u32,
        read_data: Option<(u32, Vec<u8>)>,
        now: SimTime,
    ) {
        let Some(q) = self.qps.get_mut(&qp_id) else {
            return;
        };
        let send_cq = q.send_cq;
        let rto = self.config.rto;
        let retries = self.config.transport_retries;

        // Place read data first (the read may not be at the queue head).
        let mut read_completion = None;
        if let Some((read_psn, data)) = read_data {
            if let Some(pos) = q.outstanding.iter().position(|w| w.psn == read_psn) {
                let wr = q.outstanding.remove(pos).expect("position found");
                if let OutKind::Read {
                    local_mr,
                    local_off,
                } = wr.kind
                {
                    read_completion = Some((local_mr, local_off, data, wr.wr_id, wr.byte_len));
                }
            }
        }

        // Complete transport-acked, non-read work in order.
        let mut completions = Vec::new();
        while let Some(front) = q.outstanding.front_mut() {
            if !psn_lt(front.psn, ack_psn) {
                break;
            }
            match front.kind {
                OutKind::Read { .. } => {
                    // Acked at transport level but data not yet here; keep
                    // it queued (the RTO will re-request if the response
                    // was lost — reads are idempotent).
                    front.transport_acked = true;
                    break;
                }
                OutKind::Send | OutKind::Write => {
                    let wr = q.outstanding.pop_front().expect("front exists");
                    completions.push(Completion {
                        wr_id: wr.wr_id,
                        qp: qp_id,
                        opcode: if wr.kind == OutKind::Send {
                            WcOpcode::Send
                        } else {
                            WcOpcode::Write
                        },
                        status: WcStatus::Success,
                        byte_len: wr.byte_len,
                    });
                }
            }
        }
        q.retries_left = retries;
        q.rto_deadline = if q.outstanding.is_empty() {
            None
        } else {
            Some(now.saturating_add(rto))
        };

        for c in completions {
            self.complete(send_cq, c);
        }
        if let Some((local_mr, local_off, data, wr_id, _)) = read_completion {
            let byte_len = data.len();
            if let Some(m) = self.mrs.get_mut(&local_mr) {
                let end = (local_off + byte_len).min(m.storage.len());
                m.storage[local_off..end].copy_from_slice(&data[..end - local_off]);
            }
            self.complete(
                send_cq,
                Completion {
                    wr_id,
                    qp: qp_id,
                    opcode: WcOpcode::Read,
                    status: WcStatus::Success,
                    byte_len,
                },
            );
        }
    }

    fn requester_rnr(&mut self, qp_id: QpId, psn: u32, now: SimTime) {
        let Some(q) = self.qps.get_mut(&qp_id) else {
            return;
        };
        let rnr_delay = self.config.rnr_delay;
        let send_cq = q.send_cq;
        let Some(front) = q.outstanding.front_mut() else {
            return;
        };
        if front.psn != psn {
            return; // Stale NACK.
        }
        if front.rnr_left == 0 {
            let wr = q.outstanding.pop_front().expect("front exists");
            q.state = QpState::Error;
            q.rto_deadline = None;
            let flushed: Vec<Completion> = q
                .outstanding
                .drain(..)
                .map(|w| Completion {
                    wr_id: w.wr_id,
                    qp: qp_id,
                    opcode: kind_opcode(w.kind),
                    status: WcStatus::WrFlushed,
                    byte_len: 0,
                })
                .collect();
            self.complete(
                send_cq,
                Completion {
                    wr_id: wr.wr_id,
                    qp: qp_id,
                    opcode: kind_opcode(wr.kind),
                    status: WcStatus::RnrRetryExceeded,
                    byte_len: 0,
                },
            );
            for c in flushed {
                self.complete(send_cq, c);
            }
            return;
        }
        front.rnr_left -= 1;
        // Defer the resend to the RNR timer.
        q.rto_deadline = Some(now.saturating_add(rnr_delay));
    }

    fn requester_fatal(&mut self, qp_id: QpId) {
        let Some(q) = self.qps.get_mut(&qp_id) else {
            return;
        };
        q.state = QpState::Error;
        q.rto_deadline = None;
        let send_cq = q.send_cq;
        let mut completions = Vec::new();
        let mut first = true;
        for w in q.outstanding.drain(..) {
            completions.push(Completion {
                wr_id: w.wr_id,
                qp: qp_id,
                opcode: kind_opcode(w.kind),
                status: if first {
                    WcStatus::RemoteAccessError
                } else {
                    WcStatus::WrFlushed
                },
                byte_len: 0,
            });
            first = false;
        }
        for c in completions {
            self.complete(send_cq, c);
        }
    }

    fn tick(&mut self, now: SimTime) {
        let qp_ids: Vec<QpId> = self.qps.keys().copied().collect();
        for qp_id in qp_ids {
            self.tick_qp(qp_id, now);
        }
    }

    fn tick_qp(&mut self, qp_id: QpId, now: SimTime) {
        let config = self.config;
        // Connection retry.
        let mut resend_conn: Option<(MacAddress, WireMsg)> = None;
        {
            let q = self.qps.get_mut(&qp_id).expect("id collected");
            if q.state == QpState::Connecting {
                if let Some(deadline) = q.connect_deadline {
                    if now >= deadline {
                        if q.connect_retries_left == 0 {
                            q.state = QpState::Error;
                            q.connect_deadline = None;
                        } else {
                            q.connect_retries_left -= 1;
                            let (mac, port) = q.connect_target.expect("connecting");
                            q.connect_deadline =
                                Some(now.saturating_add(config.connect_retry_delay));
                            resend_conn = Some((
                                mac,
                                WireMsg::ConnReq {
                                    src_qp: qp_id.0,
                                    port,
                                },
                            ));
                        }
                    }
                }
            }
        }
        if let Some((mac, msg)) = resend_conn {
            self.send_msg(mac, &msg);
        }

        // Transport RTO: go-back-N resend of everything outstanding.
        let mut resend: Vec<(MacAddress, WireMsg)> = Vec::new();
        let mut fail = false;
        {
            let q = self.qps.get_mut(&qp_id).expect("id collected");
            if q.state == QpState::Rts {
                if let Some(deadline) = q.rto_deadline {
                    if now >= deadline && !q.outstanding.is_empty() {
                        if q.retries_left == 0 {
                            fail = true;
                        } else {
                            q.retries_left -= 1;
                            let peer_mac = q.peer.expect("RTS implies peer").0;
                            for w in &q.outstanding {
                                if !w.transport_acked || matches!(w.kind, OutKind::Read { .. }) {
                                    resend.push((peer_mac, w.body.clone()));
                                }
                            }
                            q.rto_deadline = Some(now.saturating_add(config.rto));
                        }
                    }
                }
            }
        }
        for (mac, msg) in resend {
            self.stats.retransmits += 1;
            self.send_msg(mac, &msg);
        }
        if fail {
            let q = self.qps.get_mut(&qp_id).expect("id collected");
            q.state = QpState::Error;
            q.rto_deadline = None;
            let send_cq = q.send_cq;
            let mut completions = Vec::new();
            let mut first = true;
            for w in q.outstanding.drain(..) {
                completions.push(Completion {
                    wr_id: w.wr_id,
                    qp: qp_id,
                    opcode: kind_opcode(w.kind),
                    status: if first {
                        WcStatus::RetryExceeded
                    } else {
                        WcStatus::WrFlushed
                    },
                    byte_len: 0,
                });
                first = false;
            }
            for c in completions {
                self.complete(send_cq, c);
            }
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum ResponderOutcome {
    Ok,
    Rnr,
    Fatal,
}

fn kind_opcode(kind: OutKind) -> WcOpcode {
    match kind {
        OutKind::Send => WcOpcode::Send,
        OutKind::Write => WcOpcode::Write,
        OutKind::Read { .. } => WcOpcode::Read,
    }
}

/// `a < b` in wrapping PSN space.
fn psn_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}

#[cfg(test)]
mod tests;

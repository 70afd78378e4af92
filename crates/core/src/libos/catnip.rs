//! `catnip`: the DPDK-class library OS.
//!
//! The device gives this libOS nothing but raw frames (paper Table 1,
//! left column), so catnip supplies everything the kernel used to: the
//! full [`net_stack`] (ARP/IPv4/UDP/TCP), buffer management from
//! device-registered pools, and framing that preserves atomic data units
//! over TCP's byte stream (§5.2). UDP queues map 1:1 onto datagrams; TCP
//! queues carry length-prefixed messages so a pushed Sga pops as one
//! element on the other side.
//!
//! Zero-copy: received payloads are [`demi_memory::DemiBuffer`] views into
//! the device's mbufs; pushed buffers are handle-cloned into the stack
//! (free-protection keeps them alive until the device is done). On TCP a
//! push's buffers are queued together, so small ones are gathered into
//! shared segments (a counted copy, cheaper than a frame each).
//!
//! Offload: on a SmartNIC-configured port,
//! [`LibOs::try_offload_filter`] compiles an Sga predicate into a
//! device-side frame filter for the queue's UDP port (experiment E6).

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use demi_memory::{DemiBuffer, MemoryManager};
use dpdk_sim::wire::framing::{encode_header, FRAME_HEADER_LEN};
use dpdk_sim::{DpdkPort, NicProgram, OffloadService, PortConfig};
use net_stack::eth::{EthHeader, EtherType};
use net_stack::framing::FrameDecoder;
use net_stack::ipv4::{IpProtocol, Ipv4Header};
use net_stack::tcp::{ConnId, ListenerId, State};
use net_stack::types::{NetError, SocketAddr};
use net_stack::udp::{UdpHeader, UDP_HEADER_LEN};
use net_stack::{NetworkStack, StackConfig};
use sim_fabric::{DeviceCaps, Fabric, MacAddress};

use crate::libos::{framed_pop, LibOs, LibOsKind, QueueTable, SocketKind};
use crate::runtime::{Check, Runtime};
use crate::types::{DemiError, OperationResult, QDesc, QToken, Sga};

enum CatnipQueue {
    UdpUnbound,
    Udp {
        port: u16,
        remote: Option<SocketAddr>,
    },
    TcpUnbound {
        bound: Option<SocketAddr>,
    },
    TcpListener {
        listener: ListenerId,
    },
    TcpConn {
        conn: ConnId,
        /// What pops keep between checks: framed reassembly, and the chunk
        /// list the stack drains into, its capacity kept across pops.
        decoder: FrameDecoder,
        chunks: Vec<DemiBuffer>,
    },
}

impl CatnipQueue {
    fn tcp_conn(conn: ConnId) -> Self {
        CatnipQueue::TcpConn {
            conn,
            decoder: FrameDecoder::new(),
            chunks: Vec::new(),
        }
    }
}

type Queues = RefCell<QueueTable<CatnipQueue>>;

/// The DPDK-class libOS.
#[derive(Clone)]
pub struct Catnip {
    runtime: Runtime,
    stack: Rc<NetworkStack>,
    port: DpdkPort,
    memory: MemoryManager,
    queues: Rc<Queues>,
    /// The checks of `pop` and `pop_unframed`, shared by every parked pop.
    pop: Check,
    pop_unframed: Check,
}

impl Catnip {
    /// Creates a catnip instance on a plain (non-programmable) port.
    pub fn new(runtime: &Runtime, fabric: &Fabric, mac: MacAddress, ip: Ipv4Addr) -> Self {
        Self::with_port_config(runtime, fabric, PortConfig::basic(mac), ip)
    }

    /// Creates a catnip instance with an explicit port configuration
    /// (e.g., SmartNIC program slots for offload experiments).
    pub fn with_port_config(
        runtime: &Runtime,
        fabric: &Fabric,
        port_config: PortConfig,
        ip: Ipv4Addr,
    ) -> Self {
        Self::with_stack_config(runtime, fabric, port_config, StackConfig::new(ip))
    }

    /// Creates a catnip instance with explicit stack tunables.
    pub(crate) fn with_stack_config(
        runtime: &Runtime,
        fabric: &Fabric,
        port_config: PortConfig,
        config: StackConfig,
    ) -> Self {
        let port = DpdkPort::new(fabric, port_config);
        let stack = NetworkStack::new(port.clone(), fabric.clock(), config);
        Self::over(runtime, port, stack)
    }

    /// Creates one shard of a logical host's catnip — its ring-mesh
    /// endpoint and the host's shared TCP port namespace arrive in `links`
    /// — as each world of a thread-per-shard run does for its host.
    pub(crate) fn shard_of(
        runtime: &Runtime,
        fabric: &Fabric,
        port_config: PortConfig,
        config: StackConfig,
        links: net_stack::HostLinks,
    ) -> Self {
        let port = DpdkPort::new(fabric, port_config);
        let stack = NetworkStack::shard_of(port.clone(), fabric.clock(), config, links);
        Self::over(runtime, port, stack)
    }

    fn over(runtime: &Runtime, port: DpdkPort, stack: NetworkStack) -> Self {
        let stack = Rc::new(stack);
        // The libOS polls its device on every scheduler pass. It also
        // exposes its protocol timers for clock advancement. Every
        // blocking operation below parks on its own socket's gate, which
        // the stack fires from inside that poll when the socket's
        // readiness rises.
        let poll_stack = stack.clone();
        runtime.register_poller(move || poll_stack.poll());
        let deadline_stack = stack.clone();
        runtime.register_deadline_source(move || deadline_stack.next_deadline());
        let queues = Rc::new(RefCell::new(QueueTable::new(1)));
        let check = |framed| {
            let (stack, queues) = (stack.clone(), queues.clone());
            Rc::new(move |qd, _| pop_ready(&stack, &queues, qd, framed)) as Check
        };
        Catnip {
            runtime: runtime.clone(),
            pop: check(true),
            pop_unframed: check(false),
            stack,
            port,
            memory: MemoryManager::warmed(),
            queues,
        }
    }

    /// The underlying stack (experiment instrumentation).
    pub fn stack(&self) -> &NetworkStack {
        &self.stack
    }

    /// The underlying device port (experiment instrumentation).
    pub fn port(&self) -> &DpdkPort {
        &self.port
    }

    /// The libOS memory manager (registration accounting, E5).
    pub fn memory(&self) -> &MemoryManager {
        &self.memory
    }

    /// Flattens an Sga into one contiguous datagram payload. Single-seg
    /// arrays pass through zero-copy (the same buffer handle travels down
    /// the stack); multi-seg arrays gather into a pool buffer with header
    /// headroom (counted).
    fn gather(&self, sga: &Sga) -> DemiBuffer {
        if let [seg] = sga.segments() {
            return seg.clone();
        }
        self.runtime.metrics().count_copy(sga.len());
        let mut buf = self.memory.alloc(sga.len());
        let dst = buf.try_mut().expect("fresh buffer");
        let mut off = 0;
        for seg in sga.segments() {
            dst[off..off + seg.len()].copy_from_slice(seg.as_slice());
            off += seg.len();
        }
        buf
    }

    /// Builds the 8-byte stream framing header in a pool buffer with
    /// header headroom, so the stack can wrap it without reallocating.
    fn framing_header(&self, payload_len: usize) -> DemiBuffer {
        let mut buf = self.memory.alloc(FRAME_HEADER_LEN);
        buf.try_mut()
            .expect("fresh buffer")
            .copy_from_slice(&encode_header(payload_len));
        buf
    }

    // ------------------------------------------------------------------
    // Device offload programs (E17). The stack is the planner; these are
    // the application-facing install/uninstall doorbells. All of them
    // are safe no-ops-with-signal on a non-programmable port, so an app
    // can run unchanged on plain DPDK and SmartNIC configurations.
    // ------------------------------------------------------------------

    /// Installs a NIC-side echo short-circuit for TCP connections on
    /// local `port`: the device reflects complete framed messages
    /// without an RX→host→TX crossing.
    pub fn install_echo_offload(&self, port: u16) -> Result<(), DemiError> {
        self.runtime.metrics().count_control_path_syscall();
        Ok(self.stack.install_tcp_offload(port, OffloadService::Echo)?)
    }

    /// Installs a NIC-resident KV GET cache (bounded to `capacity_bytes`
    /// of device memory) for TCP connections on local `port`.
    pub fn install_kv_offload(&self, port: u16, capacity_bytes: usize) -> Result<(), DemiError> {
        self.runtime.metrics().count_control_path_syscall();
        let service = OffloadService::KvCache { capacity_bytes };
        Ok(self.stack.install_tcp_offload(port, service)?)
    }

    /// Uninstalls the TCP offload program, returning every flow to the
    /// pure host path mid-stream. Idempotent.
    pub fn uninstall_tcp_offload(&self) {
        self.runtime.metrics().count_control_path_syscall();
        self.stack.uninstall_tcp_offload();
    }

    /// Write-through populate of the device KV cache after the host
    /// served a GET miss. `false` (no KV offload installed, or the entry
    /// exceeds device memory) needs no handling — the host simply keeps
    /// serving that key.
    pub fn offload_cache_insert(&self, key: &[u8], value: &[u8]) -> bool {
        self.stack.offload_cache_insert(key, value)
    }

    /// Counters of the installed offload engine, if any.
    pub fn offload_stats(&self) -> Option<dpdk_sim::OffloadStats> {
        self.stack.offload_stats()
    }

    /// Host-driven invalidation of one device KV cache entry — required
    /// when the host store drops a key for reasons invisible on the byte
    /// stream (LRU eviction, TTL expiry). `false` (no KV offload, or key
    /// not cached) needs no handling.
    pub fn offload_cache_invalidate(&self, key: &[u8]) -> bool {
        self.stack.offload_cache_invalidate(key)
    }

    // ------------------------------------------------------------------
    // Raw-stream TCP I/O. The framed push/pop above preserve atomic data
    // units for Demikernel-native peers; protocol servers (demi-kv's
    // RESP) speak self-delimiting wire formats and need the bare byte
    // stream instead.
    // ------------------------------------------------------------------

    /// Pushes `sga` onto a TCP connection **without** the 8-byte DEMI
    /// framing header, as raw stream bytes. For self-delimiting protocols
    /// (RESP). The SGA is the unit on the wire: its buffers are queued
    /// together and the output engine runs once, so small ones share a
    /// segment (gathered into one pool buffer) while a buffer of half a
    /// segment or more that has header headroom still travels zero-copy.
    /// Nothing is held back for a later push.
    pub fn push_unframed(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_push();
        let conn = self.tcp_conn(qd)?;
        self.stack
            .tcp_send_all(conn, sga.segments().iter().cloned())?;
        Ok(self
            .runtime
            .complete_op("catnip::tcp_push_unframed", OperationResult::Push))
    }

    /// Pops whatever stream bytes have arrived on a TCP connection: every
    /// in-order chunk, as one multi-segment `Sga` of zero-copy views, no
    /// message framing. Blocks until at least one byte is available;
    /// fails `Closed` at clean EOF.
    pub fn pop_unframed(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_pop();
        let gate = self.stack.tcp_gate(self.tcp_conn(qd)?)?;
        let (rt, check) = (&self.runtime, self.pop_unframed.clone());
        Ok(rt.park_op("catnip::tcp_pop_unframed", &gate, check, qd, 0))
    }

    /// The connection behind a TCP data queue.
    fn tcp_conn(&self, qd: QDesc) -> Result<ConnId, DemiError> {
        match self.queues.borrow().get(qd)? {
            CatnipQueue::TcpConn { conn, .. } => Ok(*conn),
            _ => Err(DemiError::InvalidState),
        }
    }
}

impl LibOs for Catnip {
    fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    fn kind(&self) -> LibOsKind {
        LibOsKind::Catnip
    }

    fn device_caps(&self) -> Option<DeviceCaps> {
        Some(self.port.capabilities())
    }

    fn socket(&self, kind: SocketKind) -> Result<QDesc, DemiError> {
        self.runtime.metrics().count_control_path_syscall();
        Ok(self.queues.borrow_mut().insert(match kind {
            SocketKind::Udp => CatnipQueue::UdpUnbound,
            SocketKind::Tcp => CatnipQueue::TcpUnbound { bound: None },
        }))
    }

    fn bind(&self, qd: QDesc, addr: SocketAddr) -> Result<(), DemiError> {
        self.runtime.metrics().count_control_path_syscall();
        match self.queues.borrow_mut().get_mut(qd)? {
            q @ CatnipQueue::UdpUnbound => {
                self.stack.udp_bind(addr.port)?;
                *q = CatnipQueue::Udp {
                    port: addr.port,
                    remote: None,
                };
                Ok(())
            }
            CatnipQueue::TcpUnbound { bound } => {
                *bound = Some(addr);
                Ok(())
            }
            _ => Err(DemiError::InvalidState),
        }
    }

    fn listen(&self, qd: QDesc, backlog: usize) -> Result<(), DemiError> {
        self.runtime.metrics().count_control_path_syscall();
        let mut queues = self.queues.borrow_mut();
        let queue = queues.get_mut(qd)?;
        let CatnipQueue::TcpUnbound { bound: Some(addr) } = queue else {
            return Err(DemiError::InvalidState);
        };
        let listener = self.stack.tcp_listen(addr.port, backlog)?;
        *queue = CatnipQueue::TcpListener { listener };
        Ok(())
    }

    fn accept(&self, qd: QDesc) -> Result<QToken, DemiError> {
        let listener = match self.queues.borrow().get(qd)? {
            CatnipQueue::TcpListener { listener } => *listener,
            _ => return Err(DemiError::InvalidState),
        };
        let (stack, queues) = (self.stack.clone(), self.queues.clone());
        let rt = &self.runtime;
        let gate = stack.tcp_listener_gate(listener)?;
        let check = move |qd, _| match stack.tcp_accept(listener) {
            Ok(Some(conn)) => {
                let qd = queues.borrow_mut().insert(CatnipQueue::tcp_conn(conn));
                Some(OperationResult::Accept { qd })
            }
            Ok(None) => queues.borrow().closed(qd),
            Err(e) => Some(OperationResult::Failed(e.into())),
        };
        Ok(rt.park_op("catnip::accept", &gate, Rc::new(check), qd, 0))
    }

    fn connect(&self, qd: QDesc, remote: SocketAddr) -> Result<QToken, DemiError> {
        let mut queues = self.queues.borrow_mut();
        match queues.get_mut(qd)? {
            // UDP connect: record the default destination.
            q @ CatnipQueue::UdpUnbound => {
                let port = self.stack.udp_bind_ephemeral(remote)?;
                *q = CatnipQueue::Udp {
                    port,
                    remote: Some(remote),
                };
            }
            CatnipQueue::Udp { remote: r, .. } => *r = Some(remote),
            // TCP connect: initiate and watch the handshake.
            q @ CatnipQueue::TcpUnbound { .. } => {
                let conn = self.stack.tcp_connect(remote)?;
                *q = CatnipQueue::tcp_conn(conn);
                let (stack, rt) = (self.stack.clone(), &self.runtime);
                let gate = stack.tcp_gate(conn)?;
                let check = move |_, _| match stack.tcp_state(conn) {
                    Ok(State::Established) => Some(OperationResult::Connect),
                    Ok(State::Closed) => {
                        let err = stack.tcp_error(conn).map(DemiError::Net);
                        Some(OperationResult::Failed(err.unwrap_or(DemiError::Closed)))
                    }
                    Ok(_) => None,
                    Err(e) => Some(OperationResult::Failed(e.into())),
                };
                let check = Rc::new(check);
                return Ok(rt.park_op("catnip::tcp_connect", &gate, check, qd, 0));
            }
            _ => return Err(DemiError::InvalidState),
        }
        Ok(self
            .runtime
            .complete_op("catnip::udp_connect", OperationResult::Connect))
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        self.runtime.metrics().count_control_path_syscall();
        // Operations parked on the queue re-check and fail `Closed`: the
        // stack fires the socket's gate as it closes it.
        let queue = self.queues.borrow_mut().remove(qd)?;
        match queue {
            CatnipQueue::Udp { port, .. } => self.stack.udp_close(port),
            CatnipQueue::TcpConn { conn, .. } => self.stack.tcp_close(conn)?,
            CatnipQueue::TcpListener { listener } => self.stack.tcp_close_listener(listener),
            CatnipQueue::UdpUnbound | CatnipQueue::TcpUnbound { .. } => {}
        }
        Ok(())
    }

    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_push();
        let queues = self.queues.borrow();
        match queues.get(qd)? {
            CatnipQueue::Udp { port, remote } => {
                let remote = remote.ok_or(DemiError::InvalidState)?;
                let (port, payload) = (*port, self.gather(sga));
                drop(queues);
                self.stack.udp_sendto(port, remote, payload)?;
                Ok(self
                    .runtime
                    .complete_op("catnip::udp_push", OperationResult::Push))
            }
            CatnipQueue::TcpConn { conn, .. } => {
                let conn = *conn;
                drop(queues);
                // Framing header and segments are one push (the stack
                // holds buffer clones: free-protection in action).
                let header = std::iter::once(self.framing_header(sga.len()));
                self.stack
                    .tcp_send_all(conn, header.chain(sga.segments().iter().cloned()))?;
                Ok(self
                    .runtime
                    .complete_op("catnip::tcp_push", OperationResult::Push))
            }
            _ => Err(DemiError::InvalidState),
        }
    }

    fn pushto(&self, qd: QDesc, sga: &Sga, to: SocketAddr) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_push();
        let queues = self.queues.borrow();
        let CatnipQueue::Udp { port, .. } = queues.get(qd)? else {
            return Err(DemiError::InvalidState);
        };
        let (port, payload) = (*port, self.gather(sga));
        drop(queues);
        self.stack.udp_sendto(port, to, payload)?;
        Ok(self
            .runtime
            .complete_op("catnip::udp_pushto", OperationResult::Push))
    }

    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_pop();
        let (name, gate) = match self.queues.borrow().get(qd)? {
            CatnipQueue::Udp { port, .. } => ("catnip::udp_pop", self.stack.udp_gate(*port)?),
            CatnipQueue::TcpConn { conn, .. } => ("catnip::tcp_pop", self.stack.tcp_gate(*conn)?),
            _ => return Err(DemiError::InvalidState),
        };
        let rt = &self.runtime;
        Ok(rt.park_op(name, &gate, self.pop.clone(), qd, 0))
    }

    fn sgaalloc(&self, len: usize) -> Sga {
        self.memory.alloc(len).into()
    }

    fn try_offload_filter(&self, qd: QDesc, pred: Rc<dyn Fn(&Sga) -> bool>) -> bool {
        let udp_port = match self.queues.borrow().get(qd) {
            Ok(CatnipQueue::Udp { port, .. }) => *port,
            _ => return false,
        };
        // Compile the Sga predicate into a raw-frame program: non-UDP
        // traffic and other ports pass untouched; matching datagrams are
        // kept only if the predicate holds on their payload.
        let program = NicProgram::Filter {
            predicate: Rc::new(
                move |frame: &[u8]| match udp_payload_for_port(frame, udp_port) {
                    Some(payload) => pred(&Sga::from_slice(payload)),
                    None => true,
                },
            ),
            cycles_per_frame: 50,
        };
        self.port.install_program(program).is_ok()
    }
}

/// The check of a parked pop: the next datagram, or the stream's next
/// framed message — or, unframed, every chunk that arrived; `Closed` at
/// clean EOF or once the queue is closed.
fn pop_ready(
    stack: &NetworkStack,
    queues: &Queues,
    qd: QDesc,
    framed: bool,
) -> Option<OperationResult> {
    let mut queues = queues.borrow_mut();
    let (conn, decoder, chunks) = match queues.get_mut(qd) {
        Ok(CatnipQueue::Udp { port, .. }) => {
            let (from, payload) = stack.udp_recv_from(*port)?;
            let (from, sga) = (Some(from), payload.into());
            return Some(OperationResult::Pop { from, sga });
        }
        Ok(CatnipQueue::TcpConn {
            conn,
            decoder,
            chunks,
        }) => (*conn, decoder, chunks),
        _ => return queues.closed(qd),
    };
    if let Err(e) = stack.tcp_recv_all(conn, chunks) {
        return Some(OperationResult::Failed(e.into()));
    }
    if framed {
        chunks.drain(..).for_each(|chunk| decoder.push_chunk(chunk));
        if let Some(result) = framed_pop(decoder) {
            return Some(result);
        }
    } else if !chunks.is_empty() {
        let sga = Sga::take_from(chunks);
        return Some(OperationResult::Pop { from: None, sga });
    }
    let eof = stack.tcp_eof(conn) && decoder.buffered_bytes() == 0;
    eof.then_some(OperationResult::Failed(DemiError::Closed))
}

/// The UDP payload of `frame` if it is an IPv4/UDP datagram addressed to
/// `port`. `None` — other traffic, or anything the stack's own (length- and
/// checksum-checking) parsers reject — passes the filter untouched.
fn udp_payload_for_port(frame: &[u8], port: u16) -> Option<&[u8]> {
    let (eth, packet) = EthHeader::parse(frame).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let (ip, datagram) = Ipv4Header::parse(packet).ok()?;
    if ip.protocol != IpProtocol::Udp {
        return None;
    }
    let (udp, len) = UdpHeader::parse(ip.src, ip.dst, datagram).ok()?;
    (udp.dst_port == port).then(|| &datagram[UDP_HEADER_LEN..UDP_HEADER_LEN + len])
}

/// Maps stack errors into Demikernel errors (convenience for coroutines).
impl From<NetError> for OperationResult {
    fn from(e: NetError) -> Self {
        OperationResult::Failed(DemiError::Net(e))
    }
}

#[cfg(test)]
mod tests;

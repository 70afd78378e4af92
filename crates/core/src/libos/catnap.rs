//! `catnap`: the POSIX/kernel baseline behind the Demikernel interface.
//!
//! Same system-call surface as every other libOS, but every data-path
//! operation goes through the simulated kernel ([`posix_sim`]): metered
//! syscall crossings, real user↔kernel copies, stream reads. This is the
//! "traditional architecture" column of the paper's Fig. 1, packaged so
//! experiments can swap it in without touching application code.
//!
//! Message boundaries: UDP maps naturally; TCP uses the same
//! length-prefix framing as catnip, reassembled from copied stream reads
//! (the copies are the point — they are what E2 measures).

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use dpdk_sim::wire::framing::encode_header;
use dpdk_sim::{DpdkPort, PortConfig};
use net_stack::framing::FrameDecoder;
use net_stack::types::SocketAddr;
use net_stack::{NetworkStack, StackConfig};
use posix_sim::{CostModel, Fd, KernelSockets, KernelStats, SimKernel};
use sim_fabric::{Fabric, MacAddress};

use crate::libos::{framed_pop, LibOs, LibOsKind, QueueTable, SocketKind};
use crate::runtime::{Check, Runtime};
use crate::types::{DemiError, OperationResult, QDesc, QToken, Sga};

enum CatnapQueue {
    Udp { fd: Fd },
    UdpUnbound,
    TcpUnbound { bound: Option<SocketAddr> },
    TcpListener { fd: Fd },
    TcpConn { fd: Fd, decoder: FrameDecoder },
}

impl CatnapQueue {
    fn tcp_conn(fd: Fd) -> Self {
        CatnapQueue::TcpConn {
            fd,
            decoder: FrameDecoder::new(),
        }
    }
}

/// The kernel-path baseline libOS.
#[derive(Clone)]
pub struct Catnap {
    runtime: Runtime,
    sockets: Rc<RefCell<KernelSockets>>,
    kernel: SimKernel,
    queues: Rc<RefCell<QueueTable<CatnapQueue>>>,
    /// The check every parked pop shares (see [`pop_ready`]).
    pop: Check,
}

impl Catnap {
    /// Creates a catnap instance: a host whose NIC is driven by the
    /// simulated kernel rather than by the application.
    pub(crate) fn new(runtime: &Runtime, fabric: &Fabric, mac: MacAddress, ip: Ipv4Addr) -> Self {
        Self::with_cost_model(runtime, fabric, mac, ip, CostModel::default())
    }

    /// Creates a catnap instance with an explicit kernel cost model
    /// (ablations isolate crossing costs from copy costs).
    pub fn with_cost_model(
        runtime: &Runtime,
        fabric: &Fabric,
        mac: MacAddress,
        ip: Ipv4Addr,
        cost: CostModel,
    ) -> Self {
        let port = DpdkPort::new(fabric, PortConfig::basic(mac));
        let stack = NetworkStack::new(port, fabric.clock(), StackConfig::new(ip));
        let kernel = SimKernel::new(fabric.clock(), cost);
        let sockets = Rc::new(RefCell::new(KernelSockets::new(kernel.clone(), stack)));
        // "Kernel context" work (softirq): runs on every pass, like the
        // kernel servicing the NIC — not charged as a syscall. All four
        // blocking operations below (accept/connect/udp_pop/tcp_pop) park
        // on their descriptor's gate ([`KernelSockets::gate`]), which that
        // work fires when the socket's readiness rises.
        let poll_sockets = sockets.clone();
        runtime.register_poller(move || poll_sockets.borrow_mut().poll());
        let deadline_sockets = sockets.clone();
        runtime.register_deadline_source(move || deadline_sockets.borrow().next_deadline());
        let queues = Rc::new(RefCell::new(QueueTable::new(1)));
        let pop = {
            let (sockets, queues) = (sockets.clone(), queues.clone());
            // POSIX forces a user buffer the kernel copies into.
            let buf = RefCell::new(vec![0u8; 65_536]);
            move |qd, _| pop_ready(&sockets, &queues, &mut buf.borrow_mut(), qd)
        };
        Catnap {
            runtime: runtime.clone(),
            sockets,
            kernel,
            queues,
            pop: Rc::new(pop),
        }
    }

    /// The metered kernel (exact crossing/copy counts for experiments).
    pub fn sim_kernel(&self) -> &SimKernel {
        &self.kernel
    }
}

impl LibOs for Catnap {
    fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    fn kind(&self) -> LibOsKind {
        LibOsKind::Catnap
    }

    fn kernel_stats(&self) -> Option<KernelStats> {
        Some(self.kernel.stats())
    }

    fn socket(&self, kind: SocketKind) -> Result<QDesc, DemiError> {
        Ok(self.queues.borrow_mut().insert(match kind {
            SocketKind::Udp => CatnapQueue::UdpUnbound,
            SocketKind::Tcp => CatnapQueue::TcpUnbound { bound: None },
        }))
    }

    fn bind(&self, qd: QDesc, addr: SocketAddr) -> Result<(), DemiError> {
        match self.queues.borrow_mut().get_mut(qd)? {
            q @ CatnapQueue::UdpUnbound => {
                let fd = self
                    .sockets
                    .borrow_mut()
                    .udp_socket(addr.port)
                    .map_err(sock_err)?;
                *q = CatnapQueue::Udp { fd };
                Ok(())
            }
            CatnapQueue::TcpUnbound { bound } => {
                *bound = Some(addr);
                Ok(())
            }
            _ => Err(DemiError::InvalidState),
        }
    }

    fn listen(&self, qd: QDesc, backlog: usize) -> Result<(), DemiError> {
        let mut queues = self.queues.borrow_mut();
        let queue = queues.get_mut(qd)?;
        let CatnapQueue::TcpUnbound { bound: Some(addr) } = queue else {
            return Err(DemiError::InvalidState);
        };
        let mut sockets = self.sockets.borrow_mut();
        let fd = sockets.tcp_socket();
        sockets.listen(fd, addr.port, backlog).map_err(sock_err)?;
        *queue = CatnapQueue::TcpListener { fd };
        Ok(())
    }

    fn accept(&self, qd: QDesc) -> Result<QToken, DemiError> {
        let fd = match self.queues.borrow().get(qd)? {
            CatnapQueue::TcpListener { fd } => *fd,
            _ => return Err(DemiError::InvalidState),
        };
        let (sockets, queues) = (self.sockets.clone(), self.queues.clone());
        let gate = sockets.borrow().gate(fd).map_err(sock_err)?;
        let check = move |qd, _| match sockets.borrow_mut().accept(fd) {
            Ok(Some(conn_fd)) => {
                let qd = queues.borrow_mut().insert(CatnapQueue::tcp_conn(conn_fd));
                Some(OperationResult::Accept { qd })
            }
            Ok(None) => None,
            Err(e) => {
                let closed = queues.borrow().closed(qd);
                Some(closed.unwrap_or(OperationResult::Failed(sock_err(e))))
            }
        };
        let rt = &self.runtime;
        Ok(rt.park_op("catnap::accept", &gate, Rc::new(check), qd, 0))
    }

    fn connect(&self, qd: QDesc, remote: SocketAddr) -> Result<QToken, DemiError> {
        let mut queues = self.queues.borrow_mut();
        let queue = queues.get_mut(qd)?;
        let CatnapQueue::TcpUnbound { .. } = queue else {
            return Err(DemiError::InvalidState);
        };
        let fd = {
            let mut sockets = self.sockets.borrow_mut();
            let fd = sockets.tcp_socket();
            sockets.connect(fd, remote).map_err(sock_err)?;
            fd
        };
        *queue = CatnapQueue::tcp_conn(fd);
        let (sockets, rt) = (self.sockets.clone(), &self.runtime);
        let gate = sockets.borrow().gate(fd).map_err(sock_err)?;
        let check = move |_, _| {
            let sockets = sockets.borrow();
            if let Some(err) = sockets.so_error(fd) {
                return Some(OperationResult::Failed(DemiError::Net(err)));
            }
            match sockets.is_connected(fd) {
                Ok(true) => Some(OperationResult::Connect),
                Ok(false) => None,
                Err(e) => Some(OperationResult::Failed(sock_err(e))),
            }
        };
        Ok(rt.park_op("catnap::connect", &gate, Rc::new(check), qd, 0))
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        // Operations parked on the queue re-check and fail `Closed`: the
        // socket's gate fires as the kernel closes it.
        let queue = self.queues.borrow_mut().remove(qd)?;
        match queue {
            CatnapQueue::Udp { fd }
            | CatnapQueue::TcpListener { fd }
            | CatnapQueue::TcpConn { fd, .. } => {
                self.sockets.borrow_mut().close(fd).map_err(sock_err)
            }
            CatnapQueue::UdpUnbound | CatnapQueue::TcpUnbound { .. } => Ok(()),
        }
    }

    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_push();
        let fd = match self.queues.borrow().get(qd)? {
            CatnapQueue::TcpConn { fd, .. } => *fd,
            _ => return Err(DemiError::InvalidState),
        };
        // POSIX write of the framed message: header + flattened payload,
        // each write copying into the kernel.
        let mut sockets = self.sockets.borrow_mut();
        sockets
            .write(fd, &encode_header(sga.len()))
            .map_err(sock_err)?;
        let flat = sga.to_vec();
        sockets.write(fd, &flat).map_err(sock_err)?;
        Ok(self
            .runtime
            .complete_op("catnap::push", OperationResult::Push))
    }

    fn pushto(&self, qd: QDesc, sga: &Sga, to: SocketAddr) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_push();
        let fd = match self.queues.borrow().get(qd)? {
            CatnapQueue::Udp { fd } => *fd,
            _ => return Err(DemiError::InvalidState),
        };
        let flat = sga.to_vec();
        self.sockets
            .borrow_mut()
            .sendto(fd, to, &flat)
            .map_err(sock_err)?;
        Ok(self
            .runtime
            .complete_op("catnap::pushto", OperationResult::Push))
    }

    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_pop();
        let (name, fd) = match self.queues.borrow().get(qd)? {
            CatnapQueue::Udp { fd } => ("catnap::udp_pop", *fd),
            CatnapQueue::TcpConn { fd, .. } => ("catnap::tcp_pop", *fd),
            _ => return Err(DemiError::InvalidState),
        };
        let (rt, gate) = (&self.runtime, self.sockets.borrow().gate(fd));
        Ok(rt.park_op(name, &gate.map_err(sock_err)?, self.pop.clone(), qd, 0))
    }
}

/// The check of a parked `pop`: a `recvfrom` of the next datagram, or
/// stream reads until a whole framed message is reassembled, each copying
/// through the user buffer `buf`.
fn pop_ready(
    sockets: &RefCell<KernelSockets>,
    queues: &RefCell<QueueTable<CatnapQueue>>,
    buf: &mut [u8],
    qd: QDesc,
) -> Option<OperationResult> {
    let mut queues = queues.borrow_mut();
    match queues.get_mut(qd) {
        Ok(CatnapQueue::Udp { fd }) => match sockets.borrow_mut().recvfrom(*fd, buf) {
            Ok(Some((from, n))) => Some(OperationResult::Pop {
                from: Some(from),
                sga: Sga::from_slice(&buf[..n]),
            }),
            Ok(None) => None,
            Err(e) => Some(OperationResult::Failed(sock_err(e))),
        },
        Ok(CatnapQueue::TcpConn { fd, decoder }) => loop {
            // Stream read into a user buffer (copy), then reassemble the
            // atomic unit from the bytes.
            let read_bytes = match sockets.borrow_mut().read(*fd, &mut buf[..16_384]) {
                Ok(Some(0)) => return Some(OperationResult::Failed(DemiError::Closed)),
                Ok(Some(n)) => {
                    decoder.push_chunk(demi_memory::DemiBuffer::from_slice(&buf[..n]));
                    true
                }
                Ok(None) => false,
                Err(e) => return Some(OperationResult::Failed(sock_err(e))),
            };
            if let Some(result) = framed_pop(decoder) {
                return Some(result);
            }
            // Park only when the read came up empty: a productive read
            // means more bytes may already be buffered in the kernel socket.
            if !read_bytes {
                return None;
            }
        },
        _ => queues.closed(qd),
    }
}

fn sock_err(e: posix_sim::SockError) -> DemiError {
    match e {
        posix_sim::SockError::BadFd => DemiError::BadQDesc,
        posix_sim::SockError::Net(n) => DemiError::Net(n),
    }
}

#[cfg(test)]
mod tests;

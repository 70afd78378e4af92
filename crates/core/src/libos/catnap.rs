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
use crate::runtime::Runtime;
use crate::types::{DemiError, OperationResult, QDesc, QToken, Sga};

enum CatnapQueue {
    Udp {
        fd: Fd,
    },
    UdpUnbound,
    TcpUnbound {
        bound: Option<SocketAddr>,
    },
    TcpListener {
        fd: Fd,
    },
    TcpConn {
        fd: Fd,
        decoder: Rc<RefCell<FrameDecoder>>,
    },
}

impl CatnapQueue {
    fn tcp_conn(fd: Fd) -> Self {
        CatnapQueue::TcpConn {
            fd,
            decoder: Rc::new(RefCell::new(FrameDecoder::new())),
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
        // kernel servicing the NIC — not charged as a syscall.
        let poll_sockets = sockets.clone();
        runtime.register_poller(move || poll_sockets.borrow_mut().poll());
        // All four blocking operations below (accept/connect/udp_pop/
        // tcp_pop) wait on kernel-stack progress, which the poller reports,
        // so they name the runtime's activity gate.
        let deadline_sockets = sockets.clone();
        runtime.register_deadline_source(move || deadline_sockets.borrow().next_deadline());
        Catnap {
            runtime: runtime.clone(),
            sockets,
            kernel,
            queues: Rc::new(RefCell::new(QueueTable::new(1))),
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
        let rt = &self.runtime;
        let check = move || match sockets.borrow_mut().accept(fd) {
            Ok(Some(conn_fd)) => {
                let qd = queues.borrow_mut().insert(CatnapQueue::tcp_conn(conn_fd));
                Some(OperationResult::Accept { qd })
            }
            Ok(None) => None,
            Err(e) => Some(closed_or(&queues, qd, e)),
        };
        Ok(rt.spawn_ready_op("catnap::accept", rt.activity(), check))
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
        let check = move || {
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
        Ok(rt.spawn_ready_op("catnap::connect", rt.activity(), check))
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        let queue = self.queues.borrow_mut().remove(qd)?;
        // Operations parked on the queue re-check and fail `Closed`.
        self.runtime.activity().notify_waiters();
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
        let (sockets, queues) = (self.sockets.clone(), self.queues.clone());
        let rt = &self.runtime;
        match self.queues.borrow().get(qd)? {
            CatnapQueue::Udp { fd } => {
                let fd = *fd;
                // POSIX forces a user buffer the kernel copies into.
                let mut buf = vec![0u8; 65_536];
                let check = move || match sockets.borrow_mut().recvfrom(fd, &mut buf) {
                    Ok(Some((from, n))) => Some(OperationResult::Pop {
                        from: Some(from),
                        sga: Sga::from_slice(&buf[..n]),
                    }),
                    Ok(None) => None,
                    Err(e) => Some(closed_or(&queues, qd, e)),
                };
                Ok(rt.spawn_ready_op("catnap::udp_pop", rt.activity(), check))
            }
            CatnapQueue::TcpConn { fd, decoder } => {
                let (fd, decoder) = (*fd, decoder.clone());
                let mut buf = vec![0u8; 16_384];
                let check = move || loop {
                    // Stream read into a user buffer (copy), then
                    // reassemble the atomic unit from the bytes.
                    let read_bytes = match sockets.borrow_mut().read(fd, &mut buf) {
                        Ok(Some(0)) => return Some(OperationResult::Failed(DemiError::Closed)),
                        Ok(Some(n)) => {
                            let chunk = demi_memory::DemiBuffer::from_slice(&buf[..n]);
                            decoder.borrow_mut().push_chunk(chunk);
                            true
                        }
                        Ok(None) => false,
                        Err(e) => return Some(closed_or(&queues, qd, e)),
                    };
                    if let Some(result) = framed_pop(&mut decoder.borrow_mut()) {
                        return Some(result);
                    }
                    // Park only when the read came up empty: a productive
                    // read means more bytes may already be buffered in the
                    // kernel socket.
                    if !read_bytes {
                        return None;
                    }
                };
                Ok(rt.spawn_ready_op("catnap::tcp_pop", rt.activity(), check))
            }
            _ => Err(DemiError::InvalidState),
        }
    }
}

/// The failure of a parked operation whose socket call failed: `Closed`
/// once `close` took the queue (and its fd) away, else the kernel's error.
fn closed_or(
    queues: &RefCell<QueueTable<CatnapQueue>>,
    qd: QDesc,
    e: posix_sim::SockError,
) -> OperationResult {
    let closed = queues.borrow().closed(qd);
    closed.unwrap_or(OperationResult::Failed(sock_err(e)))
}

fn sock_err(e: posix_sim::SockError) -> DemiError {
    match e {
        posix_sim::SockError::BadFd => DemiError::BadQDesc,
        posix_sim::SockError::Net(n) => DemiError::Net(n),
    }
}

#[cfg(test)]
mod tests;

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
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use dpdk_sim::{DpdkPort, PortConfig};
use net_stack::framing::{encode_header, FrameDecoder};
use net_stack::types::SocketAddr;
use net_stack::{NetworkStack, StackConfig};
use posix_sim::{CostModel, Fd, KernelSockets, KernelStats, SimKernel};
use sim_fabric::{Fabric, MacAddress};

use crate::libos::{LibOs, LibOsKind, SocketKind};
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

struct Inner {
    queues: HashMap<QDesc, CatnapQueue>,
    next_qd: u32,
}

/// The kernel-path baseline libOS.
#[derive(Clone)]
pub struct Catnap {
    runtime: Runtime,
    sockets: Rc<RefCell<KernelSockets>>,
    kernel: SimKernel,
    inner: Rc<RefCell<Inner>>,
}

impl Catnap {
    /// Creates a catnap instance: a host whose NIC is driven by the
    /// simulated kernel rather than by the application.
    pub fn new(runtime: &Runtime, fabric: &Fabric, mac: MacAddress, ip: Ipv4Addr) -> Self {
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
        // All four blocking loops below (accept/connect/udp_pop/tcp_pop)
        // wait on kernel-stack progress, which the poller reports; they
        // park on the runtime's activity gate between checks.
        let deadline_sockets = sockets.clone();
        runtime.register_deadline_source(move || deadline_sockets.borrow().next_deadline());
        Catnap {
            runtime: runtime.clone(),
            sockets,
            kernel,
            inner: Rc::new(RefCell::new(Inner {
                queues: HashMap::new(),
                next_qd: 1,
            })),
        }
    }

    fn alloc_qd(&self, q: CatnapQueue) -> QDesc {
        let mut inner = self.inner.borrow_mut();
        let qd = QDesc(inner.next_qd);
        inner.next_qd += 1;
        inner.queues.insert(qd, q);
        qd
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
        Ok(match kind {
            SocketKind::Udp => self.alloc_qd(CatnapQueue::UdpUnbound),
            SocketKind::Tcp => self.alloc_qd(CatnapQueue::TcpUnbound { bound: None }),
        })
    }

    fn bind(&self, qd: QDesc, addr: SocketAddr) -> Result<(), DemiError> {
        let mut inner = self.inner.borrow_mut();
        match inner.queues.get_mut(&qd) {
            Some(q @ CatnapQueue::UdpUnbound) => {
                let fd = self
                    .sockets
                    .borrow_mut()
                    .udp_socket(addr.port)
                    .map_err(sock_err)?;
                *q = CatnapQueue::Udp { fd };
                Ok(())
            }
            Some(CatnapQueue::TcpUnbound { bound }) => {
                *bound = Some(addr);
                Ok(())
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn listen(&self, qd: QDesc, backlog: usize) -> Result<(), DemiError> {
        let mut inner = self.inner.borrow_mut();
        match inner.queues.get_mut(&qd) {
            Some(q @ CatnapQueue::TcpUnbound { .. }) => {
                let CatnapQueue::TcpUnbound { bound } = q else {
                    unreachable!("matched above");
                };
                let addr = bound.ok_or(DemiError::InvalidState)?;
                let mut sockets = self.sockets.borrow_mut();
                let fd = sockets.tcp_socket();
                sockets.listen(fd, addr.port, backlog).map_err(sock_err)?;
                *q = CatnapQueue::TcpListener { fd };
                Ok(())
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn accept(&self, qd: QDesc) -> Result<QToken, DemiError> {
        let fd = {
            let inner = self.inner.borrow();
            match inner.queues.get(&qd) {
                Some(CatnapQueue::TcpListener { fd }) => *fd,
                Some(_) => return Err(DemiError::InvalidState),
                None => return Err(DemiError::BadQDesc),
            }
        };
        // Capture only cycle-free pieces (`sockets`/`inner` are their own
        // Rc's; `activity` is independent of the runtime): a coroutine
        // holding a `Runtime` clone would form an Rc cycle (runtime ->
        // scheduler -> task future -> runtime) and leak the world.
        let sockets = self.sockets.clone();
        let inner = self.inner.clone();
        let activity = self.runtime.activity().clone();
        Ok(self.runtime.spawn_op("catnap::accept", async move {
            loop {
                let wait = activity.notified();
                let accepted = sockets.borrow_mut().accept(fd);
                match accepted {
                    Ok(Some(conn_fd)) => {
                        let mut inner = inner.borrow_mut();
                        let qd = QDesc(inner.next_qd);
                        inner.next_qd += 1;
                        inner.queues.insert(
                            qd,
                            CatnapQueue::TcpConn {
                                fd: conn_fd,
                                decoder: Rc::new(RefCell::new(FrameDecoder::new())),
                            },
                        );
                        return OperationResult::Accept { qd };
                    }
                    Ok(None) => wait.await,
                    Err(e) => return OperationResult::Failed(sock_err(e)),
                }
            }
        }))
    }

    fn connect(&self, qd: QDesc, remote: SocketAddr) -> Result<QToken, DemiError> {
        let fd = {
            let mut inner = self.inner.borrow_mut();
            match inner.queues.get(&qd) {
                Some(CatnapQueue::TcpUnbound { .. }) => {
                    let mut sockets = self.sockets.borrow_mut();
                    let fd = sockets.tcp_socket();
                    sockets.connect(fd, remote).map_err(sock_err)?;
                    inner.queues.insert(
                        qd,
                        CatnapQueue::TcpConn {
                            fd,
                            decoder: Rc::new(RefCell::new(FrameDecoder::new())),
                        },
                    );
                    fd
                }
                Some(_) => return Err(DemiError::InvalidState),
                None => return Err(DemiError::BadQDesc),
            }
        };
        let sockets = self.sockets.clone();
        let activity = self.runtime.activity().clone();
        Ok(self.runtime.spawn_op("catnap::connect", async move {
            loop {
                let wait = activity.notified();
                // Bind borrow results before matching: a borrow held in a
                // match scrutinee would live across the await below.
                let so_error = sockets.borrow().so_error(fd);
                if let Some(err) = so_error {
                    return OperationResult::Failed(DemiError::Net(err));
                }
                let connected = sockets.borrow().is_connected(fd);
                match connected {
                    Ok(true) => return OperationResult::Connect,
                    Ok(false) => wait.await,
                    Err(e) => return OperationResult::Failed(sock_err(e)),
                }
            }
        }))
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        let mut inner = self.inner.borrow_mut();
        match inner.queues.remove(&qd) {
            Some(CatnapQueue::Udp { fd })
            | Some(CatnapQueue::TcpListener { fd })
            | Some(CatnapQueue::TcpConn { fd, .. }) => {
                self.sockets.borrow_mut().close(fd).map_err(sock_err)
            }
            Some(_) => Ok(()),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_push();
        let inner = self.inner.borrow();
        match inner.queues.get(&qd) {
            Some(CatnapQueue::TcpConn { fd, .. }) => {
                let fd = *fd;
                drop(inner);
                // POSIX write of the framed message: header + flattened
                // payload, each write copying into the kernel.
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
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn pushto(&self, qd: QDesc, sga: &Sga, to: SocketAddr) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_push();
        let inner = self.inner.borrow();
        match inner.queues.get(&qd) {
            Some(CatnapQueue::Udp { fd }) => {
                let fd = *fd;
                drop(inner);
                let flat = sga.to_vec();
                self.sockets
                    .borrow_mut()
                    .sendto(fd, to, &flat)
                    .map_err(sock_err)?;
                Ok(self
                    .runtime
                    .complete_op("catnap::pushto", OperationResult::Push))
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
    }

    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_pop();
        let inner = self.inner.borrow();
        match inner.queues.get(&qd) {
            Some(CatnapQueue::Udp { fd }) => {
                let fd = *fd;
                let sockets = self.sockets.clone();
                let activity = self.runtime.activity().clone();
                drop(inner);
                Ok(self.runtime.spawn_op("catnap::udp_pop", async move {
                    // POSIX forces a user buffer the kernel copies into.
                    let mut buf = vec![0u8; 65_536];
                    loop {
                        let wait = activity.notified();
                        let got = sockets.borrow_mut().recvfrom(fd, &mut buf);
                        match got {
                            Ok(Some((from, n))) => {
                                return OperationResult::Pop {
                                    from: Some(from),
                                    sga: Sga::from_slice(&buf[..n]),
                                };
                            }
                            Ok(None) => wait.await,
                            Err(e) => return OperationResult::Failed(sock_err(e)),
                        }
                    }
                }))
            }
            Some(CatnapQueue::TcpConn { fd, decoder }) => {
                let fd = *fd;
                let decoder = decoder.clone();
                let sockets = self.sockets.clone();
                let activity = self.runtime.activity().clone();
                drop(inner);
                Ok(self.runtime.spawn_op("catnap::tcp_pop", async move {
                    let mut buf = vec![0u8; 16_384];
                    loop {
                        let wait = activity.notified();
                        // Stream read into a user buffer (copy), then
                        // reassemble the atomic unit from the bytes.
                        let got = sockets.borrow_mut().read(fd, &mut buf);
                        let read_bytes = match got {
                            Ok(Some(0)) => {
                                return OperationResult::Failed(DemiError::Closed);
                            }
                            Ok(Some(n)) => {
                                decoder
                                    .borrow_mut()
                                    .push_chunk(demi_memory::DemiBuffer::from_slice(&buf[..n]));
                                true
                            }
                            Ok(None) => false,
                            Err(e) => return OperationResult::Failed(sock_err(e)),
                        };
                        // Bind before matching: a RefCell borrow in the
                        // scrutinee would be held across the await below.
                        let next = decoder.borrow_mut().next_message();
                        match next {
                            Ok(Some(msg)) => {
                                return OperationResult::Pop {
                                    from: None,
                                    sga: Sga::from_bufs(vec![msg]),
                                };
                            }
                            // Park only when the read came up empty: a
                            // productive read means more bytes may already
                            // be buffered in the kernel socket.
                            Ok(None) if !read_bytes => wait.await,
                            Ok(None) => {}
                            Err(e) => return OperationResult::Failed(e.into()),
                        }
                    }
                }))
            }
            Some(_) => Err(DemiError::InvalidState),
            None => Err(DemiError::BadQDesc),
        }
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

//! POSIX sockets with the kernel in the way.
//!
//! Same network stack, same fabric, same devices as the Demikernel path —
//! but every operation is a metered syscall, and every byte of payload is
//! copied between "kernel" buffers and caller-supplied user buffers. TCP
//! reads have stream semantics: they return whatever bytes are available,
//! up to the user buffer size, with no message boundaries.

use std::collections::HashMap;

use demi_memory::DemiBuffer;
use demi_sched::Notify;
use net_stack::tcp::{ConnId, ListenerId, State};
use net_stack::types::{NetError, SocketAddr};
use net_stack::NetworkStack;
use sim_fabric::SimTime;

use crate::kernel::SimKernel;

/// A POSIX file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u32);

/// Socket-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockError {
    /// Unknown or wrong-kind descriptor.
    BadFd,
    /// Underlying network error.
    Net(NetError),
}

impl From<NetError> for SockError {
    fn from(e: NetError) -> Self {
        SockError::Net(e)
    }
}

impl std::fmt::Display for SockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SockError::BadFd => write!(f, "bad file descriptor"),
            SockError::Net(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SockError {}

enum FdKind {
    Udp {
        port: u16,
    },
    TcpListener {
        listener: ListenerId,
    },
    TcpConn {
        conn: ConnId,
        /// Stream leftovers: a chunk the last read only partially consumed.
        leftover: Option<DemiBuffer>,
    },
    /// TCP socket created but not yet bound/connected.
    TcpUnbound,
}

/// The kernel's socket table for one host.
pub struct KernelSockets {
    kernel: SimKernel,
    stack: NetworkStack,
    fds: HashMap<Fd, FdKind>,
    next_fd: u32,
}

impl KernelSockets {
    /// Wraps a network stack behind the syscall boundary.
    pub fn new(kernel: SimKernel, stack: NetworkStack) -> Self {
        KernelSockets {
            kernel,
            stack,
            fds: HashMap::new(),
            next_fd: 3, // 0-2 are taken, as tradition demands.
        }
    }

    /// The metered kernel.
    pub(crate) fn kernel(&self) -> &SimKernel {
        &self.kernel
    }

    /// Drives the in-kernel stack (device interrupts / softirq stand-in).
    /// Not a syscall: this happens in kernel context. Returns how many
    /// frames the stack moved.
    pub fn poll(&mut self) -> usize {
        self.stack.poll()
    }

    /// Earliest kernel-stack timer deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.stack.next_deadline()
    }

    fn alloc_fd(&mut self, kind: FdKind) -> Fd {
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.fds.insert(fd, kind);
        fd
    }

    // ------------------------------------------------------------------
    // UDP.
    // ------------------------------------------------------------------

    /// `socket(AF_INET, SOCK_DGRAM)` + `bind`.
    pub fn udp_socket(&mut self, port: u16) -> Result<Fd, SockError> {
        self.kernel.syscall(); // socket()
        self.kernel.syscall(); // bind()
        self.stack.udp_bind(port)?;
        Ok(self.alloc_fd(FdKind::Udp { port }))
    }

    /// `sendto`: copies the user buffer into the kernel, then transmits.
    pub fn sendto(&mut self, fd: Fd, dst: SocketAddr, data: &[u8]) -> Result<(), SockError> {
        self.kernel.syscall();
        let FdKind::Udp { port } = self.fds.get(&fd).ok_or(SockError::BadFd)? else {
            return Err(SockError::BadFd);
        };
        let port = *port;
        // User → kernel copy.
        let mut kernel_buf = vec![0u8; data.len()];
        self.kernel.copy(&mut kernel_buf, data);
        self.stack.udp_sendto(port, dst, &kernel_buf)?;
        Ok(())
    }

    /// `recvfrom`: copies a received datagram into the user buffer.
    /// Returns `None` when nothing is queued (EWOULDBLOCK) — still a
    /// syscall, as with a real nonblocking socket.
    pub fn recvfrom(
        &mut self,
        fd: Fd,
        buf: &mut [u8],
    ) -> Result<Option<(SocketAddr, usize)>, SockError> {
        self.kernel.syscall();
        let FdKind::Udp { port } = self.fds.get(&fd).ok_or(SockError::BadFd)? else {
            return Err(SockError::BadFd);
        };
        let port = *port;
        match self.stack.udp_recv_from(port) {
            None => Ok(None),
            Some((from, payload)) => {
                let n = payload.len().min(buf.len());
                // Kernel → user copy (datagram truncates, as POSIX does).
                self.kernel.copy(&mut buf[..n], &payload.as_slice()[..n]);
                Ok(Some((from, n)))
            }
        }
    }

    // ------------------------------------------------------------------
    // TCP.
    // ------------------------------------------------------------------

    /// `socket(AF_INET, SOCK_STREAM)`.
    pub fn tcp_socket(&mut self) -> Fd {
        self.kernel.syscall();
        self.alloc_fd(FdKind::TcpUnbound)
    }

    /// `bind` + `listen`.
    pub fn listen(&mut self, fd: Fd, port: u16, backlog: usize) -> Result<(), SockError> {
        self.kernel.syscall(); // bind()
        self.kernel.syscall(); // listen()
        match self.fds.get(&fd) {
            Some(FdKind::TcpUnbound) => {}
            _ => return Err(SockError::BadFd),
        }
        let listener = self.stack.tcp_listen(port, backlog)?;
        self.fds.insert(fd, FdKind::TcpListener { listener });
        Ok(())
    }

    /// Nonblocking `accept`.
    pub fn accept(&mut self, fd: Fd) -> Result<Option<Fd>, SockError> {
        self.kernel.syscall();
        let FdKind::TcpListener { listener } = self.fds.get(&fd).ok_or(SockError::BadFd)? else {
            return Err(SockError::BadFd);
        };
        let listener = *listener;
        match self.stack.tcp_accept(listener)? {
            None => Ok(None),
            Some(conn) => Ok(Some(self.alloc_fd(FdKind::TcpConn {
                conn,
                leftover: None,
            }))),
        }
    }

    /// Nonblocking `connect`: initiates; poll [`KernelSockets::is_connected`].
    pub fn connect(&mut self, fd: Fd, dst: SocketAddr) -> Result<(), SockError> {
        self.kernel.syscall();
        match self.fds.get(&fd) {
            Some(FdKind::TcpUnbound) => {}
            _ => return Err(SockError::BadFd),
        }
        let conn = self.stack.tcp_connect(dst)?;
        self.fds.insert(
            fd,
            FdKind::TcpConn {
                conn,
                leftover: None,
            },
        );
        Ok(())
    }

    /// Whether a connecting socket reached ESTABLISHED.
    pub fn is_connected(&self, fd: Fd) -> Result<bool, SockError> {
        let FdKind::TcpConn { conn, .. } = self.fds.get(&fd).ok_or(SockError::BadFd)? else {
            return Err(SockError::BadFd);
        };
        Ok(self.stack.tcp_state(*conn) == Ok(State::Established))
    }

    /// Connection error, if the handshake or connection failed.
    pub fn so_error(&self, fd: Fd) -> Option<NetError> {
        match self.fds.get(&fd) {
            Some(FdKind::TcpConn { conn, .. }) => self.stack.tcp_error(*conn),
            _ => None,
        }
    }

    /// `write`: copies the user buffer into kernel memory and queues it on
    /// the stream. Returns bytes accepted (always all, buffering is
    /// unbounded in the simulated kernel).
    pub fn write(&mut self, fd: Fd, data: &[u8]) -> Result<usize, SockError> {
        self.kernel.syscall();
        let FdKind::TcpConn { conn, .. } = self.fds.get(&fd).ok_or(SockError::BadFd)? else {
            return Err(SockError::BadFd);
        };
        let conn = *conn;
        let mut kernel_buf = DemiBuffer::zeroed(data.len());
        let dst = kernel_buf.try_mut().expect("fresh buffer");
        self.kernel.copy(dst, data);
        self.stack.tcp_send(conn, kernel_buf)?;
        Ok(data.len())
    }

    /// `read`: stream semantics. Copies up to `buf.len()` available bytes
    /// into the user buffer. `Ok(None)` = EWOULDBLOCK, `Ok(Some(0))` = EOF.
    pub fn read(&mut self, fd: Fd, buf: &mut [u8]) -> Result<Option<usize>, SockError> {
        self.kernel.syscall();
        let FdKind::TcpConn { conn, leftover } = self.fds.get_mut(&fd).ok_or(SockError::BadFd)?
        else {
            return Err(SockError::BadFd);
        };
        let conn = *conn;
        let mut filled = 0;
        // Start with any leftover partial chunk from the previous read.
        let mut pending = leftover.take();
        loop {
            let chunk = match pending.take() {
                Some(c) => c,
                None => match self.stack.tcp_recv(conn)? {
                    Some(c) => c,
                    None => break,
                },
            };
            let want = buf.len() - filled;
            if chunk.len() <= want {
                let n = chunk.len();
                self.kernel
                    .copy(&mut buf[filled..filled + n], chunk.as_slice());
                filled += n;
                if filled == buf.len() {
                    break;
                }
            } else {
                self.kernel
                    .copy(&mut buf[filled..], &chunk.as_slice()[..want]);
                filled += want;
                let mut rest = chunk;
                rest.advance(want);
                // Stash the remainder for the next read.
                if let Some(FdKind::TcpConn { leftover, .. }) = self.fds.get_mut(&fd) {
                    *leftover = Some(rest);
                }
                break;
            }
        }
        if filled > 0 {
            return Ok(Some(filled));
        }
        if self.stack.tcp_eof(conn) {
            return Ok(Some(0));
        }
        Ok(None)
    }

    /// `close`.
    pub fn close(&mut self, fd: Fd) -> Result<(), SockError> {
        self.kernel.syscall();
        match self.fds.remove(&fd) {
            Some(FdKind::TcpConn { conn, .. }) => {
                self.stack.tcp_close(conn)?;
                Ok(())
            }
            Some(FdKind::Udp { port }) => {
                self.stack.udp_close(port);
                Ok(())
            }
            Some(FdKind::TcpListener { listener }) => {
                self.stack.tcp_close_listener(listener);
                Ok(())
            }
            Some(FdKind::TcpUnbound) => Ok(()),
            None => Err(SockError::BadFd),
        }
    }

    /// The gate of `fd`'s socket, its wait queue (kernel-internal, not a
    /// syscall).
    pub fn gate(&self, fd: Fd) -> Result<Notify, SockError> {
        Ok(match self.fds.get(&fd) {
            Some(FdKind::Udp { port }) => self.stack.udp_gate(*port)?,
            Some(FdKind::TcpListener { listener }) => self.stack.tcp_listener_gate(*listener)?,
            Some(FdKind::TcpConn { conn, .. }) => self.stack.tcp_gate(*conn)?,
            _ => return Err(SockError::BadFd),
        })
    }

    /// Level-triggered readiness, used by the epoll layer (kernel-internal,
    /// not a syscall).
    pub(crate) fn is_readable(&self, fd: Fd) -> bool {
        match self.fds.get(&fd) {
            Some(FdKind::Udp { port }) => self.stack.udp_pending(*port) > 0,
            Some(FdKind::TcpConn { conn, leftover }) => {
                leftover.is_some() || self.stack.tcp_readable(*conn)
            }
            Some(FdKind::TcpListener { .. }) => {
                // A listener is "readable" when an accept would succeed; we
                // cannot peek without popping, so consult the TCP stats via
                // a try-accept pattern in the epoll layer instead. Treat
                // listeners as always pollable here; epoll handles them.
                false
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests;

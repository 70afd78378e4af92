//! Shared address and error types.

use std::fmt;
use std::net::Ipv4Addr;

/// An IPv4 endpoint (address, port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketAddr {
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// Transport port.
    pub port: u16,
}

impl SocketAddr {
    /// Creates an endpoint.
    pub const fn new(ip: Ipv4Addr, port: u16) -> Self {
        SocketAddr { ip, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// Errors surfaced by the network stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A local port is already bound.
    AddrInUse(u16),
    /// Operation on an unknown socket/listener handle.
    BadHandle,
    /// Payload exceeds what the MTU allows for this protocol.
    MessageTooLong {
        /// Requested payload bytes.
        len: usize,
        /// Largest allowed payload.
        max: usize,
    },
    /// Address resolution failed after retries.
    HostUnreachable(Ipv4Addr),
    /// The connection was reset by the peer.
    ConnectionReset,
    /// The peer refused the connection (RST in response to SYN).
    ConnectionRefused,
    /// The connection is not in a state that allows the operation.
    NotConnected,
    /// The socket has been closed locally.
    Closed,
    /// No ephemeral ports remain.
    EphemeralPortsExhausted,
    /// An operation gave up after its retry budget (e.g., SYN retries).
    Timeout,
    /// A malformed header was encountered (parse-side; counted, not fatal).
    Malformed(&'static str),
    /// The device cannot satisfy the request (no program slots, offload
    /// already installed, ...).
    Unsupported(&'static str),
    /// Multi-tenant port-ownership denial: the ambient tenant tried to
    /// bind/listen/connect on a port another tenant owns (counted as a
    /// cross-tenant denial).
    TenantDenied(u16),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::AddrInUse(p) => write!(f, "address in use: port {p}"),
            NetError::BadHandle => write!(f, "bad socket handle"),
            NetError::MessageTooLong { len, max } => {
                write!(f, "message of {len} bytes exceeds maximum {max}")
            }
            NetError::HostUnreachable(ip) => write!(f, "host unreachable: {ip}"),
            NetError::ConnectionReset => write!(f, "connection reset by peer"),
            NetError::ConnectionRefused => write!(f, "connection refused"),
            NetError::NotConnected => write!(f, "not connected"),
            NetError::Closed => write!(f, "socket closed"),
            NetError::EphemeralPortsExhausted => write!(f, "ephemeral ports exhausted"),
            NetError::Timeout => write!(f, "operation timed out"),
            NetError::Malformed(what) => write!(f, "malformed {what}"),
            NetError::Unsupported(what) => write!(f, "unsupported: {what}"),
            NetError::TenantDenied(p) => {
                write!(f, "tenant denied: port {p} is owned by another tenant")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// A socket's readiness gate, fired where its readiness rises and when it
/// goes; made when a libOS first parks on it, so until then one word.
#[derive(Default)]
pub(crate) struct Gate(Option<demi_sched::Notify>);

impl Gate {
    pub(crate) fn get(&mut self) -> demi_sched::Notify {
        self.0.get_or_insert_with(Default::default).clone()
    }

    pub(crate) fn fire(&self) {
        if let Some(gate) = &self.0 {
            gate.notify_waiters();
        }
    }
}

/// A [`dpdk_sim::wire`] parse failure is this stack's `Malformed`.
impl From<dpdk_sim::wire::Malformed> for NetError {
    fn from(e: dpdk_sim::wire::Malformed) -> Self {
        NetError::Malformed(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_addr_display() {
        let a = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 8080);
        assert_eq!(a.to_string(), "10.0.0.1:8080");
    }

    #[test]
    fn errors_render() {
        assert_eq!(
            NetError::AddrInUse(80).to_string(),
            "address in use: port 80"
        );
        assert_eq!(
            NetError::MessageTooLong {
                len: 9000,
                max: 1472
            }
            .to_string(),
            "message of 9000 bytes exceeds maximum 1472"
        );
    }
}

//! Verbs-level types: handles, work completions, and errors.

use std::fmt;

/// Protection-domain handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PdId(pub u32);

/// Memory-region handle (the "lkey"; the rkey is issued at registration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MrId(pub u32);

/// Completion-queue handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CqId(pub u32);

/// Queue-pair handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QpId(pub u32);

/// Access rights requested at memory registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrAccess {
    /// Remote peers may RDMA READ this region.
    pub remote_read: bool,
    /// Remote peers may RDMA WRITE this region.
    pub remote_write: bool,
}

impl MrAccess {
    /// Local-only access (no remote rights).
    pub const LOCAL_ONLY: MrAccess = MrAccess {
        remote_read: false,
        remote_write: false,
    };

    /// Full remote access.
    pub const REMOTE_RW: MrAccess = MrAccess {
        remote_read: true,
        remote_write: true,
    };
}

/// Queue-pair lifecycle states (collapsed from the full verbs set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Created, not yet connected.
    Init,
    /// Connection handshake in flight.
    Connecting,
    /// Ready to send and receive.
    Rts,
    /// Broken by a fatal error.
    Error,
}

/// Work-completion opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcOpcode {
    /// A posted SEND completed.
    Send,
    /// A posted receive buffer was filled.
    Recv,
    /// An RDMA READ completed (data is in the local region).
    Read,
    /// An RDMA WRITE completed.
    Write,
}

/// Work-completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcStatus {
    /// Operation succeeded.
    Success,
    /// Receiver-not-ready retries were exhausted (no posted recv buffer).
    RnrRetryExceeded,
    /// The posted receive buffer was too small for the incoming message.
    LocalLengthError,
    /// The local region of a posted receive or READ was deregistered.
    LocalProtectionError,
    /// Remote access was refused (bad rkey, out of bounds, or missing
    /// permission).
    RemoteAccessError,
    /// The transport retry budget was exhausted (peer dead / partitioned).
    RetryExceeded,
    /// A READ response did not carry the requested length.
    BadResponse,
    /// Flushed because the queue pair entered `Error` before it ran.
    WrFlushed,
}

impl WcStatus {
    /// Whether the completion reports success.
    pub fn is_ok(&self) -> bool {
        *self == WcStatus::Success
    }
}

/// One entry popped from a completion queue.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Caller-chosen work-request id.
    pub wr_id: u64,
    /// The queue pair the work ran on.
    pub qp: QpId,
    /// Operation kind.
    pub opcode: WcOpcode,
    /// Outcome.
    pub status: WcStatus,
    /// Bytes transferred (valid on success).
    pub byte_len: usize,
}

/// Errors returned synchronously by verbs calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QpError {
    /// Unknown handle.
    BadHandle,
    /// MR and QP belong to different protection domains.
    PdMismatch,
    /// Local buffer range is outside its memory region.
    OutOfBounds,
    /// The QP is not in a state that allows the operation.
    InvalidState,
    /// The port is already in use by another listener.
    AddrInUse(u16),
    /// The work queue is full.
    QueueFull,
}

impl fmt::Display for QpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QpError::BadHandle => write!(f, "bad verbs handle"),
            QpError::PdMismatch => write!(f, "protection domain mismatch"),
            QpError::OutOfBounds => write!(f, "buffer range outside memory region"),
            QpError::InvalidState => write!(f, "queue pair in invalid state"),
            QpError::AddrInUse(p) => write!(f, "listen port {p} in use"),
            QpError::QueueFull => write!(f, "work queue full"),
        }
    }
}

impl std::error::Error for QpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_is_ok_only_for_success() {
        assert!(WcStatus::Success.is_ok());
        assert!(!WcStatus::RnrRetryExceeded.is_ok());
        assert!(!WcStatus::RemoteAccessError.is_ok());
    }

    #[test]
    fn errors_render() {
        assert_eq!(
            QpError::PdMismatch.to_string(),
            "protection domain mismatch"
        );
        assert_eq!(QpError::AddrInUse(7).to_string(), "listen port 7 in use");
    }
}

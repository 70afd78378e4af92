//! Core Demikernel types: descriptors, tokens, scatter-gather arrays.

use std::fmt;

use demi_memory::DemiBuffer;
use net_stack::types::SocketAddr;

/// A queue descriptor — what `socket`, `open`, `queue`, and the queue
/// transformations return instead of a file descriptor (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QDesc(pub u32);

/// A queue token naming one outstanding queue operation (paper §4.3–4.4).
///
/// "Because queues have granularity, each qtoken is unique to a single
/// queue operation" — a qtoken resolves exactly once, through `wait`.
/// The value is an opaque handle into the runtime's op slab (slot and
/// generation): once consumed it is `BadQToken` forever, even after its
/// slot serves another operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QToken(pub u64);

/// A scatter-gather array: the atomic unit of queue I/O (paper §4.2).
///
/// Segments are zero-copy [`DemiBuffer`] handles. "A scatter-gather array
/// pushed into a Demikernel queue always pops out as a single element." A
/// one-segment array, the common one, is held inline: no vector. Any other
/// shape's vector comes from demi-memory's per-thread spare list and goes
/// back to it when the array drops ([`demi_memory::segment_vec`]).
#[derive(Debug, Clone, Default)]
pub struct Sga {
    /// The segment of a one-segment array; `many` holds every other shape.
    one: Option<DemiBuffer>,
    many: Vec<DemiBuffer>,
}

impl Sga {
    /// An empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Single-segment array copying `data` (convenience; zero-copy callers
    /// use [`Sga::from_bufs`] with pool-allocated buffers).
    pub fn from_slice(data: &[u8]) -> Self {
        DemiBuffer::from_slice(data).into()
    }

    /// Builds from existing buffers, zero-copy. The vector of a
    /// one-segment array goes to the spare list.
    pub fn from_bufs(mut many: Vec<DemiBuffer>) -> Self {
        if many.len() > 1 {
            return Sga { one: None, many };
        }
        let sga = Sga::take_from(&mut many);
        demi_memory::recycle_segment_vec(many);
        sga
    }

    /// Moves `segs`'s segments out, leaving it empty: with its own storage
    /// when they fit inline, else with a spare vector's.
    pub(crate) fn take_from(segs: &mut Vec<DemiBuffer>) -> Self {
        if segs.len() <= 1 {
            return segs.pop().map(Sga::from).unwrap_or_default();
        }
        let many = std::mem::replace(segs, demi_memory::segment_vec());
        Sga { one: None, many }
    }

    /// Appends a segment (zero-copy handle).
    pub fn push_seg(&mut self, seg: DemiBuffer) {
        self.many.extend(self.one.take());
        self.many.push(seg);
    }

    /// The segments.
    pub fn segments(&self) -> &[DemiBuffer] {
        match &self.one {
            Some(seg) => std::slice::from_ref(seg),
            None => &self.many,
        }
    }

    /// Mutable segment handles, for filling freshly allocated buffers in
    /// place (each still refuses writes unless exclusively owned).
    pub fn segments_mut(&mut self) -> &mut [DemiBuffer] {
        match &mut self.one {
            Some(seg) => std::slice::from_mut(seg),
            None => &mut self.many,
        }
    }

    /// Total payload bytes across segments.
    pub fn len(&self) -> usize {
        self.segments().iter().map(|s| s.len()).sum()
    }

    /// Whether the array carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens into one contiguous vector (copies; diagnostics and
    /// baselines only — the data path never calls this).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for seg in self.segments() {
            out.extend_from_slice(seg.as_slice());
        }
        out
    }
}

impl From<DemiBuffer> for Sga {
    /// A one-segment array, zero-copy.
    fn from(seg: DemiBuffer) -> Self {
        let one = Some(seg);
        Sga { one, many: vec![] }
    }
}

impl Drop for Sga {
    /// Hands the segment vector's storage back to the spare list.
    fn drop(&mut self) {
        demi_memory::recycle_segment_vec(std::mem::take(&mut self.many));
    }
}

impl PartialEq for Sga {
    /// Content equality over the concatenated bytes.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.to_vec() == other.to_vec()
    }
}
impl Eq for Sga {}

impl From<&[u8]> for Sga {
    fn from(data: &[u8]) -> Self {
        Sga::from_slice(data)
    }
}

/// Errors surfaced by Demikernel system calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DemiError {
    /// Unknown queue descriptor.
    BadQDesc,
    /// Unknown or already-consumed queue token.
    BadQToken,
    /// The libOS does not implement this call (paper: different devices
    /// imply different OS functionality; the syscall table is shared).
    NotSupported(&'static str),
    /// The operation is invalid for the queue's current state.
    InvalidState,
    /// A wait timed out.
    Timeout,
    /// The simulation cannot make progress (every task blocked, no timer
    /// or in-flight event to advance to) — a bug in the harness or app.
    Deadlock,
    /// Underlying network error.
    Net(net_stack::types::NetError),
    /// Underlying RDMA error.
    Rdma(&'static str),
    /// Underlying storage error.
    Storage(&'static str),
    /// The queue was closed.
    Closed,
}

impl fmt::Display for DemiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemiError::BadQDesc => write!(f, "bad queue descriptor"),
            DemiError::BadQToken => write!(f, "bad queue token"),
            DemiError::NotSupported(what) => write!(f, "not supported by this libOS: {what}"),
            DemiError::InvalidState => write!(f, "invalid queue state"),
            DemiError::Timeout => write!(f, "wait timed out"),
            DemiError::Deadlock => write!(f, "simulation deadlock"),
            DemiError::Net(e) => write!(f, "network: {e}"),
            DemiError::Rdma(e) => write!(f, "rdma: {e}"),
            DemiError::Storage(e) => write!(f, "storage: {e}"),
            DemiError::Closed => write!(f, "queue closed"),
        }
    }
}

impl std::error::Error for DemiError {}

impl From<net_stack::types::NetError> for DemiError {
    fn from(e: net_stack::types::NetError) -> Self {
        DemiError::Net(e)
    }
}

/// What a completed queue operation produced (returned by `wait`).
///
/// `wait` "directly returns the data from the operation so the application
/// can process the returned data without making another system call"
/// (paper §4.4) — hence `Pop` carries the Sga itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OperationResult {
    /// A push completed.
    Push,
    /// A pop completed with one atomic element (and, for unconnected
    /// datagram queues, the sender).
    Pop {
        /// Sender address for datagram queues; `None` otherwise.
        from: Option<SocketAddr>,
        /// The atomic data unit.
        sga: Sga,
    },
    /// An accept completed; the new connection's queue descriptor.
    Accept {
        /// The accepted connection's queue.
        qd: QDesc,
    },
    /// A connect completed.
    Connect,
    /// The operation failed.
    Failed(DemiError),
}

impl OperationResult {
    /// Unwraps a `Pop`, panicking otherwise (test/exposition helper).
    ///
    /// # Panics
    ///
    /// Panics if the result is not `Pop`.
    pub fn expect_pop(self) -> (Option<SocketAddr>, Sga) {
        match self {
            OperationResult::Pop { from, sga } => (from, sga),
            other => panic!("expected Pop, got {other:?}"),
        }
    }

    /// Unwraps an `Accept`, panicking otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the result is not `Accept`.
    pub fn expect_accept(self) -> QDesc {
        match self {
            OperationResult::Accept { qd } => qd,
            other => panic!("expected Accept, got {other:?}"),
        }
    }

    /// Whether the operation failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, OperationResult::Failed(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sga_round_trips_segments() {
        let mut sga = Sga::new();
        assert!(sga.is_empty());
        sga.push_seg(DemiBuffer::from_slice(b"hello "));
        sga.push_seg(DemiBuffer::from_slice(b"world"));
        assert_eq!(sga.segments().len(), 2);
        assert_eq!(sga.len(), 11);
        assert_eq!(sga.to_vec(), b"hello world");
    }

    #[test]
    fn sga_equality_is_content_based() {
        let a = Sga::from_slice(b"same bytes");
        let mut b = Sga::new();
        b.push_seg(DemiBuffer::from_slice(b"same "));
        b.push_seg(DemiBuffer::from_slice(b"bytes"));
        assert_eq!(a, b);
        assert_ne!(a, Sga::from_slice(b"other"));
    }

    #[test]
    fn sga_from_bufs_shares_storage() {
        let buf = DemiBuffer::from_slice(b"zero copy");
        let sga = Sga::from_bufs(vec![buf.clone()]);
        assert!(sga.segments()[0].same_storage(&buf));
    }

    /// A multi-segment array's vector returns to demi-memory's spare list
    /// when the array drops, and the next array built from the list gets
    /// that storage back; a one-segment array is inline and neither takes
    /// a vector from the list nor gives one to it.
    #[test]
    fn an_sga_returns_its_vector_and_a_one_segment_one_never_touches_it() {
        let seg = DemiBuffer::from_slice(b"seg");
        let sga = Sga::from_bufs(vec![seg.clone(), seg.clone(), seg.clone()]);
        let storage = sga.segments().as_ptr();
        drop(sga);
        for _ in 0..3 {
            drop(Sga::from(seg.clone()));
            drop(Sga::from_bufs(vec![seg.clone()]));
            drop(Sga::take_from(&mut vec![seg.clone()]));
        }
        let mut chunks = vec![seg.clone(), seg.clone()];
        let sga = Sga::take_from(&mut chunks);
        assert_eq!(sga.segments().len(), 2);
        assert_eq!(chunks.as_ptr(), storage, "refilled from the spare list");
        assert_eq!(demi_memory::segment_vec().capacity(), 0, "and it held one");
    }

    #[test]
    fn operation_result_helpers() {
        let pop = OperationResult::Pop {
            from: None,
            sga: Sga::from_slice(b"x"),
        };
        let (_, sga) = pop.expect_pop();
        assert_eq!(sga.to_vec(), b"x");
        let acc = OperationResult::Accept { qd: QDesc(7) };
        assert_eq!(acc.expect_accept(), QDesc(7));
        assert!(OperationResult::Failed(DemiError::Timeout).is_failed());
    }

    #[test]
    fn errors_render() {
        assert_eq!(DemiError::BadQDesc.to_string(), "bad queue descriptor");
        assert_eq!(
            DemiError::NotSupported("sort").to_string(),
            "not supported by this libOS: sort"
        );
    }
}

//! `catfs`: the storage library OS with an accelerator-specific layout.
//!
//! Paper §5.3: a Demikernel libOS serves a *single application*, so it
//! need not pay for a general-purpose UNIX file system; "future work could
//! include design of an accelerator-specific storage layout." catfs is
//! that design point: each named queue is an append-only record log.
//!
//! * `push` appends one record — `[magic, length, checksum, payload]` —
//!   buffered in the tail block; exactly **one** device block write makes
//!   it durable (the log is its own allocation map: no bitmap, no inode).
//!   Compare with the ext4-like baseline in [`posix_sim::file`], which
//!   pays bitmap + inode + (eventually) indirect-block writes per append —
//!   the difference experiment E10 measures as write amplification.
//! * `pop` tails the log: it returns the next record as an atomic element,
//!   verifying its checksum, and blocks (cooperatively) at the end of the
//!   log until more data is pushed.
//! * Records are recoverable: [`Catfs::recover`] rebuilds a log's state by
//!   scanning the device (single-log devices; multi-log devices would need
//!   per-extent ownership tags, noted as future work).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use demi_sched::Notify;
use sim_fabric::{DeviceCaps, SimClock};
use spdk_sim::nvme::{NvmeCompletion, NvmeDevice, QpairId, BLOCK_SIZE};

use crate::libos::{LibOs, LibOsKind, QueueTable};
use crate::runtime::Runtime;
use crate::types::{DemiError, OperationResult, QDesc, QToken, Sga};

/// Record header: magic (2) + payload length (4) + checksum (4).
const RECORD_HEADER: usize = 10;
const RECORD_MAGIC: u16 = 0xD11D;

/// catfs layout counters (experiment E10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatfsStats {
    /// Device block writes issued (the log's only write class).
    pub block_writes: u64,
    /// Device block reads issued.
    pub block_reads: u64,
    /// Records appended.
    pub appends: u64,
    /// Records popped.
    pub records_read: u64,
    /// Checksum failures encountered while reading.
    pub checksum_failures: u64,
}

struct LogState {
    /// Device blocks of this log, in order.
    blocks: Vec<u64>,
    /// Total bytes appended.
    len: u64,
    /// Cached tail-block contents (also durable: rewritten per push).
    tail: Vec<u8>,
    /// Fires whenever `len` grows or a queue on this log closes, waking
    /// pops parked at the log tail.
    appended: Notify,
}

impl LogState {
    fn new() -> Self {
        LogState {
            blocks: Vec::new(),
            len: 0,
            tail: Vec::new(),
            appended: Notify::new(),
        }
    }
}

struct OpenLog {
    log: Rc<RefCell<LogState>>,
    cursor: u64,
}

struct Inner {
    logs: HashMap<String, Rc<RefCell<LogState>>>,
    queues: QueueTable<OpenLog>,
    next_lba: u64,
    next_cmd: u64,
    completions: HashMap<u64, NvmeCompletion>,
    stats: CatfsStats,
}

/// The storage libOS.
#[derive(Clone)]
pub struct Catfs {
    runtime: Runtime,
    device: NvmeDevice,
    qpair: QpairId,
    inner: Rc<RefCell<Inner>>,
}

/// The cycle-free heart of catfs: everything the I/O coroutines need.
/// Spawned coroutines capture this — never `Catfs` itself — because a task
/// future holding a `Runtime` clone would form an Rc cycle (runtime →
/// scheduler → task future → runtime) and leak the whole world.
#[derive(Clone)]
struct Core {
    device: NvmeDevice,
    qpair: QpairId,
    inner: Rc<RefCell<Inner>>,
    /// The runtime's activity gate (its own Rc, independent of the runtime).
    activity: Notify,
}

impl Core {
    /// Drains device completions into the dispatch table; returns how many
    /// arrived (the poller's external-progress report, which also makes the
    /// runtime fire its activity gate for the waiters parked in
    /// [`Core::wait_cmd`]).
    fn pump_completions(&self) -> usize {
        let comps = self.device.poll_completions(self.qpair, 64);
        let n = comps.len();
        if n == 0 {
            return 0;
        }
        let mut inner = self.inner.borrow_mut();
        for c in comps {
            inner.completions.insert(c.cmd_id, c);
        }
        n
    }

    async fn wait_cmd(&self, cmd_id: u64) -> NvmeCompletion {
        // Completions surface through the poller above, which counts as
        // external progress; park on the activity gate between checks.
        let arrived = || self.inner.borrow_mut().completions.remove(&cmd_id);
        self.activity.until(arrived).await
    }

    /// Parks at the tail of `qd`'s log until `want` bytes past its cursor
    /// are durable; yields the cursor, or `None` once `qd` is closed.
    async fn wait_tail(&self, qd: QDesc, log: &RefCell<LogState>, want: u64) -> Option<u64> {
        let appended = log.borrow().appended.clone();
        let ready = || match self.inner.borrow().queues.get(qd) {
            Ok(open) => (log.borrow().len - open.cursor >= want).then_some(Some(open.cursor)),
            Err(_) => Some(None),
        };
        appended.until(ready).await
    }

    /// Submits a block write and waits for durability.
    async fn write_block(&self, lba: u64, data: &[u8]) {
        let cmd_id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.next_cmd;
            inner.next_cmd += 1;
            inner.stats.block_writes += 1;
            id
        };
        self.device
            .submit_write(self.qpair, cmd_id, lba, data)
            .expect("catfs block write");
        self.wait_cmd(cmd_id).await;
    }

    /// Submits a block read and waits for the data.
    async fn read_block(&self, lba: u64) -> Vec<u8> {
        let cmd_id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.next_cmd;
            inner.next_cmd += 1;
            inner.stats.block_reads += 1;
            id
        };
        self.device
            .submit_read(self.qpair, cmd_id, lba, 1)
            .expect("catfs block read");
        self.wait_cmd(cmd_id).await.data.expect("read returns data")
    }

    /// Reads `len` bytes at byte offset `off` of `log` from the device.
    async fn read_bytes(&self, log: &Rc<RefCell<LogState>>, off: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut pos = off as usize;
        let end = off as usize + len;
        while pos < end {
            let block_index = pos / BLOCK_SIZE;
            let in_block = pos % BLOCK_SIZE;
            let take = (BLOCK_SIZE - in_block).min(end - pos);
            let lba = log.borrow().blocks[block_index];
            let block = self.read_block(lba).await;
            out.extend_from_slice(&block[in_block..in_block + take]);
            pos += take;
        }
        out
    }
}

impl Catfs {
    /// Creates a catfs instance owning `device`, registered on the shared
    /// runtime (the device's completion times drive clock advancement).
    pub fn new(runtime: &Runtime, device: NvmeDevice) -> Self {
        let qpair = device.alloc_qpair();
        let catfs = Catfs {
            runtime: runtime.clone(),
            device: device.clone(),
            qpair,
            inner: Rc::new(RefCell::new(Inner {
                logs: HashMap::new(),
                queues: QueueTable::new(1),
                next_lba: 0,
                next_cmd: 1,
                completions: HashMap::new(),
                stats: CatfsStats::default(),
            })),
        };
        // Pump device completions into the dispatch table each pass. The
        // poller lives inside the runtime, so it must capture the cycle-free
        // core, not the libOS (which holds the runtime).
        let pump = catfs.core();
        runtime.register_poller(move || pump.pump_completions());
        let deadline_dev = device.clone();
        runtime.register_deadline_source(move || deadline_dev.next_deadline());
        catfs
    }

    /// The shared virtual clock (convenience).
    pub fn clock(&self) -> SimClock {
        self.runtime.clock().clone()
    }

    /// Layout counters.
    pub fn stats(&self) -> CatfsStats {
        self.inner.borrow().stats
    }

    /// Device-level counters (write amplification denominator).
    pub fn device_stats(&self) -> spdk_sim::NvmeStats {
        self.device.stats()
    }

    /// A fresh handle to the cycle-free coroutine state.
    fn core(&self) -> Core {
        Core {
            device: self.device.clone(),
            qpair: self.qpair,
            inner: self.inner.clone(),
            activity: self.runtime.activity().clone(),
        }
    }

    /// Rebuilds a log from a device written by a previous catfs instance
    /// (single-log devices: scanning starts at block 0).
    pub fn recover(&self, path: &str) -> Result<QDesc, DemiError> {
        let mut state = LogState::new();
        let mut lba = 0u64;
        // Synchronous scan (mount is control-path): read blocks until the
        // record stream stops parsing.
        let mut bytes: Vec<u8> = Vec::new();
        loop {
            let data = self.sync_read_block(lba);
            let all_zero = data.iter().all(|&b| b == 0);
            // An all-zero block ends the scan only when the bytes so far
            // parse to a clean end: a record's interior may legitimately
            // contain a whole block of zeros, and a record (or even a
            // single magic byte) may straddle the block boundary — both
            // leave the parse "open", so keep reading. Stopping early on
            // any of those would silently truncate the log.
            if all_zero && bytes_parse_end(&bytes) {
                break;
            }
            bytes.extend_from_slice(&data);
            state.blocks.push(lba);
            lba += 1;
            if lba >= self.device.namespace_blocks() {
                break;
            }
        }
        let valid_len = parsed_length(&bytes);
        state.len = valid_len;
        // Trim trailing unused blocks and rebuild the tail cache.
        let needed_blocks = (valid_len as usize).div_ceil(BLOCK_SIZE);
        state.blocks.truncate(needed_blocks);
        let tail_start = (valid_len as usize / BLOCK_SIZE) * BLOCK_SIZE;
        state.tail = bytes[tail_start..valid_len as usize].to_vec();
        if (valid_len as usize).is_multiple_of(BLOCK_SIZE) && !state.tail.is_empty() {
            state.tail.clear();
        }

        let mut inner = self.inner.borrow_mut();
        inner.next_lba = inner.next_lba.max(state.blocks.len() as u64);
        let log = Rc::new(RefCell::new(state));
        inner.logs.insert(path.to_string(), log.clone());
        Ok(inner.queues.insert(OpenLog { log, cursor: 0 }))
    }

    // ------------------------------------------------------------------
    // Device-side chained resubmission (E17).
    // ------------------------------------------------------------------

    /// Submits one device-side pointer chase: the device follows the
    /// next-pointer embedded in each block *internally* and completes
    /// once with the terminal block — one host submission and one
    /// completion for an N-hop walk. The popped Sga is the terminal
    /// block's contents; [`Catfs::device_stats`] `chase_hops` advances
    /// by the walk length (device work is never free, just cheaper than
    /// N host crossings). Compare with [`Catfs::chase_host`].
    pub fn chase(&self, spec: spdk_sim::ChainSpec) -> QToken {
        self.runtime.metrics().count_pop();
        let core = self.core();
        self.runtime.spawn_op("catfs::chase", async move {
            let cmd_id = {
                let mut inner = core.inner.borrow_mut();
                let id = inner.next_cmd;
                inner.next_cmd += 1;
                id
            };
            if core.device.submit_chase(core.qpair, cmd_id, spec).is_err() {
                return OperationResult::Failed(DemiError::Storage("chase rejected"));
            }
            let completion = core.wait_cmd(cmd_id).await;
            OperationResult::Pop {
                from: None,
                sga: Sga::from_slice(&completion.data.expect("chase returns the final block")),
            }
        })
    }

    /// The host-path baseline for the same walk: the host reads a block,
    /// parses the pointer, and resubmits — N submissions, N completions,
    /// N host crossings. E17's storage A/B measures this against
    /// [`Catfs::chase`].
    pub fn chase_host(&self, spec: spdk_sim::ChainSpec) -> QToken {
        self.runtime.metrics().count_pop();
        let core = self.core();
        self.runtime.spawn_op("catfs::chase_host", async move {
            let blocks = core.device.namespace_blocks();
            let mut lba = spec.start_lba;
            let mut hops = 0u32;
            loop {
                let block = core.read_block(lba).await;
                hops += 1;
                let at = spec.pointer_offset;
                let next =
                    u64::from_le_bytes(block[at..at + 8].try_into().expect("offset validated"));
                if next == spec.sentinel || hops >= spec.max_hops || next >= blocks {
                    return OperationResult::Pop {
                        from: None,
                        sga: Sga::from_slice(&block),
                    };
                }
                lba = next;
            }
        })
    }

    /// Synchronous block read for mount-time recovery (control path).
    fn sync_read_block(&self, lba: u64) -> Vec<u8> {
        let cmd_id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.next_cmd;
            inner.next_cmd += 1;
            inner.stats.block_reads += 1;
            id
        };
        self.device
            .submit_read(self.qpair, cmd_id, lba, 1)
            .expect("recovery read");
        loop {
            if let Some(t) = self.device.next_deadline() {
                self.runtime.clock().advance_to(t);
            }
            for c in self.device.poll_completions(self.qpair, 64) {
                if c.cmd_id == cmd_id {
                    return c.data.expect("read returns data");
                }
                self.inner.borrow_mut().completions.insert(c.cmd_id, c);
            }
        }
    }
}

/// Whether `bytes` parses as a complete record stream (no partial record
/// at the end).
fn bytes_parse_end(bytes: &[u8]) -> bool {
    parsed_length(bytes) == bytes.len() as u64 || remaining_is_unparseable(bytes)
}

fn remaining_is_unparseable(bytes: &[u8]) -> bool {
    let off = parsed_length(bytes) as usize;
    let rest = &bytes[off..];
    match rest.len() {
        0 => true, // Clean record boundary.
        // One stray byte: unparseable only if it cannot start a magic
        // (zero padding); a real magic prefix means the record continues
        // in the next block.
        1 => rest[0] != RECORD_MAGIC.to_be_bytes()[0],
        _ => u16::from_be_bytes([rest[0], rest[1]]) != RECORD_MAGIC,
    }
}

/// Byte length of the longest valid record prefix of `bytes`.
fn parsed_length(bytes: &[u8]) -> u64 {
    let mut off = 0usize;
    loop {
        if bytes.len() - off < RECORD_HEADER {
            return off as u64;
        }
        if u16::from_be_bytes([bytes[off], bytes[off + 1]]) != RECORD_MAGIC {
            return off as u64;
        }
        let len = u32::from_be_bytes([
            bytes[off + 2],
            bytes[off + 3],
            bytes[off + 4],
            bytes[off + 5],
        ]) as usize;
        if bytes.len() - off < RECORD_HEADER + len {
            return off as u64;
        }
        off += RECORD_HEADER + len;
    }
}

/// FNV-1a over the payload, the record checksum.
fn checksum(data: &[u8]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5;
    for &b in data {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

impl LibOs for Catfs {
    fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    fn kind(&self) -> LibOsKind {
        LibOsKind::Catfs
    }

    fn device_caps(&self) -> Option<DeviceCaps> {
        Some(spdk_sim::capabilities())
    }

    fn create(&self, path: &str) -> Result<QDesc, DemiError> {
        self.runtime.metrics().count_control_path_syscall();
        let mut inner = self.inner.borrow_mut();
        if inner.logs.contains_key(path) {
            return Err(DemiError::Storage("log exists"));
        }
        let log = Rc::new(RefCell::new(LogState::new()));
        inner.logs.insert(path.to_string(), log.clone());
        Ok(inner.queues.insert(OpenLog { log, cursor: 0 }))
    }

    fn open(&self, path: &str) -> Result<QDesc, DemiError> {
        self.runtime.metrics().count_control_path_syscall();
        let mut inner = self.inner.borrow_mut();
        let log = inner
            .logs
            .get(path)
            .cloned()
            .ok_or(DemiError::Storage("no such log"))?;
        Ok(inner.queues.insert(OpenLog { log, cursor: 0 }))
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        let open = self.inner.borrow_mut().queues.remove(qd)?;
        // A pop parked at the log tail re-checks and fails `Closed`.
        open.log.borrow().appended.notify_waiters();
        Ok(())
    }

    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_push();
        let log = self.inner.borrow().queues.get(qd)?.log.clone();
        let payload = sga.to_vec();
        let core = self.core();
        Ok(self.runtime.spawn_op("catfs::push", async move {
            // Serialize the record.
            let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
            record.extend_from_slice(&RECORD_MAGIC.to_be_bytes());
            record.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            record.extend_from_slice(&checksum(&payload).to_be_bytes());
            record.extend_from_slice(&payload);

            // Append through the tail block; each filled block is written
            // once, and the final (possibly partial) tail block is written
            // for durability. No metadata writes, ever.
            let mut written = 0;
            while written < record.len() {
                let (lba, tail_len) = {
                    let mut state = log.borrow_mut();
                    if state.tail.is_empty() {
                        // Start a new block.
                        let lba = {
                            let mut inner = core.inner.borrow_mut();
                            let lba = inner.next_lba;
                            inner.next_lba += 1;
                            lba
                        };
                        state.blocks.push(lba);
                    }
                    let take = (BLOCK_SIZE - state.tail.len()).min(record.len() - written);
                    state
                        .tail
                        .extend_from_slice(&record[written..written + take]);
                    state.len += take as u64;
                    written += take;
                    (
                        *state.blocks.last().expect("block allocated"),
                        state.tail.len(),
                    )
                };
                // Durability: write the tail block (padded to block size).
                let block = {
                    let state = log.borrow();
                    let mut b = state.tail.clone();
                    b.resize(BLOCK_SIZE, 0);
                    b
                };
                core.write_block(lba, &block).await;
                {
                    let mut state = log.borrow_mut();
                    if tail_len == BLOCK_SIZE {
                        state.tail.clear();
                    }
                    // The appended bytes are durable: wake tailing pops.
                    state.appended.notify_waiters();
                }
            }
            core.inner.borrow_mut().stats.appends += 1;
            OperationResult::Push
        }))
    }

    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_pop();
        let log = self.inner.borrow().queues.get(qd)?.log.clone();
        let core = self.core();
        // Not a `spawn_ready_op`: between its two parks at the log tail a
        // pop awaits device block reads.
        Ok(self.runtime.spawn_op("catfs::pop", async move {
            let closed = OperationResult::Failed(DemiError::Closed);
            let Some(cursor) = core.wait_tail(qd, &log, RECORD_HEADER as u64).await else {
                return closed;
            };
            let header = core.read_bytes(&log, cursor, RECORD_HEADER).await;
            if u16::from_be_bytes([header[0], header[1]]) != RECORD_MAGIC {
                return OperationResult::Failed(DemiError::Storage("bad record magic"));
            }
            let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]) as u64;
            let expect_sum = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
            // The header may land before the rest of its record is pushed.
            let record = RECORD_HEADER as u64 + len;
            if core.wait_tail(qd, &log, record).await.is_none() {
                return closed;
            }
            let payload = core
                .read_bytes(&log, cursor + RECORD_HEADER as u64, len as usize)
                .await;
            if checksum(&payload) != expect_sum {
                core.inner.borrow_mut().stats.checksum_failures += 1;
                return OperationResult::Failed(DemiError::Storage("record checksum"));
            }
            let mut inner = core.inner.borrow_mut();
            if let Ok(open) = inner.queues.get_mut(qd) {
                open.cursor = cursor + record;
            }
            inner.stats.records_read += 1;
            OperationResult::Pop {
                from: None,
                sga: Sga::from_slice(&payload),
            }
        }))
    }
}

#[cfg(test)]
mod tests;

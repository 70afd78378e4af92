//! `catfs`: the storage library OS with an accelerator-specific layout.
//!
//! Paper §5.3: a Demikernel libOS serves a *single application*, so it
//! need not pay for a general-purpose UNIX file system; "future work could
//! include design of an accelerator-specific storage layout." catfs is
//! that design point: each named queue is an append-only record log.
//!
//! * `push` appends one record — `[magic, length, checksum, payload]` —
//!   and makes it durable with **one device command**. All of the log's
//!   state moves at submission: the cached partial tail block, the header
//!   and the SGA's segments are gathered once into a block-aligned image,
//!   which the device takes by value as one multi-block write of every
//!   block the record touches; the spawned operation only waits for it.
//!   The log is its own allocation map: no bitmap, no inode. Compare with
//!   the ext4-like baseline in `posix_sim::file`, which pays bitmap +
//!   inode + (eventually) indirect-block writes, a command each, per
//!   append — experiment E10's write amplification and time per append.
//! * Pushes in flight on one log therefore cannot interleave, and a log
//!   has two lengths: `len`, what was submitted, and `durable`, what the
//!   device acknowledged — whole records, in order, and all a `pop` reads.
//! * `pop` tails the log: it returns the next record as an atomic element,
//!   verifying its checksum, and blocks (cooperatively) at the durable end
//!   of the log until more data is pushed.
//! * [`Catfs::recover`] rebuilds a log by scanning the device and
//!   verifying every record. One that parses but fails its sum is the torn
//!   tail — the commit a crash interrupted, never acknowledged — and the
//!   log ends before it. (Single-log devices; multi-log recovery needs
//!   per-extent ownership tags, future work. Where logs do share a device,
//!   a commit whose tail block and fresh blocks are not adjacent is two
//!   commands, both submitted before either is waited on.)
//! * A full namespace or queue pair fails the `push` with
//!   [`DemiError::Storage`] before any log state changes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use demi_sched::Notify;
use sim_fabric::DeviceCaps;
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

#[derive(Default)]
struct LogState {
    /// Device blocks of this log, in order.
    blocks: Vec<u64>,
    /// Total bytes appended (submitted to the device).
    len: u64,
    /// Bytes the device has acknowledged: the prefix pops may read.
    durable: u64,
    /// Cached contents of the partial tail block, the prefix of the next
    /// push's image (empty when `len` is block-aligned).
    tail: Vec<u8>,
    /// Fires whenever `durable` grows or a queue on this log closes,
    /// waking pops parked at the log tail.
    appended: Notify,
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
    /// The runtime's activity gate (its own Rc, independent of the runtime).
    activity: Notify,
}

impl Inner {
    /// Draws the next command id (ids reach the device in draw order).
    fn cmd_id(&mut self) -> u64 {
        self.next_cmd += 1;
        self.next_cmd - 1
    }
}

/// The storage libOS.
#[derive(Clone)]
pub struct Catfs {
    runtime: Runtime,
    core: Core,
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
}

impl Core {
    /// Drains device completions into the dispatch table; returns how many
    /// arrived (the poller's external-progress report, which also makes the
    /// runtime fire its activity gate for the waiters parked in
    /// [`Core::wait_cmd`]).
    fn pump_completions(&self) -> usize {
        let comps = self.device.poll_completions(self.qpair, 64);
        let n = comps.len();
        if n > 0 {
            let table = &mut self.inner.borrow_mut().completions;
            table.extend(comps.into_iter().map(|c| (c.cmd_id, c)));
        }
        n
    }

    async fn wait_cmd(&self, cmd_id: u64) -> NvmeCompletion {
        // Completions surface through the poller above, which counts as
        // external progress; park on the activity gate between checks.
        let activity = self.inner.borrow().activity.clone();
        let arrived = || self.inner.borrow_mut().completions.remove(&cmd_id);
        activity.until(arrived).await
    }

    /// Parks at the tail of `qd`'s log until a record past its cursor is
    /// durable; yields the cursor, or `None` once `qd` is closed.
    async fn wait_tail(&self, qd: QDesc, log: &RefCell<LogState>) -> Option<u64> {
        let appended = log.borrow().appended.clone();
        let ready = || match self.inner.borrow().queues.get(qd) {
            Ok(open) => (log.borrow().durable > open.cursor).then_some(Some(open.cursor)),
            Err(_) => Some(None),
        };
        appended.until(ready).await
    }

    /// Appends one record to `log` and submits every block it touches: the
    /// cached partial tail, the header and the segments are gathered into
    /// one block-aligned, zero-padded image the device takes by value.
    /// Returns the command ids to wait for and the log length that is
    /// durable once they complete; a full namespace or queue pair is an
    /// `Err` before any state changes.
    fn append(
        &self,
        log: &RefCell<LogState>,
        sga: &Sga,
    ) -> Result<(std::ops::Range<u64>, u64), DemiError> {
        let mut inner = self.inner.borrow_mut();
        let mut state = log.borrow_mut();
        let payload =
            u32::try_from(sga.len()).map_err(|_| DemiError::Storage("record too long"))?;
        let at = state.tail.len();
        let end = at + RECORD_HEADER + payload as usize;
        let blocks = end.div_ceil(BLOCK_SIZE);
        // A partial tail block is rewritten where it is; the rest are
        // fresh. On a device holding one log that is one contiguous run;
        // where another log allocated in between, two commands.
        let tail_lba = state.blocks.last().copied().filter(|_| at > 0);
        let fresh = blocks as u64 - u64::from(tail_lba.is_some());
        let fresh = inner.next_lba..inner.next_lba + fresh;
        let first = tail_lba.unwrap_or(fresh.start);
        let split = tail_lba.is_some_and(|lba| !fresh.is_empty() && lba + 1 != fresh.start);
        if fresh.end > self.device.namespace_blocks() {
            return Err(DemiError::Storage("device full"));
        }
        if self.device.free_slots(self.qpair) < 1 + usize::from(split) {
            return Err(DemiError::Storage("queue pair full"));
        }

        let mut image = Vec::with_capacity(blocks * BLOCK_SIZE);
        image.extend_from_slice(&state.tail);
        image.extend_from_slice(&RECORD_MAGIC.to_be_bytes());
        image.extend_from_slice(&payload.to_be_bytes());
        image.extend_from_slice(&[0; 4]);
        for seg in sga.segments() {
            image.extend_from_slice(seg.as_slice());
        }
        // Summed over the gathered bytes, so however the SGA was cut.
        let sum = checksum(&image[at + RECORD_HEADER..]);
        image[at + 6..at + RECORD_HEADER].copy_from_slice(&sum.to_be_bytes());
        state.tail.clear();
        state
            .tail
            .extend_from_slice(&image[end - end % BLOCK_SIZE..]);
        image.resize(blocks * BLOCK_SIZE, 0);

        state.len += (end - at) as u64;
        state.blocks.extend(fresh.clone());
        inner.next_lba = fresh.end;
        inner.stats.appends += 1;
        inner.stats.block_writes += blocks as u64;
        let cmds = inner.next_cmd..inner.next_cmd + 1 + u64::from(split);
        inner.next_cmd = cmds.end;
        let submit = |cmd, lba, data| {
            let submitted = self.device.submit_write(self.qpair, cmd, lba, data);
            submitted.expect("range and queue depth validated above");
        };
        let rest = split.then(|| image.split_off(BLOCK_SIZE));
        submit(cmds.start, first, image);
        if let Some(rest) = rest {
            submit(cmds.start + 1, fresh.start, rest);
        }
        Ok((cmds, state.len))
    }

    /// A record failed its integrity check: counted, and the pop fails.
    fn checksum_failure(&self) -> OperationResult {
        self.inner.borrow_mut().stats.checksum_failures += 1;
        OperationResult::Failed(DemiError::Storage("record checksum"))
    }

    /// Submits a block read; returns its command id.
    fn start_read(&self, lba: u64) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.stats.block_reads += 1;
        let cmd_id = inner.cmd_id();
        let submitted = self.device.submit_read(self.qpair, cmd_id, lba, 1);
        submitted.expect("catfs block read");
        cmd_id
    }

    /// Submits a block read and waits for the data.
    async fn read_block(&self, lba: u64) -> Vec<u8> {
        let completion = self.wait_cmd(self.start_read(lba)).await;
        completion.data.expect("read returns data")
    }

    /// Reads `len` bytes at byte offset `off` of `log` from the device.
    async fn read_bytes(&self, log: &Rc<RefCell<LogState>>, off: u64, len: usize) -> Vec<u8> {
        let (mut pos, end) = (off as usize, off as usize + len);
        let mut out = Vec::with_capacity(len);
        while pos < end {
            let lba = log.borrow().blocks[pos / BLOCK_SIZE];
            let block = self.read_block(lba).await;
            let from = pos % BLOCK_SIZE;
            let take = (BLOCK_SIZE - from).min(end - pos);
            out.extend_from_slice(&block[from..from + take]);
            pos += take;
        }
        out
    }
}

impl Catfs {
    /// Creates a catfs instance owning `device`, registered on the shared
    /// runtime (the device's completion times drive clock advancement).
    pub fn new(runtime: &Runtime, device: NvmeDevice) -> Self {
        let core = Core {
            qpair: device.alloc_qpair(),
            device: device.clone(),
            inner: Rc::new(RefCell::new(Inner {
                logs: HashMap::new(),
                queues: QueueTable::new(1),
                next_lba: 0,
                next_cmd: 1,
                completions: HashMap::new(),
                stats: CatfsStats::default(),
                activity: runtime.activity().clone(),
            })),
        };
        // Pump device completions into the dispatch table each pass. The
        // poller lives inside the runtime, so it must capture the cycle-free
        // core, not the libOS (which holds the runtime).
        let pump = core.clone();
        runtime.register_poller(move || pump.pump_completions());
        runtime.register_deadline_source(move || device.next_deadline());
        Catfs {
            runtime: runtime.clone(),
            core,
        }
    }

    /// Layout counters.
    pub fn stats(&self) -> CatfsStats {
        self.core.inner.borrow().stats
    }

    /// Device-level counters (write amplification denominator).
    pub fn device_stats(&self) -> spdk_sim::NvmeStats {
        self.core.device.stats()
    }

    /// Rebuilds a log from a device written by a previous catfs instance
    /// (single-log devices: scanning starts at block 0).
    pub fn recover(&self, path: &str) -> Result<QDesc, DemiError> {
        let mut state = LogState::default();
        // Synchronous scan (mount is control-path): read blocks until the
        // record stream stops parsing.
        let mut bytes: Vec<u8> = Vec::new();
        for lba in 0..self.core.device.namespace_blocks() {
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
        }
        // The scan trusts magic + length; a record that also fails its
        // checksum is the torn tail — the commit the crash interrupted,
        // never acknowledged — and the log ends before it (the next push
        // overwrites it). Trim the blocks past it, rebuild the tail cache.
        let valid = parsed_length(&bytes, true);
        let torn = valid < parsed_length(&bytes, false);
        (state.len, state.durable) = (valid as u64, valid as u64);
        state.blocks.truncate(valid.div_ceil(BLOCK_SIZE));
        state.tail = bytes[valid - valid % BLOCK_SIZE..valid].to_vec();

        let mut inner = self.core.inner.borrow_mut();
        inner.stats.checksum_failures += u64::from(torn);
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
        let core = self.core.clone();
        self.runtime.spawn_op("catfs::chase", async move {
            let cmd_id = core.inner.borrow_mut().cmd_id();
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
        let core = self.core.clone();
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
        let cmd_id = self.core.start_read(lba);
        loop {
            if let Some(t) = self.core.device.next_deadline() {
                self.runtime.clock().advance_to(t);
            }
            for c in self.core.device.poll_completions(self.core.qpair, 64) {
                if c.cmd_id == cmd_id {
                    return c.data.expect("read returns data");
                }
                self.core.inner.borrow_mut().completions.insert(c.cmd_id, c);
            }
        }
    }
}

/// Whether `bytes` parses to a clean end: a record boundary, or bytes that
/// cannot begin a record (zero padding). A magic — or one stray byte that
/// could start one — means the record continues in the next block.
fn bytes_parse_end(bytes: &[u8]) -> bool {
    let magic = RECORD_MAGIC.to_be_bytes();
    match bytes[parsed_length(bytes, false)..] {
        [] => true,
        [stray] => stray != magic[0],
        [a, b, ..] => [a, b] != magic,
    }
}

/// Byte length of the longest valid record prefix of `bytes`: records whose
/// magic and length parse and, with `verify`, whose checksum holds.
fn parsed_length(bytes: &[u8], verify: bool) -> usize {
    let mut off = 0;
    while bytes.len() - off >= RECORD_HEADER {
        let Some((len, sum)) = parse_header(&bytes[off..]) else {
            break;
        };
        let (payload, end) = (off + RECORD_HEADER, off + RECORD_HEADER + len);
        if end > bytes.len() || verify && checksum(&bytes[payload..end]) != sum {
            break;
        }
        off = end;
    }
    off
}

/// A record header's payload length and stored checksum; `None` on a bad
/// magic.
fn parse_header(header: &[u8]) -> Option<(usize, u32)> {
    let word =
        |at| u32::from_be_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]]);
    (header[..2] == RECORD_MAGIC.to_be_bytes()).then(|| (word(2) as usize, word(6)))
}

const FNV_OFFSET: u32 = 0x811C_9DC5;
const FNV_PRIME: u32 = 0x0100_0193;

/// The record checksum, a word at a time: four independent 32-bit FNV-1a
/// lanes, each taking every fourth little-endian `u32` word of the payload
/// (so four multiplies overlap where byte-serial FNV-1a waits on one), the
/// last `len % 16` bytes folded in byte-wise. Every step is a bijection of
/// its lane — xor with the input, multiply by an odd prime — so, like the
/// byte-serial sum it replaces, **any single-bit flip anywhere in the
/// payload changes the sum**: it changes exactly one lane, and so the xor.
fn checksum(payload: &[u8]) -> u32 {
    let mut lanes = [FNV_OFFSET; 4];
    let mut steps = payload.chunks_exact(16);
    for step in &mut steps {
        for (lane, word) in lanes.iter_mut().zip(step.chunks_exact(4)) {
            let word = u32::from_le_bytes(word.try_into().expect("4 bytes"));
            *lane = (*lane ^ word).wrapping_mul(FNV_PRIME);
        }
    }
    for &byte in steps.remainder() {
        lanes[0] = (lanes[0] ^ u32::from(byte)).wrapping_mul(FNV_PRIME);
    }
    // Rotated apart so equal lanes (a payload of one repeated word) don't cancel.
    lanes[0] ^ lanes[1].rotate_left(8) ^ lanes[2].rotate_left(16) ^ lanes[3].rotate_left(24)
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
        let mut inner = self.core.inner.borrow_mut();
        if inner.logs.contains_key(path) {
            return Err(DemiError::Storage("log exists"));
        }
        let log = Rc::new(RefCell::new(LogState::default()));
        inner.logs.insert(path.to_string(), log.clone());
        Ok(inner.queues.insert(OpenLog { log, cursor: 0 }))
    }

    fn open(&self, path: &str) -> Result<QDesc, DemiError> {
        self.runtime.metrics().count_control_path_syscall();
        let mut inner = self.core.inner.borrow_mut();
        let log = inner
            .logs
            .get(path)
            .cloned()
            .ok_or(DemiError::Storage("no such log"))?;
        Ok(inner.queues.insert(OpenLog { log, cursor: 0 }))
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        let open = self.core.inner.borrow_mut().queues.remove(qd)?;
        // A pop parked at the log tail re-checks and fails `Closed`.
        open.log.borrow().appended.notify_waiters();
        Ok(())
    }

    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_push();
        let log = self.core.inner.borrow().queues.get(qd)?.log.clone();
        // All of the log's state moves here, at submission: two pushes in
        // flight on one log cannot interleave, whatever order they wake in.
        let (cmds, end) = self.core.append(&log, sga)?;
        let core = self.core.clone();
        Ok(self.runtime.spawn_op("catfs::push", async move {
            for cmd in cmds {
                core.wait_cmd(cmd).await;
            }
            // The record is durable: let tailing pops read up to its end.
            let mut state = log.borrow_mut();
            state.durable = state.durable.max(end);
            state.appended.notify_waiters();
            OperationResult::Push
        }))
    }

    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_pop();
        let log = self.core.inner.borrow().queues.get(qd)?.log.clone();
        let core = self.core.clone();
        // Not a `spawn_ready_op`: after its park at the log tail a pop
        // awaits device block reads.
        Ok(self.runtime.spawn_op("catfs::pop", async move {
            let Some(cursor) = core.wait_tail(qd, &log).await else {
                return OperationResult::Failed(DemiError::Closed);
            };
            let header = core.read_bytes(&log, cursor, RECORD_HEADER).await;
            let Some((len, expect_sum)) = parse_header(&header) else {
                return OperationResult::Failed(DemiError::Storage("bad record magic"));
            };
            // `durable` only ever rises by whole records, so a durable
            // header's payload is durable too — unless its length is corrupt.
            let start = cursor + RECORD_HEADER as u64;
            let end = start + len as u64;
            if end > log.borrow().durable {
                return core.checksum_failure();
            }
            let payload = core.read_bytes(&log, start, len).await;
            if checksum(&payload) != expect_sum {
                return core.checksum_failure();
            }
            let mut inner = core.inner.borrow_mut();
            if let Ok(open) = inner.queues.get_mut(qd) {
                open.cursor = end;
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

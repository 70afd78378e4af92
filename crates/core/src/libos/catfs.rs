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
//!   and the SGA's segments are gathered once into a block-aligned image
//!   — laid out in the write buffer the device handed back with the last
//!   completion — which the device takes by value as one multi-block
//!   write of every block the record touches. The log is its own
//!   allocation map: no bitmap, no inode. Compare with the ext4-like
//!   baseline in `posix_sim::file`, which pays bitmap + inode +
//!   (eventually) indirect-block writes, a command each, per append —
//!   experiment E10's write amplification and time per append.
//! * Pushes in flight on one log therefore cannot interleave, and a log
//!   has two lengths: `len`, what was submitted, and `durable`, what the
//!   device acknowledged — whole records, in order, and all a `pop` reads.
//! * The poller, not the push, retires a commit: the queue pair completes
//!   in order, so in-flight commits are a FIFO, and a commit's last
//!   command raises its log's `durable`, bumps the `retired` count and
//!   fires the log's `appended` gate. A push is a parked slot
//!   ([`Runtime::park_op`]) on that gate whose check is "`retired` is past
//!   my commit": once warm, a commit allocates nothing.
//! * `pop` tails the log: it returns the next record as an atomic element,
//!   verifying its checksum, and blocks (cooperatively) at the durable end
//!   of the log until more data is pushed. A pop registers demand on its
//!   descriptor; the poller reads the records, one block command at a
//!   time and one record at a time, in pop order, and files each verified
//!   record on the descriptor for the pop it serves, so two pops in
//!   flight get two records. The pop is a parked slot whose check takes
//!   its own record. Chases are parked slots too: the device walks a
//!   `chase`, and the poller resubmits each hop of a `chase_host`.
//! * [`Catfs::recover`] rebuilds a log by scanning the device and
//!   verifying every record. One that parses but fails its sum is the torn
//!   tail — the commit a crash interrupted, never acknowledged — and the
//!   log ends before it. (Single-log devices; multi-log recovery needs
//!   per-extent ownership tags, future work. Where logs do share a device,
//!   a commit whose tail block and fresh blocks are not adjacent is two
//!   commands, both submitted before either is waited on.)
//! * A full namespace or queue pair fails a `push` — or a read — with
//!   [`DemiError::Storage`] before any log state changes.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::rc::Rc;

use demi_sched::Notify;
use sim_fabric::DeviceCaps;
use spdk_sim::nvme::{NvmeCompletion, NvmeDevice, NvmeError, QpairId, BLOCK_SIZE};

use crate::libos::{LibOs, LibOsKind, QueueTable};
use crate::runtime::{Check, Runtime};
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
    /// Fires whenever `durable` grows, waking the pushes whose commit
    /// landed.
    appended: Notify,
}

#[derive(Default)]
struct OpenLog {
    log: Rc<RefCell<LogState>>,
    /// Where the next record starts: past every record popped so far.
    cursor: u64,
    /// The pops waiting for a record, oldest first, by op number: the
    /// oldest one's is read once a record is durable past the cursor.
    pops: VecDeque<u64>,
    /// Whether that read is in flight.
    reading: bool,
    /// Fires when a pop's record is filed or the descriptor closes.
    popped: Notify,
}

/// A record being read for a pop, one block command at a time: its
/// header, then its payload.
struct RecordRead {
    /// The log bytes still to read, `pos..end`.
    pos: u64,
    end: u64,
    /// The bytes read so far.
    bytes: Vec<u8>,
    /// The header's stored checksum, once the header is read: `bytes` is
    /// the payload from then on.
    sum: Option<u32>,
}

impl RecordRead {
    /// Takes the block read at `pos`, if any, and yields the LBA to read
    /// next, or `None` once the record is whole and verified. `durable`
    /// only ever rises by whole records, so a durable header's payload is
    /// durable too — unless its length is corrupt.
    fn step(
        &mut self,
        block: Option<Read>,
        log: &LogState,
        stats: &mut CatfsStats,
    ) -> Result<Option<u64>, DemiError> {
        if let Some(block) = block {
            let (block, from) = (block?, self.pos as usize % BLOCK_SIZE);
            let take = (BLOCK_SIZE - from).min((self.end - self.pos) as usize);
            self.bytes.extend_from_slice(&block[from..from + take]);
            self.pos += take as u64;
        }
        let mut corrupt = || {
            stats.checksum_failures += 1;
            Err(DemiError::Storage("record checksum"))
        };
        if self.pos == self.end && self.sum.is_none() {
            let magic = DemiError::Storage("bad record magic");
            let (len, sum) = parse_header(&self.bytes).ok_or(magic)?;
            self.end += len as u64;
            if self.end > log.durable {
                return corrupt();
            }
            (self.sum, self.bytes) = (Some(sum), Vec::with_capacity(len));
        }
        if self.pos < self.end {
            return Ok(Some(log.blocks[(self.pos / BLOCK_SIZE as u64) as usize]));
        }
        if self.sum != Some(checksum(&self.bytes)) {
            return corrupt();
        }
        stats.records_read += 1;
        Ok(None)
    }
}

/// A commit the device has not finished: its write commands and what
/// they make durable.
struct Commit {
    cmds: Range<u64>,
    log: Rc<RefCell<LogState>>,
    /// The log's length once the commit lands.
    end: u64,
}

/// A read command whose data the poller moves on.
enum Reader {
    /// A block of the record being read for `qd`'s oldest pop.
    Record(QDesc, RecordRead),
    /// A hop of host-side chase `op` ([`Catfs::chase_host`]): its walk
    /// and how many blocks it has read.
    Hop(u64, spdk_sim::ChainSpec, u32),
}

#[derive(Default)]
struct Inner {
    logs: HashMap<String, Rc<RefCell<LogState>>>,
    queues: QueueTable<OpenLog>,
    next_lba: u64,
    /// The next command id, which numbers pops and chases too (from 0).
    next_cmd: u64,
    /// Reads in flight whose data the poller moves on; any other read's
    /// or chase's data is its op's result.
    readers: HashMap<u64, Reader>,
    /// Results of pops, chases and recovery reads by op number, until
    /// their checks (or the recovery scan) take them.
    results: HashMap<u64, Read>,
    /// Descriptors whose oldest pop may wait for a durable record.
    hungry: Vec<QDesc>,
    /// The poller's completion batch, kept between polls.
    polled: Vec<NvmeCompletion>,
    /// Commits submitted and not yet landed, oldest first: one queue pair
    /// completes in submission order, so they retire from the front.
    in_flight: VecDeque<Commit>,
    /// Commits landed so far: commit `n` (numbered from 0 in submission
    /// order) is durable once `retired > n`.
    retired: u64,
    /// A write buffer the device handed back: the next append's image.
    spare: Vec<u8>,
    stats: CatfsStats,
    /// Fires when a chase's or a recovery read's result is filed.
    completed: Notify,
}

impl Inner {
    /// Draws the next command id (ids reach the device in draw order).
    fn cmd_id(&mut self) -> u64 {
        self.next_cmd += 1;
        self.next_cmd - 1
    }

    /// Files a commit's write completion. It hands its buffer back and, as
    /// the commit's last command, retires it: the log's `durable` rises to
    /// the commit's end and the pushes parked on it are woken.
    fn retire(&mut self, c: NvmeCompletion) {
        if let Some(commit) = self
            .in_flight
            .pop_front_if(|commit| commit.cmds.end == c.cmd_id + 1)
        {
            let mut log = commit.log.borrow_mut();
            log.durable = log.durable.max(commit.end);
            log.appended.notify_waiters();
            self.retired += 1;
        }
        if let Some(image) = c
            .data
            .filter(|image| image.capacity() > self.spare.capacity())
        {
            self.spare = image;
        }
    }

    /// Files op `op`'s result for its check and wakes it.
    fn file(&mut self, op: u64, read: Read) {
        self.results.insert(op, read);
        self.completed.notify_waiters();
    }
}

/// The storage libOS.
#[derive(Clone)]
pub struct Catfs {
    runtime: Runtime,
    core: Core,
    /// Every push's check: its commit has landed.
    push: Check,
    /// Every pop's and chase's check: its result is filed.
    read: Check,
}

/// The cycle-free heart of catfs: everything the poller and the checks
/// need. They live in the runtime and capture this — never `Catfs` itself
/// — because a runtime-owned closure holding a `Runtime` clone would form
/// an Rc cycle and leak the whole world.
#[derive(Clone)]
struct Core {
    device: NvmeDevice,
    qpair: QpairId,
    inner: Rc<RefCell<Inner>>,
}

impl Core {
    /// Files every due device completion ([`Core::complete`]), then serves
    /// the descriptors whose pops waited for a durable record; returns how
    /// many completions arrived (the poller's external-progress report).
    fn pump_completions(&self) -> usize {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let mut polled = std::mem::take(&mut inner.polled);
        let n = self.device.poll_completions(self.qpair, 64, &mut polled);
        for c in polled.drain(..) {
            self.complete(inner, c);
        }
        inner.polled = polled;
        let mut hungry = std::mem::take(&mut inner.hungry);
        hungry.retain(|&qd| self.serve(inner, qd));
        hungry.append(&mut inner.hungry);
        inner.hungry = hungry;
        n
    }

    /// Files one completion: a commit's write retires it
    /// ([`Inner::retire`]), a pop's or a walk's read moves on, and any
    /// other read's data is its op's result.
    fn complete(&self, inner: &mut Inner, c: NvmeCompletion) {
        let commit = inner.in_flight.front();
        if commit.is_some_and(|commit| commit.cmds.contains(&c.cmd_id)) {
            return inner.retire(c);
        }
        match inner.readers.remove(&c.cmd_id) {
            Some(Reader::Record(qd, record)) => self.read(inner, qd, record, Some(read_data(c))),
            Some(Reader::Hop(op, spec, hops)) => self.hop(inner, op, spec, hops, read_data(c)),
            None => inner.file(c.cmd_id, read_data(c)),
        }
    }

    /// Starts reading the record at `qd`'s cursor for its oldest pop, once
    /// one is durable; returns whether that pop waits for one.
    fn serve(&self, inner: &mut Inner, qd: QDesc) -> bool {
        let Ok(open) = inner.queues.get_mut(qd) else {
            return false;
        };
        if open.reading || open.pops.is_empty() {
            return false;
        }
        let pos = open.cursor;
        if open.log.borrow().durable <= pos {
            return true;
        }
        open.reading = true;
        let (end, bytes) = (pos + RECORD_HEADER as u64, Vec::new());
        self.read(
            inner,
            qd,
            RecordRead {
                pos,
                end,
                bytes,
                sum: None,
            },
            None,
        );
        false
    }

    /// Moves `qd`'s record read on with the block that landed: submits the
    /// next block's read, or files the record — or why not — for the
    /// oldest pop, moving the cursor past a good one, and serves the next
    /// pop. A closed descriptor drops its read.
    fn read(&self, inner: &mut Inner, qd: QDesc, mut record: RecordRead, block: Option<Read>) {
        let Ok(log) = inner.queues.get(qd).map(|open| open.log.clone()) else {
            return;
        };
        let read = match record.step(block, &log.borrow(), &mut inner.stats) {
            Ok(Some(lba)) => match self.submit_read(inner, lba) {
                Ok(cmd) => {
                    inner.readers.insert(cmd, Reader::Record(qd, record));
                    return;
                }
                Err(e) => Err(e),
            },
            Ok(None) => Ok(std::mem::take(&mut record.bytes)),
            Err(e) => Err(e),
        };
        if let Ok(open) = inner.queues.get_mut(qd) {
            open.reading = false;
            if read.is_ok() {
                open.cursor = record.end;
            }
            if let Some(op) = open.pops.pop_front() {
                inner.results.insert(op, read);
            }
            open.popped.notify_waiters();
        }
        if self.serve(inner, qd) {
            inner.hungry.push(qd);
        }
    }

    /// Moves host-side chase `op` on with the block it read: parses the
    /// pointer and resubmits, or files the block (or the failed read) as
    /// the op's result.
    fn hop(&self, inner: &mut Inner, op: u64, spec: spdk_sim::ChainSpec, hops: u32, read: Read) {
        let next = read.as_ref().ok().and_then(|block| {
            let pointer = block[spec.pointer_offset..].first_chunk();
            let next = pointer.map_or(spec.sentinel, |p| u64::from_le_bytes(*p));
            let end = next == spec.sentinel || hops + 1 >= spec.max_hops;
            (!end && next < self.device.namespace_blocks()).then_some(next)
        });
        match next.map(|lba| self.submit_read(inner, lba)) {
            Some(Ok(cmd)) => drop(inner.readers.insert(cmd, Reader::Hop(op, spec, hops + 1))),
            Some(Err(e)) => inner.file(op, Err(e)),
            None => inner.file(op, read),
        }
    }

    /// Appends one record to `log` and submits every block it touches: the
    /// cached partial tail, the header and the segments are gathered into
    /// one block-aligned, zero-padded image — in the buffer the device
    /// handed back last — which the device takes by value. Returns the
    /// commit's number; a full namespace or queue pair is an `Err` before
    /// any state changes.
    fn append(&self, log: &Rc<RefCell<LogState>>, sga: &Sga) -> Result<u64, DemiError> {
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

        let mut image = std::mem::take(&mut inner.spare);
        image.clear();
        image.reserve(blocks * BLOCK_SIZE);
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
        let seq = inner.retired + inner.in_flight.len() as u64;
        let (log, end) = (log.clone(), state.len);
        inner.in_flight.push_back(Commit { cmds, log, end });
        Ok(seq)
    }

    /// Submits a block read; returns its command id. A full queue pair is
    /// an `Err`, as it is for `append`.
    fn submit_read(&self, inner: &mut Inner, lba: u64) -> Result<u64, DemiError> {
        let cmd_id = inner.cmd_id();
        let submitted = self.device.submit_read(self.qpair, cmd_id, lba, 1);
        submitted.map_err(|e| match e {
            NvmeError::QueueFull => DemiError::Storage("queue pair full"),
            _ => DemiError::Storage("block read rejected"),
        })?;
        inner.stats.block_reads += 1;
        Ok(cmd_id)
    }
}

/// Bytes read from the device, or why not.
type Read = Result<Vec<u8>, DemiError>;

/// A read command's data; every completed read carries some.
fn read_data(c: NvmeCompletion) -> Read {
    c.data.ok_or(DemiError::Storage("no read data"))
}

/// A pop-like operation's result.
fn popped(read: Read) -> OperationResult {
    read.map_or_else(OperationResult::Failed, |bytes| OperationResult::Pop {
        from: None,
        sga: Sga::from_slice(&bytes),
    })
}

impl Catfs {
    /// Creates a catfs instance owning `device`, registered on the shared
    /// runtime (the device's completion times drive clock advancement).
    pub fn new(runtime: &Runtime, device: NvmeDevice) -> Self {
        let core = Core {
            qpair: device.alloc_qpair(),
            device: device.clone(),
            inner: Rc::default(),
        };
        // The poller moves every command on; it lives inside the runtime,
        // so it captures the cycle-free core, not the libOS (which holds
        // the runtime). So do the checks.
        let pump = core.clone();
        runtime.register_poller(move || pump.pump_completions());
        runtime.register_deadline_source(move || device.next_deadline());
        let inner = core.inner.clone();
        let push = move |_, seq| (inner.borrow().retired > seq).then_some(OperationResult::Push);
        let inner = core.inner.clone();
        let read = move |_, op| inner.borrow_mut().results.remove(&op).map(popped);
        Catfs {
            runtime: runtime.clone(),
            core,
            push: Rc::new(push),
            read: Rc::new(read),
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
            let data = self.sync_read_block(lba)?;
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
        Ok(inner.queues.insert(OpenLog {
            log,
            ..OpenLog::default()
        }))
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
        let mut inner = self.core.inner.borrow_mut();
        let op = inner.cmd_id();
        let (device, qpair) = (&self.core.device, self.core.qpair);
        if device.submit_chase(qpair, op, spec).is_err() {
            let rejected = Err(DemiError::Storage("chase rejected"));
            inner.results.insert(op, rejected);
        }
        drop(inner);
        self.park_read("catfs::chase", op)
    }

    /// The host-path baseline for the same walk: the host reads a block,
    /// parses the pointer, and resubmits — N submissions, N completions,
    /// N host crossings (the poller resubmits each hop). E17's storage A/B
    /// measures this against [`Catfs::chase`].
    pub fn chase_host(&self, spec: spdk_sim::ChainSpec) -> QToken {
        self.runtime.metrics().count_pop();
        let mut inner = self.core.inner.borrow_mut();
        let op = inner.cmd_id();
        // The device chase's own checks: both paths refuse the same walks.
        let read = if spec.pointer_offset > BLOCK_SIZE - 8 || spec.max_hops == 0 {
            Err(DemiError::Storage("chase rejected"))
        } else {
            self.core.submit_read(&mut inner, spec.start_lba)
        };
        match read {
            Ok(cmd) => drop(inner.readers.insert(cmd, Reader::Hop(op, spec, 0))),
            Err(e) => drop(inner.results.insert(op, Err(e))),
        }
        drop(inner);
        self.park_read("catfs::chase_host", op)
    }

    /// A chase parked until the poller files op `op`'s result.
    fn park_read(&self, name: &'static str, op: u64) -> QToken {
        let completed = self.core.inner.borrow().completed.clone();
        let check = self.read.clone();
        self.runtime.park_op(name, &completed, check, QDesc(0), op)
    }

    /// Synchronous block read for mount-time recovery (control path).
    fn sync_read_block(&self, lba: u64) -> Read {
        let cmd_id = self
            .core
            .submit_read(&mut self.core.inner.borrow_mut(), lba)?;
        loop {
            if let Some(t) = self.core.device.next_deadline() {
                self.runtime.clock().advance_to(t);
            }
            self.core.pump_completions();
            if let Some(read) = self.core.inner.borrow_mut().results.remove(&cmd_id) {
                return read;
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
    let (steps, rest) = payload.as_chunks::<16>();
    for step in steps {
        for (lane, word) in lanes.iter_mut().zip(step.as_chunks::<4>().0) {
            *lane = (*lane ^ u32::from_le_bytes(*word)).wrapping_mul(FNV_PRIME);
        }
    }
    for &byte in rest {
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
        Ok(inner.queues.insert(OpenLog {
            log,
            ..OpenLog::default()
        }))
    }

    fn open(&self, path: &str) -> Result<QDesc, DemiError> {
        self.runtime.metrics().count_control_path_syscall();
        let mut inner = self.core.inner.borrow_mut();
        let missing = DemiError::Storage("no such log");
        let log = inner.logs.get(path).cloned().ok_or(missing)?;
        Ok(inner.queues.insert(OpenLog {
            log,
            ..OpenLog::default()
        }))
    }

    fn close(&self, qd: QDesc) -> Result<(), DemiError> {
        let mut inner = self.core.inner.borrow_mut();
        let open = inner.queues.remove(qd)?;
        // Its waiting pops fail `Closed`; a record read in flight for one
        // is dropped when its block lands.
        let closed = open.pops.iter().map(|&op| (op, Err(DemiError::Closed)));
        inner.results.extend(closed);
        open.popped.notify_waiters();
        Ok(())
    }

    fn push(&self, qd: QDesc, sga: &Sga) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_push();
        let log = self.core.inner.borrow().queues.get(qd)?.log.clone();
        // All of the log's state moves here, at submission: two pushes in
        // flight on one log cannot interleave, whatever order they wake in.
        // The poller retires the commit; the push parks until it has.
        let seq = self.core.append(&log, sga)?;
        let (rt, appended) = (&self.runtime, &log.borrow().appended);
        Ok(rt.park_op("catfs::push", appended, self.push.clone(), qd, seq))
    }

    fn pop(&self, qd: QDesc) -> Result<QToken, DemiError> {
        self.runtime.metrics().count_pop();
        let mut inner = self.core.inner.borrow_mut();
        inner.queues.get(qd)?;
        let op = inner.cmd_id();
        let open = inner.queues.get_mut(qd)?;
        // Served in pop order by the poller, once a record is durable past
        // the cursor: it files the record under `op`.
        open.pops.push_back(op);
        let popped = open.popped.clone();
        inner.hungry.push(qd);
        drop(inner);
        Ok(self
            .runtime
            .park_op("catfs::pop", &popped, self.read.clone(), qd, op))
    }
}

#[cfg(test)]
mod tests;

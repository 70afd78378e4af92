//! The NVMe-style device: queue pairs, async commands, polled completions.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use sim_fabric::{SimClock, SimTime};

use crate::latency::FlashLatencyModel;

/// Logical block size in bytes (4 KiB, the native flash page).
pub const BLOCK_SIZE: usize = 4096;

/// Blocks per media extent: the sparse media allocates 256 KiB of zeroed
/// blocks the first time one of them is written, not one block at a time.
const EXTENT_BLOCKS: u64 = 64;

/// What every block of a never-written extent reads as.
static ZERO_BLOCK: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

/// Queue-pair handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpairId(pub u32);

impl QpairId {
    /// Ids are dense from 1: `QpairId(n)` is the device's `qpairs[n - 1]`,
    /// so the per-pass completion poll indexes instead of hashing.
    fn index(self) -> usize {
        (self.0 as usize).wrapping_sub(1)
    }
}

/// Device construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct NvmeConfig {
    /// Namespace capacity in blocks.
    pub namespace_blocks: u64,
    /// Maximum in-flight commands per queue pair.
    pub qpair_depth: usize,
    /// Service-time model.
    pub latency: FlashLatencyModel,
}

impl Default for NvmeConfig {
    fn default() -> Self {
        NvmeConfig {
            namespace_blocks: 1 << 20, // 4 GiB at 4 KiB blocks.
            qpair_depth: 256,
            latency: FlashLatencyModel::default(),
        }
    }
}

/// Errors returned synchronously at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmeError {
    /// Unknown queue pair.
    BadQpair,
    /// The queue pair already holds `qpair_depth` in-flight commands.
    QueueFull,
    /// LBA range exceeds the namespace.
    OutOfRange,
    /// Write data length is not a whole number of blocks.
    BadLength,
}

impl fmt::Display for NvmeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvmeError::BadQpair => write!(f, "bad queue pair"),
            NvmeError::QueueFull => write!(f, "queue pair full"),
            NvmeError::OutOfRange => write!(f, "LBA out of range"),
            NvmeError::BadLength => write!(f, "data length not block-aligned"),
        }
    }
}

impl std::error::Error for NvmeError {}

/// A completed command popped from a queue pair.
#[derive(Debug, Clone)]
pub struct NvmeCompletion {
    /// Caller-chosen command id.
    pub cmd_id: u64,
    /// Data, for reads (final block for chases); for writes, the buffer
    /// the host submitted, handed back the way a controller returns the
    /// host's DMA buffer, for the host to fill again.
    pub data: Option<Vec<u8>>,
    /// Device-side pointer hops taken (chase commands; 0 otherwise).
    pub hops: u32,
    /// Virtual instant the command completed inside the device.
    pub completed_at: SimTime,
}

/// Parameters of a device-side chained lookup ([`NvmeDevice::submit_chase`]).
///
/// This is the storage half of the offload-program model: a restricted,
/// verified "follow the pointer" program, not arbitrary code. Each block
/// carries a little-endian `u64` next-LBA at `pointer_offset`; the device
/// reads the start block and keeps following pointers *inside the device*
/// until it hits `sentinel`, runs out of `max_hops` budget, or a pointer
/// leaves the namespace. The host pays exactly one submission for the
/// whole walk; the device pays one flash read per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSpec {
    /// First block of the chain.
    pub start_lba: u64,
    /// Byte offset of the `u64` little-endian next-pointer within each
    /// block; must leave room for 8 bytes (`<= BLOCK_SIZE - 8`).
    pub pointer_offset: usize,
    /// Pointer value that terminates the chain (the final block is
    /// returned). Unwritten blocks read as zero, so a zero sentinel
    /// terminates on any unwritten block.
    pub sentinel: u64,
    /// Hop budget: the walk stops after reading this many blocks even if
    /// no sentinel was found (bounds device work, like a verifier would).
    pub max_hops: u32,
}

/// Device counters (experiment E10 reads `blocks_written` for
/// write-amplification accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NvmeStats {
    /// Read commands completed.
    pub reads: u64,
    /// Write commands completed.
    pub writes: u64,
    /// Flush commands completed.
    pub flushes: u64,
    /// Blocks read from media.
    pub blocks_read: u64,
    /// Blocks written to media.
    pub blocks_written: u64,
    /// Submissions rejected with `QueueFull`.
    pub queue_full_rejections: u64,
    /// Chase commands completed (each is ONE host submission).
    pub chases: u64,
    /// Total device-side pointer hops taken by chase commands.
    pub chase_hops: u64,
}

enum Command {
    Read {
        lba: u64,
        blocks: u64,
    },
    Write {
        lba: u64,
        data: Vec<u8>,
    },
    Flush,
    /// Chain walk, resolved at submission against current media state
    /// (the device sees its own media synchronously; the *latency* of
    /// every hop is still charged into the service time).
    Chase {
        hops: u32,
        data: Vec<u8>,
    },
}

struct InFlight {
    cmd_id: u64,
    complete_at: SimTime,
    command: Command,
}

struct Qpair {
    in_flight: VecDeque<InFlight>,
    busy_until: SimTime,
}

struct Inner {
    clock: SimClock,
    config: NvmeConfig,
    /// Extent index -> its `EXTENT_BLOCKS` blocks, zeroed when first
    /// written; an absent extent reads as zero.
    media: HashMap<u64, Box<[u8]>>,
    qpairs: Vec<Qpair>,
    stats: NvmeStats,
}

/// One simulated NVMe namespace behind SPDK-style queue pairs.
///
/// Commands are asynchronous: submission returns immediately, and
/// completions become visible through [`NvmeDevice::poll_completions`] once
/// virtual time passes the command's service time. Commands on one queue
/// pair are serviced serially (per-queue flash channel); separate queue
/// pairs proceed in parallel.
#[derive(Clone)]
pub struct NvmeDevice {
    inner: Rc<RefCell<Inner>>,
}

impl NvmeDevice {
    /// Creates a device on the shared simulation clock.
    pub fn new(clock: SimClock, config: NvmeConfig) -> Self {
        NvmeDevice {
            inner: Rc::new(RefCell::new(Inner {
                clock,
                config,
                media: HashMap::new(),
                qpairs: Vec::new(),
                stats: NvmeStats::default(),
            })),
        }
    }

    /// Namespace capacity in blocks.
    pub fn namespace_blocks(&self) -> u64 {
        self.inner.borrow().config.namespace_blocks
    }

    /// Allocates an I/O queue pair.
    pub fn alloc_qpair(&self) -> QpairId {
        let mut inner = self.inner.borrow_mut();
        inner.qpairs.push(Qpair {
            in_flight: VecDeque::new(),
            busy_until: SimTime::ZERO,
        });
        QpairId(inner.qpairs.len() as u32)
    }

    /// Submits an asynchronous read of `blocks` blocks starting at `lba`.
    pub fn submit_read(
        &self,
        qpair: QpairId,
        cmd_id: u64,
        lba: u64,
        blocks: u64,
    ) -> Result<(), NvmeError> {
        let mut inner = self.inner.borrow_mut();
        inner.check_range(lba, blocks)?;
        let service = inner.config.latency.read_time(blocks);
        inner.enqueue(qpair, cmd_id, service, Command::Read { lba, blocks })
    }

    /// Submits an asynchronous write of `data` (must be block-aligned)
    /// starting at `lba`. The device takes the data by value — a
    /// submission copies nothing — and on completion each block is copied
    /// into the media once and the buffer comes back in the completion's
    /// `data`.
    pub fn submit_write(
        &self,
        qpair: QpairId,
        cmd_id: u64,
        lba: u64,
        data: Vec<u8>,
    ) -> Result<(), NvmeError> {
        let mut inner = self.inner.borrow_mut();
        if data.is_empty() || !data.len().is_multiple_of(BLOCK_SIZE) {
            return Err(NvmeError::BadLength);
        }
        let blocks = (data.len() / BLOCK_SIZE) as u64;
        inner.check_range(lba, blocks)?;
        let service = inner.config.latency.write_time(blocks);
        inner.enqueue(qpair, cmd_id, service, Command::Write { lba, data })
    }

    /// Submits a device-side chained lookup (see [`ChainSpec`]).
    ///
    /// An N-hop chain costs the host exactly one submission and one
    /// completion; the device charges N single-block read times into the
    /// command's service latency. The completion carries the final block
    /// (where the walk terminated) and the hop count.
    pub fn submit_chase(
        &self,
        qpair: QpairId,
        cmd_id: u64,
        spec: ChainSpec,
    ) -> Result<(), NvmeError> {
        let mut inner = self.inner.borrow_mut();
        if spec.pointer_offset + 8 > BLOCK_SIZE {
            return Err(NvmeError::BadLength);
        }
        if spec.max_hops == 0 {
            return Err(NvmeError::OutOfRange);
        }
        inner.check_range(spec.start_lba, 1)?;
        // Resolve the walk now (media mutations are synchronous at
        // submission in this device), charging one flash read per hop.
        let mut lba = spec.start_lba;
        let mut hops: u32 = 0;
        let mut service = SimTime::ZERO;
        loop {
            hops += 1;
            service = service.saturating_add(inner.config.latency.read_time(1));
            let pointer = inner.block(lba)[spec.pointer_offset..].first_chunk();
            let next = pointer.map_or(spec.sentinel, |p| u64::from_le_bytes(*p));
            if next == spec.sentinel
                || hops >= spec.max_hops
                || next >= inner.config.namespace_blocks
            {
                break;
            }
            lba = next;
        }
        let data = inner.block(lba).to_vec();
        inner.stats.blocks_read += u64::from(hops);
        inner.enqueue(qpair, cmd_id, service, Command::Chase { hops, data })
    }

    /// Submits a flush (durability barrier).
    pub fn submit_flush(&self, qpair: QpairId, cmd_id: u64) -> Result<(), NvmeError> {
        let mut inner = self.inner.borrow_mut();
        let service = inner.config.latency.flush;
        inner.enqueue(qpair, cmd_id, service, Command::Flush)
    }

    /// Moves up to `max` completions whose service time has elapsed onto
    /// the end of `out`, a vector the caller keeps between polls; returns
    /// how many it moved.
    pub fn poll_completions(
        &self,
        qpair: QpairId,
        max: usize,
        out: &mut Vec<NvmeCompletion>,
    ) -> usize {
        let mut inner = self.inner.borrow_mut();
        let now = inner.clock.now();
        for n in 0..max {
            let due = inner
                .qpairs
                .get_mut(qpair.index())
                .and_then(|qp| qp.in_flight.pop_front_if(|c| c.complete_at <= now));
            let Some(item) = due else { return n };
            out.push(inner.execute(item));
        }
        max
    }

    /// In-flight command count on a queue pair.
    pub fn in_flight(&self, qpair: QpairId) -> usize {
        let inner = self.inner.borrow();
        let qp = inner.qpairs.get(qpair.index());
        qp.map_or(0, |q| q.in_flight.len())
    }

    /// Commands a queue pair can still accept before `QueueFull`.
    pub fn free_slots(&self, qpair: QpairId) -> usize {
        let inner = self.inner.borrow();
        let qp = inner.qpairs.get(qpair.index());
        qp.map_or(0, |q| inner.config.qpair_depth - q.in_flight.len())
    }

    /// Earliest pending completion instant across all queue pairs.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.inner
            .borrow()
            .qpairs
            .iter()
            .filter_map(|q| q.in_flight.front().map(|c| c.complete_at))
            .min()
    }

    /// Device counters.
    pub fn stats(&self) -> NvmeStats {
        self.inner.borrow().stats
    }
}

impl Inner {
    /// Block `lba`'s contents: zeros where its extent was never written.
    fn block(&self, lba: u64) -> &[u8] {
        let Some(extent) = self.media.get(&(lba / EXTENT_BLOCKS)) else {
            return &ZERO_BLOCK;
        };
        let at = (lba % EXTENT_BLOCKS) as usize * BLOCK_SIZE;
        &extent[at..at + BLOCK_SIZE]
    }

    /// Copies whole blocks into the media from `lba` on, zeroing an
    /// extent the first time one of its blocks is written.
    fn store(&mut self, lba: u64, data: &[u8]) {
        for (lba, block) in (lba..).zip(data.chunks_exact(BLOCK_SIZE)) {
            let extent = self
                .media
                .entry(lba / EXTENT_BLOCKS)
                .or_insert_with(|| vec![0; EXTENT_BLOCKS as usize * BLOCK_SIZE].into_boxed_slice());
            let at = (lba % EXTENT_BLOCKS) as usize * BLOCK_SIZE;
            extent[at..at + BLOCK_SIZE].copy_from_slice(block);
        }
    }

    fn check_range(&self, lba: u64, blocks: u64) -> Result<(), NvmeError> {
        let end = lba.checked_add(blocks).ok_or(NvmeError::OutOfRange)?;
        if blocks == 0 || end > self.config.namespace_blocks {
            return Err(NvmeError::OutOfRange);
        }
        Ok(())
    }

    fn enqueue(
        &mut self,
        qpair: QpairId,
        cmd_id: u64,
        service: SimTime,
        command: Command,
    ) -> Result<(), NvmeError> {
        let now = self.clock.now();
        let depth = self.config.qpair_depth;
        let qp = self
            .qpairs
            .get_mut(qpair.index())
            .ok_or(NvmeError::BadQpair)?;
        if qp.in_flight.len() >= depth {
            self.stats.queue_full_rejections += 1;
            return Err(NvmeError::QueueFull);
        }
        let start = qp.busy_until.max(now);
        let complete_at = start.saturating_add(service);
        qp.busy_until = complete_at;
        qp.in_flight.push_back(InFlight {
            cmd_id,
            complete_at,
            command,
        });
        Ok(())
    }

    fn execute(&mut self, item: InFlight) -> NvmeCompletion {
        let mut hops = 0;
        let data = match item.command {
            Command::Read { lba, blocks } => {
                self.stats.reads += 1;
                self.stats.blocks_read += blocks;
                let mut out = Vec::with_capacity(blocks as usize * BLOCK_SIZE);
                for lba in lba..lba + blocks {
                    out.extend_from_slice(self.block(lba));
                }
                Some(out)
            }
            Command::Write { lba, data } => {
                self.stats.writes += 1;
                self.stats.blocks_written += (data.len() / BLOCK_SIZE) as u64;
                self.store(lba, &data);
                Some(data)
            }
            Command::Flush => {
                self.stats.flushes += 1;
                None
            }
            Command::Chase { hops: h, data } => {
                self.stats.chases += 1;
                self.stats.chase_hops += u64::from(h);
                hops = h;
                Some(data)
            }
        };
        NvmeCompletion {
            cmd_id: item.cmd_id,
            data,
            hops,
            completed_at: item.complete_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> (SimClock, NvmeDevice) {
        let clock = SimClock::new();
        let dev = NvmeDevice::new(clock.clone(), NvmeConfig::default());
        (clock, dev)
    }

    /// The completions due on `qp`, in a fresh vector.
    fn poll(dev: &NvmeDevice, qp: QpairId) -> Vec<NvmeCompletion> {
        let mut out = Vec::new();
        dev.poll_completions(qp, 8, &mut out);
        out
    }

    /// Advances the clock far enough for everything submitted to finish.
    fn finish_all(clock: &SimClock) {
        clock.advance_by(SimTime::from_secs(1));
    }

    #[test]
    fn write_read_round_trip() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        let data = vec![0xAB; BLOCK_SIZE * 2];
        dev.submit_write(qp, 1, 10, data.clone()).unwrap();
        finish_all(&clock);
        assert_eq!(poll(&dev, qp).len(), 1);
        dev.submit_read(qp, 2, 10, 2).unwrap();
        finish_all(&clock);
        let comps = poll(&dev, qp);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].cmd_id, 2);
        assert_eq!(comps[0].data.as_deref(), Some(&data[..]));
    }

    /// A multi-block write lands fresh blocks beside the one it rewrites.
    #[test]
    fn rewrites_land_in_place_and_fresh_blocks_beside_them() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        let blocks = |fills: &[u8]| -> Vec<u8> {
            let each = |&f: &u8| std::iter::repeat_n(f, BLOCK_SIZE);
            fills.iter().flat_map(each).collect()
        };
        dev.submit_write(qp, 1, 5, blocks(&[0x11])).unwrap();
        dev.submit_write(qp, 2, 4, blocks(&[0x22, 0x33, 0x44]))
            .unwrap();
        dev.submit_write(qp, 3, 6, blocks(&[0x55])).unwrap();
        dev.submit_read(qp, 4, 3, 5).unwrap();
        finish_all(&clock);
        let comps = poll(&dev, qp);
        assert_eq!(comps.len(), 4);
        let expect = blocks(&[0, 0x22, 0x33, 0x55, 0]);
        assert_eq!(comps[3].data.as_deref(), Some(&expect[..]));
        assert_eq!(dev.stats().blocks_written, 5);
    }

    #[test]
    fn unwritten_blocks_read_as_zero() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        dev.submit_read(qp, 1, 500, 1).unwrap();
        finish_all(&clock);
        let comps = poll(&dev, qp);
        assert_eq!(comps[0].data.as_deref(), Some(&vec![0u8; BLOCK_SIZE][..]));
    }

    /// A write's completion lends the host its own buffer back: the very
    /// allocation it submitted, not a copy.
    #[test]
    fn a_write_completion_returns_the_submitted_buffer() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        let data = vec![0x5A; BLOCK_SIZE * 3];
        let submitted = data.as_ptr();
        dev.submit_write(qp, 1, 7, data).unwrap();
        finish_all(&clock);
        let comps = poll(&dev, qp);
        let lent = comps[0].data.as_ref().expect("the write buffer comes back");
        assert_eq!(lent.as_ptr(), submitted);
        assert_eq!(lent.len(), BLOCK_SIZE * 3);
    }

    /// Writing one block zeroes its whole extent; the blocks beside it
    /// still read as zero, through a read and as a chase's start block.
    #[test]
    fn unwritten_blocks_of_a_written_extent_read_as_zero() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        dev.submit_write(qp, 1, 10, vec![0xEE; BLOCK_SIZE]).unwrap();
        dev.submit_read(qp, 2, 9, 3).unwrap();
        let zero_start = ChainSpec {
            sentinel: 0,
            ..chain_spec(11)
        };
        dev.submit_chase(qp, 3, zero_start).unwrap();
        finish_all(&clock);
        let comps = poll(&dev, qp);
        let mut expect = vec![0; BLOCK_SIZE * 3];
        expect[BLOCK_SIZE..2 * BLOCK_SIZE].fill(0xEE);
        assert_eq!(comps[1].data.as_deref(), Some(&expect[..]));
        assert_eq!(comps[2].hops, 1, "a zero pointer is the sentinel");
        assert_eq!(comps[2].data.as_deref(), Some(&[0; BLOCK_SIZE][..]));
    }

    /// A write across an extent boundary lands in both extents and reads
    /// back whole, with the unwritten neighbours on either side zero.
    #[test]
    fn a_write_straddling_an_extent_boundary_round_trips() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        let first = EXTENT_BLOCKS - 2;
        let data: Vec<u8> = (0..4 * BLOCK_SIZE)
            .map(|i| (i / BLOCK_SIZE + 1) as u8)
            .collect();
        dev.submit_write(qp, 1, first, data.clone()).unwrap();
        dev.submit_read(qp, 2, first - 1, 6).unwrap();
        finish_all(&clock);
        let comps = poll(&dev, qp);
        let mut expect = vec![0; BLOCK_SIZE];
        expect.extend_from_slice(&data);
        expect.extend_from_slice(&[0; BLOCK_SIZE]);
        assert_eq!(comps[1].data.as_deref(), Some(&expect[..]));
        assert_eq!(dev.inner.borrow().media.len(), 2, "two extents");
    }

    #[test]
    fn completions_respect_virtual_time() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        dev.submit_read(qp, 1, 0, 1).unwrap(); // 10µs service time.
        assert!(poll(&dev, qp).is_empty(), "not done yet");
        clock.advance_by(SimTime::from_micros(9));
        assert!(poll(&dev, qp).is_empty(), "still not done");
        clock.advance_by(SimTime::from_micros(1));
        let comps = poll(&dev, qp);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].completed_at, SimTime::from_micros(10));
    }

    #[test]
    fn qpair_serializes_commands() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        dev.submit_read(qp, 1, 0, 1).unwrap(); // Completes at 10µs.
        dev.submit_read(qp, 2, 0, 1).unwrap(); // Queued behind: 20µs.
        clock.advance_by(SimTime::from_micros(10));
        assert_eq!(poll(&dev, qp).len(), 1);
        clock.advance_by(SimTime::from_micros(10));
        assert_eq!(poll(&dev, qp).len(), 1);
    }

    #[test]
    fn separate_qpairs_run_in_parallel() {
        let (clock, dev) = device();
        let qp1 = dev.alloc_qpair();
        let qp2 = dev.alloc_qpair();
        dev.submit_read(qp1, 1, 0, 1).unwrap();
        dev.submit_read(qp2, 2, 0, 1).unwrap();
        clock.advance_by(SimTime::from_micros(10));
        assert_eq!(poll(&dev, qp1).len(), 1);
        assert_eq!(poll(&dev, qp2).len(), 1);
    }

    #[test]
    fn queue_depth_is_enforced() {
        let clock = SimClock::new();
        let dev = NvmeDevice::new(
            clock,
            NvmeConfig {
                qpair_depth: 2,
                ..NvmeConfig::default()
            },
        );
        let qp = dev.alloc_qpair();
        dev.submit_read(qp, 1, 0, 1).unwrap();
        dev.submit_read(qp, 2, 0, 1).unwrap();
        assert_eq!(dev.free_slots(qp), 0);
        assert_eq!(dev.submit_read(qp, 3, 0, 1), Err(NvmeError::QueueFull));
        assert_eq!(dev.stats().queue_full_rejections, 1);
    }

    #[test]
    fn out_of_range_and_bad_length_rejected() {
        let (_clock, dev) = device();
        let qp = dev.alloc_qpair();
        let max = dev.namespace_blocks();
        assert_eq!(dev.submit_read(qp, 1, max, 1), Err(NvmeError::OutOfRange));
        assert_eq!(dev.submit_read(qp, 1, 0, 0), Err(NvmeError::OutOfRange));
        assert_eq!(
            dev.submit_write(qp, 1, 0, vec![1, 2, 3]),
            Err(NvmeError::BadLength)
        );
        assert_eq!(
            dev.submit_write(qp, 1, 0, Vec::new()),
            Err(NvmeError::BadLength)
        );
    }

    #[test]
    fn flush_completes_and_counts() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        dev.submit_flush(qp, 9).unwrap();
        finish_all(&clock);
        let comps = poll(&dev, qp);
        assert_eq!(comps[0].cmd_id, 9);
        assert!(comps[0].data.is_none());
        assert_eq!(dev.stats().flushes, 1);
    }

    #[test]
    fn stats_track_block_counts_for_write_amp() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        dev.submit_write(qp, 1, 0, vec![1u8; BLOCK_SIZE * 3])
            .unwrap();
        dev.submit_read(qp, 2, 0, 2).unwrap();
        finish_all(&clock);
        let _ = poll(&dev, qp);
        let s = dev.stats();
        assert_eq!(s.blocks_written, 3);
        assert_eq!(s.blocks_read, 2);
    }

    #[test]
    fn next_deadline_reports_earliest_completion() {
        let (clock, dev) = device();
        let qp1 = dev.alloc_qpair();
        let qp2 = dev.alloc_qpair();
        dev.submit_write(qp1, 1, 0, vec![0u8; BLOCK_SIZE]).unwrap(); // 20µs
        dev.submit_read(qp2, 2, 0, 1).unwrap(); // 10µs
        assert_eq!(dev.next_deadline(), Some(SimTime::from_micros(10)));
        clock.advance_by(SimTime::from_micros(10));
        let _ = poll(&dev, qp2);
        assert_eq!(dev.next_deadline(), Some(SimTime::from_micros(20)));
    }

    /// Writes a block whose `pointer_offset` bytes name `next`, with the
    /// rest filled with `fill`.
    fn write_chain_block(
        dev: &NvmeDevice,
        clock: &SimClock,
        qp: QpairId,
        lba: u64,
        next: u64,
        fill: u8,
    ) {
        let mut block = vec![fill; BLOCK_SIZE];
        block[0..8].copy_from_slice(&next.to_le_bytes());
        dev.submit_write(qp, 1000 + lba, lba, block).unwrap();
        finish_all(clock);
        let _ = poll(dev, qp);
    }

    fn chain_spec(start_lba: u64) -> ChainSpec {
        ChainSpec {
            start_lba,
            pointer_offset: 0,
            sentinel: u64::MAX,
            max_hops: 16,
        }
    }

    #[test]
    fn chase_follows_chain_in_one_submission() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        // 10 → 20 → 30 → end.
        write_chain_block(&dev, &clock, qp, 10, 20, 0xA);
        write_chain_block(&dev, &clock, qp, 20, 30, 0xB);
        write_chain_block(&dev, &clock, qp, 30, u64::MAX, 0xC);
        let before = dev.stats();
        dev.submit_chase(qp, 7, chain_spec(10)).unwrap();
        finish_all(&clock);
        let comps = poll(&dev, qp);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].cmd_id, 7);
        assert_eq!(comps[0].hops, 3);
        let data = comps[0].data.as_ref().unwrap();
        assert_eq!(data[8], 0xC, "final block returned");
        let s = dev.stats();
        assert_eq!(s.chases - before.chases, 1, "one host submission");
        assert_eq!(s.chase_hops - before.chase_hops, 3);
        assert_eq!(s.reads, before.reads, "no per-hop host read commands");
        assert_eq!(
            s.blocks_read - before.blocks_read,
            3,
            "media reads are real"
        );
    }

    #[test]
    fn chase_charges_per_hop_latency() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        write_chain_block(&dev, &clock, qp, 10, 20, 0);
        write_chain_block(&dev, &clock, qp, 20, u64::MAX, 0);
        let start = clock.now();
        dev.submit_chase(qp, 1, chain_spec(10)).unwrap();
        finish_all(&clock);
        let comps = poll(&dev, qp);
        let per_hop = FlashLatencyModel::default().read_time(1);
        assert_eq!(
            comps[0].completed_at,
            start.saturating_add(per_hop).saturating_add(per_hop),
            "an N-hop chase costs N single-block read times"
        );
    }

    #[test]
    fn chase_respects_hop_budget_and_bad_pointers() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        // A 2-cycle loop: the hop budget is the only terminator.
        write_chain_block(&dev, &clock, qp, 10, 20, 0);
        write_chain_block(&dev, &clock, qp, 20, 10, 0);
        dev.submit_chase(
            qp,
            1,
            ChainSpec {
                max_hops: 5,
                ..chain_spec(10)
            },
        )
        .unwrap();
        finish_all(&clock);
        assert_eq!(poll(&dev, qp)[0].hops, 5);
        // A pointer outside the namespace stops the walk at that block.
        write_chain_block(&dev, &clock, qp, 40, dev.namespace_blocks() + 7, 0xD);
        dev.submit_chase(qp, 2, chain_spec(40)).unwrap();
        finish_all(&clock);
        let comps = poll(&dev, qp);
        assert_eq!(comps[0].hops, 1);
        assert_eq!(comps[0].data.as_ref().unwrap()[8], 0xD);
    }

    #[test]
    fn chase_rejects_bad_specs() {
        let (_clock, dev) = device();
        let qp = dev.alloc_qpair();
        assert_eq!(
            dev.submit_chase(
                qp,
                1,
                ChainSpec {
                    pointer_offset: BLOCK_SIZE - 7,
                    ..chain_spec(0)
                }
            ),
            Err(NvmeError::BadLength)
        );
        assert_eq!(
            dev.submit_chase(
                qp,
                1,
                ChainSpec {
                    max_hops: 0,
                    ..chain_spec(0)
                }
            ),
            Err(NvmeError::OutOfRange)
        );
        assert_eq!(
            dev.submit_chase(qp, 1, chain_spec(dev.namespace_blocks())),
            Err(NvmeError::OutOfRange)
        );
    }

    #[test]
    fn bad_qpair_rejected() {
        let (_clock, dev) = device();
        assert_eq!(
            dev.submit_read(QpairId(99), 1, 0, 1),
            Err(NvmeError::BadQpair)
        );
        assert!(poll(&dev, QpairId(99)).is_empty());
        assert!(poll(&dev, QpairId(0)).is_empty());
        assert_eq!(dev.free_slots(QpairId(0)), 0);
    }
}

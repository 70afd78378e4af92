//! catfs tests: the single-application log layout.

use super::*;
use sim_fabric::SimTime;
use spdk_sim::nvme::NvmeConfig;

fn setup() -> (Runtime, Catfs, NvmeDevice) {
    let rt = Runtime::new();
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    let catfs = Catfs::new(&rt, device.clone());
    (rt, catfs, device)
}

#[test]
fn push_pop_round_trip() {
    let (_rt, fs, _dev) = setup();
    let qd = fs.create("kv-log").unwrap();
    fs.blocking_push(qd, &Sga::from_slice(b"record-1")).unwrap();
    fs.blocking_push(qd, &Sga::from_slice(b"record-2")).unwrap();
    let (_, r1) = fs.blocking_pop(qd).unwrap().expect_pop();
    let (_, r2) = fs.blocking_pop(qd).unwrap().expect_pop();
    assert_eq!(r1.to_vec(), b"record-1");
    assert_eq!(r2.to_vec(), b"record-2");
}

#[test]
fn small_appends_cost_one_block_write_each() {
    let (_rt, fs, dev) = setup();
    let qd = fs.create("log").unwrap();
    let before = dev.stats().blocks_written;
    for i in 0..10u8 {
        fs.blocking_push(qd, &Sga::from_slice(&[i; 100])).unwrap();
    }
    let per_append = (dev.stats().blocks_written - before) as f64 / 10.0;
    assert!(
        per_append <= 1.01,
        "log layout must write ~1 block per small append, got {per_append}"
    );
    assert_eq!(fs.stats().appends, 10);
}

#[test]
fn large_records_span_blocks() {
    let (_rt, fs, _dev) = setup();
    let qd = fs.create("big").unwrap();
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 253) as u8).collect();
    fs.blocking_push(qd, &Sga::from_slice(&payload)).unwrap();
    let (_, got) = fs.blocking_pop(qd).unwrap().expect_pop();
    assert_eq!(got.to_vec(), payload);
}

#[test]
fn independent_readers_have_independent_cursors() {
    let (_rt, fs, _dev) = setup();
    let writer = fs.create("shared").unwrap();
    fs.blocking_push(writer, &Sga::from_slice(b"alpha"))
        .unwrap();
    fs.blocking_push(writer, &Sga::from_slice(b"beta")).unwrap();
    let r1 = fs.open("shared").unwrap();
    let r2 = fs.open("shared").unwrap();
    let (_, a) = fs.blocking_pop(r1).unwrap().expect_pop();
    let (_, b) = fs.blocking_pop(r2).unwrap().expect_pop();
    assert_eq!(a.to_vec(), b"alpha");
    assert_eq!(b.to_vec(), b"alpha", "each reader starts at the head");
}

#[test]
fn pop_blocks_until_push_like_a_queue() {
    let (_rt, fs, _dev) = setup();
    let qd = fs.create("tail").unwrap();
    let pop_qt = fs.pop(qd).unwrap();
    let push_qt = fs.push(qd, &Sga::from_slice(b"late")).unwrap();
    let results = fs.wait_all(&[pop_qt, push_qt], None).unwrap();
    let (_, sga) = results[0].clone().expect_pop();
    assert_eq!(sga.to_vec(), b"late");
}

#[test]
fn create_conflicts_and_missing_logs_error() {
    let (_rt, fs, _dev) = setup();
    fs.create("x").unwrap();
    assert!(fs.create("x").is_err());
    assert!(fs.open("y").is_err());
}

#[test]
fn recovery_rebuilds_a_log_from_the_device() {
    let rt = Runtime::new();
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    {
        let fs = Catfs::new(&rt, device.clone());
        let qd = fs.create("durable").unwrap();
        fs.blocking_push(qd, &Sga::from_slice(b"survives")).unwrap();
        fs.blocking_push(qd, &Sga::from_slice(b"reboots")).unwrap();
    }
    // "Reboot": a fresh catfs on the same device. The device reads the
    // original clock, so the new runtime must share it.
    let rt2 = Runtime::with_clock(rt.clock().clone());
    let fs2 = Catfs::new(&rt2, device);
    let qd = fs2.recover("durable").unwrap();
    let (_, a) = fs2.blocking_pop(qd).unwrap().expect_pop();
    let (_, b) = fs2.blocking_pop(qd).unwrap().expect_pop();
    assert_eq!(a.to_vec(), b"survives");
    assert_eq!(b.to_vec(), b"reboots");
}

#[test]
fn io_takes_virtual_time() {
    let (rt, fs, _dev) = setup();
    let qd = fs.create("timed").unwrap();
    let t0 = rt.now();
    fs.blocking_push(qd, &Sga::from_slice(&[1u8; 64])).unwrap();
    assert!(rt.now() > t0, "flash writes are not free");
}

#[test]
fn sockets_are_not_supported() {
    let (_rt, fs, _dev) = setup();
    assert!(matches!(
        fs.socket(crate::libos::SocketKind::Udp),
        Err(DemiError::NotSupported(_))
    ));
}

// ---------------------------------------------------------------------
// A commit is one device command: append at submission, the `durable`
// watermark, typed overflow.
// ---------------------------------------------------------------------

fn log_state(fs: &Catfs, path: &str) -> Rc<RefCell<LogState>> {
    fs.core.inner.borrow().logs[path].clone()
}

/// Raw block access beside catfs, on the test's own queue pair.
struct Raw<'a> {
    dev: &'a NvmeDevice,
    rt: &'a Runtime,
    qp: QpairId,
}

impl<'a> Raw<'a> {
    fn new(dev: &'a NvmeDevice, rt: &'a Runtime) -> Self {
        let qp = dev.alloc_qpair();
        Raw { dev, rt, qp }
    }

    /// Runs the one command just submitted to completion.
    fn complete(&self) -> NvmeCompletion {
        let mut done = Vec::new();
        loop {
            self.dev.poll_completions(self.qp, 1, &mut done);
            if let Some(done) = done.pop() {
                return done;
            }
            let next = self.dev.next_deadline().expect("in flight");
            self.rt.clock().advance_to(next);
        }
    }

    fn read(&self, lba: u64) -> Vec<u8> {
        self.dev.submit_read(self.qp, 0, lba, 1).unwrap();
        self.complete().data.unwrap()
    }

    fn write(&self, lba: u64, block: &[u8]) {
        self.dev
            .submit_write(self.qp, 0, lba, block.to_vec())
            .unwrap();
        self.complete();
    }
}

/// Two pushes in flight on one log: both records are laid out at
/// submission, so neither can land inside the other, and a tailing pop
/// sees exactly the prefix the device has acknowledged.
#[test]
fn two_in_flight_pushes_keep_their_records_apart() {
    let (_rt, fs, dev) = setup();
    let qd = fs.create("pair").unwrap();
    let a = fs.push(qd, &Sga::from_slice(&[0xAA; 10_000])).unwrap();
    let b = fs.push(qd, &Sga::from_slice(&[0xBB; 10_000])).unwrap();
    let log = log_state(&fs, "pair");
    let watermark = || {
        let state = log.borrow();
        (state.durable, state.len, state.appended.epoch())
    };
    let woken = watermark().2;
    assert_eq!(watermark(), (0, 20_020, woken), "appended, not yet durable");

    assert_eq!(fs.wait(a, None).unwrap(), OperationResult::Push);
    assert_eq!(dev.stats().writes, 1, "B's command is still in flight");
    assert_eq!(watermark(), (10_010, 20_020, woken + 1));
    assert_eq!(fs.wait(b, None).unwrap(), OperationResult::Push);
    assert_eq!(watermark(), (20_020, 20_020, woken + 2));
    assert_eq!(dev.stats().writes, 2, "one command per commit");

    for fill in [0xAA, 0xBB] {
        let (_, sga) = fs.blocking_pop(qd).unwrap().expect_pop();
        assert_eq!(sga.to_vec(), vec![fill; 10_000], "in submission order");
    }
}

/// A push whose queue closes while its command is in flight still
/// completes once the record is durable, and the record survives a
/// reboot: closing a queue ends its pops, not its commits.
#[test]
fn a_push_outlives_its_closed_queue() {
    let (rt, fs, dev) = setup();
    let qd = fs.create("closing").unwrap();
    let qt = fs.push(qd, &Sga::from_slice(b"in flight")).unwrap();
    fs.close(qd).unwrap();
    assert_eq!(fs.wait(qt, None).unwrap(), OperationResult::Push);
    assert_eq!(log_state(&fs, "closing").borrow().durable, 19);

    let rt2 = Runtime::with_clock(rt.clock().clone());
    let fs2 = Catfs::new(&rt2, dev);
    let qd = fs2.recover("closing").unwrap();
    let (_, sga) = fs2.blocking_pop(qd).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), b"in flight");
}

/// Waiting on the later of two in-flight pushes first returns once its
/// own command has completed — not at the earlier one's completion — and
/// the earlier push is then already complete.
#[test]
fn waiting_on_the_second_push_waits_for_its_own_command() {
    let (rt, fs, dev) = setup();
    let qd = fs.create("second").unwrap();
    let t0 = rt.now();
    let a = fs.push(qd, &Sga::from_slice(&[0xAA; 10_000])).unwrap();
    let b = fs.push(qd, &Sga::from_slice(&[0xBB; 100])).unwrap();
    assert_eq!(fs.wait(b, None).unwrap(), OperationResult::Push);
    let flash = NvmeConfig::default().latency;
    let both = t0
        .saturating_add(flash.write_time(3))
        .saturating_add(flash.write_time(1));
    assert_eq!(rt.now(), both, "B's one-block command runs after A's three");
    assert_eq!(dev.stats().writes, 2);
    assert_eq!(log_state(&fs, "second").borrow().durable, 10_120);
    assert_eq!(fs.wait(a, None).unwrap(), OperationResult::Push);
    assert_eq!(rt.now(), both, "A was already complete");
}

/// A commit split in two commands (logs sharing a device) completes only
/// once both have: after the first alone the push is still pending and
/// the log's durable length has not moved.
#[test]
fn a_split_commit_completes_after_both_commands() {
    let (_rt, fs, dev) = setup();
    let (x, y) = (fs.create("x").unwrap(), fs.create("y").unwrap());
    fs.blocking_push(x, &Sga::from_slice(&[1; 100])).unwrap();
    fs.blocking_push(y, &Sga::from_slice(&[2; 100])).unwrap();
    let writes = dev.stats().writes;
    let qt = fs.push(x, &Sga::from_slice(&[3; 5_000])).unwrap();
    assert_eq!(dev.in_flight(fs.core.qpair), 2);
    // The two one-block commands complete one write time apart: wait out
    // the first and half the second.
    let one = NvmeConfig::default().latency.write_time(1);
    let first_and_a_half = one.saturating_add(SimTime::from_nanos(one.as_nanos() / 2));
    assert_eq!(fs.wait(qt, Some(first_and_a_half)), Err(DemiError::Timeout));
    assert_eq!(dev.stats().writes, writes + 1, "the first command landed");
    assert_eq!(log_state(&fs, "x").borrow().durable, 110);
    assert_eq!(fs.wait(qt, None).unwrap(), OperationResult::Push);
    assert_eq!(dev.stats().writes, writes + 2);
    assert_eq!(log_state(&fs, "x").borrow().durable, 5_120);
}

/// Recovery's scan stops at the first all-zero block past the last
/// record — here a never-written block inside the extent the log's
/// first block zeroed.
#[test]
fn recovery_stops_at_an_unwritten_block_of_a_written_extent() {
    let (rt, fs, dev) = setup();
    let qd = fs.create("short").unwrap();
    fs.blocking_push(qd, &Sga::from_slice(&[0x11; 3_000]))
        .unwrap();
    let rt2 = Runtime::with_clock(rt.clock().clone());
    let fs2 = Catfs::new(&rt2, dev);
    fs2.recover("short").unwrap();
    assert_eq!(log_state(&fs2, "short").borrow().blocks, [0]);
    assert_eq!(fs2.stats().block_reads, 2, "block 0, then zeros at block 1");
}

/// Two logs on one device: a record that rewrites its tail block and
/// needs fresh ones past the other log's is two commands, both submitted
/// before either is waited on.
#[test]
fn logs_sharing_a_device_split_a_commit_at_the_gap() {
    let (_rt, fs, dev) = setup();
    let (x, y) = (fs.create("x").unwrap(), fs.create("y").unwrap());
    fs.blocking_push(x, &Sga::from_slice(&[1; 100])).unwrap();
    fs.blocking_push(y, &Sga::from_slice(&[2; 100])).unwrap();
    let before = dev.stats();
    let qt = fs.push(x, &Sga::from_slice(&[3; 5_000])).unwrap();
    assert_eq!(
        dev.in_flight(fs.core.qpair),
        2,
        "blocks 0 and 2: not one run"
    );
    fs.wait(qt, None).unwrap();
    assert_eq!(log_state(&fs, "x").borrow().blocks, [0, 2]);
    assert_eq!(dev.stats().blocks_written - before.blocks_written, 2);
    for (qd, fill, len) in [(x, 1, 100), (x, 3, 5_000), (y, 2, 100)] {
        let (_, sga) = fs.blocking_pop(qd).unwrap().expect_pop();
        assert_eq!(sga.to_vec(), vec![fill; len]);
    }
}

/// A record whose first block landed and whose later blocks did not (the
/// commit a crash interrupted) parses by magic and length; recovery
/// checks the sum too and ends the log before it.
#[test]
fn recovery_truncates_a_torn_tail_record() {
    let (rt, fs, dev) = setup();
    let qd = fs.create("torn").unwrap();
    fs.blocking_push(qd, &Sga::from_slice(&[0xA1; 100]))
        .unwrap();
    fs.blocking_push(qd, &Sga::from_slice(&[0xB2; 6_000]))
        .unwrap();
    // Block 0 holds A and the first 4096 - 110 bytes of the second
    // record; block 1 never reached the media.
    Raw::new(&dev, &rt).write(1, &[0; BLOCK_SIZE]);

    let rt2 = Runtime::with_clock(rt.clock().clone());
    let fs2 = Catfs::new(&rt2, dev);
    let qd = fs2.recover("torn").unwrap();
    assert_eq!(fs2.stats().checksum_failures, 1, "the truncation counts");
    let log = log_state(&fs2, "torn");
    let state = |log: &RefCell<LogState>| {
        let s = log.borrow();
        (s.len, s.durable, s.blocks.clone(), s.tail.len())
    };
    assert_eq!(state(&log), (110, 110, vec![0], 110));
    let (_, a) = fs2.blocking_pop(qd).unwrap().expect_pop();
    assert_eq!(a.to_vec(), [0xA1; 100]);
    // The log is live again: the next commit overwrites the torn bytes.
    fs2.blocking_push(qd, &Sga::from_slice(&[0xC3; 5_000]))
        .unwrap();
    let (_, c) = fs2.blocking_pop(qd).unwrap().expect_pop();
    assert_eq!(c.to_vec(), [0xC3; 5_000]);
    assert_eq!(fs2.stats().checksum_failures, 1);
}

/// A namespace with no room for a record's blocks is an `Err` from
/// `push`, before any log state moves — not a panic in a scheduler task.
#[test]
fn a_full_device_fails_the_push_and_keeps_the_log() {
    let rt = Runtime::new();
    let config = NvmeConfig {
        namespace_blocks: 16,
        ..NvmeConfig::default()
    };
    let dev = NvmeDevice::new(rt.clock().clone(), config);
    let fs = Catfs::new(&rt, dev);
    let qd = fs.create("small").unwrap();
    let record = |i: u8| Sga::from_slice(&[i; 5_000]);
    // 16 blocks hold thirteen 5 010-byte records and not a fourteenth.
    for i in 0..13 {
        fs.blocking_push(qd, &record(i)).unwrap();
    }
    let log = log_state(&fs, "small");
    let state = |log: &RefCell<LogState>| {
        let s = log.borrow();
        (s.len, s.durable, s.blocks.len(), s.tail.clone())
    };
    let before = (state(&log), fs.stats());
    assert_eq!(
        fs.push(qd, &record(13)).unwrap_err(),
        DemiError::Storage("device full")
    );
    assert_eq!((state(&log), fs.stats()), before);
    // What still fits in the tail block still commits.
    fs.blocking_push(qd, &Sga::from_slice(&[13; 100])).unwrap();
    for i in 0..13 {
        let (_, sga) = fs.blocking_pop(qd).unwrap().expect_pop();
        assert_eq!(sga.to_vec(), [i; 5_000]);
    }
}

#[test]
fn a_full_queue_pair_fails_the_push_and_keeps_the_log() {
    let rt = Runtime::new();
    let config = NvmeConfig {
        qpair_depth: 2,
        ..NvmeConfig::default()
    };
    let dev = NvmeDevice::new(rt.clock().clone(), config);
    let fs = Catfs::new(&rt, dev.clone());
    let qd = fs.create("shallow").unwrap();
    let qts: Vec<QToken> = (0..2)
        .map(|i| fs.push(qd, &Sga::from_slice(&[i; 64])).unwrap())
        .collect();
    assert_eq!(
        fs.push(qd, &Sga::from_slice(&[2; 64])).unwrap_err(),
        DemiError::Storage("queue pair full")
    );
    assert_eq!(log_state(&fs, "shallow").borrow().len, 2 * 74);
    assert_eq!(
        dev.stats().queue_full_rejections,
        0,
        "refused before the device"
    );
    fs.wait_all(&qts, None).unwrap();
    fs.blocking_push(qd, &Sga::from_slice(&[2; 64])).unwrap();
    for i in 0..3 {
        let (_, sga) = fs.blocking_pop(qd).unwrap().expect_pop();
        assert_eq!(sga.to_vec(), [i; 64]);
    }
}

/// A read that finds the queue pair full fails its operation the way a
/// push does — a pop of a durable record, the host-path chase and
/// recovery alike — and the same reads succeed once the pushes land.
#[test]
fn a_full_queue_pair_fails_reads_and_keeps_the_log() {
    let rt = Runtime::new();
    let config = NvmeConfig {
        qpair_depth: 2,
        ..NvmeConfig::default()
    };
    let dev = NvmeDevice::new(rt.clock().clone(), config);
    let fs = Catfs::new(&rt, dev.clone());
    let qd = fs.create("busy").unwrap();
    fs.blocking_push(qd, &Sga::from_slice(&[7; 64])).unwrap();
    let qts: Vec<QToken> = (0..2)
        .map(|i| fs.push(qd, &Sga::from_slice(&[i; 64])).unwrap())
        .collect();
    let full = OperationResult::Failed(DemiError::Storage("queue pair full"));
    let reader = fs.open("busy").unwrap();
    assert_eq!(fs.blocking_pop(reader).unwrap(), full, "pop");
    let chain = spdk_sim::ChainSpec {
        start_lba: 0,
        pointer_offset: 0,
        sentinel: u64::MAX,
        max_hops: 1,
    };
    let qt = fs.chase_host(chain);
    assert_eq!(fs.wait(qt, None).unwrap(), full, "chase_host");
    assert_eq!(
        fs.recover("busy-again").unwrap_err(),
        DemiError::Storage("queue pair full"),
        "recover"
    );
    assert_eq!(log_state(&fs, "busy").borrow().len, 3 * 74);

    fs.wait_all(&qts, None).unwrap();
    let (_, sga) = fs.blocking_pop(reader).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), [7; 64], "the failed pop consumed nothing");
    let qt = fs.chase_host(chain);
    assert!(matches!(
        fs.wait(qt, None).unwrap(),
        OperationResult::Pop { .. }
    ));
}

// ---------------------------------------------------------------------
// The record checksum: the durable path's one integrity check.
// ---------------------------------------------------------------------

/// Flips bit `bit` of the log's byte `at` on the device, expects the pop
/// to fail its checksum without moving the cursor, restores the block and
/// expects the pop to succeed.
fn flip_is_caught(raw: &Raw, fs: &Catfs, at: usize, bit: u32, case: &str) {
    let (lba, off) = ((at / BLOCK_SIZE) as u64, at % BLOCK_SIZE);
    let original = raw.read(lba);
    let mut flipped = original.clone();
    flipped[off] ^= 1 << bit;
    raw.write(lba, &flipped);
    let qd = fs.open("sum").unwrap();
    let failures = fs.stats().checksum_failures;
    let failed = OperationResult::Failed(DemiError::Storage("record checksum"));
    assert_eq!(fs.blocking_pop(qd).unwrap(), failed, "{case}");
    assert_eq!(fs.stats().checksum_failures, failures + 1, "{case}");
    let cursor = |qd| fs.core.inner.borrow().queues.get(qd).unwrap().cursor;
    assert_eq!(cursor(qd), 0, "{case}: a failed pop consumes nothing");
    raw.write(lba, &original);
    let restored = fs.blocking_pop(qd).unwrap();
    assert!(matches!(restored, OperationResult::Pop { .. }), "{case}");
    fs.close(qd).unwrap();
}

#[test]
fn every_single_bit_flip_fails_the_record_checksum() {
    let mut rng = sim_fabric::SimRng::new(0xC47F5);
    let mut payload = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64() as u8).collect() };
    // A 64-byte record (54 payload bytes: six go through the byte-wise
    // tail): every bit of its stored sum and of its payload.
    let (rt, fs, dev) = setup();
    let raw = Raw::new(&dev, &rt);
    let qd = fs.create("sum").unwrap();
    fs.blocking_push(qd, &Sga::from_slice(&payload(54)))
        .unwrap();
    for at in 6..64 {
        for bit in 0..8 {
            flip_is_caught(&raw, &fs, at, bit, &format!("byte {at} bit {bit}"));
        }
    }
    // An 8 KiB payload across three blocks: 2 000 sampled flips.
    let (rt, fs, dev) = setup();
    let raw = Raw::new(&dev, &rt);
    let qd = fs.create("sum").unwrap();
    fs.blocking_push(qd, &Sga::from_slice(&payload(8192)))
        .unwrap();
    let seed = 0x5EED_F11B;
    let mut rng = sim_fabric::SimRng::new(seed);
    for case in 0..2_000 {
        let at = 6 + (rng.next_u64() % (8192 + 4)) as usize;
        let bit = (rng.next_u64() % 8) as u32;
        let case = format!("seed={seed:#x} case={case} byte {at} bit {bit}");
        flip_is_caught(&raw, &fs, at, bit, &case);
    }
}

/// The sum streams across SGA segments: however the payload is cut, the
/// device holds the same bytes.
#[test]
fn the_record_is_independent_of_sga_segmentation() {
    let mut rng = sim_fabric::SimRng::new(0x5E6);
    let payload: Vec<u8> = (0..8192).map(|_| rng.next_u64() as u8).collect();
    let blocks_for = |cuts: &[usize]| {
        let (rt, fs, dev) = setup();
        let raw = Raw::new(&dev, &rt);
        let qd = fs.create("cut").unwrap();
        let mut sga = Sga::new();
        let mut rest = &payload[..];
        for &cut in cuts {
            let (seg, tail) = rest.split_at(cut);
            sga.push_seg(demi_memory::DemiBuffer::from_slice(seg));
            rest = tail;
        }
        sga.push_seg(demi_memory::DemiBuffer::from_slice(rest));
        fs.blocking_push(qd, &sga).unwrap();
        let (_, got) = fs.blocking_pop(qd).unwrap().expect_pop();
        assert_eq!(got.to_vec(), payload);
        (0..3).map(|lba| raw.read(lba)).collect::<Vec<_>>()
    };
    let whole = blocks_for(&[]);
    assert_eq!(blocks_for(&[4_099]), whole, "two segments");
    // Sixteen cuts of odd, mostly non-word lengths, an empty one too.
    let cuts = [1, 2, 3, 4, 5, 6, 7, 0, 9, 511, 1_023, 13, 8, 2_049, 17, 31];
    assert_eq!(blocks_for(&cuts), whole, "seventeen segments");
}

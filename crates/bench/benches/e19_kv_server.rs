//! E19 — the KV server at scale: pipelined zero-copy RESP serving over
//! catnip TCP with group-committed durability.
//!
//! E18 proved the *connection layer* holds 100k established flows with a
//! flat fast path. This experiment stacks the Redis-class application on
//! top (demi-kv: RESP parse → LRU/TTL store → coalesced replies) and
//! checks the four application-level claims:
//!
//! * **pipelining pays**: a GET at depth 16 (16 commands per burst,
//!   replies coalesced into one TX pass) costs ≤ 1/4 the segments and
//!   1/16 the engine passes of a GET at depth 1 — asserted on the counts,
//!   which repeat on any host; best-of-trials wall-clock throughput and
//!   its ratio are printed, not asserted.
//! * **zero payload copies in the engine**: a warmed pipelined GET —
//!   parse over RX views, store lookup, reply sharing the value's buffer
//!   — moves zero payload bytes through `memcpy` inside the engine pass,
//!   measured by the datapath copy counters (asserted; parser reassembly
//!   fallbacks also asserted zero on the happy path). The one copy left
//!   on the path is TCP gathering the burst's 8-byte values and protocol
//!   bytes into one segment — cheaper than a frame each — and is reported.
//! * **flat under connections**: a GET over the same 64 hot connections
//!   costs the same segments and demux lookups, and no more allocations,
//!   as the table grows 1k → 100k established — asserted on the counts;
//!   the wall-clock p99 ratio is printed.
//! * **acknowledged = durable**: SET bursts group-commit as one catfs
//!   record each; after a crash that loses an *unpushed* batch, replay
//!   rebuilds exactly the acknowledged state — asserted key-for-key.
//!
//! An open-loop Poisson sweep (GET/SET mixes × depths 1 and 16, on
//! virtual time so coordinated omission cannot hide) produces the
//! throughput–latency curve written to `target/e19_kv_server.json`.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use demi_bench::Table;
use demi_kv::log::{apply, decode_batch};
use demi_kv::resp::encode_command;
use demi_kv::store::KvStore;
use demi_kv::{KvConn, KvEngine, KvEngineConfig};
use demi_memory::{counters as mem_counters, DemiBuffer, MemoryManager};
use demi_telemetry::hist::Histogram;
use demi_telemetry::loadgen::{poisson_schedule, Curve, CurvePoint};
use demikernel::libos::catfs::Catfs;
use demikernel::libos::LibOs;
use demikernel::runtime::Runtime;
use demikernel::testing::{AllocMeter, CountingAlloc};
use demikernel::types::Sga;
use net_stack::counters as nsc;
use net_stack::tcp::{ConnId, ListenerId, State, TcpConfig, TcpPeer, TcpSegmentOut};
use net_stack::types::SocketAddr;
use sim_fabric::SimTime;
use spdk_sim::nvme::{NvmeConfig, NvmeDevice};

/// Counts this thread's heap allocations inside an `AllocMeter` window,
/// so "zero payload copies" is reported alongside the allocator traffic
/// that remains (burst building, reply vectors) rather than conflated
/// with it.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Full scale: 100k server-side connections from 4 client peers. Debug
/// builds run a CI-sized version; `just bench-kv` runs release.
const CONNS: usize = if cfg!(debug_assertions) {
    2_000
} else {
    100_000
};
const SMALL_CONNS: usize = if cfg!(debug_assertions) { 200 } else { 1_000 };
const CLIENTS: usize = 4;
const SAMPLE: usize = 64;
const BACKLOG: usize = if cfg!(debug_assertions) { 64 } else { 256 };
/// Hot key set; every key/value pair is fixed-width so reply sizes are
/// exact and bursts stay inside one MSS (the zero-copy happy path).
const KEYS: usize = 64;
const DEPTH: usize = 16;
/// The paper's Redis figure: ~2µs of application work per request.
const SERVICE_NS: u64 = 2_000;
const PIPE_CMDS: usize = if cfg!(debug_assertions) { 512 } else { 4_096 };
const OPS_WARMUP: usize = 200;
const OPS_PER_TRIAL: usize = if cfg!(debug_assertions) { 200 } else { 1_000 };
const TRIALS: usize = 5;
const ZC_BURSTS: usize = if cfg!(debug_assertions) { 200 } else { 2_000 };
const POISSON_ARRIVALS: usize = if cfg!(debug_assertions) { 300 } else { 2_000 };

fn server_ip() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 2)
}

fn client_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 10 + i as u8)
}

fn key(i: usize) -> Vec<u8> {
    format!("k{:04}", i % KEYS).into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    format!("val-{:04}", i % KEYS).into_bytes()
}

/// GET reply: `$8\r\n` + 8 value bytes + `\r\n`.
const GET_REPLY: usize = 14;
/// SET reply: `+OK\r\n`.
const SET_REPLY: usize = 5;

/// A pipelined burst of `depth` GETs rotating over the hot keys.
/// Returns the RESP bytes and the exact reply size.
fn get_burst(depth: usize, cursor: &mut usize) -> (Vec<u8>, usize) {
    let mut b = Vec::with_capacity(depth * 24);
    for _ in 0..depth {
        encode_command(&mut b, &[b"GET", &key(*cursor)]);
        *cursor += 1;
    }
    (b, depth * GET_REPLY)
}

/// A mixed burst: every 4th command is a SET overwriting a hot key with
/// a same-width value (so GET reply sizes stay exact), the rest GETs.
fn mixed_burst(depth: usize, cursor: &mut usize) -> (Vec<u8>, usize) {
    let mut b = Vec::with_capacity(depth * 40);
    let mut expect = 0;
    for j in 0..depth {
        if j % 4 == 3 {
            encode_command(&mut b, &[b"SET", &key(*cursor), &value(*cursor)]);
            expect += SET_REPLY;
        } else {
            encode_command(&mut b, &[b"GET", &key(*cursor)]);
            expect += GET_REPLY;
        }
        *cursor += 1;
    }
    (b, expect)
}

/// One server peer running the KV engine, [`CLIENTS`] client peers, and
/// the segment scratch that shuttles wire traffic between them.
struct World {
    server: TcpPeer,
    lid: ListenerId,
    clients: Vec<TcpPeer>,
    scratch: Vec<(Ipv4Addr, TcpSegmentOut)>,
    accepted: HashMap<(Ipv4Addr, u16), ConnId>,
    engine: KvEngine,
    conns: HashMap<ConnId, KvConn>,
    now: SimTime,
    /// Segments any peer has put on the wire.
    segments: u64,
    /// Payload bytes copied inside engine drain passes.
    engine_bytes_copied: u64,
}

impl World {
    fn new() -> Self {
        let mut server = TcpPeer::new(server_ip(), TcpConfig::default());
        let lid = server.listen(6379, BACKLOG).unwrap();
        let now = SimTime::from_millis(1);
        World {
            server,
            lid,
            clients: (0..CLIENTS)
                .map(|i| TcpPeer::new(client_ip(i), TcpConfig::default()))
                .collect(),
            scratch: Vec::new(),
            accepted: HashMap::new(),
            // Network phases are non-durable: every reply is immediate,
            // so the wire path is measured without a storage device in
            // the loop (the durability claim gets its own phase).
            engine: KvEngine::new(
                KvEngineConfig {
                    byte_budget: 1 << 20,
                    durable: false,
                },
                MemoryManager::new(),
                now,
            ),
            conns: HashMap::new(),
            now,
            segments: 0,
            engine_bytes_copied: 0,
        }
    }

    /// Delivers all in-flight segments until the wire is quiet.
    fn shuttle(&mut self) {
        for _ in 0..64 {
            let mut quiet = true;
            let mut scratch = std::mem::take(&mut self.scratch);
            for i in 0..CLIENTS {
                self.clients[i].drain_segments(&mut scratch);
                self.segments += scratch.len() as u64;
                for (_, seg) in scratch.drain(..) {
                    quiet = false;
                    self.server
                        .on_segment(client_ip(i), &seg.header, seg.payload, self.now);
                }
            }
            self.server.drain_segments(&mut scratch);
            self.segments += scratch.len() as u64;
            for (dst, seg) in scratch.drain(..) {
                quiet = false;
                if let Some(i) = (0..CLIENTS).find(|&i| client_ip(i) == dst) {
                    self.clients[i].on_segment(server_ip(), &seg.header, seg.payload, self.now);
                }
            }
            self.scratch = scratch;
            if quiet {
                return;
            }
        }
        panic!("wire did not go quiet");
    }

    /// Advances virtual time to `target`, firing every timer deadline
    /// (delayed ACKs, compaction) and delivering whatever they emit.
    fn advance_to(&mut self, target: SimTime) {
        loop {
            let next = std::iter::once(self.server.next_deadline())
                .chain(self.clients.iter_mut().map(|c| c.next_deadline()))
                .flatten()
                .min();
            match next {
                Some(t) if t <= target => {
                    self.now = t;
                    self.server.on_tick(t);
                    for c in &mut self.clients {
                        c.on_tick(t);
                    }
                    self.shuttle();
                }
                _ => break,
            }
        }
        self.now = target;
    }

    fn advance_by(&mut self, dt: SimTime) {
        self.advance_to(self.now.saturating_add(dt));
    }

    /// Opens `total` connections split across the client peers in waves
    /// no larger than half the SYN table (see E18).
    fn establish(&mut self, total: usize) -> Vec<(usize, ConnId)> {
        let mut conns = Vec::with_capacity(total);
        let wave = BACKLOG / 2;
        let mut done = 0;
        while done < total {
            let n = wave.min(total - done);
            let start = conns.len();
            for k in 0..n {
                let i = (done + k) % CLIENTS;
                let c = self.clients[i]
                    .connect(SocketAddr::new(server_ip(), 6379), self.now)
                    .unwrap();
                conns.push((i, c));
            }
            self.shuttle();
            self.drain_accepts();
            for &(i, c) in &conns[start..] {
                assert_eq!(
                    self.clients[i].state(c),
                    Ok(State::Established),
                    "handshake wave at {start} must complete"
                );
            }
            done += n;
        }
        conns
    }

    fn drain_accepts(&mut self) {
        while let Ok(Some(s)) = self.server.accept(self.lid) {
            let r = self.server.remote(s).unwrap();
            self.accepted.insert((r.ip, r.port), s);
        }
    }

    /// Pairs every client conn with its accepted server conn and gives
    /// each server conn a RESP parser.
    fn pair(&mut self, conns: &[(usize, ConnId)]) -> Vec<ConnId> {
        conns
            .iter()
            .map(|&(i, c)| {
                let l = self.clients[i].local(c).unwrap();
                let s = self.accepted[&(client_ip(i), l.port)];
                self.conns.entry(s).or_default();
                s
            })
            .collect()
    }

    /// One pipelined KV round trip: the client sends a `depth`-command
    /// burst as one TX, the server drains the WHOLE burst in one engine
    /// pass and coalesces the replies into one TX burst, the client
    /// drains the exact reply bytes. Virtual time then advances by the
    /// burst's application work (`depth · 2µs`, the paper's Redis
    /// figure), firing delayed-ACK timers along the way.
    fn kv_op(&mut self, i: usize, c: ConnId, s: ConnId, burst: Vec<u8>, expect: usize) {
        let depth = {
            // Vec → DemiBuffer takes ownership: building the request
            // costs no datapath copy.
            self.clients[i]
                .send(c, DemiBuffer::from(burst), self.now)
                .unwrap();
            self.shuttle();
            while let Ok(Some(chunk)) = self.server.recv(s) {
                self.conns.get_mut(&s).unwrap().feed(chunk);
            }
            let conn = self.conns.get_mut(&s).unwrap();
            let before = mem_counters::snapshot();
            let r = self.engine.drain(conn, self.now);
            self.engine_bytes_copied += mem_counters::snapshot().delta(&before).bytes_copied;
            assert!(r.batch.is_none(), "non-durable phases never group-commit");
            assert!(!r.disconnect, "benchmark traffic is protocol-clean");
            // The reply burst is one push, as the serving loop makes it.
            self.server.send_all(s, r.immediate, self.now).unwrap();
            r.depth
        };
        self.advance_by(SimTime::from_nanos(depth as u64 * SERVICE_NS));
        self.shuttle();
        let mut got = 0;
        while let Ok(Some(chunk)) = self.clients[i].recv(c) {
            got += chunk.len();
        }
        assert_eq!(got, expect, "reply burst must be exact");
    }
}

/// What a measured window cost in countable work. The scale claims are
/// asserted on these — they repeat exactly on any host — and the wall
/// clock is printed beside them.
#[derive(Debug, Clone, Copy)]
struct Work {
    /// Segments put on the wire.
    segments: u64,
    /// Demux table lookups.
    demux_lookups: u64,
    /// Engine drain passes that executed a command.
    drains: u64,
    /// Heap allocations.
    allocs: u64,
}

/// Runs `trials` windows of GET bursts at `depth` over the sample
/// connections after a warm-up, calling `window` around each (it returns
/// that window's wall-clock figure), and returns the figures with the
/// work all windows cost.
fn measure(
    world: &mut World,
    sample: &[(usize, ConnId, ConnId)],
    depth: usize,
    warmup: usize,
    mut window: impl FnMut(&mut dyn FnMut()) -> f64,
) -> (Vec<f64>, Work) {
    let mut cursor = 0usize;
    let mut k = 0usize;
    let mut op = |world: &mut World| {
        let (i, c, s) = sample[k % sample.len()];
        k += 1;
        let (b, e) = get_burst(depth, &mut cursor);
        world.kv_op(i, c, s, b, e);
    };
    for _ in 0..warmup {
        op(world);
    }
    let (segments, conn, drains) = (
        world.segments,
        nsc::conn_snapshot(),
        world.engine.stats().bursts,
    );
    let mut allocs = 0;
    let figures = (0..TRIALS)
        .map(|_| {
            let meter = AllocMeter::arm();
            let figure = window(&mut || op(world));
            allocs += meter.count();
            figure
        })
        .collect();
    let work = Work {
        segments: world.segments - segments,
        demux_lookups: nsc::conn_snapshot().delta(&conn).demux_lookups,
        drains: world.engine.stats().bursts - drains,
        allocs,
    };
    (figures, work)
}

/// Best GET throughput (commands per wall-clock second) over several
/// trials of [`PIPE_CMDS`] commands at a pipeline depth, and their work.
fn measure_throughput(
    world: &mut World,
    sample: &[(usize, ConnId, ConnId)],
    depth: usize,
) -> (f64, Work) {
    let (rates, work) = measure(world, sample, depth, 32, |op| {
        let t0 = Instant::now();
        for _ in 0..PIPE_CMDS / depth {
            op();
        }
        PIPE_CMDS as f64 / t0.elapsed().as_secs_f64()
    });
    (rates.into_iter().fold(0.0, f64::max), work)
}

/// Best p99 over several trials of depth-1 GET round trips on the sample
/// connections (minimum across trials rejects host scheduler noise), and
/// their work.
fn measure_p99(world: &mut World, sample: &[(usize, ConnId, ConnId)]) -> (u64, Work) {
    let (p99s, work) = measure(world, sample, 1, OPS_WARMUP, |op| {
        let mut hist = Histogram::new();
        for _ in 0..OPS_PER_TRIAL {
            let t0 = Instant::now();
            op();
            hist.record(t0.elapsed().as_nanos() as u64);
        }
        hist.p99() as f64
    });
    (p99s.into_iter().fold(f64::MAX, f64::min) as u64, work)
}

/// One open-loop Poisson point on virtual time: bursts of `depth`
/// commands (3:1 GET:SET at depth ≥ 4) arrive at `util` of the service
/// capacity; sojourn is measured from the *scheduled* arrival so
/// queueing delay counts against the laggard (no coordinated omission).
fn poisson_point(
    world: &mut World,
    sample: &[(usize, ConnId, ConnId)],
    util: f64,
    depth: usize,
    seed: u64,
) -> CurvePoint {
    let burst_rate = util * 1e9 / (depth as f64 * SERVICE_NS as f64);
    let sched = poisson_schedule(seed, world.now.as_nanos(), burst_rate, POISSON_ARRIVALS);
    let start = world.now;
    let mut hist = Histogram::new();
    let mut cursor = 0usize;
    for (k, &arr) in sched.iter().enumerate() {
        if arr > world.now.as_nanos() {
            world.advance_to(SimTime::from_nanos(arr));
        }
        let (i, c, s) = sample[k % sample.len()];
        let (b, e) = mixed_burst(depth, &mut cursor);
        world.kv_op(i, c, s, b, e);
        hist.record(world.now.as_nanos() - arr);
    }
    let elapsed = world.now.as_nanos() - start.as_nanos();
    let mut point = CurvePoint::from_histogram(burst_rate * depth as f64, elapsed, &hist);
    // The histogram counts bursts; offered and achieved are both in
    // commands per second.
    point.achieved_ops_per_sec *= depth as f64;
    point.at_scale(world.server.conn_count() as u64, depth as u64)
}

/// The durability phase: SET bursts group-commit one catfs record each;
/// the final batch is deliberately "lost" (crash before the storage
/// push, so its replies were never released). Replay on a fresh catfs
/// instance must rebuild exactly the acknowledged state. Returns
/// (records replayed, keys recovered).
fn crash_replay() -> (usize, usize) {
    let rt = Runtime::new();
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    let fs = Catfs::new(&rt, device.clone());
    let qd = fs.create("e19.aof").expect("create log");
    let mut engine = KvEngine::new(
        KvEngineConfig {
            byte_budget: 1 << 20,
            durable: true,
        },
        MemoryManager::new(),
        rt.now(),
    );
    let mut conn = KvConn::new();
    let mut acked: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    let mut pushed = 0usize;
    let rounds = 8usize;
    for round in 0..rounds {
        let crash_round = round + 1 == rounds;
        let mut burst = Vec::new();
        let mut staged: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for j in 0..4 {
            let (k, v) = if crash_round {
                (format!("lost{j}").into_bytes(), b"never-acked".to_vec())
            } else {
                (key(round * 4 + j), format!("rv{round}-{j}").into_bytes())
            };
            encode_command(&mut burst, &[b"SET", &k, &v]);
            staged.push((k, v));
        }
        conn.feed(DemiBuffer::from(burst));
        let r = engine.drain(&mut conn, rt.now());
        let batch = r.batch.expect("a SET burst group-commits");
        assert!(
            r.immediate.is_empty(),
            "no SET may be acknowledged ahead of its log record"
        );
        assert!(!r.deferred.is_empty(), "acks ride behind the record");
        if crash_round {
            // Crash before the push: the record never reaches the
            // device and the deferred replies are never released.
            continue;
        }
        let record = Sga::from_bufs(vec![DemiBuffer::from(batch)]);
        fs.blocking_push(qd, &record).expect("group commit");
        pushed += 1;
        // Only now are the deferred replies releasable = acknowledged.
        for (k, v) in staged {
            acked.insert(k, v);
        }
    }

    // Crash: a fresh catfs instance scans the same device and replays.
    let rt2 = Runtime::with_clock(rt.clock().clone());
    let fs2 = Catfs::new(&rt2, device);
    let rqd = fs2.recover("e19.aof").expect("recover");
    let mut store = KvStore::new(1 << 20, rt2.now());
    for _ in 0..pushed {
        let (_, sga) = fs2.blocking_pop(rqd).expect("pop record").expect_pop();
        for entry in decode_batch(&sga.to_vec()).expect("valid record") {
            apply(&mut store, &entry, rt2.now());
        }
    }
    let mut dump = store.dump(rt2.now());
    dump.sort();
    let mut want: Vec<(Vec<u8>, Vec<u8>)> = acked.into_iter().collect();
    want.sort();
    assert_eq!(
        dump, want,
        "replay must rebuild exactly the acknowledged state"
    );
    assert!(
        dump.iter().all(|(k, _)| !k.starts_with(b"lost")),
        "the unpushed batch was never acknowledged and must not replay"
    );
    (pushed, dump.len())
}

fn experiment() {
    let mut table = Table::new(
        "E19: KV server at scale (pipelined zero-copy RESP, group-committed durability)",
        &["phase", "scale", "value", "bound"],
    );
    let mut world = World::new();

    // -- Setup: baseline connections, hot-key preload over the wire. ---
    let small = world.establish(SMALL_CONNS);
    let small_srv = world.pair(&small);
    let sample: Vec<(usize, ConnId, ConnId)> = (0..SAMPLE)
        .map(|k| {
            let (i, c) = small[k % small.len()];
            (i, c, small_srv[k % small.len()])
        })
        .collect();
    // Preload through TCP so stored values are zero-copy sub-views of
    // the RX buffers that carried them (the end-to-end claim).
    {
        let (i, c, s) = sample[0];
        for wave in 0..(KEYS / DEPTH) {
            let mut b = Vec::new();
            for j in 0..DEPTH {
                let idx = wave * DEPTH + j;
                encode_command(&mut b, &[b"SET", &key(idx), &value(idx)]);
            }
            world.kv_op(i, c, s, b, DEPTH * SET_REPLY);
        }
    }

    // -- Phase 1: pipelining pays — depth 16 vs depth 1 throughput. ----
    let (thr1, work1) = measure_throughput(&mut world, &sample, 1);
    let (thr16, work16) = measure_throughput(&mut world, &sample, DEPTH);
    let speedup = thr16 / thr1;
    // Both phases serve TRIALS * PIPE_CMDS commands.
    assert!(
        4 * work16.segments <= work1.segments && DEPTH as u64 * work16.drains == work1.drains,
        "depth-{DEPTH} pipelining must cost <= 1/4 the segments and 1/{DEPTH} the engine passes \
         per command of depth 1: {work1:?} -> {work16:?}"
    );
    table.row(&[
        "GET ops/s depth 1".into(),
        format!("{SMALL_CONNS}"),
        format!("{thr1:.0}"),
        "-".into(),
    ]);
    table.row(&[
        format!("GET ops/s depth {DEPTH}"),
        format!("{SMALL_CONNS}"),
        format!("{thr16:.0} ({speedup:.1}x wall, reported)"),
        format!(
            "{:.1}x fewer segments (>=4x)",
            work1.segments as f64 / work16.segments as f64
        ),
    ]);

    // -- Phase 2: zero payload copies on the warmed pipelined GET. -----
    // Commands build into owned Vecs (no datapath copy), parse as pure
    // sub-views of single RX segments, values reply as shared handles:
    // the only bytes that may move are pooled protocol headers, which
    // the copy counters exclude by design.
    let reasm_before: u64 = sample
        .iter()
        .map(|&(_, _, s)| world.conns[&s].parser_stats().reassembled_args)
        .sum();
    let (mem_before, engine_before) = (mem_counters::snapshot(), world.engine_bytes_copied);
    let meter = AllocMeter::arm();
    let mut cursor = 0usize;
    for op in 0..ZC_BURSTS {
        let (i, c, s) = sample[op % sample.len()];
        let (b, e) = get_burst(DEPTH, &mut cursor);
        world.kv_op(i, c, s, b, e);
    }
    let allocs = meter.count();
    drop(meter);
    let mem_delta = mem_counters::snapshot().delta(&mem_before);
    let engine_copied = world.engine_bytes_copied - engine_before;
    let reasm_after: u64 = sample
        .iter()
        .map(|&(_, _, s)| world.conns[&s].parser_stats().reassembled_args)
        .sum();
    assert_eq!(
        engine_copied, 0,
        "a warmed pipelined GET must move zero payload bytes through the engine"
    );
    assert_eq!(
        mem_delta.copies, ZC_BURSTS as u64,
        "the path's one copy per burst is the reply gathered into its segment"
    );
    assert_eq!(
        reasm_after - reasm_before,
        0,
        "single-segment bursts never take the parser's reassembly fallback"
    );
    table.row(&[
        "payload bytes copied in engine".into(),
        format!("{ZC_BURSTS} GET bursts"),
        format!("{engine_copied}"),
        "=0".into(),
    ]);
    table.row(&[
        "bytes gathered / GET burst".into(),
        format!("{ZC_BURSTS} GET bursts"),
        format!("{}", mem_delta.bytes_copied / ZC_BURSTS as u64),
        "1 copy/burst".into(),
    ]);
    table.row(&[
        "allocs / GET burst".into(),
        format!("{ZC_BURSTS} GET bursts"),
        format!("{:.1}", allocs as f64 / ZC_BURSTS as f64),
        "reported".into(),
    ]);

    // -- Phase 3: p99 flatness as the connection table grows. ----------
    let (p99_small, work_small) = measure_p99(&mut world, &sample);
    let big = world.establish(CONNS - SMALL_CONNS);
    let _big_srv = world.pair(&big);
    // Park past the compact delay so idle connections cost slab-only.
    world.advance_by(SimTime::from_millis(20));
    let (p99_big, work_big) = measure_p99(&mut world, &sample);
    assert_eq!(
        (work_big.segments, work_big.demux_lookups, work_big.drains),
        (
            work_small.segments,
            work_small.demux_lookups,
            work_small.drains
        ),
        "a GET must cost the same work at {SMALL_CONNS} and {CONNS} conns"
    );
    assert!(
        work_big.allocs <= work_small.allocs,
        "a bigger table must not make a GET allocate more: {work_small:?} -> {work_big:?}"
    );
    table.row(&[
        "GET p99 (baseline)".into(),
        format!("{SMALL_CONNS}"),
        format!("{p99_small}ns"),
        "-".into(),
    ]);
    table.row(&[
        "GET p99 (full scale)".into(),
        format!("{CONNS}"),
        format!("{p99_big}ns"),
        format!("{:.2}x wall (reported)", p99_big as f64 / p99_small as f64),
    ]);
    let ops = (TRIALS * OPS_PER_TRIAL) as f64;
    table.row(&[
        "segments / lookups / allocs per GET".into(),
        format!("{CONNS}"),
        format!(
            "{:.2} / {:.2} / {:.2}",
            work_big.segments as f64 / ops,
            work_big.demux_lookups as f64 / ops,
            work_big.allocs as f64 / ops
        ),
        format!("= at {SMALL_CONNS} conns"),
    ]);

    // -- Phase 4: open-loop Poisson curve at full scale. ---------------
    let mut curve = Curve::new("demi-kv RESP over catnip, open loop, GET/SET 3:1");
    let mut seed = 19_001u64;
    for &depth in &[1usize, DEPTH] {
        for &util in &[0.5f64, 0.8, 0.95] {
            let point = poisson_point(&mut world, &sample, util, depth, seed);
            seed += 1;
            table.row(&[
                format!("poisson p99, depth {depth}"),
                format!("{:.0}% util", util * 100.0),
                format!("{}ns", point.p99_ns),
                format!("{:.0} ops/s", point.achieved_ops_per_sec),
            ]);
            curve.push(point);
        }
    }

    // -- Phase 5: crash-replay — acknowledged SETs survive. ------------
    let (replayed, recovered) = crash_replay();
    table.row(&[
        "crash-replay keys".into(),
        format!("{replayed} records"),
        format!("{recovered}"),
        "acked state only".into(),
    ]);

    let stats = world.engine.stats();
    let replies = world.engine.reply_stats();
    table.print();

    let json = format!(
        "{{\n  \"experiment\": \"e19_kv_server\",\n  \"conns\": {CONNS},\n  \
         \"pipeline_depth\": {DEPTH},\n  \
         \"throughput_depth1_ops_per_sec\": {thr1:.1},\n  \
         \"throughput_depth{DEPTH}_ops_per_sec\": {thr16:.1},\n  \
         \"pipeline_speedup\": {speedup:.2},\n  \
         \"warmed_get_engine_bytes_copied\": {engine_copied},\n  \
         \"warmed_get_bytes_gathered\": {},\n  \
         \"allocs_per_get_burst\": {:.2},\n  \
         \"p99_ns_small\": {p99_small},\n  \"p99_ns_full\": {p99_big},\n  \
         \"commands\": {},\n  \"bursts\": {},\n  \"max_burst\": {},\n  \
         \"prepend_hits\": {},\n  \"prepend_fallbacks\": {},\n  \
         \"replayed_records\": {replayed},\n  \"recovered_keys\": {recovered},\n  \
         \"curve\": {}\n}}\n",
        mem_delta.bytes_copied,
        allocs as f64 / ZC_BURSTS as f64,
        stats.commands,
        stats.bursts,
        stats.max_burst,
        replies.prepend_hits,
        replies.prepend_fallbacks,
        curve.to_json()
    );
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/e19_kv_server.json", &json).expect("write artifact");
    println!(
        "paper check: pipelining {speedup:.1}x at depth {DEPTH}; {engine_copied} payload bytes \
         copied in the engine ({} gathered into segments) over \
         {ZC_BURSTS} warmed GET bursts; p99 {p99_small}ns -> {p99_big}ns ({SMALL_CONNS} -> \
         {CONNS} conns); {recovered} keys replayed from {replayed} group commits\n\
         artifact: target/e19_kv_server.json ({} bytes)\n",
        mem_delta.bytes_copied,
        json.len()
    );
}

fn bench(c: &mut Criterion) {
    experiment();
    let mut group = c.benchmark_group("e19_kv_server");
    group.sample_size(10);
    group.bench_function("get_burst_depth16", |b| {
        let mut world = World::new();
        let conns = world.establish(SMALL_CONNS.min(128));
        let srv = world.pair(&conns);
        let (i0, c0) = conns[0];
        let s0 = srv[0];
        let mut cursor = 0usize;
        for idx in 0..KEYS {
            let mut burst = Vec::new();
            encode_command(&mut burst, &[b"SET", &key(idx), &value(idx)]);
            world.kv_op(i0, c0, s0, burst, SET_REPLY);
        }
        let mut k = 0usize;
        b.iter(|| {
            let (i, c) = conns[k % conns.len()];
            let s = srv[k % srv.len()];
            k += 1;
            let (burst, expect) = get_burst(DEPTH, &mut cursor);
            world.kv_op(criterion::black_box(i), c, s, burst, expect)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! E18 — connection scale: the fast path must not care how many
//! connections exist.
//!
//! The paper's datacenter story (§3) assumes a server holding tens of
//! thousands of mostly-idle connections while a handful are hot. This
//! experiment drives the TCP peer directly — no device, no fabric — so
//! every nanosecond measured is protocol work, and checks the four
//! connection-scale claims of the slab/demux/TIME_WAIT/SYN-table design:
//!
//! * **bounded idle footprint**: 100k established connections parked past
//!   the compact delay cost ≤ 2 KiB each (slab slot + demux entry, zero
//!   queue-box heap) — asserted from [`TcpMemStats`].
//! * **flat-cost demux**: an echo op over the same 64 connections costs
//!   the same segments, demux lookups and allocations as the table grows
//!   100 → 100k established — asserted on the counts, which repeat on any
//!   host; the wall-clock p99 ratio is printed, not asserted.
//! * **zero steady-state allocations**: a warmed echo op — send, demux,
//!   receive, echo back, delayed-ACK ticks — performs *zero* heap
//!   allocations, measured by a counting global allocator (asserted).
//! * **SYN-flood isolation**: a 10× flood (ten forged SYNs per echo op)
//!   adds one lookup and one SYN-ACK per forged SYN and nothing to the
//!   established flows' own work (wall-clock p99 printed), evicts
//!   oldest-first from a
//!   fixed table (`syn_table_bytes` constant, no control blocks), and a
//!   churn epilogue shows TIME_WAIT records expiring at 2·MSL with slab
//!   slots and ephemeral ports recycled (asserted).
//!
//! Results are written to `target/e18_conn_scale.json` as a plottable
//! artifact.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use demi_bench::Table;
use demi_memory::DemiBuffer;
use demi_telemetry::hist::Histogram;
use demikernel::testing::{AllocMeter, CountingAlloc};
use net_stack::counters as nsc;
use net_stack::tcp::header::{TcpFlags, TcpHeader};
use net_stack::tcp::{ConnId, ListenerId, SeqNum, State, TcpConfig, TcpPeer, TcpSegmentOut};
use net_stack::types::SocketAddr;
use sim_fabric::SimTime;

/// Counts this thread's heap allocations inside an `AllocMeter` window,
/// so the zero-alloc claim is measured, not assumed.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Full scale: 100k server-side connections from 4 client peers (each
/// client owns its own ephemeral range). Debug builds run a CI-sized
/// version; `just bench-connscale` runs release.
const CONNS: usize = if cfg!(debug_assertions) {
    2_000
} else {
    100_000
};
const SMALL_CONNS: usize = 100;
const CLIENTS: usize = 4;
const SAMPLE: usize = 64;
const BACKLOG: usize = if cfg!(debug_assertions) { 64 } else { 256 };
const OPS_WARMUP: usize = 200;
const OPS_PER_TRIAL: usize = if cfg!(debug_assertions) { 200 } else { 1_000 };
const TRIALS: usize = 5;
const ZERO_ALLOC_OPS: usize = if cfg!(debug_assertions) {
    1_000
} else {
    10_000
};
const FLOOD_FACTOR: usize = 10;
const CHURN: usize = if cfg!(debug_assertions) { 100 } else { 1_000 };
/// A 4 KiB message spans three MSS-sized segments, so every echo op puts
/// consecutive same-flow segments on the wire — the last-flow demux
/// cache's target pattern (single-segment ops rotating across flows would
/// never hit it).
const PAYLOAD: usize = 4_096;

fn server_ip() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 2)
}

fn client_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 10 + i as u8)
}

/// One server peer, [`CLIENTS`] client peers, and the reusable segment
/// scratch that shuttles wire traffic between them.
struct World {
    server: TcpPeer,
    lid: ListenerId,
    clients: Vec<TcpPeer>,
    scratch: Vec<(Ipv4Addr, TcpSegmentOut)>,
    /// Accepted server conns keyed by the client end of the 4-tuple; a
    /// recycled port overwrites its predecessor's (dead) entry.
    accepted: HashMap<(Ipv4Addr, u16), ConnId>,
    now: SimTime,
    /// Segments any peer has put on the wire.
    segments: u64,
}

impl World {
    fn new() -> Self {
        let mut server = TcpPeer::new(server_ip(), TcpConfig::default());
        let lid = server.listen(80, BACKLOG).unwrap();
        World {
            server,
            lid,
            clients: (0..CLIENTS)
                .map(|i| TcpPeer::new(client_ip(i), TcpConfig::default()))
                .collect(),
            scratch: Vec::new(),
            accepted: HashMap::new(),
            now: SimTime::from_millis(1),
            segments: 0,
        }
    }

    /// Delivers all in-flight segments until the wire is quiet. Segments
    /// addressed to hosts that are neither the server nor a client (the
    /// forged flood sources) fall on the floor.
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

    /// Advances virtual time to `target`, firing every timer deadline on
    /// the way (delayed ACKs, compaction, TIME_WAIT expiry) and delivering
    /// whatever the firings emit.
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

    /// Opens `total` connections split evenly across the client peers and
    /// runs the handshakes to completion. Connects go out in waves no
    /// larger than half the SYN table: the table is fixed-size and the
    /// accept queue refuses completions past the backlog, so an unbounded
    /// burst would evict its own half-open entries. Returns the new
    /// client-side handles as `(client index, conn)`.
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
                    .connect(SocketAddr::new(server_ip(), 80), self.now)
                    .unwrap();
                conns.push((i, c));
            }
            self.shuttle();
            self.drain_accepts();
            for &(i, c) in &conns[start..] {
                assert_eq!(
                    self.clients[i].state(c),
                    Ok(State::Established),
                    "handshake {start} wave must complete"
                );
            }
            done += n;
        }
        conns
    }

    /// Drains the listener into the 4-tuple-keyed accept map.
    fn drain_accepts(&mut self) {
        while let Ok(Some(s)) = self.server.accept(self.lid) {
            let r = self.server.remote(s).unwrap();
            self.accepted.insert((r.ip, r.port), s);
        }
    }

    /// Pairs every client conn with the accepted server conn holding the
    /// mirrored 4-tuple.
    fn pair(&mut self, conns: &[(usize, ConnId)]) -> Vec<ConnId> {
        conns
            .iter()
            .map(|&(i, c)| {
                let l = self.clients[i].local(c).unwrap();
                self.accepted[&(client_ip(i), l.port)]
            })
            .collect()
    }

    /// One synchronous echo: client sends `payload`, server receives and
    /// echoes it byte-for-byte, client drains the echo; then time advances
    /// 10 µs. Delayed-ACK timers (50 µs) fire a few ops later, well before
    /// any RTO; the step is small enough that rotating over the sample
    /// set re-touches every connection inside the compact delay, so the
    /// steady state never thrashes queue boxes.
    fn echo_op(&mut self, i: usize, c: ConnId, s: ConnId, payload: &DemiBuffer) {
        self.clients[i].send(c, payload.clone(), self.now).unwrap();
        self.shuttle();
        let mut echoed = 0;
        while let Ok(Some(chunk)) = self.server.recv(s) {
            echoed += chunk.len();
            self.server.send(s, chunk, self.now).unwrap();
        }
        assert_eq!(echoed, payload.len());
        self.shuttle();
        let mut got = 0;
        while let Ok(Some(chunk)) = self.clients[i].recv(c) {
            got += chunk.len();
        }
        assert_eq!(got, payload.len());
        self.advance_by(SimTime::from_micros(10));
    }

    /// Injects one forged SYN (unique source each call) at the listener.
    fn forged_syn(&mut self, k: u32) {
        let syn = TcpHeader {
            src_port: 1_024 + (k % 60_000) as u16,
            dst_port: 80,
            seq: SeqNum(k.wrapping_mul(2_654_435_761)),
            ack: SeqNum(0),
            flags: TcpFlags::SYN,
            window: 65_535,
            mss: Some(1_460),
        };
        let src = Ipv4Addr::new(10, 0, 1, (k % 250) as u8);
        self.server
            .on_segment(src, &syn, DemiBuffer::empty(), self.now);
    }
}

/// What a measured window cost in countable work. The scale claims are
/// asserted on these — they repeat exactly on any host — and the
/// wall-clock p99 is printed beside them.
#[derive(Debug, Clone, Copy)]
struct Work {
    /// Segments put on the wire.
    segments: u64,
    /// Demux table lookups.
    demux_lookups: u64,
    /// Heap allocations.
    allocs: u64,
}

/// Echo RTTs on the sample connections: the best p99 over several trials
/// (the minimum rejects scheduler noise) and the work all trials cost.
fn measure(
    world: &mut World,
    sample: &[(usize, ConnId, ConnId)],
    payload: &DemiBuffer,
    flood: bool,
) -> (u64, Work) {
    let mut flood_k = 0u32;
    for op in 0..OPS_WARMUP {
        let (i, c, s) = sample[op % sample.len()];
        world.echo_op(i, c, s, payload);
    }
    let (segments_before, conn_before) = (world.segments, nsc::conn_snapshot());
    let mut allocs = 0;
    let mut best = u64::MAX;
    for _ in 0..TRIALS {
        let mut hist = Histogram::new();
        let meter = AllocMeter::arm();
        for op in 0..OPS_PER_TRIAL {
            let (i, c, s) = sample[op % sample.len()];
            if flood {
                for _ in 0..FLOOD_FACTOR {
                    world.forged_syn(flood_k);
                    flood_k = flood_k.wrapping_add(1);
                }
            }
            let t0 = Instant::now();
            world.echo_op(i, c, s, payload);
            hist.record(t0.elapsed().as_nanos() as u64);
        }
        allocs += meter.count();
        drop(meter);
        best = best.min(hist.p99());
    }
    let work = Work {
        segments: world.segments - segments_before,
        demux_lookups: nsc::conn_snapshot().delta(&conn_before).demux_lookups,
        allocs,
    };
    (best, work)
}

fn experiment() {
    let mut table = Table::new(
        "E18: connection-scale fast path (slab TCBs, flat demux, compact TIME_WAIT, bounded accept)",
        &["phase", "conns", "value", "bound"],
    );
    let mut world = World::new();
    let payload = DemiBuffer::from_slice(&[0x5au8; PAYLOAD]);

    // -- Phase 1: flatness baseline at 100 connections. ----------------
    let small = world.establish(SMALL_CONNS);
    let small_srv = world.pair(&small);
    let sample: Vec<(usize, ConnId, ConnId)> = (0..SAMPLE)
        .map(|k| {
            let (i, c) = small[k % small.len()];
            (i, c, small_srv[k % small.len()])
        })
        .collect();
    let (p99_small, work_small) = measure(&mut world, &sample, &payload, false);
    table.row(&[
        "echo p99 (baseline)".into(),
        format!("{SMALL_CONNS}"),
        format!("{p99_small}ns"),
        "-".into(),
    ]);

    // -- Phase 2: grow to full scale, park, and check the footprint. ---
    let big = world.establish(CONNS - SMALL_CONNS);
    let _big_srv = world.pair(&big);
    // Park everyone past the compact delay: drained queue boxes return to
    // the allocator and idle connections fall back to their slab slots.
    world.advance_by(SimTime::from_millis(20));
    let mem = world.server.mem_stats();
    assert_eq!(mem.live_conns, CONNS);
    let per_conn = (mem.slab_bytes + mem.cb_heap_bytes + mem.demux_bytes) / mem.live_conns;
    assert!(
        per_conn <= 2_048,
        "idle established connection must cost <= 2 KiB, got {per_conn} \
         (slab={} cb_heap={} demux={})",
        mem.slab_bytes,
        mem.cb_heap_bytes,
        mem.demux_bytes
    );
    assert_eq!(
        mem.cb_heap_bytes, 0,
        "parked connections must hold no queue-box heap"
    );
    table.row(&[
        "idle bytes/conn".into(),
        format!("{CONNS}"),
        format!("{per_conn}B"),
        "<=2048B".into(),
    ]);

    // -- Phase 3: flatness at full scale, same 64 connections. ---------
    let (p99_big, work_big) = measure(&mut world, &sample, &payload, false);
    assert_eq!(
        (work_big.segments, work_big.demux_lookups),
        (work_small.segments, work_small.demux_lookups),
        "an echo op must cost the same work at {SMALL_CONNS} and {CONNS} conns"
    );
    assert!(
        work_big.allocs <= work_small.allocs,
        "a bigger table must not make the echo path allocate: {work_small:?} -> {work_big:?}"
    );
    table.row(&[
        "echo p99 (full scale)".into(),
        format!("{CONNS}"),
        format!("{p99_big}ns"),
        format!("{:.2}x wall (reported)", p99_big as f64 / p99_small as f64),
    ]);
    let ops = (TRIALS * OPS_PER_TRIAL) as f64;
    table.row(&[
        "segments / lookups / allocs per op".into(),
        format!("{CONNS}"),
        format!(
            "{:.2} / {:.2} / {:.2}",
            work_big.segments as f64 / ops,
            work_big.demux_lookups as f64 / ops,
            work_big.allocs as f64 / ops
        ),
        format!("= at {SMALL_CONNS} conns"),
    ]);

    // -- Phase 4: zero allocations on the warmed echo path. ------------
    // The sample connections are warm: queue boxes exist, scratch and
    // wheel slots are at capacity, payload handles are cloned not copied.
    let conn_before = nsc::conn_snapshot();
    let meter = AllocMeter::arm();
    for op in 0..ZERO_ALLOC_OPS {
        let (i, c, s) = sample[op % sample.len()];
        world.echo_op(i, c, s, &payload);
    }
    let allocs = meter.count();
    drop(meter);
    let conn_delta = nsc::conn_snapshot().delta(&conn_before);
    assert_eq!(
        allocs, 0,
        "steady-state echo (send, demux, recv, echo, ACK ticks) must not allocate"
    );
    assert_eq!(
        conn_delta.tcb_queue_allocs, 0,
        "no queue boxes in steady state"
    );
    assert_eq!(
        conn_delta.outbox_scratch_grows, 0,
        "TX scratch never regrows"
    );
    assert!(
        conn_delta.demux_cache_hits > 0,
        "the last-flow cache must see the synchronous echo pattern"
    );
    table.row(&[
        "allocs / echo op".into(),
        format!("{CONNS}"),
        format!("{allocs} in {ZERO_ALLOC_OPS} ops"),
        "=0".into(),
    ]);

    // -- Phase 5: 10x SYN flood around the established flows. ----------
    let syn_bytes_before = world.server.mem_stats().syn_table_bytes;
    let live_before = world.server.conn_count();
    let flood_before = nsc::conn_snapshot();
    let (p99_flood, work_flood) = measure(&mut world, &sample, &payload, true);
    let flood_delta = nsc::conn_snapshot().delta(&flood_before);
    let forged = (TRIALS * OPS_PER_TRIAL * FLOOD_FACTOR) as u64;
    assert_eq!(
        (work_flood.segments, work_flood.demux_lookups),
        (work_big.segments + forged, work_big.demux_lookups + forged),
        "a forged SYN costs one lookup and one SYN-ACK; the established flows' work is untouched"
    );
    assert_eq!(work_flood.allocs, 0, "half-open state never allocates");
    assert_eq!(
        world.server.mem_stats().syn_table_bytes,
        syn_bytes_before,
        "half-open state is O(backlog): the SYN table never grows"
    );
    assert_eq!(
        world.server.conn_count(),
        live_before,
        "the flood must pin no control blocks"
    );
    assert!(
        flood_delta.syns_evicted > 0,
        "a flood 10x the service rate must overflow the table oldest-first"
    );
    table.row(&[
        "echo p99 under flood".into(),
        format!("{CONNS}"),
        format!("{p99_flood}ns"),
        format!("{:.2}x wall (reported)", p99_flood as f64 / p99_big as f64),
    ]);

    // -- Phase 6: churn epilogue — TIME_WAIT compaction and recycling. --
    let churn: Vec<(usize, ConnId)> = big.iter().copied().take(CHURN).collect();
    let churn_srv = world.pair(&churn);
    let slab_before = world.clients[churn[0].0].mem_stats().slab_bytes;
    for &(i, c) in &churn {
        world.clients[i].close(c, world.now).unwrap();
    }
    world.shuttle();
    for &s in &churn_srv {
        assert!(world.server.at_eof(s));
        world.server.close(s, world.now).unwrap();
    }
    world.shuttle();
    let tw = nsc::conn_snapshot();
    // Ride past 2*MSL: every record expires and returns its port.
    world.advance_by(SimTime::from_millis(25));
    let tw_delta = nsc::conn_snapshot().delta(&tw);
    assert_eq!(
        tw_delta.tw_expired as usize, CHURN,
        "every TIME_WAIT record expires at 2*MSL"
    );
    let mut recycled = 0;
    for i in 0..CLIENTS {
        while world.clients[i].pop_released_port().is_some() {
            recycled += 1;
        }
    }
    assert_eq!(recycled, CHURN, "every ephemeral port came back");
    let reopened = world.establish(CHURN);
    let _ = world.pair(&reopened);
    let slab_after: usize = reopened
        .iter()
        .map(|&(i, _)| i)
        .take(1)
        .map(|i| world.clients[i].mem_stats().slab_bytes)
        .sum();
    assert!(
        slab_after <= slab_before,
        "reopened connections must reuse freed slab slots ({slab_before}B -> {slab_after}B)"
    );
    table.row(&[
        "churn: TW expired / ports back".into(),
        format!("{CHURN}"),
        format!("{}/{recycled}", tw_delta.tw_expired),
        format!("{CHURN}/{CHURN}"),
    ]);

    table.print();

    let json = format!(
        "{{\n  \"experiment\": \"e18_conn_scale\",\n  \"conns\": {CONNS},\n  \
         \"idle_bytes_per_conn\": {per_conn},\n  \"p99_ns_small\": {p99_small},\n  \
         \"p99_ns_full\": {p99_big},\n  \"p99_ns_flood\": {p99_flood},\n  \
         \"allocs_per_{ZERO_ALLOC_OPS}_ops\": {allocs},\n  \
         \"demux_cache_hits\": {},\n  \"syns_evicted\": {},\n  \
         \"tw_expired\": {}\n}}\n",
        conn_delta.demux_cache_hits, flood_delta.syns_evicted, tw_delta.tw_expired
    );
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/e18_conn_scale.json", &json).expect("write artifact");
    println!(
        "paper check: {CONNS} conns at {per_conn}B/conn idle; p99 {p99_small}ns -> {p99_big}ns \
         ({SMALL_CONNS} -> {CONNS} conns); flood p99 {p99_flood}ns; {allocs} allocs in \
         {ZERO_ALLOC_OPS} warmed echo ops\nartifact: target/e18_conn_scale.json ({} bytes)\n",
        json.len()
    );
}

fn bench(c: &mut Criterion) {
    experiment();
    let mut group = c.benchmark_group("e18_conn_scale");
    group.sample_size(10);
    group.bench_function("echo_op_100_conns", |b| {
        let mut world = World::new();
        let conns = world.establish(SMALL_CONNS);
        let srv = world.pair(&conns);
        let payload = DemiBuffer::from_slice(&[0x5au8; PAYLOAD]);
        let mut k = 0usize;
        b.iter(|| {
            let (i, c) = conns[k % conns.len()];
            let s = srv[k % srv.len()];
            k += 1;
            world.echo_op(criterion::black_box(i), c, s, &payload)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

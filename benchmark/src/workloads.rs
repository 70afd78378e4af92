//! The four whole-path workloads and the segment runner.
//!
//! Load shape (all workloads): one process, one thread, one client flow.
//! Client and server co-run as coroutines on one `Runtime`; the client is
//! a closed loop that sends burst *n+1* only after burst *n*'s last reply
//! byte arrived, as a pipelining Redis client does. An open loop is
//! deliberately not used: arrivals would have to be scheduled on the
//! virtual clock, which measures the simulators' model, not the
//! implementation. Every qtoken the harness obtains is waited on (dropped
//! tokens leave an entry in the runtime's token table forever — see the
//! README's findings).
//!
//! A segment is a fixed number of bursts in a freshly built world:
//! build + connect + preload (timed as set-up), an untimed in-world
//! warm-up, then the timed window. The same seed gives the same inputs,
//! so every count and every virtual-time number repeats exactly.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

use demi_kv::log::{apply, decode_batch};
use demi_kv::store::KvStore;
use demi_kv::{KvConn, KvEngine, KvEngineConfig};
use demi_memory::DemiBuffer;
use demikernel::libos::catfs::Catfs;
use demikernel::libos::catnip::Catnip;
use demikernel::libos::{LibOs, SocketKind};
use demikernel::runtime::Runtime;
use demikernel::testing::{catnip_pair, host_ip};
use demikernel::types::{OperationResult, QDesc, Sga};
use net_stack::tcp::ConnId;
use net_stack::types::SocketAddr;
use net_stack::NetworkStack;
use sim_fabric::{Fabric, SimTime};
use spdk_sim::nvme::{NvmeConfig, NvmeDevice};

use crate::alloc;
use crate::noise;
use crate::stats::percentile_sorted;
use crate::trace::{span, SpanName, Tracer};

/// Keys preloaded into (and addressed in) every KV store.
pub const KEYS: usize = 1024;
/// A reply missing for this long (virtual time) is a failed operation.
const REPLY_TIMEOUT: SimTime = SimTime::from_secs(1);
/// Pipeline depth of the preload SET bursts.
const PRELOAD_DEPTH: usize = 16;

/// What kind of traffic a workload generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// UDP datagram echo.
    UdpEcho,
    /// RESP `GET` bursts over catnip TCP.
    KvGet,
    /// RESP `SET` bursts over catnip TCP.
    KvSet,
}

/// One workload: a name later issues cite, and its traffic shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Traffic kind.
    pub kind: Kind,
    /// Operations (commands or round trips) per burst.
    pub depth: usize,
    /// Datagram payload or KV value size in bytes.
    pub value_len: usize,
    /// Group-commit every mutation through catfs onto spdk-sim.
    pub durable: bool,
    /// Bursts per timed segment at full size (≈2 s on the 2-CPU box the
    /// first ledger entry was taken on).
    pub bursts: usize,
}

/// The ledger's workloads. Names are final; later issues cite them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "udp_echo_64",
        kind: Kind::UdpEcho,
        depth: 1,
        value_len: 64,
        durable: false,
        bursts: 250_000,
    },
    Workload {
        name: "kv_get_d1",
        kind: Kind::KvGet,
        depth: 1,
        value_len: 64,
        durable: false,
        bursts: 110_000,
    },
    Workload {
        name: "kv_get_d16_1k",
        kind: Kind::KvGet,
        depth: 16,
        value_len: 1024,
        durable: false,
        bursts: 14_000,
    },
    Workload {
        name: "kv_set_d16_1k_durable",
        kind: Kind::KvSet,
        depth: 16,
        value_len: 1024,
        durable: true,
        bursts: 6_500,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Bursts per timed segment in `--smoke` mode: enough to reach steady
    /// state, small enough that the whole ledger runs in seconds.
    pub fn smoke_bursts(&self) -> usize {
        (self.bursts / 100).max(64)
    }
}

/// Untimed in-world warm-up bursts before a timed window of `bursts`.
fn warm_bursts(bursts: usize) -> usize {
    (bursts / 50).max(32)
}

/// SplitMix64 — the harness's only randomness; seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

// ---------------------------------------------------------------------
// Counters read from the layers' public getters.
// ---------------------------------------------------------------------

macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Raw per-layer counters, read from outside through public
        /// `stats()` getters — no product file knows the ledger exists.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counts {
            /// Movement since `before`.
            pub fn since(&self, before: &Counts) -> Counts {
                Counts { $($field: self.$field.saturating_sub(before.$field),)* }
            }
        }
    };
}

counts! {
    /// `push*` calls started, every libOS on the runtime (core.api).
    api_pushes,
    /// `pop*` calls started.
    api_pops,
    /// `wait` loop iterations (core.runtime).
    wait_passes,
    /// Task polls made by those iterations.
    wait_polls,
    /// Completed-token lookups by the wait loops.
    completion_checks,
    /// `Future::poll` calls (demi-sched).
    sched_polls,
    /// Waker deliveries that made a task runnable.
    sched_wakeups,
    /// Polls of tasks nobody woke.
    sched_spurious,
    /// `DemiBuffer` allocations (demi-memory).
    buffer_allocs,
    /// Payload copy operations.
    buffer_copies,
    /// Bytes those copies moved.
    bytes_copied,
    /// TCP data segments sent, both hosts.
    tcp_segments,
    /// Pure ACKs sent.
    tcp_acks,
    /// Pure ACKs avoided by coalescing.
    tcp_acks_coalesced,
    /// Segments retransmitted.
    tcp_retransmits,
    /// Segments buffered out of order.
    tcp_ooo,
    /// TCP demux lookups.
    demux_lookups,
    /// Lookups served by the last-flow cache.
    demux_cache_hits,
    /// Frames the stacks took from their devices.
    rx_frames,
    /// Frames the stacks handed to their devices.
    tx_frames,
    /// Frames the stacks dropped (malformed + not-for-us + unreachable).
    stack_drops,
    /// Poll passes that ran out of RX budget.
    rx_budget_exhausted,
    /// `tx_burst` calls (dpdk-sim).
    tx_bursts,
    /// Frames in those bursts.
    port_tx_frames,
    /// Frames tail-dropped at a full RX ring.
    rx_ring_drops,
    /// Frames the fabric accepted, both directions (data + ACK + ARP).
    fabric_frames,
    /// Frames the fabric dropped.
    fabric_dropped,
    /// Bytes the fabric accepted.
    fabric_bytes,
    /// RESP arguments parsed as views of one RX chunk (demi-kv).
    zero_copy_args,
    /// RESP arguments reassembled across chunks with a copy.
    reassembled_args,
    /// GET bulk headers prepended into the value's headroom.
    prepend_hits,
    /// GET bulk headers that fell back to the control run.
    prepend_fallbacks,
    /// Commands the engine executed.
    kv_commands,
    /// Drain passes that executed at least one command.
    kv_drains,
    /// Connections poisoned by a protocol error.
    protocol_errors,
    /// Group-commit batches emitted.
    log_batches,
    /// Device blocks written (spdk-sim).
    blocks_written,
    /// Submissions refused at a full queue pair.
    queue_full,
}

/// Wall and virtual time group commits kept acknowledgments waiting.
#[derive(Default)]
struct CommitMeter {
    wall_ns: Cell<u64>,
    virt_ns: Cell<u64>,
}

// ---------------------------------------------------------------------
// Worlds.
// ---------------------------------------------------------------------

struct KvSide {
    engine: Rc<RefCell<KvEngine>>,
    conn: Rc<RefCell<KvConn>>,
    device: Option<NvmeDevice>,
    commits: Rc<CommitMeter>,
}

struct World {
    rt: Runtime,
    fabric: Fabric,
    client: Catnip,
    server: Catnip,
    /// The client's queue: the bound UDP socket or the TCP connection.
    client_qd: QDesc,
    kv: Option<KvSide>,
    /// Tells the UDP echo coroutine to exit at its next datagram.
    stop: Rc<Cell<bool>>,
}

const UDP_PORT: u16 = 7;
const KV_PORT: u16 = 6379;

fn server_addr(port: u16) -> SocketAddr {
    SocketAddr::new(host_ip(2), port)
}

/// Sums the per-connection TCP counters of every connection a stack
/// holds. Catnip does not expose a queue's `ConnId`; a fresh one-flow
/// world only ever uses the first slots and generations, so probe those.
fn tcp_totals(stack: &NetworkStack, into: &mut Counts) {
    for generation in 0..4u32 {
        for slot in 0..4u32 {
            if let Ok(s) = stack.tcp_conn_stats(ConnId((generation << 20) | slot)) {
                into.tcp_segments += s.segments_sent;
                into.tcp_acks += s.acks_sent;
                into.tcp_acks_coalesced += s.acks_coalesced;
                into.tcp_retransmits += s.retransmissions;
                into.tcp_ooo += s.out_of_order_segments;
            }
        }
    }
}

impl World {
    fn build(w: &Workload, seed: u64, tracer: Option<Rc<Tracer>>) -> World {
        let (rt, fabric, client, server) = catnip_pair(seed);
        let stop = Rc::new(Cell::new(false));
        match w.kind {
            Kind::UdpEcho => {
                let sqd = server.socket(SocketKind::Udp).expect("server socket");
                server
                    .bind(sqd, server_addr(UDP_PORT))
                    .expect("server bind");
                let cqd = client.socket(SocketKind::Udp).expect("client socket");
                client
                    .bind(cqd, SocketAddr::new(host_ip(1), 9000))
                    .expect("client bind");
                spawn_udp_echo(&rt, server.clone(), sqd, stop.clone(), tracer);
                World {
                    rt,
                    fabric,
                    client,
                    server,
                    client_qd: cqd,
                    kv: None,
                    stop,
                }
            }
            Kind::KvGet | Kind::KvSet => {
                let lqd = server.socket(SocketKind::Tcp).expect("server socket");
                server.bind(lqd, server_addr(KV_PORT)).expect("bind");
                server.listen(lqd, 16).expect("listen");
                let accept_qt = server.accept(lqd).expect("accept");
                let cqd = client.socket(SocketKind::Tcp).expect("client socket");
                let connect_qt = client.connect(cqd, server_addr(KV_PORT)).expect("connect");
                let conn_qd = server
                    .wait(accept_qt, None)
                    .expect("accept wait")
                    .expect_accept();
                client.wait(connect_qt, None).expect("connect wait");

                let (device, log) = if w.durable {
                    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
                    let fs = Catfs::new(&rt, device.clone());
                    let log_qd = fs.create("kv.aof").expect("create log");
                    (Some(device), Some((fs, log_qd)))
                } else {
                    (None, None)
                };
                let engine = Rc::new(RefCell::new(KvEngine::new(
                    KvEngineConfig {
                        durable: w.durable,
                        ..KvEngineConfig::default()
                    },
                    server.memory().clone(),
                    rt.now(),
                )));
                let conn = Rc::new(RefCell::new(KvConn::new()));
                let commits = Rc::new(CommitMeter::default());
                spawn_kv_server(
                    &rt,
                    KvServer {
                        libos: server.clone(),
                        conn_qd,
                        engine: engine.clone(),
                        conn: conn.clone(),
                        log,
                        commits: commits.clone(),
                        tracer,
                    },
                );
                World {
                    rt,
                    fabric,
                    client,
                    server,
                    client_qd: cqd,
                    kv: Some(KvSide {
                        engine,
                        conn,
                        device,
                        commits,
                    }),
                    stop,
                }
            }
        }
    }

    fn counts(&self) -> Counts {
        let m = self.rt.metrics().snapshot();
        let sched = self.rt.scheduler().stats();
        let fabric = self.fabric.stats();
        let mut c = Counts {
            api_pushes: m.pushes,
            api_pops: m.pops,
            wait_passes: m.wait_passes,
            wait_polls: m.wait_polls,
            completion_checks: m.completion_checks,
            sched_polls: sched.polls,
            sched_wakeups: sched.wakeups,
            sched_spurious: sched.spurious_polls,
            buffer_allocs: m.buffer_allocs,
            buffer_copies: m.buffer_copies,
            bytes_copied: m.buffer_bytes_copied,
            demux_lookups: m.demux_lookups,
            demux_cache_hits: m.demux_cache_hits,
            rx_budget_exhausted: m.rx_budget_exhausted,
            fabric_frames: fabric.frames_sent,
            fabric_dropped: fabric.frames_dropped,
            fabric_bytes: fabric.bytes_sent,
            ..Counts::default()
        };
        for host in [&self.client, &self.server] {
            let stack = host.stack().stats();
            c.rx_frames += stack.rx_frames;
            c.tx_frames += stack.tx_frames;
            c.stack_drops += stack.malformed + stack.not_for_us + stack.unreachable_drops;
            let port = host.port().stats();
            c.tx_bursts += port.tx_burst_calls;
            c.port_tx_frames += port.tx_frames;
            c.rx_ring_drops += port.rx_ring_drops;
            tcp_totals(host.stack(), &mut c);
        }
        if let Some(kv) = &self.kv {
            let parser = kv.conn.borrow().parser_stats();
            c.zero_copy_args = parser.zero_copy_args;
            c.reassembled_args = parser.reassembled_args;
            let engine = kv.engine.borrow();
            let replies = engine.reply_stats();
            c.prepend_hits = replies.prepend_hits;
            c.prepend_fallbacks = replies.prepend_fallbacks;
            let stats = engine.stats();
            c.kv_commands = stats.commands;
            c.kv_drains = stats.bursts;
            c.protocol_errors = stats.protocol_errors;
            c.log_batches = stats.batches;
            if let Some(device) = &kv.device {
                let dev = device.stats();
                c.blocks_written = dev.blocks_written;
                c.queue_full = dev.queue_full_rejections;
            }
        }
        c
    }

    /// Ends the server coroutine so the world can be freed. The coroutine
    /// owns a `Catnip` (hence a `Runtime`) inside a task the runtime's
    /// scheduler owns — a reference cycle until the task finishes.
    fn shut_down(&self, kind: Kind) {
        match kind {
            Kind::UdpEcho => {
                self.stop.set(true);
                let bye = self.client.sgaalloc(1);
                if let Ok(qt) = self
                    .client
                    .pushto(self.client_qd, &bye, server_addr(UDP_PORT))
                {
                    let _ = self.client.wait(qt, Some(REPLY_TIMEOUT));
                }
            }
            Kind::KvGet | Kind::KvSet => {
                let _ = self.client.close(self.client_qd);
            }
        }
        self.rt.settle(SimTime::from_millis(1));
    }
}

fn spawn_udp_echo(
    rt: &Runtime,
    server: Catnip,
    sqd: QDesc,
    stop: Rc<Cell<bool>>,
    tracer: Option<Rc<Tracer>>,
) {
    rt.spawn_background("ledger::udp_echo", async move {
        let tracer = tracer.as_deref();
        loop {
            let qt = {
                let _s = span(tracer, SpanName::ApiPop);
                server.pop(sqd)
            };
            let Ok(qt) = qt else { return };
            let OperationResult::Pop { from, sga } = server.runtime().await_op(qt).await else {
                return;
            };
            if stop.get() {
                return;
            }
            let Some(from) = from else { return };
            let qt = {
                let _s = span(tracer, SpanName::ApiPush);
                server.pushto(sqd, &sga, from)
            };
            let Ok(qt) = qt else { return };
            let _ = server.runtime().await_op(qt).await;
        }
    });
}

struct KvServer {
    libos: Catnip,
    conn_qd: QDesc,
    engine: Rc<RefCell<KvEngine>>,
    conn: Rc<RefCell<KvConn>>,
    log: Option<(Catfs, QDesc)>,
    commits: Rc<CommitMeter>,
    tracer: Option<Rc<Tracer>>,
}

/// The serving loop of `examples/kv_server.rs`, with spans around the
/// calls into each layer: pop raw stream bytes, drain the whole pipelined
/// burst, release immediate replies, group-commit the burst's mutations
/// as one catfs record, then release the acknowledgments that waited for
/// durability. Ends when the client closes the connection.
fn spawn_kv_server(rt: &Runtime, s: KvServer) {
    let clock = rt.clock().clone();
    rt.spawn_background("ledger::kv_server", async move {
        let tracer = s.tracer.as_deref();
        let push = |segs: Vec<DemiBuffer>| {
            let burst = Sga::from_bufs(segs);
            let _s = span(tracer, SpanName::ApiPush);
            s.libos.push_unframed(s.conn_qd, &burst)
        };
        loop {
            let qt = {
                let _s = span(tracer, SpanName::ApiPop);
                s.libos.pop_unframed(s.conn_qd)
            };
            let Ok(qt) = qt else { break };
            let OperationResult::Pop { sga, .. } = s.libos.runtime().await_op(qt).await else {
                break;
            };
            {
                let _s = span(tracer, SpanName::KvFeed);
                let mut conn = s.conn.borrow_mut();
                for seg in sga.segments() {
                    conn.feed(seg.clone());
                }
            }
            let r = {
                let _s = span(tracer, SpanName::KvDrain);
                s.engine
                    .borrow_mut()
                    .drain(&mut s.conn.borrow_mut(), clock.now())
            };
            if !r.immediate.is_empty() {
                let Ok(qt) = push(r.immediate) else { break };
                let _ = s.libos.runtime().await_op(qt).await;
            }
            if let (Some(batch), Some((fs, log_qd))) = (r.batch, &s.log) {
                let record = Sga::from_bufs(vec![DemiBuffer::from(batch)]);
                let (t0, v0) = (Instant::now(), clock.now());
                let qt = {
                    let _s = span(tracer, SpanName::ApiPush);
                    fs.push(*log_qd, &record)
                };
                let Ok(qt) = qt else { break };
                let _ = fs.runtime().await_op(qt).await;
                let m = &s.commits;
                m.wall_ns
                    .set(m.wall_ns.get() + t0.elapsed().as_nanos() as u64);
                m.virt_ns
                    .set(m.virt_ns.get() + clock.now().saturating_since(v0).as_nanos());
                let Ok(qt) = push(r.deferred) else { break };
                let _ = s.libos.runtime().await_op(qt).await;
            }
            if r.disconnect {
                break;
            }
        }
        let _ = s.libos.close(s.conn_qd);
    });
}

// ---------------------------------------------------------------------
// The correctness oracle and burst generator.
// ---------------------------------------------------------------------

/// Generates bursts from the seed and knows what every reply must be.
/// Values embed their key and version, so a reply for the wrong key or a
/// stale version is caught byte for byte.
struct Oracle {
    kind: Kind,
    depth: usize,
    value_len: usize,
    rng: SplitMix64,
    /// Per-key filler bytes (`KEYS × value_len`), fixed by the seed.
    filler: Vec<u8>,
    /// Version of each key as of the bursts generated so far. Bursts are
    /// acknowledged in order in a closed loop, so once a burst verifies
    /// this is also the acknowledged state.
    versions: Vec<u32>,
    /// The burst being built.
    request: Vec<u8>,
    /// Exactly the reply bytes `request` must produce.
    expected: Vec<u8>,
}

const VALUE_HEADER: usize = 20;

impl Oracle {
    fn new(w: &Workload, seed: u64) -> Oracle {
        let mut rng = SplitMix64(seed);
        let filler = if w.kind == Kind::UdpEcho {
            Vec::new()
        } else {
            assert!(w.value_len >= VALUE_HEADER);
            let mut f = vec![0u8; KEYS * w.value_len];
            for chunk in f.chunks_mut(8) {
                let bytes = rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
            f
        };
        Oracle {
            kind: w.kind,
            depth: w.depth,
            value_len: w.value_len,
            rng,
            filler,
            versions: vec![0; KEYS],
            request: Vec::with_capacity(w.depth * (w.value_len + 64)),
            expected: Vec::with_capacity(w.depth * (w.value_len + 64)),
        }
    }

    /// `key:NNNNNN#VVVVVVVV#` then the key's filler — `value_len` bytes.
    fn put_value(&self, key: usize, version: u32, out: &mut Vec<u8>) {
        let _ = write!(out, "key:{key:06}#{version:08x}#");
        out.extend_from_slice(
            &self.filler[key * self.value_len + VALUE_HEADER..(key + 1) * self.value_len],
        );
    }

    fn value(&self, key: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.value_len);
        self.put_value(key, self.versions[key], &mut v);
        v
    }

    fn put_set(&mut self, key: usize) {
        self.versions[key] += 1;
        let mut request = std::mem::take(&mut self.request);
        let _ = write!(
            request,
            "*3\r\n$3\r\nSET\r\n$10\r\nkey:{key:06}\r\n${}\r\n",
            self.value_len
        );
        self.put_value(key, self.versions[key], &mut request);
        request.extend_from_slice(b"\r\n");
        self.request = request;
        self.expected.extend_from_slice(b"+OK\r\n");
    }

    fn put_get(&mut self, key: usize) {
        let _ = write!(self.request, "*2\r\n$3\r\nGET\r\n$10\r\nkey:{key:06}\r\n");
        let mut expected = std::mem::take(&mut self.expected);
        let _ = write!(expected, "${}\r\n", self.value_len);
        self.put_value(key, self.versions[key], &mut expected);
        expected.extend_from_slice(b"\r\n");
        self.expected = expected;
    }

    /// Builds preload burst `i` of `KEYS / PRELOAD_DEPTH`: SETs of the
    /// next keys in order, so every key exists at version 1.
    fn build_preload(&mut self, i: usize) {
        self.request.clear();
        self.expected.clear();
        for key in i * PRELOAD_DEPTH..(i + 1) * PRELOAD_DEPTH {
            self.put_set(key);
        }
    }

    /// Builds the next burst of the workload's key sequence. For the
    /// echo workload the request is the datagram and must come back
    /// unchanged.
    fn build_next(&mut self) {
        self.request.clear();
        self.expected.clear();
        match self.kind {
            Kind::UdpEcho => {
                for _ in 0..self.value_len / 8 {
                    let word = self.rng.next_u64();
                    self.request.extend_from_slice(&word.to_le_bytes());
                }
                self.expected.extend_from_slice(&self.request);
            }
            Kind::KvGet => {
                for _ in 0..self.depth {
                    let key = (self.rng.next_u64() % KEYS as u64) as usize;
                    self.put_get(key);
                }
            }
            Kind::KvSet => {
                for _ in 0..self.depth {
                    let key = (self.rng.next_u64() % KEYS as u64) as usize;
                    self.put_set(key);
                }
            }
        }
    }
}

/// First key (or datagram word) a workload generates from `seed` — what
/// the self-test compares across seeds.
pub fn first_key(w: &Workload, seed: u64) -> u64 {
    Oracle::new(w, seed).rng.next_u64() % KEYS as u64
}

// ---------------------------------------------------------------------
// The client loop.
// ---------------------------------------------------------------------

/// Why a burst did not verify.
enum BurstError {
    /// A call or wait failed (includes the virtual 1 s reply timeout).
    Op(String),
    /// Reply bytes differed from the oracle's.
    Mismatch { at: usize },
}

impl std::fmt::Display for BurstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BurstError::Op(what) => write!(f, "{what}"),
            BurstError::Mismatch { at } => write!(f, "reply differs from the oracle at byte {at}"),
        }
    }
}

struct Client<'a> {
    world: &'a World,
    oracle: Oracle,
    tracer: Option<&'a Tracer>,
    rtt_wall_ns: Vec<u64>,
    rtt_virt_ns: Vec<u64>,
    bursts_done: u32,
}

impl Client<'_> {
    /// Hands the built request to the libOS: allocates an I/O buffer from
    /// device-registered memory (`sgaalloc`, paper §4.5) and writes the
    /// request into it, as an application serialising a request does.
    fn request_sga(&self) -> Sga {
        let mut sga = self.world.client.sgaalloc(self.oracle.request.len());
        sga.segments_mut()[0]
            .try_mut()
            .expect("fresh buffer is exclusively owned")
            .copy_from_slice(&self.oracle.request);
        sga
    }

    /// One closed-loop burst: push, wait, then pop + wait until every
    /// expected reply byte arrived and matched.
    fn exchange(&mut self) -> Result<(), BurstError> {
        let w = self.world;
        let tracer = self.tracer;
        let sga = {
            let _s = span(tracer, SpanName::ClientBuild);
            self.request_sga()
        };
        let (t0, v0) = (Instant::now(), w.rt.now());
        let qt = {
            let _s = span(tracer, SpanName::ApiPush);
            match self.oracle.kind {
                Kind::UdpEcho => w.client.pushto(w.client_qd, &sga, server_addr(UDP_PORT)),
                _ => w.client.push_unframed(w.client_qd, &sga),
            }
        }
        .map_err(|e| BurstError::Op(format!("push: {e}")))?;
        {
            let _s = span(tracer, SpanName::RuntimeWait);
            w.client.wait(qt, Some(REPLY_TIMEOUT))
        }
        .map_err(|e| BurstError::Op(format!("push wait: {e}")))?;

        let mut got = 0;
        while got < self.oracle.expected.len() {
            let qt = {
                let _s = span(tracer, SpanName::ApiPop);
                match self.oracle.kind {
                    Kind::UdpEcho => w.client.pop(w.client_qd),
                    _ => w.client.pop_unframed(w.client_qd),
                }
            }
            .map_err(|e| BurstError::Op(format!("pop: {e}")))?;
            let result = {
                let _s = span(tracer, SpanName::RuntimeWait);
                w.client.wait(qt, Some(REPLY_TIMEOUT))
            }
            .map_err(|e| BurstError::Op(format!("pop wait: {e}")))?;
            let OperationResult::Pop { sga: reply, .. } = result else {
                return Err(BurstError::Op(format!("pop resolved to {result:?}")));
            };
            let _s = span(tracer, SpanName::ClientVerify);
            for seg in reply.segments() {
                let bytes = seg.as_slice();
                if self.oracle.expected.get(got..got + bytes.len()) != Some(bytes) {
                    return Err(BurstError::Mismatch { at: got });
                }
                got += bytes.len();
            }
        }
        self.rtt_wall_ns.push(t0.elapsed().as_nanos() as u64);
        self.rtt_virt_ns
            .push(w.rt.now().saturating_since(v0).as_nanos());
        Ok(())
    }

    /// Runs `n` bursts of the workload's sequence; stops at the first
    /// burst that fails.
    fn run(&mut self, n: usize) -> Result<(), BurstError> {
        for _ in 0..n {
            if let Some(t) = self.tracer {
                t.set_burst(self.bursts_done);
            }
            {
                let _s = span(self.tracer, SpanName::ClientBuild);
                self.oracle.build_next();
            }
            self.exchange()?;
            self.bursts_done += 1;
        }
        Ok(())
    }

    fn preload(&mut self) -> Result<(), BurstError> {
        for i in 0..KEYS / PRELOAD_DEPTH {
            self.oracle.build_preload(i);
            self.exchange()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Segments.
// ---------------------------------------------------------------------

/// How to run one segment. An instrument given here — the harness's span
/// recorder, or the product's telemetry — is on during the warm-up and in
/// every *odd* slice of the timed window, off in the even ones: slices
/// 30 ms apart run at the same machine speed, so comparing them pairwise
/// measures the instrument's cost and nothing else.
#[derive(Clone, Default)]
pub struct SegmentOptions {
    /// Record spans around every harness call.
    pub tracer: Option<Rc<Tracer>>,
    /// Turn `demikernel::telemetry` (histograms and op spans) on.
    pub telemetry: bool,
}

impl SegmentOptions {
    fn instrumented(&self) -> bool {
        self.tracer.is_some() || self.telemetry
    }

    /// Switches whichever instrument this segment carries.
    fn switch(&self, on: bool) {
        if let Some(t) = &self.tracer {
            t.set_enabled(on);
        }
        if self.telemetry {
            demi_telemetry::set_enabled(on);
            demi_telemetry::span::set_enabled(on);
        }
    }
}

/// Nearest-rank percentiles of one segment's per-burst samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// The median.
    pub p50: u64,
    /// The 99th percentile (the highest with ten samples beyond it at
    /// every full-size burst count).
    pub p99: u64,
}

impl Percentiles {
    fn of(mut samples: Vec<u64>) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        samples.sort_unstable();
        Percentiles {
            p50: percentile_sorted(&samples, 50.0),
            p99: percentile_sorted(&samples, 99.0),
        }
    }
}

/// The timed window is cut into this many equal slices, each timed on
/// its own. On a shared box noise only ever slows a slice down, and it
/// comes in phases seconds long; the best slice of a run is the steadiest
/// observation of what the code can do (see the README's noise study).
pub const SLICES: usize = 64;

/// One slice of a timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Verified operations per wall second in the slice.
    pub ops_per_s: f64,
    /// Median wall nanoseconds per burst in the slice.
    pub rtt_wall_p50_ns: u64,
}

/// Everything one segment measured.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Operations in the timed window that verified.
    pub ops: u64,
    /// Operations attempted in the timed window (plus, for the durable
    /// workload, the keys the crash-replay check compared).
    pub attempted: u64,
    /// Wrong, missing or timed-out operations, plus keys the crash
    /// replay recovered wrongly.
    pub failed: u64,
    /// What went wrong, if anything did.
    pub error: Option<String>,
    /// Wall seconds to build the world, connect and preload.
    pub setup_s: f64,
    /// Wall seconds of the timed window.
    pub wall_s: f64,
    /// The window's slices that completed, in order.
    pub slices: Vec<Slice>,
    /// On-CPU share of the timed window, where the kernel reports it.
    pub cpu_busy_ratio: Option<f64>,
    /// Median and 99th percentile of the wall nanoseconds each burst
    /// took, push to last reply byte (0 if no burst completed).
    pub rtt_wall_ns: Percentiles,
    /// The same on the virtual clock: the model's latency.
    pub rtt_virt_ns: Percentiles,
    /// Heap allocations in the timed window.
    pub allocs: u64,
    /// Live heap at the window's end minus at its start.
    pub heap_growth: i64,
    /// Peak live heap in the window, above what was live before this
    /// segment's world was built (so what a caller keeps from earlier
    /// segments does not count).
    pub heap_peak: i64,
    /// Layer counters over the timed window.
    pub counts: Counts,
    /// Application payload bytes carried in the window (request + reply).
    pub payload_bytes: u64,
    /// Self time per span name over the window's traced slices (traced
    /// segments only), indexed like [`SpanName::ALL`].
    pub span_self_ns: Option<[u64; SpanName::ALL.len()]>,
    /// Operations in the slices an instrument was on for.
    pub instrumented_ops: u64,
    /// Wall seconds those slices took.
    pub instrumented_wall_s: f64,
    /// What the instrument cost: the median, over adjacent slice pairs,
    /// of how much slower the instrumented slice ran, in percent.
    pub instrument_overhead_pct: Option<f64>,
    /// Wall nanoseconds acknowledgments waited for group commits.
    pub commit_wall_ns: u64,
    /// Virtual nanoseconds acknowledgments waited for group commits.
    pub commit_virt_ns: u64,
}

impl Segment {
    /// Verified operations per wall second over the whole window.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Throughput of the window's best slice (0 if none completed).
    pub fn best_ops_per_s(&self) -> f64 {
        self.slices.iter().map(|s| s.ops_per_s).fold(0.0, f64::max)
    }

    /// Median burst time of the window's least disturbed slice (0 if none
    /// completed).
    pub fn best_rtt_wall_p50_ns(&self) -> u64 {
        self.slices
            .iter()
            .map(|s| s.rtt_wall_p50_ns)
            .min()
            .unwrap_or(0)
    }
}

/// Builds a fresh world, preloads it, warms it up, runs `bursts` timed
/// bursts and checks every reply; the durable workload then crashes the
/// server and replays the log.
pub fn run_segment(w: &Workload, seed: u64, bursts: usize, opts: &SegmentOptions) -> Segment {
    let mut seg = Segment::default();
    let tracer = opts.tracer.as_deref();
    let live_at_entry = alloc::snapshot().live;

    let setup_start = Instant::now();
    let world = World::build(w, seed, opts.tracer.clone());
    if opts.telemetry {
        demikernel::telemetry::enable(&world.rt);
    }
    let mut client = Client {
        world: &world,
        oracle: Oracle::new(w, seed),
        tracer,
        rtt_wall_ns: Vec::new(),
        rtt_virt_ns: Vec::new(),
        bursts_done: 0,
    };
    let mut outcome = match w.kind {
        Kind::UdpEcho => Ok(()),
        Kind::KvGet | Kind::KvSet => client.preload(),
    };
    seg.setup_s = setup_start.elapsed().as_secs_f64();

    if outcome.is_ok() {
        outcome = client.run(warm_bursts(bursts));
    }
    // Sample vectors are sized before the window opens so the harness
    // itself allocates nothing inside it.
    client.rtt_wall_ns = Vec::with_capacity(bursts);
    client.rtt_virt_ns = Vec::with_capacity(bursts);
    client.bursts_done = 0;
    if let Some(t) = tracer {
        t.clear();
    }
    let commits_before = world.kv.as_ref().map_or((0, 0), |kv| {
        (kv.commits.wall_ns.get(), kv.commits.virt_ns.get())
    });
    let mut slice_ends: Vec<(usize, std::time::Duration)> = Vec::with_capacity(SLICES);
    let counts_before = world.counts();
    alloc::reset_peak();
    let heap_before = alloc::snapshot();
    let cpu_before = noise::thread_cpu_ns();
    let window = Instant::now();
    for i in 0..SLICES {
        // Even slices; the remainder is spread over the first ones.
        let n = bursts / SLICES + usize::from(i < bursts % SLICES);
        if n == 0 || outcome.is_err() {
            continue;
        }
        if opts.instrumented() {
            opts.switch(i % 2 == 1);
        }
        outcome = client.run(n);
        if outcome.is_ok() {
            slice_ends.push((client.rtt_wall_ns.len(), window.elapsed()));
        }
    }
    let wall = window.elapsed();
    opts.switch(false);
    seg.span_self_ns = tracer.map(Tracer::self_time_ns);
    let cpu_after = noise::thread_cpu_ns();
    let heap_after = alloc::snapshot();
    let counts_after = world.counts();

    seg.wall_s = wall.as_secs_f64();
    seg.cpu_busy_ratio = noise::busy_ratio(cpu_before, cpu_after, wall.as_nanos() as u64);
    seg.allocs = heap_after.allocs - heap_before.allocs;
    seg.heap_growth = heap_after.live - heap_before.live;
    seg.heap_peak = heap_after.peak - live_at_entry;
    seg.counts = counts_after.since(&counts_before);
    if let Some(kv) = &world.kv {
        seg.commit_wall_ns = kv.commits.wall_ns.get() - commits_before.0;
        seg.commit_virt_ns = kv.commits.virt_ns.get() - commits_before.1;
    }
    let done = client.bursts_done as u64;
    seg.ops = done * w.depth as u64;
    seg.attempted = seg.ops;
    let per_burst = match w.kind {
        Kind::UdpEcho => 2 * w.value_len,
        _ => w.depth * w.value_len,
    };
    seg.payload_bytes = done * per_burst as u64;
    if let Err(e) = outcome {
        // The failing burst's operations were attempted and lost; the
        // stream cannot be trusted after that, so the segment ends.
        seg.attempted += w.depth as u64;
        seg.failed += w.depth as u64;
        seg.error = Some(format!("burst {done}: {e}"));
    }
    let (mut from, mut since) = (0, std::time::Duration::ZERO);
    for (to, at) in slice_ends {
        if opts.instrumented() && seg.slices.len() % 2 == 1 {
            seg.instrumented_ops += ((to - from) * w.depth) as u64;
            seg.instrumented_wall_s += (at - since).as_secs_f64();
        }
        seg.slices.push(Slice {
            ops_per_s: ((to - from) * w.depth) as f64 / (at - since).as_secs_f64(),
            rtt_wall_p50_ns: Percentiles::of(client.rtt_wall_ns[from..to].to_vec()).p50,
        });
        (from, since) = (to, at);
    }
    if opts.instrumented() {
        let pairs: Vec<f64> = seg
            .slices
            .chunks_exact(2)
            .map(|p| (p[0].ops_per_s / p[1].ops_per_s - 1.0) * 100.0)
            .collect();
        seg.instrument_overhead_pct = (!pairs.is_empty()).then(|| crate::stats::median(&pairs));
    }
    seg.rtt_wall_ns = Percentiles::of(std::mem::take(&mut client.rtt_wall_ns));
    seg.rtt_virt_ns = Percentiles::of(std::mem::take(&mut client.rtt_virt_ns));

    world.shut_down(w.kind);
    if opts.telemetry {
        demikernel::telemetry::disable();
        demikernel::telemetry::reset();
    }
    if w.durable && seg.error.is_none() {
        let wrong = replay_check(&world, &client.oracle);
        seg.attempted += KEYS as u64;
        seg.failed += wrong;
        if wrong > 0 {
            seg.error = Some(format!("crash replay: {wrong} of {KEYS} keys wrong"));
        }
    }
    seg
}

/// Crash-replay: a fresh catfs on a fresh runtime scans the device the
/// crashed server logged to, replays every group-commit record into a
/// fresh store, and the result must equal the acknowledged state — every
/// key at the version the client last saw `+OK` for. Returns how many of
/// the `KEYS` keys are missing or wrong.
fn replay_check(world: &World, oracle: &Oracle) -> u64 {
    let kv = world.kv.as_ref().expect("durable workloads are KV");
    let device = kv.device.clone().expect("durable world has a device");
    let batches = kv.engine.borrow().stats().batches;
    let rt = Runtime::with_clock(world.rt.clock().clone());
    let fs = Catfs::new(&rt, device);
    let Ok(qd) = fs.recover("kv.aof") else {
        return KEYS as u64;
    };
    let now = rt.now();
    let mut store = KvStore::new(KvEngineConfig::default().byte_budget, now);
    for _ in 0..batches {
        let Ok(OperationResult::Pop { sga, .. }) = fs.blocking_pop(qd) else {
            return KEYS as u64;
        };
        let Ok(entries) = decode_batch(&sga.to_vec()) else {
            return KEYS as u64;
        };
        for entry in &entries {
            apply(&mut store, entry, now);
        }
    }
    let dump = store.dump(now);
    let mut wrong = 0;
    for key in 0..KEYS {
        let name = format!("key:{key:06}").into_bytes();
        let recovered = dump
            .binary_search_by(|(k, _)| k.as_slice().cmp(&name))
            .ok()
            .map(|i| &dump[i].1);
        if recovered != Some(&oracle.value(key)) {
            wrong += 1;
        }
    }
    wrong + (dump.len() as u64).saturating_sub(KEYS as u64)
}

//! World builders and scenario drivers shared by the integration tests
//! (`mod support;`): hosts follow `demikernel::testing`'s numbering —
//! host *n* is `10.0.0.n` at MAC `02:00:00:00:00:0n`.
//!
//! Each test binary compiles this file for itself and uses its own subset.
//! [`alloc_sites`] is the allocation pins' allocator: a failing pin says
//! where its allocations came from.
#![allow(dead_code)]

pub mod alloc_sites;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::future::Future;
use std::net::Ipv4Addr;
use std::rc::Rc;

use demi_kv::{KvConn, KvEngine};
use demi_memory::DemiBuffer;
use demi_sched::Notify;
use demi_telemetry::hist::Histogram;
use demikernel::libos::catfs::Catfs;
use demikernel::libos::catnip::Catnip;
use demikernel::libos::SocketKind;
pub use demikernel::testing::host_ip as ip;
use demikernel::testing::host_mac;
use demikernel::types::{OperationResult, QDesc, QToken, Sga};
use demikernel::{LibOs, Runtime};
use dpdk_sim::{DpdkPort, PortConfig};
use net_stack::tcp::{ConnId, ListenerId, State, TcpConfig, TcpPeer, TcpSegmentOut};
use net_stack::types::SocketAddr;
use net_stack::{HostLinks, NetworkStack, PortAllocator, StackConfig};
use posix_sim::{MtcpConfig, MtcpSim};
use sim_fabric::{Fabric, SimClock, SimRng, SimTime};

/// Names the failing case of a seeded test, whether it failed by assertion
/// or by a panic inside the code under test: `Repro(seed, case)`.
pub struct Repro(pub u64, pub u32);

impl Drop for Repro {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("reproduce with: seed={} case={}", self.0, self.1);
        }
    }
}

// ---------------------------------------------------------------------
// Stack-level worlds: hosts on a fabric, driven by `settle`.
// ---------------------------------------------------------------------

/// A stack with `cfg` behind a device with `nic`; returns the device
/// handle too, for tests that read its counters.
pub fn host_with(fabric: &Fabric, nic: PortConfig, cfg: StackConfig) -> (DpdkPort, NetworkStack) {
    let port = DpdkPort::new(fabric, nic);
    let stack = NetworkStack::new(port.clone(), fabric.clock(), cfg);
    (port, stack)
}

/// Host `last`: a default stack on a basic single-queue port.
pub fn host(fabric: &Fabric, last: u8) -> NetworkStack {
    let port = PortConfig::basic(host_mac(last));
    host_with(fabric, port, StackConfig::new(ip(last))).1
}

/// The `n` shards of one host — one ring mesh (`cap` messages a ring), one
/// port namespace — shard *i* on the device `nic(i)` returns: a clone of
/// the host's one `n`-queue port, or shard world *i*'s own one-queue port.
pub fn mesh(
    n: usize,
    cap: usize,
    cfg: &StackConfig,
    mut nic: impl FnMut(usize) -> (DpdkPort, SimClock),
) -> Vec<NetworkStack> {
    let ports = std::sync::Arc::new(PortAllocator::new());
    let shard = |(i, rings)| {
        let ((port, clock), ports) = (nic(i), ports.clone());
        NetworkStack::shard_of(port, clock, cfg.clone(), HostLinks { rings, ports })
    };
    net_stack::mesh(n, cap)
        .into_iter()
        .enumerate()
        .map(shard)
        .collect()
}

/// What [`settle`] drives: polled every pass, asked for its next timer.
pub trait Node {
    fn poll(&self);
    fn next_deadline(&self) -> Option<SimTime>;
}

impl Node for NetworkStack {
    fn poll(&self) {
        NetworkStack::poll(self);
    }
    fn next_deadline(&self) -> Option<SimTime> {
        NetworkStack::next_deadline(self)
    }
}

/// A sharded host: its stacks polled in shard order, as one thread would.
impl Node for Vec<NetworkStack> {
    fn poll(&self) {
        for s in self {
            s.poll();
        }
    }
    fn next_deadline(&self) -> Option<SimTime> {
        self.iter().filter_map(|s| s.next_deadline()).min()
    }
}

impl Node for RefCell<MtcpSim> {
    fn poll(&self) {
        self.borrow_mut().poll();
    }
    fn next_deadline(&self) -> Option<SimTime> {
        self.borrow().next_deadline()
    }
}

/// Polls `nodes` and advances virtual time — to the fabric's next event,
/// else to the earliest timer — until `until` holds (`true`) or nothing is
/// left to happen (`false`).
fn run(fabric: &Fabric, nodes: &[&dyn Node], mut until: impl FnMut() -> bool) -> bool {
    for _ in 0..2_000_000 {
        for n in nodes {
            n.poll();
        }
        if until() {
            return true;
        }
        if fabric.advance_to_next_event() {
            continue;
        }
        match nodes.iter().filter_map(|n| n.next_deadline()).min() {
            Some(t) => fabric.clock().advance_to(t),
            None => return false,
        }
    }
    panic!("simulation did not settle");
}

/// Runs the world until `until` holds. Quiescence with the condition
/// still false means the world wedged — never mask that as success.
pub fn settle(fabric: &Fabric, nodes: &[&dyn Node], until: impl FnMut() -> bool) {
    assert!(
        run(fabric, nodes, until),
        "simulation went quiescent before the condition held"
    );
}

/// Runs the world until frames drain and no timer is left armed.
pub fn quiesce(fabric: &Fabric, nodes: &[&dyn Node]) {
    run(fabric, nodes, || false);
}

/// Resolves ARP in both directions over a throwaway host-owned UDP port,
/// so later sends stage immediately instead of parking in the ARP
/// pending queue.
pub fn warm_arp(fabric: &Fabric, a: &NetworkStack, b: &NetworkStack) {
    a.udp_bind(9901).unwrap();
    b.udp_bind(9901).unwrap();
    let to_b = SocketAddr::new(b.local_ip(), 9901);
    let to_a = SocketAddr::new(a.local_ip(), 9901);
    a.udp_sendto(9901, to_b, DemiBuffer::from_slice(b"warm"))
        .unwrap();
    b.udp_sendto(9901, to_a, DemiBuffer::from_slice(b"warm"))
        .unwrap();
    settle(fabric, &[a, b], || {
        a.udp_pending(9901) > 0 && b.udp_pending(9901) > 0
    });
    while a.udp_recv_from(9901).is_some() {}
    while b.udp_recv_from(9901).is_some() {}
}

// ---------------------------------------------------------------------
// LibOS-level scenarios: client = host 1, server = host 2.
// ---------------------------------------------------------------------

/// Connects `client` to a fresh listener on `server`'s `port`; returns
/// (client qd, server connection qd).
pub fn tcp_pair(client: &dyn LibOs, server: &dyn LibOs, port: u16) -> (QDesc, QDesc) {
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(ip(2), port)).unwrap();
    server.listen(lqd, 8).unwrap();
    let aqt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let cqt = client.connect(cqd, SocketAddr::new(ip(2), port)).unwrap();
    let sqd = server.wait(aqt, None).unwrap().expect_accept();
    client.wait(cqt, None).unwrap();
    (cqd, sqd)
}

/// The port the framed-echo worlds serve on.
pub const ECHO_PORT: u16 = 7001;

/// Host-side framed echo loop on `sqd`: serves whatever the device does
/// not — idle while an offload serves, taking over on uninstall.
pub fn spawn_echo_server(rt: &Runtime, server: &Catnip, sqd: QDesc) {
    let server_clone = server.clone();
    rt.spawn_background("echo-server", async move {
        loop {
            let Ok(pop_qt) = server_clone.pop(sqd) else {
                return;
            };
            let OperationResult::Pop { sga, .. } = server_clone.runtime().await_op(pop_qt).await
            else {
                return;
            };
            let Ok(push_qt) = server_clone.push(sqd, &sga) else {
                return;
            };
            let _ = server_clone.runtime().await_op(push_qt).await;
        }
    });
}

/// An echo world with `flows` connections to one listener on a SmartNIC
/// server, each with a parked [`spawn_echo_server`] loop, and every one
/// served by the NIC; returns the client's queues.
pub fn armed_echo_flows(seed: u64, flows: usize) -> (Runtime, Catnip, Catnip, Vec<QDesc>) {
    let (rt, _fabric, client, server) = demikernel::testing::catnip_pair_offload(seed, 4);
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(ip(2), ECHO_PORT)).unwrap();
    server.listen(lqd, 8).unwrap();
    let connect = |_| {
        let aqt = server.accept(lqd).unwrap();
        let cqd = client.socket(SocketKind::Tcp).unwrap();
        let cqt = client.connect(cqd, SocketAddr::new(ip(2), ECHO_PORT));
        let sqd = server.wait(aqt, None).unwrap().expect_accept();
        client.wait(cqt.unwrap(), None).unwrap();
        spawn_echo_server(&rt, &server, sqd);
        cqd
    };
    let cqds = (0..flows).map(connect).collect();
    server.install_echo_offload(ECHO_PORT).unwrap();
    rt.settle(SimTime::from_micros(50_000));
    assert_eq!(server.offload_stats().unwrap().flows_armed, flows as u64);
    (rt, client, server, cqds)
}

/// Binds a UDP queue on each host — the server's on port 7, the client's on
/// 9000; returns (client qd, server qd, the server's address).
pub fn udp_pair(client: &dyn LibOs, server: &dyn LibOs) -> (QDesc, QDesc, SocketAddr) {
    let server_addr = SocketAddr::new(ip(2), 7);
    let sqd = server.socket(SocketKind::Udp).unwrap();
    server.bind(sqd, server_addr).unwrap();
    let cqd = client.socket(SocketKind::Udp).unwrap();
    client.bind(cqd, SocketAddr::new(ip(1), 9000)).unwrap();
    (cqd, sqd, server_addr)
}

/// Spawns a coroutine on `server`'s runtime reflecting every datagram that
/// arrives on `sqd` back to its sender, until the queue closes.
pub fn spawn_udp_echo<L: LibOs + Clone + 'static>(server: &L, sqd: QDesc) {
    let echo = server.clone();
    server.runtime().spawn_background("echo", async move {
        let rt = echo.runtime().clone();
        while let OperationResult::Pop { from, sga } = rt.await_op(echo.pop(sqd).unwrap()).await {
            let push = echo.pushto(sqd, &sga, from.unwrap()).unwrap();
            rt.await_op(push).await;
        }
    });
}

/// The serving loop of `examples/kv_server.rs` as a background coroutine
/// on `server`'s runtime; ends when the client closes the connection.
pub fn spawn_kv_server(
    server: &Catnip,
    conn_qd: QDesc,
    engine: Rc<RefCell<KvEngine>>,
    log: Option<(Catfs, QDesc)>,
) {
    let libos = server.clone();
    server
        .runtime()
        .spawn_background("test::kv_server", async move {
            let rt = libos.runtime().clone();
            let mut conn = KvConn::new();
            loop {
                let Ok(qt) = libos.pop_unframed(conn_qd) else {
                    return;
                };
                let OperationResult::Pop { sga, .. } = rt.await_op(qt).await else {
                    return;
                };
                for seg in sga.segments() {
                    conn.feed(seg.clone());
                }
                let r = engine.borrow_mut().drain(&mut conn, rt.now());
                if !r.immediate.is_empty() {
                    let qt = libos.push_unframed(conn_qd, &Sga::from_bufs(r.immediate));
                    let _ = rt.await_op(qt.expect("reply push")).await;
                }
                if let (Some(batch), Some((fs, log_qd))) = (r.batch, &log) {
                    let record = Sga::from_bufs(vec![batch]);
                    let _ = rt
                        .await_op(fs.push(*log_qd, &record).expect("log push"))
                        .await;
                    let qt = libos.push_unframed(conn_qd, &Sga::from_bufs(r.deferred));
                    let _ = rt.await_op(qt.expect("ack push")).await;
                }
            }
        });
}

/// One 64 B request from `cqd` to `to` through [`spawn_udp_echo`]: push,
/// wait, pop, wait — and the reply must be the request.
pub fn udp_echo_round(client: &dyn LibOs, cqd: QDesc, to: SocketAddr) {
    let sga = Sga::from_bufs(vec![DemiBuffer::from_slice(&[0xA5; 64])]);
    let qt = client.pushto(cqd, &sga, to).unwrap();
    client.wait(qt, None).unwrap();
    let qt = client.pop(cqd).unwrap();
    let (_, reply) = client.wait(qt, None).unwrap().expect_pop();
    assert_eq!(reply.to_vec(), [0xA5; 64]);
}

/// Mean virtual RTT (ns) of `rounds` lock-step UDP echoes of `size` bytes
/// between two hosts of one libOS, after an ARP-warming datagram — the
/// echo world E1 and E8 compare stacks on.
pub fn udp_echo_rtt(client: &dyn LibOs, server: &dyn LibOs, size: usize, rounds: u64) -> u64 {
    let (cqd, sqd, to) = udp_pair(client, server);
    client.pushto(cqd, &Sga::from_slice(b"warm"), to).unwrap();
    let (from, _) = server.blocking_pop(sqd).unwrap().expect_pop();
    let payload = vec![0xA5u8; size];
    let rt = client.runtime();
    let t0 = rt.now();
    for _ in 0..rounds {
        client.pushto(cqd, &Sga::from_slice(&payload), to).unwrap();
        let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
        server.pushto(sqd, &sga, from.unwrap()).unwrap();
        let _ = client.blocking_pop(cqd).unwrap();
    }
    rt.now().saturating_since(t0).as_nanos() / rounds
}

/// The same echo, `rounds` TCP round trips, with the client behind the
/// mTCP model (POSIX copies kept, syscalls gone, events released only at
/// `epoch` boundaries) and a plain stack serving. Returns the mean
/// virtual RTT (ns) and the client's (syscalls, copies).
pub fn mtcp_echo_rtt(seed: u64, size: usize, rounds: u64, epoch: SimTime) -> (u64, u64, u64) {
    let fabric = Fabric::new(seed);
    let server = host(&fabric, 2);
    let config = MtcpConfig { epoch };
    let mtcp = RefCell::new(MtcpSim::new(host(&fabric, 1), fabric.clock(), config));
    let lid = server.tcp_listen(80, 16).unwrap();
    let conn = mtcp
        .borrow_mut()
        .connect(SocketAddr::new(ip(2), 80))
        .unwrap();
    let mut sconn = None;
    settle(&fabric, &[&mtcp, &server], || {
        sconn = sconn.or_else(|| server.tcp_accept(lid).unwrap());
        sconn.is_some() && mtcp.borrow().stack().tcp_state(conn) == Ok(State::Established)
    });
    let sconn = sconn.unwrap();

    let payload = vec![0xA5u8; size];
    let mut buf = vec![0u8; size.max(64)];
    let t0 = fabric.clock().now();
    for _ in 0..rounds {
        mtcp.borrow_mut().send(conn, &payload).unwrap();
        let mut echoed = 0;
        settle(&fabric, &[&mtcp, &server], || {
            while let Ok(Some(chunk)) = server.tcp_recv(sconn) {
                echoed += chunk.len();
                server.tcp_send(sconn, chunk).unwrap();
            }
            echoed >= size
        });
        let mut got = 0;
        settle(&fabric, &[&mtcp, &server], || {
            while let Some(n) = mtcp.borrow_mut().recv(conn, &mut buf) {
                got += n;
            }
            got >= size
        });
    }
    let rtt = fabric.clock().now().saturating_since(t0).as_nanos() / rounds;
    let meter = mtcp.borrow().meter().stats();
    (rtt, meter.syscalls, meter.copies)
}

// ---------------------------------------------------------------------
// Load generators (E15): UDP echo on virtual time, latency into a
// histogram. The closed loop keeps a fixed number of requests
// outstanding and measures RTT; the open loop schedules Poisson arrivals
// up front and measures *sojourn* from the scheduled instant — not from
// the send — so a request delayed behind a queue is charged for its wait
// (no coordinated omission).
// ---------------------------------------------------------------------

/// One load-generator run.
pub struct LoadResult {
    /// Per-request latency (RTT for closed loop, sojourn for open loop).
    pub hist: Histogram,
    /// Virtual nanoseconds the measured phase spanned.
    pub elapsed_ns: u64,
}

impl LoadResult {
    /// Achieved request rate over the measured phase.
    pub fn achieved_ops_per_sec(&self) -> f64 {
        self.hist.count() as f64 * 1e9 / self.elapsed_ns as f64
    }
}

/// Absolute arrival instants (ns, ascending) of a Poisson process at
/// `rate_per_sec` from `start_ns`: exponential gaps `-ln(U) · mean`.
pub fn poisson_schedule(seed: u64, start_ns: u64, rate_per_sec: f64, count: usize) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_sec;
    let mut rng = SimRng::new(seed);
    let mut t = start_ns as f64;
    let mut arrival = || {
        // Never exactly 0, so the logarithm stays finite.
        t += -rng.next_f64().max(f64::MIN_POSITIVE).ln() * mean_gap_ns;
        t as u64
    };
    (0..count).map(|_| arrival()).collect()
}

/// An op whose result `op` computes, built the way an application builds
/// one from a future: a slot parked on a test-owned gate, which a
/// background task fires once it has put `op`'s result where the slot's
/// check takes it.
pub fn deferred_op(
    rt: &Runtime,
    name: &'static str,
    op: impl Future<Output = OperationResult> + 'static,
) -> QToken {
    let (gate, result) = (Notify::new(), Rc::new(Cell::new(None)));
    let check = {
        let result = result.clone();
        Rc::new(move |_, _| result.take())
    };
    let fire = gate.clone();
    rt.spawn_background(name, async move {
        result.set(Some(op.await));
        fire.notify_waiters();
    });
    rt.park_op(name, &gate, check, QDesc(0), 0)
}

/// Runs one echo workload: a server coroutine on host 2 reflecting every
/// request, and one client coroutine on its own socket per entry of
/// `plan(start_ns)` — a worker's list of requests, each fired at its
/// scheduled instant (latency counted from that instant) or, for `None`,
/// as soon as the previous reply landed (latency counted from the send).
fn run_load<L: LibOs + Clone + 'static>(
    rt: &Runtime,
    client: &L,
    server: &L,
    size: usize,
    plan: impl FnOnce(u64) -> Vec<Vec<Option<u64>>>,
) -> LoadResult {
    let (cqd, sqd, to) = udp_pair(client, server);
    spawn_udp_echo(server, sqd);
    // One throwaway round resolves ARP both ways before the clock starts.
    udp_echo_round(client, cqd, to);
    let _ = client.close(cqd);

    let start_ns = rt.now().as_nanos();
    let workers = plan(start_ns);
    let last_arrival = workers.iter().flatten().flatten().max().copied();
    let hist = Rc::new(RefCell::new(Histogram::new()));
    let tokens: Vec<_> = (10_000..)
        .zip(workers)
        .map(|(port, requests)| {
            let qd = client.socket(SocketKind::Udp).unwrap();
            client.bind(qd, SocketAddr::new(ip(1), port)).unwrap();
            let (client, hist) = (client.clone(), hist.clone());
            deferred_op(rt, "support::load_worker", async move {
                let rt = client.runtime().clone();
                let payload = vec![0xA5u8; size];
                for at in requests {
                    if let Some(at) = at {
                        rt.timers().sleep_until(SimTime::from_nanos(at)).await;
                    }
                    let from = at.unwrap_or(rt.now().as_nanos());
                    let push = client.pushto(qd, &Sga::from_slice(&payload), to);
                    rt.await_op(push.unwrap()).await;
                    let OperationResult::Pop { .. } = rt.await_op(client.pop(qd).unwrap()).await
                    else {
                        panic!("load generator lost a reply");
                    };
                    hist.borrow_mut().record(rt.now().as_nanos() - from);
                }
                let _ = client.close(qd);
                OperationResult::Push
            })
        })
        .collect();
    rt.wait_all(&tokens, None).unwrap();
    let end_ns = rt.now().as_nanos().max(last_arrival.unwrap_or(0));
    let hist = hist.borrow().clone();
    LoadResult {
        hist,
        elapsed_ns: end_ns - start_ns,
    }
}

/// Closed-loop echo: `concurrency` workers each run `rounds` sequential
/// request/response pairs. `concurrency == 1` measures the *unloaded* RTT
/// every open-loop curve is compared against.
pub fn closed_loop<L: LibOs + Clone + 'static>(
    rt: &Runtime,
    client: &L,
    server: &L,
    size: usize,
    concurrency: usize,
    rounds: usize,
) -> LoadResult {
    run_load(rt, client, server, size, |_| {
        vec![vec![None; rounds]; concurrency]
    })
}

/// Open-loop echo: `count` Poisson arrivals at `rate_per_sec`, each a
/// fresh coroutine that sleeps until its scheduled instant and fires one
/// request.
pub fn open_loop<L: LibOs + Clone + 'static>(
    rt: &Runtime,
    client: &L,
    server: &L,
    size: usize,
    rate_per_sec: f64,
    count: usize,
    seed: u64,
) -> LoadResult {
    run_load(rt, client, server, size, |start_ns| {
        let schedule = poisson_schedule(seed, start_ns, rate_per_sec, count);
        schedule.into_iter().map(|at| vec![Some(at)]).collect()
    })
}

// ---------------------------------------------------------------------
// The peer-level world (E18, E19): TCP peers wired back to back — no
// device, no fabric — so every count is protocol work and 100 000
// connections fit in a second.
// ---------------------------------------------------------------------

/// Client peers of a [`PeerWorld`]; each owns its own ephemeral range.
pub const PEER_CLIENTS: usize = 4;

/// Every segment `peer` has queued, drained into a fresh vector.
pub fn take_segments(peer: &mut TcpPeer) -> Vec<(Ipv4Addr, TcpSegmentOut)> {
    let mut out = Vec::new();
    peer.drain_segments(&mut out);
    out
}

fn peer_client_ip(i: usize) -> Ipv4Addr {
    ip(10 + i as u8)
}

/// One server peer listening on one port, [`PEER_CLIENTS`] client peers,
/// and the segment scratch that shuttles wire traffic between them.
pub struct PeerWorld {
    pub server: TcpPeer,
    pub clients: Vec<TcpPeer>,
    pub now: SimTime,
    /// Segments any peer has put on the wire.
    pub segments: u64,
    port: u16,
    backlog: usize,
    lid: ListenerId,
    scratch: Vec<(Ipv4Addr, TcpSegmentOut)>,
    /// Accepted server conns keyed by the client end of the 4-tuple.
    accepted: HashMap<(Ipv4Addr, u16), ConnId>,
}

impl PeerWorld {
    pub fn new(port: u16, backlog: usize) -> Self {
        let mut server = TcpPeer::new(ip(2), TcpConfig::default());
        let lid = server.listen(port, backlog).unwrap();
        let client = |i| TcpPeer::new(peer_client_ip(i), TcpConfig::default());
        PeerWorld {
            server,
            clients: (0..PEER_CLIENTS).map(client).collect(),
            now: SimTime::from_millis(1),
            segments: 0,
            port,
            backlog,
            lid,
            scratch: Vec::new(),
            accepted: HashMap::new(),
        }
    }

    /// Delivers all in-flight segments until the wire is quiet. Segments
    /// addressed to hosts that are neither the server nor a client (forged
    /// flood sources) fall on the floor.
    pub fn shuttle(&mut self) {
        for _ in 0..64 {
            let mut quiet = true;
            let mut scratch = std::mem::take(&mut self.scratch);
            for (i, client) in self.clients.iter_mut().enumerate() {
                client.drain_segments(&mut scratch);
                self.segments += scratch.len() as u64;
                for (_, seg) in scratch.drain(..) {
                    quiet = false;
                    let from = peer_client_ip(i);
                    self.server
                        .on_segment(from, &seg.header, seg.payload, self.now);
                }
            }
            self.server.drain_segments(&mut scratch);
            self.segments += scratch.len() as u64;
            for (dst, seg) in scratch.drain(..) {
                quiet = false;
                if let Some(i) = (0..PEER_CLIENTS).find(|&i| peer_client_ip(i) == dst) {
                    self.clients[i].on_segment(ip(2), &seg.header, seg.payload, self.now);
                }
            }
            self.scratch = scratch;
            if quiet {
                return;
            }
        }
        panic!("wire did not go quiet");
    }

    /// Advances virtual time by `dt`, firing every timer deadline on the
    /// way (delayed ACKs, compaction, TIME_WAIT expiry) and delivering
    /// whatever the firings emit.
    pub fn advance_by(&mut self, dt: SimTime) {
        let target = self.now.saturating_add(dt);
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

    /// Opens `total` connections split evenly across the client peers,
    /// runs the handshakes to completion and returns each as (client
    /// index, client conn, server conn). Connects go out in waves no
    /// larger than half the SYN table: the table is fixed-size and the
    /// accept queue refuses completions past the backlog, so an unbounded
    /// burst would evict its own half-open entries.
    pub fn establish(&mut self, total: usize) -> Vec<(usize, ConnId, ConnId)> {
        let mut conns = Vec::with_capacity(total);
        while conns.len() < total {
            let wave: Vec<_> = (conns.len()..total.min(conns.len() + self.backlog / 2))
                .map(|k| {
                    let i = k % PEER_CLIENTS;
                    let to = SocketAddr::new(ip(2), self.port);
                    (i, self.clients[i].connect(to, self.now).unwrap())
                })
                .collect();
            self.shuttle();
            while let Ok(Some(s)) = self.server.accept(self.lid) {
                let r = self.server.remote(s).unwrap();
                self.accepted.insert((r.ip, r.port), s);
            }
            for (i, c) in wave {
                assert_eq!(self.clients[i].state(c), Ok(State::Established));
                let local = self.clients[i].local(c).unwrap();
                conns.push((i, c, self.accepted[&(peer_client_ip(i), local.port)]));
            }
        }
        conns
    }
}

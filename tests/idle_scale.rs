//! The idle-scale matrix: which per-request costs still grow with idle
//! state. Each row holds one kind of idle state beside a warmed echo, at
//! several sizes; each column is one cost of a warmed round, read from the
//! counters — scheduler polls and wakeups, the device's O(idle) visits
//! (offload-engine flow-table walks, RDMA and NVMe queue-pair visits) and
//! heap allocations. Wall time per round is printed, not asserted.
//!
//! A row whose cost is flat asserts equality across its sizes. A column
//! that still grows pins today's exact count and names the open item that
//! flattens it, so the matrix only tightens.
//!
//! Every parked op waits on its own socket's gate (DESIGN.md, "Waker-driven
//! readiness scheduling"), so an idle parked pop costs a round nothing:
//! the rows of parked pops and of NIC-served flows are flat. The idle pops
//! are parked op slots, not threads.

mod support;

use std::time::Instant;

use demikernel::testing::{
    catcorn_pair, catfs_world, catnap_pair, catnip_pair, host_ip, AllocMeter,
};
use demikernel::types::{QDesc, QToken};
use demikernel::{LibOs, Runtime};
use net_stack::types::SocketAddr;
use sim_fabric::SimTime;
use support::alloc_sites::SiteAlloc;
use support::{armed_echo_flows, tcp_pair, udp_pair, ECHO_PORT};

#[global_allocator]
static ALLOCATOR: SiteAlloc = SiteAlloc;

/// Rounds that warm every pool, ring and slab before the measured ones.
const WARM: usize = 50;
/// Measured rounds per cell.
const ROUNDS: u64 = 20;

/// Parked idle ops per row.
const SIZES: [usize; 4] = [0, 16, 256, 1024];

/// One cell of the matrix: the costs of [`ROUNDS`] warmed rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    polls: u64,
    wakeups: u64,
    /// Flow-table walks (the NIC-served row) or queue-pair visits (the
    /// RDMA and NVMe rows); 0 where the row's device has none.
    visits: u64,
    allocs: u64,
}

/// Runs [`WARM`] rounds, then measures [`ROUNDS`] more; prints the cell
/// per round, with its wall time.
fn measure(
    row: &str,
    idle: usize,
    rt: &Runtime,
    visits: impl Fn() -> u64,
    mut round: impl FnMut(),
) -> Cost {
    (0..WARM).for_each(|_| round());
    let (sched, visited) = (rt.scheduler().stats(), visits());
    let start = Instant::now();
    let meter = AllocMeter::arm();
    (0..ROUNDS).for_each(|_| round());
    let allocs = meter.count();
    drop(meter);
    let wall = start.elapsed() / ROUNDS as u32;
    let after = rt.scheduler().stats();
    let cost = Cost {
        polls: after.polls - sched.polls,
        wakeups: after.wakeups - sched.wakeups,
        visits: visits() - visited,
        allocs,
    };
    let per = |n: u64| n as f64 / ROUNDS as f64;
    println!(
        "{row:<28} idle {idle:>5}: polls {:>5.1}  wakeups {:>5.1}  visits {:>6.1}  allocs {:>4.1}  wall {wall:>9.1?}/round",
        per(cost.polls),
        per(cost.wakeups),
        per(cost.visits),
        per(cost.allocs),
    );
    cost
}

/// `n` UDP queues on `libos`, bound from port 2 000 up, each with a pop
/// parked that nothing will ever complete.
fn park_udp_pops(libos: &dyn LibOs, n: usize) -> Vec<QToken> {
    let park = |i: usize| {
        let qd = libos.socket(demikernel::libos::SocketKind::Udp).unwrap();
        let addr = SocketAddr::new(host_ip(2), 2_000 + i as u16);
        libos.bind(qd, addr).unwrap();
        libos.pop(qd).unwrap()
    };
    let parked = (0..n).map(park).collect();
    libos.runtime().pump();
    parked
}

/// One lock-step 64 B UDP echo between two queues, both sides driven by
/// the test.
fn udp_round(client: &dyn LibOs, cqd: QDesc, server: &dyn LibOs, sqd: QDesc, to: SocketAddr) {
    let mut request = client.sgaalloc(64);
    request.segments_mut()[0].try_mut().unwrap().fill(0xA5);
    let qt = client.pushto(cqd, &request, to).unwrap();
    client.wait(qt, None).unwrap();
    let (from, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
    let qt = server.pushto(sqd, &sga, from.unwrap()).unwrap();
    server.wait(qt, None).unwrap();
    let (_, reply) = client.blocking_pop(cqd).unwrap().expect_pop();
    assert_eq!(reply.segments()[0].as_slice(), &[0xA5; 64]);
}

/// A UDP echo beside `idle` parked UDP pops on the server, on catnip or
/// catnap.
fn udp_row(
    row: &str,
    idle: usize,
    pair: impl Fn() -> (Runtime, Box<dyn LibOs>, Box<dyn LibOs>),
) -> Cost {
    let (rt, client, server) = pair();
    let (cqd, sqd, to) = udp_pair(&*client, &*server);
    let _parked = park_udp_pops(&*server, idle);
    measure(
        row,
        idle,
        &rt,
        || 0,
        || udp_round(&*client, cqd, &*server, sqd, to),
    )
}

/// Every size of a row costs what its first does, and that is `expect`.
fn assert_flat(row: &str, cells: &[(usize, Cost)], expect: Cost) {
    for &(idle, cost) in cells {
        assert_eq!(
            cost, expect,
            "{row}: {ROUNDS} warmed rounds beside {idle} idle"
        );
    }
}

/// Parked catnip UDP pops: each waits on its own socket's gate, so an
/// echo costs 4 polls and 2 wakeups a round however many there are (the
/// runtime-wide activity gate made it `4 + 2n` and `2 + 2n`), and
/// allocates nothing.
#[test]
fn parked_catnip_udp_pops_cost_a_udp_echo_nothing() {
    let pair = || {
        let (rt, _fabric, client, server) = catnip_pair(41);
        (
            rt,
            Box::new(client) as Box<dyn LibOs>,
            Box::new(server) as Box<dyn LibOs>,
        )
    };
    let row = "catnip UDP echo, parked pops";
    let cells: Vec<_> = SIZES.iter().map(|&n| (n, udp_row(row, n, pair))).collect();
    let expect = Cost {
        polls: 4 * ROUNDS,
        wakeups: 2 * ROUNDS,
        visits: 0,
        allocs: 0,
    };
    assert_flat(row, &cells, expect);
}

/// Parked catnap pops: the kernel socket's gate is the stack's, read
/// through `KernelSockets::gate`; the baseline's own copies allocate, the
/// same number at every size.
#[test]
fn parked_catnap_udp_pops_cost_a_udp_echo_nothing() {
    let pair = || {
        let (rt, _fabric, client, server) = catnap_pair(41);
        (
            rt,
            Box::new(client) as Box<dyn LibOs>,
            Box::new(server) as Box<dyn LibOs>,
        )
    };
    let row = "catnap UDP echo, parked pops";
    let cells: Vec<_> = SIZES.iter().map(|&n| (n, udp_row(row, n, pair))).collect();
    let expect = Cost {
        polls: 4 * ROUNDS,
        wakeups: 2 * ROUNDS,
        visits: 0,
        allocs: cells[0].1.allocs,
    };
    assert_flat(row, &cells, expect);
}

/// Parked pops on idle catnip TCP connections: each waits on its own
/// connection's gate, which only that connection's data, EOF or state
/// change fires.
#[test]
fn parked_catnip_tcp_pops_cost_a_tcp_echo_nothing() {
    let row = "catnip TCP echo, parked pops";
    let cell = |idle: usize| {
        let (rt, _fabric, client, server) = catnip_pair(41);
        let (cqd, sqd) = tcp_pair(&client, &server, ECHO_PORT);
        let lqd = server.socket(demikernel::libos::SocketKind::Tcp).unwrap();
        let addr = SocketAddr::new(host_ip(2), 81);
        server.bind(lqd, addr).unwrap();
        server.listen(lqd, 8).unwrap();
        let park = |_| {
            let aqt = server.accept(lqd).unwrap();
            let qd = client.socket(demikernel::libos::SocketKind::Tcp).unwrap();
            let cqt = client.connect(qd, addr).unwrap();
            let sqd = server.wait(aqt, None).unwrap().expect_accept();
            client.wait(cqt, None).unwrap();
            server.pop(sqd).unwrap()
        };
        let _parked: Vec<_> = (0..idle).map(park).collect();
        rt.settle(SimTime::from_millis(50));
        let round = || {
            let mut request = client.sgaalloc(64);
            request.segments_mut()[0].try_mut().unwrap().fill(0x5A);
            let qt = client.push(cqd, &request).unwrap();
            client.wait(qt, None).unwrap();
            let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
            let qt = server.push(sqd, &sga).unwrap();
            server.wait(qt, None).unwrap();
            let (_, reply) = client.blocking_pop(cqd).unwrap().expect_pop();
            assert_eq!(reply.segments()[0].as_slice(), &[0x5A; 64]);
        };
        (idle, measure(row, idle, &rt, || 0, round))
    };
    let cells: Vec<_> = SIZES.iter().map(|&n| cell(n)).collect();
    let expect = Cost {
        polls: 4 * ROUNDS,
        wakeups: 2 * ROUNDS,
        visits: 0,
        allocs: 0,
    };
    assert_flat(row, &cells, expect);
}

/// NIC-armed echo flows, one request served by the device a round: the
/// host is sent nothing, and with per-socket gates its 1 000 parked echo
/// loops stay parked (the activity gate polled every one of them twice a
/// round). The planner still walks the engine's flow table twice a round,
/// each walk O(flows), until ROADMAP item 1(b) makes the walk O(changed).
#[test]
fn nic_served_flows_cost_a_served_echo_nothing_but_the_walk() {
    let row = "NIC-served echo, armed flows";
    let cell = |flows: usize| {
        let (rt, client, server, cqds) = armed_echo_flows(41, flows);
        let walks = || server.stack().shard_stats().offload_walks;
        let mut fill = 0u8;
        let round = || {
            fill = fill.wrapping_add(1);
            let mut request = client.sgaalloc(64);
            request.segments_mut()[0].try_mut().unwrap().fill(fill);
            let qt = client.push(cqds[0], &request).unwrap();
            client.wait(qt, None).unwrap();
            let (_, reply) = client.blocking_pop(cqds[0]).unwrap().expect_pop();
            assert_eq!(reply.segments()[0].as_slice(), &[fill; 64]);
            rt.settle(SimTime::from_micros(200));
        };
        let served = server.offload_stats().unwrap().served;
        let cost = measure(row, flows, &rt, walks, round);
        let stats = server.offload_stats().unwrap();
        assert_eq!(
            stats.served - served,
            WARM as u64 + ROUNDS,
            "every request served on the NIC"
        );
        (flows, cost)
    };
    let cells = [cell(1), cell(1000)];
    let expect = Cost {
        polls: cells[0].1.polls,
        wakeups: cells[0].1.wakeups,
        visits: 2 * ROUNDS,
        allocs: 0,
    };
    assert_flat(row, &cells, expect);
}

/// One lock-step 64 B echo over a connected stream queue pair.
fn stream_round(client: &dyn LibOs, cqd: QDesc, server: &dyn LibOs, sqd: QDesc) {
    let mut request = client.sgaalloc(64);
    request.segments_mut()[0].try_mut().unwrap().fill(0x3C);
    let qt = client.push(cqd, &request).unwrap();
    client.wait(qt, None).unwrap();
    let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
    let qt = server.push(sqd, &sga).unwrap();
    server.wait(qt, None).unwrap();
    let (_, reply) = client.blocking_pop(cqd).unwrap().expect_pop();
    assert_eq!(reply.segments()[0].as_slice(), &[0x3C; 64]);
}

/// Idle RDMA queue pairs on the server's HCA beside a catcorn echo: every
/// device poll sweeps every queue pair's timers and every deadline scan
/// reads every queue pair, so a round visits `a + b·n` of them. Not flat
/// yet: ROADMAP item 11 (one timer wheel per runtime) makes both
/// O(due). Pinned at today's exact counts so the fix turns this row into
/// an equality.
#[test]
fn idle_rdma_qps_cost_a_catcorn_echo_a_visit_each_per_poll() {
    let row = "catcorn echo, idle RDMA QPs";
    let cell = |idle: usize| {
        let (rt, _fabric, client, server) = catcorn_pair(43);
        let (cqd, sqd) = tcp_pair(&client, &server, 18515);
        let dev = server.device();
        let (pd, cq) = (dev.alloc_pd(), dev.create_cq());
        for _ in 0..idle {
            dev.create_qp(pd, cq, cq);
        }
        let visits = || dev.stats().qp_visits;
        let round = || stream_round(&client, cqd, &server, sqd);
        (idle, measure(row, idle, &rt, visits, round))
    };
    let cells = [cell(1), cell(1000)];
    let (one, many) = (cells[0].1, cells[1].1);
    assert_eq!(
        (one.polls, one.wakeups, one.allocs),
        (many.polls, many.wakeups, many.allocs),
        "{row}: only the device's visits may grow"
    );
    assert_eq!(
        (one.visits, many.visits),
        RDMA_QP_VISITS,
        "{row}: O(queue pairs) per poll until ROADMAP item 11"
    );
}

/// Queue-pair visits of [`ROUNDS`] catcorn echo rounds beside 1 and 1 000
/// idle queue pairs, as measured: 14 sweeps a round, each over the
/// connection's queue pair and the idle ones (`--nocapture` prints them
/// per round).
const RDMA_QP_VISITS: (u64, u64) = (ROUNDS * 14 * 2, ROUNDS * 14 * 1001);

/// Idle NVMe queue pairs beside a catfs append: the runtime's deadline
/// scan reads every queue pair of the device on each call. Not flat yet:
/// ROADMAP item 11. Pinned at today's exact counts.
#[test]
fn idle_nvme_qpairs_cost_a_catfs_append_a_visit_each_per_scan() {
    let row = "catfs append, idle NVMe qpairs";
    let cell = |idle: usize| {
        let (rt, catfs, dev) = catfs_world();
        let qd = catfs.create("log").unwrap();
        for _ in 0..idle {
            dev.alloc_qpair();
        }
        let visits = || dev.stats().qpair_visits;
        let round = || {
            let mut record = catfs.sgaalloc(64);
            record.segments_mut()[0].try_mut().unwrap().fill(0x7E);
            let qt = catfs.push(qd, &record).unwrap();
            catfs.wait(qt, None).unwrap();
        };
        (idle, measure(row, idle, &rt, visits, round))
    };
    let cells = [cell(1), cell(1000)];
    let (one, many) = (cells[0].1, cells[1].1);
    assert_eq!(
        (one.polls, one.wakeups, one.allocs),
        (many.polls, many.wakeups, many.allocs),
        "{row}: only the device's visits may grow"
    );
    assert_eq!(
        (one.visits, many.visits),
        NVME_QPAIR_VISITS,
        "{row}: O(queue pairs) per deadline scan until ROADMAP item 11"
    );
}

/// Queue-pair visits of [`ROUNDS`] catfs appends beside 1 and 1 000 idle
/// queue pairs, as measured: one deadline scan a round over catfs's own
/// queue pair and the idle ones.
const NVME_QPAIR_VISITS: (u64, u64) = (ROUNDS * 2, ROUNDS * 1001);

//! E17 — device-side offload programs: the host gets out of the data
//! path entirely for the requests a restricted device program can answer.
//!
//! Three A/B pairs, each measuring *host work per operation* (frames the
//! host stack received plus frames it transmitted — every one is a
//! host-device crossing) with and without the offload installed:
//!
//! * **TCP echo**: the NIC short-circuits complete framed echo requests,
//!   generating the reply and the ACK on the device. Asserted: the
//!   offloaded path does ≥80% less host work per op, every op is served
//!   on the device, and device cycles are charged for each.
//! * **KV GET**: the NIC-resident GET cache answers hits from device
//!   memory. Same assertions, against the host-served GET path.
//! * **storage chained lookup**: an N-hop pointer chase is one host
//!   submission with device-side resubmission, vs N submissions for the
//!   host read loop. Asserted: exactly 1 host submission, 0 host-visible
//!   reads, N device hops, and a byte-identical final block.
//!
//! Also asserted: the `Map` device path rewrites frames in place — zero
//! heap allocations and zero copy fallbacks across a burst (the E6
//! filter-path claim, subsumed here for the rewrite path).
//!
//! The device-served echo RTT by payload size is written to
//! `target/bench_e17.json` as a plottable artifact.

use std::collections::HashMap;
use std::rc::Rc;

use criterion::{criterion_group, criterion_main, Criterion};
use demi_bench::Table;
use demi_memory::DemiBuffer;
use demi_telemetry::hist::Histogram;
use demi_telemetry::loadgen::{Curve, CurvePoint};
use demikernel::libos::catnip::Catnip;
use demikernel::libos::{LibOs, SocketKind};
use demikernel::runtime::Runtime;
use demikernel::testing::{
    catfs_world, catnip_pair, catnip_pair_offload, host_ip, AllocMeter, CountingAlloc,
};
use demikernel::types::{OperationResult, QDesc, Sga};
use dpdk_sim::{NicProgram, SmartNic};
use net_stack::types::SocketAddr;
use sim_fabric::SimTime;
use spdk_sim::nvme::BLOCK_SIZE;
use spdk_sim::ChainSpec;

/// Counts this thread's heap allocations inside an `AllocMeter` window,
/// so the in-place-rewrite claim is measured, not assumed.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const ECHO_PORT: u16 = 7;
const KV_PORT: u16 = 6379;
const OPS: usize = 64;
const SEED: u64 = 17;

/// Connects client to a freshly-listening server.
fn tcp_pair(client: &Catnip, server: &Catnip, port: u16) -> (QDesc, QDesc) {
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(host_ip(2), port)).unwrap();
    server.listen(lqd, 8).unwrap();
    let aqt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let cqt = client
        .connect(cqd, SocketAddr::new(host_ip(2), port))
        .unwrap();
    let sqd = server.wait(aqt, None).unwrap().expect_accept();
    client.wait(cqt, None).unwrap();
    (cqd, sqd)
}

/// One lock-step request: push, await the push, pop one framed reply.
fn request(client: &Catnip, qd: QDesc, req: &[u8]) -> Vec<u8> {
    client.blocking_push(qd, &Sga::from_slice(req)).unwrap();
    let (_, reply) = client.blocking_pop(qd).unwrap().expect_pop();
    reply.to_vec()
}

/// Host-side server loop: echoes on `kv == false`, serves GET/SET on
/// `kv == true` (the device answers first whenever it can).
fn spawn_server(rt: &Runtime, server: &Catnip, sqd: QDesc, kv: Option<HashMap<Vec<u8>, Vec<u8>>>) {
    let server_clone = server.clone();
    let mut store = kv;
    rt.spawn_background("e17-server", async move {
        loop {
            let Ok(pop_qt) = server_clone.pop(sqd) else {
                return;
            };
            let OperationResult::Pop { sga, .. } = server_clone.runtime().await_op(pop_qt).await
            else {
                return;
            };
            let reply = match &mut store {
                None => sga.to_vec(),
                Some(map) => {
                    let req = sga.to_vec();
                    match req.first() {
                        Some(b'G') => match map.get(&req[1..]) {
                            Some(v) => {
                                let mut r = vec![b'V'];
                                r.extend_from_slice(v);
                                r
                            }
                            None => vec![b'N'],
                        },
                        _ => vec![b'E'],
                    }
                }
            };
            let Ok(push_qt) = server_clone.push(sqd, &Sga::from_slice(&reply)) else {
                return;
            };
            let _ = server_clone.runtime().await_op(push_qt).await;
        }
    });
}

/// One measured A/B leg.
struct PathReport {
    /// Server-side host frames (rx + tx) per operation.
    host_frames_per_op: f64,
    /// Device cycles charged during the measured window.
    device_cycles: u64,
    /// Requests served device-side during the measured window.
    device_served: u64,
    /// Per-op round-trip latencies.
    hist: Histogram,
    /// Virtual time the measured window took.
    elapsed_ns: u64,
}

/// Runs `ops` lock-step ops through `work`, accounting server host
/// frames and device counters around the window.
fn measure(rt: &Runtime, server: &Catnip, ops: usize, mut work: impl FnMut(usize)) -> PathReport {
    let port = server.port();
    let p0 = port.stats();
    let n0 = port.smartnic_stats();
    let mut hist = Histogram::new();
    let t0 = rt.now();
    for i in 0..ops {
        let s = rt.now();
        work(i);
        hist.record(rt.now().saturating_since(s).as_nanos());
    }
    let elapsed_ns = rt.now().saturating_since(t0).as_nanos();
    let p1 = port.stats();
    let n1 = port.smartnic_stats();
    PathReport {
        host_frames_per_op: ((p1.rx_frames - p0.rx_frames) + (p1.tx_frames - p0.tx_frames)) as f64
            / ops as f64,
        device_cycles: n1.device_cycles - n0.device_cycles,
        device_served: n1.frames_served - n0.frames_served,
        hist,
        elapsed_ns,
    }
}

/// The TCP echo leg: `offloaded` installs the NIC echo short-circuit.
fn echo_path(offloaded: bool, payload: usize) -> PathReport {
    let (rt, _fabric, client, server) = if offloaded {
        catnip_pair_offload(SEED, 4)
    } else {
        catnip_pair(SEED)
    };
    let (cqd, sqd) = tcp_pair(&client, &server, ECHO_PORT);
    spawn_server(&rt, &server, sqd, None);
    if offloaded {
        server.install_echo_offload(ECHO_PORT).unwrap();
    }
    // Warm one op, then let the flow quiesce so the device (re-)arms.
    let msg = vec![0xA5u8; payload];
    assert_eq!(request(&client, cqd, &msg), msg);
    rt.settle(SimTime::from_micros(50_000));

    measure(&rt, &server, OPS, |i| {
        let msg = vec![i as u8; payload];
        assert_eq!(request(&client, cqd, &msg), msg);
    })
}

/// The KV GET leg: `offloaded` warms the NIC-resident cache so every
/// measured GET is a device hit.
fn kv_path(offloaded: bool) -> PathReport {
    let (rt, _fabric, client, server) = if offloaded {
        catnip_pair_offload(SEED, 4)
    } else {
        catnip_pair(SEED)
    };
    let (cqd, sqd) = tcp_pair(&client, &server, KV_PORT);
    let keys: Vec<(Vec<u8>, Vec<u8>)> = (0..16)
        .map(|k| {
            (
                format!("key{k}").into_bytes(),
                format!("value-{k:032}").into_bytes(),
            )
        })
        .collect();
    spawn_server(&rt, &server, sqd, Some(keys.iter().cloned().collect()));
    if offloaded {
        server.install_kv_offload(KV_PORT, 64 * 1024).unwrap();
        for (k, v) in &keys {
            assert!(server.offload_cache_insert(k, v));
        }
    }
    let probe = request(&client, cqd, b"Gkey0");
    assert_eq!(&probe[..1], b"V");
    rt.settle(SimTime::from_micros(50_000));

    measure(&rt, &server, OPS, |i| {
        let (k, v) = &keys[i % keys.len()];
        let mut req = vec![b'G'];
        req.extend_from_slice(k);
        let reply = request(&client, cqd, &req);
        assert_eq!(&reply[1..], v.as_slice(), "GET must return the value");
    })
}

/// Builds an 8-hop on-disk chain and walks it both ways. Returns
/// (host-loop reads, device-chase reads, chases, device hops, and
/// whether the two walks ended on identical bytes).
fn chase_ab() -> (u64, u64, u64, u64, bool) {
    let (rt, catfs, device) = catfs_world();
    let lbas: [u64; 8] = [100, 205, 3, 77, 150, 42, 9, 1000];
    let qp = device.alloc_qpair();
    for (i, &lba) in lbas.iter().enumerate() {
        let mut block = vec![0u8; BLOCK_SIZE];
        let next = lbas.get(i + 1).copied().unwrap_or(u64::MAX);
        block[0..8].copy_from_slice(&next.to_le_bytes());
        block[16..24].copy_from_slice(&(0xC0FFEE00 + i as u64).to_le_bytes());
        device.submit_write(qp, i as u64 + 1, lba, &block).unwrap();
        while device.in_flight(qp) > 0 {
            if let Some(t) = device.next_deadline() {
                rt.clock().advance_to(t);
            }
            device.poll_completions(qp, 16);
        }
    }
    let spec = ChainSpec {
        start_lba: lbas[0],
        pointer_offset: 0,
        sentinel: u64::MAX,
        max_hops: 32,
    };
    let pop_block = |qt| match rt.wait(qt, None).unwrap() {
        OperationResult::Pop { sga, .. } => sga.to_vec(),
        other => panic!("chase returned {other:?}"),
    };
    let s0 = catfs.device_stats();
    let host_block = pop_block(catfs.chase_host(spec));
    let s1 = catfs.device_stats();
    let dev_block = pop_block(catfs.chase(spec));
    let s2 = catfs.device_stats();
    (
        s1.reads - s0.reads,
        s2.reads - s1.reads,
        s2.chases - s1.chases,
        s2.chase_hops - s1.chase_hops,
        host_block == dev_block,
    )
}

/// The `Map` device path rewrites frames in place: zero heap allocations
/// and zero copy fallbacks across a burst of exclusive buffers.
fn assert_map_device_path_zero_alloc() {
    let mut nic = SmartNic::new(2);
    nic.install(NicProgram::Map {
        transform: Rc::new(|f: &mut [u8]| {
            for b in f.iter_mut() {
                *b = b.wrapping_add(1);
            }
        }),
        cycles_per_frame: 2,
    })
    .unwrap();
    let mut frames: Vec<DemiBuffer> = (0..256)
        .map(|i| DemiBuffer::from_slice(&[i as u8; 64]))
        .collect();
    let meter = AllocMeter::arm();
    for f in frames.iter_mut() {
        nic.process_rx(f, SimTime::ZERO);
    }
    let allocs = meter.count();
    drop(meter);
    assert_eq!(allocs, 0, "Map must rewrite frames in place, not allocate");
    assert_eq!(
        nic.slot_stats()[0].copy_fallbacks,
        0,
        "exclusive buffers must never trigger the copy fallback"
    );
    println!("paper check: 256 frames mapped on-device with {allocs} heap allocations\n");
}

fn experiment_tables() {
    let mut table = Table::new(
        "E17: host work per op, host-served vs NIC-served (64 ops each)",
        &[
            "path",
            "host frames/op",
            "device served",
            "device cycles",
            "p50 RTT",
        ],
    );
    let mut check = |label: &str, host: &PathReport, dev: &PathReport| {
        for (tag, r) in [("host", host), ("NIC", dev)] {
            table.row(&[
                format!("{label} ({tag})"),
                format!("{:.2}", r.host_frames_per_op),
                format!("{}", r.device_served),
                format!("{}", r.device_cycles),
                format!("{}ns", r.hist.p50()),
            ]);
        }
        assert_eq!(
            dev.device_served, OPS as u64,
            "{label}: every op must be served on the device"
        );
        assert!(
            dev.device_cycles >= dev.device_served,
            "{label}: device-served ops must charge device cycles"
        );
        assert_eq!(host.device_served, 0, "{label}: host path has no device");
        assert!(
            dev.host_frames_per_op <= 0.2 * host.host_frames_per_op,
            "{label}: offload must cut host work per op by >=80% \
             (host {:.2} frames/op, device {:.2})",
            host.host_frames_per_op,
            dev.host_frames_per_op
        );
    };
    let (echo_host, echo_dev) = (echo_path(false, 64), echo_path(true, 64));
    check("TCP echo 64B", &echo_host, &echo_dev);
    let (kv_host, kv_dev) = (kv_path(false), kv_path(true));
    check("KV GET", &kv_host, &kv_dev);
    table.print();

    let (host_reads, dev_reads, chases, hops, same) = chase_ab();
    let mut t2 = Table::new(
        "E17: 8-hop chained lookup — host read loop vs device resubmission",
        &["path", "host submissions", "device hops"],
    );
    t2.row(&["host loop".into(), format!("{host_reads}"), "0".into()]);
    t2.row(&[
        "device chase".into(),
        format!("{chases}"),
        format!("{hops}"),
    ]);
    t2.print();
    assert_eq!(host_reads, 8, "host loop pays one submission per hop");
    assert_eq!(chases, 1, "device chase is exactly one host submission");
    assert_eq!(dev_reads, 0, "device hops are not host-visible reads");
    assert_eq!(hops, 8, "device walks the full chain");
    assert!(same, "both walks must end on identical bytes");
    println!(
        "paper check: 8-hop chase = {host_reads} host submissions on the host \
         loop vs {chases} with device-side resubmission\n"
    );

    // Plottable artifact: device-served echo RTT by payload size.
    let mut curve = Curve::new("E17 NIC-served TCP echo, closed loop; offered = payload bytes");
    for payload in [16usize, 64, 256, 1024] {
        let r = echo_path(true, payload);
        curve.push(CurvePoint::from_histogram(
            payload as f64,
            r.elapsed_ns,
            &r.hist,
        ));
    }
    let json = curve.to_json();
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/bench_e17.json", &json).expect("write curve artifact");
    println!(
        "curve artifact: target/bench_e17.json ({} bytes)",
        json.len()
    );
}

fn bench(c: &mut Criterion) {
    assert_map_device_path_zero_alloc();
    experiment_tables();
    let mut group = c.benchmark_group("e17_offload");
    group.sample_size(10);
    group.bench_function("host_echo_world", |b| {
        b.iter(|| echo_path(criterion::black_box(false), 64))
    });
    group.bench_function("device_echo_world", |b| {
        b.iter(|| echo_path(criterion::black_box(true), 64))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

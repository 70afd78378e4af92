//! E16 — thread-per-shard multi-core execution.
//!
//! E14 measured shard scaling through a makespan *model* (frames on the
//! busiest shard as a proxy for the busiest core). This experiment
//! retires the proxy: the same shard worlds now run on real OS threads
//! ([`demikernel::exec::run_shards`]), so aggregate throughput is a
//! *wall-clock* measurement — fixed total work, sequential vs threaded,
//! speedup = t(1 thread) / t(N threads).
//!
//! Claims checked:
//!
//! * **correctness is mode-independent** (asserted always): every world's
//!   echo stream survives byte-identical and every KV reply is right, in
//!   both execution modes; total completed ops are conserved.
//! * **tails don't collapse** (asserted always): each shard world's
//!   virtual-time op-latency p99 under threaded execution stays within
//!   1.5x of the single-world baseline p99 — sharding buys throughput
//!   without trading away per-flow latency.
//! * **>= 3x wall-clock speedup at 4 threads** (asserted only when the
//!   machine has >= 4 CPUs, per `std::thread::available_parallelism`):
//!   shard worlds share nothing but lock-free rings and a port bitmap,
//!   so with a core per world the speedup is bounded by spawn overhead,
//!   not by coordination. On smaller hosts the measured ratio is printed
//!   for the record and the threshold is skipped — a 1-core container
//!   cannot exhibit parallelism, only the absence of slowdown.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use demi_bench::Table;
use demi_telemetry::stage::{self, Stage};
use demikernel::exec::{ExecMode, ShardSpec};
use demikernel::libos::{LibOs, SocketKind};
use demikernel::testing::{catnip_shard_world, host_ip, ShardWorld};
use demikernel::types::{QDesc, Sga};
use net_stack::types::SocketAddr;

const WORLDS: usize = 4;
const ECHO_OPS_PER_WORLD: usize = 200;
const KV_OPS_PER_WORLD: usize = 150;
const PAYLOAD: usize = 64;
const TRIALS: usize = 3;

/// What one shard world reports back: completed operations and the
/// world's virtual-time op-latency tail (measured on the world's own
/// thread, where its stage histograms live).
struct WorldOut {
    ops: u64,
    p99_virt_ns: u64,
}

/// Builds the world, runs `work`, and measures the per-world op-latency
/// histogram around it. The reset keeps sequential mode honest: all
/// worlds share the main thread's histograms there, so each world must
/// start from a clean slate.
fn instrumented(spec: ShardSpec, work: impl FnOnce(&ShardWorld) -> u64) -> WorldOut {
    let world = catnip_shard_world(spec, 0xE16);
    stage::reset();
    demi_telemetry::set_enabled(true);
    let ops = work(&world);
    demi_telemetry::set_enabled(false);
    WorldOut {
        ops,
        p99_virt_ns: stage::snapshot(Stage::OpLatency).p99(),
    }
}

fn connect_pair(world: &ShardWorld, port: u16) -> (QDesc, QDesc) {
    let (client, server) = (&world.client, &world.server);
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(host_ip(2), port)).unwrap();
    server.listen(lqd, 8).unwrap();
    let aqt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let cqt = client
        .connect(cqd, SocketAddr::new(host_ip(2), port))
        .unwrap();
    let sqd: QDesc = server.wait(aqt, None).unwrap().expect_accept();
    client.wait(cqt, None).unwrap();
    (cqd, sqd)
}

/// Pipelined TCP echo: 8-deep batches of `PAYLOAD`-byte messages, each
/// batch relayed by the server and checked byte-for-byte at the client.
fn echo_work(world: &ShardWorld) -> u64 {
    let (cqd, sqd) = connect_pair(world, 7000);
    let (client, server) = (&world.client, &world.server);
    let mut done = 0u64;
    let batch = 8;
    while (done as usize) < ECHO_OPS_PER_WORLD {
        let n = batch.min(ECHO_OPS_PER_WORLD - done as usize);
        let mut sent = Vec::new();
        for i in 0..n {
            let msg = vec![(done as u8).wrapping_add(i as u8); PAYLOAD];
            client.blocking_push(cqd, &Sga::from_slice(&msg)).unwrap();
            sent.extend_from_slice(&msg);
        }
        let mut relayed = 0;
        while relayed < sent.len() {
            let (_, chunk) = server.blocking_pop(sqd).unwrap().expect_pop();
            relayed += chunk.len();
            server.blocking_push(sqd, &chunk).unwrap();
        }
        let mut got = Vec::new();
        while got.len() < sent.len() {
            let (_, chunk) = client.blocking_pop(cqd).unwrap().expect_pop();
            got.extend_from_slice(&chunk.to_vec());
        }
        assert_eq!(got, sent, "echo stream corrupted");
        done += n as u64;
    }
    done
}

/// Request-response KV: alternating `S<key>=<value>` / `G<key>` ops with
/// every reply verified (the kv_store example's wire protocol).
fn kv_work(world: &ShardWorld) -> u64 {
    let (cqd, sqd) = connect_pair(world, 6379);
    let (client, server) = (&world.client, &world.server);
    let mut map: HashMap<String, Vec<u8>> = HashMap::new();
    let mut done = 0u64;
    for i in 0..KV_OPS_PER_WORLD {
        let key = format!("k{}", i % 32);
        let request = if i % 2 == 0 {
            let value = vec![i as u8; 24];
            map.insert(key.clone(), value.clone());
            let mut msg = format!("S{key}=").into_bytes();
            msg.extend_from_slice(&value);
            msg
        } else {
            format!("G{key}").into_bytes()
        };
        client
            .blocking_push(cqd, &Sga::from_slice(&request))
            .unwrap();
        let (_, req) = server.blocking_pop(sqd).unwrap().expect_pop();
        let bytes = req.to_vec();
        let reply = match bytes.first() {
            Some(b'S') => {
                // Server-side store is implicit here — the client's map is
                // the oracle; the server just acknowledges.
                b"O".to_vec()
            }
            Some(b'G') => {
                let k = String::from_utf8_lossy(&bytes[1..]).into_owned();
                match map.get(&k) {
                    Some(v) => {
                        let mut r = b"V".to_vec();
                        r.extend_from_slice(v);
                        r
                    }
                    None => b"N".to_vec(),
                }
            }
            _ => panic!("malformed request"),
        };
        server.blocking_push(sqd, &Sga::from_slice(&reply)).unwrap();
        let (_, got) = client.blocking_pop(cqd).unwrap().expect_pop();
        let got = got.to_vec();
        if bytes.first() == Some(&b'S') {
            assert_eq!(got, b"O", "SET not acknowledged");
        } else {
            let k = String::from_utf8_lossy(&bytes[1..]).into_owned();
            let want = match map.get(&k) {
                Some(v) => {
                    let mut r = b"V".to_vec();
                    r.extend_from_slice(v);
                    r
                }
                None => b"N".to_vec(),
            };
            assert_eq!(got, want, "GET returned the wrong value");
        }
        done += 1;
    }
    done
}

/// Runs the fixed workload over `worlds` shard worlds under `mode`;
/// returns wall-clock time and per-world outputs.
fn run_fixed(
    mode: ExecMode,
    worlds: usize,
    work: impl Fn(&ShardWorld) -> u64 + Send + Sync,
) -> (Duration, Vec<WorldOut>) {
    let start = Instant::now();
    let outs = demikernel::run_shards(mode, worlds, 2, 256, |spec| instrumented(spec, &work));
    (start.elapsed(), outs)
}

/// Best-of-trials wall time for one (mode, workload) cell, with the
/// outputs of the last trial for the correctness checks.
fn best_of(
    mode: ExecMode,
    worlds: usize,
    work: impl Fn(&ShardWorld) -> u64 + Send + Sync + Copy,
) -> (Duration, Vec<WorldOut>) {
    let mut best = Duration::MAX;
    let mut outs = Vec::new();
    for _ in 0..TRIALS {
        let (t, o) = run_fixed(mode, worlds, work);
        if t < best {
            best = t;
        }
        outs = o;
    }
    (best, outs)
}

fn experiment(
    name: &str,
    ops_per_world: usize,
    work: impl Fn(&ShardWorld) -> u64 + Send + Sync + Copy,
) {
    // Single-world baseline: the tail-latency reference.
    let (_, baseline) = run_fixed(ExecMode::SingleThread, 1, work);
    let p99_single = baseline[0].p99_virt_ns.max(1);

    let (t_seq, seq_outs) = best_of(ExecMode::SingleThread, WORLDS, work);
    let (t_par, par_outs) = best_of(ExecMode::ThreadPerShard, WORLDS, work);

    let total_ops = (WORLDS * ops_per_world) as u64;
    for (label, outs) in [("sequential", &seq_outs), ("threaded", &par_outs)] {
        let sum: u64 = outs.iter().map(|o| o.ops).sum();
        assert_eq!(sum, total_ops, "{name}/{label}: ops not conserved");
    }

    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64();
    let mut table = Table::new(
        &format!("E16: {name} — fixed {total_ops} ops over {WORLDS} worlds (wall clock)"),
        &["mode", "wall ms (best)", "ops/s", "per-world p99 (virt ns)"],
    );
    for (label, t, outs) in [
        ("1 thread", t_seq, &seq_outs),
        (&format!("{WORLDS} threads"), t_par, &par_outs),
    ] {
        let p99s: Vec<u64> = outs.iter().map(|o| o.p99_virt_ns).collect();
        table.row(&[
            label.into(),
            format!("{:.2}", t.as_secs_f64() * 1e3),
            format!("{:.0}", total_ops as f64 / t.as_secs_f64()),
            format!("{p99s:?}"),
        ]);
    }
    table.print();

    for (w, out) in par_outs.iter().enumerate() {
        let ratio = out.p99_virt_ns as f64 / p99_single as f64;
        assert!(
            ratio <= 1.5,
            "{name}: world {w} p99 {}ns is {ratio:.2}x the single-world \
             baseline {p99_single}ns (limit 1.5x)",
            out.p99_virt_ns
        );
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus >= WORLDS {
        assert!(
            speedup >= 3.0,
            "{name}: {WORLDS} shard threads on {cpus} CPUs must run >= 3x \
             faster than sequential, got {speedup:.2}x"
        );
        println!("paper check: {name} {speedup:.2}x wall-clock speedup at {WORLDS} threads\n");
    } else {
        println!(
            "paper check: {name} measured {speedup:.2}x at {WORLDS} threads on \
             {cpus} CPU(s) — >= 3x threshold requires >= {WORLDS} CPUs, skipped\n"
        );
    }
}

fn experiment_table() {
    experiment("tcp_echo", ECHO_OPS_PER_WORLD, echo_work);
    experiment("kv_store", KV_OPS_PER_WORLD, kv_work);
}

fn bench(c: &mut Criterion) {
    experiment_table();
    let mut group = c.benchmark_group("e16_multicore");
    group.sample_size(10);
    group.bench_function("echo_4worlds/sequential", |b| {
        b.iter(|| {
            run_fixed(
                criterion::black_box(ExecMode::SingleThread),
                WORLDS,
                echo_work,
            )
        })
    });
    group.bench_function("echo_4worlds/threaded", |b| {
        b.iter(|| {
            run_fixed(
                criterion::black_box(ExecMode::ThreadPerShard),
                WORLDS,
                echo_work,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

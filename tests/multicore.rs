//! Thread-per-shard execution (PR 6, toward E16).
//!
//! The multi-core refactor keeps every shard world `Rc`-single-threaded
//! and moves exactly three things across threads: frame handoffs and ARP
//! learns over bounded SPSC rings, and TCP port allocation through a
//! shared lock-free bitmap. These tests pin the contract from above:
//!
//! * the *differential* property — the application byte streams a world
//!   produces are identical under [`ExecMode::SingleThread`] and
//!   [`ExecMode::ThreadPerShard`]; threading changes the clock on the
//!   wall, never the bytes;
//! * a frame whose global RSS owner is another world crosses threads on
//!   the ring mesh and is delivered by the owner's stack;
//! * handoff queues are bounded: overflow drops (counted), never grows,
//!   and the stack keeps serving afterward;
//! * per-thread metrics and stage telemetry merge into run-wide totals
//!   that a naive cross-thread read would miss.

mod support;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use demi_telemetry::stage::{self, Stage};
use demikernel::libos::LibOs;
use demikernel::testing::{catnip_shard_world, host_ip, host_mac, ShardWorld};
use demikernel::types::{QDesc, Sga};
use demikernel::{run_shards, MetricsSnapshot};
use demikernel::{ExecMode, ShardSpec};
use dpdk_sim::{rss, DpdkPort, PortConfig};
use net_stack::types::SocketAddr;
use net_stack::{HostLinks, NetworkStack, PortAllocator, ShardMsg, ShardRings, StackConfig};
use proptest::prelude::*;
use sim_fabric::Fabric;
use support::{settle, tcp_pair};

const ECHO_PORT: u16 = 7000;

// ---------------------------------------------------------------------
// Differential: SingleThread and ThreadPerShard produce identical bytes.
// ---------------------------------------------------------------------

/// One world's workload: a pipelined TCP echo (every request is pushed
/// before the first reply is popped). Returns the concatenated request
/// and reply byte streams.
fn echo_world(spec: ShardSpec, seed: u64, msgs: &[Vec<u8>]) -> (Vec<u8>, Vec<u8>) {
    echo_drive(&catnip_shard_world(spec, seed), msgs)
}

/// Drives the pipelined echo over an already-built shard world.
fn echo_drive(world: &ShardWorld, msgs: &[Vec<u8>]) -> (Vec<u8>, Vec<u8>) {
    // Every world listens on the same port: the shared allocator
    // refcounts listeners (SO_REUSEPORT-style replication).
    let (cqd, sqd) = tcp_pair(&world.client, &world.server, ECHO_PORT);
    echo_batch(world, cqd, sqd, msgs)
}

/// One pipelined batch over an established connection.
fn echo_batch(world: &ShardWorld, cqd: QDesc, sqd: QDesc, msgs: &[Vec<u8>]) -> (Vec<u8>, Vec<u8>) {
    let (client, server) = (&world.client, &world.server);
    let mut sent = Vec::new();
    for msg in msgs {
        client.blocking_push(cqd, &Sga::from_slice(msg)).unwrap();
        sent.extend_from_slice(msg);
    }
    // Echo server: TCP has no message boundaries, so relay chunks until
    // the full pipelined stream has passed through.
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
    (sent, got)
}

/// Runs the same 2-world echo under `mode`; per-world message contents
/// derive only from (case seed, world index), so the two modes see
/// byte-identical inputs.
fn run_echo(mode: ExecMode, seed: u64, lens: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    run_shards(mode, 2, 2, 64, |spec| {
        let msgs: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let fill = (seed as u8)
                    .wrapping_add(spec.index as u8)
                    .wrapping_add(i as u8);
                vec![fill; len as usize]
            })
            .collect();
        echo_world(spec, seed, &msgs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any pipelined workload yields the same per-world byte streams in
    /// both execution modes, and every reply stream equals its request
    /// stream (nothing lost, duplicated, or reordered by the rings).
    #[test]
    fn exec_modes_produce_identical_byte_streams(
        seed in any::<u64>(),
        lens in prop::collection::vec(1u8..64, 1..12),
    ) {
        let st = run_echo(ExecMode::SingleThread, seed, &lens);
        let mt = run_echo(ExecMode::ThreadPerShard, seed, &lens);
        prop_assert_eq!(st.len(), mt.len());
        for (w, (s, m)) in st.iter().zip(&mt).enumerate() {
            prop_assert_eq!(&s.0, &s.1, "single-thread world {} corrupted its echo", w);
            prop_assert_eq!(&m.0, &m.1, "threaded world {} corrupted its echo", w);
            prop_assert_eq!(s, m, "world {} diverged between exec modes", w);
        }
    }
}

// ---------------------------------------------------------------------
// E16: fixed work over four shard worlds, sequential vs threaded. The
// work done and every world's virtual-time tail are mode-independent;
// only the wall clock may differ, and no test reads it.
// ---------------------------------------------------------------------

/// 200 echoes of 64 B in 8-deep pipelined batches, each batch checked.
fn echo_work(world: &ShardWorld) -> u64 {
    let (cqd, sqd) = tcp_pair(&world.client, &world.server, ECHO_PORT);
    for batch in 0..25u8 {
        let msgs: Vec<_> = (0..8)
            .map(|i| vec![(8 * batch).wrapping_add(i); 64])
            .collect();
        let (sent, got) = echo_batch(world, cqd, sqd, &msgs);
        assert_eq!(got, sent, "echo stream corrupted");
    }
    200
}

/// 150 request-response ops alternating `S<key>=<value>` / `G<key>` (the
/// kv_store example's wire protocol), every reply checked against the
/// client's own model of the store.
fn kv_work(world: &ShardWorld) -> u64 {
    let (cqd, sqd) = tcp_pair(&world.client, &world.server, 6379);
    let (client, server) = (&world.client, &world.server);
    let value_reply = |v: Option<&Vec<u8>>| v.map_or(b"N".to_vec(), |v| [b"V", &v[..]].concat());
    let (mut store, mut model) = (HashMap::new(), HashMap::new());
    for i in 0..150 {
        let key = format!("k{}", i % 32).into_bytes();
        let (request, want) = if i % 2 == 0 {
            let value = vec![i as u8; 24];
            model.insert(key.clone(), value.clone());
            ([b"S", &key[..], b"=", &value[..]].concat(), b"O".to_vec())
        } else {
            ([b"G", &key[..]].concat(), value_reply(model.get(&key)))
        };
        client
            .blocking_push(cqd, &Sga::from_slice(&request))
            .unwrap();
        let (_, req) = server.blocking_pop(sqd).unwrap().expect_pop();
        let req = req.to_vec();
        let reply = if req[0] == b'S' {
            let eq = req.iter().position(|&b| b == b'=').unwrap();
            store.insert(req[1..eq].to_vec(), req[eq + 1..].to_vec());
            b"O".to_vec()
        } else {
            value_reply(store.get(&req[1..]))
        };
        server.blocking_push(sqd, &Sga::from_slice(&reply)).unwrap();
        let (_, got) = client.blocking_pop(cqd).unwrap().expect_pop();
        assert_eq!(got.to_vec(), want, "op {i} returned the wrong reply");
    }
    150
}

/// Runs `work` over `worlds` shard worlds under `mode`; returns each
/// world's completed ops and its virtual-time op-latency p99, measured on
/// the world's own thread (where its stage histograms live). The reset
/// keeps the sequential mode honest: all worlds share one thread's
/// histograms there.
fn run_fixed(mode: ExecMode, worlds: usize, work: fn(&ShardWorld) -> u64) -> Vec<(u64, u64)> {
    run_shards(mode, worlds, 2, 256, |spec| {
        let world = catnip_shard_world(spec, 0xE16);
        stage::reset();
        demi_telemetry::set_enabled(true);
        let ops = work(&world);
        demi_telemetry::set_enabled(false);
        (ops, stage::snapshot(Stage::OpLatency).p99())
    })
}

#[test]
fn fixed_work_and_per_world_tails_are_exec_mode_independent() {
    for (name, work, ops_per_world, p99) in [
        ("tcp_echo", echo_work as fn(&ShardWorld) -> u64, 200, 1_055),
        ("kv_store", kv_work, 150, 1_023),
    ] {
        // Ops conserved, and sharding buys throughput without trading away
        // per-flow latency: the bound was "p99 <= 1.5x the single-world
        // baseline", what is measured is equality with it.
        for (mode, worlds) in [
            (ExecMode::SingleThread, 1),
            (ExecMode::SingleThread, 4),
            (ExecMode::ThreadPerShard, 4),
        ] {
            let per_world = run_fixed(mode, worlds, work);
            let want = vec![(ops_per_world, p99); worlds];
            assert_eq!(per_world, want, "{name}/{mode:?}: (ops, virtual p99 ns)");
        }
    }
}

// ---------------------------------------------------------------------
// Cross-thread handoff delivery.
// ---------------------------------------------------------------------

/// A bare two-stack world (no runtime) built straight from a spec's host
/// links, polled by hand — the stack-level twin of `catnip_shard_world`.
fn raw_world(spec: ShardSpec) -> (Fabric, NetworkStack, NetworkStack) {
    let fabric = Fabric::new(0x5eed ^ spec.index as u64);
    let host = |n, links| {
        let port = DpdkPort::new(&fabric, PortConfig::basic(host_mac(n)));
        NetworkStack::shard_of(port, fabric.clock(), StackConfig::new(host_ip(n)), links)
    };
    let mut links = spec.hosts.into_iter();
    let client = host(1, links.next().unwrap());
    let server = host(2, links.next().unwrap());
    (fabric, client, server)
}

/// A datagram whose 4-tuple globally hashes to world 1 but arrives on
/// world 0's device is forwarded across threads over the ring mesh and
/// delivered by world 1's stack.
#[test]
fn misdelivered_frame_crosses_threads_to_its_owner() {
    let bound = Barrier::new(2);
    let delivered = AtomicU64::new(0);
    run_shards(ExecMode::ThreadPerShard, 2, 2, 64, |spec| {
        let index = spec.index;
        let (fabric, client, server) = raw_world(spec);
        if index == 1 {
            server.udp_bind(7).unwrap();
            bound.wait();
            for _ in 0..2_000_000 {
                server.poll();
                if server.udp_pending(7) > 0 {
                    let (from, payload) = server.udp_recv_from(7).unwrap();
                    assert_eq!(payload.as_slice(), b"cross-world");
                    assert_eq!(from.ip, host_ip(1));
                    delivered.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                std::thread::yield_now();
            }
            panic!("forwarded datagram never arrived on its owning world");
        } else {
            bound.wait();
            // A source port whose tuple RSS-homes to world 1, not 0.
            let src = (40_000..50_000)
                .find(|&p| rss::queue_for_tuple(host_ip(1), p, host_ip(2), 7, 2) == 1)
                .unwrap();
            client.udp_bind(src).unwrap();
            client
                .udp_sendto(src, SocketAddr::new(host_ip(2), 7), b"cross-world")
                .unwrap();
            // Drive world 0 until quiescent: ARP resolves, the datagram
            // reaches the local device, the stack detects the steering
            // mismatch and forwards it over the ring.
            for _ in 0..10_000 {
                client.poll();
                server.poll();
                if !fabric.advance_to_next_event() {
                    break;
                }
            }
            let s = server.shard_stats();
            assert!(
                s.steering_mismatches >= 1,
                "world 0 must detect the foreign flow: {s:?}"
            );
            let ring = server.ring_stats().unwrap();
            assert!(ring.sent >= 1, "frame must leave on the ring: {ring:?}");
        }
    });
    assert_eq!(delivered.load(Ordering::SeqCst), 1);
}

// ---------------------------------------------------------------------
// Bounded handoffs: graceful degradation, not unbounded growth.
// ---------------------------------------------------------------------

/// Overflowing the handoff queue drops the excess (counted in
/// `handoff_dropped`), keeps the bound, and leaves the stack fully
/// functional — TCP retransmission is the recovery story, so a drop
/// must never wedge anything.
#[test]
fn handoff_overflow_drops_counted_and_stack_survives() {
    let fabric = Fabric::new(99);
    let config = StackConfig {
        handoff_capacity: 2,
        ..StackConfig::new(host_ip(2))
    };
    let (_, stack, mut test_end) = world_one_of_two(&fabric, config);
    let peer = support::host(&fabric, 1);

    // Eight junk frames into a capacity-2 handoff queue, all queued
    // before the stack polls once.
    for i in 0..8u8 {
        assert!(test_end.send(1, ShardMsg::Frame(vec![i; 60])));
    }
    stack.poll();
    let s = stack.shard_stats();
    assert_eq!(
        s.handoff_dropped, 6,
        "kept the bound, dropped the excess: {s:?}"
    );
    assert!(s.handoff_backpressure >= 6);

    // The stack still serves traffic afterward — on a flow whose tuple
    // homes to this world (global index 1 of 2).
    let sport = (40_000..50_000)
        .find(|&p| rss::queue_for_tuple(host_ip(1), p, host_ip(2), 7, 2) == 1)
        .unwrap();
    stack.udp_bind(7).unwrap();
    peer.udp_bind(sport).unwrap();
    peer.udp_sendto(sport, SocketAddr::new(host_ip(2), 7), b"still-alive")
        .unwrap();
    settle(&fabric, &[&peer, &stack], || stack.udp_pending(7) > 0);
    let (_, payload) = stack.udp_recv_from(7).expect("stack serves after overflow");
    assert_eq!(payload.as_slice(), b"still-alive");
}

/// Host 2 as world 1 of a two-world mesh on its own device; world 0's
/// ring endpoint stays with the test.
fn world_one_of_two(fabric: &Fabric, config: StackConfig) -> (DpdkPort, NetworkStack, ShardRings) {
    let port = DpdkPort::new(fabric, PortConfig::basic(host_mac(2)));
    let mut mesh = net_stack::mesh(2, 64);
    let links = HostLinks {
        rings: mesh.remove(1),
        ports: Arc::new(PortAllocator::new()),
    };
    let stack = NetworkStack::shard_of(port.clone(), fabric.clock(), config, links);
    (port, stack, mesh.remove(0))
}

/// What another thread hands a stack is seen by its very next poll,
/// however many idle passes came before: a frame sent over the shard ring
/// is drained ahead of the pass into the handoff queue the RX guard reads.
#[test]
fn frames_from_other_threads_are_seen_by_the_next_poll() {
    let fabric = Fabric::new(98);
    let (port, stack, mut far_end) = world_one_of_two(&fabric, StackConfig::new(host_ip(2)));
    let peer = support::host(&fabric, 1);
    let sport = (40_000..50_000)
        .find(|&p| rss::queue_for_tuple(host_ip(1), p, host_ip(2), 7, 2) == 1)
        .unwrap();
    stack.udp_bind(7).unwrap();
    peer.udp_bind(sport).unwrap();
    let send = || {
        peer.udp_sendto(sport, SocketAddr::new(host_ip(2), 7), b"datagram")
            .unwrap()
    };
    send();
    settle(&fabric, &[&peer, &stack], || stack.udp_pending(7) == 1);
    // A second datagram, taken off the wire before the stack sees it.
    send();
    peer.poll();
    assert!(fabric.advance_to_next_event());
    let frame = port.rx_burst(0, 1).pop().unwrap().as_slice().to_vec();

    let idle = || (0..3).for_each(|_| assert_eq!(stack.poll(), 0));
    idle();
    std::thread::spawn(move || assert!(far_end.send(1, ShardMsg::Frame(frame))))
        .join()
        .unwrap();
    assert!(stack.poll() > 0);
    assert_eq!(stack.udp_pending(7), 2, "the ring's frame");
    idle();
}

// ---------------------------------------------------------------------
// Cross-thread observability: merged metrics and telemetry.
// ---------------------------------------------------------------------

/// Counters recorded on shard threads are invisible to a naive read from
/// the spawning thread; absorbing each world's snapshot into the hub (on
/// the world's own thread) recovers the run-wide totals, and per-thread
/// stage histograms merge the same way.
#[test]
fn shard_thread_metrics_and_telemetry_merge() {
    demi_telemetry::stage::reset_merged();
    let ops_per_world = 4usize;
    let hub_out: Mutex<Option<Arc<demikernel::MetricsHub>>> = Mutex::new(None);
    let world_allocs = AtomicU64::new(0);
    run_shards(ExecMode::ThreadPerShard, 2, 2, 64, |spec| {
        demi_telemetry::set_enabled(true);
        let msgs: Vec<Vec<u8>> = (0..ops_per_world).map(|i| vec![i as u8; 32]).collect();
        let world = catnip_shard_world(spec, 0xabcd);
        let (sent, got) = echo_drive(&world, &msgs);
        assert_eq!(sent, got);
        // Absorb on this thread, where the thread-local counters live.
        let hub = Arc::clone(&world.hub);
        let snap = world.rt.metrics().snapshot();
        assert!(snap.buffer_allocs > 0, "each world allocates its frames");
        world_allocs.fetch_add(snap.buffer_allocs, Ordering::SeqCst);
        hub.absorb(snap);
        demi_telemetry::set_enabled(false);
        *hub_out.lock().unwrap() = Some(hub);
    });
    let hub = hub_out.lock().unwrap().take().unwrap();
    let merged: MetricsSnapshot = hub.merged();
    assert!(
        merged.pushes >= 2 * ops_per_world as u64,
        "hub sees both worlds' pushes: {}",
        merged.pushes
    );
    assert!(
        merged.pops >= 2 * ops_per_world as u64,
        "hub sees both worlds' pops: {}",
        merged.pops
    );
    assert_eq!(
        merged.buffer_allocs,
        world_allocs.load(Ordering::SeqCst),
        "a folded thread-local field merges to the sum of the per-world snapshots"
    );
    let op = demi_telemetry::stage::merged_snapshot(demi_telemetry::stage::Stage::OpLatency);
    assert!(
        op.count() >= 2 * ops_per_world as u64,
        "merged op-latency histogram covers both shard threads: {}",
        op.count()
    );
}

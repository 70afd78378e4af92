//! Device-side offload programs (PR 7, toward E17).
//!
//! The offload contract is *observational equivalence*: installing a NIC
//! program changes where work happens (host cycles vs device cycles),
//! never what the application sees. These tests pin that from above:
//!
//! * the *differential* property — a random GET/SET workload and a random
//!   echo stream produce byte-identical replies and final store contents
//!   with and without the offload installed, including a mid-stream
//!   uninstall (the device hands absorbed bytes back to the host, losing
//!   nothing) and SET-under-cache invalidation races;
//! * the offload actually offloads: with an armed flow, echo replies and
//!   KV GET hits are served on the device (counted per program slot),
//!   and the host never sees the served requests.

mod support;

use std::collections::HashMap;
use std::rc::Rc;

use demi_memory::DemiBuffer;
use demikernel::libos::catnip::Catnip;
use demikernel::libos::{LibOs, SocketKind};
use demikernel::ops::Demikernel;
use demikernel::runtime::Runtime;
use demikernel::testing::{
    catfs_world, catnip_pair, catnip_pair_offload, host_ip, host_mac, AllocMeter,
};
use demikernel::types::{OperationResult, QDesc, Sga};
use dpdk_sim::{NicProgram, PortConfig, SmartNic};
use net_stack::types::SocketAddr;
use proptest::prelude::*;
use sim_fabric::{Fabric, SimTime};
use spdk_sim::nvme::BLOCK_SIZE;
use spdk_sim::ChainSpec;
use support::alloc_sites::{assert_allocs, SiteAlloc};
use support::{armed_echo_flows, spawn_echo_server, tcp_pair, ECHO_PORT};

/// Counts this thread's heap allocations inside an [`AllocMeter`] window.
#[global_allocator]
static ALLOCATOR: SiteAlloc = SiteAlloc;

const KV_PORT: u16 = 6379;

/// Idle time long enough for delayed ACKs to flush so the device re-arms
/// a quiescent flow after a host-served fallback.
fn quiesce(rt: &Runtime) {
    rt.settle(SimTime::from_micros(50_000));
}

/// Client on a plain NIC; server on a 4-slot SmartNIC when `offloaded`,
/// on a plain NIC otherwise.
fn world(offloaded: bool, seed: u64) -> (Runtime, Catnip, Catnip) {
    let (rt, _fabric, client, server) = if offloaded {
        catnip_pair_offload(seed, 4)
    } else {
        catnip_pair(seed)
    };
    (rt, client, server)
}

/// One lock-step request: push, await the push, pop one framed reply.
fn request(client: &Catnip, qd: QDesc, req: &[u8]) -> Vec<u8> {
    client.blocking_push(qd, &Sga::from_slice(req)).unwrap();
    let (_, reply) = client.blocking_pop(qd).unwrap().expect_pop();
    reply.to_vec()
}

/// The kv_store server loop: pops framed requests, serves GET/SET, and
/// publishes GET values into the device cache after each miss (a no-op
/// when no offload is installed — the differential property hinges on
/// this changing nothing observable).
fn spawn_kv_server(
    rt: &Runtime,
    server: &Catnip,
    sqd: QDesc,
    mut store: HashMap<Vec<u8>, Vec<u8>>,
) {
    let server_clone = server.clone();
    rt.spawn_background("kv-server", async move {
        loop {
            let Ok(pop_qt) = server_clone.pop(sqd) else {
                return;
            };
            let OperationResult::Pop { sga, .. } = server_clone.runtime().await_op(pop_qt).await
            else {
                return;
            };
            let req = sga.to_vec();
            let reply: Vec<u8> = match req.first() {
                Some(b'G') => match store.get(&req[1..]) {
                    Some(v) => {
                        server_clone.offload_cache_insert(&req[1..], v);
                        let mut r = vec![b'V'];
                        r.extend_from_slice(v);
                        r
                    }
                    None => vec![b'N'],
                },
                Some(b'S') => {
                    let eq = req.iter().position(|&b| b == b'=').unwrap_or(req.len());
                    store.insert(req[1..eq].to_vec(), req[eq + 1..].to_vec());
                    vec![b'O']
                }
                _ => vec![b'E'],
            };
            let Ok(push_qt) = server_clone.push(sqd, &Sga::from_slice(&reply)) else {
                return;
            };
            let _ = server_clone.runtime().await_op(push_qt).await;
        }
    });
}

// ---------------------------------------------------------------------
// Differential: offloaded ≡ host-only, including mid-stream uninstall.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum KvOp {
    Get(u8),
    Set(u8, u8),
}

/// Draws GETs and SETs over a small key space (6 keys), so runs revisit
/// keys often enough to race SETs against device-cached values.
#[derive(Debug, Clone, Copy)]
struct KvOpStrategy;

impl Strategy for KvOpStrategy {
    type Value = KvOp;
    fn generate(&self, rng: &mut proptest::TestRng) -> KvOp {
        if rng.below(2) == 0 {
            KvOp::Get(rng.below(6) as u8)
        } else {
            KvOp::Set(rng.below(6) as u8, rng.next_u64() as u8)
        }
    }
}

/// Runs a GET/SET workload against the kv server, optionally offloaded,
/// optionally uninstalling the program before op `uninstall_at`. Returns
/// (per-op replies, final store contents, device GET hits).
fn run_kv(
    offloaded: bool,
    seed: u64,
    ops: &[KvOp],
    uninstall_at: Option<usize>,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, u64) {
    let (rt, client, server) = world(offloaded, seed);
    let (cqd, sqd) = tcp_pair(&client, &server, KV_PORT);
    if offloaded {
        // Small capacity: long workloads also exercise LRU eviction.
        server.install_kv_offload(KV_PORT, 512).unwrap();
    }

    spawn_kv_server(&rt, &server, sqd, HashMap::new());

    let mut replies = Vec::new();
    let mut hits_at_uninstall = None;
    for (i, op) in ops.iter().enumerate() {
        if uninstall_at == Some(i) {
            // Uninstall drops the engine (and its counters) — keep them.
            hits_at_uninstall = server.offload_stats().map(|s| s.kv_hits);
            server.uninstall_tcp_offload();
        }
        let req = match op {
            KvOp::Get(k) => format!("Gk{k}").into_bytes(),
            KvOp::Set(k, v) => format!("Sk{k}=v{v}").into_bytes(),
        };
        replies.push(request(&client, cqd, &req));
        quiesce(&rt);
    }
    let finals = (0..6)
        .map(|k| request(&client, cqd, format!("Gk{k}").as_bytes()))
        .collect();
    let hits = server
        .offload_stats()
        .map(|s| s.kv_hits)
        .or(hits_at_uninstall)
        .unwrap_or(0);
    (replies, finals, hits)
}

/// Runs an echo stream (message `i` = `lens[i]` bytes of a deterministic
/// fill), optionally offloaded. Returns (per-op replies, device serves).
fn run_echo(
    offloaded: bool,
    seed: u64,
    lens: &[u16],
    uninstall_at: Option<usize>,
) -> (Vec<Vec<u8>>, u64) {
    let (rt, client, server) = world(offloaded, seed);
    let (cqd, sqd) = tcp_pair(&client, &server, ECHO_PORT);
    if offloaded {
        server.install_echo_offload(ECHO_PORT).unwrap();
    }

    spawn_echo_server(&rt, &server, sqd);

    let mut replies = Vec::new();
    let mut served_at_uninstall = None;
    for (i, &len) in lens.iter().enumerate() {
        if uninstall_at == Some(i) {
            served_at_uninstall = server.offload_stats().map(|s| s.served);
            server.uninstall_tcp_offload();
        }
        let fill = (seed as u8).wrapping_add(i as u8);
        let msg = vec![fill; len as usize];
        let reply = request(&client, cqd, &msg);
        assert_eq!(reply, msg, "echo must return the message verbatim");
        replies.push(reply);
        quiesce(&rt);
    }
    let served = server
        .offload_stats()
        .map(|s| s.served)
        .or(served_at_uninstall)
        .unwrap_or(0);
    (replies, served)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any GET/SET interleaving — SETs racing cached values, a mid-stream
    /// uninstall included — yields identical replies and identical final
    /// store contents with and without the NIC-resident GET cache.
    #[test]
    fn kv_offload_is_observationally_equivalent(
        seed in any::<u64>(),
        ops in prop::collection::vec(KvOpStrategy, 1..14),
        uninstall in 0usize..28,
    ) {
        // Values past the op list mean "never uninstall" (~half the cases).
        let uninstall_at = (uninstall < ops.len()).then_some(uninstall);
        let host = run_kv(false, seed, &ops, uninstall_at);
        let dev = run_kv(true, seed, &ops, uninstall_at);
        prop_assert_eq!(&host.0, &dev.0, "per-op replies diverged");
        prop_assert_eq!(&host.1, &dev.1, "final store contents diverged");
        prop_assert_eq!(host.2, 0, "host-only world must not count device hits");
    }

    /// Any echo stream — including messages too large for the device
    /// (reply > MSS falls back to the host) and a mid-stream uninstall —
    /// comes back byte-identical with and without the NIC short-circuit.
    #[test]
    fn echo_offload_is_observationally_equivalent(
        seed in any::<u64>(),
        lens in prop::collection::vec(1u16..1500, 1..10),
        uninstall in 0usize..20,
    ) {
        let uninstall_at = (uninstall < lens.len()).then_some(uninstall);
        let host = run_echo(false, seed, &lens, uninstall_at);
        let dev = run_echo(true, seed, &lens, uninstall_at);
        prop_assert_eq!(&host.0, &dev.0, "echo byte streams diverged");
        prop_assert_eq!(host.1, 0, "host-only world must not count device serves");
        // Non-vacuousness: a small first message on a never-uninstalled
        // armed flow must actually be served by the device.
        if uninstall_at != Some(0) && lens[0] <= 1400 {
            prop_assert!(dev.1 >= 1, "offload never served (lens {:?})", &lens);
        }
    }
}

// ---------------------------------------------------------------------
// The offload offloads: device counters move, host never sees the ops.
// ---------------------------------------------------------------------

/// With an armed flow, every small echo is served on the NIC: the device
/// slot counters attribute the work, and uninstalling returns the flow to
/// the host with nothing lost.
#[test]
fn echo_offload_serves_on_device_with_slot_attribution() {
    let (rt, _fabric, client, server) = catnip_pair_offload(11, 4);
    let (cqd, sqd) = tcp_pair(&client, &server, ECHO_PORT);
    spawn_echo_server(&rt, &server, sqd);
    server.install_echo_offload(ECHO_PORT).unwrap();
    quiesce(&rt); // Arm the (already quiescent) flow.
    assert_eq!(
        server.offload_stats().unwrap().flows_armed,
        1,
        "idle established flow must arm"
    );
    let before = server.port().smartnic_slot_stats();

    for i in 0..10u8 {
        let msg = vec![i; 64];
        assert_eq!(request(&client, cqd, &msg), msg);
    }

    let stats = server.offload_stats().expect("offload installed");
    assert_eq!(stats.served, 10, "every echo is served on the NIC");
    assert_eq!(stats.fallbacks, 0, "no fallbacks on an in-order stream");
    // Attribution is per device and per slot: the serving port's slots
    // carry the work, the client port's device none of it.
    let after = server.port().smartnic_slot_stats();
    let served: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.served - b.served)
        .sum();
    let cycles: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.cycles - b.cycles)
        .sum();
    assert_eq!(served, 10, "slot counters attribute the serves");
    assert!(cycles > 0, "device-served ops must charge device cycles");
    let client_nic = client.port().smartnic_stats();
    assert_eq!(
        (client_nic.frames_served, client_nic.device_cycles),
        (0, 0),
        "the client port ran no program: {client_nic:?}"
    );

    server.uninstall_tcp_offload();
    assert!(server.offload_stats().is_none());
    let msg = vec![0xEE; 64];
    assert_eq!(
        request(&client, cqd, &msg),
        msg,
        "host serves after uninstall"
    );
}

/// A warmed KV cache serves GET hits on the NIC; a SET invalidates
/// write-through and the next GET returns the fresh value.
#[test]
fn kv_offload_hits_on_device_and_stays_coherent() {
    let (rt, _fabric, client, server) = catnip_pair_offload(13, 4);
    let (cqd, sqd) = tcp_pair(&client, &server, KV_PORT);
    server.install_kv_offload(KV_PORT, 4096).unwrap();
    assert!(server.offload_cache_insert(b"alpha", b"one"));
    let mut store = HashMap::new();
    store.insert(b"alpha".to_vec(), b"one".to_vec());
    spawn_kv_server(&rt, &server, sqd, store);
    quiesce(&rt); // Arm the flow.

    // Device-served hit.
    assert_eq!(request(&client, cqd, b"Galpha").as_slice(), b"Vone");
    let stats = server.offload_stats().unwrap();
    assert_eq!(stats.kv_hits, 1, "warm GET is served on the NIC: {stats:?}");

    // The SET reaches the host and write-through-invalidates on the way.
    assert_eq!(request(&client, cqd, b"Salpha=two").as_slice(), b"O");
    assert!(
        server.offload_stats().unwrap().kv_invalidations >= 1,
        "device must observe the SET"
    );
    quiesce(&rt);
    assert_eq!(
        request(&client, cqd, b"Galpha").as_slice(),
        b"Vtwo",
        "a stale cached value must never shadow a newer SET"
    );
}

// ---------------------------------------------------------------------
// E17: what the offload buys — host work per operation, A/B.
// ---------------------------------------------------------------------

/// What `ops` lock-step requests cost the serving side: [frames its host
/// stack received plus transmitted — every one a host-device crossing,
/// requests served on the device, device cycles charged].
fn server_work(server: &Catnip, ops: usize, request: impl FnMut(usize)) -> [u64; 3] {
    let read = || {
        let (p, n) = (server.port().stats(), server.port().smartnic_stats());
        [p.rx_frames + p.tx_frames, n.frames_served, n.device_cycles]
    };
    let before = read();
    (0..ops).for_each(request);
    let after = read();
    std::array::from_fn(|f| after[f] - before[f])
}

/// 64 TCP echoes of 64 B against a quiesced (armed, when offloaded) flow.
fn echo_work(offloaded: bool) -> [u64; 3] {
    let (rt, client, server) = world(offloaded, 17);
    let (cqd, sqd) = tcp_pair(&client, &server, ECHO_PORT);
    spawn_echo_server(&rt, &server, sqd);
    if offloaded {
        server.install_echo_offload(ECHO_PORT).unwrap();
    }
    assert_eq!(request(&client, cqd, &[0xA5; 64]), [0xA5; 64]);
    quiesce(&rt);
    server_work(&server, 64, |i| {
        assert_eq!(request(&client, cqd, &[i as u8; 64]), [i as u8; 64]);
    })
}

/// 64 GETs over 16 keys; when offloaded, the NIC-resident cache is warmed
/// so every measured GET is a device hit.
fn kv_get_work(offloaded: bool) -> [u64; 3] {
    let (rt, client, server) = world(offloaded, 17);
    let (cqd, sqd) = tcp_pair(&client, &server, KV_PORT);
    let keys: Vec<_> = (0..16)
        .map(|k| (format!("Gkey{k}"), format!("Vvalue-{k:032}")))
        .collect();
    if offloaded {
        server.install_kv_offload(KV_PORT, 64 * 1024).unwrap();
    }
    let store = keys.iter().map(|(k, v)| {
        let (k, v) = (k.as_bytes()[1..].to_vec(), v.as_bytes()[1..].to_vec());
        assert_eq!(server.offload_cache_insert(&k, &v), offloaded);
        (k, v)
    });
    spawn_kv_server(&rt, &server, sqd, store.collect());
    assert_eq!(request(&client, cqd, b"Gkey0"), keys[0].1.as_bytes());
    quiesce(&rt);
    server_work(&server, 64, |i| {
        let (get, reply) = &keys[i % keys.len()];
        assert_eq!(request(&client, cqd, get.as_bytes()), reply.as_bytes());
    })
}

/// The host gets out of the data path for the requests a device program
/// can answer: the NIC-served legs cost the serving host *zero* frames per
/// op (the claim was "≥ 80 % fewer"), every op is served on the device,
/// and the device is charged cycles for each.
#[test]
fn offloaded_requests_cost_the_serving_host_no_frames() {
    for (label, work, cycles) in [
        ("TCP echo 64B", echo_work as fn(bool) -> _, 5_376),
        ("KV GET", kv_get_work, 6_784),
    ] {
        assert_eq!(work(false), [2 * 64, 0, 0], "{label}: host-served twin");
        let [host_frames, served, device_cycles] = work(true);
        assert_eq!(served, 64, "{label}: every op must be served on the device");
        assert_eq!(device_cycles, cycles, "{label}: device cycles charged");
        assert_eq!(host_frames, 0, "{label}: offload must cut host work per op");
    }
}

/// An echo world whose server flow the NIC serves: the host's echo loop
/// stays parked on its pop while the device answers.
fn armed_echo_world(seed: u64) -> (Runtime, Catnip, Catnip, QDesc) {
    let (rt, client, server, cqds) = armed_echo_flows(seed, 1);
    (rt, client, server, cqds[0])
}

/// An idle pump walks no flow table, at 1 armed flow or 1 000: the
/// planner re-reads the engine's flows only once something the walk reads
/// has changed — a control block touched or freed, a SYN table changed, a
/// record opened or a flow fallen back on the device. The count is of the
/// walks the guard ordered; a debug build also runs each skipped walk and
/// asserts it changed nothing. A served request is a change: the walk
/// comes back, and re-arms the flow once it is quiescent again.
#[test]
fn idle_pumps_walk_no_flow_table() {
    for flows in [1, 1000] {
        let (rt, client, server, cqds) = armed_echo_flows(11, flows);
        let walks = || server.stack().shard_stats().offload_walks;
        let before = walks();
        (0..100).for_each(|_| {
            rt.pump();
        });
        assert_eq!(walks() - before, 0, "100 idle pumps at {flows} armed flows");
        assert_eq!(request(&client, cqds[0], b"ping"), b"ping");
        quiesce(&rt);
        assert!(walks() > before, "a served request walks again");
        let stats = server.offload_stats().unwrap();
        assert_eq!((stats.served, stats.flows_armed), (1, flows as u64));
    }
}

/// An idle poll pass over an armed flow allocates nothing: the planner's
/// per-pass walk reads the engine's flow table in place, with one demux
/// lookup per flow, and its event drain keeps nothing it would free.
#[test]
fn idle_pumps_with_an_armed_flow_allocate_nothing() {
    let (rt, _client, _server, _cqd) = armed_echo_world(11);
    assert_allocs(0, "100 idle pumps", || {
        (0..100).for_each(|_| {
            rt.pump();
        })
    });
}

/// A warmed echo round the NIC serves allocates nothing, like its
/// host-served twin: absorbed bytes stay views of their frames, the reply
/// is one copy from the copy pool with its headers in its headroom, and
/// the engine's reply list and event queue and the host's mirror of the
/// reply reuse what they grew while warming.
#[test]
fn a_warmed_nic_served_echo_round_allocates_nothing() {
    let (rt, client, server, cqd) = armed_echo_world(11);
    let mut fill = 0u8;
    let mut round = || {
        fill = fill.wrapping_add(1);
        let mut request = client.sgaalloc(64);
        request.segments_mut()[0].try_mut().unwrap().fill(fill);
        let qt = client.push(cqd, &request).unwrap();
        client.wait(qt, None).unwrap();
        let qt = client.pop(cqd).unwrap();
        let (_, reply) = client.wait(qt, None).unwrap().expect_pop();
        assert_eq!(reply.segments()[0].as_slice(), &[fill; 64]);
    };
    for _ in 0..100 {
        round();
        rt.settle(SimTime::from_micros(200));
    }
    let served = server.offload_stats().unwrap().served;
    assert_allocs(0, "a NIC-served echo round", &mut round);
    assert_eq!(server.offload_stats().unwrap().served, served + 1);
}

/// The `Map` device path rewrites frames in place: zero heap allocations
/// and zero copy fallbacks across a burst of exclusive buffers.
#[test]
fn map_rewrites_a_burst_of_exclusive_frames_without_allocating() {
    let mut nic = SmartNic::new(2);
    nic.install(NicProgram::Map {
        transform: Rc::new(|f: &mut [u8]| f.iter_mut().for_each(|b| *b = b.wrapping_add(1))),
        cycles_per_frame: 2,
    })
    .unwrap();
    let mut frames: Vec<DemiBuffer> = (0..=255)
        .map(|i| DemiBuffer::from_slice(&[i; 64]))
        .collect();
    let meter = AllocMeter::arm();
    for f in frames.iter_mut() {
        nic.process_rx(f, SimTime::ZERO);
    }
    let allocs = meter.count();
    drop(meter);
    assert_eq!(allocs, 0, "Map must rewrite frames in place, not allocate");
    let fallbacks = nic.slot_stats()[0].copy_fallbacks;
    assert_eq!(
        fallbacks, 0,
        "exclusive buffers must never trigger the copy fallback"
    );
    let rewritten = |i: u8| frames[i as usize].as_slice() == [i.wrapping_add(1); 64];
    assert!((0..=255).all(rewritten), "every frame was rewritten");
}

/// An 8-hop on-disk pointer chase is one host submission with device-side
/// resubmission, against one submission per hop for the host read loop —
/// and both walks end on identical bytes.
#[test]
fn a_chained_lookup_is_one_host_submission_not_one_per_hop() {
    let (rt, catfs, device) = catfs_world();
    let lbas: [u64; 8] = [100, 205, 3, 77, 150, 42, 9, 1000];
    let qp = device.alloc_qpair();
    let mut done = Vec::new();
    for (i, &lba) in lbas.iter().enumerate() {
        let mut block = vec![0u8; BLOCK_SIZE];
        let next = lbas.get(i + 1).copied().unwrap_or(u64::MAX);
        block[0..8].copy_from_slice(&next.to_le_bytes());
        block[16..24].copy_from_slice(&(0xC0FFEE00 + i as u64).to_le_bytes());
        device.submit_write(qp, i as u64 + 1, lba, block).unwrap();
        while device.in_flight(qp) > 0 {
            rt.clock().advance_to(device.next_deadline().unwrap());
            device.poll_completions(qp, 16, &mut done);
        }
    }
    let spec = ChainSpec {
        start_lba: lbas[0],
        pointer_offset: 0,
        sentinel: u64::MAX,
        max_hops: 32,
    };
    let walk = |qt| {
        let read = || {
            let s = catfs.device_stats();
            [s.reads, s.chases, s.chase_hops]
        };
        let before = read();
        let (_, sga) = rt.wait(qt, None).unwrap().expect_pop();
        let cost: [u64; 3] = std::array::from_fn(|f| read()[f] - before[f]);
        (sga.to_vec(), cost)
    };
    let (host_block, host_cost) = walk(catfs.chase_host(spec));
    let (device_block, device_cost) = walk(catfs.chase(spec));
    assert_eq!(host_cost, [8, 0, 0], "one host submission per hop");
    // One host submission; its hops are not host-visible reads.
    assert_eq!(device_cost, [0, 1, 8]);
    assert_eq!(host_block, device_block);
    assert_eq!(host_block[16..24], (0xC0FFEE00u64 + 7).to_le_bytes());
}

// ---------------------------------------------------------------------
// E6: "libOSes always implement filters directly on supported devices
// but default to the CPU" (§4.2).
// ---------------------------------------------------------------------

/// 1 000 datagrams, every tenth matching, through a `filter` queue on a
/// device with `slots` program slots. Returns (CPU predicate evaluations,
/// device cycles, frames the device dropped).
fn filter_placement(slots: usize) -> (u64, u64, u64) {
    let fabric = Fabric::new(61);
    let rt = Runtime::with_fabric(fabric.clone());
    let sender = Catnip::new(&rt, &fabric, host_mac(1), host_ip(1));
    let port = PortConfig {
        rx_ring_size: 4096,
        ..PortConfig::smartnic(host_mac(2), slots)
    };
    let receiver_libos = Catnip::with_port_config(&rt, &fabric, port, host_ip(2));
    let receiver = Demikernel::new(Rc::new(receiver_libos.clone()));
    let to = SocketAddr::new(host_ip(2), 514);
    let raw = receiver.socket(SocketKind::Udp).unwrap();
    receiver.bind(raw, to).unwrap();
    let wanted = receiver
        .filter(raw, Rc::new(|sga: &Sga| sga.to_vec()[0] == 1))
        .unwrap();
    let tx = sender.socket(SocketKind::Udp).unwrap();
    sender.bind(tx, SocketAddr::new(host_ip(1), 9000)).unwrap();
    for i in 0..1000u32 {
        let tagged = Sga::from_slice(&[u8::from(i % 10 == 0), i as u8]);
        sender.pushto(tx, &tagged, to).unwrap();
    }
    for _ in 0..100 {
        let (_, sga) = receiver.blocking_pop(wanted).unwrap().expect_pop();
        assert_eq!(sga.to_vec()[0], 1);
    }
    let nic = receiver_libos.port().smartnic_stats();
    let evals = receiver.ops_stats().cpu_filter_evals;
    (evals, nic.device_cycles, nic.frames_filtered)
}

#[test]
fn a_filter_runs_on_the_device_when_it_has_a_slot_and_on_the_cpu_otherwise() {
    // No slot: every datagram up to the 100th match (≥ 900) is a host eval.
    let cpu = filter_placement(0);
    assert_eq!(cpu, (991, 0, 0), "CPU does the filtering work");
    // One slot: the device drops every non-match before the 100th match.
    let device = filter_placement(4);
    assert_eq!(
        device,
        (0, 49_600, 891),
        "offloaded filter must not burn host evals"
    );
}

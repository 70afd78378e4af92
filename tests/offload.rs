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

use std::collections::HashMap;

use demikernel::libos::catnip::Catnip;
use demikernel::libos::{LibOs, SocketKind};
use demikernel::runtime::Runtime;
use demikernel::testing::{catnip_pair, catnip_pair_offload, host_ip};
use demikernel::types::{OperationResult, QDesc, Sga};
use net_stack::types::SocketAddr;
use proptest::prelude::*;
use sim_fabric::SimTime;

const KV_PORT: u16 = 6379;
const ECHO_PORT: u16 = 7001;

/// Idle time long enough for delayed ACKs to flush so the device re-arms
/// a quiescent flow after a host-served fallback.
fn quiesce(rt: &Runtime) {
    rt.settle(SimTime::from_micros(50_000));
}

/// Connects client to a freshly-listening server; returns (client qd,
/// server connection qd).
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
    let (rt, _fabric, client, server) = if offloaded {
        catnip_pair_offload(seed, 4)
    } else {
        catnip_pair(seed)
    };
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
    let (rt, _fabric, client, server) = if offloaded {
        catnip_pair_offload(seed, 4)
    } else {
        catnip_pair(seed)
    };
    let (cqd, sqd) = tcp_pair(&client, &server, ECHO_PORT);
    if offloaded {
        server.install_echo_offload(ECHO_PORT).unwrap();
    }

    // Host-side echo: serves whatever the device does not.
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
    // Host echo loop: idles while the device serves; takes over on
    // uninstall.
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

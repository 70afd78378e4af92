//! A Redis-class RESP server over the Demikernel datapath.
//!
//! This is the paper's thesis as a working program: a kernel-bypass
//! server with OS services. The network path is catnip (user-level TCP
//! over a DPDK-class device), the storage path is catfs (a log-native
//! file system over an NVMe-class device), and the application is
//! demi-kv — a Redis-dialect key-value server with:
//!
//! - **Zero-copy RESP**: requests parse directly over received buffer
//!   views; values live in the store as sub-views of the RX buffers
//!   that carried them; GET replies share those views into TX.
//! - **Deep pipelining**: every complete command in a burst executes in
//!   one pass and the replies leave as one push — the SGA is the unit on
//!   the stream, so small reply buffers share segments (a depth-1 GET
//!   reply is one frame) and one pop returns everything that arrived.
//! - **Real cache semantics**: LRU eviction under a byte budget plus
//!   millisecond TTLs (`SET k v PX 100`, `PEXPIRE`, `PTTL`).
//! - **Group-committed durability**: all mutations of a burst append to
//!   a catfs log as ONE record — acknowledgments release only after the
//!   record is durable, and a recovery scan rebuilds exactly the
//!   acknowledged state. A burst longer than a segment still commits
//!   about twice, not once per segment: what arrives while the server
//!   waits on a commit is picked up by the next pop, whole.
//!
//! Run with: `cargo run --example kv_server`

use std::rc::Rc;

use demi_kv::log::{apply, decode_batch};
use demi_kv::resp::encode_command;
use demi_kv::store::KvStore;
use demi_kv::{KvConn, KvEngine, KvEngineConfig};
use demi_memory::DemiBuffer;
use demikernel::libos::catfs::Catfs;
use demikernel::libos::{LibOs, SocketKind};
use demikernel::testing::{catnip_pair, host_ip};
use demikernel::types::{OperationResult, Sga};
use net_stack::types::SocketAddr;
use spdk_sim::nvme::{NvmeConfig, NvmeDevice};
use std::cell::RefCell;

fn main() {
    // One runtime, two devices: the catnip pair's simulated NIC fabric
    // plus an NVMe-class device for the append-only mutation log.
    let (rt, _fabric, client, server) = catnip_pair(11);
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    let fs = Catfs::new(&rt, device.clone());
    let log_qd = fs.create("kv.aof").expect("create log");

    // Server setup: listen, accept the demo client.
    let listen_qd = server.socket(SocketKind::Tcp).expect("server socket");
    server
        .bind(listen_qd, SocketAddr::new(host_ip(2), 6379))
        .expect("bind");
    server.listen(listen_qd, 64).expect("listen");
    let accept_qt = server.accept(listen_qd).expect("accept");
    let client_qd = client.socket(SocketKind::Tcp).expect("client socket");
    let connect_qt = client
        .connect(client_qd, SocketAddr::new(host_ip(2), 6379))
        .expect("connect");
    let conn_qd = server
        .wait(accept_qt, None)
        .expect("accept wait")
        .expect_accept();
    client.wait(connect_qt, None).expect("connect wait");

    // The engine: 1 MiB budget, durable. Shared with main so the demo
    // can read its counters after the traffic.
    let engine = Rc::new(RefCell::new(KvEngine::new(
        KvEngineConfig {
            byte_budget: 1 << 20,
            durable: true,
        },
        server.memory().clone(),
        rt.now(),
    )));

    // The serving loop: pop every raw stream chunk that has arrived (RESP
    // is self-delimiting — no DEMI framing), drain the WHOLE burst, release
    // immediate replies, group-commit the burst's mutations as ONE
    // catfs record, then release the acknowledgments that depended on
    // durability.
    let server_clone = server.clone();
    let fs_clone = fs.clone();
    let rt_clone = rt.clone();
    let engine_clone = engine.clone();
    rt.spawn_background("kv-server", async move {
        let mut conn = KvConn::new();
        loop {
            let Ok(qt) = server_clone.pop_unframed(conn_qd) else {
                return;
            };
            let OperationResult::Pop { sga, .. } = server_clone.runtime().await_op(qt).await else {
                return;
            };
            for seg in sga.segments() {
                conn.feed(seg.clone());
            }
            let r = engine_clone.borrow_mut().drain(&mut conn, rt_clone.now());
            if !r.immediate.is_empty() {
                let burst = Sga::from_bufs(r.immediate);
                let Ok(qt) = server_clone.push_unframed(conn_qd, &burst) else {
                    return;
                };
                let _ = server_clone.runtime().await_op(qt).await;
            }
            if let Some(batch) = r.batch {
                // ONE storage submission for the whole burst's mutations.
                let record = Sga::from_bufs(vec![batch]);
                let Ok(qt) = fs_clone.push(log_qd, &record) else {
                    return;
                };
                let _ = fs_clone.runtime().await_op(qt).await;
                let burst = Sga::from_bufs(r.deferred);
                let Ok(qt) = server_clone.push_unframed(conn_qd, &burst) else {
                    return;
                };
                let _ = server_clone.runtime().await_op(qt).await;
            }
            if r.disconnect {
                return;
            }
        }
    });

    // Client helpers: send one pipelined burst, receive an exact reply.
    let send_burst = |bytes: Vec<u8>| {
        // Vec → DemiBuffer takes ownership: building the request costs
        // no datapath copy.
        let sga = Sga::from_bufs(vec![DemiBuffer::from(bytes)]);
        let qt = client.push_unframed(client_qd, &sga).expect("push");
        client.wait(qt, None).expect("push wait");
    };
    let recv_exact = |n: usize| -> Vec<u8> {
        let mut got = Vec::new();
        while got.len() < n {
            let qt = client.pop_unframed(client_qd).expect("pop");
            let (_, sga) = client.wait(qt, None).expect("pop wait").expect_pop();
            got.extend_from_slice(&sga.to_vec());
        }
        got
    };

    // A 6-deep pipelined burst: five SETs and a PING, one TX, one RX.
    println!("pipelined SET burst (6 commands, one group commit)...");
    let mut burst = Vec::new();
    for i in 0..5 {
        encode_command(
            &mut burst,
            &[
                b"SET",
                format!("key{i}").as_bytes(),
                format!("value-{i}").as_bytes(),
            ],
        );
    }
    encode_command(&mut burst, &[b"PING"]);
    send_burst(burst);
    let expected = b"+OK\r\n+OK\r\n+OK\r\n+OK\r\n+OK\r\n+PONG\r\n";
    assert_eq!(recv_exact(expected.len()), expected);

    // A pipelined GET burst: replies coalesce, values travel zero-copy.
    println!("pipelined GET burst...");
    let mut burst = Vec::new();
    for i in 0..5 {
        encode_command(&mut burst, &[b"GET", format!("key{i}").as_bytes()]);
    }
    send_burst(burst);
    let expected: Vec<u8> = (0..5)
        .flat_map(|i| format!("$7\r\nvalue-{i}\r\n").into_bytes())
        .collect();
    assert_eq!(recv_exact(expected.len()), expected);

    // TTL: set with a 50ms deadline, watch it expire on the wheel.
    println!("TTL: SET ephemeral PX 50 ...");
    let mut burst = Vec::new();
    encode_command(
        &mut burst,
        &[b"SET", b"ephemeral", b"short-lived", b"PX", b"50"],
    );
    encode_command(&mut burst, &[b"PTTL", b"ephemeral"]);
    send_burst(burst);
    let expected = b"+OK\r\n:50\r\n";
    assert_eq!(recv_exact(expected.len()), expected);
    rt.settle(sim_fabric::SimTime::from_millis(60));
    let mut burst = Vec::new();
    encode_command(&mut burst, &[b"GET", b"ephemeral"]);
    send_burst(burst);
    assert_eq!(recv_exact(5), b"$-1\r\n", "expired on the timer wheel");

    let stats = engine.borrow().stats();
    let replies = engine.borrow().reply_stats();
    println!(
        "engine: {} commands over {} bursts (deepest {}), {} mutations in {} group commits",
        stats.commands, stats.bursts, stats.max_burst, stats.logged_ops, stats.batches
    );
    println!(
        "reply path: {} headers prepended in place, {} fallbacks, {} control segments",
        replies.prepend_hits, replies.prepend_fallbacks, replies.ctrl_segments
    );
    let batches_written = stats.batches;
    assert_eq!(stats.max_burst, 6, "the SET burst drained in one pass");

    // ------------------------------------------------------------------
    // Crash. A fresh catfs instance scans the same device, replays the
    // group-commit records in order, and rebuilds exactly the
    // acknowledged state.
    // ------------------------------------------------------------------
    println!("crash; recovering from the catfs log...");
    drop(engine);
    let rt2 = demikernel::runtime::Runtime::with_clock(rt.clock().clone());
    let fs2 = Catfs::new(&rt2, device);
    let recovered_qd = fs2.recover("kv.aof").expect("recover");
    let mut store = KvStore::new(1 << 20, rt2.now());
    let now = rt2.now();
    for _ in 0..batches_written {
        let (_, sga) = fs2
            .blocking_pop(recovered_qd)
            .expect("pop record")
            .expect_pop();
        for entry in decode_batch(&sga.to_vec()).expect("valid record") {
            apply(&mut store, &entry, now);
        }
    }
    // The ephemeral key replays with its original absolute deadline —
    // already in the past — so the recovered store omits it, exactly as
    // the crashed instance would have.
    let dump = store.dump(now);
    assert_eq!(
        dump.len(),
        5,
        "five durable keys; the expired TTL key is gone"
    );
    for (i, (key, value)) in dump.iter().enumerate() {
        assert_eq!(*key, format!("key{i}").into_bytes());
        assert_eq!(*value, format!("value-{i}").into_bytes());
    }
    println!(
        "recovered {} keys from {batches_written} group-commit records — \
         every acknowledged SET survived the crash",
        dump.len()
    );
}

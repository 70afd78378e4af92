//! End-to-end demi-kv integration: RESP over the catnip raw byte
//! stream, zero-copy accounting on the warmed GET path, write-through
//! coherence between the host store and the NIC-resident GET cache, and
//! group-committed durability through catfs, and the SGA-granular stream
//! (one reply, one segment; one pop, everything that arrived) under the
//! serving loop of `examples/kv_server.rs`.
//!
//! The serving loop here is deliberately lock-step (push → pop → drain →
//! reply) rather than a background coroutine, so every test can inspect
//! the engine's [`demi_kv::DrainResult`] — burst depth, reply segment
//! counts, group-commit records — instead of only the wire bytes.

mod support;

use demi_kv::log::{apply, decode_batch};
use demi_kv::resp::encode_command;
use demi_kv::store::{CacheMirror, KvStore};
use demi_kv::{DrainResult, KvConn, KvEngine, KvEngineConfig};
use demi_memory::{counters as mem_counters, DemiBuffer};
use demikernel::libos::catfs::Catfs;
use demikernel::libos::catnip::Catnip;
use demikernel::libos::LibOs;
use demikernel::runtime::Runtime;
use demikernel::testing::{catnip_pair, catnip_pair_offload, AllocMeter};
use demikernel::types::{OperationResult, QDesc, Sga};
use net_stack::counters as nsc;
use net_stack::tcp::ConnId;
use sim_fabric::SimTime;
use spdk_sim::nvme::{NvmeConfig, NvmeDevice};
use support::alloc_sites::{assert_allocs, SiteAlloc};
use support::{tcp_pair, PeerWorld};

/// Counts this thread's heap allocations inside an [`AllocMeter`] window,
/// and says where they came from when a pin fails.
#[global_allocator]
static ALLOCATOR: SiteAlloc = SiteAlloc;

/// Client sends one pipelined burst on the raw stream (RESP is
/// self-delimiting — no DEMI framing), the server pops whatever
/// arrived, feeds the parser, and drains the engine once.
#[allow(clippy::too_many_arguments)]
fn send_and_drain(
    client: &Catnip,
    server: &Catnip,
    cqd: QDesc,
    sqd: QDesc,
    engine: &mut KvEngine,
    conn: &mut KvConn,
    burst: Vec<u8>,
    now: SimTime,
) -> DrainResult {
    // Vec → DemiBuffer takes ownership: building the request costs no
    // datapath copy.
    let sga = Sga::from_bufs(vec![DemiBuffer::from(burst)]);
    let qt = client.push_unframed(cqd, &sga).unwrap();
    client.wait(qt, None).unwrap();
    let qt = server.pop_unframed(sqd).unwrap();
    let (_, sga) = server.wait(qt, None).unwrap().expect_pop();
    for seg in sga.segments() {
        conn.feed(seg.clone());
    }
    engine.drain(conn, now)
}

/// Pushes a reply burst back and reads exactly `expect` bytes at the
/// client.
fn reply_and_recv(
    client: &Catnip,
    server: &Catnip,
    cqd: QDesc,
    sqd: QDesc,
    segs: Vec<DemiBuffer>,
    expect: usize,
) -> Vec<u8> {
    let burst = Sga::from_bufs(segs);
    let qt = server.push_unframed(sqd, &burst).unwrap();
    server.wait(qt, None).unwrap();
    let mut got = Vec::new();
    while got.len() < expect {
        let qt = client.pop_unframed(cqd).unwrap();
        let (_, sga) = client.wait(qt, None).unwrap().expect_pop();
        got.extend_from_slice(&sga.to_vec());
    }
    got
}

fn engine(memory: demi_memory::MemoryManager, now: SimTime, durable: bool) -> KvEngine {
    KvEngine::new(
        KvEngineConfig {
            byte_budget: 1 << 20,
            durable,
        },
        memory,
        now,
    )
}

// ---------------------------------------------------------------------
// RESP end-to-end: a pipelined burst drains in one pass, replies
// coalesce, and a command split mid-argument reassembles correctly.
// ---------------------------------------------------------------------

#[test]
fn pipelined_resp_burst_over_catnip_stream() {
    let (rt, _fabric, client, server) = catnip_pair(31);
    let (cqd, sqd) = tcp_pair(&client, &server, 6379);
    let mut eng = engine(server.memory().clone(), rt.now(), false);
    let mut conn = KvConn::new();

    // Five commands, one TX, one engine pass, one coalesced reply burst.
    let mut burst = Vec::new();
    encode_command(&mut burst, &[b"PING"]);
    encode_command(&mut burst, &[b"SET", b"alpha", b"first"]);
    encode_command(&mut burst, &[b"GET", b"alpha"]);
    encode_command(&mut burst, &[b"DEL", b"alpha"]);
    encode_command(&mut burst, &[b"GET", b"alpha"]);
    let r = send_and_drain(
        &client,
        &server,
        cqd,
        sqd,
        &mut eng,
        &mut conn,
        burst,
        rt.now(),
    );
    assert_eq!(r.depth, 5, "the whole burst executes in one pass");
    assert!(r.batch.is_none(), "non-durable: nothing group-commits");
    assert!(r.deferred.is_empty());
    let expected = b"+PONG\r\n+OK\r\n$5\r\nfirst\r\n:1\r\n$-1\r\n";
    let got = reply_and_recv(&client, &server, cqd, sqd, r.immediate, expected.len());
    assert_eq!(got, expected);
    assert_eq!(eng.stats().max_burst, 5);

    // A command split mid-argument across two TX bursts: the first
    // drain holds the partial, the second completes it via the
    // parser's counted reassembly fallback.
    let mut split = Vec::new();
    encode_command(&mut split, &[b"SET", b"beta", b"second-value"]);
    let cut = split.len() - 7; // inside the value argument
    let head = split[..cut].to_vec();
    let tail = split[cut..].to_vec();
    let r = send_and_drain(
        &client,
        &server,
        cqd,
        sqd,
        &mut eng,
        &mut conn,
        head,
        rt.now(),
    );
    assert_eq!(r.depth, 0, "no complete command yet");
    assert!(r.immediate.is_empty());
    let r = send_and_drain(
        &client,
        &server,
        cqd,
        sqd,
        &mut eng,
        &mut conn,
        tail,
        rt.now(),
    );
    assert_eq!(r.depth, 1);
    let got = reply_and_recv(&client, &server, cqd, sqd, r.immediate, 5);
    assert_eq!(got, b"+OK\r\n");
    assert!(
        conn.parser_stats().reassembled_args > 0,
        "the straddling argument took the counted reassembly path"
    );
    assert_eq!(
        eng.store_mut().get(b"beta", rt.now()).unwrap().to_vec(),
        b"second-value"
    );
}

// ---------------------------------------------------------------------
// Zero-copy and coalescing: a warmed pipelined GET moves no payload
// bytes and replies in a bounded number of segments.
// ---------------------------------------------------------------------

#[test]
fn warmed_get_burst_is_zero_copy_and_coalesced() {
    const DEPTH: usize = 8;
    let (rt, _fabric, client, server) = catnip_pair(32);
    let (cqd, sqd) = tcp_pair(&client, &server, 6379);
    let mut eng = engine(server.memory().clone(), rt.now(), false);
    let mut conn = KvConn::new();

    // Preload over the wire so stored values are sub-views of the RX
    // buffers that carried them.
    let mut burst = Vec::new();
    for i in 0..DEPTH {
        encode_command(
            &mut burst,
            &[
                b"SET",
                format!("key{i}").as_bytes(),
                format!("value-{i}").as_bytes(),
            ],
        );
    }
    let r = send_and_drain(
        &client,
        &server,
        cqd,
        sqd,
        &mut eng,
        &mut conn,
        burst,
        rt.now(),
    );
    let _ = reply_and_recv(&client, &server, cqd, sqd, r.immediate, DEPTH * 5);

    let get_burst = || {
        let mut b = Vec::new();
        for i in 0..DEPTH {
            encode_command(&mut b, &[b"GET", format!("key{i}").as_bytes()]);
        }
        b
    };
    let expected: Vec<u8> = (0..DEPTH)
        .flat_map(|i| format!("$7\r\nvalue-{i}\r\n").into_bytes())
        .collect();

    // Warm once (pool populated, parser and reply paths steady).
    let r = send_and_drain(
        &client,
        &server,
        cqd,
        sqd,
        &mut eng,
        &mut conn,
        get_burst(),
        rt.now(),
    );
    let got = reply_and_recv(&client, &server, cqd, sqd, r.immediate, expected.len());
    assert_eq!(got, expected);

    // Measured window: parse over RX views, look up, build the reply
    // burst sharing value handles. The counter window brackets each
    // engine pass — the serving path itself — so wire-header
    // serialization (E12's axis, measured there) stays out of frame;
    // `get_cost_is_flat…` below asserts the whole-path version.
    let reasm_before = conn.parser_stats().reassembled_args;
    let (mut drain_copies, mut drain_bytes) = (0u64, 0u64);
    for _ in 0..16 {
        // Deliver the burst to the server without draining yet.
        let sga = Sga::from_bufs(vec![DemiBuffer::from(get_burst())]);
        let qt = client.push_unframed(cqd, &sga).unwrap();
        client.wait(qt, None).unwrap();
        let qt = server.pop_unframed(sqd).unwrap();
        let (_, rsga) = server.wait(qt, None).unwrap().expect_pop();
        for seg in rsga.segments() {
            conn.feed(seg.clone());
        }
        let before = mem_counters::snapshot();
        let r = eng.drain(&mut conn, rt.now());
        let d = mem_counters::snapshot().delta(&before);
        drain_copies += d.copies;
        drain_bytes += d.bytes_copied;
        assert_eq!(r.depth, DEPTH);
        assert!(
            r.immediate.len() <= 2 * DEPTH + 1,
            "replies must coalesce: {} segments for a depth-{DEPTH} burst",
            r.immediate.len()
        );
        let got = reply_and_recv(&client, &server, cqd, sqd, r.immediate, expected.len());
        assert_eq!(got, expected);
    }
    assert_eq!(
        drain_bytes, 0,
        "warmed pipelined GETs must move zero payload bytes through the engine"
    );
    assert_eq!(drain_copies, 0, "no copy calls on the warmed GET path");
    assert_eq!(
        conn.parser_stats().reassembled_args,
        reasm_before,
        "single-segment bursts never take the reassembly fallback"
    );
}

/// A warmed depth-1 GET through the whole serving path — the request's
/// `sgaalloc` and push, the server's `pop_unframed`, `KvEngine::drain`,
/// the reply's `push_unframed` and the client's pop — allocates nothing:
/// the `DrainResult::immediate` vector the reply rides in is the spare
/// one the last reply `Sga` gave back. Catches, one line each:
/// `value.len().to_string()` back in `ReplyWriter::bulk`, a fresh argument
/// `Vec` per parsed command, `drain` appending the writer's segments into
/// a second vector, the chunk list `mem::take`n out of the connection by
/// every `pop_unframed`, and a dropped `Sga` freeing its vector.
#[test]
fn a_depth1_get_allocates_nothing() {
    let (rt, _fabric, client, server) = catnip_pair(36);
    let (cqd, sqd) = tcp_pair(&client, &server, 6379);
    let mut eng = engine(server.memory().clone(), rt.now(), false);
    let mut conn = KvConn::new();
    let mut set = Vec::new();
    encode_command(&mut set, &[b"SET", b"key", &[0x5A; 64]]);
    let r = send_and_drain(
        &client,
        &server,
        cqd,
        sqd,
        &mut eng,
        &mut conn,
        set,
        rt.now(),
    );
    assert_eq!(
        reply_and_recv(&client, &server, cqd, sqd, r.immediate, 5),
        b"+OK\r\n"
    );
    let mut get = Vec::new();
    encode_command(&mut get, &[b"GET", b"key"]);
    let mut round = || {
        let mut request = client.sgaalloc(get.len());
        request.segments_mut()[0]
            .try_mut()
            .unwrap()
            .copy_from_slice(&get);
        let qt = client.push_unframed(cqd, &request).unwrap();
        client.wait(qt, None).unwrap();
        let qt = server.pop_unframed(sqd).unwrap();
        let (_, sga) = server.wait(qt, None).unwrap().expect_pop();
        for seg in sga.segments() {
            conn.feed(seg.clone());
        }
        let r = eng.drain(&mut conn, rt.now());
        let qt = server.push_unframed(sqd, &Sga::from_bufs(r.immediate));
        server.wait(qt.unwrap(), None).unwrap();
        let qt = client.pop_unframed(cqd).unwrap();
        let (_, reply) = client.wait(qt, None).unwrap().expect_pop();
        assert_eq!(
            reply.len(),
            b"$64\r\n\r\n".len() + 64,
            "one pop, the whole reply"
        );
    };
    // Warm the pools and rings, and walk 20 ms of virtual time so every
    // timer-wheel slot a connection's deadlines land in has held one — in
    // steps below the 5 ms idle compaction, which would free the queues.
    for _ in 0..100 {
        round();
        rt.settle(SimTime::from_micros(200));
    }
    (0..4).for_each(|_| round());
    assert_allocs(0, "a depth-1 GET", round);
}

/// Warms `round` for an allocation pin: 100 rounds 200 µs of virtual time
/// apart, so the pools, rings and timer-wheel slots of a spaced round are
/// warm — in steps below the 5 ms idle compaction, which would free the
/// connection's queues.
fn warm(rt: &Runtime, mut round: impl FnMut()) {
    for _ in 0..100 {
        round();
        rt.settle(SimTime::from_micros(200));
    }
}

/// A catnip pair whose server holds `depth` 1 KiB values — preloaded over
/// the wire sixteen at a time, so each value is a view of the frame it came
/// in — and a warmed round that pushes the `depth`-GET burst, drains it in
/// one pass, pushes the reply and reads all of it at the client through
/// the stack's `tcp_recv_all` into a kept vector. The round returns the
/// buffer copies the reply took on its way. The server reads the request
/// with `pop_unframed` when `pop` is set; otherwise through `tcp_recv_all`
/// too, which keeps the chunk list of a request longer than a segment out
/// of the round (`a_multi_chunk_pop_allocates_nothing` pins it).
fn warmed_get_burst(depth: usize, seed: u64, pop: bool) -> impl FnMut() -> u64 {
    let (rt, _fabric, client, server) = catnip_pair(seed);
    let (cqd, sqd) = tcp_pair(&client, &server, 6379);
    let mut eng = engine(server.memory().clone(), rt.now(), false);
    let mut conn = KvConn::new();
    let keys: Vec<_> = (0..depth).map(|i| format!("key{i:03}")).collect();
    for group in keys.chunks(16) {
        let mut sets = Vec::new();
        group
            .iter()
            .for_each(|key| encode_command(&mut sets, &[b"SET", key.as_bytes(), &[0xC3; 1024]]));
        let qt = client
            .push_unframed(cqd, &Sga::from_bufs(vec![DemiBuffer::from(sets)]))
            .unwrap();
        client.wait(qt, None).unwrap();
        let mut acks = Vec::new();
        while acks.len() < group.len() * 5 {
            let qt = server.pop_unframed(sqd).unwrap();
            let (_, sga) = server.wait(qt, None).unwrap().expect_pop();
            sga.segments().iter().for_each(|seg| conn.feed(seg.clone()));
            let r = eng.drain(&mut conn, rt.now());
            acks.extend(reply_and_recv(
                &client,
                &server,
                cqd,
                sqd,
                r.immediate,
                r.depth * 5,
            ));
        }
        assert_eq!(acks, b"+OK\r\n".repeat(group.len()));
    }

    let mut get = Vec::new();
    keys.iter()
        .for_each(|key| encode_command(&mut get, &[b"GET", key.as_bytes()]));
    let expect = depth * (b"$1024\r\n\r\n".len() + 1024);
    let (mut requested, mut received) = (Vec::new(), Vec::new());
    let clock = rt.clone();
    let mut round = move || {
        let mut request = client.sgaalloc(get.len());
        request.segments_mut()[0]
            .try_mut()
            .unwrap()
            .copy_from_slice(&get);
        let qt = client.push_unframed(cqd, &request).unwrap();
        client.wait(qt, None).unwrap();
        if pop {
            let qt = server.pop_unframed(sqd).unwrap();
            let (_, sga) = server.wait(qt, None).unwrap().expect_pop();
            sga.segments().iter().for_each(|seg| conn.feed(seg.clone()));
        } else {
            let mut got = 0;
            while got < get.len() {
                rt.settle(SimTime::from_micros(20));
                server
                    .stack()
                    .tcp_recv_all(ConnId(0), &mut requested)
                    .unwrap();
                for chunk in requested.drain(..) {
                    got += chunk.len();
                    conn.feed(chunk);
                }
            }
        }
        let r = eng.drain(&mut conn, rt.now());
        assert_eq!(r.depth, depth);
        let before = mem_counters::snapshot();
        let qt = server.push_unframed(sqd, &Sga::from_bufs(r.immediate));
        server.wait(qt.unwrap(), None).unwrap();
        let mut got = 0;
        while got < expect {
            rt.settle(SimTime::from_micros(20));
            client
                .stack()
                .tcp_recv_all(ConnId(0), &mut received)
                .unwrap();
            got += received.drain(..).map(|chunk| chunk.len()).sum::<usize>();
        }
        assert_eq!(got, expect);
        mem_counters::snapshot().delta(&before).copies
    };
    warm(&clock, || {
        round();
    });
    round
}

/// A warmed depth-16 burst of 1 KiB GETs through catnip — the request's
/// push and pop, `KvEngine::drain`, and the reply's push, segmentation and
/// delivery — allocates nothing and copies nothing: every value and every
/// control run is a link of a segment's chain, and a header that cannot go
/// in place takes a header link from the warm copy pool. The reply vector
/// is a spare one reserved to the previous burst's length at its first
/// push. Catches the vector growing one doubling at a time again (four
/// allocations here), a fresh reply vector per burst (one), and any
/// payload copy coming back into segmentation.
#[test]
fn a_depth16_get_burst_allocates_nothing() {
    let mut round = warmed_get_burst(16, 37, true);
    let mut copies = 0;
    assert_allocs(0, "a depth-16 GET burst", || copies = round());
    assert_eq!(copies, 0, "no byte of a 1 KiB-value reply burst is copied");
}

/// The reply vector costs nothing at any pipeline depth: a warmed burst of
/// 1, 16, 64 and — at the release budget — 256 GETs of 1 KiB each
/// allocates nothing, where a fresh vector reserved to the last burst took
/// one allocation and growing it from empty one per doubling (1, 4, 6 and
/// 8).
#[test]
fn a_get_burst_allocates_nothing_at_any_depth() {
    let depths: &[usize] = if cfg!(debug_assertions) {
        &[1, 16, 64]
    } else {
        &[1, 16, 64, 256]
    };
    for &depth in depths {
        let mut round = warmed_get_burst(depth, 40 + depth as u64, false);
        assert_allocs(0, &format!("a depth-{depth} GET burst"), || {
            round();
        });
    }
}

/// A warmed `pop_unframed` that finds 2, 12 or 40 chunks waiting hands them
/// over as one `Sga` and allocates nothing: the queue's chunk list is
/// refilled from the spare vector the previous pop's `Sga` gave back, and
/// the stack reserves the ready queue's length once before draining into
/// it. A list `mem::take`n per pop allocated once, and pushing the chunks
/// on one at a time grew it once per doubling (1, 3 and 5 allocations).
/// Each pool buffer is half the default MSS with headroom, so it travels
/// alone and arrives as one chunk.
#[test]
fn a_multi_chunk_pop_allocates_nothing() {
    for (chunks, seed) in [(2, 50), (12, 51), (40, 52)] {
        let (rt, _fabric, client, server) = catnip_pair(seed);
        let (cqd, sqd) = tcp_pair(&client, &server, 7000);
        let bufs = (0..chunks).map(|_| client.sgaalloc(730).segments()[0].clone());
        let burst = Sga::from_bufs(bufs.collect());
        let mut round = || {
            let qt = client.push_unframed(cqd, &burst).unwrap();
            client.wait(qt, None).unwrap();
            rt.settle(SimTime::from_micros(100));
            let qt = server.pop_unframed(sqd).unwrap();
            let (_, sga) = server.wait(qt, None).unwrap().expect_pop();
            assert_eq!(sga.segments().len(), chunks, "one pop, every chunk");
        };
        warm(&rt, &mut round);
        assert_allocs(0, &format!("a {chunks}-chunk pop"), round);
    }
}

/// A warmed durable drain of sixteen 1 KiB SETs whose values all straddle
/// received chunks allocates exactly its reply vector: each reassembled
/// value is a recycled copy-pool buffer, the record is encoded straight
/// into a buffer from the engine's pool, and the pass's list of logged
/// mutations is the engine's, kept between passes. Catches the list built
/// fresh per pass again (three allocations as it grows to 16), a
/// reassembled argument built on the heap (three per value) and the record
/// encoded into a vector again (one).
#[test]
fn a_durable_drain_of_reassembled_sets_allocates_only_its_reply_vec() {
    const DEPTH: u64 = 16;
    let now = SimTime::ZERO;
    let mut eng = engine(demi_memory::MemoryManager::new(), now, true);
    let mut conn = KvConn::new();
    let mut burst = Vec::new();
    for i in 0..DEPTH {
        let key = format!("key{i:02}");
        encode_command(&mut burst, &[b"SET", key.as_bytes(), &[0xC3; 1024]]);
    }
    // No 1 000-byte chunk can hold a 1 KiB value: every one is reassembled.
    let chunks: Vec<_> = burst.chunks(1_000).map(DemiBuffer::from_slice).collect();
    let mut pass = || {
        let reassembled = conn.parser_stats().reassembled_args;
        chunks.iter().for_each(|chunk| conn.feed(chunk.clone()));
        let r = eng.drain(&mut conn, now);
        assert_eq!(r.depth as u64, DEPTH);
        assert!(r.immediate.is_empty() && r.batch.is_some());
        assert_eq!(r.deferred.len(), 1, "sixteen +OKs, one control run");
        assert!(conn.parser_stats().reassembled_args - reassembled >= DEPTH);
    };
    (0..4).for_each(|_| pass());
    assert_allocs(1, "a durable 16-SET drain", pass);
}

// ---------------------------------------------------------------------
// Coherence: the host store and the NIC-resident GET cache share ONE
// insert/invalidate path — every host-side removal the device cannot
// observe on the wire rings the invalidate doorbell.
// ---------------------------------------------------------------------

struct OffloadMirror {
    libos: Catnip,
}

impl CacheMirror for OffloadMirror {
    fn insert(&mut self, key: &[u8], value: &[u8]) -> bool {
        self.libos.offload_cache_insert(key, value)
    }

    fn invalidate(&mut self, key: &[u8]) {
        let _ = self.libos.offload_cache_invalidate(key);
    }
}

#[test]
fn host_and_device_caches_share_one_invalidate_path() {
    let (rt, _fabric, _client, server) = catnip_pair_offload(33, 4);
    server.install_kv_offload(6379, 4 * 1024).unwrap();
    // A deliberately tiny budget so the eviction path triggers too.
    let mut store = KvStore::new(256, rt.now());
    store.set_mirror(Box::new(OffloadMirror {
        libos: server.clone(),
    }));
    let stats = || server.offload_stats().expect("offload installed");

    // Insert-after-miss publishes into device memory.
    store
        .set(b"alpha", DemiBuffer::from_slice(b"one"), None, rt.now())
        .unwrap();
    assert!(store.publish_to_mirror(b"alpha"));
    assert!(
        stats().cache_bytes > 0,
        "published value is device-resident"
    );
    assert_eq!(stats().kv_invalidations, 0);

    // Overwrite: the device must never serve the stale value.
    store
        .set(b"alpha", DemiBuffer::from_slice(b"two"), None, rt.now())
        .unwrap();
    assert_eq!(stats().kv_invalidations, 1, "overwrite rings the doorbell");
    assert_eq!(stats().cache_bytes, 0, "stale value left device memory");

    // DEL of a republished key invalidates again.
    assert!(store.publish_to_mirror(b"alpha"));
    assert!(store.del(b"alpha", rt.now()));
    assert_eq!(stats().kv_invalidations, 2);

    // TTL expiry (lazy, on the late GET) invalidates.
    store
        .set(
            b"beta",
            DemiBuffer::from_slice(b"fleeting"),
            Some(rt.now().saturating_add(SimTime::from_millis(1))),
            rt.now(),
        )
        .unwrap();
    assert!(store.publish_to_mirror(b"beta"));
    rt.settle(SimTime::from_millis(2));
    assert!(store.get(b"beta", rt.now()).is_none(), "expired");
    assert_eq!(stats().kv_invalidations, 3, "expiry rings the doorbell");

    // LRU eviction under the byte budget invalidates the victims.
    let before = stats().kv_invalidations;
    for i in 0..12 {
        let key = format!("bulk{i:02}").into_bytes();
        store
            .set(&key, DemiBuffer::from_slice(&[0x42; 24]), None, rt.now())
            .unwrap();
        assert!(store.publish_to_mirror(&key));
    }
    assert!(
        store.stats().evictions > 0,
        "the tiny budget forced evictions"
    );
    assert!(
        stats().kv_invalidations > before,
        "every eviction of a device-resident key rang the doorbell"
    );
}

// ---------------------------------------------------------------------
// Durability: replies that depend on a mutation ride behind its group
// commit; replay on a fresh catfs instance rebuilds acknowledged state.
// ---------------------------------------------------------------------

#[test]
fn group_commit_replay_restores_acknowledged_sets() {
    let rt = Runtime::new();
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    let fs = Catfs::new(&rt, device.clone());
    let qd = fs.create("kv-test.aof").unwrap();
    let mut eng = engine(demi_memory::MemoryManager::new(), rt.now(), true);
    let mut conn = KvConn::new();

    // PING and the missing GET precede the first mutation: immediate.
    // Everything from the SET on is deferred behind the group commit.
    let mut burst = Vec::new();
    encode_command(&mut burst, &[b"PING"]);
    encode_command(&mut burst, &[b"GET", b"a"]);
    encode_command(&mut burst, &[b"SET", b"a", b"1"]);
    encode_command(&mut burst, &[b"GET", b"a"]);
    encode_command(&mut burst, &[b"SET", b"b", b"2"]);
    conn.feed(DemiBuffer::from(burst));
    let r = eng.drain(&mut conn, rt.now());
    let flat = |segs: &[DemiBuffer]| -> Vec<u8> {
        segs.iter().flat_map(|s| s.as_slice().to_vec()).collect()
    };
    assert_eq!(flat(&r.immediate), b"+PONG\r\n$-1\r\n");
    assert_eq!(flat(&r.deferred), b"+OK\r\n$1\r\n1\r\n+OK\r\n");
    let batch = r.batch.expect("two SETs group-commit as one record");
    fs.blocking_push(qd, &Sga::from_bufs(vec![batch])).unwrap();
    // A last burst whose record never reaches the device: its replies
    // were never released, so replay must not know the key.
    let mut lost = Vec::new();
    encode_command(&mut lost, &[b"SET", b"lost", b"never-acked"]);
    conn.feed(DemiBuffer::from(lost));
    let r = eng.drain(&mut conn, rt.now());
    assert!(
        r.immediate.is_empty() && r.batch.is_some(),
        "no SET may be acknowledged ahead of its log record"
    );

    // Crash: a fresh catfs on the same device replays what was pushed.
    let rt2 = Runtime::with_clock(rt.clock().clone());
    let fs2 = Catfs::new(&rt2, device);
    let rqd = fs2.recover("kv-test.aof").unwrap();
    let mut recovered = KvStore::new(1 << 20, rt2.now());
    let (_, sga) = fs2.blocking_pop(rqd).unwrap().expect_pop();
    for entry in decode_batch(&sga.to_vec()).unwrap() {
        apply(&mut recovered, &entry, rt2.now());
    }
    let dump = recovered.dump(rt2.now());
    assert_eq!(dump.len(), 2);
    assert_eq!(dump[0], (b"a".to_vec(), b"1".to_vec()));
    assert_eq!(dump[1], (b"b".to_vec(), b"2".to_vec()));
}

// ---------------------------------------------------------------------
// E25: what one group commit costs, as counts. The engine's batch goes to
// the device as one owned multi-block write and the operation waits once.
// ---------------------------------------------------------------------

#[test]
fn a_group_commit_is_one_device_command_and_one_wait() {
    let rt = Runtime::new();
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    let fs = Catfs::new(&rt, device.clone());
    let qd = fs.create("kv-commit.aof").unwrap();
    let mut eng = engine(demi_memory::MemoryManager::new(), rt.now(), true);
    let mut conn = KvConn::new();
    let flash = NvmeConfig::default().latency;

    // Pushes `record`, waits for it, and returns what that cost: (device
    // write commands, blocks written, virtual ns, wait passes, allocations).
    let commit = |record: Sga| {
        let (dev0, run0, t0) = (device.stats(), rt.metrics().snapshot(), rt.now());
        let meter = AllocMeter::arm();
        let qt = fs.push(qd, &record).unwrap();
        assert_eq!(fs.wait(qt, None).unwrap(), OperationResult::Push);
        let allocs = meter.count();
        drop(meter);
        let (dev, run) = (device.stats(), rt.metrics().snapshot());
        (
            dev.writes - dev0.writes,
            dev.blocks_written - dev0.blocks_written,
            rt.now().saturating_since(t0),
            run.wait_passes - run0.wait_passes,
            allocs,
        )
    };

    // Twenty bursts of eight 1 KiB SETs: an 8 422-byte record each, so the
    // log's tail creeps 230 bytes per commit and the eighteenth commit
    // touches four blocks where the others touch three.
    let mut tail = 0u64;
    for round in 0..20 {
        let mut burst = Vec::new();
        for i in 0..8 {
            let key = format!("key:{i:06}");
            encode_command(&mut burst, &[b"SET", key.as_bytes(), &[0xC3; 1024]]);
        }
        conn.feed(DemiBuffer::from(burst));
        let batch = eng.drain(&mut conn, rt.now()).batch.expect("one record");
        assert_eq!(batch.len() + 10, 8_422);
        let blocks = (tail + 8_422).div_ceil(4096);
        assert_eq!(blocks, if round == 17 { 4 } else { 3 });
        let (commands, written, virt, passes, allocs) = commit(Sga::from_bufs(vec![batch]));
        assert_eq!((commands, written), (1, blocks), "round {round}");
        assert_eq!(virt, flash.write_time(blocks), "round {round}");
        assert_eq!(passes, 2, "round {round}: submit, then the completion");
        // Once warm a commit allocates nothing but, now and then, the log's
        // block list or tail cache growing to a new high (pinned at exactly
        // 0 by `a_warmed_catfs_commit_allocates_nothing`).
        let warm = if round < 2 { 17 } else { 1 };
        assert!(allocs <= warm, "round {round}: {allocs} allocations");
        tail = (tail + 8_422) % 4096;
    }
    // A small append is still exactly one one-block command.
    let (commands, written, virt, ..) = commit(Sga::from_slice(&[7; 100]));
    assert_eq!((commands, written, virt), (1, 1, flash.write_time(1)));
}

/// A warmed catfs commit — a `push` of a pool-buffer record, driven to
/// `Push` through the runtime — allocates nothing: the record is encoded
/// into the engine's pool, catfs lays the image out in the write buffer
/// the device handed back, the poller files completions into a kept
/// vector and retires the commit itself, the push is a parked slot, and
/// the media grows an extent at a time (this commit stays inside one).
/// Before those four changes the same commit allocated 4 times: the image,
/// the push's coroutine box, the completion vector and a box for the fresh
/// block.
#[test]
fn a_warmed_catfs_commit_allocates_nothing() {
    let rt = Runtime::new();
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    let fs = Catfs::new(&rt, device);
    let qd = fs.create("kv-warm.aof").unwrap();
    let mut eng = engine(demi_memory::MemoryManager::warmed(), rt.now(), true);
    let mut conn = KvConn::new();
    let mut burst = Vec::new();
    for i in 0..4 {
        let key = format!("key:{i:06}");
        encode_command(&mut burst, &[b"SET", key.as_bytes(), &[0xC3; 1024]]);
    }
    conn.feed(DemiBuffer::from(burst));
    let batch = eng.drain(&mut conn, rt.now()).batch.expect("one record");
    let record = Sga::from_bufs(vec![batch]);
    let commit = || {
        let qt = fs.push(qd, &record).unwrap();
        assert_eq!(fs.wait(qt, None).unwrap(), OperationResult::Push);
    };
    // 4 218-byte commits: the twelfth ends in block 12 of the first extent,
    // and the log's block list has room for sixteen.
    (0..11).for_each(|_| commit());
    assert_allocs(0, "a warmed catfs commit", commit);
}

/// A warmed durable burst through catnip and catfs — the request's push
/// and pop, `KvEngine::drain`, the record's `push` and wait, then the
/// deferred reply's push and the client's pop — allocates exactly one
/// vector, the record `Sga`'s (the serving loop's
/// `Sga::from_bufs(vec![batch])`, one segment, so too small to keep). The
/// deferred reply's vector is a spare one. Before the record became a pool
/// buffer and the commit stopped allocating, the same round allocated 8;
/// before segment vectors were recycled, 2.
#[test]
fn a_durable_burst_allocates_only_its_record_vec() {
    const DEPTH: usize = 4;
    let (rt, _fabric, client, server) = catnip_pair(38);
    let (cqd, sqd) = tcp_pair(&client, &server, 6379);
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    let fs = Catfs::new(&rt, device);
    let log_qd = fs.create("kv-burst.aof").unwrap();
    let mut eng = engine(server.memory().clone(), rt.now(), true);
    let mut conn = KvConn::new();
    let mut sets = Vec::new();
    for i in 0..DEPTH {
        let key = format!("key{i:02}");
        encode_command(&mut sets, &[b"SET", key.as_bytes(), &[0x5A; 64]]);
    }
    let mut round = || {
        let mut request = client.sgaalloc(sets.len());
        request.segments_mut()[0]
            .try_mut()
            .unwrap()
            .copy_from_slice(&sets);
        let qt = client.push_unframed(cqd, &request).unwrap();
        client.wait(qt, None).unwrap();
        let qt = server.pop_unframed(sqd).unwrap();
        let (_, sga) = server.wait(qt, None).unwrap().expect_pop();
        for seg in sga.segments() {
            conn.feed(seg.clone());
        }
        let r = eng.drain(&mut conn, rt.now());
        assert_eq!(r.depth, DEPTH);
        assert!(r.immediate.is_empty());
        let record = Sga::from_bufs(vec![r.batch.expect("one record")]);
        let qt = fs.push(log_qd, &record).unwrap();
        assert_eq!(fs.wait(qt, None).unwrap(), OperationResult::Push);
        let qt = server.push_unframed(sqd, &Sga::from_bufs(r.deferred));
        server.wait(qt.unwrap(), None).unwrap();
        let qt = client.pop_unframed(cqd).unwrap();
        let (_, reply) = client.wait(qt, None).unwrap().expect_pop();
        assert_eq!(reply.len(), DEPTH * b"+OK\r\n".len(), "one pop, every ack");
    };
    // Warm the pools, rings and the timer wheel's slots as the depth-1 GET
    // pin does. The log grows 362 bytes a round: the measured round's
    // blocks are in the first extent.
    for _ in 0..100 {
        round();
        rt.settle(SimTime::from_micros(200));
    }
    (0..4).for_each(|_| round());
    assert_allocs(1, "a durable burst", round);
}

// ---------------------------------------------------------------------
// SGA-granular streams under the real serving loop: a reply is one
// segment and one pop, and a burst that arrives while the server waits
// on a group commit is committed once.
// ---------------------------------------------------------------------

/// The serving loop of `examples/kv_server.rs` as a background coroutine
/// on `server`'s runtime; ends when the client closes the connection.
fn spawn_kv_server(
    server: &Catnip,
    conn_qd: QDesc,
    engine: std::rc::Rc<std::cell::RefCell<KvEngine>>,
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

/// One closed-loop exchange: push `request`, then pop until `expect`
/// reply bytes arrived. Returns the reply and how many pops it took.
fn exchange(client: &Catnip, cqd: QDesc, request: Vec<u8>, expect: usize) -> (Vec<u8>, usize) {
    let sga = Sga::from_bufs(vec![DemiBuffer::from(request)]);
    let qt = client.push_unframed(cqd, &sga).unwrap();
    client.wait(qt, None).unwrap();
    let (mut got, mut pops) = (Vec::new(), 0);
    while got.len() < expect {
        let qt = client.pop_unframed(cqd).unwrap();
        let (_, sga) = client.wait(qt, None).unwrap().expect_pop();
        got.extend_from_slice(&sga.to_vec());
        pops += 1;
    }
    (got, pops)
}

#[test]
fn depth_one_get_is_two_frames_and_one_pop() {
    const ROUNDS: u64 = 64;
    let (rt, fabric, client, server) = catnip_pair(34);
    let (cqd, sqd) = tcp_pair(&client, &server, 6379);
    let eng = engine(server.memory().clone(), rt.now(), false);
    spawn_kv_server(&server, sqd, std::rc::Rc::new(eng.into()), None);

    let value = [0x5Au8; 64];
    let mut set = Vec::new();
    encode_command(&mut set, &[b"SET", b"key", &value]);
    assert_eq!(exchange(&client, cqd, set, 5).0, b"+OK\r\n");
    let mut get = Vec::new();
    encode_command(&mut get, &[b"GET", b"key"]);
    let mut expected = b"$64\r\n".to_vec();
    expected.extend_from_slice(&value);
    expected.extend_from_slice(b"\r\n");
    // Warm: after this the previous reply's ACK rides the next request.
    for _ in 0..4 {
        exchange(&client, cqd, get.clone(), expected.len());
    }

    // Each stack's first connection is slot 0, generation 0.
    let acks =
        || [&client, &server].map(|h| h.stack().tcp_conn_stats(ConnId(0)).unwrap().acks_sent);
    let (frames_before, acks_before) = (fabric.stats().frames_sent, acks());
    let timers_before = net_stack::counters::shard_snapshot();
    let passes_before = net_stack::counters::snapshot();
    for _ in 0..ROUNDS {
        let (reply, pops) = exchange(&client, cqd, get.clone(), expected.len());
        assert_eq!(reply, expected);
        assert_eq!(pops, 1, "header, value and trailer arrive as one segment");
    }
    let buckets = net_stack::counters::shard_snapshot()
        .delta(&timers_before)
        .timer_buckets_visited;
    let passes = net_stack::counters::snapshot().delta(&passes_before);
    assert!(
        passes.poll_stages_run <= 5 * ROUNDS,
        "a GET is an RX and a TX burst on each host, plus a TCP tick when \
         the wheel has a slot to cascade: {} stages in {} poll passes over \
         {ROUNDS} GETs",
        passes.poll_stages_run,
        passes.poll_passes
    );
    assert!(
        buckets <= 16 * ROUNDS,
        "both stacks' wheels and the store's TTL wheel touch only occupied \
         slots: {buckets} slot visits over {ROUNDS} GETs"
    );
    assert_eq!(
        fabric.stats().frames_sent - frames_before,
        2 * ROUNDS,
        "one request frame and one reply frame per command"
    );
    assert_eq!(acks(), acks_before, "every ACK rode a data segment");
    client.close(cqd).unwrap();
}

#[test]
fn durable_set_burst_commits_per_burst_not_per_chunk() {
    const DEPTH: usize = 16;
    let (rt, _fabric, client, server) = catnip_pair(35);
    let (cqd, sqd) = tcp_pair(&client, &server, 6379);
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    let fs = Catfs::new(&rt, device);
    let log_qd = fs.create("kv-burst.aof").unwrap();
    let eng = std::rc::Rc::new(std::cell::RefCell::new(engine(
        server.memory().clone(),
        rt.now(),
        true,
    )));
    spawn_kv_server(&server, sqd, eng.clone(), Some((fs, log_qd)));

    // 16 SETs of 1 KiB: 16.6 KiB, twelve segments on the wire.
    let value = [0xC3u8; 1024];
    for round in 0..4 {
        let mut burst = Vec::new();
        for i in 0..DEPTH {
            encode_command(
                &mut burst,
                &[b"SET", format!("key{i:02}").as_bytes(), &value],
            );
        }
        let before = eng.borrow().stats().batches;
        let (reply, _) = exchange(&client, cqd, burst, DEPTH * 5);
        assert_eq!(reply, b"+OK\r\n".repeat(DEPTH));
        let batches = eng.borrow().stats().batches - before;
        assert!(
            (1..=3).contains(&batches),
            "round {round}: the chunks that arrive during a commit are \
             popped together and committed once, got {batches} batches"
        );
    }
    client.close(cqd).unwrap();
}

// ---------------------------------------------------------------------
// E19: the KV server at scale — the engine behind one bare TCP peer
// holding up to 100 000 connections (no device, no fabric: every count
// is protocol and application work).
// ---------------------------------------------------------------------

/// Hot key set; keys and values are fixed-width so reply sizes are exact
/// and a depth-16 burst stays inside one MSS (the zero-copy happy path).
const KEYS: usize = 64;

fn key(i: usize) -> Vec<u8> {
    format!("k{:04}", i % KEYS).into_bytes()
}

struct KvWorld {
    net: PeerWorld,
    engine: KvEngine,
    conns: std::collections::HashMap<ConnId, KvConn>,
    /// Payload bytes copied inside engine drain passes.
    engine_bytes_copied: u64,
}

impl KvWorld {
    /// One pipelined round trip: the client sends `burst` as one TX, the
    /// server drains the WHOLE burst in one engine pass and pushes the
    /// coalesced replies as one SGA, the client drains exactly `expect`
    /// reply bytes. Virtual time advances by the burst's application work
    /// (the paper's Redis figure: ~2 µs per request), firing delayed-ACK
    /// timers along the way.
    fn kv_op(&mut self, (i, c, s): (usize, ConnId, ConnId), burst: Vec<u8>, expect: usize) {
        let w = &mut self.net;
        // Vec → DemiBuffer takes ownership: no datapath copy.
        w.clients[i]
            .send(c, DemiBuffer::from(burst), w.now)
            .unwrap();
        w.shuttle();
        let conn = self.conns.entry(s).or_default();
        while let Ok(Some(chunk)) = w.server.recv(s) {
            conn.feed(chunk);
        }
        let before = mem_counters::snapshot();
        let r = self.engine.drain(conn, w.now);
        self.engine_bytes_copied += mem_counters::snapshot().delta(&before).bytes_copied;
        assert!(r.batch.is_none() && !r.disconnect);
        w.server.send_all(s, r.immediate, w.now).unwrap();
        w.advance_by(SimTime::from_nanos(r.depth as u64 * 2_000));
        w.shuttle();
        let mut got = 0;
        while let Ok(Some(chunk)) = w.clients[i].recv(c) {
            got += chunk.len();
        }
        assert_eq!(got, expect, "reply burst must be exact");
    }

    /// What `bursts` GET bursts of `depth` commands over `sample` cost
    /// after `warmup` more: [segments on the wire, demux lookups, engine
    /// passes, heap allocations, payload bytes copied in the engine,
    /// datapath copies, arguments the parsers had to reassemble].
    fn get_cost(
        &mut self,
        sample: &[(usize, ConnId, ConnId)],
        depth: usize,
        warmup: usize,
        bursts: usize,
    ) -> [u64; 7] {
        let mut k = 0;
        let mut op = |world: &mut KvWorld| {
            let mut burst = Vec::with_capacity(depth * 24);
            (0..depth).for_each(|j| encode_command(&mut burst, &[b"GET", &key(k * depth + j)]));
            // Each reply is `$8\r\n`, the 8-byte value, `\r\n`.
            world.kv_op(sample[k % sample.len()], burst, depth * 14);
            k += 1;
        };
        (0..warmup).for_each(|_| op(self));
        let read = |w: &KvWorld| {
            let parsers = w.conns.values().map(|c| c.parser_stats().reassembled_args);
            let (segs, lookups) = (w.net.segments, nsc::conn_snapshot().demux_lookups);
            let (passes, copied) = (w.engine.stats().bursts, w.engine_bytes_copied);
            let copies = mem_counters::snapshot().copies;
            [segs, lookups, passes, 0, copied, copies, parsers.sum()]
        };
        let before = read(self);
        let meter = AllocMeter::arm();
        (0..bursts).for_each(|_| op(self));
        let allocs = meter.count();
        drop(meter);
        let mut cost = read(self);
        (0..7).for_each(|f| cost[f] -= before[f]);
        cost[3] = allocs;
        cost
    }
}

/// Pipelining pays in countable work, and a GET must not care how many
/// connections exist: depth 16 costs 1/16 the segments and engine passes
/// per command of depth 1 (the bound was "<= 1/4 the segments"), moving
/// zero payload bytes through the engine, and a depth-1 GET over the same
/// 64 hot connections costs the same segments, lookups and engine passes —
/// and no more allocations — at 1 000 and 100 000 established.
#[test]
fn get_cost_is_flat_in_connections_and_amortised_by_pipelining() {
    const DEBUG: bool = cfg!(debug_assertions);
    const CONNS: [usize; 2] = if DEBUG {
        [200, 2_000]
    } else {
        [1_000, 100_000]
    };
    const CMDS: usize = if DEBUG { 512 } else { 4_096 };
    let net = PeerWorld::new(6379, if DEBUG { 64 } else { 256 });
    let engine = engine(demi_memory::MemoryManager::new(), net.now, false);
    let mut world = KvWorld {
        net,
        engine,
        conns: Default::default(),
        engine_bytes_copied: 0,
    };
    let sample = world.net.establish(CONNS[0])[..64].to_vec();
    // Preload through TCP so stored values are zero-copy sub-views of the
    // RX buffers that carried them.
    for wave in 0..KEYS / 16 {
        let mut burst = Vec::new();
        for i in 16 * wave..16 * (wave + 1) {
            let value = format!("val-{i:04}");
            encode_command(&mut burst, &[b"SET", &key(i), value.as_bytes()]);
        }
        world.kv_op(sample[0], burst, 16 * 5);
    }

    let d1 = world.get_cost(&sample, 1, 32, CMDS);
    let d16 = world.get_cost(&sample, 16, 32, CMDS / 16);
    let bursts = (CMDS / 16) as u64;
    // A depth-1 GET is a request, its reply, and the ACK the next
    // request does not carry; a burst is the same three segments.
    assert_eq!(d1[..3], [3 * CMDS as u64, 3 * CMDS as u64, CMDS as u64]);
    // ...give or take one delayed ACK that fires alone in the window.
    assert!(
        d16[0] <= 3 * bursts + 1 && d16[1] == d16[0] && d16[2] == bursts,
        "depth-16 pipelining must cost 1/16 the segments, lookups and \
         engine passes per command of depth 1: {d1:?} -> {d16:?}"
    );
    assert_eq!(
        d16[4..],
        [0, bursts, 0],
        "a warmed pipelined GET moves zero payload bytes through the \
         engine — the path's one copy per burst is TCP gathering the reply \
         into its segment — and a single-segment burst never takes the \
         parser's reassembly fallback"
    );

    let small = world.get_cost(&sample, 1, 200, 1_000);
    world.net.establish(CONNS[1] - CONNS[0]);
    // Park past the compact delay so idle connections cost slab-only.
    world.net.advance_by(SimTime::from_millis(20));
    let big = world.get_cost(&sample, 1, 200, 1_000);
    assert_eq!(
        big[..3],
        small[..3],
        "a GET must cost the same work at {} and {} conns",
        CONNS[0],
        CONNS[1]
    );
    assert_eq!(small[..3], [3_000, 3_000, 1_000]);
    assert!(
        big[3] <= small[3],
        "nor allocate more: {small:?} -> {big:?}"
    );
}

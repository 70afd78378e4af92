//! §4.5 end to end: transparent registration and free-protection across
//! the assembled system, and the pool's recycled buffer headers checked
//! against a naive model.

mod support;

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use demi_memory::{
    BufferPool, ByteStream, DemiBuffer, HeadroomError, MemoryManager, TenantId, DEFAULT_HEADROOM,
};
use demikernel::libos::LibOs;
use demikernel::testing::{catcorn_pair, catnip_pair, host_ip, AllocMeter};
use demikernel::types::Sga;
use dpdk_sim::wire::framing::encode_message;
use net_stack::framing::FrameDecoder;
use net_stack::stack::MAX_HEADER_LEN;
use net_stack::types::SocketAddr;
use sim_fabric::{SimRng, SimTime};
use support::alloc_sites::{assert_allocs, live_bytes, SiteAlloc};
use support::{tcp_pair, udp_pair, PeerWorld, Repro};

/// Counts this thread's heap allocations inside an [`AllocMeter`] window,
/// and says where they came from when a pin fails.
#[global_allocator]
static ALLOCATOR: SiteAlloc = SiteAlloc;

mod headroom_properties {
    //! Property coverage for the headroom API the TX path leans on.

    use demi_memory::{DemiBuffer, HeadroomError};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// prepend(n) then trim_front(n) restores the original view, byte
        /// for byte, and hands the headroom back.
        #[test]
        fn prepend_then_trim_front_round_trips(
            headroom in 0usize..96,
            payload in prop::collection::vec(any::<u8>(), 1..256),
            n in 1usize..96,
        ) {
            let mut buf = DemiBuffer::zeroed_with_headroom(headroom, payload.len());
            buf.try_mut().unwrap().copy_from_slice(&payload);
            if n <= headroom {
                let filler: Vec<u8> = (0..n as u8).collect();
                buf.prepend(n).unwrap().copy_from_slice(&filler);
                prop_assert_eq!(buf.len(), n + payload.len());
                prop_assert_eq!(&buf.as_slice()[..n], filler.as_slice());
                prop_assert_eq!(buf.headroom(), headroom - n);
                buf.trim_front(n);
                prop_assert_eq!(buf.as_slice(), payload.as_slice());
                prop_assert_eq!(buf.headroom(), headroom, "trim restores headroom");
            } else {
                // Exhaustion is an error, never a silent reallocation: the
                // view (and its storage) are untouched.
                let cap_before = buf.capacity();
                prop_assert_eq!(
                    buf.prepend(n).unwrap_err(),
                    HeadroomError::Exhausted { needed: n, available: headroom }
                );
                prop_assert_eq!(buf.capacity(), cap_before);
                prop_assert_eq!(buf.headroom(), headroom);
                prop_assert_eq!(buf.as_slice(), payload.as_slice());
            }
        }

        /// split_off partitions the view in the same storage, and the two
        /// halves concatenate back to the original bytes.
        #[test]
        fn split_off_partitions_within_one_storage(
            payload in prop::collection::vec(any::<u8>(), 0..256),
            at_frac in 0usize..=100,
        ) {
            let at = payload.len() * at_frac / 100;
            let mut head = DemiBuffer::from_slice(&payload);
            let tail = head.split_off(at);
            prop_assert_eq!(head.as_slice(), &payload[..at]);
            prop_assert_eq!(tail.as_slice(), &payload[at..]);
            prop_assert!(head.same_storage(&tail), "a split is two views, not two buffers");
            let mut rejoined = head.to_vec();
            rejoined.extend_from_slice(tail.as_slice());
            prop_assert_eq!(rejoined, payload);
        }

        /// A live view below blocks both prepend (Shared, not corruption)
        /// and mutation; dropping it restores both capabilities.
        #[test]
        fn views_below_block_prepend_and_mutation(
            payload in prop::collection::vec(any::<u8>(), 1..128),
            headroom in 2usize..64,
        ) {
            let mut buf = DemiBuffer::zeroed_with_headroom(headroom, payload.len());
            buf.try_mut().unwrap().copy_from_slice(&payload);
            // A clone at the same offset (the app's own handle) does NOT
            // block prepend — but does block mutation.
            let mut framed = buf.clone();
            prop_assert!(buf.try_mut().is_none(), "shared buffer refuses try_mut");
            prop_assert!(buf.can_prepend(1));
            // Once the clone prepends (a "device" framing the packet), its
            // view starts below ours and our prepend must refuse.
            framed.prepend(1).unwrap()[0] = 0xEE;
            prop_assert_eq!(buf.prepend(1).unwrap_err(), HeadroomError::Shared);
            prop_assert!(!buf.can_prepend(1));
            drop(framed);
            prop_assert!(buf.prepend(1).is_ok());
            prop_assert!(buf.try_mut().is_some());
            buf.trim_front(1);
            prop_assert_eq!(buf.as_slice(), payload.as_slice(), "payload never disturbed");
        }
    }
}

#[test]
fn sgaalloc_memory_is_preregistered_and_data_path_registers_nothing() {
    let (_rt, _fabric, client, server) = catnip_pair(501);
    let (cqd, sqd, _) = udp_pair(&client, &server);

    let regs_before = client.memory().region_stats().registrations;
    for _ in 0..200 {
        // The application allocates I/O memory with sgaalloc — it never
        // sees a registration call (the paper's transparent registration).
        let sga = client.sgaalloc(512);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    assert_eq!(
        client.memory().region_stats().registrations,
        regs_before,
        "no registration on the data path"
    );
    assert!(client.memory().region_stats().pinned_bytes > 0);
}

/// A libOS pins only the memory it serves: each host's device mempool
/// warms only the classes an mbuf fits in, the libOS's pool gives its
/// 16 KiB and 64 KiB classes a 256 KiB first batch, and the port
/// namespace counts listeners in one byte a port. Catches a pool that
/// warms every class at 64 buffers again (≈ 23 MB for the pair).
#[test]
fn a_catnip_pair_builds_in_under_4_mib() {
    let before = live_bytes();
    let pair = catnip_pair(503);
    let built = live_bytes() - before;
    println!("a catnip pair holds {built} live heap bytes");
    assert!(built <= 4 << 20, "a catnip pair holds {built} bytes");
    drop(pair);
}

/// E5c: more pinned memory buys fewer cold allocations — and no more
/// pinned memory than demand. Ramping one class of an unwarmed manager
/// from 0 to 1 024 live buffers, every growth registers at most the live
/// buffers again (never more than 64) on top of the first batch, so the
/// pin stays within 2 × live + the first batch; growths are a doubling
/// run up to 64 buffers, then one per 64, so the two large classes make
/// log2(64 / first batch) more cold allocations than a small class.
#[test]
fn e5c_pinned_memory_tracks_live_demand() {
    for (class, first, cold) in [
        (64, 64, 16),
        (4096, 64, 16),
        (16384, 16, 18),
        (65536, 4, 20),
    ] {
        let mgr = MemoryManager::new();
        let mut live = Vec::new();
        while live.len() < 1024 {
            live.push(mgr.alloc(class - DEFAULT_HEADROOM));
            let (pinned, live_bytes) = (mgr.region_stats().pinned_bytes, live.len() * class);
            assert!(
                pinned <= (2 * live_bytes + first * class) as u64,
                "class {class}: {pinned} pinned for {} live",
                live.len()
            );
        }
        let stats = mgr.pool_stats();
        assert_eq!(stats.cold_allocs, cold, "class {class}");
        assert_eq!(stats.warm_allocs, 1024 - cold, "class {class}");
        assert_eq!(mgr.region_stats().pinned_bytes, (1024 * class) as u64);
    }
}

#[test]
fn free_protection_lets_the_app_drop_in_flight_buffers() {
    // §4.5: "Applications can free buffers while they are in use by a
    // device, but the libOS will not deallocate the buffer until the
    // device completes its I/O."
    let (_rt, _fabric, client, server) = catnip_pair(502);
    let (cqd, sqd) = tcp_pair(&client, &server, 80);

    {
        // Allocate, push, and immediately drop every application handle —
        // the "free" happens while the bytes are still in the TCP stack
        // and the simulated NIC.
        let sga = client.sgaalloc(4096);
        let qt = client.push(cqd, &sga).unwrap();
        drop(sga);
        client.wait(qt, None).unwrap();
    }
    // The data still arrives intact: refcounts kept the storage alive.
    let (_, got) = server.blocking_pop(sqd).unwrap().expect_pop();
    assert_eq!(got.len(), 4096);
}

#[test]
fn shared_buffers_resist_in_place_mutation() {
    // §4.5: no write-protection is offered, but the safe API enforces the
    // allocate-new-buffer discipline: a buffer whose handle is shared
    // (e.g., held by a device queue) refuses `try_mut`.
    let buf = demi_memory::DemiBuffer::from_slice(b"in flight");
    let device_handle = buf.clone();
    let mut app_handle = buf;
    assert!(
        app_handle.try_mut().is_none(),
        "mutation must require exclusive ownership"
    );
    drop(device_handle);
    assert!(app_handle.try_mut().is_some());
}

#[test]
fn pool_recycling_works_through_the_full_stack() {
    // Buffers released after I/O return to the pool; sustained traffic
    // reaches a steady state with no pool growth.
    let (_rt, _fabric, client, server) = catnip_pair(503);
    let (cqd, sqd, _) = udp_pair(&client, &server);

    // Warm up.
    for _ in 0..20 {
        let sga = client.sgaalloc(1024);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    let owned_before = client.memory().pool_stats().owned_bytes;
    for _ in 0..200 {
        let sga = client.sgaalloc(1024);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    assert_eq!(
        client.memory().pool_stats().owned_bytes,
        owned_before,
        "steady-state traffic must not grow the pools"
    );
}

#[test]
fn wire_and_peer_see_the_senders_own_storage() {
    // The zero-copy invariant, end to end: the payload the peer pops is
    // byte-identical to what the app pushed AND lives in the *same
    // allocation* — one buffer travels app → UDP → IP → Ethernet → mbuf →
    // fabric → peer mbuf → peer app, headers prepended into its headroom.
    let (_rt, _fabric, client, server) = catnip_pair(505);
    let (cqd, sqd, _) = udp_pair(&client, &server);

    let mut sga = client.sgaalloc(1400);
    let pattern: Vec<u8> = (0..1400u32).map(|i| (i % 251) as u8).collect();
    sga.segments_mut()[0]
        .try_mut()
        .expect("app handle is exclusive")
        .copy_from_slice(&pattern);
    client
        .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
        .unwrap();
    let (_, got) = server.blocking_pop(sqd).unwrap().expect_pop();
    let popped = &got.segments()[0];
    assert_eq!(popped.as_slice(), pattern.as_slice(), "byte-identical");
    assert!(
        popped.same_storage(&sga.segments()[0]),
        "storage-identical: the peer reads the sender's own allocation"
    );
    // And the view sits past the (trimmed) wire headers — mbuf semantics.
    assert!(
        popped.headroom() >= net_stack::stack::MAX_HEADER_LEN - net_stack::tcp::TCP_MAX_HEADER_LEN
    );
}

#[test]
fn udp_packets_cost_one_alloc_and_zero_copies_each() {
    // E12's claim, asserted rather than printed: after warm-up, each
    // packet on the catnip echo path costs exactly the application's own
    // pool allocation — the stack adds no allocation and moves no payload
    // byte, on TX or RX.
    let (_rt, _fabric, client, server) = catnip_pair(506);
    let (cqd, sqd, _) = udp_pair(&client, &server);

    // Warm-up: ARP resolution and pool population happen here.
    for _ in 0..20 {
        let sga = client.sgaalloc(1400);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }

    const ROUNDS: u64 = 100;
    let before = demi_memory::counters::snapshot();
    for _ in 0..ROUNDS {
        let sga = client.sgaalloc(1400);
        client
            .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    let d = demi_memory::counters::snapshot().delta(&before);
    assert_eq!(d.allocs, ROUNDS, "exactly one pool allocation per packet");
    assert_eq!(d.copies, 0, "zero payload copies per packet");
    assert_eq!(d.bytes_copied, 0);
}

#[test]
fn tcp_echo_path_moves_payload_bytes_zero_times() {
    // Same claim for the stream path: a ≤MSS message costs its own pool
    // allocation plus the 8-byte framing-header buffer and empty ACK
    // frames — and zero payload-byte copies.
    let (_rt, _fabric, client, server) = catnip_pair(507);
    let (cqd, sqd) = tcp_pair(&client, &server, 80);

    for _ in 0..10 {
        let sga = client.sgaalloc(1400);
        let qt = client.push(cqd, &sga).unwrap();
        client.wait(qt, None).unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }

    const ROUNDS: u64 = 50;
    let before = demi_memory::counters::snapshot();
    for _ in 0..ROUNDS {
        let sga = client.sgaalloc(1400);
        let qt = client.push(cqd, &sga).unwrap();
        client.wait(qt, None).unwrap();
        let _ = server.blocking_pop(sqd).unwrap();
    }
    let d = demi_memory::counters::snapshot().delta(&before);
    assert_eq!(d.copies, 0, "zero payload copies per message");
    assert_eq!(d.bytes_copied, 0);
    // Budget: payload + framing header + up to two ACK-ish control frames.
    assert!(
        d.allocs <= ROUNDS * 4,
        "allocation budget blown: {} allocs for {} messages",
        d.allocs,
        ROUNDS
    );
}

/// A chained segment survives loss without a payload copy: twenty
/// three-piece pushes (`small, ≥ MSS/2, small`) over a link that drops a
/// fifth of the frames arrive byte for byte, and neither their first
/// transmissions nor their retransmissions — whose heads lead with a
/// header link whenever an earlier copy of the frame still holds the
/// head's headroom — copy a byte of a large piece.
/// (`tests/batching.rs` pins a single retransmission at 0 bytes.)
#[test]
fn a_chained_segment_survives_loss_without_a_copy() {
    let (_rt, fabric, client, server) = catnip_pair(511);
    let (cqd, sqd) = tcp_pair(&client, &server, 80);
    let pushes: Vec<Vec<DemiBuffer>> = (0..20u8)
        .map(|i| {
            let big = DemiBuffer::from_slice(&[i; 900]);
            vec![
                DemiBuffer::from_slice(b"$900\r\n"),
                big,
                DemiBuffer::from_slice(b"\r\n"),
            ]
        })
        .collect();
    let sent: Vec<u8> = pushes
        .iter()
        .flatten()
        .flat_map(|b| b.as_slice().to_vec())
        .collect();
    fabric.set_default_link(sim_fabric::LinkConfig {
        loss_probability: 0.2,
        ..sim_fabric::LinkConfig::default()
    });
    let conn = net_stack::tcp::ConnId(0);
    let resent_before = client.stack().tcp_conn_stats(conn).unwrap().retransmissions;
    let before = demi_memory::counters::snapshot();
    for pieces in pushes {
        let qt = client.push_unframed(cqd, &Sga::from_bufs(pieces)).unwrap();
        client.wait(qt, None).unwrap();
    }
    let mut got = Vec::new();
    while got.len() < sent.len() {
        let qt = server.pop_unframed(sqd).unwrap();
        let (_, sga) = server.wait(qt, None).unwrap().expect_pop();
        sga.segments().iter().for_each(|s| got.extend_from_slice(s));
    }
    let d = demi_memory::counters::snapshot().delta(&before);
    let resent = client.stack().tcp_conn_stats(conn).unwrap().retransmissions - resent_before;
    assert_eq!(got, sent, "the bytes delivered are the bytes sent");
    assert!(resent > 0, "the loss forced retransmissions");
    // A backlog gathers one push's trailing `\r\n` with the next one's
    // `$900\r\n` (one 8-byte copy); no byte of a 900-byte piece is ever
    // copied, however often its segment is resent.
    let small = 20 * 8;
    assert!(
        d.bytes_copied <= small,
        "{resent} retransmissions: {} bytes copied, over the {small} of small pieces",
        d.bytes_copied
    );
}

/// The RDMA libOS copies every message four times and counts each copy
/// once in the runtime's `Metrics`: into a staging vector and then a send
/// slot on push, out of the receive slot and into the popped buffer on
/// pop — 4 copies and 4 × len bytes per message, the figure pool-backed
/// memory regions are to bring to 0 (ROADMAP item 5).
#[test]
fn catcorn_counts_four_copies_per_message() {
    const LEN: usize = 1000;
    const ROUNDS: u64 = 10;
    let (rt, _fabric, client, server) = catcorn_pair(508);
    let (cqd, sqd) = tcp_pair(&client, &server, 18515);
    let sga = Sga::from_slice(&[0x5A; LEN]);
    rt.metrics().reset();
    for _ in 0..ROUNDS {
        client.blocking_push(cqd, &sga).unwrap();
        let (_, got) = server.blocking_pop(sqd).unwrap().expect_pop();
        assert_eq!(got.to_vec(), sga.to_vec());
    }
    let m = rt.metrics().snapshot();
    assert_eq!(m.copies, 4 * ROUNDS, "four copies per message");
    assert_eq!(m.bytes_copied, 4 * LEN as u64 * ROUNDS);
}

#[test]
fn popped_data_shares_storage_with_the_device_frame() {
    // Zero-copy receive: the application's Sga segments are views into
    // the device's mbuf, not copies.
    let (rt, _fabric, client, server) = catnip_pair(504);
    let (cqd, sqd, _) = udp_pair(&client, &server);
    client
        .pushto(
            cqd,
            &Sga::from_slice(b"view"),
            SocketAddr::new(host_ip(2), 7),
        )
        .unwrap();
    let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
    let seg = &sga.segments()[0];
    assert!(seg.capacity() > seg.len(), "a view into the full frame");
    // And the libOS performed zero payload copies to deliver it.
    assert_eq!(rt.metrics().snapshot().copies, 0);
}

/// Every counted copy on the datapath lands in a recycled copy-pool
/// buffer: once the pool is warm, the TX header fallback
/// (`copy_with_headroom`), a payload gathered across received chunks
/// (`ByteStream::take`) and TCP gathering small queued buffers into one
/// segment each make their one counted copy and no heap allocation.
/// Catches a copy site that builds its buffer by hand again (a `Vec`
/// handed to `DemiBuffer::from` is three allocations: the bytes, the
/// header and its view registry).
#[test]
fn a_warm_counted_copy_allocates_nothing() {
    let copies = |op: &mut dyn FnMut()| {
        let before = demi_memory::counters::snapshot();
        op();
        demi_memory::counters::snapshot().delta(&before).copies
    };

    let payload = DemiBuffer::from_slice(&[0xA5; 700]);
    let mut fallback = || drop(payload.copy_with_headroom(MAX_HEADER_LEN));
    assert_eq!(copies(&mut fallback), 1);
    assert_allocs(0, "a warmed copy_with_headroom", fallback);

    let chunks = [0x11, 0x22, 0x33].map(|b| DemiBuffer::from_slice(&[b; 400]));
    let mut stream = ByteStream::default();
    let mut across = || {
        chunks.iter().for_each(|chunk| stream.push(chunk.clone()));
        let (value, gathered) = stream.take(1_000).expect("buffered");
        assert!(gathered && value[399] == 0x11 && value[400] == 0x22);
        stream.advance(200);
    };
    assert_eq!(copies(&mut across), 1);
    assert_allocs(0, "a warmed cross-chunk ByteStream::take", across);

    let mut w = PeerWorld::new(80, 16);
    let (i, c, s) = w.establish(1)[0];
    let parts = [b"$1024\r\n".as_slice(), &[0x5A; 300], b"\r\n"].map(DemiBuffer::from_slice);
    let mut gather = || {
        let now = w.now;
        w.clients[i]
            .send_all(c, parts.iter().cloned(), now)
            .unwrap();
        w.shuttle();
        let mut got = 0;
        while let Ok(Some(chunk)) = w.server.recv(s) {
            got += chunk.len();
        }
        assert_eq!(got, 309);
        w.advance_by(SimTime::from_micros(10));
    };
    (0..50).for_each(|_| gather());
    assert_eq!(copies(&mut gather), 1, "three queued buffers, one segment");
    assert_allocs(0, "a warmed TCP multi-part gather", gather);
}

/// One live handle and what the model says it sees: its storage (the
/// model's handle count is this `Rc`'s strong count) and its view.
struct Handle {
    buf: DemiBuffer,
    storage: Rc<RefCell<Vec<u8>>>,
    off: usize,
    len: usize,
}

/// Where a buffer's storage starts: the identity a recycled header keeps.
fn base(buf: &DemiBuffer) -> usize {
    buf.as_slice().as_ptr() as usize - buf.headroom()
}

fn below(rng: &mut SimRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Fills `bytes` (a view the model says is exclusively writable) with
/// fresh random bytes, in the buffer and in the model alike.
fn scribble(rng: &mut SimRng, bytes: &mut [u8], model: &mut [u8]) {
    for (b, m) in bytes.iter_mut().zip(model) {
        *b = rng.next_u64() as u8;
        *m = *b;
    }
}

/// A fresh copy of `bytes` behind `headroom`, as the model sees it: its
/// own storage, shared with no live buffer, stamped with `owner` however
/// its recycled header was stamped last.
fn copied(
    buf: DemiBuffer,
    headroom: usize,
    bytes: &[u8],
    owner: TenantId,
    live: &[Handle],
) -> Handle {
    assert_eq!(buf.as_slice(), bytes);
    assert_eq!(buf.tenant(), owner, "a copy carries its bytes' owner");
    assert_eq!((buf.handle_count(), buf.headroom()), (1, headroom));
    assert!(buf.can_prepend(headroom), "a stale view below a fresh copy");
    assert!(
        live.iter().all(|o| !o.buf.same_storage(&buf)),
        "a copy aliases a live buffer"
    );
    let mut model = vec![0; buf.capacity()];
    model[headroom..headroom + bytes.len()].copy_from_slice(bytes);
    Handle {
        buf,
        storage: Rc::new(RefCell::new(model)),
        off: headroom,
        len: bytes.len(),
    }
}

/// One seeded run of [`recycled_headers_never_alias_a_live_buffer`];
/// returns how many allocations reused a returned header.
fn buffer_model_case(seed: u64, steps: u32) -> u64 {
    const TENANT: TenantId = TenantId(7);
    let mut repro = Repro(seed, 0);
    let mut rng = SimRng::new(seed);
    let mut pools = [
        BufferPool::unregistered(),
        BufferPool::for_tenant(TENANT, None),
    ];
    let tenant_of = [TenantId::HOST, TENANT];
    let (mut live, mut returned, mut reuses) = (Vec::<Handle>::new(), HashSet::new(), 0);
    for step in 0..steps {
        repro.1 = step;
        if step == steps / 2 {
            // Live buffers outlive their pool: they keep their bytes and
            // free, rather than return, when their last handle drops.
            pools[1] = BufferPool::for_tenant(TENANT, None);
            returned.clear();
        }
        let pick = below(&mut rng, live.len().max(1));
        match below(&mut rng, if live.len() > 24 { 1 } else { 10 }) {
            0 if !live.is_empty() => {
                // Drop, sometimes after the host retags it to a stranger.
                if rng.chance(0.3) {
                    live[pick].buf.retag(TenantId(9));
                }
                let h = live.swap_remove(pick);
                if Rc::strong_count(&h.storage) == 1 {
                    returned.insert(base(&h.buf));
                }
            }
            1 | 2 => {
                let p = below(&mut rng, 2);
                let (headroom, len) = (below(&mut rng, 80), 1 + below(&mut rng, 300));
                let mut buf = pools[p].alloc_with_headroom(headroom, len);
                // A reused header starts with no view but this one and the
                // pool's tenant, whoever owned it last.
                reuses += u64::from(returned.remove(&base(&buf)));
                assert_eq!(buf.tenant(), tenant_of[p]);
                assert_eq!((buf.handle_count(), buf.headroom()), (1, headroom));
                assert!(buf.can_prepend(headroom), "a stale view below a fresh one");
                let mut model = vec![0; buf.capacity()];
                let view = buf.try_mut().expect("a fresh buffer is exclusive");
                scribble(&mut rng, view, &mut model[headroom..headroom + len]);
                let storage = Rc::new(RefCell::new(model));
                live.push(Handle {
                    buf,
                    storage,
                    off: headroom,
                    len,
                });
            }
            3 if !live.is_empty() => {
                let h = &live[pick];
                let (start, end) = (below(&mut rng, h.len + 1), below(&mut rng, h.len + 1));
                let (start, end) = (start.min(end), start.max(end));
                let buf = h.buf.slice(start, end);
                let (storage, off) = (h.storage.clone(), h.off + start);
                live.push(Handle {
                    buf,
                    storage,
                    off,
                    len: end - start,
                });
            }
            4 if !live.is_empty() => {
                let h = &mut live[pick];
                let n = below(&mut rng, h.len + 1);
                h.buf.advance(n);
                (h.off, h.len) = (h.off + n, h.len - n);
            }
            5 if !live.is_empty() => {
                let n = below(&mut rng, live[pick].off + 8);
                let (off, storage) = (live[pick].off, &live[pick].storage);
                let below_us = live
                    .iter()
                    .any(|o| Rc::ptr_eq(&o.storage, storage) && o.off < off);
                let h = &mut live[pick];
                match h.buf.prepend(n) {
                    Ok(head) => {
                        assert!(!below_us && n <= off, "prepend wrote under another view");
                        scribble(&mut rng, head, &mut h.storage.borrow_mut()[off - n..off]);
                        (h.off, h.len) = (off - n, h.len + n);
                    }
                    Err(HeadroomError::Shared) => assert!(below_us),
                    Err(e) => assert!(!below_us && n > off, "{e}"),
                }
            }
            6 if !live.is_empty() => {
                let exclusive = Rc::strong_count(&live[pick].storage) == 1;
                let h = &mut live[pick];
                match h.buf.try_mut() {
                    Some(view) => {
                        assert!(exclusive, "try_mut on a shared buffer");
                        let model = &mut h.storage.borrow_mut()[h.off..h.off + h.len];
                        scribble(&mut rng, view, model);
                    }
                    None => assert!(!exclusive, "try_mut refused a sole handle"),
                }
            }
            7 if !live.is_empty() => {
                // The TX header fallback copies a view into the copy pool.
                let headroom = below(&mut rng, 80);
                let h = &live[pick];
                let buf = h.buf.copy_with_headroom(headroom);
                let bytes = h.storage.borrow()[h.off..h.off + h.len].to_vec();
                let owner = h.buf.tenant();
                let copy = copied(buf, headroom, &bytes, owner, &live);
                reuses += u64::from(returned.remove(&base(&copy.buf)));
                live.push(copy);
            }
            8 if !live.is_empty() => {
                // Two or three live views received as a stream, the first
                // partly consumed, then one take: a view of the front
                // chunk, or a gather into the copy pool stamped with the
                // first non-host owner of the chunks it read.
                let mut stream = ByteStream::default();
                let mut chunks = Vec::new();
                for _ in 0..2 + below(&mut rng, 2) {
                    let h = &live[below(&mut rng, live.len())];
                    if h.len > 0 {
                        stream.push(h.buf.clone());
                        chunks.push((h.storage.clone(), h.off, h.len, h.buf.tenant()));
                    }
                }
                let Some(front) = chunks.first_mut() else {
                    continue;
                };
                let skip = below(&mut rng, front.2);
                stream.advance(skip);
                (front.1, front.2) = (front.1 + skip, front.2 - skip);
                let total: usize = chunks.iter().map(|chunk| chunk.2).sum();
                let n = 1 + below(&mut rng, total);
                let (buf, gathered) = stream.take(n).expect("buffered");
                assert_eq!(
                    gathered,
                    n > chunks[0].2,
                    "a view exactly when one chunk holds it"
                );
                if gathered {
                    let mut bytes = Vec::new();
                    let mut owner = TenantId::HOST;
                    for (storage, off, len, tenant) in &chunks {
                        let m = (*len).min(n - bytes.len());
                        bytes.extend_from_slice(&storage.borrow()[*off..off + m]);
                        owner = if owner.is_host() { *tenant } else { owner };
                        if bytes.len() == n {
                            break;
                        }
                    }
                    let copy = copied(buf, 0, &bytes, owner, &live);
                    reuses += u64::from(returned.remove(&base(&copy.buf)));
                    live.push(copy);
                } else {
                    let (storage, off, ..) = &chunks[0];
                    assert!(live.iter().any(|o| o.buf.same_storage(&buf)));
                    live.push(Handle {
                        buf,
                        storage: storage.clone(),
                        off: *off,
                        len: n,
                    });
                }
            }
            _ => {
                if let Some(h) = live.get(pick) {
                    let buf = h.buf.clone();
                    live.push(Handle {
                        buf,
                        storage: h.storage.clone(),
                        off: h.off,
                        len: h.len,
                    });
                }
            }
        }
        // No drop, reuse or write elsewhere changed a live buffer's bytes.
        for h in &live {
            let storage = h.storage.borrow();
            assert_eq!(h.buf.as_slice(), &storage[h.off..h.off + h.len]);
        }
    }
    reuses
}

/// The header a pool recycles never aliases a live buffer (ROADMAP item
/// 3's `DemiBuffer` differential): random allocations from two pools, one
/// a tenant's, with clones, slices, advances, prepends, exclusive writes,
/// counted copies (`copy_with_headroom` and a cross-chunk
/// `ByteStream::take`, both into the thread's copy pool) and drops — and
/// one pool dropped while its buffers live — against a naive
/// `Rc<Vec<u8>>` model. Every live buffer's bytes match the model after
/// every step; `try_mut` and `prepend` succeed exactly when the model
/// says; a reused header has no stale view and its pool's tenant, and a
/// copy has its own storage and its bytes' owner.
#[test]
fn recycled_headers_never_alias_a_live_buffer() {
    let (seeds, steps) = if cfg!(debug_assertions) {
        (24, 300)
    } else {
        (400, 600)
    };
    let reuses: u64 = (0..seeds).map(|seed| buffer_model_case(seed, steps)).sum();
    assert!(
        reuses > seeds,
        "the run must exercise recycling: {reuses} reuses"
    );
}

/// The stream decoder looks at a framing header without touching the
/// heap: neither a partial inspection (E3's "finds its read incomplete")
/// nor the extraction of a message that lies within one received chunk
/// allocates — the header is gathered onto the stack even where it
/// straddles chunks, and the message is a view of the chunk.
#[test]
fn framed_message_in_one_chunk_costs_the_decoder_zero_allocations() {
    let wire = DemiBuffer::from_slice(&encode_message(&[7u8; 100]));
    let mut decoder = FrameDecoder::new();
    let inspections = |decoder: &mut FrameDecoder, want_message: bool| {
        let meter = AllocMeter::arm();
        let message = decoder.next_message().unwrap();
        let allocs = meter.count();
        drop(meter);
        assert_eq!(message.is_some(), want_message);
        assert_eq!(allocs, 0, "the decoder allocated to inspect a header");
        message
    };
    // Header split across two chunks, body still missing: partial twice.
    decoder.push_chunk(wire.slice(0, 3));
    inspections(&mut decoder, false);
    decoder.push_chunk(wire.slice(3, 50));
    inspections(&mut decoder, false);
    decoder.push_chunk(wire.slice(50, wire.len()));
    // A second message, whole in one chunk: the zero-copy extraction.
    decoder.push_chunk(wire.clone());
    let spanning = decoder.next_message().unwrap().expect("complete");
    assert_eq!(spanning.as_slice(), &[7u8; 100]);
    let whole = inspections(&mut decoder, true).unwrap();
    assert!(whole.same_storage(&wire), "a view of the received chunk");
    assert_eq!(decoder.stats().partial_inspections, 2);
    assert_eq!(decoder.stats().zero_copy_extractions, 1);
}

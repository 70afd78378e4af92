//! End-to-end batching behavior (E13): TX coalescing keeps frame order
//! at zero virtual-time cost, delayed ACKs fire on the virtual-time timer
//! and halve the ACK frames of a streamed transfer, completion delivery
//! is O(1) in the number of waited tokens, a push's buffers share
//! segments (SGA-granular streams, E22) without copying a buffer worth
//! a frame of its own or losing its tenant stamp, and batching never
//! changes the bytes a TCP stream delivers.

mod support;

use std::cell::Cell;
use std::rc::Rc;

use demi_memory::{BufferPool, DemiBuffer, DEFAULT_HEADROOM};
use demi_sched::Notify;
use demi_tenant::{TenantRegistry, TenantSpec};
use demikernel::types::{OperationResult, QDesc, QToken};
use demikernel::Runtime;
use dpdk_sim::{DpdkPort, PortConfig};
use net_stack::stack::MAX_HEADER_LEN;
use net_stack::tcp::{ConnId, State, TcpConfig, TcpPeer, RTO_MIN};
use net_stack::types::SocketAddr;
use net_stack::{NetworkStack, StackConfig, TenancyCfg};
use proptest::prelude::*;
use sim_fabric::{Fabric, MacAddress, SimRng, SimTime};
use support::{host, ip, quiesce, settle, spawn_udp_echo, udp_echo_round, udp_pair};

/// A host with `config` on a basic port, with its device handle.
fn host_with(fabric: &Fabric, config: StackConfig) -> (DpdkPort, NetworkStack) {
    let mac = MacAddress::from_last_octet(config.ip.octets()[3]);
    support::host_with(fabric, PortConfig::basic(mac), config)
}

/// Connects `a` to a fresh listener on `b`; returns both connection ids.
fn connect(fabric: &Fabric, a: &NetworkStack, b: &NetworkStack) -> (ConnId, ConnId) {
    let lid = b.tcp_listen(80, 16).unwrap();
    let conn = a.tcp_connect(SocketAddr::new(b.local_ip(), 80)).unwrap();
    let mut sconn = None;
    settle(fabric, &[a, b], || {
        sconn = sconn.or_else(|| b.tcp_accept(lid).unwrap());
        sconn.is_some() && a.tcp_state(conn) == Ok(State::Established)
    });
    (conn, sconn.unwrap())
}

/// A fresh pool buffer with header headroom holding `bytes`.
fn pooled(pool: &BufferPool, bytes: &[u8]) -> DemiBuffer {
    let mut buf = pool.alloc_with_headroom(DEFAULT_HEADROOM, bytes.len());
    buf.try_mut().unwrap().copy_from_slice(bytes);
    buf
}

/// TX coalescing: frames enqueued across protocols between polls leave in
/// one device handoff, in enqueue order.
#[test]
fn coalesced_frames_leave_in_enqueue_order() {
    let fabric = Fabric::new(7);
    let (a_port, a) = host_with(&fabric, StackConfig::new(ip(1)));
    let b = host(&fabric, 2);
    a.udp_bind(9000).unwrap();
    b.udp_bind(7).unwrap();
    let lid = b.tcp_listen(80, 16).unwrap();
    let dst = SocketAddr::new(ip(2), 7);

    // Warm ARP so the burst below is data, not resolution traffic.
    a.udp_sendto(9000, dst, &b"warm"[..]).unwrap();
    settle(&fabric, &[&a, &b], || b.udp_pending(7) > 0);
    let _ = b.udp_recv_from(7);

    // Three datagrams and a TCP SYN, no poll in between: nothing reaches
    // the device until the flush, then everything leaves as one burst.
    let before = a_port.stats();
    a.udp_sendto(9000, dst, &b"one"[..]).unwrap();
    a.udp_sendto(9000, dst, &b"two"[..]).unwrap();
    a.udp_sendto(9000, dst, &b"three"[..]).unwrap();
    let conn = a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap();
    assert_eq!(
        a_port.stats().tx_burst_calls,
        before.tx_burst_calls,
        "frames coalesce in the TX ring until the poll-end flush"
    );
    a.poll();
    let after = a_port.stats();
    assert_eq!(
        after.tx_burst_calls,
        before.tx_burst_calls + 1,
        "one doorbell for the whole burst"
    );
    assert_eq!(after.tx_frames, before.tx_frames + 4);

    // The burst arrives in enqueue order and both protocols make progress.
    settle(&fabric, &[&a, &b], || {
        b.udp_pending(7) == 3 && a.tcp_state(conn) == Ok(State::Established)
    });
    let payloads: Vec<Vec<u8>> = (0..3)
        .map(|_| b.udp_recv_from(7).unwrap().1.as_slice().to_vec())
        .collect();
    assert_eq!(
        payloads,
        vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
    );
    let mut accepted = None;
    settle(&fabric, &[&a, &b], || {
        accepted = b.tcp_accept(lid).unwrap();
        accepted.is_some()
    });

    // No latency tax: a 64-byte echo round through the coalescing ring
    // takes exactly the virtual time the removed per-frame handoff path
    // took (EXPERIMENTS.md E13, depth 1: 2.042us either way) — the flush
    // happens in the poll pass that would have carried the frame alone.
    quiesce(&fabric, &[&a, &b]);
    let t0 = fabric.clock().now();
    a.udp_sendto(9000, dst, &[0xA5u8; 64][..]).unwrap();
    settle(&fabric, &[&a, &b], || b.udp_pending(7) > 0);
    let (from, data) = b.udp_recv_from(7).unwrap();
    b.udp_sendto(7, from, data).unwrap();
    settle(&fabric, &[&a, &b], || a.udp_pending(9000) > 0);
    assert_eq!(
        fabric.clock().now().saturating_since(t0),
        SimTime::from_nanos(2_042)
    );
}

/// Delayed ACK: a lone segment's acknowledgment is held until the
/// virtual-time timer fires, then delivered as one pure ACK.
#[test]
fn delayed_ack_timer_fires_in_virtual_time() {
    let fabric = Fabric::new(11);
    let a = host(&fabric, 1);
    let b = host(&fabric, 2);
    // The stack's delayed-ACK timer (DESIGN.md, protocol constants).
    let ack_delay = SimTime::from_micros(50);
    let (conn, sconn) = connect(&fabric, &a, &b);

    // One lone segment; its second never comes.
    a.tcp_send(conn, DemiBuffer::from_slice(b"lone")).unwrap();
    a.poll();
    assert!(fabric.advance_to_next_event(), "segment is in flight");
    b.poll();
    assert!(b.tcp_readable(sconn), "data is delivered before the ACK");
    let acks_before = b.tcp_conn_stats(sconn).unwrap().acks_sent;
    let armed_at = fabric.clock().now();

    // The receiver holds the ACK: its next deadline is the delayed-ACK
    // timer, exactly ack_delay out.
    assert_eq!(
        b.next_deadline(),
        Some(armed_at.saturating_add(ack_delay)),
        "delayed-ACK timer is armed"
    );
    assert_eq!(
        b.tcp_conn_stats(sconn).unwrap().acks_sent,
        acks_before,
        "no pure ACK before the timer"
    );

    // Fire the timer in virtual time: one pure ACK leaves.
    fabric
        .clock()
        .advance_to(armed_at.saturating_add(ack_delay));
    b.poll();
    assert_eq!(b.tcp_conn_stats(sconn).unwrap().acks_sent, acks_before + 1);

    // The ACK reaches the sender and clears its retransmission timer well
    // before the RTO would have fired. The only deadline that may remain
    // is the idle-queue compactor, which sits compact_delay out — far
    // past where the RTO (rto_min after the send) would have been.
    assert!(fabric.advance_to_next_event(), "ACK is in flight");
    a.poll();
    let tcp = StackConfig::new(ip(1)).tcp;
    let rto_would_fire = armed_at.saturating_add(RTO_MIN);
    assert!(
        a.next_deadline().is_none_or(|d| d > rto_would_fire),
        "sender's RTO is disarmed (only the queue compactor may remain)"
    );

    // Streamed, the same rule halves the ACK traffic: every second
    // in-order segment shares one cumulative ACK. 24 sends of 8 segments
    // each keep the receive window open while the stream is long enough
    // for every-2nd-segment ACKing to dominate.
    while b.tcp_recv(sconn).unwrap().is_some() {}
    let (sent0, rcvd0) = (
        a.tcp_conn_stats(conn).unwrap(),
        b.tcp_conn_stats(sconn).unwrap(),
    );
    let chunk = vec![0x5Au8; 8 * tcp.mss];
    for i in 1..=24u64 {
        a.tcp_send(conn, DemiBuffer::from_slice(&chunk)).unwrap();
        settle(&fabric, &[&a, &b], || {
            while let Ok(Some(_)) = b.tcp_recv(sconn) {}
            b.tcp_conn_stats(sconn).unwrap().in_order_segments - rcvd0.in_order_segments >= 8 * i
        });
    }
    let (sent, rcvd) = (
        a.tcp_conn_stats(conn).unwrap(),
        b.tcp_conn_stats(sconn).unwrap(),
    );
    let segments =
        (sent.segments_sent + sent.retransmissions) - (sent0.segments_sent + sent0.retransmissions);
    let acks = rcvd.acks_sent - rcvd0.acks_sent;
    assert!(
        acks as f64 / segments as f64 <= 0.55,
        "delayed ACKs must emit <= 0.55 ACK frames per segment: {acks} for {segments}"
    );
    assert!(rcvd.acks_coalesced > rcvd0.acks_coalesced);
}

/// Completion delivery is O(1): waiting on 1024 tokens costs one entry
/// scan, not a rescan of every token on every pump pass.
#[test]
fn wait_any_does_not_rescan_tokens_every_pass() {
    const HERD: usize = 1024;
    let rt = Runtime::new();
    let (gate, released) = (Notify::new(), Rc::new(Cell::new(false)));
    let mut tokens: Vec<QToken> = (0..HERD)
        .map(|_| {
            let released = released.clone();
            let check = Rc::new(move |_, _| released.get().then_some(OperationResult::Push));
            rt.park_op("parked", &gate, check, QDesc(0), 0)
        })
        .collect();
    // Park the herd.
    rt.pump();
    // One op that completes only after several timer hops, forcing the
    // wait loop through many pump passes.
    let timers = rt.timers().clone();
    let slow = rt.spawn_op("slow", async move {
        for _ in 0..8 {
            timers.sleep(SimTime::from_micros(10)).await;
        }
        OperationResult::Push
    });
    tokens.push(slow);

    rt.metrics().reset();
    let (idx, result) = rt.wait_any(&tokens, None).unwrap();
    assert_eq!(idx, HERD, "the slow op resolved the wait");
    assert!(matches!(result, OperationResult::Push));

    let m = rt.metrics().snapshot();
    assert!(
        m.wait_passes >= 8,
        "the sleep loop must span several pump passes, got {}",
        m.wait_passes
    );
    // One entry scan over the tokens plus O(1) per arrival. The historical
    // linear rescan would have cost tokens * passes lookups here.
    let budget = (HERD + 1) as u64 + m.wait_passes;
    assert!(
        m.completion_checks <= budget,
        "completion checks scale with passes: {} > {}",
        m.completion_checks,
        budget
    );
    assert_eq!(
        rt.scheduler().stats().spurious_polls,
        0,
        "the parked herd was never re-polled"
    );
    // ...so the wait's scheduling cost tracks the one runnable task, not
    // the 1024 parked behind it (E11: a sweep paid >= HERD polls/pass).
    assert!(
        m.wait_polls <= m.wait_passes,
        "polls scale with the parked herd: {} polls in {} passes",
        m.wait_polls,
        m.wait_passes
    );

    // Shut the world down cleanly.
    tokens.pop();
    released.set(true);
    assert_eq!(gate.notify_waiters(), HERD);
    rt.wait_all(&tokens, None).unwrap();
}

/// What the poll-pass guards must never starve: work staged *between*
/// polls — by a synchronous call the runtime knows nothing about, or by a
/// deadline falling due — leaves at the very next `poll()` (the first one
/// at or after the deadline), one doorbell, whatever the guards concluded
/// on the idle passes before it.
#[test]
fn work_staged_between_polls_leaves_at_the_next_poll() {
    let fabric = Fabric::new(29);
    let (a_port, a) = host_with(&fabric, StackConfig::new(ip(1)));
    let mut b_config = StackConfig::new(ip(2));
    b_config.tcp.recv_capacity = 2_000;
    let (b_port, b) = host_with(&fabric, b_config);
    a.udp_bind(9000).unwrap();
    let (conn, sconn) = connect(&fabric, &a, &b);
    quiesce(&fabric, &[&a, &b]);
    // The next poll of `stack` — and not the idle ones before it — hands
    // exactly `frames` to `port` in one burst.
    let leaves_at_next_poll = |what: &str, stack: &NetworkStack, port: &DpdkPort, frames: u64| {
        let before = port.stats();
        stack.poll();
        let after = port.stats();
        assert_eq!(after.tx_frames - before.tx_frames, frames, "{what}");
        assert_eq!(after.tx_burst_calls - before.tx_burst_calls, 1, "{what}");
    };
    let idle = |stack: &NetworkStack| (0..3).for_each(|_| assert_eq!(stack.poll(), 0));

    idle(&a);
    a.ping(ip(2), 1, 1);
    leaves_at_next_poll("ping", &a, &a_port, 1);
    idle(&a);
    a.udp_sendto(9000, SocketAddr::new(ip(2), 7), &b"raw"[..])
        .unwrap();
    leaves_at_next_poll("udp_sendto", &a, &a_port, 1);
    idle(&a);
    // 2 000 bytes fill `b`'s receive buffer: two segments, window shut.
    let pool = BufferPool::unregistered();
    a.tcp_send_all(
        conn,
        [pooled(&pool, &[7u8; 1_000]), pooled(&pool, &[8u8; 1_000])],
    )
    .unwrap();
    leaves_at_next_poll("tcp_send_all", &a, &a_port, 2);
    quiesce(&fabric, &[&a, &b]);
    idle(&b);
    let mut got = Vec::new();
    b.tcp_recv_all(sconn, &mut got).unwrap();
    assert_eq!(got.iter().map(DemiBuffer::len).sum::<usize>(), 2_000);
    leaves_at_next_poll("window update", &b, &b_port, 1);
    quiesce(&fabric, &[&a, &b]);
    idle(&a);
    a.tcp_close(conn).unwrap();
    leaves_at_next_poll("FIN", &a, &a_port, 1);
    // `b` closes too; `a` sits out TIME_WAIT, and the poll in which that
    // expires — no segment in it — is the one that hands the connection's
    // ephemeral port (the stack's first: 32 768) back to the allocator.
    settle(&fabric, &[&a, &b], || b.tcp_eof(sconn));
    b.tcp_close(sconn).unwrap();
    leaves_at_next_poll("FIN back", &b, &b_port, 1);
    settle(&fabric, &[&a, &b], || {
        a.tcp_state(conn) == Ok(State::TimeWait)
    });
    a.poll();
    let expiry = a.next_deadline().expect("2·MSL armed");
    fabric.advance_to(SimTime::from_nanos(expiry.as_nanos() - 1));
    idle(&a);
    assert!(a.port_allocator().is_claimed(32_768));
    fabric.advance_to(expiry);
    a.poll();
    assert!(!a.port_allocator().is_claimed(32_768), "port recycled");
    quiesce(&fabric, &[&a, &b]);

    // An ARP retry: nothing one nanosecond before it falls due, the
    // request on the first poll at the deadline.
    a.udp_sendto(9000, SocketAddr::new(ip(99), 7), &b"void"[..])
        .unwrap();
    leaves_at_next_poll("ARP request", &a, &a_port, 1);
    let retry = a.next_deadline().expect("retry armed");
    fabric.advance_to(SimTime::from_nanos(retry.as_nanos() - 1));
    idle(&a);
    fabric.advance_to(retry);
    leaves_at_next_poll("ARP retry", &a, &a_port, 1);
    assert_eq!(a.stats().arp_requests, 3, "b, then 10.0.0.99 twice");
}

/// An echo's poll passes are mostly idle, and an idle pass is free by
/// count: of the poll passes a `pushto`/`pop`/`wait` round trip spends on
/// two hosts, only four stages have anything to do — each host's RX of the
/// one frame it receives and TX burst of the one it sends; with no TCP
/// state there is no tick and no flush. Read through `MetricsSnapshot`,
/// the same in debug and release builds, and the guards cost no virtual
/// time: every round is the 2.042 µs it was.
#[test]
fn an_echo_runs_four_poll_stages() {
    use demikernel::testing::catnip_pair;
    const ECHOES: u64 = 1_000;
    let (rt, _fabric, client, server) = catnip_pair(23);
    let (cqd, sqd, to) = udp_pair(&client, &server);
    spawn_udp_echo(&server, sqd);
    let round = || {
        let t0 = rt.now();
        udp_echo_round(&client, cqd, to);
        rt.now().saturating_since(t0)
    };
    // ARP both ways, then let the resolution timers drain.
    round();
    rt.settle(SimTime::from_millis(10));

    rt.metrics().reset();
    for _ in 0..ECHOES {
        assert_eq!(round(), SimTime::from_nanos(2_042));
    }
    let m = rt.metrics().snapshot();
    // 14 passes an echo today; how many run is the runtime's business.
    assert!(m.poll_passes >= 4 * ECHOES, "{} poll passes", m.poll_passes);
    assert_eq!(m.poll_stages_run, 4 * ECHOES, "2 RX + 2 TX bursts per echo");
}

/// Drives `chunks` through a fresh two-host TCP world and returns the byte
/// stream the receiver observed.
fn run_stream(chunks: &[Vec<u8>], seed: u64) -> Vec<u8> {
    let fabric = Fabric::new(seed);
    let a = host(&fabric, 1);
    let b = host(&fabric, 2);
    let (conn, sconn) = connect(&fabric, &a, &b);

    // Even seeds push the chunks as one SGA (they gather into shared
    // segments), odd seeds one push per chunk.
    let bufs = chunks.iter().map(|c| DemiBuffer::from_slice(c));
    if seed.is_multiple_of(2) {
        a.tcp_send_all(conn, bufs).unwrap();
    } else {
        bufs.for_each(|buf| a.tcp_send(conn, buf).unwrap());
    }
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    let mut got = Vec::new();
    settle(&fabric, &[&a, &b], || {
        while let Ok(Some(buf)) = b.tcp_recv(sconn) {
            got.extend_from_slice(buf.as_slice());
        }
        got.len() >= total
    });
    got
}

/// A buffer of at least half a segment that can take the headers in place
/// is never copied into a gather: it ends the one before it, travels
/// alone, and the peer reads the pusher's own storage.
#[test]
fn a_buffer_worth_a_frame_is_never_gathered() {
    let fabric = Fabric::new(13);
    let a = host(&fabric, 1);
    let b = host(&fabric, 2);
    let (conn, sconn) = connect(&fabric, &a, &b);
    let pool = BufferPool::unregistered();
    let big = pooled(&pool, &vec![0xB1; TcpConfig::default().mss / 2]);
    let sga = [
        pooled(&pool, b"$730\r\n"),
        pooled(&pool, b"-"),
        big.clone(),
        pooled(&pool, b"\r\n"),
        pooled(&pool, b"+OK\r\n"),
    ];
    let small: usize = sga.iter().map(|buf| buf.len()).sum::<usize>() - big.len();

    let before = demi_memory::counters::snapshot();
    let segments_before = a.tcp_conn_stats(conn).unwrap().segments_sent;
    a.tcp_send_all(conn, sga).unwrap();
    let mut got = Vec::new();
    settle(&fabric, &[&a, &b], || {
        b.tcp_recv_all(sconn, &mut got).unwrap();
        got.iter().map(|chunk| chunk.len()).sum::<usize>() >= small + big.len()
    });
    let d = demi_memory::counters::snapshot().delta(&before);
    assert_eq!(
        a.tcp_conn_stats(conn).unwrap().segments_sent - segments_before,
        3,
        "two small buffers, the big one alone, two small buffers"
    );
    assert_eq!(d.copies, 2, "one gather either side of the big buffer");
    assert_eq!(d.bytes_copied as usize, small, "none of them the big one's");
    assert_eq!(got.len(), 3);
    assert!(got[1].same_storage(&big) && got[1] == big);
    assert!(got[1].headroom() >= MAX_HEADER_LEN, "headers went in place");
}

/// Under tenancy a gathered segment is the pushing tenant's frame: it
/// carries that tenant's stamp, so it queues in — and is charged to —
/// that tenant's TX lane, not the host's.
#[test]
fn a_gathered_segment_is_charged_to_the_pushing_tenant() {
    let fabric = Fabric::new(17);
    let registry = std::sync::Arc::new(TenantRegistry::new());
    let tenant = registry.register(TenantSpec::named("pusher", 1));
    let mut config = StackConfig::new(ip(1));
    config.tenancy = Some(TenancyCfg::new(registry));
    let (_, a) = host_with(&fabric, config);
    let b = host(&fabric, 2);
    let (conn, sconn) = demi_tenant::scope(tenant, || connect(&fabric, &a, &b));

    let pool = BufferPool::for_tenant(tenant, None);
    let before = a.tenant_stats()[0];
    demi_tenant::scope(tenant, || {
        a.tcp_send_all(conn, [pooled(&pool, b"one "), pooled(&pool, b"frame")])
            .unwrap();
    });
    assert_eq!(
        a.tenant_stats()[0].staged_frames,
        1,
        "parked in the tenant's lane until the poll admits it"
    );
    let mut got = Vec::new();
    settle(&fabric, &[&a, &b], || {
        b.tcp_recv_all(sconn, &mut got).unwrap();
        !got.is_empty()
    });
    assert_eq!(got.len(), 1, "two buffers, one segment");
    assert_eq!(got[0].as_slice(), b"one frame");
    assert_eq!(got[0].tenant(), tenant, "the copy kept the pusher's stamp");
    let after = a.tenant_stats()[0];
    assert_eq!(after.sent_frames - before.sent_frames, 1);
    assert_eq!(
        after.sent_bytes - before.sent_bytes,
        (b"one frame".len() + MAX_HEADER_LEN - 4) as u64,
        "the whole frame (payload + Ethernet/IP/20-byte TCP headers)"
    );
}

/// Pushes `sgas` (one `send_all` each) from one TCP peer to another over
/// a link that drops data and ACK segments with probability `loss`, into
/// a receive buffer of `recv_capacity` bytes drained at random. Checks
/// every data segment against the MSS and the receiver's advertised
/// window; returns the bytes received.
fn gathered_transfer(
    sgas: Vec<Vec<DemiBuffer>>,
    seed: u64,
    loss: f64,
    recv_capacity: usize,
) -> Vec<u8> {
    let ccfg = TcpConfig::default();
    let scfg = TcpConfig {
        recv_capacity,
        ..ccfg
    };
    let mut now = SimTime::from_millis(1);
    let mut rng = SimRng::new(seed);
    let (c_ip, s_ip) = (ip(1), ip(2));
    let mut client = TcpPeer::new(c_ip, ccfg);
    let mut server = TcpPeer::new(s_ip, scfg);
    let listener = server.listen(80, 1).unwrap();
    let c = client.connect(SocketAddr::new(s_ip, 80), now).unwrap();
    let mut wire = Vec::new();
    client.drain_segments(&mut wire);
    let (_, syn) = wire.remove(0);
    let iss = syn.header.seq;
    server.on_segment(c_ip, &syn.header, syn.payload, now);
    let total: usize = sgas.iter().flatten().map(|buf| buf.len()).sum();
    let mut sgas = sgas.into_iter();
    let mut accepted = None;
    // Highest sequence offset the receiver has allowed, as the sender
    // learned it from delivered segments.
    let mut right_edge = 0u32;
    let mut received = Vec::new();
    for _ in 0..200_000 {
        let mut moved = false;
        server.drain_segments(&mut wire);
        for (_, seg) in wire.drain(..) {
            moved = true;
            if !seg.header.flags.syn && rng.chance(loss) {
                continue;
            }
            right_edge = right_edge.max(seg.header.ack.since(iss) + seg.header.window as u32);
            client.on_segment(s_ip, &seg.header, seg.payload, now);
        }
        if client.state(c) == Ok(State::Established) {
            if let Some(sga) = sgas.next() {
                client.send_all(c, sga, now).unwrap();
            }
        }
        client.drain_segments(&mut wire);
        for (_, seg) in wire.drain(..) {
            moved = true;
            let len = seg.payload.len();
            assert!(len <= ccfg.mss, "{len}-byte segment exceeds the MSS");
            // (A one-byte zero-window probe may sit just past the edge.)
            assert!(
                len <= 1 || seg.header.seq.since(iss) + len as u32 <= right_edge,
                "{len}-byte segment overruns the advertised window"
            );
            if len == 0 || !rng.chance(loss) {
                server.on_segment(c_ip, &seg.header, seg.payload, now);
            }
        }
        accepted = accepted.or_else(|| server.accept(listener).unwrap());
        if let (true, Some(s)) = (rng.chance(0.5), accepted) {
            while let Some(chunk) = server.recv(s).unwrap() {
                received.extend_from_slice(chunk.as_slice());
            }
        }
        if received.len() == total {
            return received;
        }
        if !moved {
            now = now.saturating_add(SimTime::from_micros(250));
            client.on_tick(now);
            server.on_tick(now);
        }
    }
    panic!("transfer stalled at {}/{total} bytes", received.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batching is invisible at the byte level: the coalescing,
    /// delayed-ACK stack delivers exactly the bytes sent, for any
    /// chunking and seed.
    #[test]
    fn batched_streams_are_byte_identical_to_what_was_sent(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..1600), 1..10),
        seed in 0u64..1_000,
    ) {
        let sent: Vec<u8> = chunks.concat();
        prop_assert_eq!(&run_stream(&chunks, seed), &sent);
    }

    /// Gathering is invisible at the byte level too: for any SGA shapes
    /// (1-8 buffers of 1 B to 3 MSS; fresh pool buffers, unpooled copies
    /// and views with a live view below them), any loss forcing gathered
    /// segments to be retransmitted, and a receive window small enough to
    /// split gathers, the stream received is the concatenation of the
    /// buffers pushed.
    #[test]
    fn gathered_sgas_deliver_their_concatenation(
        shapes in prop::collection::vec(
            prop::collection::vec((1usize..3 * 1460, 0u8..3), 1..9), 1..4),
        seed in any::<u64>(),
        loss_pct in 0u32..15,
        recv_capacity in 700usize..6_000,
    ) {
        let pool = BufferPool::unregistered();
        let (mut sent, mut bases) = (Vec::new(), Vec::new());
        let sgas: Vec<Vec<DemiBuffer>> = shapes
            .iter()
            .map(|shape| shape.iter().map(|&(len, kind)| {
                let bytes: Vec<u8> = (sent.len()..sent.len() + len).map(|i| (i % 251) as u8).collect();
                sent.extend_from_slice(&bytes);
                match kind {
                    0 => pooled(&pool, &bytes),
                    1 => DemiBuffer::from_slice(&bytes),
                    _ => {
                        // The tail of a buffer whose head someone still holds.
                        let mut base = pooled(&pool, &[&[0xEE], &bytes[..]].concat());
                        let view = base.split_off(1);
                        bases.push(base);
                        view
                    }
                }
            }).collect())
            .collect();
        let got = gathered_transfer(sgas, seed, loss_pct as f64 / 100.0, recv_capacity);
        prop_assert_eq!(got, sent);
    }
}

//! Connection-scale fast-path invariants (E18).
//!
//! The slab/demux/TIME_WAIT/SYN-table redesign makes five structural
//! claims at scale — through the whole stack at [`SCALE`] connections, and
//! at the bare TCP peer at [`PEER_SCALE`] (100 000 in release builds):
//!
//! * an *idle* established connection costs a bounded slab slot — after
//!   the compactor reclaims its drained queue box, amortized bytes per
//!   connection stay under 2 KiB;
//! * open/close churn recycles slab slots and ephemeral ports instead of
//!   growing either;
//! * a SYN flood cannot allocate control blocks or grow the fixed SYN
//!   table — memory stays O(backlog) no matter the flood size;
//! * steady-state echo traffic allocates no queue boxes and never grows
//!   the TX scratch (the TCP layer's witnesses of the zero-alloc claim),
//!   and at the peer allocates nothing at all;
//! * an echo op costs the same segments, demux lookups and allocations
//!   however many other connections are established, and a forged SYN
//!   costs one lookup and one SYN-ACK on top.

mod support;

use demi_memory::DemiBuffer;
use demikernel::testing::{AllocMeter, CountingAlloc};
use net_stack::counters as nsc;
use net_stack::tcp::{ConnId, SeqNum, State, TcpConfig, TcpFlags, TcpHeader, TcpPeer};
use net_stack::types::SocketAddr;
use net_stack::NetworkStack;
use sim_fabric::{Fabric, SimTime};
use support::{host, ip, settle, take_segments, PeerWorld};

/// Counts this thread's heap allocations inside an [`AllocMeter`] window.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Debug builds run the CI-sized version; release runs the full size
/// (the `verify` recipe runs this suite under `--release`).
const SCALE: usize = if cfg!(debug_assertions) { 128 } else { 1024 };
/// Connections on the bare peer, where 100 000 are a second's work.
const PEER_SCALE: usize = if cfg!(debug_assertions) {
    2_000
} else {
    100_000
};

/// A SYN from a source nobody will ever answer for (unique per `k`).
fn forged_syn(k: u32) -> TcpHeader {
    TcpHeader {
        src_port: 1_024 + (k % 60_000) as u16,
        dst_port: 80,
        seq: SeqNum(k.wrapping_mul(2_654_435_761)),
        ack: SeqNum(0),
        flags: TcpFlags::SYN,
        window: 65_535,
        mss: Some(1_460),
    }
}

/// Advances virtual time by `dt` and polls until quiescent again.
fn advance_and_poll(fabric: &Fabric, stacks: &[&NetworkStack], dt: SimTime) {
    fabric
        .clock()
        .advance_to(fabric.clock().now().saturating_add(dt));
    for _ in 0..64 {
        let mut work = 0;
        for s in stacks {
            work += s.poll();
        }
        if work == 0 && !fabric.advance_to_next_event() {
            return;
        }
    }
}

#[test]
fn idle_connections_cost_bounded_slab_bytes_after_compaction() {
    let fabric = Fabric::new(11);
    let a = host(&fabric, 1);
    let b = host(&fabric, 2);
    b.tcp_listen(80, SCALE).unwrap();
    let conns: Vec<_> = (0..SCALE)
        .map(|_| a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap())
        .collect();
    settle(&fabric, &[&a, &b], || {
        conns
            .iter()
            .all(|&c| a.tcp_state(c) == Ok(State::Established))
    });
    // Touch every connection so its queue box exists, then let them idle.
    for &c in &conns {
        a.tcp_send(c, DemiBuffer::from_slice(b"x")).unwrap();
    }
    settle(&fabric, &[&a, &b], || {
        b.tcp_stats().demuxed > 0 && a.next_deadline().is_none()
    });
    // Past the compact delay, drained queue boxes go back to the
    // allocator: connections park at their slab-slot-only footprint.
    advance_and_poll(&fabric, &[&a, &b], SimTime::from_millis(20));
    let mem = a.tcp_mem_stats();
    assert_eq!(mem.live_conns, SCALE);
    let per_conn = (mem.slab_bytes + mem.cb_heap_bytes + mem.demux_bytes) / mem.live_conns;
    assert!(
        per_conn <= 2_048,
        "idle established connection must cost <= 2 KiB, got {per_conn} \
         (slab={} cb_heap={} demux={})",
        mem.slab_bytes,
        mem.cb_heap_bytes,
        mem.demux_bytes,
    );
    assert_eq!(
        mem.cb_heap_bytes, 0,
        "every idle connection should have released its queue box"
    );
}

#[test]
fn open_close_churn_recycles_slots_and_ports() {
    let fabric = Fabric::new(23);
    let a = host(&fabric, 1);
    let b = host(&fabric, 2);
    // The whole round's SYN burst must fit the listener's fixed SYN
    // table, or the overflow gets evicted and RST'd by design.
    let per_round = SCALE / 8;
    let lid = b.tcp_listen(80, per_round).unwrap();
    let mut slab_after_first_round = 0;
    for round in 0..8 {
        let conns: Vec<_> = (0..per_round)
            .map(|_| a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap())
            .collect();
        let mut accepted = Vec::new();
        settle(&fabric, &[&a, &b], || {
            while let Some(s) = b.tcp_accept(lid).unwrap() {
                accepted.push(s);
            }
            accepted.len() == per_round
                && conns
                    .iter()
                    .all(|&c| a.tcp_state(c) == Ok(State::Established))
        });
        // Full close walk: client first (it takes the TIME_WAIT), then
        // the server once its side sees EOF.
        for &c in &conns {
            a.tcp_close(c).unwrap();
        }
        settle(&fabric, &[&a, &b], || {
            accepted.iter().all(|&s| b.tcp_eof(s))
        });
        for &s in &accepted {
            b.tcp_close(s).unwrap();
        }
        settle(&fabric, &[&a, &b], || {
            conns.iter().all(|&c| {
                a.tcp_state(c) == Ok(State::TimeWait) || a.tcp_state(c) == Ok(State::Closed)
            })
        });
        // Ride past 2*MSL so TIME_WAIT records expire and ports recycle.
        advance_and_poll(&fabric, &[&a, &b], SimTime::from_millis(25));
        assert_eq!(a.tcp_mem_stats().live_conns, 0, "round {round}");
        assert_eq!(a.tcp_mem_stats().timewait_records, 0, "round {round}");
        if round == 0 {
            slab_after_first_round = a.tcp_mem_stats().slab_bytes;
        }
    }
    let mem = a.tcp_mem_stats();
    assert_eq!(
        mem.slab_bytes, slab_after_first_round,
        "8 rounds of churn must reuse round 1's slab slots"
    );
    // Ports were recycled back to the shared namespace: the whole churn
    // fit without claiming anywhere near rounds * per_round fresh ports.
    let ports = a.port_allocator();
    let claimed_low_range = (32_768..32_768 + 2 * per_round as u16)
        .filter(|&p| ports.is_claimed(p))
        .count();
    assert_eq!(claimed_low_range, 0, "all ephemeral ports returned");
}

#[test]
fn syn_flood_memory_stays_bounded_by_the_backlog() {
    // Peer-level: a fixed SYN table absorbs a flood 100x its size with
    // zero control blocks and zero table growth.
    let now = SimTime::from_millis(1);
    let backlog = 64;
    let flood = backlog * 100;
    let mut server = TcpPeer::new(ip(2), TcpConfig::default());
    server.listen(80, backlog).unwrap();
    let table_before = server.mem_stats().syn_table_bytes;
    let before = nsc::conn_snapshot();
    for i in 0..flood as u32 {
        // Distinct source hosts so every SYN is a distinct flow.
        let src = ip(3 + (i % 200) as u8);
        server.on_segment(src, &forged_syn(i), DemiBuffer::empty(), now);
    }
    let evicted = nsc::conn_snapshot().delta(&before).syns_evicted;
    assert_eq!(server.conn_count(), 0, "no TCB before handshake completion");
    assert_eq!(
        server.mem_stats().syn_table_bytes,
        table_before,
        "the SYN table is fixed-size"
    );
    assert_eq!(
        evicted as usize,
        flood - backlog,
        "all but `backlog` half-open entries were evicted oldest-first"
    );
    assert_eq!(server.stats().syns_accepted as usize, flood);
    // Every admitted SYN still got its SYN-ACK (the flood is answered,
    // just never allowed to pin memory).
    assert_eq!(take_segments(&mut server).len(), flood);
}

#[test]
fn closing_a_reset_connection_releases_its_slab_slot_and_port() {
    // A connection killed by a peer RST stays resident so `error()` can
    // still report what happened — but only until the owner closes the
    // handle. Close must return the slab slot and the ephemeral port, or
    // refused connections leak forever.
    let now = SimTime::from_millis(1);
    let mut client = TcpPeer::new(ip(1), TcpConfig::default());
    let mut server = TcpPeer::new(ip(2), TcpConfig::default());
    // Nobody listens on 81: the SYN draws an RST.
    let c = client.connect(SocketAddr::new(ip(2), 81), now).unwrap();
    for (_, seg) in take_segments(&mut client) {
        server.on_segment(ip(1), &seg.header, seg.payload, now);
    }
    for (_, seg) in take_segments(&mut server) {
        client.on_segment(ip(2), &seg.header, seg.payload, now);
    }
    assert_eq!(client.state(c).unwrap(), State::Closed);
    assert_eq!(
        client.mem_stats().live_conns,
        1,
        "errored block stays resident until the owner closes it"
    );
    let port = client.local(c).unwrap().port;
    client.close(c, now).unwrap();
    assert_eq!(
        client.mem_stats().live_conns,
        0,
        "close surrenders the handle: the slot frees"
    );
    assert_eq!(
        client.pop_released_port(),
        Some(port),
        "the ephemeral port goes back to the namespace"
    );
}

#[test]
fn established_flow_survives_a_syn_flood() {
    // Peer-level: an established connection keeps echoing while (and
    // after) its listener absorbs a flood of half-open attempts from an
    // attacker who never completes a handshake.
    let mut w = PeerWorld::new(80, 16);
    let (i, c, s) = w.establish(1)[0];
    for k in 0..512 {
        let now = w.now;
        w.server
            .on_segment(ip(9), &forged_syn(k), DemiBuffer::empty(), now);
    }
    w.shuttle(); // SYN-ACKs to the attacker fall on the floor.
    assert_eq!(w.server.stats().syns_evicted, 512 - 16);
    assert_eq!(
        w.server.conn_count(),
        1,
        "the flood pinned no control block"
    );

    // The established flow is unharmed.
    let request = DemiBuffer::from_slice(b"still alive");
    w.clients[i].send(c, request, w.now).unwrap();
    w.shuttle();
    let got = w
        .server
        .recv(s)
        .unwrap()
        .expect("request survived the flood");
    assert_eq!(got.as_slice(), b"still alive");
}

#[test]
fn steady_state_echo_allocates_no_queue_boxes_and_never_grows_scratch() {
    let fabric = Fabric::new(47);
    let a = host(&fabric, 1);
    let b = host(&fabric, 2);
    let lid = b.tcp_listen(80, 64).unwrap();
    let n = 32;
    let conns: Vec<_> = (0..n)
        .map(|_| a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap())
        .collect();
    let mut server_conns = Vec::new();
    settle(&fabric, &[&a, &b], || {
        while let Some(s) = b.tcp_accept(lid).unwrap() {
            server_conns.push(s);
        }
        server_conns.len() == n
            && conns
                .iter()
                .all(|&c| a.tcp_state(c) == Ok(State::Established))
    });

    // A 4 KiB message spans three MSS-sized segments, so each flow puts
    // consecutive segments on the wire — the last-flow demux cache's
    // target pattern.
    let msg = vec![0x5au8; 4_096];
    let round = || {
        for &c in &conns {
            a.tcp_send(c, DemiBuffer::from_slice(&msg)).unwrap();
        }
        let mut echoed = vec![0usize; n];
        settle(&fabric, &[&a, &b], || {
            for (i, &s) in server_conns.iter().enumerate() {
                while let Some(chunk) = b.tcp_recv(s).unwrap() {
                    echoed[i] += chunk.len();
                    b.tcp_send(s, chunk).unwrap();
                }
            }
            echoed.iter().all(|&e| e == msg.len())
        });
        let mut got = vec![0usize; n];
        settle(&fabric, &[&a, &b], || {
            for (i, &c) in conns.iter().enumerate() {
                while let Some(chunk) = a.tcp_recv(c).unwrap() {
                    got[i] += chunk.len();
                }
            }
            got.iter().all(|&g| g == msg.len())
        });
    };

    // Warmup: queue boxes and scratch buffers reach steady capacity.
    for _ in 0..10 {
        round();
    }
    let before = nsc::conn_snapshot();
    for _ in 0..30 {
        round();
    }
    let delta = nsc::conn_snapshot().delta(&before);
    assert_eq!(
        delta.tcb_queue_allocs, 0,
        "steady-state echo must reuse warm queue boxes"
    );
    assert_eq!(
        delta.outbox_scratch_grows, 0,
        "the TX scratch must be at capacity after warmup"
    );
    assert!(
        delta.demux_cache_hits > 0,
        "back-to-back segments of a flow should hit the last-flow cache"
    );
}

/// One synchronous 4 KiB echo (three MSS-sized segments each way, the
/// last-flow cache's target pattern), then 10 µs pass: delayed-ACK timers
/// fire a few ops later, and rotating over the sample re-touches every
/// connection inside the compact delay, so queue boxes never thrash.
fn echo_op(w: &mut PeerWorld, (i, c, s): (usize, ConnId, ConnId), payload: &DemiBuffer) {
    w.clients[i].send(c, payload.clone(), w.now).unwrap();
    w.shuttle();
    let mut echoed = 0;
    while let Ok(Some(chunk)) = w.server.recv(s) {
        echoed += chunk.len();
        w.server.send(s, chunk, w.now).unwrap();
    }
    w.shuttle();
    let mut got = 0;
    while let Ok(Some(chunk)) = w.clients[i].recv(c) {
        got += chunk.len();
    }
    assert_eq!((echoed, got), (payload.len(), payload.len()));
    w.advance_by(SimTime::from_micros(10));
}

/// What `ops` echo ops over `sample` cost after a 200-op warm-up, with
/// `flood` forged SYNs injected ahead of each: segments on the wire, heap
/// allocations, and the TCP layer's own counters.
fn echo_cost(
    w: &mut PeerWorld,
    sample: &[(usize, ConnId, ConnId)],
    ops: usize,
    flood: u32,
) -> (u64, u64, nsc::ConnSnapshot) {
    let payload = DemiBuffer::from_slice(&[0x5au8; 4_096]);
    for op in 0..200 {
        echo_op(w, sample[op % sample.len()], &payload);
    }
    let (segments, conn) = (w.segments, nsc::conn_snapshot());
    let meter = AllocMeter::arm();
    for op in 0..ops {
        for k in 0..flood {
            let (k, now) = (op as u32 * flood + k, w.now);
            let src = std::net::Ipv4Addr::new(10, 0, 1, (k % 250) as u8);
            w.server
                .on_segment(src, &forged_syn(k), DemiBuffer::empty(), now);
        }
        echo_op(w, sample[op % sample.len()], &payload);
    }
    let allocs = meter.count();
    (
        w.segments - segments,
        allocs,
        nsc::conn_snapshot().delta(&conn),
    )
}

/// The fast path must not care how many connections exist: the same 64
/// hot connections cost the same work per echo whether 100 or
/// [`PEER_SCALE`] are established, the warmed op allocates nothing, and a
/// 10x SYN flood adds exactly its own SYN-ACKs.
#[test]
fn echo_cost_is_flat_in_established_connections_and_under_a_syn_flood() {
    const OPS: u64 = if cfg!(debug_assertions) {
        1_000
    } else {
        10_000
    };
    let mut w = PeerWorld::new(80, if cfg!(debug_assertions) { 64 } else { 256 });
    let sample = w.establish(100)[..64].to_vec();
    // Nine segments an op: three of data and their ACKs each way. (The
    // first window may still grow a scratch vector or two; none later.)
    let (segments, _, small) = echo_cost(&mut w, &sample, OPS as usize, 0);
    assert_eq!((segments, small.demux_lookups), (9 * OPS, 9 * OPS));

    w.establish(PEER_SCALE - 100);
    // Parked past the compact delay, drained queue boxes return to the
    // allocator and idle connections fall back to their slab slots.
    w.advance_by(SimTime::from_millis(20));
    let mem = w.server.mem_stats();
    let per_conn = (mem.slab_bytes + mem.cb_heap_bytes + mem.demux_bytes) / mem.live_conns;
    assert_eq!(mem.live_conns, PEER_SCALE);
    assert_eq!(mem.cb_heap_bytes, 0, "parked connections hold no queue box");
    // The claim is "under 2 KiB". Measured: a 488 B slab slot (8 B of it
    // the readiness gate's word) plus its demux entry, amortized over both
    // tables' power-of-two capacities (2 048 slots for 2 000 connections,
    // 131 072 for 100 000).
    let idle_bytes = if cfg!(debug_assertions) { 523 } else { 654 };
    assert_eq!(per_conn, idle_bytes, "bytes an idle connection costs");

    let (segments, allocs, big) = echo_cost(&mut w, &sample, OPS as usize, 0);
    assert_eq!(
        (segments, big.demux_lookups),
        (9 * OPS, 9 * OPS),
        "an echo op must cost the same work at 100 and {PEER_SCALE} conns"
    );
    assert_eq!(
        (allocs, big.tcb_queue_allocs, big.outbox_scratch_grows),
        (0, 0, 0),
        "steady-state echo (send, demux, recv, echo, ACK ticks) must not allocate"
    );
    assert!(
        big.demux_cache_hits > 0,
        "the last-flow cache sees the echoes"
    );

    let (syn_bytes, live) = (mem.syn_table_bytes, w.server.conn_count());
    let (segments, allocs, flood) = echo_cost(&mut w, &sample, OPS as usize, 10);
    assert_eq!(
        (segments, flood.demux_lookups, allocs),
        (19 * OPS, 19 * OPS, 0),
        "a forged SYN costs one lookup and one SYN-ACK; the established \
         flows' work is untouched and half-open state never allocates"
    );
    assert_eq!(w.server.mem_stats().syn_table_bytes, syn_bytes);
    assert_eq!(
        w.server.conn_count(),
        live,
        "the flood pins no control block"
    );
    assert!(
        flood.syns_evicted > 0,
        "10x the service rate overflows oldest-first"
    );
}

//! Compact TIME_WAIT semantics (PR 8, toward E18).
//!
//! When a connection finishes its active close, the full control block —
//! queues, congestion state, RTT estimator — is dead weight: the only
//! remaining obligations are (1) hold the port for 2·MSL, (2) re-ACK a
//! retransmitted FIN (restarting 2·MSL), (3) die quietly on RST, and
//! (4) absorb stray late segments. The peer demotes such blocks to
//! ~40-byte [`TimeWaitRecord`]s on the same timing wheel. These tests pin
//! the demotion down:
//!
//! * lifecycle — the record expires at exactly 2·MSL via the wheel, the
//!   handle keeps answering, and the ephemeral port is recycled;
//! * the three late-segment behaviors, byte for byte;
//! * a differential property test: with demotion on and off, the bytes
//!   on the wire are *identical* for randomized close-and-linger
//!   scenarios.
//!
//! [`TimeWaitRecord`]: net_stack::tcp::peer::TcpPeer

mod support;

use std::net::Ipv4Addr;

use demi_memory::DemiBuffer;
use demikernel::testing::host_ip as ip;
use net_stack::tcp::{ConnId, State, TcpConfig, TcpFlags, TcpHeader, TcpPeer, TcpSegmentOut, MSL};
use net_stack::types::{NetError, SocketAddr};
use proptest::prelude::*;
use sim_fabric::SimTime;
use support::take_segments;

/// One line of wire trace: everything a header and payload commit to.
fn trace_line(dst: Ipv4Addr, seg: &TcpSegmentOut) -> String {
    format!(
        "{dst} {:?} payload={:?}",
        seg.header,
        seg.payload.as_slice()
    )
}

/// Shuttles segments between two peers until quiet, recording every
/// segment each side puts on the wire.
#[allow(clippy::too_many_arguments)]
fn pump_recording(
    a: &mut TcpPeer,
    a_ip: Ipv4Addr,
    a_trace: &mut Vec<String>,
    b: &mut TcpPeer,
    b_ip: Ipv4Addr,
    b_trace: &mut Vec<String>,
    b_to_a: &mut Vec<TcpHeader>,
    now: SimTime,
) {
    for _ in 0..1_000 {
        let mut quiet = true;
        for (dst, seg) in take_segments(a) {
            quiet = false;
            assert_eq!(dst, b_ip);
            a_trace.push(trace_line(dst, &seg));
            b.on_segment(a_ip, &seg.header, seg.payload, now);
        }
        for (dst, seg) in take_segments(b) {
            quiet = false;
            assert_eq!(dst, a_ip);
            b_trace.push(trace_line(dst, &seg));
            b_to_a.push(seg.header);
            a.on_segment(b_ip, &seg.header, seg.payload, now);
        }
        if quiet {
            return;
        }
    }
    panic!("pump did not converge");
}

/// Establishes a pair, exchanges `msgs`, and walks the full close with
/// the client closing first — leaving the client in TIME_WAIT. Returns
/// the peers, the client conn id, the client's wire trace so far, and
/// every header the server sent (the last FIN-bearing one is the replay
/// candidate).
fn closed_pair(
    demote: bool,
    msgs: &[Vec<u8>],
    now: SimTime,
) -> (TcpPeer, TcpPeer, ConnId, Vec<String>, Vec<TcpHeader>) {
    let mut client = TcpPeer::new(ip(1), TcpConfig::default());
    if !demote {
        net_stack::testing::keep_full_timewait_blocks(&mut client);
    }
    let mut server = TcpPeer::new(ip(2), TcpConfig::default());
    let lid = server.listen(80, 16).unwrap();
    let c = client.connect(SocketAddr::new(ip(2), 80), now).unwrap();
    let mut ct = Vec::new();
    let mut st = Vec::new();
    let mut from_server = Vec::new();
    let pump = |client: &mut TcpPeer,
                server: &mut TcpPeer,
                ct: &mut Vec<String>,
                from_server: &mut Vec<TcpHeader>,
                now| {
        let mut st_sink = Vec::new();
        pump_recording(
            client,
            ip(1),
            ct,
            server,
            ip(2),
            &mut st_sink,
            from_server,
            now,
        );
        st_sink
    };
    st.extend(pump(
        &mut client,
        &mut server,
        &mut ct,
        &mut from_server,
        now,
    ));
    let s = server.accept(lid).unwrap().expect("connection ready");
    for m in msgs {
        client.send(c, DemiBuffer::from_slice(m), now).unwrap();
        st.extend(pump(
            &mut client,
            &mut server,
            &mut ct,
            &mut from_server,
            now,
        ));
        let got = server.recv(s).unwrap().expect("message arrived");
        server.send(s, got, now).unwrap();
        st.extend(pump(
            &mut client,
            &mut server,
            &mut ct,
            &mut from_server,
            now,
        ));
        client.recv(c).unwrap().expect("echo arrived");
    }
    client.close(c, now).unwrap();
    st.extend(pump(
        &mut client,
        &mut server,
        &mut ct,
        &mut from_server,
        now,
    ));
    server.close(s, now).unwrap();
    st.extend(pump(
        &mut client,
        &mut server,
        &mut ct,
        &mut from_server,
        now,
    ));
    assert_eq!(client.state(c).unwrap(), State::TimeWait);
    assert_eq!(server.state(s).unwrap(), State::Closed);
    (client, server, c, ct, from_server)
}

#[test]
fn record_expires_at_exactly_two_msl_on_the_wheel() {
    let now = SimTime::from_millis(1);
    let (mut client, _server, c, _, _) = closed_pair(true, &[b"ping".to_vec()], now);
    // The full control block was demoted: no live connection remains, one
    // compact record holds the port.
    let mem = client.mem_stats();
    assert_eq!(mem.live_conns, 0, "TIME_WAIT must not pin a control block");
    assert_eq!(mem.timewait_records, 1);
    assert!(client.is_port_bound(32_768), "port held for the full 2*MSL");

    // The wheel knows the exact expiry: close time + 2*MSL.
    let expiry = now.saturating_add(MSL.saturating_mul(2));
    assert_eq!(client.next_deadline(), Some(expiry));

    // One tick *before* expiry: nothing fires, the record survives.
    client.on_tick(SimTime::from_nanos(expiry.as_nanos() - 1));
    assert_eq!(client.state(c).unwrap(), State::TimeWait);
    assert_eq!(client.mem_stats().timewait_records, 1);

    // At expiry the record dies and the handle reports Closed.
    let fired = client.on_tick(expiry);
    assert!(fired > 0, "TIME_WAIT expiry is a counted timer event");
    assert_eq!(client.state(c).unwrap(), State::Closed);
    assert_eq!(client.mem_stats().timewait_records, 0);
    assert_eq!(client.next_deadline(), None);
}

#[test]
fn expiry_recycles_the_ephemeral_port() {
    let now = SimTime::from_millis(1);
    let (mut client, _server, _c, _, _) = closed_pair(true, &[], now);
    assert!(client.is_port_bound(32_768));
    assert_eq!(client.pop_released_port(), None, "not before expiry");
    client.on_tick(now.saturating_add(MSL.saturating_mul(2)));
    assert!(!client.is_port_bound(32_768));
    assert_eq!(client.pop_released_port(), Some(32_768));
}

#[test]
fn late_fin_is_reacked_identically_and_restarts_two_msl() {
    let now = SimTime::from_millis(1);
    let (mut client, _server, c, ct, from_server) = closed_pair(true, &[b"data".to_vec()], now);
    let fin = *from_server
        .iter()
        .rev()
        .find(|h| h.flags.fin)
        .expect("server sent a FIN");
    // The client's last wire segment was the final ACK of the handshake
    // walk-down; a retransmitted FIN must reproduce it byte for byte.
    let final_ack = ct.last().expect("client acked the FIN").clone();

    let later = now.saturating_add(MSL); // Inside the 2*MSL window.
    client.on_segment(ip(2), &fin, DemiBuffer::empty(), later);
    let out = take_segments(&mut client);
    assert_eq!(out.len(), 1, "exactly one re-ACK");
    assert_eq!(trace_line(out[0].0, &out[0].1), final_ack);

    // 2*MSL restarted from the late FIN's arrival.
    let new_expiry = later.saturating_add(MSL.saturating_mul(2));
    assert_eq!(client.next_deadline(), Some(new_expiry));
    // The original expiry is now a stale wheel entry: nothing happens.
    client.on_tick(now.saturating_add(MSL.saturating_mul(2)));
    assert_eq!(client.state(c).unwrap(), State::TimeWait);
    client.on_tick(new_expiry);
    assert_eq!(client.state(c).unwrap(), State::Closed);
}

#[test]
fn late_data_is_absorbed_silently() {
    let now = SimTime::from_millis(1);
    let (mut client, _server, c, _, from_server) = closed_pair(true, &[], now);
    // A stray in-window ACK segment (no FIN, no RST) from the old peer.
    let mut stray = *from_server.last().unwrap();
    stray.flags = TcpFlags::ACK;
    client.on_segment(ip(2), &stray, DemiBuffer::from_slice(b"zombie"), now);
    assert!(
        take_segments(&mut client).is_empty(),
        "absorbed, not answered"
    );
    assert_eq!(client.state(c).unwrap(), State::TimeWait);
    assert_eq!(client.mem_stats().timewait_records, 1);
}

#[test]
fn rst_drops_the_record_and_frees_the_port_early() {
    let now = SimTime::from_millis(1);
    let (mut client, _server, c, _, from_server) = closed_pair(true, &[], now);
    let mut rst = *from_server.last().unwrap();
    rst.flags = TcpFlags {
        rst: true,
        ack: true,
        ..TcpFlags::default()
    };
    client.on_segment(ip(2), &rst, DemiBuffer::empty(), now);
    assert!(take_segments(&mut client).is_empty(), "RST gets no reply");
    assert_eq!(client.state(c).unwrap(), State::Closed);
    assert_eq!(client.mem_stats().timewait_records, 0);
    assert_eq!(client.pop_released_port(), Some(32_768));
    // The stale wheel entry at the original expiry is discarded lazily.
    assert_eq!(client.next_deadline(), None);
}

#[test]
fn stale_timewait_handle_still_answers_every_query() {
    let now = SimTime::from_millis(1);
    let (mut client, _server, c, _, _) = closed_pair(true, &[], now);
    // While the record lives, the old handle maps onto it.
    assert_eq!(client.state(c).unwrap(), State::TimeWait);
    assert_eq!(client.remote(c).unwrap(), SocketAddr::new(ip(2), 80));
    assert_eq!(client.local(c).unwrap(), SocketAddr::new(ip(1), 32_768));
    assert_eq!(
        client.send(c, DemiBuffer::from_slice(b"x"), now),
        Err(NetError::Closed)
    );
    assert_eq!(client.recv(c).unwrap(), None);
    assert!(client.at_eof(c));
    assert_eq!(client.close(c, now), Ok(()));
    // After expiry the handle degrades to a plain stale handle.
    client.on_tick(now.saturating_add(MSL.saturating_mul(2)));
    assert_eq!(client.state(c).unwrap(), State::Closed);
    assert_eq!(client.recv(c).unwrap(), None);
}

/// Runs a full randomized close-and-linger scenario and returns the
/// client's complete wire trace: establish, `msgs` echo round trips,
/// active close, a replayed server FIN `fin_delay` into TIME_WAIT, a
/// stray late ACK, and ticks through both the superseded and the real
/// expiry. Everything the client commits to the wire is recorded.
fn client_wire_trace(demote: bool, msgs: &[Vec<u8>], fin_delay: SimTime) -> Vec<String> {
    let now = SimTime::from_millis(1);
    let (mut client, _server, _c, mut trace, from_server) = closed_pair(demote, msgs, now);

    let fin = *from_server
        .iter()
        .rev()
        .find(|h| h.flags.fin)
        .expect("server sent a FIN");
    let replay_at = now.saturating_add(fin_delay);
    client.on_segment(ip(2), &fin, DemiBuffer::empty(), replay_at);
    for (dst, seg) in take_segments(&mut client) {
        trace.push(trace_line(dst, &seg));
    }
    // A stray pure ACK right after: absorbed in both modes.
    let mut stray = fin;
    stray.flags = TcpFlags::ACK;
    client.on_segment(ip(2), &stray, DemiBuffer::empty(), replay_at);
    for (dst, seg) in take_segments(&mut client) {
        trace.push(trace_line(dst, &seg));
    }
    // Tick through the superseded expiry and the restarted one.
    let old_expiry = now.saturating_add(MSL.saturating_mul(2));
    let new_expiry = replay_at.saturating_add(MSL.saturating_mul(2));
    for t in [old_expiry, new_expiry] {
        client.on_tick(t);
        for (dst, seg) in take_segments(&mut client) {
            trace.push(trace_line(dst, &seg));
        }
    }
    assert!(
        !client.is_port_bound(32_768),
        "TIME_WAIT over, port recycled"
    );
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The compact record is *wire-identical* to the full control block
    /// it replaced: for randomized exchanges, close, FIN replay timing,
    /// and stray traffic, the client emits byte-for-byte the same
    /// segments with demotion on and off.
    #[test]
    fn demoted_record_is_wire_identical_to_full_tcb(
        msgs in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 1..200), 0..4),
        fin_delay_us in 1_000u64..19_000,
    ) {
        let fin_delay = SimTime::from_micros(fin_delay_us);
        let demoted = client_wire_trace(true, &msgs, fin_delay);
        let full = client_wire_trace(false, &msgs, fin_delay);
        prop_assert_eq!(demoted, full);
    }
}

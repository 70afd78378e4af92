//! Protocol-machine tests: two control blocks wired back to back.

use std::net::Ipv4Addr;

use super::*;
use crate::tcp::header::TcpHeader;

impl ControlBlock {
    /// Starts a passive open in response to a received SYN: emits a
    /// SYN-ACK and enters `SynReceived`.
    fn accept(
        local: SocketAddr,
        remote: SocketAddr,
        iss: SeqNum,
        syn: &TcpHeader,
        now: SimTime,
        config: TcpConfig,
    ) -> Self {
        let mut cb = Self::blank(local, remote, iss, config);
        cb.state = State::SynReceived;
        cb.irs = syn.seq;
        cb.rcv_nxt = syn.seq + 1;
        if let Some(peer_mss) = syn.mss {
            cb.mss = cb.mss.min(peer_mss as usize);
        }
        cb.snd_wnd = syn.window as usize;
        cb.last_activity = now;
        cb.push_handshake_segment(true, true, now);
        cb
    }

    /// Drains segments queued for transmission into a fresh vector (the
    /// datapath's [`ControlBlock::drain_outbox_into`] reuses a buffer).
    fn take_outbox(&mut self) -> Vec<TcpSegmentOut> {
        match self.q.as_mut() {
            Some(q) => std::mem::take(&mut q.outbox),
            None => Vec::new(),
        }
    }

    /// Queues `data` for transmission: the one-buffer case of
    /// [`ControlBlock::send_all`].
    fn send(&mut self, data: DemiBuffer, now: SimTime) -> Result<(), NetError> {
        self.send_all(std::iter::once(data), now)
    }
}

const CLIENT_ISS: SeqNum = SeqNum(1_000);
const SERVER_ISS: SeqNum = SeqNum(5_000);

fn caddr() -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 40_000)
}

fn saddr() -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 80)
}

fn cfg() -> TcpConfig {
    TcpConfig::default()
}

/// Exchanges outboxes until both machines go quiet. `filter` returns `false`
/// to drop a segment (loss injection); it sees (from_client, header, len).
fn pump_filtered(
    client: &mut ControlBlock,
    server: &mut ControlBlock,
    now: SimTime,
    filter: &mut dyn FnMut(bool, &TcpHeader, usize) -> bool,
) {
    for _ in 0..1_000 {
        let mut quiet = true;
        for seg in client.take_outbox() {
            quiet = false;
            if filter(true, &seg.header, seg.payload.len()) {
                server.on_segment(&seg.header, seg.payload, now);
            }
        }
        for seg in server.take_outbox() {
            quiet = false;
            if filter(false, &seg.header, seg.payload.len()) {
                client.on_segment(&seg.header, seg.payload, now);
            }
        }
        if quiet {
            return;
        }
    }
    panic!("pump did not converge");
}

fn pump(client: &mut ControlBlock, server: &mut ControlBlock, now: SimTime) {
    pump_filtered(client, server, now, &mut |_, _, _| true);
}

/// Performs the three-way handshake and returns established machines.
fn establish(now: SimTime) -> (ControlBlock, ControlBlock) {
    establish_with(now, cfg(), cfg())
}

fn establish_with(now: SimTime, ccfg: TcpConfig, scfg: TcpConfig) -> (ControlBlock, ControlBlock) {
    let mut client = ControlBlock::connect(caddr(), saddr(), CLIENT_ISS, now, ccfg);
    let syn = client.take_outbox().remove(0);
    assert!(syn.header.flags.syn && !syn.header.flags.ack);
    let mut server = ControlBlock::accept(saddr(), caddr(), SERVER_ISS, &syn.header, now, scfg);
    pump(&mut client, &mut server, now);
    assert_eq!(client.state(), State::Established);
    assert_eq!(server.state(), State::Established);
    (client, server)
}

/// Drains everything readable from `cb` into a byte vector.
fn drain(cb: &mut ControlBlock) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some(buf) = cb.recv() {
        out.extend_from_slice(buf.as_slice());
    }
    out
}

#[test]
fn handshake_establishes_both_sides() {
    let (_c, _s) = establish(SimTime::ZERO);
}

#[test]
fn mss_negotiates_to_the_minimum() {
    let small = TcpConfig { mss: 500, ..cfg() };
    let (client, server) = establish_with(SimTime::ZERO, cfg(), small);
    assert_eq!((client.mss, server.mss), (500, 500));
}

#[test]
fn small_message_round_trip() {
    let now = SimTime::ZERO;
    let (mut c, mut s) = establish(now);
    c.send(DemiBuffer::from_slice(b"hello tcp"), now).unwrap();
    pump(&mut c, &mut s, now);
    assert_eq!(drain(&mut s), b"hello tcp");
    s.send(DemiBuffer::from_slice(b"reply"), now).unwrap();
    pump(&mut c, &mut s, now);
    assert_eq!(drain(&mut c), b"reply");
}

#[test]
fn large_send_is_segmented_at_mss() {
    let now = SimTime::ZERO;
    let (mut c, mut s) = establish(now);
    let data: Vec<u8> = (0..5_000u32).map(|i| i as u8).collect();
    c.send(DemiBuffer::from_slice(&data), now).unwrap();
    pump(&mut c, &mut s, now);
    assert_eq!(drain(&mut s), data);
    // 5000 bytes at MSS 1460 → 4 first-transmission data segments.
    assert_eq!(c.stats().segments_sent, 4);
    assert_eq!(s.stats().in_order_segments, 4);
}

#[test]
fn bulk_transfer_respects_flow_control() {
    let mut now = SimTime::ZERO;
    let (mut c, mut s) = establish(now);
    // 1 MiB through a 64 KiB receive window, draining as we go.
    let data: Vec<u8> = (0..1_048_576u32).map(|i| (i * 7) as u8).collect();
    c.send(DemiBuffer::from_slice(&data), now).unwrap();
    let mut received = Vec::new();
    for _ in 0..10_000 {
        pump(&mut c, &mut s, now);
        received.extend_from_slice(&drain(&mut s));
        // Window updates from drain() need delivering.
        pump(&mut c, &mut s, now);
        c.on_tick(now);
        s.on_tick(now);
        now = now.saturating_add(SimTime::from_micros(100));
        if received.len() == data.len() {
            break;
        }
        assert!(
            c.flight_size() <= 65_535,
            "sender exceeded the advertised window"
        );
    }
    assert_eq!(received.len(), data.len());
    assert_eq!(received, data);
}

/// Reading a receive buffer that was more than half full re-advertises
/// the window at once (Linux's `tcp_cleanup_rbuf` rule): 40 full
/// segments left unread shrink the advertisement to 7 135 B, and once
/// they are read the sender's next 40-buffer push leaves whole, every
/// segment full, without waiting on an ACK. An update sent only for a
/// window below one MSS left the sender at the stale 7 135 B: four full
/// segments and a 1 295 B one, then a wait.
#[test]
fn reading_a_half_full_buffer_reopens_the_window_at_once() {
    let now = SimTime::ZERO;
    let (mut c, mut s) = establish(now);
    let push = |c: &mut ControlBlock| {
        let bufs = (0..40).map(|_| DemiBuffer::from_slice(&[0x5A; 1_460]));
        c.send_all(bufs, now).unwrap();
    };
    let mut chunks = Vec::new();
    // Two transfers read as they land grow the congestion window past
    // 40 segments; the third is left unread.
    for read in [true, true, false] {
        push(&mut c);
        pump(&mut c, &mut s, now);
        if read {
            s.recv_all(&mut chunks);
            pump(&mut c, &mut s, now);
        }
    }
    assert!(
        s.last_advertised_window < 8 * 1_460,
        "the advertisement shrank"
    );
    s.recv_all(&mut chunks);
    let read: usize = chunks.iter().map(DemiBuffer::len).sum();
    assert_eq!(read, 3 * 40 * 1_460);
    pump(&mut c, &mut s, now);
    push(&mut c);
    let sizes: Vec<usize> = c
        .take_outbox()
        .iter()
        .map(|seg| seg.payload.len())
        .collect();
    assert_eq!(sizes, [1_460; 40]);
}

#[test]
fn lost_segment_recovers_via_timeout() {
    let mut now = SimTime::from_millis(1);
    let (mut c, mut s) = establish(now);
    let mut dropped = false;
    c.send(DemiBuffer::from_slice(b"important"), now).unwrap();
    pump_filtered(&mut c, &mut s, now, &mut |from_client, _h, len| {
        if from_client && len > 0 && !dropped {
            dropped = true;
            return false; // Drop the first data segment.
        }
        true
    });
    assert!(dropped);
    assert!(drain(&mut s).is_empty());
    // Advance past the RTO and tick.
    now = now.saturating_add(SimTime::from_secs(1));
    c.on_tick(now);
    pump(&mut c, &mut s, now);
    assert_eq!(drain(&mut s), b"important");
    assert!(c.stats().timeouts >= 1);
    assert!(c.stats().retransmissions >= 1);
}

#[test]
fn fast_retransmit_fires_on_three_dup_acks() {
    let now = SimTime::from_millis(1);
    let (mut c, mut s) = establish(now);
    // Send 6 segments; drop only the first, deliver the rest so the
    // receiver generates duplicate ACKs.
    let data: Vec<u8> = (0..6 * 1460u32).map(|i| i as u8).collect();
    let mut data_segments_seen = 0;
    c.send(DemiBuffer::from_slice(&data), now).unwrap();
    pump_filtered(&mut c, &mut s, now, &mut |from_client, _h, len| {
        if from_client && len > 0 {
            data_segments_seen += 1;
            if data_segments_seen == 1 {
                return false; // Drop the first data segment only.
            }
        }
        true
    });
    assert_eq!(c.stats().fast_retransmits, 1, "recovered without a timeout");
    assert_eq!(c.stats().timeouts, 0);
    assert_eq!(drain(&mut s), data);
    assert!(s.stats().out_of_order_segments >= 3);
}

#[test]
fn out_of_order_segments_reassemble() {
    let now = SimTime::ZERO;
    let (mut c, mut s) = establish(now);
    let data: Vec<u8> = (0..3 * 1460u32).map(|i| (i / 3) as u8).collect();
    c.send(DemiBuffer::from_slice(&data), now).unwrap();
    // Collect the client's segments and deliver them in reverse.
    let segs = c.take_outbox();
    assert_eq!(segs.iter().filter(|s| !s.payload.is_empty()).count(), 3);
    for seg in segs.into_iter().rev() {
        s.on_segment(&seg.header, seg.payload, now);
    }
    pump(&mut c, &mut s, now);
    assert_eq!(drain(&mut s), data);
    assert_eq!(s.stats().out_of_order_segments, 2);
}

#[test]
fn duplicate_delivery_does_not_duplicate_stream() {
    let now = SimTime::ZERO;
    let (mut c, mut s) = establish(now);
    c.send(DemiBuffer::from_slice(b"once"), now).unwrap();
    let segs = c.take_outbox();
    for seg in &segs {
        s.on_segment(&seg.header, seg.payload.clone(), now);
    }
    for seg in &segs {
        s.on_segment(&seg.header, seg.payload.clone(), now);
    }
    pump(&mut c, &mut s, now);
    assert_eq!(drain(&mut s), b"once");
}

#[test]
fn orderly_close_walks_the_state_machine() {
    let mut now = SimTime::from_millis(1);
    let (mut c, mut s) = establish(now);
    c.close(now);
    assert_eq!(c.state(), State::FinWait1);
    pump(&mut c, &mut s, now);
    assert_eq!(c.state(), State::FinWait2);
    assert_eq!(s.state(), State::CloseWait);
    assert!(s.at_eof());
    s.close(now);
    assert_eq!(s.state(), State::LastAck);
    pump(&mut c, &mut s, now);
    assert_eq!(s.state(), State::Closed);
    assert_eq!(c.state(), State::TimeWait);
    // 2·MSL later the client is fully closed.
    now = now.saturating_add(MSL.saturating_mul(2));
    c.on_tick(now);
    assert_eq!(c.state(), State::Closed);
    assert!(c.error().is_none());
    assert!(s.error().is_none());
}

#[test]
fn close_flushes_queued_data_before_fin() {
    let now = SimTime::ZERO;
    let (mut c, mut s) = establish(now);
    c.send(DemiBuffer::from_slice(b"last words"), now).unwrap();
    c.close(now);
    pump(&mut c, &mut s, now);
    assert_eq!(drain(&mut s), b"last words");
    assert!(s.at_eof());
}

#[test]
fn simultaneous_close_reaches_closed_on_both_sides() {
    let mut now = SimTime::from_millis(1);
    let (mut c, mut s) = establish(now);
    c.close(now);
    s.close(now);
    // Exchange the crossing FINs.
    pump(&mut c, &mut s, now);
    assert!(
        matches!(c.state(), State::TimeWait | State::Closed),
        "client: {:?}",
        c.state()
    );
    assert!(
        matches!(s.state(), State::TimeWait | State::Closed),
        "server: {:?}",
        s.state()
    );
    now = now.saturating_add(MSL.saturating_mul(3));
    c.on_tick(now);
    s.on_tick(now);
    assert_eq!(c.state(), State::Closed);
    assert_eq!(s.state(), State::Closed);
}

#[test]
fn abort_resets_the_peer() {
    let now = SimTime::ZERO;
    let (mut c, mut s) = establish(now);
    c.abort();
    assert_eq!(c.state(), State::Closed);
    pump(&mut c, &mut s, now);
    assert_eq!(s.state(), State::Closed);
    assert_eq!(s.error(), Some(&NetError::ConnectionReset));
}

#[test]
fn send_after_close_is_an_error() {
    let now = SimTime::ZERO;
    let (mut c, mut s) = establish(now);
    c.close(now);
    pump(&mut c, &mut s, now);
    assert!(c.send(DemiBuffer::from_slice(b"late"), now).is_err());
}

#[test]
fn syn_timeout_eventually_fails_connect() {
    let mut now = SimTime::from_millis(1);
    let mut c = ControlBlock::connect(caddr(), saddr(), CLIENT_ISS, now, cfg());
    let _ = c.take_outbox(); // SYN vanishes into the void.
    for _ in 0..(cfg().syn_retries + 2) {
        now = now.saturating_add(SimTime::from_secs(5));
        c.on_tick(now);
        let _ = c.take_outbox();
    }
    assert_eq!(c.state(), State::Closed);
    assert_eq!(c.error(), Some(&NetError::Timeout));
}

#[test]
fn lost_syn_ack_is_retransmitted() {
    let mut now = SimTime::from_millis(1);
    let mut c = ControlBlock::connect(caddr(), saddr(), CLIENT_ISS, now, cfg());
    let syn = c.take_outbox().remove(0);
    let mut s = ControlBlock::accept(saddr(), caddr(), SERVER_ISS, &syn.header, now, cfg());
    let _ = s.take_outbox(); // Drop the SYN-ACK.
    now = now.saturating_add(SimTime::from_secs(1));
    s.on_tick(now);
    pump(&mut c, &mut s, now);
    assert_eq!(c.state(), State::Established);
    assert_eq!(s.state(), State::Established);
    assert!(s.stats().retransmissions >= 1);
}

#[test]
fn zero_window_stalls_then_persist_probe_unsticks() {
    let mut now = SimTime::from_millis(1);
    // Tiny receive buffer on the server.
    let scfg = TcpConfig {
        recv_capacity: 2_048,
        ..cfg()
    };
    let (mut c, mut s) = establish_with(now, cfg(), scfg);
    let data: Vec<u8> = (0..8_192u32).map(|i| i as u8).collect();
    c.send(DemiBuffer::from_slice(&data), now).unwrap();
    // Fill the receiver without draining it: the window closes.
    pump(&mut c, &mut s, now);
    assert!(c.send_queue_bytes > 0, "sender must stall");
    // Let persist timers and probes run while the app drains slowly.
    let mut received = Vec::new();
    for _ in 0..50_000 {
        now = now.saturating_add(SimTime::from_micros(200));
        c.on_tick(now);
        s.on_tick(now);
        pump(&mut c, &mut s, now);
        received.extend_from_slice(&drain(&mut s));
        pump(&mut c, &mut s, now);
        if received.len() == data.len() {
            break;
        }
    }
    assert_eq!(received, data);
}

#[test]
fn readable_reports_data_and_eof() {
    let now = SimTime::ZERO;
    let (mut c, mut s) = establish(now);
    assert!(!s.is_readable());
    c.send(DemiBuffer::from_slice(b"x"), now).unwrap();
    pump(&mut c, &mut s, now);
    assert!(s.is_readable());
    let _ = drain(&mut s);
    assert!(!s.is_readable());
    c.close(now);
    pump(&mut c, &mut s, now);
    assert!(s.is_readable(), "EOF counts as readable");
    assert!(s.at_eof());
}

#[test]
fn rtt_estimator_receives_samples_from_transfer() {
    let mut now = SimTime::from_millis(1);
    let (mut c, mut s) = establish(now);
    c.send(DemiBuffer::from_slice(b"ping"), now).unwrap();
    now = now.saturating_add(SimTime::from_micros(50));
    pump(&mut c, &mut s, now);
    // The receiver is sitting on a delayed ACK; fire its timer so the
    // transfer fully quiesces before checking deadline bookkeeping.
    now = now.saturating_add(SimTime::from_micros(100));
    s.on_tick(now);
    pump(&mut c, &mut s, now);
    // Deadline bookkeeping exists only while data is in flight.
    assert_eq!(c.timer_deadlines(), [None; 4]);
    c.send(DemiBuffer::from_slice(b"pong"), now).unwrap();
    assert!(c.timer_deadlines().iter().any(Option::is_some));
}

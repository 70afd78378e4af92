//! Property tests for the protocol machines: random loss, adversarial
//! bytes, and durability round trips.

mod support;

use demi_memory::DemiBuffer;
use demikernel::libos::LibOs;
use demikernel::runtime::Runtime;
use demikernel::types::Sga;
use net_stack::tcp::{SeqNum, State, TcpConfig, TcpFlags, TcpHeader, TcpPeer, TcpSegmentOut};
use net_stack::types::SocketAddr;
use proptest::prelude::*;
use sim_fabric::{SimRng, SimTime};
use spdk_sim::nvme::{NvmeConfig, NvmeDevice};
use std::net::Ipv4Addr;
use support::Repro;

/// Drives two TCP peers over a lossy, zero-delay link until the transfer
/// completes; advances virtual time whenever the world goes quiet so
/// retransmission timers can fire.
fn lossy_transfer(seed: u64, data: &[u8], loss: f64) -> Vec<u8> {
    let config = TcpConfig {
        syn_retries: 30,
        ..TcpConfig::default()
    };
    let mut now = SimTime::from_millis(1);
    let mut rng = SimRng::new(seed);
    let (c_ip, s_ip) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let mut client = TcpPeer::new(c_ip, config);
    let mut server = TcpPeer::new(s_ip, config);
    let listener = server.listen(80, 1).unwrap();
    let conn = client.connect(SocketAddr::new(s_ip, 80), now).unwrap();
    let mut accepted = None;
    let mut wire = Vec::new();
    let mut received: Vec<u8> = Vec::new();
    let mut sent = false;

    for _ in 0..200_000 {
        let mut moved = false;
        client.drain_segments(&mut wire);
        for (_, seg) in wire.drain(..) {
            moved = true;
            if !rng.chance(loss) {
                server.on_segment(c_ip, &seg.header, seg.payload, now);
            }
        }
        server.drain_segments(&mut wire);
        for (_, seg) in wire.drain(..) {
            moved = true;
            if !rng.chance(loss) {
                client.on_segment(s_ip, &seg.header, seg.payload, now);
            }
        }
        accepted = accepted.or_else(|| server.accept(listener).unwrap());
        if let Some(s) = accepted {
            while let Some(chunk) = server.recv(s).unwrap() {
                received.extend_from_slice(chunk.as_slice());
            }
        }
        if client.state(conn) == Ok(State::Established) && !sent {
            client
                .send(conn, DemiBuffer::from_slice(data), now)
                .expect("established");
            sent = true;
        }
        if sent && received.len() == data.len() {
            return received;
        }
        if !moved {
            now = now.saturating_add(SimTime::from_micros(250));
            client.on_tick(now);
            server.on_tick(now);
        }
    }
    panic!(
        "transfer did not complete: {}/{} bytes, client {:?}",
        received.len(),
        data.len(),
        client.state(conn)
    );
}

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Delivers segments between the two peers until the wire is quiet, but
/// for the server's segments `withhold` takes off the wire.
fn shuttle_except(
    client: &mut TcpPeer,
    server: &mut TcpPeer,
    now: SimTime,
    mut withhold: impl FnMut(&TcpSegmentOut) -> bool,
) {
    let mut wire = Vec::new();
    for _ in 0..64 {
        client.drain_segments(&mut wire);
        let mut quiet = wire.is_empty();
        for (_, seg) in wire.drain(..) {
            server.on_segment(CLIENT_IP, &seg.header, seg.payload, now);
        }
        server.drain_segments(&mut wire);
        quiet &= wire.is_empty();
        for (_, seg) in wire.drain(..).filter(|(_, seg)| !withhold(seg)) {
            client.on_segment(SERVER_IP, &seg.header, seg.payload, now);
        }
        if quiet {
            return;
        }
    }
    panic!("wire did not go quiet");
}

fn shuttle(client: &mut TcpPeer, server: &mut TcpPeer, now: SimTime) {
    shuttle_except(client, server, now, |_| false);
}

/// What a hostile segment is aimed at: its 4-tuple's client port and the
/// `(seq, ack)` the server expects on it.
#[derive(Clone, Copy)]
struct Target {
    port: u16,
    seq: u32,
    ack: u32,
}

/// The client's next `(seq, ack)` on a connection, read off the last
/// segment it sent.
fn next_seq(seg: &TcpSegmentOut) -> (u32, u32) {
    let h = &seg.header;
    let len = seg.payload.len() as u32 + h.flags.syn as u32 + h.flags.fin as u32;
    ((h.seq + len).0, h.ack.0)
}

/// `base` nudged a few numbers either way, or anywhere in sequence space.
fn near_or_far(rng: &mut SimRng, base: u32) -> u32 {
    match rng.next_u64() % 4 {
        0 => rng.next_u64() as u32,
        _ => base
            .wrapping_add((rng.next_u64() % 7) as u32)
            .wrapping_sub(3),
    }
}

/// One seeded run of [`hostile_segments_leave_the_peer_whole`].
fn hostile_world(seed: u64, cases: u32) {
    let mut repro = Repro(seed, 0);
    let mut rng = SimRng::new(seed);
    let mut now = SimTime::from_millis(1);
    let mss = TcpConfig::default().mss;
    let mut client = TcpPeer::new(CLIENT_IP, TcpConfig::default());
    let mut server = TcpPeer::new(SERVER_IP, TcpConfig::default());
    let listener = server.listen(80, 4).unwrap();
    let to_server = SocketAddr::new(SERVER_IP, 80);
    let mut wire = Vec::new();

    // Established: an echo's worth of traffic, the client's last segment
    // kept to aim at.
    let a = client.connect(to_server, now).unwrap();
    shuttle(&mut client, &mut server, now);
    let a_server = server.accept(listener).unwrap().expect("handshake done");
    client
        .send(a, DemiBuffer::from_slice(b"ping"), now)
        .unwrap();
    client.drain_segments(&mut wire);
    let (_, last) = wire.pop().expect("the request");
    let (seq, ack) = next_seq(&last);
    server.on_segment(CLIENT_IP, &last.header, last.payload, now);
    let established = Target {
        port: client.local(a).unwrap().port,
        seq,
        ack,
    };
    shuttle(&mut client, &mut server, now);
    assert_eq!(server.recv(a_server).unwrap().unwrap().as_slice(), b"ping");
    // The delayed ACK goes out: nothing of the client's stays in flight to
    // be retransmitted forever should the forgeries desynchronize the
    // server's end.
    now = now.saturating_add(SimTime::from_millis(1));
    server.on_tick(now);
    shuttle(&mut client, &mut server, now);

    // A compact TIME_WAIT record: the server closes first.
    let b = client.connect(to_server, now).unwrap();
    shuttle(&mut client, &mut server, now);
    let b_server = server.accept(listener).unwrap().expect("handshake done");
    server.close(b_server, now).unwrap();
    shuttle(&mut client, &mut server, now);
    client.close(b, now).unwrap();
    client.drain_segments(&mut wire);
    let (_, fin) = wire.pop().expect("the client's FIN");
    let (seq, ack) = next_seq(&fin);
    server.on_segment(CLIENT_IP, &fin.header, fin.payload, now);
    let timewait = Target {
        port: client.local(b).unwrap().port,
        seq,
        ack,
    };
    shuttle(&mut client, &mut server, now);
    assert_eq!(server.state(b_server), Ok(State::TimeWait));

    // A SYN-table entry from a client port the client peer does not use
    // (below its ephemeral range, like every forged port here). Until the
    // forgeries stop, this ghost port answers nothing — the client would
    // reset what the forgeries build on it — and every SYN-ACK the server
    // sends it is aimed at: the handshakes the forgeries can complete.
    const GHOST: u16 = 5_555;
    let aim = |seg: &TcpSegmentOut| Target {
        port: GHOST,
        seq: seg.header.ack.0,
        ack: (seg.header.seq + 1).0,
    };
    let syn = TcpHeader {
        src_port: GHOST,
        dst_port: 80,
        seq: SeqNum(77),
        ack: SeqNum(0),
        flags: TcpFlags::SYN,
        window: 65_535,
        mss: Some(1460),
    };
    server.on_segment(CLIENT_IP, &syn, DemiBuffer::empty(), now);
    server.drain_segments(&mut wire);
    let mut half_open = aim(&wire.pop().expect("the SYN-ACK").1);
    let baseline = server.conn_count();

    for case in 0..cases {
        repro.1 = case;
        let target = match rng.next_u64() % 4 {
            0 => established,
            1 => timewait,
            2 => half_open,
            // Matches nothing, unless the flags make it a SYN to 80.
            _ => Target {
                port: 1_000 + (rng.next_u64() % 1_000) as u16,
                seq: rng.next_u64() as u32,
                ack: rng.next_u64() as u32,
            },
        };
        let flags = TcpFlags {
            syn: rng.chance(0.25),
            fin: rng.chance(0.25),
            rst: rng.chance(1.0 / 6.0),
            ack: rng.chance(0.5),
        };
        let header = TcpHeader {
            src_port: target.port,
            dst_port: [80, 80, 80, 81, rng.next_u64() as u16][(rng.next_u64() % 5) as usize],
            seq: SeqNum(near_or_far(&mut rng, target.seq)),
            ack: SeqNum(near_or_far(&mut rng, target.ack)),
            flags,
            window: rng.next_u64() as u16,
            mss: [None, Some(0), Some(1), Some(536), Some(u16::MAX)][(rng.next_u64() % 5) as usize],
        };
        let len = (rng.next_u64() % (2 * mss as u64 + 1)) as usize;
        let payload = DemiBuffer::from_slice(&vec![b'h'; len]);
        server.on_segment(CLIENT_IP, &header, payload, now);
        if rng.chance(0.5) {
            now = now.saturating_add(SimTime::from_micros(rng.next_u64() % 3_000));
            server.on_tick(now);
            client.on_tick(now);
        }
        shuttle_except(&mut client, &mut server, now, |seg| {
            let h = &seg.header;
            if h.dst_port == GHOST && h.flags.syn {
                half_open = aim(seg);
            }
            h.dst_port == GHOST
        });
    }

    // Whatever the forgeries completed, the application accepts, writes
    // to and closes; the ghost port answers again, and the client resets
    // each.
    repro.1 = cases;
    while let Some(forged) = server.accept(listener).unwrap() {
        let _ = server.send(forged, DemiBuffer::from_slice(b"x"), now);
        server.close(forged, now).unwrap();
    }
    shuttle(&mut client, &mut server, now);

    // A fresh connection still echoes and closes cleanly.
    let d = client.connect(to_server, now).unwrap();
    shuttle(&mut client, &mut server, now);
    assert_eq!(client.state(d), Ok(State::Established));
    let d_server = server.accept(listener).unwrap().expect("handshake done");
    client
        .send(d, DemiBuffer::from_slice(b"echo"), now)
        .unwrap();
    shuttle(&mut client, &mut server, now);
    let request = server.recv(d_server).unwrap().expect("the request");
    server.send(d_server, request, now).unwrap();
    shuttle(&mut client, &mut server, now);
    assert_eq!(client.recv(d).unwrap().unwrap().as_slice(), b"echo");
    client.close(d, now).unwrap();
    shuttle(&mut client, &mut server, now);
    assert!(server.at_eof(d_server));
    server.close(d_server, now).unwrap();
    shuttle(&mut client, &mut server, now);

    // Every timer runs out; what the forgeries built is gone.
    for _ in 0..10_000 {
        let next = [server.next_deadline(), client.next_deadline()];
        let Some(t) = next.into_iter().flatten().min() else {
            assert_eq!(client.state(d), Ok(State::Closed));
            assert_eq!(server.conn_count(), baseline, "control blocks leaked");
            return;
        };
        now = t;
        server.on_tick(now);
        client.on_tick(now);
        shuttle(&mut client, &mut server, now);
    }
    panic!("timers never went quiet");
}

/// Hostile segments at a TCP peer, seeded, at every demux outcome: an
/// established connection, a compact TIME_WAIT record, a SYN-table entry
/// and nothing at all. Flags (SYN/FIN/RST/ACK), sequence and
/// acknowledgment numbers near and far from what the server expects, the
/// MSS option (zero included), the destination port and the payload
/// length (0 to 2×MSS) are mutated. Oracles: nothing panics or spins;
/// afterwards the pair completes a clean echo and close; once the
/// application has closed whatever the forgeries completed, the server
/// holds exactly the control blocks it held before them. A small seed
/// budget in debug, a large one in release; a failure prints
/// `seed=… case=…`.
#[test]
fn hostile_segments_leave_the_peer_whole() {
    const SEEDS: u64 = if cfg!(debug_assertions) { 16 } else { 400 };
    for seed in 0..SEEDS {
        hostile_world(seed, 200);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// TCP delivers any payload intact through random loss.
    #[test]
    fn tcp_survives_random_loss(
        seed in any::<u64>(),
        len in 1usize..30_000,
        loss_pct in 0u32..20,
    ) {
        let data: Vec<u8> = (0..len).map(|i| ((i * 31 + seed as usize) % 251) as u8).collect();
        let received = lossy_transfer(seed, &data, loss_pct as f64 / 100.0);
        prop_assert_eq!(received, data);
    }

    /// Wire parsers never panic on arbitrary bytes (they reject or accept,
    /// but they must not crash the stack).
    #[test]
    fn parsers_are_total(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let ip_a = Ipv4Addr::new(10, 0, 0, 1);
        let ip_b = Ipv4Addr::new(10, 0, 0, 2);
        let _ = net_stack::eth::EthHeader::parse(&bytes);
        let _ = net_stack::ipv4::Ipv4Header::parse(&bytes);
        let _ = net_stack::arp::ArpPacket::parse(&bytes);
        let _ = net_stack::icmp::IcmpEcho::parse(&demi_memory::DemiBuffer::from_slice(&bytes));
        let _ = net_stack::udp::UdpHeader::parse(ip_a, ip_b, &bytes);
        let _ = net_stack::tcp::TcpHeader::parse(ip_a, ip_b, &bytes);
        let _ = rdma_sim::wire::WireMsg::parse(&bytes);
    }

    /// RDMA wire messages round-trip through serialization.
    #[test]
    fn rdma_wire_round_trips(
        dst_qp in any::<u32>(),
        psn in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        use rdma_sim::wire::WireMsg;
        let msg = WireMsg::Send { dst_qp, psn, payload };
        prop_assert_eq!(WireMsg::parse(&msg.serialize()), Some(msg));
    }

    /// catfs persists arbitrary record sequences across "reboot" recovery.
    #[test]
    fn catfs_recovery_round_trips(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..2000), 1..12),
    ) {
        let rt = Runtime::new();
        let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
        {
            let fs = demikernel::libos::catfs::Catfs::new(&rt, device.clone());
            let qd = fs.create("prop").unwrap();
            for r in &records {
                fs.blocking_push(qd, &Sga::from_slice(r)).unwrap();
            }
        }
        let rt2 = Runtime::with_clock(rt.clock().clone());
        let fs2 = demikernel::libos::catfs::Catfs::new(&rt2, device);
        let qd = fs2.recover("prop").unwrap();
        for r in &records {
            let (_, sga) = fs2.blocking_pop(qd).unwrap().expect_pop();
            prop_assert_eq!(&sga.to_vec(), r);
        }
    }
}

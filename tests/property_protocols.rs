//! Property tests for the protocol machines: random loss, adversarial
//! bytes, and durability round trips.

use demi_memory::DemiBuffer;
use demikernel::libos::LibOs;
use demikernel::runtime::Runtime;
use demikernel::types::Sga;
use net_stack::tcp::{State, TcpConfig, TcpPeer};
use net_stack::types::SocketAddr;
use proptest::prelude::*;
use sim_fabric::{SimRng, SimTime};
use spdk_sim::nvme::{NvmeConfig, NvmeDevice};
use std::net::Ipv4Addr;

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

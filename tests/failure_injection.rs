//! Failure injection across the full Demikernel stack: loss, partitions,
//! refused connections, timeouts, and hostile remote input.

mod support;

use demi_memory::DemiBuffer;
use demikernel::libos::{LibOs, SocketKind};
use demikernel::testing::{catcorn_pair, catnip_pair, host_ip, host_mac};
use demikernel::types::{DemiError, OperationResult, Sga};
use dpdk_sim::{DpdkPort, Mbuf, PortConfig};
use net_stack::eth::{EthHeader, EtherType, ETH_HEADER_LEN};
use net_stack::icmp::IcmpEcho;
use net_stack::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use net_stack::stack::PONG_QUEUE_CAP;
use net_stack::types::SocketAddr;
use sim_fabric::{LinkConfig, SimTime};
use support::{tcp_pair, udp_pair};

#[test]
fn catnip_tcp_bulk_transfer_survives_10pct_loss() {
    let (_rt, fabric, client, server) = catnip_pair(401);
    fabric.set_default_link(LinkConfig {
        latency: SimTime::from_micros(2),
        bandwidth_bps: 10_000_000_000,
        loss_probability: 0.10,
    });
    let (cqd, sqd) = tcp_pair(&client, &server, 80);

    // 50 framed messages of 2 KiB through 10% loss: all arrive, intact,
    // in order, as atomic units.
    for i in 0..50u32 {
        let payload: Vec<u8> = (0..2048u32).map(|j| ((i + j) % 251) as u8).collect();
        client
            .blocking_push(cqd, &Sga::from_slice(&payload))
            .unwrap();
        let (_, got) = server.blocking_pop(sqd).unwrap().expect_pop();
        assert_eq!(got.to_vec(), payload, "message {i} corrupted");
    }
}

#[test]
fn catnip_udp_loss_is_visible_to_the_application() {
    // UDP makes no promises: with loss, pops time out — the libOS must
    // not invent data.
    let (_rt, fabric, client, server) = catnip_pair(402);
    let (cqd, sqd, _) = udp_pair(&client, &server);
    // Warm ARP on a clean link first.
    client
        .pushto(
            cqd,
            &Sga::from_slice(b"warm"),
            SocketAddr::new(host_ip(2), 7),
        )
        .unwrap();
    let _ = server.blocking_pop(sqd).unwrap();
    // Now a fully lossy link.
    fabric.set_default_link(LinkConfig {
        latency: SimTime::from_micros(1),
        bandwidth_bps: 0,
        loss_probability: 1.0,
    });
    client
        .pushto(
            cqd,
            &Sga::from_slice(b"void"),
            SocketAddr::new(host_ip(2), 7),
        )
        .unwrap();
    let qt = server.pop(sqd).unwrap();
    assert_eq!(
        server.wait(qt, Some(SimTime::from_millis(5))),
        Err(DemiError::Timeout)
    );
}

#[test]
fn catcorn_partition_fails_pushes_with_rdma_error() {
    let (_rt, fabric, client, server) = catcorn_pair(403);
    let (cqd, _sqd) = tcp_pair(&client, &server, 18515);

    fabric.partition(host_mac(1), host_mac(2));
    let qt = client
        .push(cqd, &Sga::from_slice(b"into the void"))
        .unwrap();
    let result = client.wait(qt, None).unwrap();
    assert!(
        matches!(result, OperationResult::Failed(DemiError::Rdma(_))),
        "expected transport failure, got {result:?}"
    );
}

#[test]
fn catnip_connect_to_partitioned_host_times_out() {
    let (_rt, fabric, client, _server) = catnip_pair(404);
    fabric.partition(host_mac(1), host_mac(2));
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let qt = client
        .connect(cqd, SocketAddr::new(host_ip(2), 80))
        .unwrap();
    let result = client.wait(qt, None).unwrap();
    assert!(
        result.is_failed(),
        "connect through a partition: {result:?}"
    );
}

#[test]
fn catnip_tcp_survives_a_transient_partition() {
    let (_rt, fabric, client, server) = catnip_pair(405);
    let (cqd, sqd) = tcp_pair(&client, &server, 80);

    // Send during a partition; heal it; retransmission completes delivery.
    fabric.partition(host_mac(1), host_mac(2));
    let push = client.push(cqd, &Sga::from_slice(b"persistent")).unwrap();
    client.wait(push, None).unwrap(); // Push buffers locally.
    let pop = server.pop(sqd).unwrap();
    assert_eq!(
        server.wait(pop, Some(SimTime::from_millis(2))),
        Err(DemiError::Timeout),
        "nothing can arrive during the partition"
    );
    fabric.heal(host_mac(1), host_mac(2));
    let (_, sga) = server.wait(pop, None).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), b"persistent");
}

#[test]
fn rdma_rnr_is_invisible_thanks_to_libos_buffering() {
    // The raw device fails when receivers under-provision (E5 shows it);
    // through catcorn the same workload succeeds because the libOS manages
    // the ring. Burst twice the ring size with the receiver idle.
    let (_rt, _fabric, client, server) = catcorn_pair(406);
    let (cqd, sqd) = tcp_pair(&client, &server, 18515);

    let tokens: Vec<_> = (0..64u32)
        .map(|i| {
            client
                .push(cqd, &Sga::from_slice(&i.to_be_bytes()))
                .unwrap()
        })
        .collect();
    for i in 0..64u32 {
        let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
        assert_eq!(sga.to_vec(), i.to_be_bytes());
    }
    for r in client.wait_all(&tokens, None).unwrap() {
        assert!(matches!(r, OperationResult::Push));
    }
    assert_eq!(server.device().stats().rnr_nacks_sent, 0);
}

/// Any host on the fabric can send ICMP echo *replies* nobody asked for.
/// The victim's pong queue must stay bounded (drop-newest, counted), and
/// a legitimate ping afterwards must still round-trip.
#[test]
fn unsolicited_echo_reply_flood_cannot_grow_the_pong_queue() {
    let (rt, fabric, victim, server) = catnip_pair(407);
    let attacker = DpdkPort::new(&fabric, PortConfig::basic(host_mac(9)));
    let stack = victim.stack();

    let flood = 10 * PONG_QUEUE_CAP;
    for seq in 0..flood {
        let echo = IcmpEcho {
            is_request: false,
            ident: 0xBAD,
            seq: seq as u16,
            payload: DemiBuffer::empty(),
        };
        let mut frame = echo.into_packet(IPV4_HEADER_LEN + ETH_HEADER_LEN);
        let ip = Ipv4Header {
            src: host_ip(9),
            dst: host_ip(1),
            protocol: IpProtocol::Icmp,
            payload_len: frame.len(),
        };
        ip.prepend_onto(&mut frame).unwrap();
        let eth = EthHeader {
            dst: host_mac(1),
            src: host_mac(9),
            ethertype: EtherType::Ipv4,
        };
        eth.prepend_onto(&mut frame).unwrap();
        attacker.tx_burst(&[Mbuf::from_data(frame)]);
        // Deliver and process each reply before the next, so the device
        // RX ring never overflows: every drop is the pong queue's.
        rt.settle(SimTime::from_micros(10));
    }

    let stats = stack.stats();
    assert_eq!(
        stats.rx_frames, flood as u64,
        "every reply reached the stack"
    );
    assert_eq!(stats.pongs_dropped, (flood - PONG_QUEUE_CAP) as u64);
    let mut queued = 0;
    while let Some((from, ident, seq)) = stack.recv_pong() {
        // Drop-newest: the survivors are the first replies that arrived.
        assert_eq!((from, ident, seq), (host_ip(9), 0xBAD, queued as u16));
        queued += 1;
    }
    assert_eq!(queued, PONG_QUEUE_CAP);

    stack.ping(host_ip(2), 7, 1);
    rt.settle(SimTime::from_millis(1));
    assert_eq!(stack.recv_pong(), Some((host_ip(2), 7, 1)));
    assert_eq!(server.stack().stats().icmp_replies, 1);
    assert_eq!(stack.stats().pongs_dropped, (flood - PONG_QUEUE_CAP) as u64);
}

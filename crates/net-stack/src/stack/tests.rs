//! End-to-end stack tests: two hosts on a simulated fabric.

use std::net::Ipv4Addr;

use dpdk_sim::{DpdkPort, PortConfig};
use sim_fabric::{Fabric, LinkConfig, MacAddress, SimTime};

use super::*;
use crate::tcp::State;

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

fn host(fabric: &Fabric, last: u8) -> NetworkStack {
    let port = DpdkPort::new(fabric, PortConfig::basic(MacAddress::from_last_octet(last)));
    NetworkStack::new(port, fabric.clock(), StackConfig::new(ip(last)))
}

/// A two-host world with a 1µs, lossless link.
fn world() -> (Fabric, NetworkStack, NetworkStack) {
    let fabric = Fabric::new(1234);
    let a = host(&fabric, 1);
    let b = host(&fabric, 2);
    (fabric, a, b)
}

/// Runs the world until nothing is in flight and no timer is pending, or
/// `until` returns true. Panics if the simulation wedges.
fn settle(fabric: &Fabric, stacks: &[&NetworkStack], mut until: impl FnMut() -> bool) {
    for _ in 0..100_000 {
        for s in stacks {
            s.poll();
        }
        if until() {
            return;
        }
        if fabric.advance_to_next_event() {
            continue;
        }
        // Nothing in flight: advance to the earliest protocol deadline.
        let deadline = stacks.iter().filter_map(|s| s.next_deadline()).min();
        match deadline {
            Some(t) => fabric.clock().advance_to(t),
            None => return, // Fully quiescent.
        }
    }
    panic!("simulation did not settle");
}

#[test]
fn arp_resolves_and_ping_round_trips() {
    let (fabric, a, b) = world();
    a.ping(ip(2), 7, 1);
    settle(&fabric, &[&a, &b], || a.recv_pong().is_some());
    assert!(a.stats().arp_requests >= 1);
    assert_eq!(b.stats().icmp_replies, 1);
    // Second ping needs no new ARP resolution.
    let requests_before = a.stats().arp_requests;
    a.ping(ip(2), 7, 2);
    settle(&fabric, &[&a, &b], || a.recv_pong().is_some());
    assert_eq!(a.stats().arp_requests, requests_before);
}

#[test]
fn udp_datagram_exchange_preserves_boundaries() {
    let (fabric, a, b) = world();
    a.udp_bind(1000).unwrap();
    b.udp_bind(2000).unwrap();
    a.udp_sendto(1000, SocketAddr::new(ip(2), 2000), b"first")
        .unwrap();
    a.udp_sendto(1000, SocketAddr::new(ip(2), 2000), b"second")
        .unwrap();
    settle(&fabric, &[&a, &b], || b.udp_pending(2000) == 2);
    let (from, d1) = b.udp_recv_from(2000).unwrap();
    assert_eq!(from, SocketAddr::new(ip(1), 1000));
    assert_eq!(d1.as_slice(), b"first");
    let (_, d2) = b.udp_recv_from(2000).unwrap();
    assert_eq!(d2.as_slice(), b"second");
    // Reply flows back.
    b.udp_sendto(2000, from, b"pong").unwrap();
    settle(&fabric, &[&a, &b], || a.udp_pending(1000) == 1);
    assert_eq!(a.udp_recv_from(1000).unwrap().1.as_slice(), b"pong");
}

#[test]
fn udp_to_unreachable_host_drops_after_arp_retries() {
    let (fabric, a, b) = world();
    a.udp_bind(1000).unwrap();
    a.udp_sendto(1000, SocketAddr::new(ip(99), 2000), b"void")
        .unwrap();
    settle(&fabric, &[&a, &b], || a.stats().unreachable_drops > 0);
    assert_eq!(a.stats().unreachable_drops, 1);
    assert_eq!(a.stats().arp_requests as u32, 3, "initial + retries");
}

#[test]
fn oversized_udp_payload_is_rejected() {
    let (_fabric, a, _b) = world();
    a.udp_bind(1000).unwrap();
    let big = vec![0u8; 2000];
    assert!(matches!(
        a.udp_sendto(1000, SocketAddr::new(ip(2), 2000), &big),
        Err(NetError::MessageTooLong { .. })
    ));
}

#[test]
fn udp_send_from_unbound_port_is_rejected() {
    let (_fabric, a, _b) = world();
    assert_eq!(
        a.udp_sendto(1000, SocketAddr::new(ip(2), 2000), b"x"),
        Err(NetError::BadHandle)
    );
}

#[test]
fn tcp_connect_exchange_close_over_fabric() {
    let (fabric, a, b) = world();
    let lid = b.tcp_listen(80, 16).unwrap();
    let conn = a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap();
    settle(&fabric, &[&a, &b], || {
        a.tcp_state(conn) == Ok(State::Established)
    });

    let mut server_conn = None;
    settle(&fabric, &[&a, &b], || {
        server_conn = b.tcp_accept(lid).unwrap();
        server_conn.is_some()
    });
    let sconn = server_conn.unwrap();

    a.tcp_send(conn, demi_memory::DemiBuffer::from_slice(b"request"))
        .unwrap();
    settle(&fabric, &[&a, &b], || b.tcp_readable(sconn));
    assert_eq!(b.tcp_recv(sconn).unwrap().unwrap().as_slice(), b"request");

    b.tcp_send(sconn, demi_memory::DemiBuffer::from_slice(b"response"))
        .unwrap();
    settle(&fabric, &[&a, &b], || a.tcp_readable(conn));
    assert_eq!(a.tcp_recv(conn).unwrap().unwrap().as_slice(), b"response");

    a.tcp_close(conn).unwrap();
    settle(&fabric, &[&a, &b], || b.tcp_eof(sconn));
    b.tcp_close(sconn).unwrap();
    settle(&fabric, &[&a, &b], || {
        a.tcp_state(conn) == Ok(State::Closed) && b.tcp_state(sconn) == Ok(State::Closed)
    });
}

#[test]
fn tcp_bulk_transfer_over_lossy_link_is_reliable() {
    let (fabric, a, b) = world();
    // 5% loss both ways.
    fabric.set_default_link(LinkConfig {
        latency: SimTime::from_micros(1),
        bandwidth_bps: 10_000_000_000,
        loss_probability: 0.05,
    });
    let lid = b.tcp_listen(80, 16).unwrap();
    let conn = a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap();
    settle(&fabric, &[&a, &b], || {
        a.tcp_state(conn) == Ok(State::Established)
    });
    let mut sconn = None;
    settle(&fabric, &[&a, &b], || {
        sconn = b.tcp_accept(lid).unwrap();
        sconn.is_some()
    });
    let sconn = sconn.unwrap();

    let data: Vec<u8> = (0..262_144u32).map(|i| (i % 251) as u8).collect();
    a.tcp_send(conn, demi_memory::DemiBuffer::from_slice(&data))
        .unwrap();

    let mut received: Vec<u8> = Vec::new();
    settle(&fabric, &[&a, &b], || {
        while let Ok(Some(chunk)) = b.tcp_recv(sconn) {
            received.extend_from_slice(chunk.as_slice());
        }
        received.len() == data.len()
    });
    assert_eq!(received, data, "stream corrupted under loss");
    let stats = a.tcp_conn_stats(conn).unwrap();
    assert!(
        stats.retransmissions > 0,
        "a 5% lossy link must force retransmissions"
    );
}

#[test]
fn tcp_connect_to_dead_port_is_refused() {
    let (fabric, a, b) = world();
    let conn = a.tcp_connect(SocketAddr::new(ip(2), 4444)).unwrap();
    settle(&fabric, &[&a, &b], || {
        a.tcp_state(conn) == Ok(State::Closed)
    });
    assert_eq!(a.tcp_error(conn), Some(NetError::ConnectionRefused));
}

#[test]
fn zero_copy_payloads_share_device_storage() {
    let (fabric, a, b) = world();
    a.udp_bind(1000).unwrap();
    b.udp_bind(2000).unwrap();
    a.udp_sendto(1000, SocketAddr::new(ip(2), 2000), b"zc")
        .unwrap();
    settle(&fabric, &[&a, &b], || b.udp_pending(2000) == 1);
    let (_, payload) = b.udp_recv_from(2000).unwrap();
    // The payload view shares storage with the device mbuf (handle > 1
    // would mean the mbuf is still alive; at minimum, it is a view, not an
    // owned copy of just the payload bytes).
    assert_eq!(payload.as_slice(), b"zc");
    assert!(
        payload.capacity() > payload.len(),
        "view into a larger frame"
    );
}

/// One shard per RX queue, always: a 4-queue port takes 4 stacks — the
/// sole-shard constructor refuses it — and a stack's poll pass drains its
/// own queue and no other.
#[test]
fn four_queue_port_takes_four_stacks_each_polling_only_its_own_queue() {
    let fabric = Fabric::new(99);
    let a = host(&fabric, 1);
    let b_port = DpdkPort::new(
        &fabric,
        PortConfig {
            num_rx_queues: 4,
            ..PortConfig::basic(MacAddress::from_last_octet(2))
        },
    );
    let ports = Arc::new(PortAllocator::new());
    let b: Vec<NetworkStack> = crate::mesh(4, 64)
        .into_iter()
        .map(|rings| {
            let ports = Arc::clone(&ports);
            let links = HostLinks { rings, ports };
            NetworkStack::shard_of(
                b_port.clone(),
                fabric.clock(),
                StackConfig::new(ip(2)),
                links,
            )
        })
        .collect();
    let mut all: Vec<&NetworkStack> = b.iter().collect();
    all.push(&a);
    let pending = || b.iter().map(|s| s.udp_pending(7)).sum::<usize>();

    // Warm ARP, then park 32 flows' datagrams in b's rings unpolled.
    b.iter().for_each(|s| s.udp_bind(7).unwrap());
    let dst = SocketAddr::new(ip(2), 7);
    for i in 0..32u16 {
        a.udp_bind(20_000 + i).unwrap();
    }
    a.udp_sendto(20_000, dst, b"warm").unwrap();
    settle(&fabric, &all, || pending() == 1);
    settle(&fabric, &all, || false);
    for i in 0..32u16 {
        a.udp_sendto(20_000 + i, dst, b"x").unwrap();
    }
    settle(&fabric, &[&a], || false);
    let depths =
        |port: &DpdkPort| -> Vec<usize> { port.queue_stats().iter().map(|q| q.depth).collect() };
    let parked = depths(&b_port);
    assert_eq!(parked.iter().sum::<usize>(), 32);
    assert!(parked.iter().all(|&d| d > 0), "RSS reached every queue");

    for (i, stack) in b.iter().enumerate() {
        let before = stack.shard_stats().rx_frames;
        stack.poll();
        assert_eq!(
            stack.shard_stats().rx_frames - before,
            parked[i] as u64,
            "shard {i} drained exactly its own queue"
        );
        let now = depths(&b_port);
        assert_eq!(now[i], 0);
        assert_eq!(now[i + 1..], parked[i + 1..], "later queues untouched");
    }
    assert_eq!(pending(), 33);
}

#[test]
#[should_panic(expected = "a 4-queue port needs one NetworkStack::shard_of per queue")]
fn the_sole_shard_constructor_refuses_a_multi_queue_port() {
    let fabric = Fabric::new(99);
    let nic = PortConfig {
        num_rx_queues: 4,
        ..PortConfig::basic(MacAddress::from_last_octet(1))
    };
    NetworkStack::new(
        DpdkPort::new(&fabric, nic),
        fabric.clock(),
        StackConfig::new(ip(1)),
    );
}

// ----------------------------------------------------------------------
// Device offload programs (E17): the stack as offload planner.
// ----------------------------------------------------------------------

use std::cell::Cell;
use std::rc::Rc;

use dpdk_sim::NicProgram;

use crate::framing::encode_message;

/// A two-host world where host `b` (the server) has a SmartNIC with
/// program slots. Returns the server's port handle too, so tests can
/// read device-side counters the stack never touches.
fn offload_world() -> (Fabric, NetworkStack, NetworkStack, DpdkPort) {
    let fabric = Fabric::new(1234);
    let a = host(&fabric, 1);
    let port = DpdkPort::new(
        &fabric,
        PortConfig::smartnic(MacAddress::from_last_octet(2), 4),
    );
    let b = NetworkStack::new(port.clone(), fabric.clock(), StackConfig::new(ip(2)));
    (fabric, a, b, port)
}

/// Connects `a` to `b:port` and returns (client conn, server conn).
fn tcp_pair(fabric: &Fabric, a: &NetworkStack, b: &NetworkStack, port: u16) -> (ConnId, ConnId) {
    let lid = b.tcp_listen(port, 16).unwrap();
    let conn = a.tcp_connect(SocketAddr::new(ip(2), port)).unwrap();
    settle(fabric, &[a, b], || {
        a.tcp_state(conn) == Ok(State::Established)
    });
    let mut sconn = None;
    settle(fabric, &[a, b], || {
        sconn = b.tcp_accept(lid).unwrap();
        sconn.is_some()
    });
    (conn, sconn.unwrap())
}

/// Drains client-side stream data until `want` bytes have arrived.
fn recv_exactly(
    fabric: &Fabric,
    a: &NetworkStack,
    b: &NetworkStack,
    conn: ConnId,
    want: usize,
) -> Vec<u8> {
    let mut got = Vec::new();
    settle(fabric, &[a, b], || {
        while let Ok(Some(chunk)) = a.tcp_recv(conn) {
            got.extend_from_slice(chunk.as_slice());
        }
        got.len() >= want
    });
    got
}

#[test]
fn echo_offload_serves_on_device_without_host_delivery() {
    let (fabric, a, b, port) = offload_world();
    b.install_echo_offload(7).unwrap();
    let (conn, sconn) = tcp_pair(&fabric, &a, &b, 7);
    // Handshake done and nothing queued: the flow arms on the next pass.
    settle(&fabric, &[&a, &b], || {
        b.offload_stats().unwrap().flows_armed == 1
    });

    let msg = encode_message(b"hello-device");
    a.tcp_send(conn, DemiBuffer::from_slice(&msg)).unwrap();
    let reply = recv_exactly(&fabric, &a, &b, conn, msg.len());
    assert_eq!(reply, msg, "device echoes the full framed message");

    let stats = b.offload_stats().unwrap();
    assert_eq!(stats.served, 1);
    assert!(
        !b.tcp_readable(sconn),
        "served request bytes must never reach the host application"
    );
    assert!(
        port.stats().device_tx_frames >= 1,
        "the reply left through device TX, not a host doorbell"
    );

    // A second round trip proves shadow state stayed coherent.
    let msg2 = encode_message(b"again");
    a.tcp_send(conn, DemiBuffer::from_slice(&msg2)).unwrap();
    let reply2 = recv_exactly(&fabric, &a, &b, conn, msg2.len());
    assert_eq!(reply2, msg2);
    assert_eq!(b.offload_stats().unwrap().served, 2);

    // Close falls the flow back to the host, which owns teardown.
    a.tcp_close(conn).unwrap();
    settle(&fabric, &[&a, &b], || b.tcp_eof(sconn));
    b.tcp_close(sconn).unwrap();
    settle(&fabric, &[&a, &b], || {
        a.tcp_state(conn) == Ok(State::Closed) && b.tcp_state(sconn) == Ok(State::Closed)
    });
    assert!(b.offload_stats().unwrap().fallbacks >= 1);
}

/// The device and the host agree on what a valid segment is: a request
/// whose payload took a bit flip on the wire (a `Map` slot ahead of the
/// engine plays the corrupting link) is not served, absorbed or answered
/// by the device — the host parser drops it and counts it — and the
/// client's clean retransmission is then served on the device.
#[test]
fn corrupted_request_reaches_the_host_parser_not_the_device_service() {
    let (fabric, a, b, port) = offload_world();
    let corrupt_next = Rc::new(Cell::new(false));
    let flip = Rc::clone(&corrupt_next);
    port.install_program(NicProgram::Map {
        transform: Rc::new(move |frame: &mut [u8]| {
            if flip.replace(false) {
                *frame.last_mut().unwrap() ^= 0x01;
            }
        }),
        cycles_per_frame: 0,
    })
    .unwrap();
    b.install_echo_offload(7).unwrap();
    let (conn, sconn) = tcp_pair(&fabric, &a, &b, 7);
    settle(&fabric, &[&a, &b], || {
        b.offload_stats().unwrap().flows_armed == 1
    });

    let msg = encode_message(b"hello-device");
    let malformed = b.stats().malformed;
    corrupt_next.set(true);
    a.tcp_send(conn, DemiBuffer::from_slice(&msg)).unwrap();
    settle(&fabric, &[&a, &b], || b.stats().malformed > malformed);
    assert_eq!(b.stats().malformed, malformed + 1, "the host counted it");
    let device = b.offload_stats().unwrap();
    assert_eq!((device.served, device.fallbacks), (0, 0));
    assert_eq!(device.flows_armed, 1, "the flow is still the device's");
    assert_eq!(port.stats().device_tx_frames, 0, "nothing was answered");

    // The retransmission timer resends the same bytes, clean this time.
    let (host_rx, served) = (b.stats().rx_frames, port.smartnic_stats().frames_served);
    assert_eq!(recv_exactly(&fabric, &a, &b, conn, msg.len()), msg);
    assert_eq!(port.smartnic_stats().frames_served, served + 1);
    assert_eq!(b.stats().rx_frames, host_rx, "0 host RX frames");
    assert!(!b.tcp_readable(sconn));
}

#[test]
fn kv_offload_hits_on_device_and_invalidates_on_set() {
    let (fabric, a, b, _port) = offload_world();
    b.install_kv_offload(7, 4096).unwrap();
    assert!(b.offload_cache_insert(b"k", b"vee"));
    let (conn, sconn) = tcp_pair(&fabric, &a, &b, 7);
    settle(&fabric, &[&a, &b], || {
        b.offload_stats().unwrap().flows_armed == 1
    });

    // GET hit: answered on the device.
    a.tcp_send(conn, DemiBuffer::from_slice(&encode_message(b"Gk")))
        .unwrap();
    let want = encode_message(b"Vvee");
    let reply = recv_exactly(&fabric, &a, &b, conn, want.len());
    assert_eq!(reply, want);
    assert_eq!(b.offload_stats().unwrap().kv_hits, 1);
    assert!(!b.tcp_readable(sconn), "hit never crossed to the host");

    // SET: falls back; the host application serves it and the device
    // cache drops the key (write-through invalidation).
    a.tcp_send(conn, DemiBuffer::from_slice(&encode_message(b"Sk=new")))
        .unwrap();
    let mut request = Vec::new();
    settle(&fabric, &[&a, &b], || {
        while let Ok(Some(chunk)) = b.tcp_recv(sconn) {
            request.extend_from_slice(chunk.as_slice());
        }
        request.len() >= encode_message(b"Sk=new").len()
    });
    assert_eq!(request, encode_message(b"Sk=new"), "flushed bytes intact");
    assert!(b.offload_stats().unwrap().kv_invalidations >= 1);
    b.tcp_send(sconn, DemiBuffer::from_slice(&encode_message(b"O")))
        .unwrap();
    let ok = encode_message(b"O");
    assert_eq!(recv_exactly(&fabric, &a, &b, conn, ok.len()), ok);

    // The flow re-arms once quiescent; the invalidated key now misses on
    // the device and the host (with the fresh value) serves it.
    settle(&fabric, &[&a, &b], || {
        b.offload_stats().unwrap().flows_armed == 1
    });
    a.tcp_send(conn, DemiBuffer::from_slice(&encode_message(b"Gk")))
        .unwrap();
    let mut request2 = Vec::new();
    settle(&fabric, &[&a, &b], || {
        while let Ok(Some(chunk)) = b.tcp_recv(sconn) {
            request2.extend_from_slice(chunk.as_slice());
        }
        request2.len() >= encode_message(b"Gk").len()
    });
    assert!(b.offload_stats().unwrap().kv_misses >= 1);
    b.tcp_send(sconn, DemiBuffer::from_slice(&encode_message(b"Vnew")))
        .unwrap();
    let fresh = encode_message(b"Vnew");
    assert_eq!(recv_exactly(&fabric, &a, &b, conn, fresh.len()), fresh);
}

#[test]
fn uninstall_mid_message_flushes_absorbed_bytes_to_host() {
    let (fabric, a, b, port) = offload_world();
    b.install_echo_offload(7).unwrap();
    let (conn, sconn) = tcp_pair(&fabric, &a, &b, 7);
    settle(&fabric, &[&a, &b], || {
        b.offload_stats().unwrap().flows_armed == 1
    });

    // First half of a framed message: the device absorbs it (incomplete,
    // unACKed) while it waits for the rest.
    let msg = encode_message(b"split-across-uninstall");
    a.tcp_send(conn, DemiBuffer::from_slice(&msg[..5])).unwrap();
    settle(&fabric, &[&a, &b], || {
        port.stats().device_absorbed_frames >= 1
    });
    assert!(!b.tcp_readable(sconn));

    // Uninstall mid-message: the absorbed prefix must reappear on the
    // host path, acknowledged and delivered in order.
    b.uninstall_tcp_offload();
    assert!(b.offload_stats().is_none());
    a.tcp_send(conn, DemiBuffer::from_slice(&msg[5..])).unwrap();
    let mut request = Vec::new();
    settle(&fabric, &[&a, &b], || {
        while let Ok(Some(chunk)) = b.tcp_recv(sconn) {
            request.extend_from_slice(chunk.as_slice());
        }
        request.len() >= msg.len()
    });
    assert_eq!(request, msg, "no byte lost or reordered across uninstall");

    // The host is a plain TCP server again.
    b.tcp_send(sconn, DemiBuffer::from_slice(&msg)).unwrap();
    assert_eq!(recv_exactly(&fabric, &a, &b, conn, msg.len()), msg);
}

//! Device-level tests: two RDMA NICs on a fabric.

use sim_fabric::{Endpoint, Fabric, LinkConfig, MacAddress, SimRng, SimTime};

use super::*;

impl RdmaDevice {
    /// The device's hardware address.
    fn mac(&self) -> MacAddress {
        self.inner.borrow().hca.endpoint.mac()
    }
}

fn world() -> (Fabric, RdmaDevice, RdmaDevice) {
    let fabric = Fabric::new(99);
    let a = RdmaDevice::new(&fabric, MacAddress::from_last_octet(1));
    let b = RdmaDevice::new(&fabric, MacAddress::from_last_octet(2));
    (fabric, a, b)
}

/// Runs devices and fabric until `until` holds or the world wedges.
fn settle(fabric: &Fabric, devs: &[&RdmaDevice], mut until: impl FnMut() -> bool) {
    for _ in 0..100_000 {
        for d in devs {
            d.poll(fabric.clock().now());
        }
        if until() {
            return;
        }
        if fabric.advance_to_next_event() {
            continue;
        }
        match devs.iter().filter_map(|d| d.next_deadline()).min() {
            Some(t) => fabric.clock().advance_to(t),
            None => return,
        }
    }
    panic!("rdma world did not settle");
}

/// Sets up a connected QP pair (client on `a`, server on `b`).
fn connected(
    fabric: &Fabric,
    a: &RdmaDevice,
    b: &RdmaDevice,
) -> (PdId, CqId, QpId, PdId, CqId, QpId) {
    let apd = a.alloc_pd();
    let acq = a.create_cq();
    let aqp = a.create_qp(apd, acq, acq);
    let bpd = b.alloc_pd();
    let bcq = b.create_cq();
    let bqp = b.create_qp(bpd, bcq, bcq);
    b.listen(18515).unwrap();
    a.connect(aqp, b.mac(), 18515, fabric.clock().now())
        .unwrap();
    settle(fabric, &[a, b], || {
        let _ = b.accept(18515, bqp);
        a.qp_state(aqp) == Ok(QpState::Rts) && b.qp_state(bqp) == Ok(QpState::Rts)
    });
    (apd, acq, aqp, bpd, bcq, bqp)
}

#[test]
fn connection_management_establishes_qps() {
    let (fabric, a, b) = world();
    let _ = connected(&fabric, &a, &b);
}

#[test]
fn connect_to_dead_port_is_refused() {
    let (fabric, a, b) = world();
    let pd = a.alloc_pd();
    let cq = a.create_cq();
    let qp = a.create_qp(pd, cq, cq);
    a.connect(qp, b.mac(), 4444, fabric.clock().now()).unwrap();
    settle(&fabric, &[&a, &b], || a.qp_state(qp) == Ok(QpState::Error));
}

#[test]
fn two_sided_send_recv_round_trip() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, bpd, bcq, bqp) = connected(&fabric, &a, &b);

    let send_mr = a.register_mr(apd, 4096, MrAccess::LOCAL_ONLY);
    let recv_mr = b.register_mr(bpd, 4096, MrAccess::LOCAL_ONLY);
    a.mr_write(send_mr, 0, b"rdma message").unwrap();
    b.post_recv(bqp, 77, recv_mr, 0, 4096).unwrap();
    a.post_send(aqp, 11, send_mr, 0, 12, fabric.clock().now())
        .unwrap();

    let mut recv_done = false;
    let mut send_done = false;
    settle(&fabric, &[&a, &b], || {
        for c in b.poll_cq(bcq, 8) {
            assert_eq!(c.wr_id, 77);
            assert_eq!(c.opcode, WcOpcode::Recv);
            assert!(c.status.is_ok());
            assert_eq!(c.byte_len, 12);
            recv_done = true;
        }
        for c in a.poll_cq(acq, 8) {
            assert_eq!(c.wr_id, 11);
            assert_eq!(c.opcode, WcOpcode::Send);
            assert!(c.status.is_ok());
            send_done = true;
        }
        recv_done && send_done
    });
    assert_eq!(b.mr_read(recv_mr, 0, 12).unwrap(), b"rdma message");
    assert_eq!(b.stats().responder_cpu_events, 1);
}

#[test]
fn send_without_posted_recv_hits_rnr_then_fails() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, _bpd, _bcq, _bqp) = connected(&fabric, &a, &b);
    let send_mr = a.register_mr(apd, 64, MrAccess::LOCAL_ONLY);
    a.post_send(aqp, 1, send_mr, 0, 64, fabric.clock().now())
        .unwrap();

    // The receiver never posts a buffer: "allocating too few buffers
    // causes communication to fail."
    let mut failed = None;
    settle(&fabric, &[&a, &b], || {
        for c in a.poll_cq(acq, 8) {
            failed = Some(c.status);
        }
        failed.is_some()
    });
    assert_eq!(failed, Some(WcStatus::RnrRetryExceeded));
    assert!(b.stats().rnr_nacks_sent > 1);
    assert_eq!(a.qp_state(aqp).unwrap(), QpState::Error);
}

#[test]
fn too_small_recv_buffer_is_a_fatal_length_error() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, bpd, bcq, bqp) = connected(&fabric, &a, &b);
    let send_mr = a.register_mr(apd, 4096, MrAccess::LOCAL_ONLY);
    let recv_mr = b.register_mr(bpd, 4096, MrAccess::LOCAL_ONLY);
    // "Buffers of the right size": post 16 bytes for a 100-byte message.
    b.post_recv(bqp, 5, recv_mr, 0, 16).unwrap();
    a.post_send(aqp, 6, send_mr, 0, 100, fabric.clock().now())
        .unwrap();

    let mut recv_status = None;
    let mut send_status = None;
    settle(&fabric, &[&a, &b], || {
        for c in b.poll_cq(bcq, 8) {
            recv_status = Some(c.status);
        }
        for c in a.poll_cq(acq, 8) {
            send_status = Some(c.status);
        }
        recv_status.is_some() && send_status.is_some()
    });
    assert_eq!(recv_status, Some(WcStatus::LocalLengthError));
    assert_eq!(send_status, Some(WcStatus::RemoteAccessError));
    assert_eq!(b.qp_state(bqp).unwrap(), QpState::Error);
}

#[test]
fn one_sided_write_needs_no_responder_cpu() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, bpd, _bcq, _bqp) = connected(&fabric, &a, &b);
    let local = a.register_mr(apd, 4096, MrAccess::LOCAL_ONLY);
    let remote = b.register_mr(bpd, 4096, MrAccess::REMOTE_RW);
    let rkey = b.rkey(remote).unwrap();
    a.mr_write(local, 0, b"one-sided payload").unwrap();
    a.post_write(aqp, 9, local, 0, 17, rkey, 100, fabric.clock().now())
        .unwrap();

    let mut done = false;
    settle(&fabric, &[&a, &b], || {
        for c in a.poll_cq(acq, 8) {
            assert_eq!(c.opcode, WcOpcode::Write);
            assert!(c.status.is_ok());
            done = true;
        }
        done
    });
    assert_eq!(b.mr_read(remote, 100, 17).unwrap(), b"one-sided payload");
    assert_eq!(
        b.stats().responder_cpu_events,
        0,
        "WRITE must not involve the responder CPU"
    );
    assert_eq!(b.stats().onesided_writes_handled, 1);
}

#[test]
fn one_sided_read_fetches_remote_data() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, bpd, _bcq, _bqp) = connected(&fabric, &a, &b);
    let local = a.register_mr(apd, 4096, MrAccess::LOCAL_ONLY);
    let remote = b.register_mr(bpd, 4096, MrAccess::REMOTE_RW);
    b.mr_write(remote, 200, b"server-side value").unwrap();
    let rkey = b.rkey(remote).unwrap();
    a.post_read(aqp, 3, local, 50, 17, rkey, 200, fabric.clock().now())
        .unwrap();

    let mut done = false;
    settle(&fabric, &[&a, &b], || {
        for c in a.poll_cq(acq, 8) {
            assert_eq!(c.opcode, WcOpcode::Read);
            assert!(c.status.is_ok());
            assert_eq!(c.byte_len, 17);
            done = true;
        }
        done
    });
    assert_eq!(a.mr_read(local, 50, 17).unwrap(), b"server-side value");
    assert_eq!(b.stats().onesided_reads_handled, 1);
    assert_eq!(b.stats().responder_cpu_events, 0);
}

#[test]
fn remote_access_violations_break_the_connection() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, bpd, _bcq, _bqp) = connected(&fabric, &a, &b);
    let local = a.register_mr(apd, 64, MrAccess::LOCAL_ONLY);
    // Remote region does NOT grant remote access.
    let remote = b.register_mr(bpd, 64, MrAccess::LOCAL_ONLY);
    let rkey = b.rkey(remote).unwrap();
    a.post_write(aqp, 1, local, 0, 8, rkey, 0, fabric.clock().now())
        .unwrap();
    let mut status = None;
    settle(&fabric, &[&a, &b], || {
        for c in a.poll_cq(acq, 8) {
            status = Some(c.status);
        }
        status.is_some()
    });
    assert_eq!(status, Some(WcStatus::RemoteAccessError));
    assert_eq!(a.qp_state(aqp).unwrap(), QpState::Error);
}

#[test]
fn bad_rkey_is_a_remote_access_error() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, _bpd, _bcq, _bqp) = connected(&fabric, &a, &b);
    let local = a.register_mr(apd, 64, MrAccess::LOCAL_ONLY);
    a.post_write(aqp, 1, local, 0, 8, 0xDEAD_BEEF, 0, fabric.clock().now())
        .unwrap();
    let mut status = None;
    settle(&fabric, &[&a, &b], || {
        for c in a.poll_cq(acq, 8) {
            status = Some(c.status);
        }
        status.is_some()
    });
    assert_eq!(status, Some(WcStatus::RemoteAccessError));
}

#[test]
fn reliability_survives_a_lossy_fabric() {
    let (fabric, a, b) = world();
    fabric.set_default_link(LinkConfig {
        latency: SimTime::from_micros(2),
        bandwidth_bps: 0,
        loss_probability: 0.2,
    });
    let (apd, acq, aqp, bpd, bcq, bqp) = connected(&fabric, &a, &b);
    let send_mr = a.register_mr(apd, 65536, MrAccess::LOCAL_ONLY);
    let recv_mr = b.register_mr(bpd, 65536, MrAccess::LOCAL_ONLY);

    // 32 sequenced messages through 20% loss.
    let mut expected = Vec::new();
    for i in 0..32u8 {
        let msg = vec![i; 128];
        a.mr_write(send_mr, i as usize * 128, &msg).unwrap();
        expected.push(msg);
        b.post_recv(bqp, 1000 + i as u64, recv_mr, i as usize * 128, 128)
            .unwrap();
    }
    let now = fabric.clock().now();
    for i in 0..32u8 {
        a.post_send(aqp, i as u64, send_mr, i as usize * 128, 128, now)
            .unwrap();
    }
    let mut recv_count = 0;
    let mut send_count = 0;
    settle(&fabric, &[&a, &b], || {
        for c in b.poll_cq(bcq, 64) {
            assert!(c.status.is_ok(), "recv failed: {c:?}");
            recv_count += 1;
        }
        for c in a.poll_cq(acq, 64) {
            assert!(c.status.is_ok(), "send failed: {c:?}");
            send_count += 1;
        }
        recv_count == 32 && send_count == 32
    });
    for (i, msg) in expected.iter().enumerate() {
        assert_eq!(&b.mr_read(recv_mr, i * 128, 128).unwrap(), msg);
    }
    assert!(a.stats().retransmits > 0, "loss must force retransmission");
}

#[test]
fn one_sided_read_survives_loss() {
    let (fabric, a, b) = world();
    fabric.set_default_link(LinkConfig {
        latency: SimTime::from_micros(2),
        bandwidth_bps: 0,
        loss_probability: 0.3,
    });
    let (apd, acq, aqp, bpd, _bcq, _bqp) = connected(&fabric, &a, &b);
    let local = a.register_mr(apd, 1024, MrAccess::LOCAL_ONLY);
    let remote = b.register_mr(bpd, 1024, MrAccess::REMOTE_RW);
    b.mr_write(remote, 0, b"durable").unwrap();
    let rkey = b.rkey(remote).unwrap();
    a.post_read(aqp, 1, local, 0, 7, rkey, 0, fabric.clock().now())
        .unwrap();
    let mut ok = false;
    settle(&fabric, &[&a, &b], || {
        for c in a.poll_cq(acq, 8) {
            assert!(c.status.is_ok(), "{c:?}");
            ok = true;
        }
        ok
    });
    assert_eq!(a.mr_read(local, 0, 7).unwrap(), b"durable");
}

#[test]
fn partition_exhausts_retries_and_errors_out() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, _bpd, _bcq, _bqp) = connected(&fabric, &a, &b);
    let send_mr = a.register_mr(apd, 64, MrAccess::LOCAL_ONLY);
    fabric.partition(a.mac(), b.mac());
    a.post_send(aqp, 1, send_mr, 0, 8, fabric.clock().now())
        .unwrap();
    let mut status = None;
    settle(&fabric, &[&a, &b], || {
        for c in a.poll_cq(acq, 8) {
            status = Some(c.status);
        }
        status.is_some()
    });
    assert_eq!(status, Some(WcStatus::RetryExceeded));
    assert_eq!(a.qp_state(aqp).unwrap(), QpState::Error);
}

#[test]
fn pd_mismatch_and_bounds_are_enforced_at_post_time() {
    let (fabric, a, b) = world();
    let (_apd, _acq, aqp, _bpd, _bcq, _bqp) = connected(&fabric, &a, &b);
    // MR in a *different* PD than the QP.
    let other_pd = a.alloc_pd();
    let foreign_mr = a.register_mr(other_pd, 64, MrAccess::LOCAL_ONLY);
    assert_eq!(
        a.post_send(aqp, 1, foreign_mr, 0, 8, SimTime::ZERO),
        Err(QpError::PdMismatch)
    );
    // Out-of-bounds range in a valid MR.
    let apd2 = a.inner.borrow().qps[&aqp].pd;
    let mr = a.register_mr(apd2, 64, MrAccess::LOCAL_ONLY);
    assert_eq!(
        a.post_send(aqp, 1, mr, 60, 8, SimTime::ZERO),
        Err(QpError::OutOfBounds)
    );
}

#[test]
fn posting_before_connection_is_invalid() {
    let (_fabric, a, _b) = world();
    let pd = a.alloc_pd();
    let cq = a.create_cq();
    let qp = a.create_qp(pd, cq, cq);
    let mr = a.register_mr(pd, 64, MrAccess::LOCAL_ONLY);
    assert_eq!(
        a.post_send(qp, 1, mr, 0, 8, SimTime::ZERO),
        Err(QpError::InvalidState)
    );
}

#[test]
fn work_queue_depth_is_bounded() {
    let (fabric, a, b) = world();
    let (apd, _acq, aqp, _bpd, _bcq, _bqp) = connected(&fabric, &a, &b);
    let mr = a.register_mr(apd, 64, MrAccess::LOCAL_ONLY);
    let now = fabric.clock().now();
    let mut hit_full = false;
    for i in 0..200 {
        match a.post_send(aqp, i, mr, 0, 8, now) {
            Ok(()) => {}
            Err(QpError::QueueFull) => {
                hit_full = true;
                break;
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert!(hit_full, "queue must be bounded");
}

#[test]
fn deregistered_mr_stops_serving_remote_ops() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, bpd, _bcq, _bqp) = connected(&fabric, &a, &b);
    let local = a.register_mr(apd, 64, MrAccess::LOCAL_ONLY);
    let remote = b.register_mr(bpd, 64, MrAccess::REMOTE_RW);
    let rkey = b.rkey(remote).unwrap();
    b.deregister_mr(remote);
    a.post_write(aqp, 1, local, 0, 8, rkey, 0, fabric.clock().now())
        .unwrap();
    let mut status = None;
    settle(&fabric, &[&a, &b], || {
        for c in a.poll_cq(acq, 8) {
            status = Some(c.status);
        }
        status.is_some()
    });
    assert_eq!(status, Some(WcStatus::RemoteAccessError));
    assert_eq!(b.stats().pinned_bytes, 0);
}

fn mac(octet: u8) -> MacAddress {
    MacAddress::from_last_octet(octet)
}

/// The next message a raw station receives, running the world until one
/// arrives.
fn next_msg(fabric: &Fabric, devs: &[&RdmaDevice], station: &Endpoint) -> WireMsg {
    let mut got = None;
    settle(fabric, devs, || {
        got = station
            .receive()
            .and_then(|f| WireMsg::parse(f.payload.as_flat().unwrap()));
        got.is_some()
    });
    got.expect("the station received a message")
}

#[test]
fn a_forged_source_cannot_write_through_a_connection() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, bpd, _bcq, bqp) = connected(&fabric, &a, &b);
    let remote = b.register_mr(bpd, 64, MrAccess::REMOTE_RW);
    let rkey = b.rkey(remote).unwrap();
    // A third station forges A's side of the connection: B's QP, the PSN B
    // expects next, B's rkey.
    let mallory = fabric.register_endpoint(mac(3));
    let forged = WireMsg::Write {
        dst_qp: bqp.0,
        psn: 0,
        rkey,
        offset: 0,
        payload: b"forged!!".to_vec(),
    };
    mallory.transmit(b.mac(), forged.serialize());
    settle(&fabric, &[&a, &b], || false);
    assert_eq!(
        b.mr_read(remote, 0, 8).unwrap(),
        [0; 8],
        "the forgery landed"
    );

    // The honest peer's real PSN 0 is not discarded as a duplicate.
    let local = a.register_mr(apd, 64, MrAccess::LOCAL_ONLY);
    a.mr_write(local, 0, b"honest!!").unwrap();
    a.post_write(aqp, 1, local, 0, 8, rkey, 0, fabric.clock().now())
        .unwrap();
    let mut status = None;
    settle(&fabric, &[&a, &b], || {
        status = a.poll_cq(acq, 8).pop().map(|c| c.status);
        status.is_some()
    });
    assert_eq!(status, Some(WcStatus::Success));
    assert_eq!(b.mr_read(remote, 0, 8).unwrap(), b"honest!!");
}

#[test]
fn an_rkey_from_another_pd_is_a_remote_access_error() {
    for read in [false, true] {
        let (fabric, a, b) = world();
        let (apd, acq, aqp, _bpd, _bcq, bqp) = connected(&fabric, &a, &b);
        // B's region is remote-accessible, but in a PD the QP is not in.
        let other_pd = b.alloc_pd();
        let foreign = b.register_mr(other_pd, 64, MrAccess::REMOTE_RW);
        b.mr_write(foreign, 0, b"secret!!").unwrap();
        let rkey = b.rkey(foreign).unwrap();
        let local = a.register_mr(apd, 64, MrAccess::LOCAL_ONLY);
        let now = fabric.clock().now();
        if read {
            a.post_read(aqp, 1, local, 0, 8, rkey, 0, now).unwrap();
        } else {
            a.mr_write(local, 0, b"cross-pd").unwrap();
            a.post_write(aqp, 1, local, 0, 8, rkey, 0, now).unwrap();
        }
        let mut status = None;
        settle(&fabric, &[&a, &b], || {
            status = a.poll_cq(acq, 8).pop().map(|c| c.status);
            status.is_some()
        });
        assert_eq!(status, Some(WcStatus::RemoteAccessError), "read={read}");
        assert_eq!(b.mr_read(foreign, 0, 8).unwrap(), b"secret!!");
        if read {
            assert_eq!(a.mr_read(local, 0, 8).unwrap(), [0; 8]);
        }
        assert_eq!(b.qp_state(bqp), Ok(QpState::Error));
    }
}

#[test]
fn an_oversize_read_response_is_a_bad_response() {
    let fabric = Fabric::new(99);
    let a = RdmaDevice::new(&fabric, mac(1));
    // A hand-rolled peer: accepts the connection as its QP 77 and answers
    // an 8-byte READ with 64 bytes.
    let peer = fabric.register_endpoint(mac(2));
    let pd = a.alloc_pd();
    let cq = a.create_cq();
    let qp = a.create_qp(pd, cq, cq);
    a.connect(qp, mac(2), 18515, fabric.clock().now()).unwrap();
    let WireMsg::ConnReq { src_qp, .. } = next_msg(&fabric, &[&a], &peer) else {
        panic!("expected a connection request");
    };
    let resp = WireMsg::ConnResp {
        dst_qp: src_qp,
        src_qp: 77,
        accepted: true,
    };
    peer.transmit(mac(1), resp.serialize());
    settle(&fabric, &[&a], || a.qp_state(qp) == Ok(QpState::Rts));

    let local = a.register_mr(pd, 64, MrAccess::LOCAL_ONLY);
    a.post_read(qp, 5, local, 0, 8, 0x1234, 0, fabric.clock().now())
        .unwrap();
    let WireMsg::ReadReq {
        dst_qp: 77, psn, ..
    } = next_msg(&fabric, &[&a], &peer)
    else {
        panic!("expected the read request");
    };
    let oversize = WireMsg::ReadResp {
        dst_qp: qp.0,
        psn,
        payload: vec![0xAA; 64],
    };
    peer.transmit(mac(1), oversize.serialize());
    let mut done = None;
    settle(&fabric, &[&a], || {
        done = a.poll_cq(cq, 8).pop().map(|c| (c.status, c.byte_len));
        done.is_some()
    });
    assert_eq!(
        a.mr_read(local, 0, 64).unwrap(),
        [0; 64],
        "bytes past the read's window changed"
    );
    assert_eq!(done, Some((WcStatus::BadResponse, 0)));
    assert_eq!(a.qp_state(qp), Ok(QpState::Error));
}

#[test]
fn a_receive_into_a_deregistered_region_is_a_local_protection_error() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, bpd, bcq, bqp) = connected(&fabric, &a, &b);
    let recv_mr = b.register_mr(bpd, 64, MrAccess::LOCAL_ONLY);
    b.post_recv(bqp, 5, recv_mr, 0, 64).unwrap();
    // The region goes while its receive stays posted.
    b.deregister_mr(recv_mr);
    let send_mr = a.register_mr(apd, 64, MrAccess::LOCAL_ONLY);
    a.post_send(aqp, 6, send_mr, 0, 8, fabric.clock().now())
        .unwrap();
    let (mut recv_status, mut send_status) = (None, None);
    settle(&fabric, &[&a, &b], || {
        recv_status = recv_status.or(b.poll_cq(bcq, 8).pop().map(|c| c.status));
        send_status = send_status.or(a.poll_cq(acq, 8).pop().map(|c| c.status));
        recv_status.is_some() && send_status.is_some()
    });
    assert_eq!(recv_status, Some(WcStatus::LocalProtectionError));
    assert_eq!(send_status, Some(WcStatus::RemoteAccessError));
    assert_eq!(b.qp_state(bqp), Ok(QpState::Error));
}

#[test]
fn a_responder_fatal_flushes_the_responders_own_sends() {
    let (fabric, a, b) = world();
    let (apd, acq, aqp, bpd, bcq, bqp) = connected(&fabric, &a, &b);
    let now = fabric.clock().now();
    // B's SEND RNR-loops: A posts no receive.
    let send_mr = b.register_mr(bpd, 64, MrAccess::LOCAL_ONLY);
    b.post_send(bqp, 7, send_mr, 0, 8, now).unwrap();
    // A's bad-rkey WRITE breaks B's QP as the responder.
    let local = a.register_mr(apd, 64, MrAccess::LOCAL_ONLY);
    a.post_write(aqp, 1, local, 0, 8, 0xDEAD_BEEF, 0, now)
        .unwrap();
    let mut flushed = None;
    settle(&fabric, &[&a, &b], || {
        flushed = b.poll_cq(bcq, 8).pop().map(|c| (c.wr_id, c.status));
        flushed.is_some()
    });
    assert_eq!(flushed, Some((7, WcStatus::WrFlushed)));
    assert_eq!(b.qp_state(bqp), Ok(QpState::Error));
    assert_eq!(b.next_deadline(), None, "an errored QP arms no timer");
    settle(&fabric, &[&a, &b], || false);
    let statuses: Vec<_> = a.poll_cq(acq, 8).iter().map(|c| c.status).collect();
    assert_eq!(statuses, [WcStatus::RemoteAccessError]);
}

#[test]
fn connect_retries_fire_in_qp_id_order() {
    // Eight QPs connect to a silent station; returns their ids, the order
    // of the first requests and the order of the first retry round.
    let run = || {
        let fabric = Fabric::new(99);
        let a = RdmaDevice::new(&fabric, mac(1));
        let silent = fabric.register_endpoint(mac(2));
        let (pd, cq) = (a.alloc_pd(), a.create_cq());
        let qps: Vec<u32> = (0..8).map(|_| a.create_qp(pd, cq, cq).0).collect();
        for &qp in qps.iter().rev() {
            a.connect(QpId(qp), mac(2), 9, fabric.clock().now())
                .unwrap();
        }
        let round = || {
            while fabric.advance_to_next_event() {}
            std::iter::from_fn(|| silent.receive())
                .map(|f| match WireMsg::parse(f.payload.as_flat().unwrap()) {
                    Some(WireMsg::ConnReq { src_qp, .. }) => src_qp,
                    other => panic!("unexpected {other:?}"),
                })
                .collect::<Vec<u32>>()
        };
        let first = round();
        fabric.clock().advance_to(a.next_deadline().unwrap());
        a.poll(fabric.clock().now());
        (qps, first, round())
    };
    let (qps, first, retries) = run();
    let reversed: Vec<u32> = qps.iter().rev().copied().collect();
    assert_eq!(first, reversed, "first requests leave in call order");
    assert_eq!(retries, qps, "retries fire in ascending QP id");
    for _ in 0..5 {
        assert_eq!(run(), (qps.clone(), first.clone(), retries.clone()));
    }
}

// ----------------------------------------------------------------------
// The hostile differential.
// ----------------------------------------------------------------------

/// Seeds per run: a small budget in debug, a large one with `--release`.
const SEEDS: u64 = if cfg!(debug_assertions) { 48 } else { 1_500 };
/// Loop steps during which the hostile station may inject.
const INJECT_STEPS: usize = 48;
/// Names of `Pair::regions`, in order.
const REGIONS: [&str; 5] = ["a.send", "a.read", "b.recv", "b.target", "b.foreign"];

/// Names the failing case whether it failed by assertion or by a panic
/// inside the device.
struct Repro(u64, Vec<&'static str>);

impl Drop for Repro {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("reproduce with: seed={} case={:?}", self.0, self.1);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Send,
    Write,
    Read,
}

/// Two honest hosts, connected, with their regions registered and B's
/// receives posted for `ops`.
struct Pair {
    fabric: Fabric,
    a: RdmaDevice,
    b: RdmaDevice,
    acq: CqId,
    bcq: CqId,
    aqp: QpId,
    bqp: QpId,
    regions: [(bool, MrId); 5],
}

impl Pair {
    fn new(ops: &[(Op, usize)]) -> Pair {
        let (fabric, a, b) = world();
        let (apd, acq, aqp, bpd, bcq, bqp) = connected(&fabric, &a, &b);
        let foreign_pd = b.alloc_pd();
        let regions = [
            (true, a.register_mr(apd, 1024, MrAccess::LOCAL_ONLY)),
            (true, a.register_mr(apd, 1024, MrAccess::LOCAL_ONLY)),
            (false, b.register_mr(bpd, 1024, MrAccess::LOCAL_ONLY)),
            (false, b.register_mr(bpd, 2048, MrAccess::REMOTE_RW)),
            (false, b.register_mr(foreign_pd, 1024, MrAccess::REMOTE_RW)),
        ];
        let pattern: Vec<u8> = (0..2048u32).map(|i| (i * 7 + 1) as u8).collect();
        a.mr_write(regions[0].1, 0, &pattern[..1024]).unwrap();
        b.mr_write(regions[3].1, 1024, &pattern[1024..]).unwrap();
        b.mr_write(regions[4].1, 0, &pattern[..1024]).unwrap();
        for (i, _) in ops.iter().enumerate() {
            b.post_recv(bqp, 1000 + i as u64, regions[2].1, i * 64, 64)
                .unwrap();
        }
        Pair {
            fabric,
            a,
            b,
            acq,
            bcq,
            aqp,
            bqp,
            regions,
        }
    }

    fn region(&self, r: usize) -> Vec<u8> {
        let (on_a, mr) = self.regions[r];
        let dev = if on_a { &self.a } else { &self.b };
        let len = if r == 3 { 2048 } else { 1024 };
        dev.mr_read(mr, 0, len).unwrap()
    }

    /// Op `i` moves `len` bytes from `a.send[i * 64..]`: a SEND into B's
    /// next receive slot, `slot`, a WRITE into `b.target[i * 64..]`, a READ
    /// of `b.target[1024 + i * 64..]` into `a.read[i * 64..]`. Returns the
    /// region and offset of the window it grants.
    fn post(&self, i: usize, op: Op, len: usize, slot: usize) -> (usize, usize) {
        let (a, send) = (&self.a, self.regions[0].1);
        let rkey = self.b.rkey(self.regions[3].1).unwrap();
        let now = self.fabric.clock().now();
        let (at, wr) = (i * 64, i as u64);
        match op {
            Op::Send => a
                .post_send(self.aqp, wr, send, at, len, now)
                .map(|_| (2, slot * 64)),
            Op::Write => a
                .post_write(self.aqp, wr, send, at, len, rkey, at as u64, now)
                .map(|_| (3, at)),
            Op::Read => {
                let read = self.regions[1].1;
                let remote = 1024 + at as u64;
                a.post_read(self.aqp, wr, read, at, len, rkey, remote, now)
                    .map(|_| (1, at))
            }
        }
        .unwrap()
    }

    /// One forged or mutated message from the third station `mallory`, of
    /// one of the first `kinds` cases: the first four must leave the pair
    /// untouched, the last two may break a QP.
    fn inject(&self, rng: &mut SimRng, mallory: &Endpoint, n: usize, kinds: u64) -> &'static str {
        let (a_mac, b_mac) = (self.a.mac(), self.b.mac());
        let (aqp, bqp) = (self.aqp.0, self.bqp.0);
        let target = self.b.rkey(self.regions[3].1).unwrap();
        let foreign = self.b.rkey(self.regions[4].1).unwrap();
        let r = rng.next_u64();
        let small = (r >> 8) as u32 % (n as u32 + 2);
        let len = 1 + (r >> 16) as usize % 64;
        let payload = vec![0xEE; len];
        // A SEND, WRITE or READ request to B's QP.
        let kind = (r >> 40) % 3;
        let to_b = |kind, psn, rkey| match kind {
            0 => WireMsg::Send {
                dst_qp: bqp,
                psn,
                payload: payload.clone(),
            },
            1 => WireMsg::Write {
                dst_qp: bqp,
                psn,
                rkey,
                offset: (r >> 24) % 1024,
                payload: payload.clone(),
            },
            _ => WireMsg::ReadReq {
                dst_qp: bqp,
                psn,
                rkey,
                offset: (r >> 24) % 1024,
                len: len as u32,
            },
        };
        // From the peer's own address: only what the device must refuse on
        // content. (A spoofed in-window message carrying a valid rkey is
        // indistinguishable from the peer; the fabric owns that threat.)
        let spoof = |src, dst, msg: WireMsg| self.fabric.transmit(src, dst, msg.serialize());
        match r % kinds {
            0 => {
                // From mallory's own address: anything, with the pair's
                // real QP numbers, PSNs and rkey — or garbage.
                let msg = match (r >> 44) % 6 {
                    0 => WireMsg::Ack {
                        dst_qp: aqp,
                        psn: small,
                    },
                    1 => WireMsg::FatalNack {
                        dst_qp: aqp,
                        psn: small,
                    },
                    2 => WireMsg::ReadResp {
                        dst_qp: aqp,
                        psn: small,
                        payload: payload.clone(),
                    },
                    3 => WireMsg::ConnResp {
                        dst_qp: aqp,
                        src_qp: bqp,
                        accepted: true,
                    },
                    4 => WireMsg::ConnReq {
                        src_qp: aqp,
                        port: 18515,
                    },
                    _ => to_b(kind, small, target),
                };
                let dst = if (r >> 50).is_multiple_of(2) {
                    a_mac
                } else {
                    b_mac
                };
                if (r >> 52).is_multiple_of(8) {
                    mallory.transmit(dst, payload);
                } else {
                    mallory.transmit(dst, msg.serialize());
                }
                "wrong source"
            }
            1 => {
                spoof(a_mac, b_mac, to_b(kind, 1_000 + small, target));
                "future psn"
            }
            2 => {
                spoof(a_mac, b_mac, to_b(kind, u32::MAX - small, target));
                "stale psn"
            }
            3 => {
                let mut bytes = to_b(kind, small, target).serialize();
                bytes.truncate((r >> 56) as usize % bytes.len());
                self.fabric.transmit(a_mac, b_mac, bytes);
                "truncated"
            }
            4 => {
                spoof(a_mac, b_mac, to_b(1 + kind % 2, small, foreign));
                "foreign-PD rkey"
            }
            _ => {
                let resp = WireMsg::ReadResp {
                    dst_qp: aqp,
                    psn: small,
                    payload: vec![0xEE; 65 + len],
                };
                spoof(b_mac, a_mac, resp);
                "oversize ReadResp"
            }
        }
    }
}

/// What a run leaves behind: every completion on both hosts, the bytes of
/// every region before and after, whether either QP broke, the windows
/// `(region, offset, len)` the ops granted, and the injected cases.
struct Outcome {
    completions: Vec<(u64, WcOpcode, WcStatus, usize)>,
    initial: Vec<Vec<u8>>,
    regions: Vec<Vec<u8>>,
    failed: bool,
    windows: Vec<(usize, usize, usize)>,
    cases: Vec<&'static str>,
}

/// Runs `ops` over a fresh pair to quiescence; unless `kinds` is 0, a
/// third station injects cases of the first `kinds` kinds during the first
/// [`INJECT_STEPS`] steps.
fn run(seed: u64, ops: &[(Op, usize)], kinds: u64) -> Outcome {
    let p = Pair::new(ops);
    let initial: Vec<Vec<u8>> = (0..REGIONS.len()).map(|r| p.region(r)).collect();
    let mallory = p.fabric.register_endpoint(mac(3));
    let mut rng = SimRng::new(seed ^ 0x5EED_F00D);
    let windows: Vec<_> = ops
        .iter()
        .enumerate()
        .map(|(i, &(op, len))| {
            let slot = ops[..i].iter().filter(|(op, _)| matches!(op, Op::Send));
            let (region, at) = p.post(i, op, len, slot.count());
            (region, at, len)
        })
        .collect();
    let mut cases = Vec::new();
    for step in 0.. {
        assert!(step < 100_000, "the world did not quiesce");
        let now = p.fabric.clock().now();
        p.a.poll(now);
        p.b.poll(now);
        if kinds > 0 && step < INJECT_STEPS && rng.chance(0.25) {
            cases.push(p.inject(&mut rng, &mallory, ops.len(), kinds));
        }
        if p.fabric.advance_to_next_event() {
            continue;
        }
        match p
            .a
            .next_deadline()
            .into_iter()
            .chain(p.b.next_deadline())
            .min()
        {
            Some(t) => p.fabric.clock().advance_to(t),
            None if step >= INJECT_STEPS => break,
            None => {}
        }
    }
    let mut completions = Vec::new();
    for (dev, cq) in [(&p.a, p.acq), (&p.b, p.bcq)] {
        let cqes = dev.poll_cq(cq, usize::MAX);
        completions.extend(
            cqes.iter()
                .map(|c| (c.wr_id, c.opcode, c.status, c.byte_len)),
        );
    }
    let failed = [(&p.a, p.aqp), (&p.b, p.bqp)]
        .iter()
        .any(|(dev, qp)| dev.qp_state(*qp) == Ok(QpState::Error));
    Outcome {
        completions,
        initial,
        regions: (0..REGIONS.len()).map(|r| p.region(r)).collect(),
        failed,
        windows,
        cases,
    }
}

/// Two honest hosts run SEND, WRITE and READ traffic while a third
/// station injects forged and mutated messages: a wrong source, stale and
/// future PSNs, an rkey from another PD, an oversize read response, and
/// truncated encodings. The oracle: no panic; the pair's completions and
/// bytes equal a fault-free run, or a QP fails and every completion that
/// differs carries an error status; and no region byte changes outside a
/// window a legitimate work request granted.
#[test]
fn a_hostile_station_cannot_bend_an_honest_pair() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(seed);
        let n = 4 + rng.next_u64() as usize % 13;
        let ops: Vec<(Op, usize)> = (0..n)
            .map(|_| {
                let r = rng.next_u64();
                let op = [Op::Send, Op::Write, Op::Read][r as usize % 3];
                (op, 1 + (r >> 8) as usize % 64)
            })
            .collect();
        let mut repro = Repro(seed, Vec::new());
        let clean = run(seed, &ops, 0);
        assert!(!clean.failed, "seed={seed}: the fault-free run failed");
        let sends = ops.iter().filter(|(op, _)| matches!(op, Op::Send)).count();
        assert_eq!(clean.completions.len(), n + sends);
        assert!(clean.completions.iter().all(|c| c.2.is_ok()));

        let got = run(seed, &ops, if seed.is_multiple_of(3) { 6 } else { 4 });
        let cases = &got.cases;
        repro.1 = cases.clone();
        let may_fail = cases
            .iter()
            .any(|c| matches!(*c, "foreign-PD rkey" | "oversize ReadResp"));
        assert!(
            may_fail || !got.failed,
            "seed={seed} case={cases:?}: a QP broke"
        );
        if !got.failed {
            assert_eq!(
                got.completions, clean.completions,
                "seed={seed} case={cases:?}"
            );
            for (r, name) in REGIONS.iter().enumerate() {
                let same = got.regions[r] == clean.regions[r];
                assert!(same, "seed={seed} case={cases:?}: {name} differs");
            }
        }
        for c in &got.completions {
            let honest = clean.completions.contains(c);
            assert!(honest || !c.2.is_ok(), "seed={seed} case={cases:?}: {c:?}");
        }
        for (r, (now, before)) in got.regions.iter().zip(&got.initial).enumerate() {
            let granted = |at: usize| {
                let in_window = |&(region, start, len): &(usize, usize, usize)| {
                    region == r && (start..start + len).contains(&at)
                };
                got.windows.iter().any(in_window)
            };
            for (at, (x, y)) in now.iter().zip(before).enumerate() {
                assert!(
                    x == y || granted(at),
                    "seed={seed} case={cases:?}: {}[{at}] changed outside every window",
                    REGIONS[r]
                );
            }
        }
    }
}

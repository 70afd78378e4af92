//! Device-level tests: two RDMA NICs on a fabric.

use sim_fabric::{Fabric, LinkConfig, MacAddress, SimTime};

use super::*;

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
        let _ = b.accept(18515, bqp, fabric.clock().now());
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

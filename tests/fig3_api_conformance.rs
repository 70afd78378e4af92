//! Figure 3 conformance: every listed system call exists and behaves as
//! the paper specifies, exercised over catmem (pure queues) and catnip
//! (device queues) — and the two contracts the paper leaves implicit hold
//! on all five libOSes alike: what a call on a bad or wrong-kind descriptor
//! answers, and that closing a queue completes the pop parked on it.

mod support;

use std::rc::Rc;

use demikernel::libos::{LibOs, SocketKind};
use demikernel::ops::Demikernel;
use demikernel::testing::{
    catcorn_pair, catfs_world, catmem_world, catnap_pair, catnip_pair, host_ip,
};
use demikernel::types::{DemiError, OperationResult, QDesc, QToken, Sga};
use net_stack::types::SocketAddr;
use sim_fabric::SimTime;
use support::tcp_pair;

#[test]
fn control_path_network_calls_mirror_posix_but_return_qds() {
    // Fig. 3 lines: socket, listen, bind, accept, connect, close.
    let (_rt, _fabric, client, server) = catnip_pair(101);
    let listen_qd = server.socket(SocketKind::Tcp).unwrap();
    server
        .bind(listen_qd, SocketAddr::new(host_ip(2), 80))
        .unwrap();
    server.listen(listen_qd, 8).unwrap();
    let accept_qt = server.accept(listen_qd).unwrap();

    let conn_qd = client.socket(SocketKind::Tcp).unwrap();
    let connect_qt = client
        .connect(conn_qd, SocketAddr::new(host_ip(2), 80))
        .unwrap();

    let server_qd = server.wait(accept_qt, None).unwrap().expect_accept();
    assert!(matches!(
        client.wait(connect_qt, None).unwrap(),
        OperationResult::Connect
    ));
    client.close(conn_qd).unwrap();
    server.close(server_qd).unwrap();
    server.close(listen_qd).unwrap();
}

#[test]
fn queue_calls_create_merge_filter_sort_map_qconnect() {
    // Fig. 3 control-path queue calls over catmem.
    let (_rt, libos) = catmem_world();
    let dk = Demikernel::new(Rc::new(libos));
    let q1 = dk.queue().unwrap();
    let q2 = dk.queue().unwrap();
    let merged = dk.merge(q1, q2).unwrap();
    let filtered = dk.filter(merged, Rc::new(|s: &Sga| !s.is_empty())).unwrap();
    let sorted = dk
        .sort(filtered, Rc::new(|a: &Sga, b: &Sga| a.len() > b.len()))
        .unwrap();
    let mapped = dk.map(sorted, Rc::new(|s: Sga| s)).unwrap();
    let sink = dk.queue().unwrap();
    dk.qconnect(mapped, sink).unwrap();

    // An element pushed into q1 flows through the whole pipeline.
    dk.blocking_push(q1, &Sga::from_slice(b"through the pipeline"))
        .unwrap();
    let (_, out) = dk.blocking_pop(sink).unwrap().expect_pop();
    assert_eq!(out.to_vec(), b"through the pipeline");
}

#[test]
fn push_pop_atomicity_over_both_libos() {
    // "A scatter-gather array pushed into a Demikernel queue always pops
    // out as a single element."
    // catmem:
    let (_rt, libos) = catmem_world();
    let qd = libos.queue().unwrap();
    let mut sga = Sga::new();
    for part in [&b"three"[..], &b"part"[..], &b"message"[..]] {
        sga.push_seg(demi_memory::DemiBuffer::from_slice(part));
    }
    libos.blocking_push(qd, &sga).unwrap();
    let (_, got) = libos.blocking_pop(qd).unwrap().expect_pop();
    assert_eq!(got.to_vec(), b"threepartmessage");

    // catnip over TCP (a byte stream under the hood):
    let (_rt2, _fabric, client, server) = catnip_pair(102);
    let (cqd, sqd) = tcp_pair(&client, &server, 80);
    client.blocking_push(cqd, &sga).unwrap();
    let (_, got) = server.blocking_pop(sqd).unwrap().expect_pop();
    assert_eq!(got.to_vec(), b"threepartmessage");
}

#[test]
fn wait_returns_data_wait_any_selects_wait_all_collects() {
    // Fig. 3 data-path calls: wait / wait_any / wait_all.
    let (_rt, libos) = catmem_world();
    let q1 = libos.queue().unwrap();
    let q2 = libos.queue().unwrap();

    // wait returns the popped data directly.
    libos
        .blocking_push(q1, &Sga::from_slice(b"direct"))
        .unwrap();
    let qt = libos.pop(q1).unwrap();
    let result = libos.wait(qt, None).unwrap();
    let (_, sga) = result.expect_pop();
    assert_eq!(sga.to_vec(), b"direct");

    // wait_any returns the first completion and leaves the others valid.
    let slow = libos.pop(q1).unwrap();
    let fast = libos.pop(q2).unwrap();
    libos.blocking_push(q2, &Sga::from_slice(b"fast")).unwrap();
    let (idx, result) = libos.wait_any(&[slow, fast], None).unwrap();
    assert_eq!(idx, 1);
    assert_eq!(result.expect_pop().1.to_vec(), b"fast");
    libos.blocking_push(q1, &Sga::from_slice(b"slow")).unwrap();
    assert_eq!(
        libos.wait(slow, None).unwrap().expect_pop().1.to_vec(),
        b"slow"
    );

    // wait_all blocks until every operation completes.
    let a = libos.push(q1, &Sga::from_slice(b"a")).unwrap();
    let b = libos.push(q2, &Sga::from_slice(b"b")).unwrap();
    let results = libos.wait_all(&[a, b], None).unwrap();
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| matches!(r, OperationResult::Push)));
}

#[test]
fn blocking_calls_equal_push_then_wait() {
    // Fig. 3: "identical to a push, followed by a wait on the returned
    // qtoken" — verified by equivalence of results.
    let (_rt, libos) = catmem_world();
    let qd = libos.queue().unwrap();

    let qt = libos.push(qd, &Sga::from_slice(b"two-step")).unwrap();
    let two_step = libos.wait(qt, None).unwrap();
    let one_step = libos
        .blocking_push(qd, &Sga::from_slice(b"one-step"))
        .unwrap();
    assert_eq!(two_step, OperationResult::Push);
    assert_eq!(one_step, OperationResult::Push);

    let (_, first) = libos.blocking_pop(qd).unwrap().expect_pop();
    let (_, second) = libos.blocking_pop(qd).unwrap().expect_pop();
    assert_eq!(first.to_vec(), b"two-step");
    assert_eq!(second.to_vec(), b"one-step");
}

#[test]
fn qtokens_are_single_use_and_per_operation() {
    // §4.4: "each qtoken is unique to a single queue operation."
    let (_rt, libos) = catmem_world();
    let qd = libos.queue().unwrap();
    let qt1 = libos.push(qd, &Sga::from_slice(b"x")).unwrap();
    let qt2 = libos.push(qd, &Sga::from_slice(b"y")).unwrap();
    assert_ne!(qt1, qt2);
    libos.wait(qt1, None).unwrap();
    assert_eq!(libos.wait(qt1, None), Err(DemiError::BadQToken));
    libos.wait(qt2, None).unwrap();
}

#[test]
fn wait_timeout_is_honored() {
    let (_rt, libos) = catmem_world();
    let qd = libos.queue().unwrap();
    let qt = libos.pop(qd).unwrap();
    assert_eq!(
        libos.wait(qt, Some(SimTime::from_millis(2))),
        Err(DemiError::Timeout)
    );
    // The token survives the timeout and resolves later.
    libos.blocking_push(qd, &Sga::from_slice(b"late")).unwrap();
    let (_, sga) = libos.wait(qt, None).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), b"late");
}

#[test]
fn file_calls_exist_on_the_storage_libos() {
    // Fig. 3 control-path file calls: open / creat.
    let (_rt, catfs, _dev) = demikernel::testing::catfs_world();
    let qd = catfs.create("fig3").unwrap();
    catfs
        .blocking_push(qd, &Sga::from_slice(b"stored"))
        .unwrap();
    let reader = catfs.open("fig3").unwrap();
    let (_, sga) = catfs.blocking_pop(reader).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), b"stored");
}

/// A connected stream pair over any socket libOS: `(listener, client
/// queue, server queue)`.
fn connect_pair(client: &dyn LibOs, server: &dyn LibOs, port: u16) -> (QDesc, QDesc, QDesc) {
    let addr = SocketAddr::new(host_ip(2), port);
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, addr).unwrap();
    server.listen(lqd, 8).unwrap();
    let aqt = server.accept(lqd).unwrap();
    let cqd = client.socket(SocketKind::Tcp).unwrap();
    let cqt = client.connect(cqd, addr).unwrap();
    let sqd = server.wait(aqt, None).unwrap().expect_accept();
    assert_eq!(client.wait(cqt, None).unwrap(), OperationResult::Connect);
    (lqd, cqd, sqd)
}

/// An op pending when its queue is closed completes, with `Closed`, woken
/// by the close itself — which checks that op and nothing else, though the
/// caller keeps another queue's op parked beside it, and polls no task —
/// and gives its op slot back.
fn close_fails_the_pending(libos: &dyn LibOs, qd: QDesc, op: impl Fn(QDesc) -> QToken) {
    let rt = libos.runtime();
    let kind = libos.kind().name();
    let before = rt.outstanding();
    let qt = op(qd);
    rt.pump();
    let (stats, checks) = (rt.scheduler().stats(), rt.metrics().snapshot().op_checks);
    libos.close(qd).unwrap();
    assert_eq!(
        libos.wait(qt, Some(SimTime::from_millis(1))),
        Ok(OperationResult::Failed(DemiError::Closed)),
        "{kind}: pending op after close"
    );
    assert_eq!(rt.outstanding(), before, "{kind}: op slot returned");
    let after = rt.scheduler().stats();
    assert_eq!(
        after.spurious_polls, stats.spurious_polls,
        "{kind}: woken by the close"
    );
    assert_eq!(after.polls, stats.polls, "{kind}: no task polled");
    assert_eq!(
        rt.metrics().snapshot().op_checks - checks,
        1,
        "{kind}: the close checks its own op alone"
    );
}

fn close_fails_the_pending_pop(libos: &dyn LibOs, qd: QDesc) {
    close_fails_the_pending(libos, qd, |qd| libos.pop(qd).unwrap());
}

/// A pop parked on a fresh queue that nothing will ever complete: the
/// bystander a close must not wake.
fn bystander(libos: &dyn LibOs, qd: QDesc) -> QToken {
    let qt = libos.pop(qd).unwrap();
    libos.runtime().pump();
    qt
}

#[test]
fn a_pop_pending_when_its_queue_is_closed_completes_on_every_libos() {
    let (_rt, catmem) = catmem_world();
    let _idle = bystander(&catmem, catmem.queue().unwrap());
    close_fails_the_pending_pop(&catmem, catmem.queue().unwrap());

    let (_rt, catfs, _dev) = catfs_world();
    let _idle = bystander(&catfs, catfs.create("idle").unwrap());
    close_fails_the_pending_pop(&catfs, catfs.create("log").unwrap());

    let udp_queue = |libos: &dyn LibOs, port| {
        let qd = libos.socket(SocketKind::Udp).unwrap();
        libos.bind(qd, SocketAddr::new(host_ip(2), port)).unwrap();
        qd
    };
    let (_rt, _fabric, client, server) = catnip_pair(110);
    let _idle = bystander(&server, udp_queue(&server, 8));
    close_fails_the_pending_pop(&server, udp_queue(&server, 7));
    let (_, cqd, sqd) = connect_pair(&client, &server, 80);
    close_fails_the_pending_pop(&server, sqd);
    let unframed = client.pop_unframed(cqd).unwrap();
    client.close(cqd).unwrap();
    assert!(matches!(
        client.wait(unframed, Some(SimTime::from_millis(1))),
        Ok(OperationResult::Failed(_))
    ));

    let (_rt, _fabric, client, server) = catnap_pair(111);
    let _idle = bystander(&server, udp_queue(&server, 8));
    close_fails_the_pending_pop(&server, udp_queue(&server, 7));
    let (_, _, sqd) = connect_pair(&client, &server, 80);
    close_fails_the_pending_pop(&server, sqd);

    // catcorn's accepts park on the device's control gate: the bystander
    // is an accept on the other host's device.
    let (_rt, _fabric, client, server) = catcorn_pair(112);
    let (_, _, sqd) = connect_pair(&client, &server, 18515);
    let listener = |libos: &dyn LibOs, ip, port| {
        let qd = libos.socket(SocketKind::Tcp).unwrap();
        libos.bind(qd, SocketAddr::new(ip, port)).unwrap();
        libos.listen(qd, 8).unwrap();
        qd
    };
    let _idle = client.accept(listener(&client, host_ip(1), 9)).unwrap();
    close_fails_the_pending_pop(&server, sqd);
    let lqd = listener(&server, host_ip(2), 10);
    close_fails_the_pending(&server, lqd, |qd| server.accept(qd).unwrap());
}

/// The descriptor error contract: a call naming a descriptor that is not
/// open is `BadQDesc` (or `NotSupported` where the libOS has no such
/// call), and closing twice is the same thing.
fn unknown_descriptors_are_bad(libos: &dyn LibOs, open: QDesc, unknown: QDesc) {
    let kind = libos.kind().name();
    let addr = SocketAddr::new(host_ip(2), 81);
    let sga = Sga::from_slice(b"x");
    libos.close(open).unwrap();
    for qd in [open, unknown] {
        let control = [
            ("bind", libos.bind(qd, addr)),
            ("listen", libos.listen(qd, 1)),
            ("accept", libos.accept(qd).map(drop)),
            ("connect", libos.connect(qd, addr).map(drop)),
            ("pushto", libos.pushto(qd, &sga, addr).map(drop)),
        ];
        for (call, result) in control {
            assert!(
                matches!(
                    result,
                    Err(DemiError::BadQDesc | DemiError::NotSupported(_))
                ),
                "{kind}: {call}({qd:?}) = {result:?}"
            );
        }
        assert_eq!(libos.push(qd, &sga), Err(DemiError::BadQDesc), "{kind}");
        assert_eq!(libos.pop(qd), Err(DemiError::BadQDesc), "{kind}");
        assert_eq!(libos.close(qd), Err(DemiError::BadQDesc), "{kind}");
    }
}

/// ...and a call on an open descriptor of the wrong kind is `InvalidState`.
fn wrong_kind_is_invalid_state(client: &dyn LibOs, server: &dyn LibOs, port: u16) {
    let kind = server.kind().name();
    let (lqd, cqd, sqd) = connect_pair(client, server, port);
    let sga = Sga::from_slice(b"x");
    let wrong_kind = [
        ("push on a listener", server.push(lqd, &sga).map(drop)),
        ("pop on a listener", server.pop(lqd).map(drop)),
        ("listen on a connection", client.listen(cqd, 1)),
        ("accept on a data queue", server.accept(sqd).map(drop)),
    ];
    for (call, result) in wrong_kind {
        assert_eq!(result, Err(DemiError::InvalidState), "{kind}: {call}");
    }
    unknown_descriptors_are_bad(server, sqd, QDesc(0xdead));
}

#[test]
fn the_descriptor_error_contract_holds_on_every_libos() {
    let (_rt, catmem) = catmem_world();
    unknown_descriptors_are_bad(&catmem, catmem.queue().unwrap(), QDesc(0xdead));
    let (_rt, catfs, _dev) = catfs_world();
    unknown_descriptors_are_bad(&catfs, catfs.create("log").unwrap(), QDesc(0xdead));

    let (_rt, _fabric, client, server) = catnip_pair(120);
    wrong_kind_is_invalid_state(&client, &server, 80);
    let (_rt, _fabric, client, server) = catnap_pair(121);
    wrong_kind_is_invalid_state(&client, &server, 80);
    let (_rt, _fabric, client, server) = catcorn_pair(122);
    wrong_kind_is_invalid_state(&client, &server, 18515);

    // The facade answers for its own (virtual) range and passes the base
    // libOS's answers through.
    let (_rt, _fabric, client, server) = catnip_pair(123);
    let (client, server) = (
        Demikernel::new(Rc::new(client)),
        Demikernel::new(Rc::new(server)),
    );
    wrong_kind_is_invalid_state(&client, &server, 80);
    let base = server.socket(SocketKind::Udp).unwrap();
    let mapped = server.map(base, Rc::new(|s: Sga| s)).unwrap();
    let unknown = QDesc(demikernel::ops::VIRTUAL_QD_BASE + 0xdead);
    unknown_descriptors_are_bad(&server, mapped, unknown);
    assert_eq!(
        server.map(mapped, Rc::new(|s: Sga| s)),
        Err(DemiError::BadQDesc)
    );
}

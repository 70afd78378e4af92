//! The qtoken contract over the runtime's op slab: every token resolves
//! exactly once, through whichever wait gets there first; a consumed token
//! stays dead after its slot is reissued; an operation completed at
//! submission still reaches the device; pops on one queue resolve in issue
//! order; and a push costs the runtime no allocation.

mod support;

use std::cell::Cell;
use std::rc::Rc;

use demi_sched::yield_once;
use demikernel::testing::{catmem_world, catnip_pair, AllocMeter, CountingAlloc};
use demikernel::types::{DemiError, OperationResult, QDesc, QToken, Sga};
use demikernel::{LibOs, Runtime};
use proptest::prelude::*;
use sim_fabric::SimTime;
use support::udp_pair;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// What the plain model says a token must resolve to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// A catmem push: complete at submission.
    Push,
    /// A deferred op carrying its id as payload.
    Pop(u32),
}

struct Op {
    qt: QToken,
    expect: Expect,
    /// Completed at submission, so certainly complete when a wait begins.
    immediate: bool,
}

fn check(result: &OperationResult, expect: Expect) {
    match (result, expect) {
        (OperationResult::Push, Expect::Push) => {}
        (OperationResult::Pop { sga, .. }, Expect::Pop(id)) => {
            assert_eq!(sga.to_vec(), id.to_be_bytes(), "another op's result");
        }
        (other, expect) => panic!("expected {expect:?}, got {other:?}"),
    }
}

/// The model world: one catmem sink for submission-completed pushes, the
/// runtime for deferred ops, and the tokens still owed a wait.
struct World {
    rt: Runtime,
    libos: demikernel::libos::catmem::Catmem,
    sink: QDesc,
    live: Vec<Op>,
    /// Tokens already consumed: every one must stay `BadQToken` forever.
    dead: Vec<QToken>,
    /// Ops that never complete (the timeout probes); they stay outstanding.
    stuck: Vec<QToken>,
    next_id: u32,
}

impl World {
    fn new() -> World {
        let (rt, libos) = catmem_world();
        let sink = libos.queue().unwrap();
        World {
            rt,
            libos,
            sink,
            live: Vec::new(),
            dead: Vec::new(),
            stuck: Vec::new(),
            next_id: 0,
        }
    }

    fn submit_immediate(&mut self) {
        let qt = self.libos.push(self.sink, &Sga::from_slice(b"x")).unwrap();
        self.live.push(Op {
            qt,
            expect: Expect::Push,
            immediate: true,
        });
    }

    fn submit_deferred(&mut self, yields: u8) {
        let id = self.next_id;
        self.next_id += 1;
        let qt = self.rt.spawn_op("model::deferred", async move {
            for _ in 0..yields {
                yield_once().await;
            }
            OperationResult::Pop {
                from: None,
                sga: Sga::from_slice(&id.to_be_bytes()),
            }
        });
        self.live.push(Op {
            qt,
            expect: Expect::Pop(id),
            immediate: false,
        });
    }

    /// Up to `max` live ops starting at `start`, removed from `live`.
    fn pick(&mut self, start: u8, max: usize) -> Vec<Op> {
        if self.live.is_empty() {
            return Vec::new();
        }
        let start = start as usize % self.live.len();
        let end = (start + max).min(self.live.len());
        self.live.drain(start..end).collect()
    }

    fn consumed(&mut self, op: &Op, result: &OperationResult) {
        check(result, op.expect);
        assert_eq!(
            self.rt.wait(op.qt, None),
            Err(DemiError::BadQToken),
            "a second wait on a consumed token"
        );
        self.dead.push(op.qt);
    }

    fn wait_one(&mut self, pick: u8) {
        for op in self.pick(pick, 1) {
            let result = self.rt.wait(op.qt, None).unwrap();
            self.consumed(&op, &result);
        }
    }

    fn wait_any(&mut self, pick: u8) {
        let mut ops = self.pick(pick, 3);
        if ops.is_empty() {
            return;
        }
        let qts: Vec<QToken> = ops.iter().map(|op| op.qt).collect();
        let (i, result) = self.rt.wait_any(&qts, None).unwrap();
        // Among tokens complete on entry the lowest caller index wins.
        assert!(
            ops[..i].iter().all(|op| !op.immediate),
            "index {i} overtook a lower-index token that was already complete"
        );
        let op = ops.remove(i);
        self.consumed(&op, &result);
        // The rest stay valid.
        self.live.extend(ops);
    }

    fn wait_all(&mut self, pick: u8) {
        let ops = self.pick(pick, 4);
        let mut qts: Vec<QToken> = ops.iter().map(|op| op.qt).collect();
        if let Some(&first) = qts.first() {
            // A duplicate fails the call and consumes nothing.
            qts.push(first);
            assert_eq!(self.rt.wait_all(&qts, None), Err(DemiError::BadQToken));
            qts.pop();
        }
        let results = self.rt.wait_all(&qts, None).unwrap();
        assert_eq!(results.len(), ops.len());
        for (op, result) in ops.iter().zip(&results) {
            self.consumed(op, result);
        }
    }

    /// Resolves one live op inside a composing coroutine: the inner token
    /// is consumed by `await_op`, the coroutine's token inherits its
    /// expectation.
    fn await_one(&mut self, pick: u8) {
        for op in self.pick(pick, 1) {
            let inner = self.rt.await_op(op.qt);
            let qt = self.rt.spawn_op("model::awaiter", inner);
            self.live.push(Op {
                qt,
                expect: op.expect,
                immediate: false,
            });
        }
    }

    /// A timeout consumes nothing: the token stays valid (and times out
    /// again), and the clock stops exactly at the deadline.
    fn timeout_probe(&mut self) {
        let qt = self.rt.spawn_op("model::stuck", std::future::pending());
        let tick = SimTime::from_micros(3);
        for _ in 0..2 {
            let before = self.rt.now();
            assert_eq!(self.rt.wait(qt, Some(tick)), Err(DemiError::Timeout));
            assert_eq!(self.rt.now(), before.saturating_add(tick));
        }
        self.stuck.push(qt);
    }

    fn finish(mut self) {
        // Everything still owed resolves, in order, exactly once.
        let ops = std::mem::take(&mut self.live);
        let qts: Vec<QToken> = ops.iter().map(|op| op.qt).collect();
        let results = self.rt.wait_all(&qts, None).unwrap();
        for (op, result) in ops.iter().zip(&results) {
            self.consumed(op, result);
        }
        for &qt in &self.dead {
            assert_eq!(self.rt.wait(qt, None), Err(DemiError::BadQToken));
        }
        assert_eq!(
            self.rt.outstanding(),
            self.stuck.len(),
            "only the never-completing probes stay outstanding"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interleavings of submission-completed and deferred ops,
    /// resolved through `wait`/`wait_any`/`wait_all`/`await_op`, against
    /// the plain model above.
    #[test]
    fn every_token_resolves_exactly_once(
        script in prop::collection::vec((0u8..8, any::<u8>()), 1..60),
    ) {
        let mut world = World::new();
        for (action, arg) in script {
            match action {
                0 | 1 => world.submit_immediate(),
                2 => world.submit_deferred(arg % 4),
                3 => world.wait_one(arg),
                4 => world.wait_any(arg),
                5 => world.wait_all(arg),
                6 => world.await_one(arg),
                _ => world.timeout_probe(),
            }
        }
        world.finish();
    }
}

/// `wait_any(&[])` names nothing that could complete: it fails at entry
/// instead of driving the world — and every pending timer — forward until
/// it can report a deadlock. `wait_all(&[])` is vacuously satisfied.
#[test]
fn empty_waits_do_not_touch_the_clock() {
    let rt = Runtime::new();
    let timers = rt.timers().clone();
    let sleeper = rt.spawn_op("sleeper", async move {
        timers.sleep(SimTime::from_millis(5)).await;
        OperationResult::Push
    });
    rt.pump();
    let before = rt.now();
    assert_eq!(rt.wait_any(&[], None), Err(DemiError::BadQToken));
    assert_eq!(rt.wait_all(&[], None), Ok(vec![]));
    assert_eq!(rt.now(), before, "an empty wait advanced virtual time");
    assert!(matches!(rt.wait(sleeper, None), Ok(OperationResult::Push)));
}

/// A consumed token whose slot has been reissued is `BadQToken`, never the
/// new operation's result — for every token the slot ever carried.
#[test]
fn a_reissued_slot_rejects_every_stale_token() {
    let rt = Runtime::new();
    let mut stale: Vec<QToken> = Vec::new();
    for id in 0..100u32 {
        // One op in flight at a time: the slab has one slot, reissued on
        // every round, alternating deferred and submission-completed.
        let qt = rt.spawn_op("reissue", async move {
            if id % 2 == 0 {
                yield_once().await;
            }
            OperationResult::Pop {
                from: None,
                sga: Sga::from_slice(&id.to_be_bytes()),
            }
        });
        assert!(!stale.contains(&qt), "a token value was issued twice");
        for &old in &stale {
            assert_eq!(rt.wait(old, None), Err(DemiError::BadQToken));
            assert_eq!(rt.wait_any(&[old, qt], None), Err(DemiError::BadQToken));
        }
        assert_eq!(rt.outstanding(), 1);
        check(&rt.wait(qt, None).unwrap(), Expect::Pop(id));
        assert_eq!(rt.outstanding(), 0);
        stale.push(qt);
    }
}

/// The liveness rule: a sender that only ever does `pushto; wait` — no
/// pop, no blocking wait, nothing that pumps the world — still transmits.
/// Every frame is in the device's hands by the time its wait returns, so
/// the TX ring never holds more than the one burst being flushed.
#[test]
fn a_push_only_sender_still_transmits() {
    const DATAGRAMS: u32 = 1_000;
    let (rt, fabric, client, server) = catnip_pair(31);
    let (cqd, sqd, server_addr) = udp_pair(&client, &server);
    // One round trip first, so ARP is resolved and nothing queues behind it.
    let qt = client
        .pushto(cqd, &Sga::from_slice(b"warm"), server_addr)
        .unwrap();
    client.wait(qt, None).unwrap();
    server.blocking_pop(sqd).unwrap();

    let sent_before = client.port().stats().tx_frames;
    let bursts_before = client.port().stats().tx_burst_calls;
    let received = Rc::new(Cell::new(0u32));
    for i in 0..DATAGRAMS {
        let qt = client
            .pushto(cqd, &Sga::from_slice(&i.to_be_bytes()), server_addr)
            .unwrap();
        client.wait(qt, None).unwrap();
        let port = client.port().stats();
        assert_eq!(
            port.tx_frames - sent_before,
            u64::from(i) + 1,
            "datagram {i} was still in the TX ring when its wait returned"
        );
        assert_eq!(port.tx_burst_calls - bursts_before, u64::from(i) + 1);
        // The receiver drains as a coroutine (its RX ring is finite), but
        // only a blocking wait would run it: none happens in this loop.
        assert_eq!(received.get(), 0);
    }
    assert_eq!(rt.outstanding(), 0);

    // Now let the world run: all of them arrive, in order.
    let done = rt.spawn_op("drain", {
        let (server, received) = (server.clone(), received.clone());
        async move {
            for i in 0..DATAGRAMS {
                let pop = server.pop(sqd).unwrap();
                let OperationResult::Pop { sga, .. } = server.runtime().await_op(pop).await else {
                    return OperationResult::Failed(DemiError::Closed);
                };
                assert_eq!(sga.to_vec(), i.to_be_bytes(), "datagrams reordered");
                received.set(received.get() + 1);
            }
            OperationResult::Push
        }
    });
    assert!(matches!(rt.wait(done, None), Ok(OperationResult::Push)));
    assert_eq!(received.get(), DATAGRAMS);
    assert_eq!(fabric.stats().frames_dropped, 0);
}

/// Pops on one queue resolve in the order they were issued: a pop issued
/// while an earlier pop on the same queue is pending never overtakes it,
/// whether the elements arrive before or after the second pop is issued.
#[test]
fn a_later_pop_does_not_overtake_a_pending_one() {
    // In memory.
    let (_rt, libos) = catmem_world();
    let qd = libos.queue().unwrap();
    let first = libos.pop(qd).unwrap();
    libos.blocking_push(qd, &Sga::from_slice(b"1")).unwrap();
    let second = libos.pop(qd).unwrap(); // an element is queued right now
    libos.blocking_push(qd, &Sga::from_slice(b"2")).unwrap();
    let results = libos.wait_all(&[second, first], None).unwrap();
    assert_eq!(results[1].clone().expect_pop().1.to_vec(), b"1");
    assert_eq!(results[0].clone().expect_pop().1.to_vec(), b"2");

    // Over the wire.
    let (_rt, _fabric, client, server) = catnip_pair(32);
    let (cqd, sqd, server_addr) = udp_pair(&client, &server);
    let first = server.pop(sqd).unwrap();
    let second = server.pop(sqd).unwrap();
    for payload in [b"1", b"2"] {
        let qt = client
            .pushto(cqd, &Sga::from_slice(payload), server_addr)
            .unwrap();
        client.wait(qt, None).unwrap();
    }
    let (i, result) = server.wait_any(&[second, first], None).unwrap();
    assert_eq!(i, 1, "the pop issued first resolves first");
    assert_eq!(result.expect_pop().1.to_vec(), b"1");
    let (_, sga) = server.wait(second, None).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), b"2");
}

/// A push costs the runtime and the scheduler nothing: on a warmed catnip
/// pair (whose datapath is itself allocation-free), `pushto` + `wait` of
/// the push token allocates zero times. The payload's `sgaalloc` is the
/// operation's only allocation and happens before the window.
#[test]
fn a_push_and_its_wait_allocate_nothing() {
    let (_rt, _fabric, client, server) = catnip_pair(33);
    let (cqd, sqd, server_addr) = udp_pair(&client, &server);
    let payload = || {
        let mut sga = client.sgaalloc(64);
        sga.segments_mut()[0].try_mut().unwrap().fill(0xA5);
        sga
    };
    // Warm every ring, pool and slab on the path (and resolve ARP).
    for _ in 0..8 {
        let qt = client.pushto(cqd, &payload(), server_addr).unwrap();
        client.wait(qt, None).unwrap();
        server.blocking_pop(sqd).unwrap();
    }

    let meter = AllocMeter::arm();
    drop(std::hint::black_box(Box::new(0u64)));
    assert_eq!(meter.count(), 1, "the meter is not installed");
    drop(meter);

    let sga = payload();
    let meter = AllocMeter::arm();
    let qt = client.pushto(cqd, &sga, server_addr).unwrap();
    client.wait(qt, None).unwrap();
    let allocs = meter.count();
    drop(meter);
    assert_eq!(allocs, 0, "pushto + wait allocated {allocs} times");
    let (_, echoed) = server.blocking_pop(sqd).unwrap().expect_pop();
    assert_eq!(echoed.to_vec(), sga.to_vec());
}

//! The qtoken contract over the runtime's op slab: every token resolves
//! exactly once, through whichever wait gets there first; a consumed token
//! stays dead after its slot is reissued; a wait that times out consumes
//! nothing; an operation completed at submission still reaches the device;
//! pops on one queue resolve in issue order; and an operation is a slot,
//! not an allocation — a push, and a whole UDP echo round trip, cost the
//! runtime none.

mod support;

use std::cell::Cell;
use std::rc::Rc;

use demi_kv::resp::encode_command;
use demi_kv::{KvEngine, KvEngineConfig};
use demi_sched::yield_once;
use demi_telemetry::span::SpanPoint::Delivered;
use demikernel::testing::{catcorn_pair, catfs_world, catmem_world, catnip_pair, AllocMeter};
use demikernel::types::{DemiError, OperationResult, QDesc, QToken, Sga};
use demikernel::{LibOs, Runtime};
use proptest::prelude::*;
use sim_fabric::SimTime;
use support::alloc_sites::{assert_allocs, SiteAlloc};
use support::{deferred_op, spawn_kv_server, spawn_udp_echo, tcp_pair, udp_pair};

#[global_allocator]
static ALLOCATOR: SiteAlloc = SiteAlloc;

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
        let qt = deferred_op(&self.rt, "model::deferred", async move {
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
            let qt = deferred_op(&self.rt, "model::awaiter", inner);
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
        let qt = deferred_op(&self.rt, "model::stuck", std::future::pending());
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
    let sleeper = deferred_op(&rt, "sleeper", async move {
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
        let qt = deferred_op(&rt, "reissue", async move {
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
    let done = deferred_op(&rt, "drain", {
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

/// The steady-state echo allocates nothing at all: the request's
/// `sgaalloc`, both pushes and both pops with their waits — each pop parked
/// in its op slot, each pool buffer's header recycled, each one-segment
/// array inline. Catches, one line each, `Sga::from_bufs(vec![payload])`
/// back in catnip's UDP pop or `sgaalloc` (one `Vec` per array) — and any
/// per-pop box or waiter cell, which would cost two allocations a round.
#[test]
fn a_udp_echo_round_trip_allocates_nothing() {
    warmed_echo_allocates_nothing(34, false);
}

/// Telemetry on costs no allocation either: each op's span collects its
/// stamps in the op's slot and is pushed onto the span ring (reserved
/// whole by its first span) when the wait consumes the op; the stage
/// histograms are fixed arrays. A keyed side index of open spans, or a
/// ring grown by doubling, allocates inside the window.
#[test]
fn a_traced_udp_echo_round_trip_allocates_nothing() {
    warmed_echo_allocates_nothing(35, true);
}

fn warmed_echo_allocates_nothing(seed: u64, traced: bool) {
    let (rt, _fabric, client, server) = catnip_pair(seed);
    if traced {
        demikernel::telemetry::enable(&rt);
        demikernel::telemetry::reset();
    }
    let (cqd, sqd, server_addr) = udp_pair(&client, &server);
    let round = || {
        let mut request = client.sgaalloc(64);
        request.segments_mut()[0].try_mut().unwrap().fill(0xA5);
        let qt = client.pushto(cqd, &request, server_addr).unwrap();
        client.wait(qt, None).unwrap();
        let qt = server.pop(sqd).unwrap();
        let (from, sga) = server.wait(qt, None).unwrap().expect_pop();
        let qt = server.pushto(sqd, &sga, from.unwrap()).unwrap();
        server.wait(qt, None).unwrap();
        let qt = client.pop(cqd).unwrap();
        let (_, reply) = client.wait(qt, None).unwrap().expect_pop();
        assert_eq!(reply.segments()[0].as_slice(), &[0xA5; 64]);
    };
    // Warm every ring, pool, slab and free list on the path (and ARP).
    (0..8).for_each(|_| round());
    assert_allocs(0, "a UDP echo round trip", round);
    if traced {
        demikernel::telemetry::disable();
        let spans = demi_telemetry::span::drain();
        demikernel::telemetry::reset();
        // Four ops a round over nine rounds, each recorded once, by its wait.
        let delivered = spans.iter().filter(|s| s.stamp(Delivered).is_some());
        assert_eq!((spans.len(), delivered.count()), (4 * 9, 4 * 9));
    }
}

/// A `wait_all` that times out consumes nothing: a completion that did
/// arrive — here a pop holding its bytes — stays in its slot for the next
/// wait. A wait that took arrivals as they came would drop them with the
/// timeout, leaving the pop's token `BadQToken` and its bytes gone.
#[test]
fn a_wait_all_that_times_out_consumes_nothing() {
    let (rt, libos) = catmem_world();
    let qd = libos.queue().unwrap();
    libos.blocking_push(qd, &Sga::from_slice(b"kept")).unwrap();
    let fast = libos.pop(qd).unwrap();
    let timers = rt.timers().clone();
    let slow = deferred_op(&rt, "sleeper", async move {
        timers.sleep(SimTime::from_millis(10)).await;
        OperationResult::Push
    });
    let tick = Some(SimTime::from_millis(1));
    assert_eq!(rt.wait_all(&[fast, slow], tick), Err(DemiError::Timeout));
    let (_, sga) = rt.wait(fast, None).unwrap().expect_pop();
    assert_eq!(sga.to_vec(), b"kept");
    assert_eq!(rt.wait(slow, None), Ok(OperationResult::Push));
    assert_eq!(rt.outstanding(), 0);
}

/// Nor does a `wait_any` that times out: every token stays valid.
#[test]
fn a_wait_any_that_times_out_consumes_nothing() {
    let (rt, libos) = catmem_world();
    let qd = libos.queue().unwrap();
    let pop = libos.pop(qd).unwrap();
    let timers = rt.timers().clone();
    let slow = deferred_op(&rt, "sleeper", async move {
        timers.sleep(SimTime::from_millis(10)).await;
        OperationResult::Push
    });
    let tick = Some(SimTime::from_millis(1));
    assert_eq!(rt.wait_any(&[pop, slow], tick), Err(DemiError::Timeout));
    libos.blocking_push(qd, &Sga::from_slice(b"late")).unwrap();
    let results = rt.wait_all(&[pop, slow], None).unwrap();
    assert_eq!(results[0].clone().expect_pop().1.to_vec(), b"late");
    assert_eq!(results[1], OperationResult::Push);
}

/// A blocked catfs pop is a parked slot the poller feeds, not a coroutine:
/// a warmed `blocking_pop` of a 100-byte record allocates exactly 7 times
/// — the device's two block buffers (header and payload reads), the
/// record's bytes (header, then payload) and three for the popped `Sga`'s
/// buffer. With a coroutine per pop it was 8: the task's box.
#[test]
fn a_warmed_catfs_pop_allocates_no_task() {
    const CATFS_POP_ALLOCS: u64 = 7;
    let (_rt, fs, _device) = catfs_world();
    let qd = fs.create("pins").unwrap();
    let record = Sga::from_slice(&[0x5C; 100]);
    // 64 warm rounds, the measured one and a re-run to report sites.
    for _ in 0..66 {
        fs.blocking_push(qd, &record).unwrap();
    }
    let pop = || {
        let (_, sga) = fs.blocking_pop(qd).unwrap().expect_pop();
        assert_eq!(sga.len(), 100);
    };
    (0..64).for_each(|_| pop());
    assert_allocs(CATFS_POP_ALLOCS, "a warmed catfs blocking_pop", pop);
}

/// A catcorn push is a parked slot too: its send queues on the connection
/// and the poller posts it. A warmed 64-byte `blocking_push` allocates
/// exactly 13 times: the staging vector, and the RDMA model's wire
/// messages, frames and completion vectors. With a coroutine per push it
/// was 14: the task's box.
#[test]
fn a_warmed_catcorn_push_allocates_no_task() {
    const CATCORN_PUSH_ALLOCS: u64 = 13;
    let (_rt, _fabric, client, server) = catcorn_pair(43);
    let (cqd, sqd) = tcp_pair(&client, &server, 18516);
    let message = Sga::from_slice(&[0xC0; 64]);
    let push = || {
        let pushed = client.blocking_push(cqd, &message).unwrap();
        assert_eq!(pushed, OperationResult::Push);
    };
    for _ in 0..64 {
        push();
        server.blocking_pop(sqd).unwrap().expect_pop();
    }
    assert_allocs(CATCORN_PUSH_ALLOCS, "a warmed catcorn blocking_push", push);
}

/// A parked op is not a scheduler task. Warmed rounds of a catnip UDP echo
/// and of a depth-1 TCP GET, each served by a coroutine shaped like the
/// perf ledger's (pop, await, serve, push, await), spawn no task and
/// allocate nothing, and each takes exactly one scheduler poll and one
/// wakeup: the server coroutine's, woken by its pop's completion. With
/// every parked op a keyed task, a round spawned 2 tasks and took 5 polls
/// and 3 wakeups.
#[test]
fn a_served_round_spawns_no_task_and_polls_its_server_once() {
    let (rt, _fabric, client, server) = catnip_pair(37);
    let (cqd, sqd, to) = udp_pair(&client, &server);
    spawn_udp_echo(&server, sqd);
    let echo = || {
        let mut request = client.sgaalloc(64);
        request.segments_mut()[0].try_mut().unwrap().fill(0xA5);
        let qt = client.pushto(cqd, &request, to).unwrap();
        client.wait(qt, None).unwrap();
        let qt = client.pop(cqd).unwrap();
        let (_, reply) = client.wait(qt, None).unwrap().expect_pop();
        assert_eq!(reply.segments()[0].as_slice(), &[0xA5; 64]);
    };
    (0..8).for_each(|_| echo());
    assert_served_rounds(&rt, "a served UDP echo", echo);

    let (rt, _fabric, client, server) = catnip_pair(38);
    let (cqd, sqd) = tcp_pair(&client, &server, 6379);
    let config = KvEngineConfig {
        byte_budget: 1 << 20,
        durable: false,
    };
    let engine = KvEngine::new(config, server.memory().clone(), rt.now());
    spawn_kv_server(&server, sqd, Rc::new(engine.into()), None);
    let client = &client;
    let command = |args: &[&[u8]], reply: usize| {
        let mut bytes = Vec::new();
        encode_command(&mut bytes, args);
        move || {
            let mut request = client.sgaalloc(bytes.len());
            request.segments_mut()[0]
                .try_mut()
                .unwrap()
                .copy_from_slice(&bytes);
            let qt = client.push_unframed(cqd, &request).unwrap();
            client.wait(qt, None).unwrap();
            let qt = client.pop_unframed(cqd).unwrap();
            let (_, got) = client.wait(qt, None).unwrap().expect_pop();
            assert_eq!(got.len(), reply, "one pop, the whole reply");
        }
    };
    command(&[b"SET", b"key", &[0x5A; 64]], b"+OK\r\n".len())();
    let get = command(&[b"GET", b"key"], b"$64\r\n\r\n".len() + 64);
    // Warm the pools, rings and timer-wheel slots of a spaced round, in
    // steps below the 5 ms idle compaction.
    for _ in 0..100 {
        get();
        rt.settle(SimTime::from_micros(200));
    }
    assert_served_rounds(&rt, "a served depth-1 GET", get);
}

/// Pins [`ROUNDS`] warmed rounds at 0 spawns, 1 scheduler poll and 1
/// wakeup each, and one round at 0 allocations.
fn assert_served_rounds(rt: &Runtime, what: &str, round: impl Fn()) {
    const ROUNDS: u64 = 16;
    let before = rt.scheduler().stats();
    (0..ROUNDS).for_each(|_| round());
    let after = rt.scheduler().stats();
    let per_round = |n: u64| n as f64 / ROUNDS as f64;
    assert_eq!(
        (
            after.spawned - before.spawned,
            per_round(after.polls - before.polls),
            per_round(after.wakeups - before.wakeups),
        ),
        (0, 1.0, 1.0),
        "{what}: spawns, scheduler polls and wakeups a round"
    );
    assert_allocs(0, what, round);
}

//! RSS flow steering and sharded-stack invariants (PR 4, toward E14).
//!
//! Three layers are pinned here:
//!
//! * the device's RSS hash is deterministic and symmetric, and spreads
//!   distinct flows across queues (property tests);
//! * the hierarchical timing wheel fires *identically* to the linear
//!   earliest-deadline scan it replaced (differential test);
//! * the stack built on both behaves: a sharded stack serves many flows
//!   with zero cross-shard traffic and strands no queue, and parked
//!   connections cost neither timer work nor virtual-time latency.

use std::net::Ipv4Addr;

use demi_memory::DemiBuffer;
use dpdk_sim::{rss, DpdkPort, PortConfig};
use net_stack::tcp::wheel::TimerWheel;
use net_stack::types::SocketAddr;
use net_stack::{NetworkStack, StackConfig};
use proptest::prelude::*;
use sim_fabric::{Fabric, MacAddress, SimTime};

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

// ---------------------------------------------------------------------
// RSS properties.
// ---------------------------------------------------------------------

proptest! {
    /// The hash is a pure function of the 4-tuple and is symmetric: both
    /// directions of a flow hash identically, so request and response land
    /// on the same queue (and the same stack shard).
    #[test]
    fn rss_hash_is_deterministic_and_symmetric(
        a_ip in any::<u32>(),
        a_port in any::<u16>(),
        b_ip in any::<u32>(),
        b_port in any::<u16>(),
        queues in 1u16..16,
    ) {
        let a = Ipv4Addr::from(a_ip);
        let b = Ipv4Addr::from(b_ip);
        let forward = rss::hash_tuple(a, a_port, b, b_port);
        prop_assert_eq!(forward, rss::hash_tuple(a, a_port, b, b_port));
        prop_assert_eq!(forward, rss::hash_tuple(b, b_port, a, a_port));
        prop_assert_eq!(
            rss::queue_for_tuple(a, a_port, b, b_port, queues),
            rss::queue_for_tuple(b, b_port, a, a_port, queues)
        );
        prop_assert!(rss::queue_for_tuple(a, a_port, b, b_port, queues) < queues);
    }

    /// Enough distinct flows cover every queue of a 4-queue port: no queue
    /// (and hence no shard) is structurally unreachable.
    #[test]
    fn random_flows_reach_every_queue_of_four(seed in any::<u32>()) {
        let mut hits = [0u32; 4];
        for i in 0..64u32 {
            // 64 distinct client ports against one server endpoint.
            let port = 1_024u16.wrapping_add((seed.wrapping_add(i * 7919) % 60_000) as u16);
            let q = rss::queue_for_tuple(ip(1), port, ip(2), 80, 4);
            hits[q as usize] += 1;
        }
        prop_assert!(
            hits.iter().all(|&h| h > 0),
            "64 flows left a queue idle: {:?}", hits
        );
    }
}

// ---------------------------------------------------------------------
// Timing wheel vs linear scan, differentially.
// ---------------------------------------------------------------------

/// The pre-wheel implementation: a flat list scanned linearly, exactly
/// the `advance_timers` + earliest-deadline walk the wheel replaced.
struct LinearTimers {
    entries: Vec<(u64, u64, u32)>, // (deadline, seq, key)
    seq: u64,
}

impl LinearTimers {
    fn new() -> Self {
        LinearTimers {
            entries: Vec::new(),
            seq: 0,
        }
    }

    fn schedule(&mut self, deadline: u64, key: u32) {
        self.entries.push((deadline, self.seq, key));
        self.seq += 1;
    }

    fn advance(&mut self, now: u64) -> Vec<(u64, u32)> {
        let mut due: Vec<(u64, u64, u32)> = self
            .entries
            .iter()
            .copied()
            .filter(|&(d, _, _)| d <= now)
            .collect();
        self.entries.retain(|&(d, _, _)| d > now);
        due.sort_by_key(|&(d, s, _)| (d, s));
        due.into_iter().map(|(d, _, k)| (d, k)).collect()
    }

    fn peek(&self, live: impl Fn(u32) -> bool) -> Option<u64> {
        self.entries
            .iter()
            .filter(|&&(_, _, k)| live(k))
            .map(|&(d, _, _)| d)
            .min()
    }
}

/// The wheel and the linear scan side by side, fed the same schedules,
/// kills and advances and compared after every one of them.
struct Differential {
    wheel: TimerWheel<u32>,
    linear: LinearTimers,
    /// Liveness by key (keys count schedules). A kill is one-way, as lazy
    /// cancellation is: the wheel may discard a dead entry at any time.
    dead: Vec<bool>,
    now: u64,
}

impl Differential {
    fn schedule(&mut self, deadline: u64) -> u32 {
        let key = self.dead.len() as u32;
        self.dead.push(false);
        self.wheel.schedule(SimTime::from_nanos(deadline), key);
        self.linear.schedule(deadline, key);
        self.check_peek();
        key
    }

    fn kill(&mut self, key: u32) {
        self.dead[key as usize] = true;
        self.check_peek();
    }

    fn advance_to(&mut self, now: u64) {
        self.now = now;
        let dead = &self.dead;
        let wheel_fired: Vec<(u64, u32)> = self
            .wheel
            .advance(SimTime::from_nanos(now))
            .into_iter()
            .map(|(t, k)| (t.as_nanos(), k))
            .filter(|&(_, k)| !dead[k as usize])
            .collect();
        let linear_fired: Vec<(u64, u32)> = self
            .linear
            .advance(now)
            .into_iter()
            .filter(|&(_, k)| !dead[k as usize])
            .collect();
        prop_assert_eq!(wheel_fired, linear_fired, "divergence at t={}", now);
        self.check_peek();
    }

    fn check_peek(&mut self) {
        let dead = &self.dead;
        prop_assert_eq!(
            self.wheel
                .peek_earliest_live(|&k| !dead[k as usize])
                .map(|t| t.as_nanos()),
            self.linear.peek(|k| !dead[k as usize]),
            "earliest live deadline diverged at t={}",
            self.now
        );
        // The wheel tracks every pending live entry and nothing the
        // linear list does not (it may have discarded dead ones).
        let live = self.linear.entries.iter().filter(|e| !dead[e.2 as usize]);
        prop_assert!(live.count() <= self.wheel.len());
        prop_assert!(self.wheel.len() <= self.linear.entries.len());
    }
}

/// 1 ns to 30 ms, every scale in between equally likely.
fn stride(x: u64) -> u64 {
    1 + (((x >> 8) % 30_000_000) >> (x % 25))
}

proptest! {
    /// Any interleaving of schedules (relative to wherever the cursor has
    /// moved: already past, every level, beyond the 68.7 s horizon),
    /// one-way kills, re-arms and irregular advances fires in the
    /// identical order, at the identical times, and answers every
    /// earliest-live-deadline question identically, under the wheel and
    /// under the linear scan — compared after *every* step.
    #[test]
    fn wheel_fires_identically_to_linear_scan(
        steps in prop::collection::vec((0u8..8, any::<u64>()), 100..400),
    ) {
        let mut d = Differential {
            wheel: TimerWheel::new(SimTime::ZERO),
            linear: LinearTimers::new(),
            dead: Vec::new(),
            now: 0,
        };
        // With the cursor moved, re-arm a far timer behind a nearer live
        // one on the same level often enough that the abandoned entries
        // (which no peek walks past) cross the scrub threshold.
        d.advance_to(stride(steps[0].1));
        d.schedule(d.now + 20_000_000);
        let mut rearmed = d.schedule(d.now + 200_000_000);
        for i in 0..70 {
            d.kill(rearmed);
            rearmed = d.schedule(d.now + 200_000_000 + i);
        }
        prop_assert!(d.wheel.len() <= 2 * 2 + 65, "72 entries, 2 live: no scrub ran");
        for &(op, x) in &steps {
            let distance = (x >> 8) % (1 << (x % 40));
            match op {
                0 | 1 => {
                    d.schedule(d.now + distance);
                }
                2 => {
                    d.schedule(d.now.saturating_sub(distance % 1_000));
                }
                3 => d.kill((x % d.dead.len() as u64) as u32),
                4 => {
                    d.kill(rearmed);
                    rearmed = d.schedule(d.now + 200_000_000 + x % 1_000);
                }
                _ => d.advance_to(d.now + stride(x)),
            }
        }
        // Drain: alternately jump to the earliest remaining deadline (what
        // an event loop does) and take one more irregular stride.
        for turn in 0.. {
            let Some(next) = d.linear.entries.iter().map(|e| e.0).min() else {
                break;
            };
            let step = stride(steps[turn % steps.len()].1);
            d.advance_to(if turn % 2 == 0 { next.max(d.now) } else { d.now + step });
        }
        prop_assert!(d.wheel.is_empty());
    }
}

// ---------------------------------------------------------------------
// Stack-level behavior on multi-queue devices.
// ---------------------------------------------------------------------

/// Runs the world until `until` returns true or the simulation wedges.
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
        let deadline = stacks.iter().filter_map(|s| s.next_deadline()).min();
        match deadline {
            Some(t) => fabric.clock().advance_to(t),
            None => return, // Fully quiescent.
        }
    }
    panic!("simulation did not settle");
}

fn multi_queue_host(fabric: &Fabric, last: u8, queues: u16) -> (NetworkStack, DpdkPort) {
    let port = DpdkPort::new(
        fabric,
        PortConfig {
            num_rx_queues: queues,
            ..PortConfig::basic(MacAddress::from_last_octet(last))
        },
    );
    let stack = NetworkStack::new(port.clone(), fabric.clock(), StackConfig::new(ip(last)));
    (stack, port)
}

/// A sharded 4-queue pair serving 16 TCP flows: every connection works,
/// every frame arrives on the shard that owns its flow (zero steering
/// mismatches, zero handoffs), the load reaches multiple shards, and no
/// device queue is left stranded.
#[test]
fn sharded_stacks_serve_flows_with_zero_cross_shard_traffic() {
    let fabric = Fabric::new(7);
    let (a, a_port) = multi_queue_host(&fabric, 1, 4);
    let (b, b_port) = multi_queue_host(&fabric, 2, 4);
    assert_eq!(a.num_shards(), 4);

    let lid = b.tcp_listen(80, 64).unwrap();
    let conns: Vec<_> = (0..16)
        .map(|_| a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap())
        .collect();
    for (j, &conn) in conns.iter().enumerate() {
        settle(&fabric, &[&a, &b], || {
            a.tcp_state(conn) == Ok(net_stack::tcp::State::Established)
        });
        // Connection j drew ephemeral port 32768+j; the id-stride rule
        // says its id mod N is the shard that tuple hashes to.
        let port = 32_768 + j as u16;
        assert_eq!(
            a.shard_for(port, SocketAddr::new(ip(2), 80)),
            conn.0 as usize % a.num_shards(),
            "connection placed on the shard its tuple hashes to"
        );
    }
    let mut accepted = Vec::new();
    settle(&fabric, &[&a, &b], || {
        while let Some(c) = b.tcp_accept(lid).unwrap() {
            accepted.push(c);
        }
        accepted.len() == conns.len()
    });

    for (i, &conn) in conns.iter().enumerate() {
        let msg = format!("req-{i}");
        a.tcp_send(conn, DemiBuffer::from_slice(msg.as_bytes()))
            .unwrap();
    }
    let mut echoed = 0;
    settle(&fabric, &[&a, &b], || {
        for &sc in &accepted {
            if let Ok(Some(chunk)) = b.tcp_recv(sc) {
                b.tcp_send(sc, chunk).unwrap();
            }
        }
        for &conn in &conns {
            if a.tcp_recv(conn).ok().flatten().is_some() {
                echoed += 1;
            }
        }
        echoed == conns.len()
    });

    for stack in [&a, &b] {
        let mut shards_with_rx = 0;
        for i in 0..stack.num_shards() {
            let s = stack.shard_stats(i);
            assert_eq!(s.steering_mismatches, 0, "RSS and shard_for agree");
            assert_eq!(s.handoffs_in, 0, "no cross-shard frame traffic");
            if s.rx_frames > 0 {
                shards_with_rx += 1;
            }
        }
        assert!(
            shards_with_rx >= 2,
            "16 flows must exercise more than one shard"
        );
    }
    for port in [&a_port, &b_port] {
        let queue_stats = port.queue_stats();
        let landed = queue_stats.iter().filter(|q| q.enqueued > 0).count();
        assert!(landed >= 2, "16 flows must spread past queue 0");
        assert!(
            queue_stats.iter().all(|q| q.depth == 0),
            "no queue left stranded: {queue_stats:?}"
        );
    }
}

/// Idle connections cost nothing per poll: with 200 established-and-quiet
/// connections resident, a poll pass fires no timers, the timer-wheel
/// counters stay still (timer cost scales with *firing* timers), and a
/// hot flow's virtual-time echo RTT is the RTT of a world with none —
/// E14's idle-connection claim.
#[test]
fn idle_connections_do_not_tick_timers() {
    let fabric = Fabric::new(11);
    let (a, _) = multi_queue_host(&fabric, 1, 4);
    let (b, _) = multi_queue_host(&fabric, 2, 4);
    b.tcp_listen(80, 256).unwrap();
    let conns: Vec<_> = (0..200)
        .map(|_| a.tcp_connect(SocketAddr::new(ip(2), 80)).unwrap())
        .collect();
    settle(&fabric, &[&a, &b], || {
        conns
            .iter()
            .all(|&c| a.tcp_state(c) == Ok(net_stack::tcp::State::Established))
    });
    // Let every delayed-ACK and handshake timer drain.
    settle(&fabric, &[&a, &b], || false);

    let before = net_stack::counters::shard_snapshot();
    for _ in 0..100 {
        a.poll();
        b.poll();
        assert_eq!(a.next_deadline().or(b.next_deadline()), None);
    }
    let moved = net_stack::counters::shard_snapshot().delta(&before);
    assert_eq!(moved.timers_fired, 0, "idle connections fire nothing");
    assert_eq!(moved.timers_scheduled, 0, "and schedule nothing");
    assert_eq!(moved.timer_buckets_visited, 0, "and no wheel slot is read");

    let empty = Fabric::new(11);
    let (c, _) = multi_queue_host(&empty, 1, 4);
    let (d, _) = multi_queue_host(&empty, 2, 4);
    assert_eq!(
        echo_rtt(&fabric, &a, &b),
        echo_rtt(&empty, &c, &d),
        "parked connections must not move the virtual-time RTT"
    );
}

/// The cost `timers_fired` cannot see: every wait pass asks both stacks
/// for their earliest deadline and advances both wheels, and none of that
/// may look at an empty wheel slot. A thousand `pushto`/`pop`/`wait` UDP
/// echoes through the whole libOS visit exactly zero slots with no TCP
/// state at all, and at most one slot per level per question (four
/// questions a round trip) with 200 idle connections resident.
#[test]
fn udp_echoes_visit_no_empty_timer_buckets() {
    use demikernel::libos::{LibOs, SocketKind};
    use demikernel::testing::{catnip_pair, host_ip};
    use demikernel::types::{OperationResult, Sga};
    const ECHOES: u64 = 1_000;

    for idle_conns in [0, 200] {
        let (rt, _fabric, client, server) = catnip_pair(17);
        if idle_conns > 0 {
            let lqd = server.socket(SocketKind::Tcp).unwrap();
            server.bind(lqd, SocketAddr::new(host_ip(2), 80)).unwrap();
            server.listen(lqd, idle_conns).unwrap();
            for _ in 0..idle_conns {
                let aqt = server.accept(lqd).unwrap();
                let cqd = client.socket(SocketKind::Tcp).unwrap();
                let cqt = client
                    .connect(cqd, SocketAddr::new(host_ip(2), 80))
                    .unwrap();
                server.wait(aqt, None).unwrap().expect_accept();
                client.wait(cqt, None).unwrap();
            }
        }
        let sqd = server.socket(SocketKind::Udp).unwrap();
        server.bind(sqd, SocketAddr::new(host_ip(2), 7)).unwrap();
        let cqd = client.socket(SocketKind::Udp).unwrap();
        client.bind(cqd, SocketAddr::new(host_ip(1), 9000)).unwrap();
        let echo = server.clone();
        rt.spawn_background("echo", async move {
            loop {
                let qt = echo.pop(sqd).unwrap();
                let OperationResult::Pop { from, sga } = echo.runtime().await_op(qt).await else {
                    return;
                };
                let qt = echo.pushto(sqd, &sga, from.unwrap()).unwrap();
                echo.runtime().await_op(qt).await;
            }
        });
        let round = || {
            let sga = Sga::from_bufs(vec![DemiBuffer::from_slice(&[0xA5; 64])]);
            let qt = client
                .pushto(cqd, &sga, SocketAddr::new(host_ip(2), 7))
                .unwrap();
            client.wait(qt, None).unwrap();
            let qt = client.pop(cqd).unwrap();
            let (_, reply) = client.wait(qt, None).unwrap().expect_pop();
            assert_eq!(reply.to_vec(), [0xA5; 64]);
        };
        // ARP both ways, and every handshake timer drained.
        round();
        rt.settle(SimTime::from_secs(1));

        let before = net_stack::counters::shard_snapshot();
        (0..ECHOES).for_each(|_| round());
        let visited = net_stack::counters::shard_snapshot()
            .delta(&before)
            .timer_buckets_visited;
        if idle_conns == 0 {
            assert_eq!(visited, 0, "no TCP state, no slot to look at");
        } else {
            let bound = 4 * net_stack::tcp::wheel::LEVELS as u64 * ECHOES;
            assert!(
                visited <= bound,
                "{visited} slot visits over {ECHOES} echoes"
            );
        }
    }
}

/// Virtual time of one warmed 64-byte UDP echo round from `a` to `b`.
fn echo_rtt(fabric: &Fabric, a: &NetworkStack, b: &NetworkStack) -> SimTime {
    a.udp_bind(9000).unwrap();
    b.udp_bind(7).unwrap();
    let mut rtt = SimTime::ZERO;
    // The first round resolves ARP both ways; the second is the sample.
    for _ in 0..2 {
        let t0 = fabric.clock().now();
        a.udp_sendto(9000, SocketAddr::new(ip(2), 7), &[0xA5u8; 64][..])
            .unwrap();
        settle(fabric, &[a, b], || b.udp_pending(7) > 0);
        let (from, data) = b.udp_recv_from(7).unwrap();
        b.udp_sendto(7, from, data).unwrap();
        settle(fabric, &[a, b], || a.udp_pending(9000) > 0);
        a.udp_recv_from(9000).unwrap();
        rtt = fabric.clock().now().saturating_since(t0);
    }
    rtt
}

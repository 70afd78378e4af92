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

mod support;

use std::net::Ipv4Addr;

use demi_memory::DemiBuffer;
use demikernel::libos::catnip::Catnip;
use demikernel::testing::host_mac;
use dpdk_sim::{rss, DpdkPort, PortConfig};
use net_stack::tcp::wheel::TimerWheel;
use net_stack::types::SocketAddr;
use net_stack::{NetworkStack, StackConfig};
use proptest::prelude::*;
use sim_fabric::{Fabric, SimTime};
use support::{ip, quiesce, settle, spawn_udp_echo, udp_echo_round, udp_pair};

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
        let mut fired = Vec::new();
        self.wheel
            .advance_into(SimTime::from_nanos(now), &mut fired);
        let wheel_fired: Vec<(u64, u32)> = fired
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

    /// Time passes the way a guarded poll pass lets it: the wheel is asked
    /// whether anything is due and advanced only if it says so. When it
    /// says no, nothing may be — its cursor stays behind, and whatever is
    /// scheduled next is placed relative to the stale cursor.
    fn pass_time_to(&mut self, now: u64) {
        if self.wheel.due(SimTime::from_nanos(now)) {
            return self.advance_to(now);
        }
        self.now = now;
        let live = self
            .linear
            .entries
            .iter()
            .filter(|e| !self.dead[e.2 as usize]);
        let overdue = live.filter(|e| e.0 <= now).count();
        prop_assert_eq!(overdue, 0, "the wheel said idle at t={}", now);
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
    /// moved or been left behind: already past, every level, beyond the
    /// 68.7 s horizon), one-way kills, re-arms, irregular advances and
    /// guarded passes that skip the advance while the wheel says nothing is
    /// due fires in the identical order, at the identical times, and
    /// answers every earliest-live-deadline question identically, under the
    /// wheel and under the linear scan — compared after *every* step.
    #[test]
    fn wheel_fires_identically_to_linear_scan(
        steps in prop::collection::vec((0u8..10, any::<u64>()), 100..400),
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
                5..=7 => d.advance_to(d.now + stride(x)),
                _ => d.pass_time_to(d.now + stride(x)),
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

/// Host `last` as one stack per queue of one `queues`-queue port, on one
/// ring mesh.
fn multi_queue_host(fabric: &Fabric, last: u8, queues: u16) -> (Vec<NetworkStack>, DpdkPort) {
    let nic = PortConfig {
        num_rx_queues: queues,
        ..PortConfig::basic(host_mac(last))
    };
    let port = DpdkPort::new(fabric, nic);
    let cfg = StackConfig::new(ip(last));
    let nic = |_| (port.clone(), fabric.clock());
    (support::mesh(queues as usize, 1024, &cfg, nic), port)
}

/// A sharded 4-queue pair serving 64 TCP flows: every connection works,
/// every frame arrives on the shard that owns its flow (zero steering
/// mismatches, zero handoffs), every shard carries load, and no device
/// queue is left stranded.
#[test]
fn sharded_stacks_serve_flows_with_zero_cross_shard_traffic() {
    let fabric = Fabric::new(7);
    let (a, a_port) = multi_queue_host(&fabric, 1, 4);
    let (b, b_port) = multi_queue_host(&fabric, 2, 4);

    let lids: Vec<_> = b.iter().map(|s| s.tcp_listen(80, 64).unwrap()).collect();
    // Flow j opens on client shard j % 4, which draws an ephemeral port
    // whose tuple hashes home to it.
    let conns: Vec<_> = (0..64)
        .map(|j| {
            (
                j % 4,
                a[j % 4].tcp_connect(SocketAddr::new(ip(2), 80)).unwrap(),
            )
        })
        .collect();
    let mut accepted = Vec::new();
    settle(&fabric, &[&a, &b], || {
        for (s, &lid) in lids.iter().enumerate() {
            while let Some(c) = b[s].tcp_accept(lid).unwrap() {
                accepted.push((s, c));
            }
        }
        accepted.len() == conns.len()
    });
    for s in 0..4 {
        // The hash is symmetric: the server shard a flow's handshake
        // reached is the client shard that opened it.
        let here = accepted.iter().filter(|&&(t, _)| t == s).count();
        assert_eq!(
            here, 16,
            "connections placed on the shard their tuple hashes to"
        );
    }

    for (i, &(s, conn)) in conns.iter().enumerate() {
        let msg = format!("req-{i}");
        a[s].tcp_send(conn, DemiBuffer::from_slice(msg.as_bytes()))
            .unwrap();
    }
    let mut echoed = 0;
    settle(&fabric, &[&a, &b], || {
        for &(s, sc) in &accepted {
            if let Ok(Some(chunk)) = b[s].tcp_recv(sc) {
                b[s].tcp_send(sc, chunk).unwrap();
            }
        }
        for &(s, conn) in &conns {
            if a[s].tcp_recv(conn).ok().flatten().is_some() {
                echoed += 1;
            }
        }
        echoed == conns.len()
    });

    for stack in a.iter().chain(&b) {
        let s = stack.shard_stats();
        assert_eq!(s.steering_mismatches, 0, "RSS and flow ownership agree");
        assert_eq!(s.handoffs_in, 0, "no cross-shard frame traffic");
        assert!(s.rx_frames > 0, "every shard carries traffic");
    }
    for port in [&a_port, &b_port] {
        let queue_stats = port.queue_stats();
        assert!(
            queue_stats.iter().all(|q| q.enqueued > 0 && q.depth == 0),
            "every queue used, none left stranded: {queue_stats:?}"
        );
    }
}

/// The exception path the rings exist for, on either wiring of a two-shard
/// host 2: a datagram of a flow `owner` (shard 1) owns arrives on
/// `receiver`'s (shard 0's) queue. The receiver forwards it over the ring
/// after its pass and the owner's next pass — the same poll round —
/// delivers it, however many idle passes either ran before; the ARP binding
/// the receiver learned from the client's request reaches the owner the
/// same way. Returns the counters the wirings must agree on.
fn missteer(
    fabric: &Fabric,
    client: &NetworkStack,
    [receiver, owner]: [&NetworkStack; 2],
) -> impl PartialEq + std::fmt::Debug {
    let to = SocketAddr::new(ip(2), 7);
    let sport = |shard| {
        (40_000..50_000).find(|&p| rss::queue_for_tuple(ip(1), p, to.ip, to.port, 2) == shard)
    };
    let (home, stray) = (sport(0).unwrap(), sport(1).unwrap());
    client.udp_bind(home).unwrap();
    client.udp_bind(stray).unwrap();
    receiver.udp_bind(7).unwrap();
    owner.udp_bind(7).unwrap();
    // A flow the receiver owns resolves ARP both ways first.
    client.udp_sendto(home, to, &b"home"[..]).unwrap();
    settle(fabric, &[client, receiver, owner], || {
        receiver.udp_pending(7) == 1
    });
    quiesce(fabric, &[client, receiver, owner]);
    assert_eq!(owner.shard_stats().handoffs_in, 0, "steered home so far");

    (0..3).for_each(|_| assert_eq!(receiver.poll() + owner.poll(), 0));
    let sent_before = receiver.ring_stats().unwrap().sent;
    client.udp_sendto(stray, to, &b"stray"[..]).unwrap();
    client.poll();
    assert!(fabric.advance_to_next_event());
    assert!(receiver.poll() > 0);
    assert!(owner.poll() > 0);
    assert_eq!(
        owner.udp_pending(7),
        1,
        "forwarded and delivered in one round"
    );
    assert_eq!(receiver.shard_stats().steering_mismatches, 1);
    assert_eq!(owner.shard_stats().handoffs_in, 1);
    assert_eq!(receiver.ring_stats().unwrap().sent - sent_before, 1);
    // The owner never saw the client's ARP request, yet replies unasked.
    let (from, data) = owner.udp_recv_from(7).unwrap();
    owner.udp_sendto(7, from, data).unwrap();
    owner.poll();
    let s = owner.stats();
    assert_eq!(
        (s.arp_requests, s.tx_frames),
        (0, 1),
        "the learned binding arrived"
    );
    [receiver, owner].map(|s| (s.shard_stats(), s.ring_stats(), s.stats()))
}

/// One handoff path, whichever way the shards are wired: two stacks on one
/// 2-queue SmartNIC port whose steering program overrides RSS, and two
/// shard worlds with a one-queue device each, produce the same counters.
#[test]
fn a_missteered_frame_reaches_its_owner_in_the_same_poll() {
    let cfg = StackConfig::new(ip(2));
    let one_port = {
        let fabric = Fabric::new(13);
        let nic = PortConfig {
            num_rx_queues: 2,
            ..PortConfig::smartnic(host_mac(2), 1)
        };
        let port = DpdkPort::new(&fabric, nic);
        port.install_program(dpdk_sim::NicProgram::Steer {
            selector: std::rc::Rc::new(|_: &[u8]| Some(0)),
            cycles_per_frame: 1,
        })
        .unwrap();
        let b = support::mesh(2, 64, &cfg, |_| (port.clone(), fabric.clock()));
        missteer(&fabric, &support::host(&fabric, 1), [&b[0], &b[1]])
    };
    let two_worlds = {
        let worlds = [Fabric::new(13), Fabric::new(14)];
        let nic = |i: usize| {
            let port = DpdkPort::new(&worlds[i], PortConfig::basic(host_mac(2)));
            (port, worlds[i].clock())
        };
        let b = support::mesh(2, 64, &cfg, nic);
        missteer(&worlds[0], &support::host(&worlds[0], 1), [&b[0], &b[1]])
    };
    assert_eq!(one_port, two_worlds);
}

/// Every shard of a 4-queue host UDP-connects to one echo server: the
/// ephemeral ports come from the host's one namespace, so they are
/// distinct, and each hashes home to the shard that drew it, so every
/// shard gets its own reply and none crosses shards — one socket never
/// reads another's datagram.
#[test]
fn ephemeral_udp_ports_are_host_wide_and_home_to_their_shard() {
    let fabric = Fabric::new(17);
    let (a, _) = multi_queue_host(&fabric, 1, 4);
    let b = support::host(&fabric, 2);
    let server = SocketAddr::new(ip(2), 7);
    b.udp_bind(7).unwrap();
    let ports: Vec<u16> = a
        .iter()
        .map(|shard| shard.udp_bind_ephemeral(server).unwrap())
        .collect();
    for (i, (shard, &port)) in a.iter().zip(&ports).enumerate() {
        let home = rss::queue_for_tuple(ip(1), port, server.ip, server.port, 4);
        assert_eq!(home, i as u16, "port {port} hashes home to shard {i}");
        let msg = format!("from-{i}");
        shard.udp_sendto(port, server, msg.as_bytes()).unwrap();
    }
    let mut distinct = ports.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), ports.len(), "one namespace: {ports:?}");

    let mut replies = vec![None; a.len()];
    settle(&fabric, &[&a, &b], || {
        while let Some((from, data)) = b.udp_recv_from(7) {
            b.udp_sendto(7, from, data).unwrap();
        }
        for (i, (shard, &port)) in a.iter().zip(&ports).enumerate() {
            if let Some((_, data)) = shard.udp_recv_from(port) {
                replies[i] = Some(data.as_slice().to_vec());
            }
        }
        replies.iter().all(Option::is_some)
    });
    for (i, shard) in a.iter().enumerate() {
        assert_eq!(replies[i].as_deref(), Some(format!("from-{i}").as_bytes()));
        assert_eq!(shard.udp_stats().delivered, 1, "shard {i}: its reply only");
        assert_eq!(shard.shard_stats().steering_mismatches, 0);
        assert_eq!(shard.shard_stats().handoffs_in, 0);
    }
    // Closing hands each port back to the host's namespace.
    for (shard, &port) in a.iter().zip(&ports) {
        shard.udp_close(port);
        assert!(!shard.port_allocator().is_claimed(port));
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
    for s in &b {
        s.tcp_listen(80, 256).unwrap();
    }
    let conns: Vec<_> = (0..200)
        .map(|j| {
            (
                j % 4,
                a[j % 4].tcp_connect(SocketAddr::new(ip(2), 80)).unwrap(),
            )
        })
        .collect();
    settle(&fabric, &[&a, &b], || {
        conns
            .iter()
            .all(|&(s, c)| a[s].tcp_state(c) == Ok(net_stack::tcp::State::Established))
    });
    // Let every delayed-ACK and handshake timer drain.
    quiesce(&fabric, &[&a, &b]);

    let before = net_stack::counters::shard_snapshot();
    for _ in 0..100 {
        support::Node::poll(&a);
        support::Node::poll(&b);
        assert_eq!(support::Node::next_deadline(&a), None);
        assert_eq!(support::Node::next_deadline(&b), None);
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

/// Establishes `n` TCP connections from `client` to a fresh listener on
/// `server` port 80 and leaves them idle.
fn park_idle_conns(client: &Catnip, server: &Catnip, n: usize) {
    use demikernel::libos::{LibOs, SocketKind};
    use demikernel::testing::host_ip;
    let lqd = server.socket(SocketKind::Tcp).unwrap();
    server.bind(lqd, SocketAddr::new(host_ip(2), 80)).unwrap();
    server.listen(lqd, n).unwrap();
    for _ in 0..n {
        let aqt = server.accept(lqd).unwrap();
        let cqd = client.socket(SocketKind::Tcp).unwrap();
        let cqt = client
            .connect(cqd, SocketAddr::new(host_ip(2), 80))
            .unwrap();
        server.wait(aqt, None).unwrap().expect_accept();
        client.wait(cqt, None).unwrap();
    }
}

/// The cost `timers_fired` cannot see: every wait pass asks both stacks
/// for their earliest deadline and advances both wheels, and none of that
/// may look at an empty wheel slot. A thousand `pushto`/`pop`/`wait` UDP
/// echoes through the whole libOS visit exactly zero slots with no TCP
/// state at all, and at most one slot per level per question (four
/// questions a round trip) with 200 idle connections resident.
#[test]
fn udp_echoes_visit_no_empty_timer_buckets() {
    use demikernel::testing::catnip_pair;
    const ECHOES: u64 = 1_000;

    for idle_conns in [0, 200] {
        let (rt, _fabric, client, server) = catnip_pair(17);
        if idle_conns > 0 {
            park_idle_conns(&client, &server, idle_conns);
        }
        let (cqd, sqd, to) = udp_pair(&client, &server);
        spawn_udp_echo(&server, sqd);
        let round = || udp_echo_round(&client, cqd, to);
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

/// Idle is free, by count: with 200 established-and-quiet connections
/// resident, a thousand runtime pumps run a poll pass per host each and
/// not one stage of any of them — every guard answers "nothing to do" —
/// so no doorbell rings, no wheel slot is read and no deadline moves. The
/// same numbers in debug builds (which re-run each skipped stage to check
/// it was a no-op, uncounted) and release builds (which skip).
#[test]
fn idle_pumps_run_no_poll_stage() {
    use demikernel::testing::catnip_pair;
    const PUMPS: u64 = 1_000;
    let (rt, _fabric, client, server) = catnip_pair(19);
    park_idle_conns(&client, &server, 200);
    rt.settle(SimTime::from_secs(1));

    let deadlines = || [&client, &server].map(|h| h.stack().next_deadline());
    let bursts = || [&client, &server].map(|h| h.port().stats().tx_burst_calls);
    let (deadlines_before, bursts_before) = (deadlines(), bursts());
    let (passes_before, timers_before) = (
        net_stack::counters::snapshot(),
        net_stack::counters::shard_snapshot(),
    );
    for _ in 0..PUMPS {
        rt.pump();
    }
    let passes = net_stack::counters::snapshot().delta(&passes_before);
    let timers = net_stack::counters::shard_snapshot().delta(&timers_before);
    assert_eq!(passes.poll_passes, 2 * PUMPS, "one pass per host per pump");
    assert_eq!(passes.poll_stages_run, 0, "and no stage of any of them");
    assert_eq!(bursts(), bursts_before, "no doorbell");
    assert_eq!(timers.timer_buckets_visited, 0, "no wheel slot read");
    assert_eq!(deadlines(), deadlines_before);
}

// ---------------------------------------------------------------------
// Guarded poll passes vs a run-every-stage reference, differentially.
// ---------------------------------------------------------------------

/// One side of the differential: two raw stacks on a lossy fabric plus the
/// "application" that drains whatever they deliver. The guarded side polls
/// with `poll()`; the reference side with `poll_every_stage()`, which
/// overrides every guard.
struct PollWorld {
    reference: bool,
    fabric: Fabric,
    hosts: [NetworkStack; 2],
    ports: [DpdkPort; 2],
    listener: net_stack::tcp::ListenerId,
    /// `(host, connection)`, both ends of everything opened so far.
    conns: Vec<(usize, net_stack::tcp::ConnId)>,
    /// Every byte an application received, tagged by where.
    delivered: Vec<u8>,
    poll_work: usize,
}

impl PollWorld {
    fn new(reference: bool, seed: u64) -> Self {
        let fabric = Fabric::new(seed);
        fabric.set_default_link(sim_fabric::LinkConfig {
            loss_probability: 0.05,
            ..Default::default()
        });
        let host = |n| {
            support::host_with(
                &fabric,
                PortConfig::basic(host_mac(n)),
                StackConfig::new(ip(n)),
            )
        };
        let ((a_port, a), (b_port, b)) = (host(1), host(2));
        a.udp_bind(9000).unwrap();
        b.udp_bind(9000).unwrap();
        let listener = b.tcp_listen(80, 16).unwrap();
        PollWorld {
            reference,
            fabric,
            hosts: [a, b],
            ports: [a_port, b_port],
            listener,
            conns: Vec::new(),
            delivered: Vec::new(),
            poll_work: 0,
        }
    }

    fn step(&mut self, op: u64, x: u64) {
        let h = (x % 2) as usize;
        let now = self.fabric.clock().now();
        match op {
            0 => {
                // One send in eight is to a host that does not exist: ARP
                // retries fall due, then the datagram is dropped.
                let to = if (x >> 1) % 8 == 7 { 99 } else { 2 - h as u8 };
                let payload = vec![x as u8; (x >> 8) as usize % 200];
                self.hosts[h]
                    .udp_sendto(9000, SocketAddr::new(ip(to), 9000), payload)
                    .unwrap();
            }
            1 => self.hosts[h].ping(ip(2 - h as u8), 7, x as u16),
            2 if self.conns.len() < 40 => {
                let conn = self.hosts[0].tcp_connect(SocketAddr::new(ip(2), 80));
                self.conns.push((0, conn.unwrap()));
            }
            3 | 4 if !self.conns.is_empty() => {
                let (host, conn) = self.conns[(x >> 8) as usize % self.conns.len()];
                let result = if op == 3 || x & 3 != 0 {
                    let data = vec![x as u8; 1 + (x >> 16) as usize % 3_000];
                    self.hosts[host].tcp_send(conn, DemiBuffer::from(data))
                } else {
                    self.hosts[host].tcp_close(conn)
                };
                self.delivered.push(result.is_ok() as u8);
            }
            5 => {
                // To the next event: a frame landing or a timer falling due.
                let timers = self.hosts.iter().filter_map(|s| s.next_deadline());
                let next = timers.chain(self.fabric.next_event_time()).min();
                self.fabric.advance_to(next.map_or(now, |t| t.max(now)));
            }
            6 => self
                .fabric
                .advance_to(SimTime::from_nanos(now.as_nanos() + stride(x))),
            _ => {
                self.poll_work += match self.reference {
                    true => net_stack::testing::poll_every_stage(&self.hosts[h]),
                    false => self.hosts[h].poll(),
                }
            }
        }
        // The application: take whatever arrived, in a fixed order.
        for (i, stack) in self.hosts.iter().enumerate() {
            while let Some((_, data)) = stack.udp_recv_from(9000) {
                self.delivered.push(i as u8);
                self.delivered.extend_from_slice(&data);
            }
            while let Some(pong) = stack.recv_pong() {
                self.delivered.extend_from_slice(&pong.2.to_be_bytes());
            }
        }
        while let Some(conn) = self.hosts[1].tcp_accept(self.listener).unwrap() {
            self.conns.push((1, conn));
        }
        let mut chunks = Vec::new();
        for &(host, conn) in &self.conns {
            if self.hosts[host].tcp_recv_all(conn, &mut chunks).is_ok() {
                self.delivered.push(host as u8);
                chunks
                    .drain(..)
                    .for_each(|c| self.delivered.extend_from_slice(&c));
            }
        }
    }

    /// Everything the two sides must agree on after every step.
    fn observe(&self) -> impl PartialEq + std::fmt::Debug {
        let stacks = [0, 1].map(|i| {
            let s = &self.hosts[i];
            let shard = s.shard_stats();
            (
                s.stats(),
                s.tcp_stats(),
                s.udp_stats(),
                shard,
                self.ports[i].stats(),
            )
        });
        let states: Vec<_> = self
            .conns
            .iter()
            .map(|&(host, conn)| {
                let stack = &self.hosts[host];
                (stack.tcp_state(conn), stack.tcp_conn_stats(conn))
            })
            .collect();
        let wire = (self.fabric.clock().now(), self.fabric.stats());
        (wire, stacks, states, self.delivered.len(), self.poll_work)
    }
}

/// The guards change what an idle pass costs and nothing else: over 4 000
/// seeded random steps — sends, pings, connects, closes, jumps to the next
/// event, jumps of 1 ns–30 ms, polls of one side — on a fabric that loses
/// one frame in twenty, a world polled through the guards and a world
/// whose every pass runs every stage agree on every counter, every
/// delivered byte, every connection state and the virtual clock after
/// every single step. (Debug builds re-run each skipped stage anyway and
/// assert it idle; in release builds this is the comparison.)
#[test]
fn guarded_polls_match_a_run_every_stage_reference() {
    for seed in 1..=4 {
        let timers_before = net_stack::counters::shard_snapshot();
        let (mut guarded, mut reference) =
            (PollWorld::new(false, seed), PollWorld::new(true, seed));
        let mut rng = sim_fabric::SimRng::new(seed);
        for step in 0..1_000 {
            let (op, x) = (rng.next_u64() % 10, rng.next_u64());
            guarded.step(op, x);
            reference.step(op, x);
            assert_eq!(
                guarded.observe(),
                reference.observe(),
                "seed {seed}, step {step}: op {op}, x {x:#x}"
            );
            assert_eq!(guarded.delivered, reference.delivered);
        }
        // The run reached what the guards guard: traffic, ARP give-ups,
        // lost frames, and timers firing on both worlds (one thread).
        let s = guarded.hosts[0].stats();
        assert!(s.rx_frames > 100 && s.unreachable_drops > 0, "{s:?}");
        assert!(guarded.fabric.stats().frames_dropped > 10);
        let timers = net_stack::counters::shard_snapshot().delta(&timers_before);
        assert!(timers.timers_fired > 100, "{timers:?}");
    }
}

/// Virtual time of one warmed 64-byte UDP echo round between two 4-shard
/// hosts, on the shard pair that owns the flow.
fn echo_rtt(fabric: &Fabric, a: &Vec<NetworkStack>, b: &Vec<NetworkStack>) -> SimTime {
    let shard = rss::queue_for_tuple(ip(1), 9000, ip(2), 7, 4) as usize;
    let (client, server) = (&a[shard], &b[shard]);
    client.udp_bind(9000).unwrap();
    server.udp_bind(7).unwrap();
    let mut rtt = SimTime::ZERO;
    // The first round resolves ARP both ways; the second is the sample.
    for _ in 0..2 {
        let t0 = fabric.clock().now();
        client
            .udp_sendto(9000, SocketAddr::new(ip(2), 7), &[0xA5u8; 64][..])
            .unwrap();
        settle(fabric, &[a, b], || server.udp_pending(7) > 0);
        let (from, data) = server.udp_recv_from(7).unwrap();
        server.udp_sendto(7, from, data).unwrap();
        settle(fabric, &[a, b], || client.udp_pending(9000) > 0);
        client.udp_recv_from(9000).unwrap();
        rtt = fabric.clock().now().saturating_since(t0);
    }
    rtt
}

//! Multi-tenant device-sharing invariants (PR 10, toward E20).
//!
//! Several mutually untrusting applications share one device; the
//! tenancy layer must make that sharing safe *and* fair:
//!
//! * **Port ownership** — a tenant binds only ports the host granted
//!   it; foreign binds fail typed and are counted, never silently
//!   rerouted.
//! * **TX quotas** — a flooding tenant's frames drop at its own bounded
//!   staging lane; the shared ring never sees the overflow.
//! * **Weighted fairness** — under saturation the deficit round-robin
//!   serves tenants in proportion to weight, even when the per-pass
//!   byte budget is smaller than one lane's quantum.
//! * **Rate limits** — a token bucket paces a tenant's TX to its
//!   configured bytes/sec on the virtual clock, waking exactly on the
//!   bucket deadline.
//! * **Partitioned TCP state** — SYN floods fill only the hostile
//!   listener's fixed table, and TIME_WAIT quota evictions take the
//!   hostile tenant's own oldest record, never a neighbour's.
//! * **Memory isolation** — cross-tenant buffer views and binds always
//!   deny, and a hostile tenant's activity never perturbs a victim's
//!   byte stream (the differential property E20 measures at scale).

mod support;

use std::sync::Arc;

use demi_memory::{BufferPool, DemiBuffer, DEFAULT_HEADROOM};
use demi_telemetry::hist::Histogram;
use demi_tenant::{RateLimit, TenantId, TenantRegistry, TenantSpec};
use dpdk_sim::{DpdkPort, PortConfig};
use net_stack::counters as nsc;
use net_stack::tcp::{ConnId, ListenerId, State};
use net_stack::types::{NetError, SocketAddr};
use net_stack::{NetworkStack, StackConfig, TenancyCfg, TenantLaneStats};
use proptest::prelude::*;
use sim_fabric::{Fabric, MacAddress, SimTime};
use support::{host, ip, settle, warm_arp};

/// A host enforcing the given tenancy policy.
fn tenant_host(fabric: &Fabric, last: u8, tenancy: TenancyCfg) -> NetworkStack {
    let mut cfg = StackConfig::new(ip(last));
    cfg.tenancy = Some(tenancy);
    support::host_with(
        fabric,
        PortConfig::basic(MacAddress::from_last_octet(last)),
        cfg,
    )
    .1
}

/// A tenant-stamped payload with enough headroom for zero-copy headers.
fn tenant_payload(pool: &BufferPool, len: usize, fill: u8) -> DemiBuffer {
    let mut buf = pool.alloc_with_headroom(DEFAULT_HEADROOM, len);
    buf.try_mut().expect("fresh buffer is exclusive").fill(fill);
    buf
}

/// Wire bytes of a UDP frame carrying `payload` bytes (ETH+IP+UDP = 42).
const fn udp_frame_bytes(payload: u64) -> u64 {
    payload + 42
}

#[test]
fn port_ownership_gates_bind_and_listen() {
    let fabric = Fabric::new(41);
    let registry = Arc::new(TenantRegistry::new());
    let alice = registry.register(TenantSpec::named("alice", 1));
    let bob = registry.register(TenantSpec::named("bob", 1));
    registry.grant_port(alice, 8080);
    let a = tenant_host(&fabric, 1, TenancyCfg::new(Arc::clone(&registry)));

    let before = demi_tenant::counters::snapshot();
    demi_tenant::scope(bob, || {
        // Bob may not take Alice's port over either protocol...
        assert_eq!(
            a.tcp_listen(8080, 8).unwrap_err(),
            NetError::TenantDenied(8080)
        );
        assert_eq!(a.udp_bind(8080).unwrap_err(), NetError::TenantDenied(8080));
        // ...nor squat on an unowned port: tenants bind only what the
        // host granted them.
        assert_eq!(
            a.tcp_listen(9090, 8).unwrap_err(),
            NetError::TenantDenied(9090)
        );
    });
    // The host supervisor must not squat on a tenant's partition either.
    assert_eq!(a.udp_bind(8080).unwrap_err(), NetError::TenantDenied(8080));
    // The owner binds fine.
    demi_tenant::scope(alice, || {
        a.tcp_listen(8080, 8).unwrap();
    });
    let denied = demi_tenant::counters::snapshot().delta(&before);
    assert!(
        denied.cross_tenant_denials >= 4,
        "every refusal is a counted isolation event, got {}",
        denied.cross_tenant_denials
    );
}

/// A tenant's ephemeral UDP port is its own only while the socket lives:
/// closing it returns the port to the host (who may then bind it), while a
/// statically granted service port stays granted across a close.
#[test]
fn an_ephemeral_udp_grant_ends_with_its_socket() {
    let fabric = Fabric::new(42);
    let registry = Arc::new(TenantRegistry::new());
    let alice = registry.register(TenantSpec::named("alice", 1));
    registry.grant_port(alice, 8080);
    let a = tenant_host(&fabric, 1, TenancyCfg::new(Arc::clone(&registry)));

    let port = demi_tenant::scope(alice, || {
        a.udp_bind(8080).unwrap();
        a.udp_bind_ephemeral(SocketAddr::new(ip(2), 9)).unwrap()
    });
    assert_eq!(registry.port_owner(port), alice);
    assert_eq!(a.udp_bind(port), Err(NetError::TenantDenied(port)));
    a.udp_close(port);
    a.udp_close(8080);
    assert_eq!(
        registry.port_owner(port),
        TenantId::HOST,
        "transient grant revoked"
    );
    assert_eq!(
        a.udp_bind(port),
        Ok(()),
        "the host may take the recycled port"
    );
    assert_eq!(
        registry.port_owner(8080),
        alice,
        "static grant survives close"
    );
}

#[test]
fn tx_lane_quota_drops_overflow_at_the_lane() {
    let fabric = Fabric::new(42);
    let registry = Arc::new(TenantRegistry::new());
    let mut spec = TenantSpec::named("flooder", 1);
    spec.tx_lane_frames = 4;
    let t = registry.register(spec);
    registry.grant_port(t, 7000);
    let mut tenancy = TenancyCfg::new(Arc::clone(&registry));
    // A frozen link: the per-pass budget admits nothing, so the lane
    // bound is the only thing between the flood and the shared ring.
    tenancy.tx_pass_bytes = Some(0);
    let a = tenant_host(&fabric, 1, tenancy);
    let b = host(&fabric, 2);
    warm_arp(&fabric, &a, &b);

    demi_tenant::scope(t, || a.udp_bind(7000).unwrap());
    let pool = BufferPool::for_tenant(t, None);
    let before = demi_tenant::counters::snapshot();
    for _ in 0..10 {
        let payload = tenant_payload(&pool, 64, 0xF1);
        a.udp_sendto(7000, SocketAddr::new(ip(2), 7000), payload)
            .unwrap();
    }
    let stats = a.tenant_stats();
    let lane = stats.iter().find(|s| s.tenant == t.0).unwrap();
    assert_eq!(lane.staged_frames, 4, "the lane holds exactly its bound");
    assert_eq!(lane.quota_drops, 6, "overflow drops at the lane");
    assert_eq!(lane.sent_frames, 0, "the frozen link admitted nothing");
    assert!(
        demi_tenant::counters::snapshot().delta(&before).quota_drops >= 6,
        "lane drops are counted isolation events"
    );
    // The budget-capped leftover is reported as poll backlog so the
    // scheduler keeps coming back for it.
    assert!(a.poll() >= 4);
}

#[test]
fn drr_converges_to_weighted_shares_under_saturation() {
    let fabric = Fabric::new(43);
    let registry = Arc::new(TenantRegistry::new());
    let alice = registry.register(TenantSpec::named("alice", 3));
    let bob = registry.register(TenantSpec::named("bob", 1));
    registry.grant_port(alice, 7100);
    registry.grant_port(bob, 7200);
    let mut tenancy = TenancyCfg::new(Arc::clone(&registry));
    // Per-pass budget of ~5.7 frames: the link saturates and DRR's
    // proportional shares become observable.
    tenancy.tx_pass_bytes = Some(6000);
    let a = tenant_host(&fabric, 1, tenancy);
    let b = host(&fabric, 2);
    warm_arp(&fabric, &a, &b);

    demi_tenant::scope(alice, || a.udp_bind(7100).unwrap());
    demi_tenant::scope(bob, || a.udp_bind(7200).unwrap());
    let pa = BufferPool::for_tenant(alice, None);
    let pb = BufferPool::for_tenant(bob, None);
    for _ in 0..60 {
        a.udp_sendto(
            7100,
            SocketAddr::new(ip(2), 7100),
            tenant_payload(&pa, 1000, 0xAA),
        )
        .unwrap();
        a.udp_sendto(
            7200,
            SocketAddr::new(ip(2), 7200),
            tenant_payload(&pb, 1000, 0xBB),
        )
        .unwrap();
    }
    for _ in 0..8 {
        a.poll();
    }
    let stats = a.tenant_stats();
    let sa = stats.iter().find(|s| s.tenant == alice.0).unwrap();
    let sb = stats.iter().find(|s| s.tenant == bob.0).unwrap();
    assert!(
        sa.staged_frames > 0 && sb.staged_frames > 0,
        "both lanes must still be backlogged for the share to be meaningful"
    );
    let ratio = sa.sent_bytes as f64 / sb.sent_bytes as f64;
    assert!(
        (2.2..=3.8).contains(&ratio),
        "weight-3 : weight-1 service ratio should be ~3, got {ratio:.2} \
         (alice {} B, bob {} B)",
        sa.sent_bytes,
        sb.sent_bytes
    );
}

#[test]
fn budget_smaller_than_one_quantum_never_starves_later_lanes() {
    // Regression for the mid-round resume: with a per-pass byte budget
    // smaller than the first lane's round service, a naive DRR would
    // re-credit that lane's quantum on every pass and the second lane
    // would never transmit a single frame.
    let fabric = Fabric::new(44);
    let registry = Arc::new(TenantRegistry::new());
    let alice = registry.register(TenantSpec::named("alice", 8));
    let bob = registry.register(TenantSpec::named("bob", 1));
    registry.grant_port(alice, 7100);
    registry.grant_port(bob, 7200);
    let mut tenancy = TenancyCfg::new(Arc::clone(&registry));
    tenancy.tx_pass_bytes = Some(1100); // one 1042-byte frame per pass
    let a = tenant_host(&fabric, 1, tenancy);
    let b = host(&fabric, 2);
    warm_arp(&fabric, &a, &b);

    demi_tenant::scope(alice, || a.udp_bind(7100).unwrap());
    demi_tenant::scope(bob, || a.udp_bind(7200).unwrap());
    let pa = BufferPool::for_tenant(alice, None);
    let pb = BufferPool::for_tenant(bob, None);
    for _ in 0..40 {
        a.udp_sendto(
            7100,
            SocketAddr::new(ip(2), 7100),
            tenant_payload(&pa, 1000, 0xAA),
        )
        .unwrap();
        a.udp_sendto(
            7200,
            SocketAddr::new(ip(2), 7200),
            tenant_payload(&pb, 1000, 0xBB),
        )
        .unwrap();
    }
    for _ in 0..18 {
        a.poll();
    }
    let stats = a.tenant_stats();
    let sa = stats.iter().find(|s| s.tenant == alice.0).unwrap();
    let sb = stats.iter().find(|s| s.tenant == bob.0).unwrap();
    assert!(
        sb.sent_frames >= 1,
        "the weight-1 lane must be served across budget-capped rounds"
    );
    assert!(
        sa.sent_frames > sb.sent_frames,
        "the weight-8 lane still dominates ({} vs {})",
        sa.sent_frames,
        sb.sent_frames
    );
}

#[test]
fn token_bucket_paces_tx_to_the_configured_rate_on_virtual_time() {
    const PAYLOAD: u64 = 1000;
    const FRAMES: u64 = 20;
    const RATE: u64 = 1_000_000; // 1 byte per µs of virtual time.
    let frame = udp_frame_bytes(PAYLOAD);
    let fabric = Fabric::new(45);
    let registry = Arc::new(TenantRegistry::new());
    let mut spec = TenantSpec::named("paced", 1);
    spec.rate = Some(RateLimit {
        bytes_per_sec: RATE,
        burst_bytes: 2 * frame,
    });
    let t = registry.register(spec);
    registry.grant_port(t, 7000);
    let a = tenant_host(&fabric, 1, TenancyCfg::new(Arc::clone(&registry)));
    let b = host(&fabric, 2);
    warm_arp(&fabric, &a, &b);
    b.udp_bind(7000).unwrap();

    demi_tenant::scope(t, || a.udp_bind(7000).unwrap());
    let pool = BufferPool::for_tenant(t, None);
    for _ in 0..FRAMES {
        a.udp_sendto(
            7000,
            SocketAddr::new(ip(2), 7000),
            tenant_payload(&pool, PAYLOAD as usize, 0xCC),
        )
        .unwrap();
    }
    let t0 = fabric.clock().now().as_nanos();
    settle(&fabric, &[&a, &b], || {
        b.udp_pending(7000) == FRAMES as usize
    });
    let elapsed = fabric.clock().now().as_nanos() - t0;
    // The burst covers 2 frames; the remaining 18 drain at RATE, waking
    // on the bucket deadline folded into the stack's timer horizon.
    let expected = (FRAMES - 2) * frame * 1_000_000_000 / RATE;
    assert!(
        elapsed >= expected,
        "drained faster than the rate limit allows: {elapsed} < {expected} ns"
    );
    assert!(
        elapsed <= expected + expected / 5,
        "paced drain took far longer than the configured rate: \
         {elapsed} vs {expected} ns"
    );
    let stats = a.tenant_stats();
    let lane = stats.iter().find(|s| s.tenant == t.0).unwrap();
    assert!(
        lane.rate_deferrals > 0,
        "the bucket visibly deferred frames"
    );
    assert_eq!(lane.sent_frames, FRAMES);
}

/// Accepts `conns` on `lid` once all are established, then takes the
/// first `closing` of them through the full close walk, client first, so
/// `a` takes every TIME_WAIT record (or evicts it straight to Closed).
fn close_walk(
    fabric: &Fabric,
    [a, b]: [&NetworkStack; 2],
    lid: ListenerId,
    conns: &[ConnId],
    closing: usize,
) {
    let closing = &conns[..closing];
    let established = |c: &ConnId| a.tcp_state(*c) == Ok(State::Established);
    let mut accepted = Vec::new();
    settle(fabric, &[a, b], || {
        accepted.extend(b.tcp_accept(lid).unwrap());
        accepted.len() == conns.len() && conns.iter().all(established)
    });
    closing.iter().for_each(|&c| a.tcp_close(c).unwrap());
    let eofs = || accepted.iter().filter(|&&s| b.tcp_eof(s));
    settle(fabric, &[a, b], || eofs().count() == closing.len());
    eofs().for_each(|&s| b.tcp_close(s).unwrap());
    let parked = |c: &ConnId| matches!(a.tcp_state(*c), Ok(State::TimeWait | State::Closed));
    settle(fabric, &[a, b], || closing.iter().all(parked));
}

#[test]
fn time_wait_quota_evicts_the_hostile_tenants_own_oldest_only() {
    let fabric = Fabric::new(46);
    let registry = Arc::new(TenantRegistry::new());
    let victim = registry.register(TenantSpec::named("victim", 1));
    let mut spec = TenantSpec::named("hostile", 1);
    spec.tw_quota = Some(4);
    let hostile = registry.register(spec);
    let a = tenant_host(&fabric, 1, TenancyCfg::new(Arc::clone(&registry)));
    let b = host(&fabric, 2);
    let lid = b.tcp_listen(9000, 32).unwrap();

    // Open every connection concurrently (2 victim + 10 hostile) so the
    // whole churn fits well inside one 2·MSL window.
    let to = SocketAddr::new(ip(2), 9000);
    let vconns: Vec<_> = demi_tenant::scope(victim, || {
        (0..2).map(|_| a.tcp_connect(to).unwrap()).collect()
    });
    let hconns: Vec<_> = demi_tenant::scope(hostile, || {
        (0..10).map(|_| a.tcp_connect(to).unwrap()).collect()
    });
    let all: Vec<_> = vconns.iter().chain(hconns.iter()).copied().collect();
    let before = demi_tenant::counters::snapshot();
    close_walk(&fabric, [&a, &b], lid, &all, all.len());
    assert_eq!(
        a.tcp_tw_count_for(hostile.0),
        4,
        "the hostile tenant's partition is capped at its quota"
    );
    assert_eq!(
        a.tcp_tw_count_for(victim.0),
        2,
        "quota evictions took the hostile tenant's own records, \
         never the victim's"
    );
    assert!(
        demi_tenant::counters::snapshot().delta(&before).quota_drops >= 6,
        "each eviction is a counted quota drop"
    );
}

#[test]
fn syn_flood_fills_only_the_hostile_listeners_partition() {
    let fabric = Fabric::new(47);
    let registry = Arc::new(TenantRegistry::new());
    let victim = registry.register(TenantSpec::named("victim", 1));
    let hostile = registry.register(TenantSpec::named("hostile", 1));
    registry.grant_port(victim, 80);
    registry.grant_port(hostile, 81);
    let a = tenant_host(&fabric, 1, TenancyCfg::new(Arc::clone(&registry)));
    let b = tenant_host(&fabric, 2, TenancyCfg::new(Arc::clone(&registry)));
    let lid = demi_tenant::scope(victim, || b.tcp_listen(80, 16).unwrap());
    demi_tenant::scope(hostile, || b.tcp_listen(81, 4).unwrap());

    // Victim state established before the flood: two closed connections
    // parked in TIME_WAIT (full close walk, client closes first) plus one
    // live connection.
    let conns: Vec<_> = demi_tenant::scope(victim, || {
        let to = SocketAddr::new(ip(2), 80);
        (0..3).map(|_| a.tcp_connect(to).unwrap()).collect()
    });
    close_walk(&fabric, [&a, &b], lid, &conns, 2);
    assert_eq!(a.tcp_tw_count_for(victim.0), 2);

    // The flood: 4x the hostile listener's backlog in half-open SYNs.
    // The flooding client stops polling after emitting them, so the
    // handshakes can never complete and the SYNs pile up half-open.
    let before = nsc::conn_snapshot();
    let _floods: Vec<_> = demi_tenant::scope(hostile, || {
        let to = SocketAddr::new(ip(2), 81);
        (0..16).map(|_| a.tcp_connect(to).unwrap()).collect()
    });
    for _ in 0..8 {
        a.poll();
    }
    for _ in 0..256 {
        b.poll();
        if !fabric.advance_to_next_event() {
            break;
        }
    }
    assert_eq!(
        b.tcp_syn_backlog_used(81),
        4,
        "the hostile listener's fixed SYN table is full"
    );
    assert_eq!(
        b.tcp_syn_backlog_used(80),
        0,
        "the victim listener's SYN partition is untouched by the flood"
    );
    assert!(
        nsc::conn_snapshot().delta(&before).syns_evicted >= 12,
        "overflow SYNs were evicted from the hostile table, not absorbed"
    );
    assert_eq!(
        a.tcp_tw_count_for(victim.0),
        2,
        "the victim's TIME_WAIT partition rode out the spray"
    );
    assert_eq!(
        a.tcp_state(conns[2]),
        Ok(State::Established),
        "the victim's established connection rode out the flood"
    );
}

#[test]
fn rx_slice_polices_a_tenants_inbound_flood() {
    let fabric = Fabric::new(48);
    let registry = Arc::new(TenantRegistry::new());
    let mut vspec = TenantSpec::named("victim", 1);
    vspec.rx_share = 7;
    let victim = registry.register(vspec);
    let hostile = registry.register(TenantSpec::named("hostile", 1));
    registry.grant_port(victim, 6100);
    registry.grant_port(hostile, 6000);
    let port = DpdkPort::new(&fabric, PortConfig::basic(MacAddress::from_last_octet(2)));
    let mut cfg = StackConfig::new(ip(2));
    cfg.rx_budget = 8; // victim slice 7 frames/pass, hostile slice 1.
    cfg.tenancy = Some(TenancyCfg::new(Arc::clone(&registry)));
    let b = NetworkStack::new(port, fabric.clock(), cfg);
    let a = host(&fabric, 1);
    warm_arp(&fabric, &a, &b);
    demi_tenant::scope(hostile, || b.udp_bind(6000).unwrap());
    demi_tenant::scope(victim, || b.udp_bind(6100).unwrap());
    a.udp_bind(6500).unwrap();

    // Flood the hostile tenant's port with 24 datagrams.
    for _ in 0..24 {
        a.udp_sendto(
            6500,
            SocketAddr::new(ip(2), 6000),
            DemiBuffer::from_slice(&[0xEE; 64]),
        )
        .unwrap();
    }
    a.poll();
    // Land the whole flood in the device ring first, then drain: each
    // poll pass sees a full ring, so the per-pass slice actually binds.
    while fabric.advance_to_next_event() {}
    for _ in 0..8 {
        b.poll();
    }
    let stats = b.tenant_stats();
    let h = stats.iter().find(|s| s.tenant == hostile.0).unwrap();
    assert!(
        h.rx_quota_drops > 0,
        "the flood exceeded the hostile tenant's RX slice"
    );
    assert!(
        b.udp_pending(6000) < 24,
        "over-slice datagrams were dropped, not queued"
    );
    // The victim's traffic still flows at full fidelity.
    for _ in 0..5 {
        a.udp_sendto(
            6500,
            SocketAddr::new(ip(2), 6100),
            DemiBuffer::from_slice(&[0x11; 64]),
        )
        .unwrap();
    }
    settle(&fabric, &[&a, &b], || b.udp_pending(6100) == 5);
    let stats = b.tenant_stats();
    let v = stats.iter().find(|s| s.tenant == victim.0).unwrap();
    assert_eq!(v.rx_quota_drops, 0, "the victim's slice never saturated");
}

// ---------------------------------------------------------------------
// E20: a victim echo session and a hostile sprayer through one device.
// ---------------------------------------------------------------------

/// Sized so one wire frame is exactly the 1 500-byte MTU the DRR quantum
/// is denominated in: quanta are then integral in frames.
const E20_PAYLOAD: usize = 1_458;
/// Per-poll-pass TX byte budget: four frames, split 3:1 by DRR weight.
const PASS_BYTES: u64 = 4 * udp_frame_bytes(E20_PAYLOAD as u64);
/// One pass budget every 1 500 ns offers 32 Gbps to the 40 Gbps line: at
/// line rate the flood would keep a standing, ever-deeper queue at the
/// serializer — queueing theory, not an isolation failure.
const PASS_NS: u64 = PASS_BYTES * 8 * 1_000_000_000 / 32_000_000_000;
/// Frames the hostile tenant keeps staged ahead of every victim op: 64x
/// its one-frame-per-pass fair share.
const HOSTILE_BACKLOG: u64 = 64;

/// With `isolated`, each tenant gets its own weighted DRR lane (victim 3,
/// hostile 1); without, both squeeze through one FIFO lane — the "no
/// policy in the datapath" contrast — under the same per-pass budget.
struct EchoWorld {
    fabric: Fabric,
    a: NetworkStack,
    b: NetworkStack,
    hostile: TenantId,
    vpool: BufferPool,
    hpool: BufferPool,
}

impl EchoWorld {
    fn new(isolated: bool) -> Self {
        let fabric = Fabric::new(0xE20);
        let registry = Arc::new(TenantRegistry::new());
        let (victim, hostile) = if isolated {
            (
                registry.register(TenantSpec::named("victim", 3)),
                registry.register(TenantSpec::named("hostile", 1)),
            )
        } else {
            let shared = registry.register(TenantSpec::named("shared", 1));
            (shared, shared)
        };
        registry.grant_port(victim, 7100);
        registry.grant_port(hostile, 7200);
        let mut tenancy = TenancyCfg::new(Arc::clone(&registry));
        tenancy.tx_pass_bytes = Some(PASS_BYTES);
        let a = tenant_host(&fabric, 1, tenancy);
        let b = host(&fabric, 2);
        warm_arp(&fabric, &a, &b);
        demi_tenant::scope(victim, || a.udp_bind(7100).unwrap());
        demi_tenant::scope(hostile, || a.udp_bind(7200).unwrap());
        b.udp_bind(7100).unwrap();
        EchoWorld {
            fabric,
            a,
            b,
            hostile,
            vpool: BufferPool::for_tenant(victim, None),
            hpool: BufferPool::for_tenant(hostile, None),
        }
    }

    /// One victim request/response, after topping the hostile lane up to
    /// its backlog (sprayed at an unbound peer port: pure device pressure)
    /// when `flood`; returns the virtual RTT in ns. The drive loop is
    /// paced — one poll pass per [`PASS_NS`] — to model a steadily-driven
    /// NIC, not a spin staging passes faster than virtual time drains them.
    fn echo_rtt(&self, flood: bool) -> u64 {
        let lanes: Vec<TenantLaneStats> = self.a.tenant_stats();
        let staged = lanes.iter().find(|s| s.tenant == self.hostile.0).unwrap();
        for _ in staged.staged_frames..HOSTILE_BACKLOG * flood as u64 {
            let spam = tenant_payload(&self.hpool, E20_PAYLOAD, 0xEE);
            let _ = self.a.udp_sendto(7200, SocketAddr::new(ip(2), 9), spam);
        }
        let t0 = self.fabric.clock().now();
        let request = tenant_payload(&self.vpool, E20_PAYLOAD, 0x5A);
        self.a
            .udp_sendto(7100, SocketAddr::new(ip(2), 7100), request)
            .unwrap();
        loop {
            self.a.poll();
            self.b.poll();
            if let Some((from, buf)) = self.b.udp_recv_from(7100) {
                self.b.udp_sendto(7100, from, buf).unwrap();
                // Flush the echo now, not a whole pass interval later.
                self.b.poll();
            }
            if let Some((_, back)) = self.a.udp_recv_from(7100) {
                assert_eq!(back.as_slice(), [0x5A; E20_PAYLOAD]);
                return self.fabric.clock().now().saturating_since(t0).as_nanos();
            }
            let next = self.fabric.clock().now().as_nanos() + PASS_NS;
            assert!(next < t0.as_nanos() + 1_000_000_000, "echo never completed");
            self.fabric.advance_to(SimTime::from_nanos(next));
        }
    }

    /// The victim's echo p99 over 60 ops after 5 of warm-up.
    fn p99(&self, flood: bool) -> u64 {
        let mut hist = Histogram::new();
        for op in 0..65 {
            let rtt = self.echo_rtt(flood);
            if op >= 5 {
                hist.record(rtt);
            }
        }
        hist.p99()
    }
}

/// *Safe Sharing of Fast Kernel-Bypass I/O Among Nontrusting
/// Applications*: behind its own lane, a flood 64x the hostile tenant's
/// fair share costs the victim at most one extra pass of tail latency;
/// through a shared FIFO the same flood puts the victim behind it.
#[test]
fn a_hostile_flood_cannot_double_the_victims_tail_unless_lanes_are_shared() {
    let world = EchoWorld::new(true);
    let (base, flooded) = (world.p99(false), world.p99(true));
    let fifo = EchoWorld::new(false);
    fifo.p99(false); // Warm the lane bookkeeping before flooding.
    let shared = fifo.p99(true);
    assert_eq!(
        (base, flooded, shared),
        (3_000, 6_000, 27_000),
        "a hostile flood behind its own lane must not degrade the victim's \
         p99 > 2x; the contrast case must show the harm: a shared FIFO puts \
         the victim behind the flood, past that bound"
    );
}

/// One victim echo session over TCP while a hostile tenant optionally
/// sprays UDP through the same device. Returns every byte the victim
/// received back.
fn victim_stream(chunks: &[Vec<u8>], hostile_active: bool) -> Vec<u8> {
    let fabric = Fabric::new(99);
    let registry = Arc::new(TenantRegistry::new());
    let victim = registry.register(TenantSpec::named("victim", 1));
    let hostile = registry.register(TenantSpec::named("hostile", 1));
    let a = tenant_host(&fabric, 1, TenancyCfg::new(Arc::clone(&registry)));
    let b = host(&fabric, 2);
    warm_arp(&fabric, &a, &b);

    let lid = b.tcp_listen(7000, 8).unwrap();
    let conn = demi_tenant::scope(victim, || {
        a.tcp_connect(SocketAddr::new(ip(2), 7000)).unwrap()
    });
    let mut server_conn = None;
    settle(&fabric, &[&a, &b], || {
        if server_conn.is_none() {
            server_conn = b.tcp_accept(lid).unwrap();
        }
        server_conn.is_some() && a.tcp_state(conn) == Ok(State::Established)
    });
    let sc = server_conn.unwrap();

    let vpool = BufferPool::for_tenant(victim, None);
    for c in chunks {
        let mut payload = vpool.alloc_with_headroom(DEFAULT_HEADROOM, c.len());
        payload
            .try_mut()
            .expect("fresh buffer is exclusive")
            .copy_from_slice(c);
        a.tcp_send(conn, payload).unwrap();
    }
    let hport = demi_tenant::scope(hostile, || {
        a.udp_bind_ephemeral(SocketAddr::new(ip(2), 9)).unwrap()
    });
    let hpool = BufferPool::for_tenant(hostile, None);
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    let mut got = Vec::new();
    let mut spam_left: u32 = if hostile_active { 64 } else { 0 };
    settle(&fabric, &[&a, &b], || {
        if spam_left > 0 {
            spam_left -= 1;
            // Spray at an unbound port on the peer: pure device-sharing
            // pressure through the hostile tenant's TX lane.
            let _ = a.udp_sendto(
                hport,
                SocketAddr::new(ip(2), 9),
                tenant_payload(&hpool, 400, 0xEE),
            );
        }
        while let Ok(Some(seg)) = b.tcp_recv(sc) {
            b.tcp_send(sc, seg).unwrap();
        }
        while let Ok(Some(seg)) = a.tcp_recv(conn) {
            got.extend_from_slice(seg.as_slice());
        }
        got.len() >= total
    });
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The differential isolation property: the victim's echoed byte
    /// stream is identical whether or not the hostile tenant is
    /// spraying traffic through the shared device.
    #[test]
    fn hostile_activity_never_perturbs_the_victim_stream(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..160), 1..4),
    ) {
        let expected: Vec<u8> = chunks.concat();
        let quiet = victim_stream(&chunks, false);
        prop_assert_eq!(&quiet, &expected);
        let noisy = victim_stream(&chunks, true);
        prop_assert_eq!(quiet, noisy);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any cross-tenant buffer access fails typed, is counted, and
    /// leaves the owner's bytes untouched; and no foreign tenant (nor
    /// the host) may bind a granted port.
    #[test]
    fn cross_tenant_views_and_binds_always_deny_and_never_alias(
        owner_raw in 1u16..8,
        other_off in 1u16..7,
        len in 1usize..200,
        port in 1024u16..60000,
    ) {
        let owner = TenantId(owner_raw);
        let other = TenantId(1 + (owner_raw - 1 + other_off) % 7);
        prop_assert_ne!(owner, other);
        let pool = BufferPool::for_tenant(owner, None);
        let mut buf = pool.alloc_with_headroom(DEFAULT_HEADROOM, len);
        buf.try_mut().expect("fresh buffer is exclusive").fill(0xAB);
        let before = demi_tenant::counters::snapshot();
        demi_tenant::scope(other, || {
            prop_assert!(buf.try_slice(0, len).is_err());
            prop_assert!(buf.try_clone().is_err());
            prop_assert!(buf.try_mut().is_none());
            prop_assert!(buf.prepend(1).is_err());
        });
        let denied = demi_tenant::counters::snapshot().delta(&before);
        prop_assert!(denied.cross_tenant_denials >= 4);
        prop_assert!(buf.as_slice().iter().all(|&x| x == 0xAB));

        let registry = TenantRegistry::new();
        registry.grant_port(owner, port);
        prop_assert!(registry.may_bind(owner, port));
        prop_assert!(!registry.may_bind(other, port));
        prop_assert!(!registry.may_bind(TenantId::HOST, port));
    }
}

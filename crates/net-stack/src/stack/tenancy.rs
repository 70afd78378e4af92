//! Multi-tenant device sharing: everything that names a lane, a deficit,
//! a token bucket or an RX slice. The shard core reaches its
//! `Option<ShardTenancy>` only through the `pub(super)` hooks below; HOST
//! traffic (every frame of a tenancy-free stack) bypasses all of it.

use std::collections::VecDeque;
use std::sync::Arc;

use demi_memory::{DemiBuffer, TenantId};
use demi_tenant::{counters as tenant_counters, TenantRegistry, TokenBucket};
use dpdk_sim::wire::l4_ports;
use dpdk_sim::Mbuf;
use sim_fabric::{SimClock, SimTime};

use super::NetworkStack;
use crate::ipv4::IpProtocol;
use crate::tcp::TcpPeer;
use crate::types::NetError;

/// Multi-tenant device-sharing policy for one stack (see DESIGN.md,
/// "Multi-tenancy"). Absent (`StackConfig::tenancy = None`, the default)
/// the stack behaves exactly as before: one implicit HOST tenant, no
/// policing, no scheduling — the zero-cost single-tenant path.
#[derive(Clone, Debug)]
pub struct TenancyCfg {
    /// The shared tenant table: specs (weights, lane bounds, rate
    /// limits, TIME_WAIT quotas) and the port-ownership map. Tenants
    /// must be registered *before* the stack is built — each shard
    /// snapshots the table into its TX lanes and RX slices.
    pub registry: Arc<TenantRegistry>,
    /// Optional per-poll-pass TX byte budget shared by every tenant
    /// lane on a shard. `None` (the default) leaves the link unpaced:
    /// the deficit round-robin then only *orders* frames. With a cap,
    /// saturation becomes observable and DRR's proportional shares are
    /// exact per pass — the configuration the E20 tests measure.
    pub tx_pass_bytes: Option<u64>,
}

impl TenancyCfg {
    /// Policy over `registry` with an unpaced link.
    pub fn new(registry: Arc<TenantRegistry>) -> Self {
        TenancyCfg {
            registry,
            tx_pass_bytes: None,
        }
    }

    /// Port-ownership gate for bind-like operations: the ambient tenant
    /// may only take ports the host granted it, and the host may only
    /// take unowned ports. Returns the port's owner (for TIME_WAIT
    /// tagging); denials are counted.
    pub(super) fn check_bind(&self, port: u16) -> Result<TenantId, NetError> {
        let t = demi_tenant::current();
        if !self.registry.may_bind(t, port) {
            tenant_counters::note_cross_tenant_denial();
            return Err(NetError::TenantDenied(port));
        }
        Ok(self.registry.port_owner(port))
    }

    /// Grants a freshly drawn ephemeral `port` to the ambient tenant for
    /// the socket's lifetime, so its RX frames are policed against — and
    /// its TIME_WAIT record charged to — that tenant. HOST needs no
    /// grant. Returns the ambient tenant.
    pub(super) fn grant_ephemeral(&self, port: u16) -> TenantId {
        let t = demi_tenant::current();
        if !t.is_host() {
            self.registry.grant_port(t, port);
        }
        t
    }

    /// TIME_WAIT capacity is partitioned per tenant: each shard's peer
    /// learns every tenant's quota up front.
    pub(super) fn apply_tw_quotas(&self, tcp: &mut TcpPeer) {
        for (t, spec) in self.registry.tenants() {
            if let Some(q) = spec.tw_quota {
                tcp.set_tenant_tw_quota(t.0, q);
            }
        }
    }
}

/// Per-tenant datapath accounting ([`NetworkStack::tenant_stats`]): the
/// witness that the shared doorbell served tenants by weight
/// (`tests/tenant.rs`, E20).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantLaneStats {
    /// The tenant these counters describe.
    pub tenant: u16,
    /// Frames admitted from this tenant's staging lane into the shared
    /// TX ring by the deficit round-robin.
    pub sent_frames: u64,
    /// Bytes admitted alongside `sent_frames`.
    pub sent_bytes: u64,
    /// Frames dropped at the lane bound (offered load beyond the
    /// tenant's staging quota).
    pub quota_drops: u64,
    /// Head-of-lane frames deferred by the tenant's token bucket (one
    /// count per deferred fill pass, not per retry of the same frame).
    pub rate_deferrals: u64,
    /// RX frames dropped because the tenant exhausted its per-pass RX
    /// budget slice.
    pub rx_quota_drops: u64,
    /// Frames currently parked in the staging lane (a gauge, not a
    /// counter).
    pub staged_frames: u64,
}

/// One tenant's bounded TX staging lane on one shard: frames a tenant
/// offers wait here, ahead of the *shared* coalescing ring, until the
/// deficit round-robin admits them. The lane bound and the token bucket
/// are this tenant's problem alone — a flooding tenant fills its own
/// lane and drops its own frames.
struct TxLane {
    tenant: TenantId,
    weight: u32,
    capacity: usize,
    /// DRR deficit: bytes this lane may still send in the current round.
    deficit: u64,
    bucket: Option<TokenBucket>,
    staging: VecDeque<Mbuf>,
    stats: TenantLaneStats,
}

/// One shard's view of the tenancy policy: a TX lane and an RX budget
/// slice per registered tenant.
pub(super) struct ShardTenancy {
    registry: Arc<TenantRegistry>,
    lanes: Vec<TxLane>,
    /// Lane the next DRR round starts at, rotated for fairness.
    next_lane: usize,
    /// A budget-capped fill stopped mid-round inside `next_lane`: the
    /// next fill must resume that lane *without* re-crediting its
    /// quantum, or a budget smaller than one lane's per-round service
    /// would re-credit the same lane forever and starve the rest.
    resume_mid_round: bool,
    tx_pass_bytes: Option<u64>,
    /// Per-lane RX frames admitted this pass (reset by `rx_open`)
    /// against the precomputed per-pass slice.
    rx_used: Vec<usize>,
    rx_slice: Vec<usize>,
}

impl ShardTenancy {
    pub(super) fn new(cfg: &TenancyCfg, rx_budget: usize) -> Self {
        let tenants = cfg.registry.tenants();
        let total_share: u64 = tenants
            .iter()
            .map(|(_, s)| s.rx_share as u64)
            .sum::<u64>()
            .max(1);
        let rx_slice: Vec<usize> = tenants
            .iter()
            .map(|(_, s)| ((rx_budget as u64 * s.rx_share as u64 / total_share).max(1)) as usize)
            .collect();
        let lanes: Vec<TxLane> = tenants
            .iter()
            .map(|&(t, ref spec)| TxLane {
                tenant: t,
                weight: spec.weight.max(1),
                capacity: spec.tx_lane_frames.max(1),
                deficit: 0,
                bucket: spec.rate.map(TokenBucket::new),
                staging: VecDeque::new(),
                stats: TenantLaneStats {
                    tenant: t.0,
                    ..TenantLaneStats::default()
                },
            })
            .collect();
        let n = lanes.len();
        ShardTenancy {
            registry: Arc::clone(&cfg.registry),
            lanes,
            next_lane: 0,
            resume_mid_round: false,
            tx_pass_bytes: cfg.tx_pass_bytes,
            rx_used: vec![0; n],
            rx_slice,
        }
    }

    fn lane_idx(&self, tenant: TenantId) -> Option<usize> {
        self.lanes.iter().position(|l| l.tenant == tenant)
    }

    /// Each RX pass re-opens every tenant's RX slice; what a tenant did
    /// not use last pass does not carry over (no RX banking).
    pub(super) fn rx_open(&mut self) {
        self.rx_used.fill(0);
    }

    /// Per-tenant RX budget slices: each poll pass splits the shard's RX
    /// budget across tenants in proportion to `rx_share`, and a tenant's
    /// frames beyond its slice are dropped here (counted) — one tenant's
    /// RX flood can saturate only its own slice of the pass, never the
    /// whole budget. The destination port of the UDP/TCP payload `l4`
    /// names the owning tenant; frames to host-owned ports are never
    /// policed.
    pub(super) fn rx_admit(&mut self, protocol: IpProtocol, l4: &[u8]) -> bool {
        let Some((_, dst_port)) = l4_ports(protocol, l4) else {
            return true;
        };
        let owner = self.registry.port_owner(dst_port);
        if owner.is_host() {
            return true;
        }
        let Some(idx) = self.lane_idx(owner) else {
            return true;
        };
        if self.rx_used[idx] >= self.rx_slice[idx] {
            self.lanes[idx].stats.rx_quota_drops += 1;
            tenant_counters::note_quota_drop();
            return false;
        }
        self.rx_used[idx] += 1;
        true
    }

    /// TX attribution is the buffer stamp: headers were prepended in
    /// place (or copied stamp-preserving), so the frame still names the
    /// tenant whose payload it carries. Tenant frames park in the
    /// tenant's own bounded staging lane until the deficit round-robin
    /// admits them (`None`: the frame was staged, or dropped at the lane
    /// bound); HOST frames (stack control traffic) are handed back for
    /// the shared ring, with control-plane priority.
    pub(super) fn stage(&mut self, frame: DemiBuffer) -> Option<DemiBuffer> {
        let tenant = frame.tenant();
        if tenant.is_host() {
            return Some(frame);
        }
        let Some(idx) = self.lane_idx(tenant) else {
            return Some(frame);
        };
        let lane = &mut self.lanes[idx];
        if lane.staging.len() >= lane.capacity {
            // The flooding tenant's own frame drops at its own bound —
            // the shared ring never sees the overflow.
            lane.stats.quota_drops += 1;
            tenant_counters::note_quota_drop();
            return None;
        }
        lane.staging.push_back(Mbuf::from_data(frame));
        None
    }

    /// Deficit-round-robin admission from the tenant staging lanes into
    /// the shared TX ring (`admit`), ahead of the single `tx_burst`
    /// doorbell. Each round credits every backlogged lane `weight × MTU`
    /// bytes of deficit and serves its head frames while they fit — so
    /// under saturation tenants share the doorbell in proportion to
    /// weight, regardless of offered load. A lane whose head the token
    /// bucket refuses is deferred (deficit reset: the bucket, not the
    /// round, owns its next send time) and wakes via the bucket deadline
    /// folded into [`NetworkStack::next_deadline`]. Returns the frames
    /// left staged by the shared per-pass byte budget — reported as poll
    /// backlog so the scheduler keeps draining; rate-limited leftovers
    /// are *not* counted (polling cannot make tokens refill).
    pub(super) fn drr_fill(
        &mut self,
        clock: &SimClock,
        mtu: usize,
        mut admit: impl FnMut(Mbuf),
    ) -> usize {
        if self.lanes.iter().all(|l| l.staging.is_empty()) {
            return 0;
        }
        let now_ns = clock.now().as_nanos();
        let mut remaining = self.tx_pass_bytes;
        let quantum_unit = mtu as u64;
        let nlanes = self.lanes.len();
        let mut budget_capped = false;
        let mut capped_at = self.next_lane;
        // A prior budget-capped fill stopped mid-round in `next_lane`:
        // that lane already holds this round's quantum, so the first
        // visit resumes it credit-free.
        let mut skip_credit = std::mem::take(&mut self.resume_mid_round);
        'fill: loop {
            let mut progressed = false;
            tenant_counters::note_tx_deficit_round();
            for off in 0..nlanes {
                let idx = (self.next_lane + off) % nlanes;
                let lane = &mut self.lanes[idx];
                let resumed = off == 0 && std::mem::take(&mut skip_credit);
                if lane.staging.is_empty() {
                    lane.deficit = 0;
                    continue;
                }
                if !resumed {
                    lane.deficit = lane
                        .deficit
                        .saturating_add(lane.weight as u64 * quantum_unit);
                }
                let mut deferred = false;
                while let Some(front) = lane.staging.front() {
                    let bytes = front.as_slice().len() as u64;
                    if bytes > lane.deficit {
                        break;
                    }
                    if remaining.is_some_and(|rem| bytes > rem) {
                        budget_capped = true;
                        capped_at = idx;
                        break 'fill;
                    }
                    if let Some(b) = &mut lane.bucket {
                        if !b.try_consume(bytes, now_ns) {
                            deferred = true;
                            break;
                        }
                    }
                    let mbuf = lane.staging.pop_front().expect("peeked above");
                    lane.deficit -= bytes;
                    if let Some(rem) = &mut remaining {
                        *rem -= bytes;
                    }
                    lane.stats.sent_frames += 1;
                    lane.stats.sent_bytes += bytes;
                    admit(mbuf);
                    progressed = true;
                }
                if deferred {
                    lane.deficit = 0;
                    lane.stats.rate_deferrals += 1;
                    tenant_counters::note_rate_limited_frame();
                }
                if lane.staging.is_empty() {
                    lane.deficit = 0;
                }
            }
            self.next_lane = (self.next_lane + 1) % nlanes;
            if !progressed {
                break;
            }
        }
        if budget_capped {
            // Resume the interrupted round exactly where it stopped.
            self.next_lane = capped_at;
            self.resume_mid_round = true;
            self.lanes.iter().map(|l| l.staging.len()).sum()
        } else {
            0
        }
    }

    /// Earliest token-bucket wakeup across this shard's staged lanes —
    /// the virtual time the next rate-limited head frame fits. Folding
    /// this into the stack's timer horizon makes a paced lane resume
    /// exactly on schedule instead of whenever other traffic polls.
    pub(super) fn next_deadline(&self, clock: &SimClock) -> Option<SimTime> {
        let now_ns = clock.now().as_nanos();
        self.lanes
            .iter()
            .filter_map(|lane| {
                let front = lane.staging.front()?;
                let bucket = lane.bucket.as_ref()?;
                let ready = bucket.next_ready_ns(front.as_slice().len() as u64, now_ns)?;
                Some(SimTime::from_nanos(ready))
            })
            .min()
    }

    /// A recycled ephemeral port arrives unowned: the transient grant
    /// made at connect time is revoked as the port is released.
    pub(super) fn revoke_port(&self, port: u16) {
        self.registry.revoke_port(port);
    }
}

impl NetworkStack {
    /// Per-tenant datapath counters. Empty without tenancy. Order matches
    /// registration order.
    pub fn tenant_stats(&self) -> Vec<TenantLaneStats> {
        let shard = self.shard.borrow();
        let lanes = shard.tenancy.iter().flat_map(|ten| &ten.lanes);
        lanes
            .map(|lane| TenantLaneStats {
                staged_frames: lane.staging.len() as u64,
                ..lane.stats
            })
            .collect()
    }
}

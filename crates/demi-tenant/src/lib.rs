//! Tenant identity and isolation primitives.
//!
//! The paper's thesis is that kernel bypass abandoned the OS roles of
//! protection and resource management, and that the libOS must win them
//! back. This crate is the vocabulary for that: a [`TenantId`] names one
//! of several mutually untrusting applications sharing a device, the
//! ambient [`current`] tenant says *on whose behalf* the calling code is
//! executing, and [`TenantRegistry`] records each tenant's resource
//! policy (TX weight, staging capacity, RX share, rate limit, pool
//! budget, TIME_WAIT quota) plus which ports it owns.
//!
//! The crate deliberately sits at the bottom of the dependency graph —
//! it knows nothing about buffers, devices, or the stack. The memory
//! layer stamps every `DemiBuffer` with the allocating tenant and
//! refuses cross-tenant views; the net stack consults the registry to
//! police RX budgets, schedule TX lanes by deficit round-robin, and
//! deny foreign binds. Time is a raw `u64` nanosecond count (the
//! simulation's virtual clock) so the crate needs no clock dependency.
//!
//! Tenant 0 is [`TenantId::HOST`]: the trusted supervisor — the libOS
//! itself and single-tenant deployments. Host-owned state is accessible
//! to everyone (every existing single-application workload runs
//! entirely as HOST and sees no policy at all), and HOST code may touch
//! any tenant's state — it is the stack prepending headers onto a
//! tenant's payload, not one tenant spying on another.
#![warn(unreachable_pub)]

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Mutex;

mod bucket;
pub mod counters;

pub use bucket::TokenBucket;

/// Identifies one tenant sharing the device. `TenantId::HOST` (zero) is
/// the trusted supervisor; real tenants are handed out by
/// [`TenantRegistry::register`] starting at 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The trusted supervisor: the libOS itself, and the implicit tenant
    /// of every single-application deployment.
    pub const HOST: TenantId = TenantId(0);

    /// Whether this is the trusted supervisor.
    pub fn is_host(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_host() {
            write!(f, "TenantId(HOST)")
        } else {
            write!(f, "TenantId({})", self.0)
        }
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_host() {
            write!(f, "host")
        } else {
            write!(f, "tenant{}", self.0)
        }
    }
}

thread_local! {
    static CURRENT: Cell<TenantId> = const { Cell::new(TenantId::HOST) };
}

/// The tenant the calling thread is currently executing on behalf of.
/// Defaults to [`TenantId::HOST`] outside any [`scope`].
pub fn current() -> TenantId {
    CURRENT.with(|c| c.get())
}

/// Restores the previous ambient tenant when dropped.
pub(crate) struct TenantScope {
    prev: TenantId,
}

impl Drop for TenantScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Switches the ambient tenant until the returned guard drops.
pub(crate) fn enter(tenant: TenantId) -> TenantScope {
    let prev = CURRENT.with(|c| c.replace(tenant));
    TenantScope { prev }
}

/// Runs `f` with `tenant` as the ambient tenant.
pub fn scope<R>(tenant: TenantId, f: impl FnOnce() -> R) -> R {
    let _guard = enter(tenant);
    f()
}

/// Whether the *current* ambient tenant may touch state owned by
/// `owner`. HOST code may touch anything (it is the stack operating on
/// the tenant's behalf); host-owned state is visible to everyone; a
/// tenant may otherwise only touch its own state.
pub fn may_access(owner: TenantId) -> bool {
    let cur = current();
    cur.is_host() || owner.is_host() || cur == owner
}

/// A per-tenant token-bucket rate limit, in payload bytes on the
/// virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained rate, bytes per second of virtual time.
    pub bytes_per_sec: u64,
    /// Burst allowance, bytes.
    pub burst_bytes: u64,
}

/// One tenant's resource policy. The defaults describe a cooperative
/// tenant with weight 1 and no hard caps.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable label for tables and artifacts.
    pub name: String,
    /// TX scheduling weight: under saturation the deficit round-robin
    /// serves tenants in proportion to weight.
    pub weight: u32,
    /// Capacity of the tenant's TX staging lane, in frames. Frames
    /// offered beyond this bound are dropped at the lane (a quota drop),
    /// never enqueued into the shared ring.
    pub tx_lane_frames: usize,
    /// RX processing share: each poll pass splits the shard's RX budget
    /// across tenants in proportion to this.
    pub rx_share: u32,
    /// Optional hard rate limit on TX bytes (virtual time).
    pub rate: Option<RateLimit>,
    /// Optional buffer-pool byte budget — the tenant's private mempool
    /// partition refuses allocations beyond this.
    pub pool_bytes: Option<u64>,
    /// Optional cap on compact TIME_WAIT records the tenant may hold
    /// per TCP peer; beyond it the tenant's own oldest record is
    /// evicted, never another tenant's.
    pub tw_quota: Option<usize>,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            name: String::new(),
            weight: 1,
            tx_lane_frames: 256,
            rx_share: 1,
            rate: None,
            pool_bytes: None,
            tw_quota: None,
        }
    }
}

impl TenantSpec {
    /// A cooperative tenant with the given label and weight.
    pub fn named(name: &str, weight: u32) -> Self {
        TenantSpec {
            name: name.to_string(),
            weight,
            rx_share: weight,
            ..TenantSpec::default()
        }
    }
}

/// The tenant table one shared device serves from: specs keyed by
/// [`TenantId`] plus a lock-free port-ownership map.
///
/// Port ownership is the hot lookup — RX policing reads it once per
/// frame — so it is a flat array of atomics (one load, no lock), the
/// same shape as the stack's `PortAllocator`. Spec reads are
/// control-path and take a mutex.
pub struct TenantRegistry {
    specs: Mutex<Vec<TenantSpec>>,
    /// `port_owner[p]` is the owning tenant's id, 0 = unowned (host).
    port_owner: Box<[AtomicU16]>,
    next_id: AtomicU16,
}

impl Default for TenantRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TenantRegistry {
    /// An empty registry: no tenants, every port host-owned.
    pub fn new() -> Self {
        let port_owner = (0..=u16::MAX as usize)
            .map(|_| AtomicU16::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        TenantRegistry {
            // Slot 0 is HOST's spec: weight/shares never consulted for
            // the supervisor, held so ids index the vec directly.
            specs: Mutex::new(vec![TenantSpec::named("host", 1)]),
            port_owner,
            next_id: AtomicU16::new(1),
        }
    }

    /// Admits a tenant and returns its id.
    pub fn register(&self, spec: TenantSpec) -> TenantId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut specs = self.specs.lock().expect("tenant registry poisoned");
        debug_assert_eq!(specs.len(), id as usize);
        specs.push(spec);
        TenantId(id)
    }

    /// Every registered tenant (excluding HOST) with its policy.
    pub fn tenants(&self) -> Vec<(TenantId, TenantSpec)> {
        self.specs
            .lock()
            .expect("tenant registry poisoned")
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, s)| (TenantId(i as u16), s.clone()))
            .collect()
    }

    /// Grants `port` to `tenant`. Granting to HOST releases the port.
    pub fn grant_port(&self, tenant: TenantId, port: u16) {
        self.port_owner[port as usize].store(tenant.0, Ordering::Relaxed);
    }

    /// Returns `port` to host ownership.
    pub fn revoke_port(&self, port: u16) {
        self.port_owner[port as usize].store(0, Ordering::Relaxed);
    }

    /// The tenant owning `port` (HOST when unowned). One atomic load —
    /// safe on the per-frame RX path.
    pub fn port_owner(&self, port: u16) -> TenantId {
        TenantId(self.port_owner[port as usize].load(Ordering::Relaxed))
    }

    /// Whether `tenant` may bind/listen/connect on `port`: a tenant only
    /// on ports granted to it, HOST only on unowned ports (the
    /// supervisor must not squat on a tenant's partition either).
    pub fn may_bind(&self, tenant: TenantId, port: u16) -> bool {
        let owner = self.port_owner(port);
        if tenant.is_host() {
            owner.is_host()
        } else {
            owner == tenant
        }
    }
}

impl fmt::Debug for TenantRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let specs = self.specs.lock().expect("tenant registry poisoned");
        write!(f, "TenantRegistry({} tenants)", specs.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_is_the_ambient_default() {
        assert_eq!(current(), TenantId::HOST);
        assert!(may_access(TenantId(3)), "host may touch any tenant");
    }

    #[test]
    fn scope_switches_and_restores() {
        let t = TenantId(2);
        scope(t, || {
            assert_eq!(current(), t);
            assert!(may_access(t));
            assert!(may_access(TenantId::HOST), "host state is public");
            assert!(!may_access(TenantId(3)), "foreign tenant is off limits");
            // Nested scopes restore to the outer tenant.
            scope(TenantId(3), || assert_eq!(current(), TenantId(3)));
            assert_eq!(current(), t);
        });
        assert_eq!(current(), TenantId::HOST);
    }

    #[test]
    fn registry_hands_out_dense_ids() {
        let reg = TenantRegistry::new();
        let a = reg.register(TenantSpec::named("a", 1));
        let b = reg.register(TenantSpec::named("b", 3));
        assert_eq!((a, b), (TenantId(1), TenantId(2)));
        let tenants = reg.tenants();
        assert_eq!(tenants.len(), 2);
        assert_eq!((tenants[1].0, tenants[1].1.weight), (b, 3));
    }

    #[test]
    fn port_ownership_gates_binds() {
        let reg = TenantRegistry::new();
        let a = reg.register(TenantSpec::named("a", 1));
        let b = reg.register(TenantSpec::named("b", 1));
        reg.grant_port(a, 80);
        assert_eq!(reg.port_owner(80), a);
        assert!(reg.may_bind(a, 80));
        assert!(!reg.may_bind(b, 80), "foreign port must be denied");
        assert!(!reg.may_bind(TenantId::HOST, 80), "host must not squat");
        assert!(!reg.may_bind(a, 81), "tenant owns only granted ports");
        assert!(reg.may_bind(TenantId::HOST, 81));
        reg.revoke_port(80);
        assert_eq!(reg.port_owner(80), TenantId::HOST);
        assert!(reg.may_bind(TenantId::HOST, 80));
    }
}

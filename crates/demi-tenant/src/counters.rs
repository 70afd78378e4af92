//! Isolation-event counters.
//!
//! Each count is one enforcement event: a DRR scheduling round at the
//! shared doorbell, a frame refused by a tenant's token bucket, a frame
//! (RX or TX) dropped at a tenant's quota, a denied cross-tenant
//! buffer/port access, or a private mempool refusing an allocation over
//! budget. The enforcing code sits in three crates (buffers, pools, the
//! stack's lanes) and a denial has no object to live on, so these are one
//! thread-local family (`demi_telemetry::counter_family!`), counted on
//! the thread — the shard world — that enforced. `demikernel::Metrics`
//! folds them against a baseline like every other family, so the tenant
//! tests assert isolation *events*, not just end-to-end latency.

demi_telemetry::counter_family! {
    /// A point-in-time reading of the tenant isolation counters.
    pub struct TenantSnapshot {
        /// Deficit-round-robin rounds executed over tenant TX lanes.
        pub tx_deficit_rounds: u64 => note_tx_deficit_round,
        /// Frames held back by a tenant's token-bucket rate limit (they stay
        /// staged and retry when the bucket refills).
        pub rate_limited_frames: u64 => note_rate_limited_frame,
        /// Frames dropped at a tenant quota: TX lane full or RX slice spent.
        pub quota_drops: u64 => note_quota_drop,
        /// Cross-tenant accesses denied: foreign buffer views/clones/
        /// prepends and foreign port binds.
        pub cross_tenant_denials: u64 => note_cross_tenant_denial,
        /// Allocations refused because a tenant's private pool partition was
        /// at its byte budget.
        pub pool_exhaustions: u64 => note_pool_exhaustion,
    }
    /// This thread's tenant isolation counter totals.
    pub fn snapshot();
}

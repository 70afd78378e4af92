//! Exact data-path accounting for the experiments.
//!
//! The paper's claims are about *counted* costs: kernel crossings per I/O
//! (Fig. 1 / E1), copies (E2), and wakeups (E4). Every libOS carries a
//! [`Metrics`] handle and the experiment harness reads it. A kernel-bypass
//! libOS never increments `data_path_syscalls`; the catnap baseline
//! delegates to the simulated kernel's own counters.

use std::cell::RefCell;
use std::rc::Rc;

use demi_memory::DatapathSnapshot;
use demi_telemetry::counters::Baseline;
use dpdk_sim::counters::{
    NicSlotSnapshot, RxQueueSnapshot, TxBatchSnapshot, NIC_SLOT_COUNTERS, RX_QUEUE_SLOTS,
};
use net_stack::counters::{BatchSnapshot, ConnSnapshot, ShardSnapshot};

/// Shared counter block (cheap to clone; one per libOS instance).
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Rc<RefCell<MetricsInner>>,
}

/// Counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Kernel crossings on the data path (push/pop/wait). Zero for every
    /// kernel-bypass libOS — the point of Fig. 1.
    pub data_path_syscalls: u64,
    /// Control-path kernel interactions (device setup, listen, connect
    /// bookkeeping): allowed by the architecture (Fig. 2).
    pub control_path_syscalls: u64,
    /// Payload copies performed by the libOS.
    pub copies: u64,
    /// Bytes moved by those copies.
    pub bytes_copied: u64,
    /// `wait`/`wait_any` returns that delivered a completion.
    pub wakeups: u64,
    /// Completions delivered along with their data (always equal to
    /// `wakeups` for Demikernel; the epoll baseline needs extra syscalls).
    pub wakeups_with_data: u64,
    /// Push operations started.
    pub pushes: u64,
    /// Pop operations started.
    pub pops: u64,
    /// Iterations of the `wait_any` loop (each = one pump of the world).
    pub wait_passes: u64,
    /// Task polls performed across those passes. With the waker-driven
    /// scheduler this tracks *ready* work, independent of how many
    /// operations are parked.
    pub wait_polls: u64,
    /// `DemiBuffer` allocations since the last reset, from the demi-memory
    /// datapath counters (E12). Thread-wide: in a two-host simulation this
    /// covers both ends of the wire, which is what "per round trip" costs
    /// want.
    pub buffer_allocs: u64,
    /// Payload-byte copy operations since the last reset (same source).
    /// Zero on the catnip echo path — headers prepend into headroom and
    /// payloads travel as views.
    pub buffer_copies: u64,
    /// Bytes moved by those copies.
    pub buffer_bytes_copied: u64,
    /// Completed-token lookups performed by `wait_any`/`wait_all` loops.
    /// With the completion ring this is O(tokens) once per call plus O(1)
    /// per arrival — it no longer multiplies by the number of pump passes
    /// (E13's O(1) completion-delivery claim).
    pub completion_checks: u64,
    /// `tx_burst` device handoffs since the last reset, from the dpdk-sim
    /// counters (E13). Thread-wide, like the buffer counters.
    pub tx_burst_calls: u64,
    /// Histogram of frames per `tx_burst` call: buckets for 1, 2–7, 8–31,
    /// and ≥32 frames (`dpdk_sim::counters::BURST_BUCKET_LABELS`).
    pub tx_frames_per_burst: [u64; dpdk_sim::counters::BURST_BUCKETS],
    /// Pure-ACK frames avoided by TCP delayed-ACK coalescing since the
    /// last reset, from the net-stack counters (E13).
    pub acks_coalesced: u64,
    /// Poll passes that exhausted their RX budget with device frames still
    /// pending (same source).
    pub rx_budget_exhausted: u64,
    /// Frames accepted per device RX queue since the last reset, from the
    /// dpdk-sim per-queue counters (E14). Queues beyond
    /// `RX_QUEUE_SLOTS - 1` share the last slot.
    pub rx_queue_enqueued: [u64; RX_QUEUE_SLOTS],
    /// Frames tail-dropped per device RX queue since the last reset.
    pub rx_queue_dropped: [u64; RX_QUEUE_SLOTS],
    /// Frames that arrived on a queue whose shard does not own their flow
    /// and were handed off, from the net-stack sharding counters (E14).
    /// Zero whenever device RSS and the stack's `shard_for` agree.
    pub steering_mismatches: u64,
    /// Timer entries scheduled on the timing wheels since the last reset.
    pub timers_scheduled: u64,
    /// Wheel entries that fired live (their connection was ticked).
    pub timers_fired: u64,
    /// Wheel entries discarded as lazily cancelled.
    pub timers_stale: u64,
    /// TCP demux lookups since the last reset, from the net-stack
    /// connection-scale counters (E18).
    pub demux_lookups: u64,
    /// Demux lookups served by the single-entry last-flow cache.
    pub demux_cache_hits: u64,
    /// Full control blocks demoted to compact TIME_WAIT records.
    pub tw_demoted: u64,
    /// TIME_WAIT records expired at 2·MSL.
    pub tw_expired: u64,
    /// SYN-table entries evicted oldest-first under flood.
    pub syns_evicted: u64,
    /// Lazy TCB queue-box allocations (steady state holds this at zero).
    pub tcb_queue_allocs: u64,
    /// Drained TCB queue boxes released by the compactor.
    pub tcb_queue_releases: u64,
    /// Device cycles charged per SmartNIC program slot since the last
    /// reset, from the dpdk-sim per-slot counters (E17). Slots beyond
    /// `NIC_SLOT_COUNTERS - 1` share the last entry.
    pub nic_slot_cycles: [u64; NIC_SLOT_COUNTERS],
    /// Frames examined per SmartNIC program slot.
    pub nic_slot_frames: [u64; NIC_SLOT_COUNTERS],
    /// Frames dropped or absorbed per SmartNIC program slot.
    pub nic_slot_drops: [u64; NIC_SLOT_COUNTERS],
    /// Requests served device-side per SmartNIC program slot.
    pub nic_slot_served: [u64; NIC_SLOT_COUNTERS],
    /// Deficit-round-robin fill rounds run by the weighted-fair TX
    /// scheduler since the last reset, from the demi-tenant counters
    /// (E20). Zero unless a stack was built with tenancy enabled.
    pub tx_deficit_rounds: u64,
    /// TX fill passes in which a tenant's token bucket deferred its lane
    /// (rate limiting engaged).
    pub rate_limited_frames: u64,
    /// Frames dropped at a tenant quota boundary: full TX staging lane,
    /// exhausted RX slice, or TIME_WAIT partition eviction.
    pub quota_drops: u64,
    /// Cross-tenant accesses refused: buffer view/clone/prepend attempts
    /// and port bind/listen/connect denials.
    pub cross_tenant_denials: u64,
    /// Allocations refused because a tenant's private mempool partition
    /// was spent.
    pub pool_exhaustions: u64,
}

impl MetricsSnapshot {
    /// Field-wise sum with `other` — counters from different shard
    /// threads add exactly, so a logical host's totals are the merge of
    /// its worlds' snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.data_path_syscalls += other.data_path_syscalls;
        self.control_path_syscalls += other.control_path_syscalls;
        self.copies += other.copies;
        self.bytes_copied += other.bytes_copied;
        self.wakeups += other.wakeups;
        self.wakeups_with_data += other.wakeups_with_data;
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.wait_passes += other.wait_passes;
        self.wait_polls += other.wait_polls;
        self.buffer_allocs += other.buffer_allocs;
        self.buffer_copies += other.buffer_copies;
        self.buffer_bytes_copied += other.buffer_bytes_copied;
        self.completion_checks += other.completion_checks;
        self.tx_burst_calls += other.tx_burst_calls;
        for (a, b) in self
            .tx_frames_per_burst
            .iter_mut()
            .zip(other.tx_frames_per_burst.iter())
        {
            *a += b;
        }
        self.acks_coalesced += other.acks_coalesced;
        self.rx_budget_exhausted += other.rx_budget_exhausted;
        for (a, b) in self
            .rx_queue_enqueued
            .iter_mut()
            .zip(other.rx_queue_enqueued.iter())
        {
            *a += b;
        }
        for (a, b) in self
            .rx_queue_dropped
            .iter_mut()
            .zip(other.rx_queue_dropped.iter())
        {
            *a += b;
        }
        self.steering_mismatches += other.steering_mismatches;
        self.timers_scheduled += other.timers_scheduled;
        self.timers_fired += other.timers_fired;
        self.timers_stale += other.timers_stale;
        self.demux_lookups += other.demux_lookups;
        self.demux_cache_hits += other.demux_cache_hits;
        self.tw_demoted += other.tw_demoted;
        self.tw_expired += other.tw_expired;
        self.syns_evicted += other.syns_evicted;
        self.tcb_queue_allocs += other.tcb_queue_allocs;
        self.tcb_queue_releases += other.tcb_queue_releases;
        for (a, b) in self.nic_slot_cycles.iter_mut().zip(other.nic_slot_cycles) {
            *a += b;
        }
        for (a, b) in self.nic_slot_frames.iter_mut().zip(other.nic_slot_frames) {
            *a += b;
        }
        for (a, b) in self.nic_slot_drops.iter_mut().zip(other.nic_slot_drops) {
            *a += b;
        }
        for (a, b) in self.nic_slot_served.iter_mut().zip(other.nic_slot_served) {
            *a += b;
        }
        self.tx_deficit_rounds += other.tx_deficit_rounds;
        self.rate_limited_frames += other.rate_limited_frames;
        self.quota_drops += other.quota_drops;
        self.cross_tenant_denials += other.cross_tenant_denials;
        self.pool_exhaustions += other.pool_exhaustions;
    }
}

/// Cross-thread metrics sink for thread-per-shard execution.
///
/// A [`Metrics`] handle folds *thread-local* crate counters into its
/// snapshots — read from the wrong thread, those fields silently report
/// zero. Each shard thread therefore takes its own `snapshot()` *on its
/// own thread* (where the thread-locals are live) and [`absorb`]s it
/// here; [`merged`] on any thread then reports the logical host's true
/// totals. The hub is `Send + Sync` (share it via `Arc`).
///
/// [`absorb`]: MetricsHub::absorb
/// [`merged`]: MetricsHub::merged
#[derive(Default)]
pub struct MetricsHub {
    merged: std::sync::Mutex<MetricsSnapshot>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one shard thread's snapshot into the hub. Call on the shard
    /// thread that produced it.
    pub fn absorb(&self, snap: MetricsSnapshot) {
        self.merged.lock().unwrap().merge(&snap);
    }

    /// The sum of everything absorbed so far.
    pub fn merged(&self) -> MetricsSnapshot {
        *self.merged.lock().unwrap()
    }

    /// Clears the hub (between experiment phases).
    pub fn reset(&self) {
        *self.merged.lock().unwrap() = MetricsSnapshot::default();
    }
}

struct MetricsInner {
    snap: MetricsSnapshot,
    /// Thread-local counter readings at construction/reset; `snapshot()`
    /// reports movement since then (`demi_telemetry::counters::Baseline`).
    /// Deltas saturate, so a crate-level counter reset between a baseline
    /// capture and a fold clamps to zero instead of underflowing.
    buffer_baseline: Baseline<DatapathSnapshot>,
    tx_batch_baseline: Baseline<TxBatchSnapshot>,
    stack_batch_baseline: Baseline<BatchSnapshot>,
    rx_queue_baseline: Baseline<RxQueueSnapshot>,
    shard_baseline: Baseline<ShardSnapshot>,
    conn_baseline: Baseline<ConnSnapshot>,
    nic_slot_baseline: Baseline<NicSlotSnapshot>,
    tenant_baseline: Baseline<demi_tenant::counters::TenantSnapshot>,
}

impl Default for MetricsInner {
    fn default() -> Self {
        MetricsInner {
            snap: MetricsSnapshot::default(),
            buffer_baseline: Baseline::new(demi_memory::counters::snapshot()),
            tx_batch_baseline: Baseline::new(dpdk_sim::counters::snapshot()),
            stack_batch_baseline: Baseline::new(net_stack::counters::snapshot()),
            rx_queue_baseline: Baseline::new(dpdk_sim::counters::rx_queue_snapshot()),
            shard_baseline: Baseline::new(net_stack::counters::shard_snapshot()),
            conn_baseline: Baseline::new(net_stack::counters::conn_snapshot()),
            nic_slot_baseline: Baseline::new(dpdk_sim::counters::nic_slot_snapshot()),
            tenant_baseline: Baseline::new(demi_tenant::counters::snapshot()),
        }
    }
}

impl Metrics {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a data-path kernel crossing (never called by bypass
    /// libOSes; exists so the baseline adapter can be honest).
    pub fn count_data_path_syscall(&self) {
        self.inner.borrow_mut().snap.data_path_syscalls += 1;
    }

    /// Records a control-path kernel interaction.
    pub fn count_control_path_syscall(&self) {
        self.inner.borrow_mut().snap.control_path_syscalls += 1;
    }

    /// Records a libOS payload copy.
    pub fn count_copy(&self, bytes: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.snap.copies += 1;
        inner.snap.bytes_copied += bytes as u64;
    }

    /// Records a completed wait that handed data to the application.
    pub fn count_wakeup(&self, with_data: bool) {
        let mut inner = self.inner.borrow_mut();
        inner.snap.wakeups += 1;
        if with_data {
            inner.snap.wakeups_with_data += 1;
        }
    }

    /// Records a push submission.
    pub fn count_push(&self) {
        self.inner.borrow_mut().snap.pushes += 1;
    }

    /// Records a pop submission.
    pub fn count_pop(&self) {
        self.inner.borrow_mut().snap.pops += 1;
    }

    /// Records one iteration of a `wait` loop and the task polls it made.
    pub fn count_wait_pass(&self, polls: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.snap.wait_passes += 1;
        inner.snap.wait_polls += polls;
    }

    /// Records `checks` completed-token lookups made by a wait loop.
    pub fn count_completion_checks(&self, checks: u64) {
        self.inner.borrow_mut().snap.completion_checks += checks;
    }

    /// Snapshot, folding in the thread-local datapath and batching
    /// counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        let mut snap = inner.snap;
        let buffers = inner
            .buffer_baseline
            .movement(demi_memory::counters::snapshot());
        snap.buffer_allocs = buffers.allocs;
        snap.buffer_copies = buffers.copies;
        snap.buffer_bytes_copied = buffers.bytes_copied;
        let tx = inner
            .tx_batch_baseline
            .movement(dpdk_sim::counters::snapshot());
        snap.tx_burst_calls = tx.tx_burst_calls;
        snap.tx_frames_per_burst = tx.frames_per_burst;
        let batch = inner
            .stack_batch_baseline
            .movement(net_stack::counters::snapshot());
        snap.acks_coalesced = batch.acks_coalesced;
        snap.rx_budget_exhausted = batch.rx_budget_exhausted;
        let rx_queues = inner
            .rx_queue_baseline
            .movement(dpdk_sim::counters::rx_queue_snapshot());
        snap.rx_queue_enqueued = rx_queues.enqueued;
        snap.rx_queue_dropped = rx_queues.dropped;
        let shard = inner
            .shard_baseline
            .movement(net_stack::counters::shard_snapshot());
        snap.steering_mismatches = shard.steering_mismatches;
        snap.timers_scheduled = shard.timers_scheduled;
        snap.timers_fired = shard.timers_fired;
        snap.timers_stale = shard.timers_stale;
        let conn = inner
            .conn_baseline
            .movement(net_stack::counters::conn_snapshot());
        snap.demux_lookups = conn.demux_lookups;
        snap.demux_cache_hits = conn.demux_cache_hits;
        snap.tw_demoted = conn.tw_demoted;
        snap.tw_expired = conn.tw_expired;
        snap.syns_evicted = conn.syns_evicted;
        snap.tcb_queue_allocs = conn.tcb_queue_allocs;
        snap.tcb_queue_releases = conn.tcb_queue_releases;
        let slots = inner
            .nic_slot_baseline
            .movement(dpdk_sim::counters::nic_slot_snapshot());
        snap.nic_slot_cycles = slots.cycles;
        snap.nic_slot_frames = slots.frames;
        snap.nic_slot_drops = slots.drops;
        snap.nic_slot_served = slots.served;
        let tenant = inner
            .tenant_baseline
            .movement(demi_tenant::counters::snapshot());
        snap.tx_deficit_rounds = tenant.tx_deficit_rounds;
        snap.rate_limited_frames = tenant.rate_limited_frames;
        snap.quota_drops = tenant.quota_drops;
        snap.cross_tenant_denials = tenant.cross_tenant_denials;
        snap.pool_exhaustions = tenant.pool_exhaustions;
        snap
    }

    /// Zeroes the counters (between experiment phases), re-baselining the
    /// per-crate thread-local counters so the next snapshot reports only
    /// movement after this point.
    pub fn reset(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.snap = MetricsSnapshot::default();
        inner
            .buffer_baseline
            .rebase(demi_memory::counters::snapshot());
        inner
            .tx_batch_baseline
            .rebase(dpdk_sim::counters::snapshot());
        inner
            .stack_batch_baseline
            .rebase(net_stack::counters::snapshot());
        inner
            .rx_queue_baseline
            .rebase(dpdk_sim::counters::rx_queue_snapshot());
        inner
            .shard_baseline
            .rebase(net_stack::counters::shard_snapshot());
        inner
            .conn_baseline
            .rebase(net_stack::counters::conn_snapshot());
        inner
            .nic_slot_baseline
            .rebase(dpdk_sim::counters::nic_slot_snapshot());
        inner
            .tenant_baseline
            .rebase(demi_tenant::counters::snapshot());
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Metrics({:?})", self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = Metrics::new();
        m.count_push();
        m.count_pop();
        m.count_copy(4096);
        m.count_wakeup(true);
        m.count_wakeup(false);
        m.count_control_path_syscall();
        let s = m.snapshot();
        assert_eq!(s.pushes, 1);
        assert_eq!(s.pops, 1);
        assert_eq!(s.copies, 1);
        assert_eq!(s.bytes_copied, 4096);
        assert_eq!(s.wakeups, 2);
        assert_eq!(s.wakeups_with_data, 1);
        assert_eq!(s.data_path_syscalls, 0, "bypass path never crosses");
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn clones_share_counters() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.count_push();
        assert_eq!(m2.snapshot().pushes, 1);
    }

    #[test]
    fn crate_level_counter_reset_mid_run_clamps_to_zero() {
        // A crate-level `reset()` zeroes the thread-locals while this
        // Metrics still holds pre-reset baselines. The fold must clamp to
        // zero (saturating delta), not underflow-panic or report garbage.
        demi_memory::counters::note_alloc();
        let m = Metrics::new();
        demi_memory::counters::note_alloc();
        demi_memory::counters::note_copy(64);
        demi_memory::counters::reset();
        let s = m.snapshot();
        assert_eq!(s.buffer_allocs, 0);
        assert_eq!(s.buffer_copies, 0);
        assert_eq!(s.buffer_bytes_copied, 0);
        // After a Metrics reset the baseline tracks the zeroed counters
        // again and new movement folds in normally.
        m.reset();
        demi_memory::counters::note_alloc();
        assert_eq!(m.snapshot().buffer_allocs, 1);
    }

    #[test]
    fn snapshot_merge_sums_fields_and_arrays() {
        let mut a = MetricsSnapshot {
            pushes: 3,
            wakeups: 1,
            ..Default::default()
        };
        a.tx_frames_per_burst[0] = 2;
        a.rx_queue_enqueued[1] = 5;
        let mut b = MetricsSnapshot {
            pushes: 4,
            steering_mismatches: 2,
            ..Default::default()
        };
        b.tx_frames_per_burst[0] = 1;
        b.rx_queue_enqueued[1] = 7;
        a.merge(&b);
        assert_eq!(a.pushes, 7);
        assert_eq!(a.wakeups, 1);
        assert_eq!(a.steering_mismatches, 2);
        assert_eq!(a.tx_frames_per_burst[0], 3);
        assert_eq!(a.rx_queue_enqueued[1], 12);
    }

    #[test]
    fn hub_absorbs_shard_thread_counters_the_naive_read_misses() {
        use std::sync::Arc;
        let hub = Arc::new(MetricsHub::new());
        // The shard thread moves thread-local crate counters and absorbs
        // its own snapshot; the spawning thread's Metrics never sees that
        // movement (its thread-locals are a different instance).
        let observer = Metrics::new();
        let h = Arc::clone(&hub);
        std::thread::spawn(move || {
            let m = Metrics::new();
            m.count_push();
            dpdk_sim::counters::note_tx_burst(4);
            h.absorb(m.snapshot());
        })
        .join()
        .unwrap();
        assert_eq!(
            observer.snapshot().tx_burst_calls,
            0,
            "thread-local counters are invisible across threads — the bug \
             the hub exists to fix"
        );
        let merged = hub.merged();
        assert_eq!(merged.pushes, 1);
        assert_eq!(merged.tx_burst_calls, 1);
        hub.reset();
        assert_eq!(hub.merged(), MetricsSnapshot::default());
    }

    #[test]
    fn nic_slot_counters_fold_per_slot_and_rebase() {
        let m = Metrics::new();
        dpdk_sim::counters::note_slot_exec(1, 42);
        dpdk_sim::counters::note_slot_served(1);
        dpdk_sim::counters::note_slot_drop(3);
        let s = m.snapshot();
        assert_eq!(s.nic_slot_cycles[1], 42);
        assert_eq!(s.nic_slot_frames[1], 1);
        assert_eq!(s.nic_slot_served[1], 1);
        assert_eq!(s.nic_slot_drops[3], 1);
        assert_eq!(s.nic_slot_cycles[0], 0, "attribution is per slot");
        m.reset();
        assert_eq!(m.snapshot().nic_slot_cycles[1], 0);
        dpdk_sim::counters::note_slot_exec(1, 7);
        assert_eq!(m.snapshot().nic_slot_cycles[1], 7);
    }

    #[test]
    fn tenant_counters_fold_merge_and_rebase() {
        let m = Metrics::new();
        demi_tenant::counters::note_tx_deficit_round();
        demi_tenant::counters::note_rate_limited_frame();
        demi_tenant::counters::note_quota_drop();
        demi_tenant::counters::note_cross_tenant_denial();
        demi_tenant::counters::note_pool_exhaustion();
        let s = m.snapshot();
        assert_eq!(s.tx_deficit_rounds, 1);
        assert_eq!(s.rate_limited_frames, 1);
        assert_eq!(s.quota_drops, 1);
        assert_eq!(s.cross_tenant_denials, 1);
        assert_eq!(s.pool_exhaustions, 1);
        let mut merged = MetricsSnapshot::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.quota_drops, 2, "hub merge sums tenant counters");
        assert_eq!(merged.cross_tenant_denials, 2);
        m.reset();
        assert_eq!(m.snapshot().tx_deficit_rounds, 0);
        demi_tenant::counters::note_quota_drop();
        assert_eq!(m.snapshot().quota_drops, 1);
    }

    #[test]
    fn metrics_reset_rebaselines_thread_locals() {
        let m = Metrics::new();
        dpdk_sim::counters::note_tx_burst(4);
        net_stack::counters::note_ack_coalesced();
        net_stack::counters::note_tw_demoted();
        net_stack::counters::note_demux_lookup();
        assert_eq!(m.snapshot().tx_burst_calls, 1);
        assert_eq!(m.snapshot().acks_coalesced, 1);
        assert_eq!(m.snapshot().tw_demoted, 1);
        assert_eq!(m.snapshot().demux_lookups, 1);
        m.reset();
        let s = m.snapshot();
        assert_eq!(s.tx_burst_calls, 0, "pre-reset movement must vanish");
        assert_eq!(s.acks_coalesced, 0);
        assert_eq!(s.tw_demoted, 0);
        assert_eq!(s.demux_lookups, 0);
        dpdk_sim::counters::note_tx_burst(2);
        assert_eq!(m.snapshot().tx_burst_calls, 1);
    }
}

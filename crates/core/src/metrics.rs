//! Exact data-path accounting for the experiments.
//!
//! The paper's claims are about *counted* costs: kernel crossings per I/O
//! (Fig. 1 / E1), copies (E2), and wakeups (E4). Every libOS carries a
//! [`Metrics`] handle and the experiment harness reads it. A kernel-bypass
//! libOS never increments `data_path_syscalls`; the catnap baseline
//! delegates to the simulated kernel's own counters.
//!
//! A [`MetricsSnapshot`] is flat, and every field is named once, in the
//! `metrics_table!` below: the runtime's own counters first, then the
//! fields folded from each crate's thread-local family (`field <- family
//! field`). The struct, its `merge`, the per-family baselines, the fold
//! in [`Metrics::snapshot`] and the rebase in [`Metrics::reset`] are all
//! generated from that table. Counts that belong to an object — a port's
//! bursts and per-queue frames, a SmartNIC slot's cycles, a shard's
//! steering mismatches, a connection's coalesced ACKs — are *not* here:
//! ask the object (`port().stats()`, `port().smartnic_slot_stats()`,
//! `stack().shard_stats()`, `stack().tcp_conn_stats(conn)`).

use std::cell::RefCell;
use std::rc::Rc;

use demi_telemetry::counters::Baseline;

/// Shared counter block (cheap to clone; one per libOS instance).
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Rc<RefCell<MetricsInner>>,
}

/// Declares [`MetricsSnapshot`] and the [`Baselines`] that fill its
/// folded fields, from one line per field.
macro_rules! metrics_table {
    (
        own { $($(#[$own_meta:meta])* $own:ident,)* }
        $($base:ident: $family:ty {
            $($(#[$meta:meta])* $field:ident <- $source:ident,)*
        })*
    ) => {
        demi_telemetry::counter_family! {
            /// Counter snapshot. `merge` sums two of them field by field —
            /// counters from different shard threads add exactly, so a
            /// logical host's totals are the merge of its worlds' snapshots.
            pub struct MetricsSnapshot {
                $($(#[$own_meta])* pub $own: u64,)*
                $($($(#[$meta])* pub $field: u64,)*)*
            }
        }

        /// Where this handle's window starts in each thread-local family:
        /// captured at construction and again on reset, on the thread the
        /// handle lives on.
        struct Baselines {
            $($base: Baseline<$family>,)*
        }

        impl Baselines {
            fn capture() -> Self {
                Self { $($base: Baseline::capture(),)* }
            }

            /// Writes each family's movement since the capture into the
            /// snapshot fields fed by it.
            fn fold_into(&self, snap: &mut MetricsSnapshot) {
                $(
                    let moved = self.$base.movement();
                    $(snap.$field = moved.$source;)*
                )*
            }
        }
    };
}

metrics_table! {
    own {
        /// Kernel crossings on the data path (push/pop/wait). Zero for every
        /// kernel-bypass libOS — the point of Fig. 1.
        data_path_syscalls,
        /// Control-path kernel interactions (device setup, listen, connect
        /// bookkeeping): allowed by the architecture (Fig. 2).
        control_path_syscalls,
        /// Payload copies performed by the libOS.
        copies,
        /// Bytes moved by those copies.
        bytes_copied,
        /// `wait`/`wait_any` returns that delivered a completion.
        wakeups,
        /// Completions delivered along with their data (always equal to
        /// `wakeups` for Demikernel; the epoll baseline needs extra syscalls).
        wakeups_with_data,
        /// Push operations started.
        pushes,
        /// Pop operations started.
        pops,
        /// Iterations of the runtime's wait loop (each = one pump of the
        /// world). A wait whose token had already completed costs none.
        wait_passes,
        /// Coroutine polls and op checks performed across those passes.
        /// Only *woken* coroutines are polled and only *ready* ops are
        /// checked, so this tracks ready work, independent of how many
        /// operations are parked.
        wait_polls,
        /// Op-slab slot probes made by waits: one per token when a
        /// `wait_any`/`wait_all` starts watching, plus one per completion it
        /// consumes — never multiplied by the number of pump passes.
        completion_checks,
        /// Checks of parked and joined ops, in any pump: one when an op is
        /// submitted, one each time its gate or part readies it. An op is
        /// not a scheduler task, so these are not scheduler polls.
        op_checks,
    }
    buffers: demi_memory::DatapathSnapshot {
        /// `DemiBuffer` allocations (pool or unpooled) on this thread since
        /// the last reset. Thread-wide: in a two-host world it covers both
        /// ends of the wire, which is what "per round trip" costs want.
        buffer_allocs <- allocs,
        /// Payload-byte copy operations on this thread since the last reset.
        /// Zero on the catnip echo path — headers prepend into headroom and
        /// payloads travel as views.
        buffer_copies <- copies,
        /// Bytes moved by those copies.
        buffer_bytes_copied <- bytes_copied,
    }
    batching: net_stack::counters::BatchSnapshot {
        /// Stack poll passes that spent their whole RX budget with device
        /// frames still pending (the backlog waits for the next pass).
        rx_budget_exhausted <- rx_budget_exhausted,
        /// Shard poll passes run.
        poll_passes <- poll_passes,
        /// Poll-pass stages entered (RX, ARP tick, TCP tick, TCP flush, TX
        /// burst); an idle pass's guards skip all five.
        poll_stages_run <- poll_stages_run,
    }
    timers: net_stack::counters::ShardSnapshot {
        /// Timer entries scheduled on the TCP timing wheels.
        timers_scheduled <- timers_scheduled,
        /// Wheel entries that fired live (their connection was ticked).
        timers_fired <- timers_fired,
        /// Wheel entries discarded as lazily cancelled.
        timers_stale <- timers_stale,
        /// Wheel slot vectors examined or swept (zero per pass when idle).
        timer_buckets_visited <- timer_buckets_visited,
    }
    conns: net_stack::counters::ConnSnapshot {
        /// TCP demux lookups (segments matched against the flow table).
        demux_lookups <- demux_lookups,
        /// Demux lookups served by the single-entry last-flow cache.
        demux_cache_hits <- demux_cache_hits,
        /// Full control blocks demoted to compact TIME_WAIT records.
        tw_demoted <- tw_demoted,
        /// TIME_WAIT records expired at 2·MSL.
        tw_expired <- tw_expired,
        /// SYN-table entries evicted oldest-first under flood.
        syns_evicted <- syns_evicted,
        /// Lazy TCB queue-box allocations (steady state holds this at zero).
        tcb_queue_allocs <- tcb_queue_allocs,
        /// Drained TCB queue boxes released by the compactor.
        tcb_queue_releases <- tcb_queue_releases,
    }
    tenants: demi_tenant::counters::TenantSnapshot {
        /// Deficit-round-robin fill rounds run by the weighted-fair TX
        /// scheduler. Zero unless a stack was built with tenancy enabled.
        tx_deficit_rounds <- tx_deficit_rounds,
        /// TX fill passes in which a tenant's token bucket deferred its lane
        /// (rate limiting engaged).
        rate_limited_frames <- rate_limited_frames,
        /// Frames dropped at a tenant quota boundary: full TX staging lane,
        /// exhausted RX slice, or TIME_WAIT partition eviction.
        quota_drops <- quota_drops,
        /// Cross-tenant accesses refused: buffer view/clone/prepend attempts
        /// and port bind/listen/connect denials.
        cross_tenant_denials <- cross_tenant_denials,
        /// Allocations refused because a tenant's private mempool partition
        /// was spent.
        pool_exhaustions <- pool_exhaustions,
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
    pub(crate) fn new() -> Self {
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
}

struct MetricsInner {
    /// The runtime's own counters; the folded fields stay zero here and
    /// are filled from `baselines` on every snapshot.
    snap: MetricsSnapshot,
    baselines: Baselines,
}

impl Default for MetricsInner {
    fn default() -> Self {
        MetricsInner {
            snap: MetricsSnapshot::ZERO,
            baselines: Baselines::capture(),
        }
    }
}

impl Metrics {
    /// Fresh counters.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records a control-path kernel interaction.
    pub(crate) fn count_control_path_syscall(&self) {
        self.inner.borrow_mut().snap.control_path_syscalls += 1;
    }

    /// Records a libOS payload copy.
    pub(crate) fn count_copy(&self, bytes: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.snap.copies += 1;
        inner.snap.bytes_copied += bytes as u64;
    }

    /// Records a completed wait that handed data to the application.
    pub(crate) fn count_wakeup(&self, with_data: bool) {
        let mut inner = self.inner.borrow_mut();
        inner.snap.wakeups += 1;
        if with_data {
            inner.snap.wakeups_with_data += 1;
        }
    }

    /// Records a push submission.
    pub(crate) fn count_push(&self) {
        self.inner.borrow_mut().snap.pushes += 1;
    }

    /// Records a pop submission.
    pub(crate) fn count_pop(&self) {
        self.inner.borrow_mut().snap.pops += 1;
    }

    /// Records one iteration of a `wait` loop and the task polls it made.
    pub(crate) fn count_wait_pass(&self, polls: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.snap.wait_passes += 1;
        inner.snap.wait_polls += polls;
    }

    /// Records `checks` completed-token lookups made by a wait loop.
    pub(crate) fn count_completion_checks(&self, checks: u64) {
        self.inner.borrow_mut().snap.completion_checks += checks;
    }

    /// Records `checks` parked or joined ops checked by one pump.
    pub(crate) fn count_op_checks(&self, checks: u64) {
        self.inner.borrow_mut().snap.op_checks += checks;
    }

    /// Snapshot: this handle's own counters plus each thread-local
    /// family's movement on the calling thread since construction or the
    /// last [`reset`](Metrics::reset).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        let mut snap = inner.snap;
        inner.baselines.fold_into(&mut snap);
        snap
    }

    /// Starts a new window (between experiment phases): zeroes this
    /// handle's own counters and re-captures the baselines, so the next
    /// snapshot reports only movement after this point. The thread-local
    /// totals themselves are never reset.
    pub fn reset(&self) {
        *self.inner.borrow_mut() = MetricsInner::default();
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
    fn snapshot_merge_sums_own_and_folded_fields() {
        let mut a = MetricsSnapshot {
            pushes: 3,
            wakeups: 1,
            demux_lookups: 5,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            pushes: 4,
            timers_fired: 2,
            demux_lookups: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.pushes, 7);
        assert_eq!(a.wakeups, 1);
        assert_eq!(a.timers_fired, 2);
        assert_eq!(a.demux_lookups, 12);
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
            demi_memory::counters::note_alloc();
            h.absorb(m.snapshot());
        })
        .join()
        .unwrap();
        assert_eq!(
            observer.snapshot().buffer_allocs,
            0,
            "thread-local counters are invisible across threads — the bug \
             the hub exists to fix"
        );
        let merged = hub.merged();
        assert_eq!(merged.pushes, 1);
        assert_eq!(merged.buffer_allocs, 1);
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
        demi_memory::counters::note_alloc();
        net_stack::counters::note_rx_budget_exhausted();
        net_stack::counters::note_tw_demoted();
        net_stack::counters::note_demux_lookup();
        assert_eq!(m.snapshot().buffer_allocs, 1);
        assert_eq!(m.snapshot().rx_budget_exhausted, 1);
        assert_eq!(m.snapshot().tw_demoted, 1);
        assert_eq!(m.snapshot().demux_lookups, 1);
        m.reset();
        let s = m.snapshot();
        assert_eq!(s.buffer_allocs, 0, "pre-reset movement must vanish");
        assert_eq!(s.rx_budget_exhausted, 0);
        assert_eq!(s.tw_demoted, 0);
        assert_eq!(s.demux_lookups, 0);
        demi_memory::counters::note_alloc();
        demi_memory::counters::note_alloc();
        assert_eq!(m.snapshot().buffer_allocs, 2);
    }
}

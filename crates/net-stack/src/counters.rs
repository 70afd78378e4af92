//! The stack's thread-local counter families.
//!
//! Most of what the stack counts belongs to an object and lives on that
//! object's `stats()`: frames and drops on the shard (`crate::StackStats`,
//! `crate::ShardStats`), ring traffic on the ring
//! ([`crate::RingStats`]), segments, ACKs and coalesced ACKs on the
//! control block (`tcp_conn_stats`). What is counted *here* are the
//! events whose owner is out of a test's or `Metrics`' reach — buried in
//! a peer's demux table, timer wheel, TIME_WAIT map or SYN table — or
//! that no single object owns (a poll pass running out of RX budget).
//!
//! Each family is one `demi_telemetry::counter_family!` declaration and
//! is per thread: under thread-per-shard execution every shard world
//! counts its own. Totals only grow; a consumer snapshots before and
//! after a window of work and takes the saturating `delta`.

demi_telemetry::counter_family! {
    /// A point-in-time reading of the poll-loop batching counters.
    pub struct BatchSnapshot {
        /// Poll passes that hit the RX budget with frames still pending in the
        /// device ring (the backlog is reported as remaining work, not drained
        /// in one pass).
        pub rx_budget_exhausted: u64 => note_rx_budget_exhausted,
        /// Shard poll passes run.
        pub poll_passes: u64 => note_poll_pass,
        /// Poll-pass stage bodies entered (RX, ARP tick, TCP tick, TCP flush,
        /// TX burst): a stage whose O(1) guard found nothing to do is skipped
        /// and not counted, so an idle pass counts a pass and no stage.
        pub poll_stages_run: u64 => note_poll_stage_run,
    }
    /// This thread's batching counter totals.
    pub fn snapshot();
}

demi_telemetry::counter_family! {
    /// A point-in-time reading of the timer-wheel counters.
    ///
    /// Timer work scales with *firing* timers, not resident connections:
    /// `timers_fired` + `timers_stale` + `timer_buckets_visited` bound the
    /// per-poll timer cost, and an idle connection contributes to none of
    /// them (`tests/sharding.rs`).
    pub struct ShardSnapshot {
        /// Timer entries scheduled on a wheel.
        pub timers_scheduled: u64 => note_timer_scheduled,
        /// Wheel entries that fired live (their connection was then ticked).
        pub timers_fired: u64 => note_timer_fired,
        /// Wheel entries discarded as lazily-cancelled (superseded generation).
        pub timers_stale: u64 => note_timer_stale,
        /// Wheel slot vectors examined by an earliest-deadline question or
        /// swept by an advance (`immediate`/`overflow` excluded). Zero per
        /// poll for an idle or empty wheel — the cost `timers_fired` cannot see.
        pub timer_buckets_visited: u64,
    }
    /// This thread's timer-wheel counter totals.
    pub fn shard_snapshot();
}

demi_telemetry::counter_family! {
    /// A point-in-time reading of the connection-scale counters.
    ///
    /// These count the structural claims of the slab/demux/TIME_WAIT/SYN-table
    /// design: demux cache effectiveness (`demux_cache_hits` over
    /// `demux_lookups`), TIME_WAIT demotion actually happening (`tw_demoted` /
    /// `tw_expired`), SYN-table pressure under flood (`syns_evicted`), and the
    /// lazy-queue lifecycle (`tcb_queue_allocs` stays flat in steady state —
    /// the zero-alloc claim's TCP-layer witness; `tcb_queue_releases` counts
    /// parked connections compacted back to zero heap).
    pub struct ConnSnapshot {
        /// Demux table lookups (established-flow segment matches attempted).
        pub demux_lookups: u64 => note_demux_lookup,
        /// Demux lookups answered by the single-entry last-flow cache without
        /// hashing.
        pub demux_cache_hits: u64 => note_demux_cache_hit,
        /// Full control blocks demoted to compact `TimeWaitRecord`s.
        pub tw_demoted: u64 => note_tw_demoted,
        /// TIME_WAIT records expired at 2·MSL (port recycled).
        pub tw_expired: u64 => note_tw_expired,
        /// SYN-table entries evicted (oldest-first) to admit a newer SYN. The
        /// evicting peer's `TcpStats::syns_evicted` counts the same event per
        /// peer; this is the thread-wide total `Metrics` folds.
        pub syns_evicted: u64 => note_syn_evicted,
        /// Lazy queue boxes allocated on first use.
        pub tcb_queue_allocs: u64 => note_tcb_queues_allocated,
        /// Drained queue boxes released by the compactor.
        pub tcb_queue_releases: u64 => note_tcb_queues_released,
        /// Times a peer's reusable TX scratch buffer had to grow (steady state
        /// should hold this at zero once warmed).
        pub outbox_scratch_grows: u64 => note_outbox_scratch_grow,
    }
    /// This thread's connection-scale counter totals.
    pub fn conn_snapshot();
}

//! Per-stage latency histogram registry.
//!
//! One thread-local [`Histogram`] per pipeline stage, const-initialized
//! (no lazy-init branch on the hot path) and gated on the crate master
//! switch: when telemetry is disabled, [`record`] is a thread-local
//! bool read and a return. Stages are the op-latency decomposition the
//! paper's latency claims need:
//!
//! - [`Stage::OpLatency`] — syscall entry to wait-delivery, end to end.
//! - [`Stage::SchedPollLag`] — wake enqueue to poll in demi-sched (how
//!   long a runnable task sat in the run queue).
//! - [`Stage::RxDelivery`] — RX demux enqueue to application pop in
//!   net-stack (socket-queue residency).
//! - [`Stage::TxFlush`] — TX coalescing-ring enqueue to `tx_burst`
//!   doorbell in the stack's flush (batching-added latency).

use crate::hist::Histogram;

/// A measured pipeline stage. `as usize` indexes the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// End-to-end: op submitted → result delivered by `wait`.
    OpLatency,
    /// Scheduler: task woken → task polled.
    SchedPollLag,
    /// Net stack RX: datagram demuxed into a socket queue → popped.
    RxDelivery,
    /// Net stack TX: frame entered the coalescing ring → burst doorbell.
    TxFlush,
    /// Device offload: request served on the NIC → host applied the sync
    /// event (shadow-state sync lag; the op itself never crossed).
    DeviceServed,
}

/// Number of stages (registry array length).
pub(crate) const STAGE_COUNT: usize = 5;

impl Stage {
    /// All stages, in registry order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::OpLatency,
        Stage::SchedPollLag,
        Stage::RxDelivery,
        Stage::TxFlush,
        Stage::DeviceServed,
    ];

    /// Human-readable name for summaries and trace output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::OpLatency => "op_latency",
            Stage::SchedPollLag => "sched_poll_lag",
            Stage::RxDelivery => "rx_delivery",
            Stage::TxFlush => "tx_flush",
            Stage::DeviceServed => "device_served",
        }
    }
}

const EMPTY: Histogram = Histogram::new();

thread_local! {
    static HISTS: std::cell::RefCell<[Histogram; STAGE_COUNT]> =
        const { std::cell::RefCell::new([EMPTY; STAGE_COUNT]) };
}

/// Record one sample into a stage histogram. No-op (one thread-local
/// bool read) when telemetry is disabled; allocation-free always.
#[inline]
pub fn record(stage: Stage, ns: u64) {
    if !crate::enabled() {
        return;
    }
    HISTS.with(|h| h.borrow_mut()[stage as usize].record(ns));
}

/// Copy out one stage's histogram.
pub fn snapshot(stage: Stage) -> Histogram {
    HISTS.with(|h| h.borrow()[stage as usize].clone())
}

/// Clear every stage histogram (this thread's only; see [`reset_merged`]
/// for the cross-thread sink).
pub fn reset() {
    HISTS.with(|h| {
        for hist in h.borrow_mut().iter_mut() {
            hist.clear();
        }
    });
}

/// The cross-thread sink shard threads flush into. Bucket-wise merging
/// is exact — a histogram is a sum of counts, so per-thread recording
/// with merge-at-snapshot loses nothing (only the hot path must stay
/// thread-local and lock-free).
fn global_sink() -> &'static std::sync::Mutex<[Histogram; STAGE_COUNT]> {
    static SINK: std::sync::OnceLock<std::sync::Mutex<[Histogram; STAGE_COUNT]>> =
        std::sync::OnceLock::new();
    SINK.get_or_init(|| std::sync::Mutex::new([EMPTY; STAGE_COUNT]))
}

/// Folds this thread's stage histograms into the cross-thread sink and
/// clears them. Each shard thread calls this when its run ends (the
/// thread-local histograms are invisible from any other thread — without
/// the flush, a snapshot taken on the spawning thread reads zero).
pub fn flush_current_thread() {
    HISTS.with(|h| {
        let mut local = h.borrow_mut();
        let mut sink = global_sink().lock().unwrap();
        for (merged, local) in sink.iter_mut().zip(local.iter_mut()) {
            merged.merge(local);
            local.clear();
        }
    });
}

/// One stage's histogram merged across threads: this thread's samples
/// plus everything [`flush_current_thread`] deposited from shard threads.
pub fn merged_snapshot(stage: Stage) -> Histogram {
    let mut h = snapshot(stage);
    h.merge(&global_sink().lock().unwrap()[stage as usize]);
    h
}

/// Clears the cross-thread sink (e.g. between experiment phases).
pub fn reset_merged() {
    for hist in global_sink().lock().unwrap().iter_mut() {
        hist.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_respects_master_switch() {
        reset();
        crate::set_enabled(false);
        record(Stage::OpLatency, 100);
        assert!(snapshot(Stage::OpLatency).is_empty());

        crate::set_enabled(true);
        record(Stage::OpLatency, 100);
        record(Stage::OpLatency, 200);
        record(Stage::TxFlush, 5);
        crate::set_enabled(false);

        let op = snapshot(Stage::OpLatency);
        assert_eq!(op.count(), 2);
        assert_eq!(snapshot(Stage::TxFlush).count(), 1);
        assert!(snapshot(Stage::SchedPollLag).is_empty());
        reset();
        assert!(snapshot(Stage::OpLatency).is_empty());
    }

    #[test]
    fn flush_merges_across_threads() {
        reset();
        reset_merged();
        crate::set_enabled(true);
        record(Stage::OpLatency, 10);
        let t = std::thread::spawn(|| {
            crate::set_enabled(true);
            record(Stage::OpLatency, 20);
            record(Stage::OpLatency, 30);
            // Without the flush these samples die with the thread.
            flush_current_thread();
            crate::set_enabled(false);
        });
        t.join().unwrap();
        crate::set_enabled(false);
        assert_eq!(
            snapshot(Stage::OpLatency).count(),
            1,
            "plain snapshot stays thread-local"
        );
        assert_eq!(merged_snapshot(Stage::OpLatency).count(), 3);
        reset();
        reset_merged();
        assert!(merged_snapshot(Stage::OpLatency).is_empty());
    }

    #[test]
    fn stage_names_are_distinct() {
        let names: std::collections::HashSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), STAGE_COUNT);
    }
}

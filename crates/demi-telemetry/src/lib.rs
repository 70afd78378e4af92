//! Telemetry for microsecond-scale I/O: op-lifecycle spans and
//! log-bucketed latency histograms — all on *virtual* time, all
//! allocation-free on the hot path.
//!
//! The crate is a leaf: it depends on nothing, so every layer of the
//! stack (scheduler, net stack, device sims, runtime) can report into it
//! without dependency cycles. Time is injected: the runtime installs a
//! thread-local now-source closure reading its `SimClock`, and every
//! recording site asks [`now_ns`] rather than holding a clock of its own.
//!
//! Everything is **off by default**. The disabled path is one
//! thread-local `Cell<bool>` read per site — no branches into the
//! histogram or span code, no allocation, no stamp capture.
//!
//! Layering:
//! - [`counters`] — [`counter_family!`]: every counter struct in the
//!   tree (per-object stats and thread-local families alike) is declared
//!   once through it, with `delta`, `merge`, the per-thread cell and the
//!   `note_*` functions derived.
//! - [`hist`] — fixed-size log-bucketed histograms with quantile
//!   extraction (HDR-style; exact counts, bounded relative error).
//! - [`stage`] — a small registry of per-stage histograms (end-to-end op
//!   latency, scheduler wake→poll lag, RX demux→delivery, TX
//!   enqueue→burst).
//! - [`span`] — per-qtoken lifecycle stamps in a bounded ring,
//!   exportable as Chrome `trace_event` JSON.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

pub mod counters;
pub mod hist;
pub mod span;
pub mod stage;

thread_local! {
    /// Master switch for latency recording (histograms + stage deltas).
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Injected virtual-time source. `None` until a runtime installs one.
    #[allow(clippy::type_complexity)]
    static NOW_SOURCE: RefCell<Option<Rc<dyn Fn() -> u64>>> = const { RefCell::new(None) };
}

/// Turn latency recording on or off for this thread. Span capture has its
/// own switch ([`span::set_enabled`]) so timelines can be traced without
/// paying for histograms and vice versa.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Is latency recording on? One thread-local read — this is the entire
/// cost of a disabled recording site.
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Install the virtual-time source recording sites read through
/// [`now_ns`]. The runtime passes a closure over its `SimClock`.
pub fn set_now_source(src: Rc<dyn Fn() -> u64>) {
    NOW_SOURCE.with(|s| *s.borrow_mut() = Some(src));
}

/// Current virtual time in nanoseconds, or 0 if no source is installed.
/// Sites treat 0 as "unstamped" and skip delta recording, so a world
/// that never enabled telemetry never records garbage.
pub fn now_ns() -> u64 {
    NOW_SOURCE.with(|s| s.borrow().as_ref().map(|f| f()).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggles() {
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn now_source_injection() {
        assert_eq!(now_ns(), 0);
        let t = Rc::new(Cell::new(41u64));
        let t2 = t.clone();
        set_now_source(Rc::new(move || t2.get()));
        assert_eq!(now_ns(), 41);
        t.set(42);
        assert_eq!(now_ns(), 42);
        NOW_SOURCE.with(|s| *s.borrow_mut() = None);
        assert_eq!(now_ns(), 0);
    }
}

//! The telemetry front door: enable everything, summarize everything.
//!
//! The raw machinery lives in `demi-telemetry` (histograms, stage
//! registry, span ring) and is wired through the runtime, the scheduler,
//! the net stack, and the device sim. This module is what examples and
//! applications touch: [`enable`] flips both the latency and span
//! switches on a runtime's clock, and [`summary`] renders the recorded
//! quantiles plus a per-op-name span breakdown as printable text.

use std::collections::HashMap;
use std::rc::Rc;

use demi_telemetry::span::{OpSpan, SpanPoint};
use demi_telemetry::stage::{self, Stage};

use crate::runtime::Runtime;

/// Turns on latency histograms *and* op-lifecycle span capture for this
/// thread, and points `demi_telemetry::now_ns` (the sites below the
/// runtime, which stamps from its own clock) at `rt`'s virtual clock.
pub fn enable(rt: &Runtime) {
    let clock = rt.clock().clone();
    demi_telemetry::set_now_source(Rc::new(move || clock.now().as_nanos()));
    demi_telemetry::set_enabled(true);
    demi_telemetry::span::set_enabled(true);
}

/// Turns every recording switch off (histogram contents and retained
/// spans survive until [`reset`]).
pub fn disable() {
    demi_telemetry::set_enabled(false);
    demi_telemetry::span::set_enabled(false);
}

/// Clears all recorded histograms and spans.
pub fn reset() {
    stage::reset();
    let _ = demi_telemetry::span::drain();
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Per-op-name aggregation of drained spans: counts and mean
/// entry→delivery time, plus where inside the op the time went.
#[derive(Default)]
struct NameBreakdown {
    count: u64,
    total_ns: u64,
    schedule_ns: u64,
    execute_ns: u64,
    deliver_ns: u64,
}

fn breakdown(spans: &[OpSpan]) -> Vec<(&'static str, NameBreakdown)> {
    let mut by_name: HashMap<&'static str, NameBreakdown> = HashMap::new();
    for span in spans {
        let Some(delivered) = span.stamp(SpanPoint::Delivered) else {
            continue;
        };
        // Every span is entered (`OpSpan::new`).
        let entry = span.stamps[SpanPoint::Entry as usize];
        let first_poll = span.stamp(SpanPoint::FirstPoll).unwrap_or(entry);
        let completed = span.stamp(SpanPoint::Completed).unwrap_or(delivered);
        let b = by_name.entry(span.name).or_default();
        b.count += 1;
        b.total_ns += delivered.saturating_sub(entry);
        b.schedule_ns += first_poll.saturating_sub(entry);
        b.execute_ns += completed.saturating_sub(first_poll);
        b.deliver_ns += delivered.saturating_sub(completed);
    }
    let mut out: Vec<_> = by_name.into_iter().collect();
    // Heaviest first: total time spent in ops of this name.
    out.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    out
}

/// Renders the telemetry collected so far: per-stage latency quantiles
/// and the top op-name span breakdown. **Drains the span ring** (spans
/// are summarized exactly once); histograms are left intact.
pub fn summary() -> String {
    let mut out = String::from("telemetry summary\n");
    for stage in Stage::ALL {
        let h = stage::snapshot(stage);
        if h.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "  {:<14} n={:<7} p50={:<9} p90={:<9} p99={:<9} p999={:<9} max={}\n",
            stage.name(),
            h.count(),
            fmt_ns(h.p50()),
            fmt_ns(h.p90()),
            fmt_ns(h.p99()),
            fmt_ns(h.p999()),
            fmt_ns(h.max()),
        ));
    }
    let dropped = demi_telemetry::span::dropped();
    let spans = demi_telemetry::span::drain();
    let by_name = breakdown(&spans);
    if !by_name.is_empty() {
        out.push_str("  top spans (entry→delivery, mean per op):\n");
        for (name, b) in by_name.iter().take(5) {
            out.push_str(&format!(
                "    {:<22} n={:<6} total={:<9} schedule={:<9} execute={:<9} deliver={}\n",
                name,
                b.count,
                fmt_ns(b.total_ns / b.count),
                fmt_ns(b.schedule_ns / b.count),
                fmt_ns(b.execute_ns / b.count),
                fmt_ns(b.deliver_ns / b.count),
            ));
        }
        if dropped > 0 {
            out.push_str(&format!(
                "    ({dropped} older spans evicted by the bounded ring)\n"
            ));
        }
    }
    if out == "telemetry summary\n" {
        out.push_str("  (nothing recorded — was telemetry enabled?)\n");
    }
    out
}

/// Drains the span ring and renders it as Chrome `trace_event` JSON
/// (load at `chrome://tracing` or <https://ui.perfetto.dev>).
pub fn chrome_trace() -> String {
    demi_telemetry::span::chrome_trace_json(&demi_telemetry::span::drain())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{OperationResult, QDesc};
    use demi_sched::Notify;

    #[test]
    fn summary_covers_recorded_ops() {
        let rt = Runtime::new();
        enable(&rt);
        reset();
        let ready = Rc::new(|_, _| Some(OperationResult::Push));
        let qt = rt.park_op("test::op", &Notify::new(), ready, QDesc(0), 0);
        rt.wait(qt, None).unwrap();
        let text = summary();
        disable();
        assert!(text.contains("op_latency"), "{text}");
        assert!(text.contains("test::op"), "{text}");
        reset();
    }

    #[test]
    fn empty_summary_says_so() {
        disable();
        reset();
        let text = summary();
        assert!(text.contains("nothing recorded"), "{text}");
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(900), "900ns");
        assert_eq!(fmt_ns(1500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
    }
}

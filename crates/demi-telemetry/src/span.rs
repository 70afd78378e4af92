//! Op-lifecycle spans: per-qtoken virtual-time stamps in a bounded ring.
//!
//! Each operation (qtoken) gets one [`OpSpan`] recording up to five
//! lifecycle points: syscall entry, first poll, device handoff,
//! completion-ring push, and wait-delivery. Spans live in a bounded
//! thread-local ring (default 4096 entries); when the ring wraps, the
//! oldest span is evicted and counted in [`dropped`]. Ownership rule:
//! **the ring owns every span** — recording sites refer to in-flight
//! ops by qtoken through a side index, never by pointer, so eviction is
//! always safe and recording is always allocation-free after the ring
//! reaches capacity (the only allocations are the ring's own growth to
//! its cap and the open-op index).
//!
//! Span capture has its own switch, separate from the histogram master
//! switch: [`set_enabled`]. Disabled cost is one thread-local bool read
//! per site. Stamps are set-once: the first observation of each point
//! wins, which makes `first poll` mean *first* and keeps replayed
//! device handoffs (retransmits) from rewriting history.
//!
//! [`chrome_trace_json`] renders drained spans as Chrome `trace_event`
//! JSON — load it at `chrome://tracing` or <https://ui.perfetto.dev>.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// A lifecycle point inside one operation. `as usize` indexes
/// [`OpSpan::stamps`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanPoint {
    /// Syscall entry: the op was submitted and its coroutine spawned.
    Entry,
    /// The op's coroutine was polled for the first time.
    FirstPoll,
    /// The op's data reached the device (TX burst doorbell).
    DeviceHandoff,
    /// The op finished and pushed its qtoken onto the completion ring.
    Completed,
    /// `wait` handed the result to the application.
    Delivered,
}

/// Number of lifecycle points per span.
pub(crate) const POINT_COUNT: usize = 5;

/// Sentinel for "this point was never observed".
pub(crate) const UNSET: u64 = u64::MAX;

/// One operation's recorded lifecycle.
#[derive(Clone, Copy, Debug)]
pub struct OpSpan {
    /// The qtoken this span belongs to.
    pub op: u64,
    /// The spawn name of the op (e.g. `"catnip::udp_pop"`).
    pub name: &'static str,
    /// Virtual-time ns per [`SpanPoint`]; `UNSET` if unobserved.
    pub stamps: [u64; POINT_COUNT],
}

impl OpSpan {
    /// The stamp for `point`, if observed.
    pub fn stamp(&self, point: SpanPoint) -> Option<u64> {
        let v = self.stamps[point as usize];
        (v != UNSET).then_some(v)
    }
}

/// Default ring capacity (spans retained before eviction).
pub const DEFAULT_CAPACITY: usize = 4096;

struct SpanRing {
    spans: Vec<OpSpan>,
    capacity: usize,
    /// Next slot to overwrite once `spans` is full (oldest entry).
    next: usize,
    /// qtoken → ring slot for ops still receiving stamps.
    open: HashMap<u64, usize>,
    dropped: u64,
}

impl SpanRing {
    fn new() -> Self {
        Self {
            spans: Vec::new(),
            capacity: DEFAULT_CAPACITY,
            next: 0,
            open: HashMap::new(),
            dropped: 0,
        }
    }

    fn begin(&mut self, op: u64, name: &'static str, now: u64) {
        let mut stamps = [UNSET; POINT_COUNT];
        stamps[SpanPoint::Entry as usize] = now;
        let span = OpSpan { op, name, stamps };
        let slot = if self.spans.len() < self.capacity {
            self.spans.push(span);
            self.spans.len() - 1
        } else {
            let slot = self.next;
            self.next = (self.next + 1) % self.capacity;
            let evicted = self.spans[slot].op;
            if self.open.get(&evicted) == Some(&slot) {
                self.open.remove(&evicted);
            }
            self.spans[slot] = span;
            self.dropped += 1;
            slot
        };
        self.open.insert(op, slot);
    }

    fn note(&mut self, op: u64, point: SpanPoint, now: u64) {
        if let Some(&slot) = self.open.get(&op) {
            let stamp = &mut self.spans[slot].stamps[point as usize];
            if *stamp == UNSET {
                *stamp = now;
            }
        }
    }

    fn finish(&mut self, op: u64) {
        self.open.remove(&op);
    }

    fn drain(&mut self) -> Vec<OpSpan> {
        // Chronological: the slot about to be overwritten is the oldest.
        let mut out = Vec::with_capacity(self.spans.len());
        if self.spans.len() == self.capacity {
            out.extend_from_slice(&self.spans[self.next..]);
            out.extend_from_slice(&self.spans[..self.next]);
        } else {
            out.extend_from_slice(&self.spans);
        }
        self.spans.clear();
        self.next = 0;
        self.open.clear();
        self.dropped = 0;
        out
    }
}

thread_local! {
    static SPAN_ENABLED: Cell<bool> = const { Cell::new(false) };
    // Not const-init: `HashMap::new` isn't const. All public entry
    // points check `enabled()` first, so the lazy-init branch is never
    // on the disabled path.
    static RING: RefCell<SpanRing> = RefCell::new(SpanRing::new());
    /// The op whose coroutine is currently being polled, so deep layers
    /// (the device sim) can attribute events without plumbing qtokens.
    static CURRENT_OP: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Turn span capture on or off for this thread.
pub fn set_enabled(on: bool) {
    SPAN_ENABLED.with(|e| e.set(on));
}

/// Is span capture on? One thread-local read.
#[inline]
pub fn enabled() -> bool {
    SPAN_ENABLED.with(|e| e.get())
}

/// Open a span for `op` stamped [`SpanPoint::Entry`] at `now`.
pub fn begin(op: u64, name: &'static str, now: u64) {
    if !enabled() {
        return;
    }
    RING.with(|r| r.borrow_mut().begin(op, name, now));
}

/// Stamp `point` on `op`'s span (set-once; no-op if the span was
/// evicted or never begun).
pub fn note(op: u64, point: SpanPoint, now: u64) {
    if !enabled() {
        return;
    }
    RING.with(|r| r.borrow_mut().note(op, point, now));
}

/// Mark `op`'s span closed: it stops accepting stamps but stays in the
/// ring for [`drain`].
pub fn finish(op: u64) {
    if !enabled() {
        return;
    }
    RING.with(|r| r.borrow_mut().finish(op));
}

/// Set (or clear) the op whose coroutine the scheduler is polling right
/// now. The runtime brackets every op poll with this.
pub fn set_current(op: Option<u64>) {
    CURRENT_OP.with(|c| c.set(op));
}

/// Stamp `point` on the currently-polled op, if any (how the device sim
/// records [`SpanPoint::DeviceHandoff`] without knowing about qtokens).
pub fn note_current(point: SpanPoint, now: u64) {
    if !enabled() {
        return;
    }
    if let Some(op) = CURRENT_OP.with(|c| c.get()) {
        note(op, point, now);
    }
}

/// Spans evicted since the last [`drain`].
pub fn dropped() -> u64 {
    RING.with(|r| r.borrow().dropped)
}

/// Take every retained span (oldest first) and clear the ring.
pub fn drain() -> Vec<OpSpan> {
    RING.with(|r| r.borrow_mut().drain())
}

/// Render spans as Chrome `trace_event` JSON. Each span becomes up to
/// three `"X"` (complete) events — `schedule` (entry→first poll),
/// `execute` (first poll→completed), `deliver` (completed→delivered) —
/// plus an `"i"` (instant) event at the device handoff. Timestamps are
/// microseconds, as the format requires.
pub fn chrome_trace_json(spans: &[OpSpan]) -> String {
    fn us(ns: u64) -> f64 {
        ns as f64 / 1000.0
    }
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    for span in spans {
        let phases = [
            ("schedule", SpanPoint::Entry, SpanPoint::FirstPoll),
            ("execute", SpanPoint::FirstPoll, SpanPoint::Completed),
            ("deliver", SpanPoint::Completed, SpanPoint::Delivered),
        ];
        for (label, from, to) in phases {
            if let (Some(a), Some(b)) = (span.stamp(from), span.stamp(to)) {
                push(
                    format!(
                        "{{\"name\":\"{}/{}\",\"cat\":\"op\",\"ph\":\"X\",\
                         \"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":0,\
                         \"args\":{{\"qt\":{}}}}}",
                        span.name,
                        label,
                        us(a),
                        us(b.saturating_sub(a)),
                        span.op
                    ),
                    &mut first,
                );
            }
        }
        if let Some(t) = span.stamp(SpanPoint::DeviceHandoff) {
            push(
                format!(
                    "{{\"name\":\"{}/device_handoff\",\"cat\":\"op\",\
                     \"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":0,\
                     \"tid\":0,\"args\":{{\"qt\":{}}}}}",
                    span.name,
                    us(t),
                    span.op
                ),
                &mut first,
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resize the ring (clears all retained spans and the dropped counter).
    fn set_capacity(capacity: usize) {
        RING.with(|r| {
            let mut ring = r.borrow_mut();
            *ring = SpanRing::new();
            ring.capacity = capacity.max(1);
        });
    }

    fn with_clean_ring(f: impl FnOnce()) {
        set_capacity(DEFAULT_CAPACITY);
        set_enabled(true);
        f();
        set_enabled(false);
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn disabled_records_nothing() {
        set_capacity(16);
        set_enabled(false);
        begin(1, "op", 10);
        note(1, SpanPoint::Completed, 20);
        assert!(drain().is_empty());
    }

    #[test]
    fn full_lifecycle_roundtrip() {
        with_clean_ring(|| {
            begin(7, "catnip::udp_pop", 100);
            note(7, SpanPoint::FirstPoll, 150);
            note(7, SpanPoint::DeviceHandoff, 170);
            note(7, SpanPoint::Completed, 200);
            note(7, SpanPoint::Delivered, 250);
            finish(7);
            let spans = drain();
            assert_eq!(spans.len(), 1);
            let s = &spans[0];
            assert_eq!(s.op, 7);
            assert_eq!(s.name, "catnip::udp_pop");
            assert_eq!(s.stamp(SpanPoint::Entry), Some(100));
            assert_eq!(s.stamp(SpanPoint::Delivered), Some(250));
        });
    }

    #[test]
    fn stamps_are_set_once() {
        with_clean_ring(|| {
            begin(1, "op", 10);
            note(1, SpanPoint::DeviceHandoff, 20);
            note(1, SpanPoint::DeviceHandoff, 99); // retransmit: ignored
            let spans = drain();
            assert_eq!(spans[0].stamp(SpanPoint::DeviceHandoff), Some(20));
        });
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        set_capacity(4);
        set_enabled(true);
        for op in 0..10u64 {
            begin(op, "op", op * 10);
        }
        assert_eq!(dropped(), 6);
        // Evicted op 5's slot was reused; noting it must not stamp the
        // span that replaced it.
        note(5, SpanPoint::Completed, 999);
        let spans = drain();
        assert_eq!(spans.len(), 4);
        let ops: Vec<u64> = spans.iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![6, 7, 8, 9], "oldest-first after wrap");
        assert!(spans
            .iter()
            .all(|s| s.stamp(SpanPoint::Completed).is_none()));
        set_enabled(false);
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn current_op_attribution() {
        with_clean_ring(|| {
            begin(3, "op", 10);
            set_current(Some(3));
            note_current(SpanPoint::DeviceHandoff, 42);
            set_current(None);
            note_current(SpanPoint::Completed, 50); // no current op: dropped
            let spans = drain();
            assert_eq!(spans[0].stamp(SpanPoint::DeviceHandoff), Some(42));
            assert_eq!(spans[0].stamp(SpanPoint::Completed), None);
        });
    }

    #[test]
    fn chrome_trace_shape() {
        with_clean_ring(|| {
            begin(1, "echo", 1000);
            note(1, SpanPoint::FirstPoll, 2000);
            note(1, SpanPoint::DeviceHandoff, 2500);
            note(1, SpanPoint::Completed, 3000);
            note(1, SpanPoint::Delivered, 4000);
            let json = chrome_trace_json(&drain());
            assert!(json.starts_with("{\"traceEvents\":["));
            assert!(json.ends_with("]}"));
            assert!(json.contains("\"echo/schedule\""));
            assert!(json.contains("\"echo/execute\""));
            assert!(json.contains("\"echo/deliver\""));
            assert!(json.contains("\"echo/device_handoff\""));
            assert!(json.contains("\"ts\":1.000")); // 1000 ns = 1 µs
            assert!(json.contains("\"dur\":1.000"));
            // Balanced braces — cheap well-formedness check without a
            // JSON parser in the dep tree.
            let opens = json.matches('{').count();
            let closes = json.matches('}').count();
            assert_eq!(opens, closes);
        });
    }

    #[test]
    fn partial_spans_render_partial_events() {
        with_clean_ring(|| {
            begin(1, "never_polled", 10);
            let json = chrome_trace_json(&drain());
            assert!(!json.contains("schedule"));
            assert!(json.contains("\"traceEvents\":[]"));
        });
    }
}

//! Op-lifecycle spans: per-qtoken virtual-time stamps in a bounded ring.
//!
//! Each operation (qtoken) gets one [`OpSpan`] recording up to five
//! lifecycle points: syscall entry, first poll, device handoff,
//! completion-ring push, and wait-delivery. In flight, a span lives in its
//! op's slot in the runtime's op slab — the one record of a live op — and
//! reaches the ring once ([`record`]) when the op is consumed: by a
//! `wait*`, or by a coroutine's `await_op`, which stamps no delivery. An
//! op nobody consumes leaves no span (it keeps its slot for the life of
//! the runtime: `Runtime::outstanding`). The ring is thread-local and
//! bounded (default 4096 spans, reserved by the first): when it wraps, the
//! oldest span is evicted and counted in [`dropped`].
//!
//! Span capture has its own switch, separate from the histogram master
//! switch: [`set_enabled`]. Disabled cost is one thread-local bool read
//! per site. Stamps are set-once ([`OpSpan::note`]): the first observation
//! of each point wins, which makes `first poll` mean *first* and keeps
//! replayed device handoffs (retransmits) from rewriting history. The
//! device sim reports a handoff in one thread-local cell
//! ([`note_handoff`]) that the runtime clears before each traced op poll
//! and reads after it ([`take_handoff`]), so only the op whose poll made
//! the handoff is stamped with it.
//!
//! [`chrome_trace_json`] renders drained spans as Chrome `trace_event`
//! JSON — load it at `chrome://tracing` or <https://ui.perfetto.dev>.

use std::cell::{Cell, RefCell};

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
    /// `op`'s span, entered at `entry`.
    pub fn new(op: u64, name: &'static str, entry: u64) -> Self {
        let mut stamps = [UNSET; POINT_COUNT];
        stamps[SpanPoint::Entry as usize] = entry;
        OpSpan { op, name, stamps }
    }

    /// Stamp `point` at `now` unless it is already stamped (set-once).
    pub fn note(&mut self, point: SpanPoint, now: u64) {
        let stamp = &mut self.stamps[point as usize];
        if *stamp == UNSET {
            *stamp = now;
        }
    }

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
    dropped: u64,
}

impl SpanRing {
    const fn new() -> Self {
        Self {
            spans: Vec::new(),
            capacity: DEFAULT_CAPACITY,
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, span: OpSpan) {
        if self.spans.len() < self.capacity {
            // The first span reserves the whole ring: recording allocates
            // once per thread, not at every doubling on the way to full.
            self.spans.reserve_exact(self.capacity - self.spans.len());
            self.spans.push(span);
        } else {
            self.spans[self.next] = span;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> Vec<OpSpan> {
        // Chronological: the slot about to be overwritten is the oldest.
        self.spans.rotate_left(self.next);
        (self.next, self.dropped) = (0, 0);
        self.spans.drain(..).collect()
    }
}

thread_local! {
    static SPAN_ENABLED: Cell<bool> = const { Cell::new(false) };
    static RING: RefCell<SpanRing> = const { RefCell::new(SpanRing::new()) };
    /// The first device handoff since the runtime last took it, or `UNSET`.
    static HANDOFF: Cell<u64> = const { Cell::new(UNSET) };
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

/// Push a finished span onto the ring, evicting (and counting) the oldest
/// when it is full. Nothing is recorded while capture is off.
pub fn record(span: OpSpan) {
    if enabled() {
        RING.with(|r| r.borrow_mut().push(span));
    }
}

/// Note a device handoff (TX burst doorbell) at `now`. Set-once until
/// [`take_handoff`]: a poll that rings the doorbell twice keeps its first.
pub fn note_handoff(now: u64) {
    HANDOFF.with(|h| {
        if h.get() == UNSET {
            h.set(now);
        }
    });
}

/// The handoff noted since the last call, if any, leaving none. The
/// runtime calls it before a traced poll (to forget handoffs no op made)
/// and after it (to stamp the poll's own).
pub fn take_handoff() -> Option<u64> {
    let at = HANDOFF.with(|h| h.replace(UNSET));
    (at != UNSET).then_some(at)
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
    use SpanPoint::{Completed, Delivered, DeviceHandoff, Entry, FirstPoll};
    let us = |ns: u64| ns as f64 / 1000.0;
    let mut events = Vec::new();
    for span in spans {
        let (name, qt) = (span.name, span.op);
        let phases = [
            ("schedule", Entry, FirstPoll),
            ("execute", FirstPoll, Completed),
            ("deliver", Completed, Delivered),
        ];
        for (label, from, to) in phases {
            if let (Some(a), Some(b)) = (span.stamp(from), span.stamp(to)) {
                let (ts, dur) = (us(a), us(b.saturating_sub(a)));
                events.push(format!(
                    "{{\"name\":\"{name}/{label}\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":{ts:.3},\
                     \"dur\":{dur:.3},\"pid\":0,\"tid\":0,\"args\":{{\"qt\":{qt}}}}}"
                ));
            }
        }
        if let Some(ts) = span.stamp(DeviceHandoff).map(us) {
            events.push(format!(
                "{{\"name\":\"{name}/device_handoff\",\"cat\":\"op\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{ts:.3},\"pid\":0,\"tid\":0,\"args\":{{\"qt\":{qt}}}}}"
            ));
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
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

    /// A span of `op` entered at `entry` and stamped at each of `points`.
    fn span(op: u64, name: &'static str, entry: u64, points: &[(SpanPoint, u64)]) -> OpSpan {
        let mut span = OpSpan::new(op, name, entry);
        for &(point, now) in points {
            span.note(point, now);
        }
        span
    }

    #[test]
    fn disabled_records_nothing() {
        set_capacity(16);
        set_enabled(false);
        record(span(1, "op", 10, &[]));
        assert!(drain().is_empty());
        assert_eq!(dropped(), 0);
    }

    #[test]
    fn full_lifecycle_roundtrip() {
        with_clean_ring(|| {
            record(span(
                7,
                "catnip::udp_pop",
                100,
                &[
                    (SpanPoint::FirstPoll, 150),
                    (SpanPoint::DeviceHandoff, 170),
                    (SpanPoint::Completed, 200),
                    (SpanPoint::Delivered, 250),
                ],
            ));
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
        let mut s = span(1, "op", 10, &[]);
        s.note(SpanPoint::DeviceHandoff, 20);
        s.note(SpanPoint::DeviceHandoff, 99); // retransmit: ignored
        assert_eq!(s.stamp(SpanPoint::DeviceHandoff), Some(20));
        assert_eq!(s.stamp(SpanPoint::Completed), None);
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        set_capacity(4);
        set_enabled(true);
        for op in 0..10u64 {
            record(span(op, "op", op * 10, &[]));
        }
        assert_eq!(dropped(), 6);
        let spans = drain();
        let ops: Vec<u64> = spans.iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![6, 7, 8, 9], "oldest-first after wrap");
        assert_eq!(dropped(), 0, "a drain resets the eviction count");
        set_enabled(false);
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn a_handoff_is_attributed_only_to_the_poll_that_made_it() {
        // Outside any op poll: the runtime's pre-poll take forgets it.
        note_handoff(5);
        assert_eq!(take_handoff(), Some(5));
        // During a poll: the first doorbell sticks, a second is ignored.
        note_handoff(42);
        note_handoff(50);
        assert_eq!(take_handoff(), Some(42));
        // The next poll rang no doorbell.
        assert_eq!(take_handoff(), None);
    }

    #[test]
    fn chrome_trace_shape() {
        let spans = [span(
            1,
            "echo",
            1000,
            &[
                (SpanPoint::FirstPoll, 2000),
                (SpanPoint::DeviceHandoff, 2500),
                (SpanPoint::Completed, 3000),
                (SpanPoint::Delivered, 4000),
            ],
        )];
        let json = chrome_trace_json(&spans);
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
    }

    #[test]
    fn partial_spans_render_partial_events() {
        let spans = [span(1, "never_polled", 10, &[])];
        let json = chrome_trace_json(&spans);
        assert!(!json.contains("schedule"));
        assert!(json.contains("\"traceEvents\":[]"));
    }
}

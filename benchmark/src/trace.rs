//! The harness's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each layer (spans inside the product are a later change).
//! Everything runs on one thread, and the server coroutine is polled
//! *inside* the client's `wait` call, so spans nest by wall time: a span
//! opened while another is open is its child. A span is therefore never
//! held across an `.await`. Spans live in a preallocated vector and are
//! written out once, when the run ends.
//!
//! A layer's self time is its spans' duration minus the part their child
//! spans cover.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::json::Json;

const NO_PARENT: u32 = u32::MAX;

/// Where the harness draws span boundaries. The discriminant indexes the
/// per-name totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// Client: generating the next burst.
    ClientBuild,
    /// Client: checking reply bytes against the oracle.
    ClientVerify,
    /// Either host: inside `push`/`pushto`/`push_unframed` until the
    /// qtoken returns.
    ApiPush,
    /// Either host: inside `pop`/`pop_unframed` until the qtoken returns.
    ApiPop,
    /// Client: inside `wait` (scheduler, pollers, stack, device, fabric —
    /// and, as children, everything the server coroutine does).
    RuntimeWait,
    /// Server: `KvConn::feed` of the popped chunks.
    KvFeed,
    /// Server: `KvEngine::drain`.
    KvDrain,
}

impl SpanName {
    /// Every name, in discriminant order.
    pub const ALL: [SpanName; 7] = [
        SpanName::ClientBuild,
        SpanName::ClientVerify,
        SpanName::ApiPush,
        SpanName::ApiPop,
        SpanName::RuntimeWait,
        SpanName::KvFeed,
        SpanName::KvDrain,
    ];

    /// The name shown in the Chrome trace.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::ClientBuild => "harness.client.build",
            SpanName::ClientVerify => "harness.client.verify",
            SpanName::ApiPush => "core.api.push",
            SpanName::ApiPop => "core.api.pop",
            SpanName::RuntimeWait => "core.runtime.wait",
            SpanName::KvFeed => "demi-kv.server.feed",
            SpanName::KvDrain => "demi-kv.server.drain",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: SpanName,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    burst: u32,
}

struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    burst: u32,
}

/// The recorder. Shared (by reference or `Rc`) between the client loop
/// and the server coroutine.
pub struct Tracer {
    inner: RefCell<Inner>,
    /// Recording switch: a traced segment records every other slice, so
    /// traced and untraced slices 30 ms apart can be compared pairwise.
    enabled: Cell<bool>,
}

/// An open span; closes when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.tracer.inner.borrow_mut();
        let end = inner.epoch.elapsed().as_nanos() as u64;
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(self.index), "spans close innermost first");
        inner.spans[self.index as usize].end_ns = end;
    }
}

impl Tracer {
    /// A recorder with room for `capacity` spans (it grows past that, but
    /// growth inside the timed window would show up as tracing overhead).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            inner: RefCell::new(Inner {
                epoch: Instant::now(),
                spans: Vec::with_capacity(capacity),
                open: Vec::with_capacity(8),
                burst: 0,
            }),
            enabled: Cell::new(true),
        }
    }

    /// Starts or stops recording. Flip it only between bursts, when no
    /// span is open.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tags spans opened from now on with burst `id`.
    pub fn set_burst(&self, id: u32) {
        self.inner.borrow_mut().burst = id;
    }

    /// Opens a span under whichever span is currently open.
    pub fn span(&self, name: SpanName) -> SpanGuard<'_> {
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len() as u32;
        let parent = inner.open.last().copied().unwrap_or(NO_PARENT);
        let burst = inner.burst;
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            burst,
        });
        inner.open.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Discards everything recorded so far (end of the warm-up).
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.open.is_empty(), "clear with a span open");
        inner.spans.clear();
    }

    /// Total self time per span name, in nanoseconds, indexed like
    /// [`SpanName::ALL`].
    pub fn self_time_ns(&self) -> [u64; SpanName::ALL.len()] {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals = [0u64; SpanName::ALL.len()];
        for (s, children) in inner.spans.iter().zip(child_ns) {
            totals[s.name as usize] += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        totals
    }

    /// Chrome `trace_event` JSON of the first whole bursts that together
    /// hold about `max_spans` spans (load at `chrome://tracing` or
    /// <https://ui.perfetto.dev>). Each event carries its burst id and
    /// parent span index.
    pub fn chrome_trace(&self, workload: &str, max_spans: usize) -> Json {
        let inner = self.inner.borrow();
        let last_burst = inner
            .spans
            .get(max_spans.min(inner.spans.len().saturating_sub(1)))
            .map_or(0, |s| s.burst);
        let events: Vec<Json> = inner
            .spans
            .iter()
            .enumerate()
            .take_while(|(_, s)| s.burst <= last_burst)
            .map(|(i, s)| {
                let mut args = Json::obj().with("burst", s.burst as u64).with("id", i);
                if s.parent != NO_PARENT {
                    args.set("parent", s.parent as u64);
                }
                Json::obj()
                    .with("name", s.name.label())
                    .with("cat", workload)
                    .with("ph", "X")
                    .with("pid", 1u64)
                    .with("tid", 1u64)
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .with("args", args)
            })
            .collect();
        Json::obj()
            .with("displayTimeUnit", "ns")
            .with("traceEvents", events)
    }
}

/// Opens `name` on `tracer` if there is one and it is recording. The
/// untraced path is one `Option` check, so both runs execute the same
/// driver code.
pub fn span(tracer: Option<&Tracer>, name: SpanName) -> Option<SpanGuard<'_>> {
    tracer.filter(|t| t.enabled.get()).map(|t| t.span(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::with_capacity(8);
        {
            let _wait = t.span(SpanName::RuntimeWait);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _drain = t.span(SpanName::KvDrain);
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        }
        let totals = t.self_time_ns();
        let wait = totals[SpanName::RuntimeWait as usize];
        let drain = totals[SpanName::KvDrain as usize];
        assert!(drain >= 3_000_000, "{drain}");
        assert!((2_000_000..drain + 2_000_000).contains(&wait), "{wait}");
        let trace = t.chrome_trace("test", 100);
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("args").unwrap().get("parent"),
            Some(&Json::Num(0.0))
        );
    }
}

//! End-to-end telemetry behavior (E15): op-lifecycle spans stamp in
//! causal order, stage histograms fill from a real echo workload,
//! recording allocates nothing on the sample path, the span ring stays
//! bounded, quantiles stay within one log-bucket of exact, and the
//! open-loop throughput–latency curve bends where it should.

mod support;

use demi_telemetry::hist::{bucket_index, Histogram};
use demi_telemetry::span::{self, SpanPoint};
use demi_telemetry::stage::{self, Stage};
use demikernel::testing::{catnap_pair, catnip_pair, AllocMeter, CountingAlloc};
use proptest::prelude::*;
use support::{closed_loop, open_loop};

/// Counts this thread's heap allocations inside an [`AllocMeter`] window,
/// so the zero-alloc claim is measured, not assumed — and holds whatever
/// sibling tests allocate concurrently.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One small catnip echo run with full telemetry on; returns the drained
/// spans. Each test builds its own world (thread-local telemetry state
/// keeps parallel tests independent).
fn traced_echo(seed: u64, rounds: usize) -> Vec<span::OpSpan> {
    let (rt, _fabric, client, server) = catnip_pair(seed);
    demikernel::telemetry::enable(&rt);
    demikernel::telemetry::reset();
    let res = closed_loop(&rt, &client, &server, 64, 1, rounds);
    assert_eq!(res.hist.count() as usize, rounds);
    let spans = span::drain();
    demikernel::telemetry::disable();
    stage::reset();
    spans
}

#[test]
fn span_stamps_are_causally_ordered() {
    let spans = traced_echo(11, 8);
    assert!(!spans.is_empty());
    let mut complete = 0;
    for s in &spans {
        let entry = s.stamp(SpanPoint::Entry).expect("begin always stamps");
        if let Some(fp) = s.stamp(SpanPoint::FirstPoll) {
            assert!(
                entry <= fp,
                "{}: entry {} > first poll {}",
                s.name,
                entry,
                fp
            );
            if let Some(done) = s.stamp(SpanPoint::Completed) {
                assert!(
                    fp <= done,
                    "{}: first poll {} > completed {}",
                    s.name,
                    fp,
                    done
                );
                if let Some(del) = s.stamp(SpanPoint::Delivered) {
                    assert!(
                        done <= del,
                        "{}: completed {} > delivered {}",
                        s.name,
                        done,
                        del
                    );
                    complete += 1;
                }
            }
        }
    }
    assert!(complete > 0, "at least one span must carry all four stamps");
}

#[test]
fn echo_fills_every_wired_stage() {
    let (rt, _fabric, client, server) = catnip_pair(12);
    demikernel::telemetry::enable(&rt);
    demikernel::telemetry::reset();
    let _ = closed_loop(&rt, &client, &server, 64, 1, 8);
    for s in [Stage::OpLatency, Stage::RxDelivery, Stage::TxFlush] {
        assert!(
            !stage::snapshot(s).is_empty(),
            "stage {} recorded nothing during an echo run",
            s.name()
        );
    }
    let summary = demikernel::telemetry::summary();
    assert!(summary.contains("op_latency"), "{summary}");
    demikernel::telemetry::disable();
    stage::reset();
}

#[test]
fn chrome_trace_exports_drained_spans() {
    let (rt, _fabric, client, server) = catnip_pair(13);
    demikernel::telemetry::enable(&rt);
    demikernel::telemetry::reset();
    let _ = closed_loop(&rt, &client, &server, 64, 1, 4);
    let trace = demikernel::telemetry::chrome_trace();
    demikernel::telemetry::disable();
    stage::reset();
    assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
    assert!(trace.contains("\"ph\":\"X\""), "{trace}");
    assert!(trace.contains("catnip::udp_pop"), "{trace}");
}

#[test]
fn span_ring_stays_bounded() {
    span::set_capacity(16);
    let spans = traced_echo(14, 32);
    // 32 rounds spawn >64 ops (push + pop per side); a 16-slot ring must
    // have evicted and still hold at most 16.
    assert!(spans.len() <= 16, "ring drained {} spans", spans.len());
    span::set_capacity(span::DEFAULT_CAPACITY);
}

#[test]
fn recording_a_sample_never_allocates() {
    demi_telemetry::set_enabled(true);
    let mut h = Box::new(Histogram::new());
    h.record(1);
    stage::record(Stage::SchedPollLag, 1);
    let meter = AllocMeter::arm();
    for i in 1..=50_000u64 {
        h.record(i * 37);
        stage::record(Stage::SchedPollLag, i);
    }
    let allocs = meter.count();
    drop(meter);
    demi_telemetry::set_enabled(false);
    stage::reset();
    assert_eq!(allocs, 0, "sample path allocated {allocs} times");
}

#[test]
fn disabled_telemetry_records_nothing() {
    demi_telemetry::set_enabled(false);
    span::set_enabled(false);
    stage::reset();
    let (rt, _fabric, client, server) = catnip_pair(15);
    let _ = closed_loop(&rt, &client, &server, 64, 1, 4);
    for s in Stage::ALL {
        assert!(
            stage::snapshot(s).is_empty(),
            "{} recorded while off",
            s.name()
        );
    }
    assert!(span::drain().is_empty());
}

/// E15's four claims on the throughput–latency curve of a 1 KiB catnip UDP
/// echo (1 KiB puts ~213 ns of 40 Gbps line serialization in play, so the
/// knee sits inside a simulable rate range): 200 open-loop Poisson arrivals
/// per offered rate, sojourn measured from the *scheduled* instant.
#[test]
fn scaled_tail_latency_claims_hold() {
    const PAYLOAD: usize = 1024;
    const RATES: [f64; 6] = [100e3, 500e3, 1e6, 2e6, 4e6, 6e6];
    // Unloaded floors: one outstanding request, nothing to queue behind.
    let (rt, _f, c, s) = catnip_pair(42);
    let unloaded_p99 = closed_loop(&rt, &c, &s, PAYLOAD, 1, 64).hist.p99();
    let (rt, _f, c, s) = catnap_pair(42);
    let catnap_p99 = closed_loop(&rt, &c, &s, PAYLOAD, 1, 64).hist.p99();
    let curve = RATES.map(|rate| {
        let (rt, _f, c, s) = catnip_pair(42);
        let run = open_loop(&rt, &c, &s, PAYLOAD, rate, 200, 7);
        assert_eq!(run.hist.count(), 200);
        (run.hist.p99(), run.achieved_ops_per_sec())
    });
    // The measured curve (virtual time: the same on any host and build).
    assert_eq!(
        (unloaded_p99, catnap_p99),
        (2_426, 7_026),
        "catnip's unloaded p99 must beat the kernel baseline's"
    );
    assert_eq!(
        curve.map(|(p99, _)| p99),
        [2_559, 2_687, 2_879, 3_134, 4_607, 15_103],
        "low-load open-loop p99 must be within 2x the unloaded RTT p99, \
         and the curve must bend by 6M ops/s"
    );
    assert_eq!(
        curve[5].1.round(),
        4_401_602.0,
        "past saturation achieved load must fall short (< 0.9x) of offered 6000000"
    );
}

proptest! {
    /// A reported quantile never strays more than one log-bucket from the
    /// exact order statistic (S3): the histogram's only lossy step is the
    /// value→bucket rounding.
    #[test]
    fn quantile_within_one_bucket_of_exact(
        mut values in prop::collection::vec(1u64..1_000_000_000, 1..200),
        q_mille in 1usize..1000,
    ) {
        let q = q_mille as f64 / 1000.0;
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let reported = h.value_at_quantile(q);
        let (eb, rb) = (bucket_index(exact), bucket_index(reported));
        prop_assert!(
            eb.abs_diff(rb) <= 1,
            "q={} exact={} (bucket {}) reported={} (bucket {})",
            q, exact, eb, reported, rb
        );
    }

    /// Histogram counts are exact regardless of value distribution.
    #[test]
    fn counts_are_exact(values in prop::collection::vec(any::<u64>(), 0..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        if let Some(&max) = values.iter().max() {
            prop_assert_eq!(h.max(), max);
        }
    }
}

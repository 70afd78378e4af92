//! E15 — tail latency under open-loop load: the throughput–latency curve.
//!
//! Mean latency under a closed loop hides what an operating system (or
//! its absence) does to the *tail*: a closed-loop generator slows down
//! with the system, so queueing never shows. This experiment drives the
//! catnip UDP echo with an **open-loop Poisson** arrival process on
//! virtual time — arrivals are scheduled up front and latency is
//! measured from the *scheduled* instant, so a request stuck behind a
//! burst is charged its full wait (no coordinated omission) — and maps
//! p50/p99/p999 against offered load. Checks four claims:
//!
//! * **no low-load tax**: open-loop p99 at the lowest offered rate is
//!   within 2× the unloaded closed-loop RTT p99 (asserted) — telemetry
//!   and the generator itself add no queueing of their own.
//! * **the curve bends**: p99 at the highest offered rate exceeds the
//!   low-load p99, and achieved throughput falls short of offered load
//!   past saturation (asserted) — the knee the paper's figures put at
//!   the heart of every latency story.
//! * **bypass beats the kernel baseline**: catnip's unloaded p99 is
//!   below catnap's, whose simulated kernel charges syscall/copy costs
//!   (asserted).
//! * **recording is free**: one histogram sample costs zero heap
//!   allocations (asserted via a counting global allocator) — telemetry
//!   cheap enough to leave on.
//!
//! The measured curve is written to `target/e15_tail_latency.json` as a
//! plottable artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use demi_bench::loadgen::{closed_loop, open_loop};
use demi_bench::Table;
use demi_telemetry::hist::Histogram;
use demi_telemetry::loadgen::{Curve, CurvePoint};
use demi_telemetry::stage::{self, Stage};
use demikernel::testing::{catnap_pair, catnip_pair, AllocMeter, CountingAlloc};

/// Counts this thread's heap allocations inside an `AllocMeter` window,
/// so the hot-path claim is measured, not assumed.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// 1 KiB payloads put line serialization (~213 ns at 40 Gbps) in play,
/// so the curve has a knee inside a simulable rate range.
const PAYLOAD: usize = 1024;
const ARRIVALS: usize = 200;
const RATES: [f64; 6] = [100e3, 500e3, 1e6, 2e6, 4e6, 6e6];
const SEED: u64 = 42;

fn assert_zero_alloc_recording() {
    demi_telemetry::set_enabled(true);
    let mut h = Box::new(Histogram::new());
    // Prime both paths once so one-time effects don't count as
    // per-sample cost.
    h.record(1);
    stage::record(Stage::OpLatency, 1);
    let meter = AllocMeter::arm();
    for i in 1..=100_000u64 {
        h.record(i);
        stage::record(Stage::OpLatency, i);
    }
    let allocs = meter.count();
    drop(meter);
    demi_telemetry::set_enabled(false);
    stage::reset();
    assert_eq!(
        allocs, 0,
        "histogram + stage recording must not allocate on the sample path"
    );
    assert_eq!(h.count(), 100_001);
    println!("paper check: 200k samples recorded with {allocs} heap allocations\n");
}

fn experiment_table() {
    // Unloaded floors: one outstanding request, nothing to queue behind.
    let (rt, _f, c, s) = catnip_pair(SEED);
    let catnip_unloaded = closed_loop(&rt, &c, &s, PAYLOAD, 1, 64);
    let (rt, _f, c, s) = catnap_pair(SEED);
    let catnap_unloaded = closed_loop(&rt, &c, &s, PAYLOAD, 1, 64);

    let mut table = Table::new(
        "E15: open-loop Poisson UDP echo over catnip, 1KiB, 200 arrivals per rate",
        &[
            "offered ops/s",
            "achieved ops/s",
            "p50",
            "p90",
            "p99",
            "p999",
        ],
    );
    let mut curve = Curve::new("catnip UDP echo, 1KiB, open-loop Poisson");
    for &rate in &RATES {
        let (rt, _f, c, s) = catnip_pair(SEED);
        let run = open_loop(&rt, &c, &s, PAYLOAD, rate, ARRIVALS, 7);
        let point = CurvePoint::from_histogram(rate, run.elapsed_ns, &run.hist);
        table.row(&[
            format!("{rate:.0}"),
            format!("{:.0}", point.achieved_ops_per_sec),
            format!("{}ns", point.p50_ns),
            format!("{}ns", point.p90_ns),
            format!("{}ns", point.p99_ns),
            format!("{}ns", point.p999_ns),
        ]);
        curve.push(point);
    }
    table.print();

    let json = curve.to_json();
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/e15_tail_latency.json", &json).expect("write curve artifact");
    println!(
        "curve artifact: target/e15_tail_latency.json ({} bytes)",
        json.len()
    );

    let low = &curve.points[0];
    let high = curve.points.last().unwrap();
    let unloaded_p99 = catnip_unloaded.hist.p99();
    assert!(
        low.p99_ns <= 2 * unloaded_p99,
        "low-load open-loop p99 {}ns must be within 2x the unloaded RTT p99 {}ns",
        low.p99_ns,
        unloaded_p99
    );
    assert!(
        high.p99_ns > low.p99_ns,
        "the curve must bend: p99 {}ns at {:.0} ops/s vs {}ns at {:.0} ops/s",
        high.p99_ns,
        high.offered_ops_per_sec,
        low.p99_ns,
        low.offered_ops_per_sec
    );
    assert!(
        high.achieved_ops_per_sec < 0.9 * high.offered_ops_per_sec,
        "past saturation achieved load {:.0} must fall short of offered {:.0}",
        high.achieved_ops_per_sec,
        high.offered_ops_per_sec
    );
    assert!(
        unloaded_p99 < catnap_unloaded.hist.p99(),
        "catnip unloaded p99 {}ns must beat the kernel baseline's {}ns",
        unloaded_p99,
        catnap_unloaded.hist.p99()
    );
    println!(
        "paper check: unloaded p99 catnip {}ns vs catnap {}ns; open-loop p99 \
         {}ns at {:.0} ops/s -> {}ns at {:.0} ops/s (achieved {:.0})\n",
        unloaded_p99,
        catnap_unloaded.hist.p99(),
        low.p99_ns,
        low.offered_ops_per_sec,
        high.p99_ns,
        high.offered_ops_per_sec,
        high.achieved_ops_per_sec
    );
}

fn bench(c: &mut Criterion) {
    assert_zero_alloc_recording();
    experiment_table();
    let mut group = c.benchmark_group("e15_tail_latency");
    group.sample_size(10);
    group.bench_function("closed_loop_unloaded", |b| {
        b.iter(|| {
            let (rt, _f, cl, s) = catnip_pair(criterion::black_box(7));
            closed_loop(&rt, &cl, &s, PAYLOAD, 1, 16)
        })
    });
    group.bench_function("open_loop_1m", |b| {
        b.iter(|| {
            let (rt, _f, cl, s) = catnip_pair(criterion::black_box(7));
            open_loop(&rt, &cl, &s, PAYLOAD, 1e6, 64, 9)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! The end-to-end measurement of one workload, tracing off.
//!
//! One discarded warm-up segment, then timed segments — every one the
//! same fixed burst count in a freshly built world, generated from the
//! same seed — until the time budget is spent. Because the segments are
//! exact replicas, every count and virtual-time metric reads the same in
//! each of them however many fit the budget.
//!
//! Wall-clock metrics are reported as the *best* observation of the run:
//! the throughput of the fastest slice (a 64th of a segment, ≈30 ms), the
//! median burst time of the least disturbed slice, the quickest set-up.
//! The box this ledger was first taken on moves between speed levels a
//! quarter apart in phases lasting seconds (README, "noise study"): over
//! twenty 24 s windows the median slice moved by 48 % of itself, the best
//! slice by 4 %. Noise only ever slows a slice down, so the best slice is
//! the observation closest to what the code can do; the per-segment
//! distribution is printed and stored beside it.

use std::time::Instant;

use crate::noise::DISTURBED_BELOW;
use crate::spec::{Better, MetricDef, Source, END_TO_END};
use crate::stats::Summary;
use crate::workloads::{run_segment, Segment, SegmentOptions, Slice, Workload};

/// How big and how long a measurement is.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Wall seconds the measurement may take, set-up included.
    pub seconds: f64,
    /// Tiny burst counts (the self-test's `--smoke` mode).
    pub smoke: bool,
}

impl Plan {
    /// Bursts per timed segment of `w` under this plan.
    pub fn bursts(&self, w: &Workload) -> usize {
        if self.smoke {
            w.smoke_bursts()
        } else {
            w.bursts
        }
    }
}

/// Timed segments a measurement never goes below, whatever the budget.
const MIN_SEGMENTS: usize = 3;
/// The warm-up segment is this fraction of a timed one.
const WARMUP_FRACTION: usize = 4;

/// Operations attempted and failed while measuring — what becomes the
/// result line's `attempted`/`failed` and the command's exit code.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that were wrong, missing or timed out, plus keys the
    /// crash replay recovered wrongly.
    pub failed: u64,
    /// What failed, one line per failing segment.
    pub errors: Vec<String>,
}

impl Tally {
    /// Adds one segment's outcome.
    pub fn absorb(&mut self, seg: &Segment) {
        self.attempted += seg.attempted;
        self.failed += seg.failed;
        self.errors.extend(seg.error.clone());
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors.iter().cloned());
    }
}

/// What one untraced measurement produced.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// The timed segments, in order.
    pub segments: Vec<Segment>,
    /// Outcome of every operation, warm-up segment included.
    pub tally: Tally,
}

/// Calls `round` at least `at_least` times, then for as long as another
/// round as long as the longest so far still fits into `seconds`. A round
/// returning `false` ends the repetition once the minimum is met.
pub fn repeat_within(seconds: f64, at_least: usize, mut round: impl FnMut() -> bool) {
    let start = Instant::now();
    let (mut done, mut longest, mut go_on) = (0, 0.0f64, true);
    while done < at_least || (go_on && start.elapsed().as_secs_f64() + longest <= seconds) {
        let t = Instant::now();
        go_on = round();
        longest = longest.max(t.elapsed().as_secs_f64());
        done += 1;
    }
}

/// Measures `w` end to end under `plan`.
pub fn measure(w: &Workload, seed: u64, plan: Plan) -> EndToEnd {
    let start = Instant::now();
    let bursts = plan.bursts(w);
    let opts = SegmentOptions::default();
    let mut out = EndToEnd {
        segments: Vec::new(),
        tally: Tally::default(),
    };
    // Warm-up: page in the code, size the allocator's arenas. Discarded,
    // but a wrong reply in it still counts as a failure.
    let warmup = run_segment(w, seed, (bursts / WARMUP_FRACTION).max(1), &opts);
    out.tally.absorb(&warmup);

    // A failing run still yields its minimum of segments, so there is
    // always something to read the metrics off.
    let left = plan.seconds - start.elapsed().as_secs_f64();
    repeat_within(left, MIN_SEGMENTS, || {
        let seg = run_segment(w, seed, bursts, &opts);
        out.tally.absorb(&seg);
        out.segments.push(seg);
        out.tally.errors.is_empty()
    });
    out
}

/// One segment's value of end-to-end metric `name` (for the wall-clock
/// metrics, the segment's best slice).
///
/// # Panics
///
/// Panics on a name that is not in [`END_TO_END`].
fn segment_metric(seg: &Segment, name: &str) -> f64 {
    let ops = seg.ops.max(1) as f64;
    match name {
        "ops_per_s" => seg.best_ops_per_s(),
        "rtt_wall_p50_ns" => seg.best_rtt_wall_p50_ns() as f64,
        "rtt_virt_p50_ns" => seg.rtt_virt_ns.p50 as f64,
        "rtt_virt_p99_ns" => seg.rtt_virt_ns.p99 as f64,
        "allocs_per_op" => seg.allocs as f64 / ops,
        "frames_per_op" => seg.counts.fabric_frames as f64 / ops,
        "heap_peak_bytes" => seg.heap_peak as f64,
        "setup_s" => seg.setup_s,
        other => panic!("{other} is not an end-to-end metric"),
    }
}

/// One end-to-end metric of one measurement.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// The reported value: the best per-segment value for a wall-clock
    /// metric, the median over segments for an exact one.
    pub value: f64,
    /// How far the run is from pinning `value` down, as a share of it.
    /// Wall clock: the gap between the best and the third-best
    /// observation — slice, or set-up — of the run (the ceiling was seen
    /// three times if this is small). Exact
    /// metrics: the inter-quartile distance over segments, which is 0.
    pub spread: f64,
    /// The per-segment distribution.
    pub segments: Summary,
}

impl EndToEnd {
    /// Reads `metric` off the timed segments.
    pub fn reading(&self, metric: &MetricDef) -> Reading {
        let mut values: Vec<f64> = self
            .segments
            .iter()
            .map(|s| segment_metric(s, metric.name))
            .collect();
        let segments = Summary::of(&values);
        if metric.source != Source::WallClock {
            return Reading {
                value: segments.median,
                spread: segments.spread(),
                segments,
            };
        }
        // The slice metrics are judged over every slice of the run: the
        // fast phases can be shorter than a segment.
        let slices = |f: fn(&Slice) -> f64| -> Vec<f64> {
            let all = self.segments.iter().flat_map(|s| &s.slices);
            all.map(f).collect()
        };
        let mut observations = match metric.name {
            "ops_per_s" => slices(|s| s.ops_per_s),
            "rtt_wall_p50_ns" => slices(|s| s.rtt_wall_p50_ns as f64),
            _ => std::mem::take(&mut values),
        };
        // Best first.
        observations.sort_by(f64::total_cmp);
        if metric.better == Better::Higher {
            observations.reverse();
        }
        let Some(&best) = observations.first() else {
            return Reading {
                value: 0.0,
                spread: 0.0,
                segments,
            };
        };
        let third = observations[observations.len().min(3) - 1];
        Reading {
            value: best,
            spread: if best == 0.0 {
                0.0
            } else {
                (best - third).abs() / best
            },
            segments,
        }
    }

    /// Every end-to-end metric's reading, in `BENCHMARK.json` order.
    pub fn readings(&self) -> Vec<(&'static MetricDef, Reading)> {
        END_TO_END.iter().map(|m| (m, self.reading(m))).collect()
    }

    /// Whether segment `i` lost the CPU for more than a tenth of its
    /// window (its wall-clock numbers are then suspect).
    pub fn disturbed(&self, i: usize) -> bool {
        self.segments[i]
            .cpu_busy_ratio
            .is_some_and(|r| r < DISTURBED_BELOW)
    }
}

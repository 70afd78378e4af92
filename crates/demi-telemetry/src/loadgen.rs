//! Load-generation schedules and throughput–latency curve assembly.
//!
//! Two arrival disciplines, both on **virtual time**:
//!
//! - **Closed loop**: a fixed number of workers each keep exactly one
//!   request in flight — offered load adapts to service rate, so the
//!   system is never overloaded and the measurement is "best-case RTT
//!   at concurrency N". No schedule needed; drivers just loop.
//! - **Open loop**: arrivals follow a Poisson process at a fixed rate,
//!   independent of completions — the discipline that actually exposes
//!   tail latency, because a slow reply does not slow down the
//!   arrivals behind it (queueing delay counts against the laggard).
//!   [`poisson_schedule`] precomputes the absolute arrival times.
//!
//! Latency for an open-loop request is measured from its **scheduled
//! arrival**, not from when the generator got around to sending it;
//! anything else silently hides coordinated omission.
//!
//! [`Curve`] collects per-rate [`CurvePoint`]s into the
//! throughput–latency curve JSON artifact the E15 experiment emits.

use crate::hist::Histogram;

/// Deterministic 64-bit RNG (splitmix64) — schedules must be
/// reproducible across runs, so no external entropy.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator; the same seed always yields the same schedule.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1) — never exactly 0, so
    /// `-ln(u)` is always finite.
    pub fn next_unit_open(&mut self) -> f64 {
        // 53 random mantissa bits, then nudge off zero.
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u.max(f64::MIN_POSITIVE)
    }
}

/// Absolute virtual-time arrival instants (ns, ascending) for a Poisson
/// process at `rate_per_sec`, starting at `start_ns`, `count` arrivals.
/// Inter-arrival gaps are exponential: `-ln(U) · mean`.
pub fn poisson_schedule(seed: u64, start_ns: u64, rate_per_sec: f64, count: usize) -> Vec<u64> {
    assert!(rate_per_sec > 0.0, "offered rate must be positive");
    let mean_gap_ns = 1e9 / rate_per_sec;
    let mut rng = SplitMix64::new(seed);
    let mut t = start_ns as f64;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        t += -rng.next_unit_open().ln() * mean_gap_ns;
        out.push(t as u64);
    }
    out
}

/// One measured point on a throughput–latency curve.
#[derive(Clone, Debug)]
pub struct CurvePoint {
    /// The load the generator tried to offer (open loop) or the
    /// concurrency level (closed loop).
    pub offered_ops_per_sec: f64,
    /// Completions per virtual second actually achieved.
    pub achieved_ops_per_sec: f64,
    /// Mean latency (ns).
    pub mean_ns: u64,
    /// Latency quantiles (ns).
    pub p50_ns: u64,
    /// 90th percentile latency (ns).
    pub p90_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_ns: u64,
    /// 99.9th percentile latency (ns).
    pub p999_ns: u64,
    /// Number of completed requests the point summarizes.
    pub samples: u64,
    /// Established connections carrying the load when the point was
    /// measured (0 when the experiment has no connection concept —
    /// e.g. UDP echo curves).
    pub connections: u64,
    /// Commands in flight per connection (1 = strict request/response;
    /// >1 = pipelined bursts, the E19 axis).
    pub pipeline_depth: u64,
}

impl CurvePoint {
    /// Summarize a latency histogram plus wall-clock (virtual) duration
    /// into a curve point. Connection count defaults to 0 and pipeline
    /// depth to 1 (plain request/response); experiments that sweep those
    /// axes use [`CurvePoint::at_scale`].
    pub fn from_histogram(offered_ops_per_sec: f64, elapsed_ns: u64, hist: &Histogram) -> Self {
        let achieved = if elapsed_ns == 0 {
            0.0
        } else {
            hist.count() as f64 * 1e9 / elapsed_ns as f64
        };
        Self {
            offered_ops_per_sec,
            achieved_ops_per_sec: achieved,
            mean_ns: hist.mean(),
            p50_ns: hist.p50(),
            p90_ns: hist.p90(),
            p99_ns: hist.p99(),
            p999_ns: hist.p999(),
            samples: hist.count(),
            connections: 0,
            pipeline_depth: 1,
        }
    }

    /// Tags the point with the connection count and pipeline depth it
    /// was measured at (builder-style, for curve sweeps over scale).
    pub fn at_scale(mut self, connections: u64, pipeline_depth: u64) -> Self {
        self.connections = connections;
        self.pipeline_depth = pipeline_depth;
        self
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"offered_ops_per_sec\":{:.1},\"achieved_ops_per_sec\":{:.1},\
             \"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\
             \"p999_ns\":{},\"samples\":{},\"connections\":{},\
             \"pipeline_depth\":{}}}",
            self.offered_ops_per_sec,
            self.achieved_ops_per_sec,
            self.mean_ns,
            self.p50_ns,
            self.p90_ns,
            self.p99_ns,
            self.p999_ns,
            self.samples,
            self.connections,
            self.pipeline_depth
        )
    }
}

/// A titled throughput–latency curve, serializable as JSON.
#[derive(Clone, Debug, Default)]
pub struct Curve {
    /// Workload label (e.g. `"catnip udp echo, open loop"`).
    pub title: String,
    /// Measured points, typically in ascending offered load.
    pub points: Vec<CurvePoint>,
}

impl Curve {
    /// An empty curve with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, point: CurvePoint) {
        self.points.push(point);
    }

    /// Render as a JSON object `{"title": ..., "points": [...]}`.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(|p| p.to_json()).collect();
        format!(
            "{{\"title\":\"{}\",\"points\":[{}]}}",
            self.title.replace('"', "\\\""),
            points.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_and_ascending() {
        let a = poisson_schedule(42, 1000, 100_000.0, 500);
        let b = poisson_schedule(42, 1000, 100_000.0, 500);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] >= 1000);
        let c = poisson_schedule(43, 1000, 100_000.0, 500);
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        // 100k ops/s → 10µs mean gap. With 20k samples the sample mean
        // should land well within 5% of that.
        let sched = poisson_schedule(7, 0, 100_000.0, 20_000);
        let total = sched.last().unwrap() - sched[0];
        let mean_gap = total as f64 / (sched.len() - 1) as f64;
        assert!(
            (mean_gap - 10_000.0).abs() < 500.0,
            "mean inter-arrival {mean_gap} ns, expected ~10000"
        );
    }

    #[test]
    fn curve_json_shape() {
        let mut h = Histogram::new();
        for v in [1000u64, 2000, 3000] {
            h.record(v);
        }
        let mut curve = Curve::new("udp \"echo\"");
        curve.push(CurvePoint::from_histogram(50_000.0, 1_000_000, &h));
        let json = curve.to_json();
        assert!(json.contains("\"title\":\"udp \\\"echo\\\"\""));
        assert!(json.contains("\"offered_ops_per_sec\":50000.0"));
        assert!(json.contains("\"samples\":3"));
        // 3 completions over 1 ms of virtual time = 3000 ops/s.
        assert!(json.contains("\"achieved_ops_per_sec\":3000.0"));
        // Scale axes default to "no connections, unpipelined".
        assert!(json.contains("\"connections\":0"));
        assert!(json.contains("\"pipeline_depth\":1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn curve_point_scale_tagging() {
        let mut h = Histogram::new();
        h.record(500);
        let p = CurvePoint::from_histogram(1000.0, 1_000_000, &h).at_scale(100_000, 16);
        assert_eq!(p.connections, 100_000);
        assert_eq!(p.pipeline_depth, 16);
        let json = Curve {
            title: "kv".into(),
            points: vec![p],
        }
        .to_json();
        assert!(json.contains("\"connections\":100000"));
        assert!(json.contains("\"pipeline_depth\":16"));
    }
}

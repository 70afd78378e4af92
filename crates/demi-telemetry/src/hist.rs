//! Fixed-size log-bucketed latency histograms (HDR-style).
//!
//! Values are u64 nanoseconds. Buckets are logarithmic with 32 linear
//! sub-buckets per power of two (`SUB_BITS` = 5), which bounds the
//! relative quantile error at `2^-5` ≈ 3.1% — a bucket never rounds a
//! reported quantile by more than one sub-bucket width. The whole
//! structure is a flat `[u64; 1920]` plus four scalars: **recording a
//! sample is a shift, a subtract, and five integer writes — zero
//! allocations, zero branches on the value's magnitude beyond the
//! small-value fast path.** Counts are exact; only value resolution is
//! bucketed.
//!
//! `Histogram::new` is a `const fn` so histograms can live in
//! const-initialized `thread_local!` cells (see [`crate::stage`]).

/// log2 of the sub-bucket count per power of two.
pub(crate) const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power of two (32 → ≤3.125% relative error).
pub(crate) const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count covering the full u64 range.
pub(crate) const BUCKETS: usize = SUBS * (64 - SUB_BITS as usize + 1);

/// Bucket index for a value. Values below `SUBS` get exact unit
/// buckets; above, the top `SUB_BITS`+1 significant bits select the
/// bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BITS)) - SUBS as u64) as usize;
        (exp - SUB_BITS + 1) as usize * SUBS + sub
    }
}

/// Smallest value mapping to bucket `i` (inverse of [`bucket_index`]).
#[inline]
pub(crate) fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUBS {
        i as u64
    } else {
        ((SUBS + i % SUBS) as u64) << (i / SUBS - 1)
    }
}

/// Largest value mapping to bucket `i`.
#[inline]
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    let width = if i < SUBS {
        1u64
    } else {
        1u64 << (i / SUBS - 1)
    };
    bucket_lower_bound(i) + (width - 1)
}

/// A log-bucketed histogram over u64 values. ~15 KiB, flat, `Clone` but
/// deliberately not `Copy` (accidental 15 KiB memcpys are bugs).
#[derive(Clone)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram. `const` so it can const-init thread-locals.
    pub const fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. Allocation-free; O(1).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Fold `other`'s samples into `self`.
    pub(crate) fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 if empty).
    pub(crate) fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0 if empty). Sum saturates at u64::MAX,
    /// so the mean degrades (never wraps) past ~18.4e18 total ns.
    pub(crate) fn mean(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.sum / self.count
        }
    }

    /// The value at quantile `q` ∈ [0, 1]: an upper bound on the sample
    /// at rank ⌈q·count⌉, exact to within one bucket (≤3.1% relative).
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.value_at_quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }

    /// Reset to empty without touching capacity (it's all inline anyway).
    pub(crate) fn clear(&mut self) {
        *self = Self::new();
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exact unit buckets below SUBS, then seamless log buckets.
        for v in 0..SUBS as u64 {
            assert_eq!(bucket_index(v), v as usize);
        }
        assert_eq!(bucket_index(SUBS as u64), SUBS);
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            probes.extend([v.saturating_sub(1), v, v.saturating_add(1), v + v / 2]);
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut last = 0;
        for probe in probes {
            let i = bucket_index(probe);
            assert!(i >= last, "index not monotone at {probe}");
            assert!(i < BUCKETS);
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bounds_invert_the_index() {
        for i in 0..BUCKETS {
            let lo = bucket_lower_bound(i);
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            if lo > 0 {
                assert_eq!(bucket_index(lo - 1), i - 1);
            }
            if hi < u64::MAX {
                assert_eq!(bucket_index(hi + 1), i + 1);
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.p50(), 3);
        assert_eq!(h.value_at_quantile(1.0), 7);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 7);
        assert_eq!(h.mean(), 4);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 17); // spread across many buckets
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = (q * 100_000.0f64).ceil() as u64 * 17;
            let approx = h.value_at_quantile(q);
            let err = approx.abs_diff(exact) as f64 / exact as f64;
            assert!(err <= 1.0 / SUBS as f64, "q={q}: {approx} vs {exact}");
            assert!(approx >= exact, "quantile must be an upper bound");
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 0..1000u64 {
            let v = v * v % 7919;
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.value_at_quantile(q), both.value_at_quantile(q));
        }
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
    }

    #[test]
    fn extremes_do_not_panic() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.value_at_quantile(1.0), u64::MAX);
    }
}

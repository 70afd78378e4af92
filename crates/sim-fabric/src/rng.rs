//! A small deterministic PRNG for simulation-internal randomness.
//!
//! The fabric needs randomness for frame loss and jitter, but experiments
//! must be exactly reproducible, so the fabric cannot depend on ambient
//! entropy. `SimRng` is SplitMix64: tiny, fast, well distributed, and —
//! unlike external crates — guaranteed stable across dependency upgrades,
//! which keeps recorded experiment outputs comparable over time.

/// Deterministic SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use sim_fabric::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_stay_in_range_and_cover() {
        let mut r = SimRng::new(2);
        let mut low = 0usize;
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            if f < 0.5 {
                low += 1;
            }
        }
        // Roughly balanced: a catastrophically biased generator would fail.
        assert!((3_000..7_000).contains(&low), "low count {low}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut r = SimRng::new(4);
        let hits = (0..10_000).filter(|_| r.chance(0.1)).count();
        assert!((700..1_300).contains(&hits), "hits {hits}");
    }
}

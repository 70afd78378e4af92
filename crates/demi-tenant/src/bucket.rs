//! A token bucket on the virtual clock.
//!
//! Time is a raw `u64` nanosecond count so the crate stays clock-free;
//! the stack feeds it `SimTime::as_nanos()`. Tokens are bytes. All the
//! arithmetic widens to `u128` internally: a long virtual idle period
//! times a fast rate overflows `u64` otherwise.

use crate::RateLimit;

/// Byte-denominated token bucket: refills continuously at
/// `bytes_per_sec`, holds at most `burst_bytes`, starts full.
///
/// Tokens are banked internally in *nano-bytes* (`bytes × 10⁹`) so that
/// refills are exact — one elapsed nanosecond at rate `r` banks exactly
/// `r` nano-bytes — and repeated partial refills never lose fractional
/// tokens to integer truncation.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    rate_bps: u64,
    burst_nano: u128,
    tokens_nano: u128,
    last_ns: u64,
}

const NANOS_PER_SEC: u128 = 1_000_000_000;

impl TokenBucket {
    /// A bucket enforcing `limit`, full at creation.
    pub fn new(limit: RateLimit) -> Self {
        let burst_nano = limit.burst_bytes.max(1) as u128 * NANOS_PER_SEC;
        TokenBucket {
            rate_bps: limit.bytes_per_sec,
            burst_nano,
            tokens_nano: burst_nano,
            last_ns: 0,
        }
    }

    /// Nano-tokens available at `now_ns` without consuming anything.
    fn nano_at(&self, now_ns: u64) -> u128 {
        let dt = now_ns.saturating_sub(self.last_ns) as u128;
        self.tokens_nano
            .saturating_add(dt.saturating_mul(self.rate_bps as u128))
            .min(self.burst_nano)
    }

    /// Takes `bytes` tokens if available at `now_ns`. On refusal the
    /// bucket is left untouched (apart from the refill bookkeeping).
    pub fn try_consume(&mut self, bytes: u64, now_ns: u64) -> bool {
        self.tokens_nano = self.nano_at(now_ns);
        self.last_ns = self.last_ns.max(now_ns);
        let need = bytes as u128 * NANOS_PER_SEC;
        if self.tokens_nano >= need {
            self.tokens_nano -= need;
            true
        } else {
            false
        }
    }

    /// The earliest virtual time at which `bytes` tokens will be
    /// available, or `None` if the rate is zero and the bucket can never
    /// refill that far. Returns `now_ns` when already admittable —
    /// this is the deadline the stack folds into its timer horizon so
    /// rate-limited lanes wake exactly when their next frame fits.
    pub fn next_ready_ns(&self, bytes: u64, now_ns: u64) -> Option<u64> {
        let have = self.nano_at(now_ns);
        let need = bytes as u128 * NANOS_PER_SEC;
        if have >= need {
            return Some(now_ns);
        }
        if self.rate_bps == 0 || need > self.burst_nano {
            return None;
        }
        let dt = (need - have).div_ceil(self.rate_bps as u128);
        Some(now_ns.saturating_add(dt as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TokenBucket {
        /// Tokens (whole bytes) currently banked.
        fn tokens(&self, now_ns: u64) -> u64 {
            (self.nano_at(now_ns) / NANOS_PER_SEC) as u64
        }
    }

    fn limit(rate: u64, burst: u64) -> RateLimit {
        RateLimit {
            bytes_per_sec: rate,
            burst_bytes: burst,
        }
    }

    #[test]
    fn starts_full_and_spends_down() {
        let mut b = TokenBucket::new(limit(1_000, 100));
        assert!(b.try_consume(60, 0));
        assert!(b.try_consume(40, 0));
        assert!(!b.try_consume(1, 0), "bucket empty");
    }

    #[test]
    fn refills_at_rate_on_virtual_time() {
        // 1000 B/s = 1 byte per millisecond.
        let mut b = TokenBucket::new(limit(1_000, 100));
        assert!(b.try_consume(100, 0));
        assert!(!b.try_consume(10, 5_000_000), "5 ms banks only 5 bytes");
        assert!(b.try_consume(10, 10_000_000), "10 ms banks 10 bytes");
    }

    #[test]
    fn burst_caps_banked_tokens() {
        let mut b = TokenBucket::new(limit(1_000, 50));
        // A year of virtual idle still banks only the burst.
        assert_eq!(b.tokens(31_536_000_000_000_000), 50);
        assert!(b.try_consume(50, 31_536_000_000_000_000));
        assert!(!b.try_consume(1, 31_536_000_000_000_000));
    }

    #[test]
    fn next_ready_predicts_admission_exactly() {
        let mut b = TokenBucket::new(limit(1_000, 100));
        assert!(b.try_consume(100, 0));
        let ready = b.next_ready_ns(30, 0).unwrap();
        assert_eq!(ready, 30_000_000, "30 bytes at 1 B/ms");
        assert!(!b.try_consume(30, ready - 1));
        assert!(b.try_consume(30, ready));
    }

    #[test]
    fn zero_rate_never_readies_once_drained() {
        let mut b = TokenBucket::new(limit(0, 10));
        assert!(b.try_consume(10, 0));
        assert_eq!(b.next_ready_ns(1, 1_000_000_000), None);
    }

    #[test]
    fn oversized_request_is_never_ready() {
        let b = TokenBucket::new(limit(1_000, 10));
        assert_eq!(b.next_ready_ns(11, 0), None, "larger than burst");
    }

    #[test]
    fn huge_idle_times_do_not_overflow() {
        let b = TokenBucket::new(limit(u64::MAX, u64::MAX));
        assert_eq!(b.tokens(u64::MAX), u64::MAX);
    }
}

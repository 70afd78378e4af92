//! Retransmission-timeout estimation (Jacobson's algorithm, Karn's rule).

use sim_fabric::SimTime;

use super::RTO_MIN;

/// RTO before any RTT sample. Chosen: RFC 6298's 1 s, scaled down to the
/// µs-scale fabric.
const RTO_INITIAL: SimTime = SimTime::from_millis(1);
/// Upper bound on the backed-off retransmission timeout. Chosen.
const RTO_MAX: SimTime = SimTime::from_secs(4);

/// Tracks smoothed RTT and variance; produces the RTO.
///
/// Samples from retransmitted segments must not be fed in (Karn's rule —
/// the caller enforces this by only sampling unretransmitted segments).
#[derive(Debug, Clone)]
pub(crate) struct RttEstimator {
    srtt: Option<SimTime>,
    rttvar: SimTime,
    rto: SimTime,
}

impl RttEstimator {
    /// Creates an estimator at [`RTO_INITIAL`], before any sample.
    pub(crate) fn new() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimTime::ZERO,
            rto: RTO_INITIAL,
        }
    }

    /// Feeds one RTT measurement (RFC 6298 §2).
    pub(crate) fn sample(&mut self, rtt: SimTime) {
        let srtt = match self.srtt {
            None => {
                self.rttvar = SimTime::from_nanos(rtt.as_nanos() / 2);
                rtt
            }
            Some(srtt) => {
                // RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R'|
                let err = if srtt.ge_time(rtt) {
                    srtt - rtt
                } else {
                    rtt - srtt
                };
                self.rttvar =
                    SimTime::from_nanos((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                // SRTT = 7/8·SRTT + 1/8·R'
                SimTime::from_nanos((7 * srtt.as_nanos() + rtt.as_nanos()) / 8)
            }
        };
        self.srtt = Some(srtt);
        let candidate = srtt.saturating_add(self.rttvar.saturating_mul(4));
        self.rto = clamp(candidate, RTO_MIN, RTO_MAX);
    }

    /// Current RTO.
    pub(crate) fn rto(&self) -> SimTime {
        self.rto
    }

    /// Exponential backoff after a timeout (RFC 6298 §5.5).
    pub(crate) fn backoff(&mut self) {
        self.rto = clamp(self.rto.saturating_mul(2), RTO_MIN, RTO_MAX);
    }
}

fn clamp(t: SimTime, lo: SimTime, hi: SimTime) -> SimTime {
    if t.as_nanos() < lo.as_nanos() {
        lo
    } else if t.as_nanos() > hi.as_nanos() {
        hi
    } else {
        t
    }
}

/// Local ordering helper (SimTime implements Ord, but spell intent).
trait GeTime {
    fn ge_time(&self, other: SimTime) -> bool;
}

impl GeTime for SimTime {
    fn ge_time(&self, other: SimTime) -> bool {
        self.as_nanos() >= other.as_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_sets_srtt_and_rto() {
        let mut e = RttEstimator::new();
        assert_eq!(e.rto(), SimTime::from_millis(1));
        e.sample(SimTime::from_micros(100));
        assert_eq!(e.srtt, Some(SimTime::from_micros(100)));
        // RTO = SRTT + 4·(RTT/2) = 100 + 200 = 300µs.
        assert_eq!(e.rto(), SimTime::from_micros(300));
    }

    #[test]
    fn stable_rtt_converges_and_respects_min() {
        let mut e = RttEstimator::new();
        for _ in 0..50 {
            e.sample(SimTime::from_micros(10));
        }
        // Variance decays toward zero; min clamp holds the RTO up.
        assert_eq!(e.rto(), SimTime::from_micros(200));
        let srtt = e.srtt.unwrap();
        assert!(srtt.as_nanos() <= 11_000, "srtt converged: {srtt:?}");
    }

    #[test]
    fn variance_grows_with_jitter() {
        let mut e = RttEstimator::new();
        e.sample(SimTime::from_micros(100));
        let calm = e.rto();
        e.sample(SimTime::from_micros(2_000));
        assert!(e.rto().as_nanos() > calm.as_nanos());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = RttEstimator::new();
        e.sample(SimTime::from_millis(500));
        let base = e.rto();
        e.backoff();
        assert_eq!(e.rto().as_nanos(), (base.as_nanos() * 2).min(4_000_000_000));
        for _ in 0..10 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimTime::from_secs(4), "capped at RTO_MAX");
    }
}

//! NewReno-style congestion control.
//!
//! Slow start, congestion avoidance, fast retransmit / fast recovery, and
//! timeout collapse. The control block feeds events in; this module only
//! tracks `cwnd`/`ssthresh` (the sender asks for the window when pacing).

/// Congestion controller state.
#[derive(Debug, Clone)]
pub(crate) struct NewReno {
    mss: usize,
    cwnd: usize,
    ssthresh: usize,
    /// Bytes accumulated toward the next congestion-avoidance increment.
    avoidance_acc: usize,
    in_recovery: bool,
}

impl NewReno {
    /// Creates a controller: initial window of 10·MSS (RFC 6928),
    /// `ssthresh` effectively unbounded.
    pub(crate) fn new(mss: usize) -> Self {
        NewReno {
            mss,
            cwnd: 10 * mss,
            ssthresh: usize::MAX / 2,
            avoidance_acc: 0,
            in_recovery: false,
        }
    }

    /// Current congestion window in bytes.
    pub(crate) fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Whether fast recovery is in progress.
    pub(crate) fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// A new cumulative ACK covered `bytes_acked` fresh bytes while
    /// `flight` bytes were outstanding.
    pub(crate) fn on_ack(&mut self, bytes_acked: usize, _flight: usize) {
        if self.in_recovery {
            // Full ACK handling is driven by `on_recovery_complete`; partial
            // ACKs deflate then re-inflate, which nets out — keep cwnd.
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: cwnd grows by min(acked, MSS) per ACK.
            self.cwnd += bytes_acked.min(self.mss);
        } else {
            // Congestion avoidance: one MSS per cwnd of data acked.
            self.avoidance_acc += bytes_acked;
            if self.avoidance_acc >= self.cwnd {
                self.avoidance_acc -= self.cwnd;
                self.cwnd += self.mss;
            }
        }
    }

    /// Third duplicate ACK: halve and enter fast recovery.
    pub(crate) fn on_fast_retransmit(&mut self, flight: usize) {
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh + 3 * self.mss;
        self.in_recovery = true;
    }

    /// A further duplicate ACK during recovery inflates the window.
    pub(crate) fn on_dup_ack_in_recovery(&mut self) {
        if self.in_recovery {
            self.cwnd += self.mss;
        }
    }

    /// The ACK that covers the recovery point: deflate and resume
    /// congestion avoidance.
    pub(crate) fn on_recovery_complete(&mut self) {
        self.cwnd = self.ssthresh;
        self.in_recovery = false;
        self.avoidance_acc = 0;
    }

    /// Retransmission timeout: collapse to one segment.
    pub(crate) fn on_timeout(&mut self, flight: usize) {
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.in_recovery = false;
        self.avoidance_acc = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1000;

    #[test]
    fn initial_window_is_ten_segments() {
        let cc = NewReno::new(MSS);
        assert_eq!(cc.cwnd(), 10 * MSS);
        assert!(!cc.in_recovery());
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut cc = NewReno::new(MSS);
        let start = cc.cwnd();
        // ACK a full window's worth, one MSS at a time.
        for _ in 0..(start / MSS) {
            cc.on_ack(MSS, start);
        }
        assert_eq!(cc.cwnd(), 2 * start);
    }

    #[test]
    fn congestion_avoidance_adds_one_mss_per_window() {
        let mut cc = NewReno::new(MSS);
        // Force avoidance by setting up a loss.
        cc.on_timeout(20 * MSS);
        assert_eq!(cc.cwnd(), MSS);
        let ssthresh = cc.ssthresh;
        assert_eq!(ssthresh, 10 * MSS);
        // Slow-start back to ssthresh.
        while cc.cwnd() < ssthresh {
            cc.on_ack(MSS, ssthresh);
        }
        let w = cc.cwnd();
        // One full window of ACKs now adds exactly one MSS.
        let mut acked = 0;
        while acked < w {
            cc.on_ack(MSS, w);
            acked += MSS;
        }
        assert_eq!(cc.cwnd(), w + MSS);
    }

    #[test]
    fn fast_retransmit_halves_and_recovers() {
        let mut cc = NewReno::new(MSS);
        cc.on_fast_retransmit(10 * MSS);
        assert!(cc.in_recovery());
        assert_eq!(cc.ssthresh, 5 * MSS);
        assert_eq!(cc.cwnd(), 5 * MSS + 3 * MSS);
        cc.on_dup_ack_in_recovery();
        assert_eq!(cc.cwnd(), 9 * MSS);
        cc.on_recovery_complete();
        assert!(!cc.in_recovery());
        assert_eq!(cc.cwnd(), 5 * MSS);
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        let mut cc = NewReno::new(MSS);
        cc.on_fast_retransmit(10 * MSS);
        cc.on_timeout(8 * MSS);
        assert_eq!(cc.cwnd(), MSS);
        assert_eq!(cc.ssthresh, 4 * MSS);
        assert!(!cc.in_recovery());
    }

    #[test]
    fn ssthresh_floor_is_two_mss() {
        let mut cc = NewReno::new(MSS);
        cc.on_timeout(MSS);
        assert_eq!(cc.ssthresh, 2 * MSS);
    }
}

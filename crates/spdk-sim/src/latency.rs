//! Flash service-time model.

use sim_fabric::SimTime;

/// Latency parameters for one command class.
#[derive(Debug, Clone, Copy)]
pub struct OpLatency {
    /// Fixed cost per command (submission, translation, flash access).
    pub base: SimTime,
    /// Additional cost per 4 KiB block transferred.
    pub per_block: SimTime,
}

/// A flash-shaped latency model.
///
/// Defaults approximate a datacenter NVMe SSD: ~10µs reads, ~20µs writes
/// at 4 KiB, growing linearly with transfer size, plus a ~100µs flush.
#[derive(Debug, Clone, Copy)]
pub struct FlashLatencyModel {
    /// Read command latency.
    pub read: OpLatency,
    /// Write command latency.
    pub write: OpLatency,
    /// Flush command latency.
    pub flush: SimTime,
}

impl Default for FlashLatencyModel {
    fn default() -> Self {
        FlashLatencyModel {
            read: OpLatency {
                base: SimTime::from_micros(8),
                per_block: SimTime::from_micros(2),
            },
            write: OpLatency {
                base: SimTime::from_micros(15),
                per_block: SimTime::from_micros(5),
            },
            flush: SimTime::from_micros(100),
        }
    }
}

impl FlashLatencyModel {
    /// Service time for a read of `blocks` blocks.
    pub(crate) fn read_time(&self, blocks: u64) -> SimTime {
        self.read
            .base
            .saturating_add(self.read.per_block.saturating_mul(blocks))
    }

    /// Service time for a write of `blocks` blocks.
    pub fn write_time(&self, blocks: u64) -> SimTime {
        self.write
            .base
            .saturating_add(self.write.per_block.saturating_mul(blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_time_scales_with_blocks() {
        let m = FlashLatencyModel::default();
        assert_eq!(m.read_time(1), SimTime::from_micros(10));
        assert_eq!(m.read_time(8), SimTime::from_micros(24));
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let m = FlashLatencyModel::default();
        assert!(m.write_time(1) > m.read_time(1));
    }
}

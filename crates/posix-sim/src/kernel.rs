//! The syscall gate and cost meter.

use std::cell::RefCell;
use std::rc::Rc;

use sim_fabric::{SimClock, SimTime};

/// Virtual-time costs of kernel involvement.
///
/// Defaults are calibrated to the paper's own numbers: a syscall crossing
/// in the small-µs range and "copying a 4k page takes 1µs on a 4Ghz CPU"
/// (≈ 0.25 ns per byte → 250 ns per KiB).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost charged per syscall (entry + exit + kernel work).
    pub syscall: SimTime,
    /// Copy cost per KiB moved between user and kernel buffers.
    pub copy_per_kib: SimTime,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            syscall: SimTime::from_nanos(600),
            copy_per_kib: SimTime::from_nanos(250),
        }
    }
}

impl CostModel {
    /// A free kernel — used to isolate copy costs from crossing costs in
    /// ablation experiments.
    pub fn free() -> Self {
        CostModel {
            syscall: SimTime::ZERO,
            copy_per_kib: SimTime::ZERO,
        }
    }

    /// Copy charge for `bytes` bytes.
    fn copy_cost(&self, bytes: usize) -> SimTime {
        // Scale per-KiB cost linearly, rounding up to the nanosecond.
        let ns = (self.copy_per_kib.as_nanos() as u128 * bytes as u128).div_ceil(1024);
        SimTime::from_nanos(ns as u64)
    }
}

/// Exact counters of kernel involvement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Syscalls executed (each is two protection-boundary crossings).
    pub syscalls: u64,
    /// User↔kernel data copies performed.
    pub copies: u64,
    /// Bytes moved by those copies.
    pub bytes_copied: u64,
    /// Total virtual time charged to kernel overheads.
    pub time_charged: SimTime,
}

/// The metered kernel boundary.
///
/// Single-threaded simulation: charging a cost advances the *shared*
/// virtual clock, because the caller's CPU time is the world's time.
#[derive(Clone)]
pub struct SimKernel {
    clock: SimClock,
    cost: CostModel,
    stats: Rc<RefCell<KernelStats>>,
}

impl SimKernel {
    /// Creates a kernel on the shared clock.
    pub fn new(clock: SimClock, cost: CostModel) -> Self {
        SimKernel {
            clock,
            cost,
            stats: Rc::new(RefCell::new(KernelStats::default())),
        }
    }

    /// Charges one syscall crossing.
    pub(crate) fn syscall(&self) {
        let mut stats = self.stats.borrow_mut();
        stats.syscalls += 1;
        stats.time_charged = stats.time_charged.saturating_add(self.cost.syscall);
        self.clock.advance_by(self.cost.syscall);
    }

    /// Performs a metered user↔kernel copy: a *real* `memcpy` plus the
    /// virtual-time charge.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length (caller sizes them).
    pub(crate) fn copy(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "copy endpoints must match");
        dst.copy_from_slice(src);
        self.charge_copy(src.len());
    }

    /// Charges for a copy performed by the caller.
    pub(crate) fn charge_copy(&self, bytes: usize) {
        let cost = self.cost.copy_cost(bytes);
        let mut stats = self.stats.borrow_mut();
        stats.copies += 1;
        stats.bytes_copied += bytes as u64;
        stats.time_charged = stats.time_charged.saturating_add(cost);
        self.clock.advance_by(cost);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> KernelStats {
        *self.stats.borrow()
    }

    /// Resets counters (between experiment phases).
    pub fn reset_stats(&self) {
        *self.stats.borrow_mut() = KernelStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syscall_charges_time_and_counts() {
        let clock = SimClock::new();
        let k = SimKernel::new(clock.clone(), CostModel::default());
        k.syscall();
        k.syscall();
        assert_eq!(k.stats().syscalls, 2);
        assert_eq!(clock.now(), SimTime::from_nanos(1_200));
    }

    #[test]
    fn copy_moves_bytes_and_charges_paper_rate() {
        let clock = SimClock::new();
        let k = SimKernel::new(clock.clone(), CostModel::default());
        let src = vec![7u8; 4096];
        let mut dst = vec![0u8; 4096];
        k.copy(&mut dst, &src);
        assert_eq!(dst, src);
        let s = k.stats();
        assert_eq!(s.copies, 1);
        assert_eq!(s.bytes_copied, 4096);
        // The paper's number: 4 KiB ≈ 1µs.
        assert_eq!(clock.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn free_kernel_charges_nothing() {
        let clock = SimClock::new();
        let k = SimKernel::new(clock.clone(), CostModel::free());
        k.syscall();
        k.charge_copy(1 << 20);
        assert_eq!(clock.now(), SimTime::ZERO);
        assert_eq!(k.stats().syscalls, 1, "still counted");
    }

    #[test]
    fn reset_clears_counters() {
        let clock = SimClock::new();
        let k = SimKernel::new(clock, CostModel::default());
        k.syscall();
        k.reset_stats();
        assert_eq!(k.stats(), KernelStats::default());
    }
}

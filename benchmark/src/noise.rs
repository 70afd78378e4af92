//! The noise guard: how much of a timed window this thread spent on a CPU.
//!
//! A segment whose CPU ÷ wall ratio falls below [`DISTURBED_BELOW`] was
//! preempted (a noisy neighbour took the core); its wall-clock numbers
//! are marked `disturbed` in the ledger rather than silently trusted.

/// Segments with a busy ratio under this are marked disturbed.
pub const DISTURBED_BELOW: f64 = 0.9;

/// Nanoseconds this thread has spent on a CPU, from the first field of
/// `/proc/thread-self/schedstat`. `None` where the file does not exist
/// (non-Linux, or a kernel without schedstats) — callers then omit the
/// ratio; it is never an error.
pub fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU ÷ wall over a window, given the CPU readings at its ends.
pub fn busy_ratio(cpu_start: Option<u64>, cpu_end: Option<u64>, wall_ns: u64) -> Option<f64> {
    match (cpu_start, cpu_end) {
        (Some(a), Some(b)) if wall_ns > 0 => Some(b.saturating_sub(a) as f64 / wall_ns as f64),
        _ => None,
    }
}

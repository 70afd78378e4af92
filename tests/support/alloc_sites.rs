//! Where allocations come from. [`SiteAlloc`] is the counting allocator
//! of `demikernel::testing` plus a per-thread count of live heap bytes
//! ([`live_bytes`]) and, only while [`sites`] runs an operation, a
//! recorder of each allocation's backtrace. An allocation pin written
//! with [`assert_allocs`] that fails runs its operation again under the
//! recorder and prints the in-repo frames of every allocation site — the
//! product crates' and the test's own — so the failure names the line
//! that allocated, not just the count.
//!
//! A test binary opts in with
//! `#[global_allocator] static A: SiteAlloc = SiteAlloc;` (this module's).

use std::alloc::{GlobalAlloc, Layout};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};

use demikernel::testing::{AllocMeter, CountingAlloc};

/// Product crates whose frames name an allocation site; the running test
/// binary's own crate names one too.
const IN_REPO: [&str; 12] = [
    "demikernel::",
    "demi_kv::",
    "demi_memory::",
    "demi_sched::",
    "demi_telemetry::",
    "demi_tenant::",
    "dpdk_sim::",
    "net_stack::",
    "posix_sim::",
    "rdma_sim::",
    "sim_fabric::",
    "spdk_sim::",
];
/// Frames shown per site, innermost first.
const FRAMES: usize = 4;

thread_local! {
    /// Whether this thread records allocation sites. Cleared while a site
    /// is being recorded, so the recorder's own allocations are not.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// This thread's live heap bytes: what it allocated minus what it freed.
/// Only the difference between two readings means anything.
pub fn live_bytes() -> isize {
    LIVE.get()
}

/// Moves this thread's live-byte count by `delta`; a thread's last frees
/// may run after its thread-locals are gone.
fn note_live(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

/// [`CountingAlloc`], recording a backtrace per allocation while asked.
pub struct SiteAlloc;

// SAFETY: every request is forwarded unchanged to `CountingAlloc`; the
// live-byte count and the recording around it read and write this
// thread's locals only, and the recording is guarded against re-entry by
// `RECORDING`.
unsafe impl GlobalAlloc for SiteAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { CountingAlloc.alloc(layout) };
        note_live(layout.size() as isize);
        if RECORDING.try_with(|r| r.replace(false)).unwrap_or(false) {
            let site = in_repo_frames(&Backtrace::force_capture().to_string());
            let _ = SITES.try_with(|sites| sites.borrow_mut().push(site));
            RECORDING.set(true);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as isize));
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { CountingAlloc.dealloc(ptr, layout) }
    }
}

/// The innermost [`FRAMES`] frames of a rendered backtrace that belong to
/// this repository's crates or to the test itself (this recorder's own
/// frames aside), one `function (file:line)` per frame; a trace with none
/// says so.
fn in_repo_frames(trace: &str) -> String {
    // Each test file is its own crate and includes `support` as a module.
    let test = module_path!().split("::").next();
    let mut frames = Vec::new();
    let mut lines = trace.lines().peekable();
    while let Some(line) = lines.next() {
        let Some((_, symbol)) = line.trim_start().split_once(": ") else {
            continue;
        };
        let at = lines
            .next_if(|next| next.trim_start().starts_with("at "))
            .and_then(|next| next.rsplit('/').next().map(str::to_owned));
        let name = symbol.trim_start_matches('<');
        let ours = name.split("::").next() == test && !name.contains("::alloc_sites::");
        if ours || IN_REPO.iter().any(|krate| name.starts_with(krate)) {
            frames.push(match at {
                Some(file) => format!("{symbol} ({file})"),
                None => symbol.to_owned(),
            });
        }
        if frames.len() == FRAMES {
            break;
        }
    }
    if frames.is_empty() {
        return "(no in-repo frame: std, a dependency or the harness)".to_owned();
    }
    frames.join("\n      ← ")
}

/// Runs `op` with allocation recording on; returns each distinct site and
/// how many allocations it made, the busiest first.
pub fn sites(op: impl FnOnce()) -> Vec<(String, usize)> {
    SITES.with(|sites| sites.borrow_mut().clear());
    let meter = AllocMeter::arm();
    RECORDING.set(true);
    op();
    RECORDING.set(false);
    drop(meter);
    let mut counted: Vec<(String, usize)> = Vec::new();
    for site in SITES.with(|sites| std::mem::take(&mut *sites.borrow_mut())) {
        match counted.iter_mut().find(|(s, _)| *s == site) {
            Some((_, n)) => *n += 1,
            None => counted.push((site, 1)),
        }
    }
    counted.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    counted
}

/// Renders [`sites`] as a report, one site per paragraph.
pub fn report(sites: &[(String, usize)]) -> String {
    let lines = sites.iter().map(|(site, n)| format!("  {n} × {site}"));
    lines.collect::<Vec<_>>().join("\n")
}

/// Asserts `op` allocates exactly `expected` times. On a mismatch, runs it
/// once more under [`sites`] and fails with where each allocation came
/// from; `op` must leave the world ready to run it again.
pub fn assert_allocs(expected: u64, what: &str, mut op: impl FnMut()) {
    let meter = AllocMeter::arm();
    op();
    let allocs = meter.count();
    drop(meter);
    if allocs != expected {
        let sites = sites(op);
        panic!(
            "{what}: {allocs} allocations, expected {expected}; a re-run allocated at\n{}",
            report(&sites)
        );
    }
}

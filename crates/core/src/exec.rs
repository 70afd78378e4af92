//! Thread-per-shard execution.
//!
//! The real Demikernel is thread-per-core: each core owns a complete,
//! single-threaded libOS world — scheduler, stack shard, device queue —
//! and cores communicate over lock-free rings, never through shared
//! protocol state. This module is that harness for the reproduction.
//! Everything inside a world stays `Rc`/`RefCell` (`!Send` by design);
//! what crosses a shard-thread boundary is exactly:
//!
//! * [`net_stack::ShardRings`] — bounded SPSC message rings (frame
//!   handoffs, ARP learns), one all-pairs mesh per logical host;
//! * [`net_stack::PortAllocator`] — the host's lock-free TCP port
//!   namespace;
//! * [`crate::metrics::MetricsHub`] — the sink each shard thread absorbs
//!   its thread-local counter snapshots into (read from the spawning
//!   thread, those counters would silently be zero).
//!
//! [`run_shards`] runs the same per-shard closure under either mode:
//! [`ExecMode::SingleThread`] executes the worlds sequentially on the
//! calling thread — fully deterministic, the default for tests — while
//! [`ExecMode::ThreadPerShard`] spawns one OS thread per world behind a
//! start barrier, so device time runs in real time and wall-clock
//! throughput scales with cores. The closure sees an identical
//! [`ShardSpec`] either way; a correct shard world cannot tell the modes
//! apart except by the clock on the wall (the differential proptest in
//! `tests/multicore.rs` holds the byte streams to that).

use std::sync::{Arc, Barrier};

pub use net_stack::HostLinks;
use net_stack::{PortAllocator, ShardRings};

use crate::metrics::MetricsHub;

/// How shard worlds are scheduled onto OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Every shard world runs to completion sequentially on the calling
    /// thread. Deterministic; the default.
    #[default]
    SingleThread,
    /// One OS thread per shard world, started together behind a barrier.
    ThreadPerShard,
}

/// Everything one shard world receives from the harness. All fields are
/// `Send`; the world builds its own `!Send` interior (fabric, runtime,
/// libOSes) from them.
pub struct ShardSpec {
    /// This world's shard number, `0..total`.
    pub index: usize,
    /// Total shard worlds in the run.
    pub total: usize,
    /// Per-logical-host links, in the order the harness declared them
    /// (`hosts` argument of [`run_shards`]): build this world's shard of
    /// host *h* with [`net_stack::NetworkStack::shard_of`].
    pub hosts: Vec<HostLinks>,
    /// The run's metrics sink. Absorb this world's snapshot *on this
    /// world's thread* (where its thread-local counters are live).
    pub hub: Arc<MetricsHub>,
}

/// Runs `shards` shard worlds under `mode` and returns their results in
/// shard order.
///
/// The harness builds `hosts` logical sharded hosts — each a ring mesh
/// over all shards (`ring_capacity` messages per ring) plus a shared
/// port allocator — and hands world `i` endpoint `i` of every mesh via
/// its [`ShardSpec`]. In [`ExecMode::ThreadPerShard`] each world runs on
/// its own named OS thread (`shard-i`), released together by a barrier
/// so wall-clock comparisons measure overlap, not spawn skew. In both
/// modes, each world's per-thread stage telemetry is flushed into the
/// merged sink ([`demi_telemetry::stage::merged_snapshot`]) when the
/// world's closure returns.
///
/// # Panics
///
/// Propagates a panic from any shard world (after joining the rest).
pub fn run_shards<R, F>(
    mode: ExecMode,
    shards: usize,
    hosts: usize,
    ring_capacity: usize,
    f: F,
) -> Vec<R>
where
    F: Fn(ShardSpec) -> R + Send + Sync,
    R: Send,
{
    assert!(shards > 0, "need at least one shard world");
    let hub = Arc::new(MetricsHub::new());
    // One mesh + allocator per logical host; mesh index h endpoint i
    // belongs to world i.
    let mut meshes: Vec<Vec<ShardRings>> = (0..hosts)
        .map(|_| net_stack::mesh(shards, ring_capacity))
        .collect();
    let allocators: Vec<Arc<PortAllocator>> =
        (0..hosts).map(|_| Arc::new(PortAllocator::new())).collect();
    let mut specs: Vec<ShardSpec> = (0..shards)
        .map(|index| {
            let hosts = meshes
                .iter_mut()
                .zip(&allocators)
                .map(|(mesh, ports)| HostLinks {
                    // Endpoints are popped back-to-front across worlds;
                    // taking from the front keeps endpoint i with world i.
                    rings: mesh.remove(0),
                    ports: Arc::clone(ports),
                })
                .collect();
            ShardSpec {
                index,
                total: shards,
                hosts,
                hub: Arc::clone(&hub),
            }
        })
        .collect();
    match mode {
        ExecMode::SingleThread => specs
            .drain(..)
            .map(|spec| {
                let r = f(spec);
                demi_telemetry::stage::flush_current_thread();
                r
            })
            .collect(),
        ExecMode::ThreadPerShard => {
            let barrier = Barrier::new(shards);
            let f = &f;
            let barrier = &barrier;
            std::thread::scope(|scope| {
                let handles: Vec<_> = specs
                    .drain(..)
                    .map(|spec| {
                        let name = format!("shard-{}", spec.index);
                        std::thread::Builder::new()
                            .name(name)
                            .spawn_scoped(scope, move || {
                                barrier.wait();
                                let r = f(spec);
                                demi_telemetry::stage::flush_current_thread();
                                r
                            })
                            .expect("spawn shard thread")
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(r) => r,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_runs_in_order() {
        let order = std::sync::Mutex::new(Vec::new());
        let results = run_shards(ExecMode::SingleThread, 3, 1, 16, |spec| {
            order.lock().unwrap().push(spec.index);
            assert_eq!(spec.total, 3);
            assert_eq!(spec.hosts.len(), 1);
            assert_eq!(spec.hosts[0].rings.index(), spec.index);
            spec.index * 10
        });
        assert_eq!(results, vec![0, 10, 20]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn threads_run_every_shard_and_keep_result_order() {
        let ran = AtomicUsize::new(0);
        let results = run_shards(ExecMode::ThreadPerShard, 4, 2, 16, |spec| {
            ran.fetch_add(1, Ordering::SeqCst);
            assert_eq!(spec.hosts.len(), 2);
            assert_eq!(spec.hosts[1].rings.num_shards(), 4);
            spec.index
        });
        assert_eq!(results, vec![0, 1, 2, 3]);
        assert_eq!(ran.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn worlds_share_the_per_host_allocator() {
        let seen: Vec<u16> = run_shards(ExecMode::ThreadPerShard, 4, 1, 16, |spec| {
            spec.hosts[0]
                .ports
                .alloc_ephemeral()
                .expect("range nowhere near exhausted")
        });
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            4,
            "duplicate ephemeral port across worlds: {seen:?}"
        );
    }

    #[test]
    fn rings_connect_worlds_across_threads() {
        use net_stack::ShardMsg;
        let frames: Vec<usize> = run_shards(ExecMode::ThreadPerShard, 2, 1, 64, |spec| {
            let mut rings = spec.hosts.into_iter().next().unwrap().rings;
            let peer = 1 - spec.index;
            while !rings.send(peer, ShardMsg::Frame(vec![spec.index as u8; 4])) {
                std::thread::yield_now();
            }
            // Drain until the peer's message shows up.
            let mut got = 0;
            while got == 0 {
                got += rings.drain(|msg| {
                    assert_eq!(msg, ShardMsg::Frame(vec![peer as u8; 4]));
                });
                std::thread::yield_now();
            }
            got
        });
        assert_eq!(frames, vec![1, 1]);
    }
}

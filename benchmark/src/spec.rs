//! The benchmark's contract: every workload and metric by name, with its
//! unit, direction and regression bound. `BENCHMARK.json` at the root of
//! the repository is [`benchmark_json`] written to a file (the self-test
//! fails if the two drift apart).

use crate::json::Json;
use crate::workloads::WORKLOADS;
use Better::{Higher, Lower};
use Source::{LayerCount, Reconcile, Rig, Span, WholePath};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a metric's number comes from; the ledger file keeps the
/// sources (and wall-clock apart from virtual time) in separate fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Wall-clock measurement of the implementation, untraced run.
    WallClock,
    /// Virtual-time output of the simulators' model.
    VirtualTime,
    /// Exact count, untraced run.
    Count,
    /// Self time of the harness's spans, traced run.
    Span,
    /// A layer's own counter over the timed window.
    LayerCount,
    /// Whole-path fact from the traced run's untraced twin segments.
    WholePath,
    /// A layer rig.
    Rig,
    /// The rig-sum against the measured time per op.
    Reconcile,
}

impl Source {
    /// The ledger file's field for this source.
    pub fn field(self) -> &'static str {
        match self {
            Source::WallClock => "wall_clock",
            Source::VirtualTime => "virtual_time",
            Source::Count => "counts",
            Source::Span => "spans",
            Source::LayerCount => "layer_counts",
            Source::WholePath => "whole_path",
            Source::Rig => "rigs",
            Source::Reconcile => "reconcile",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, final: later issues cite it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is a regression (end-to-end metrics only; 0 otherwise).
    pub bound: f64,
    /// Where the number comes from.
    pub source: Source,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        source,
    }
}

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 30;

/// Virtual-time nanoseconds get their own unit: they are outputs of the
/// simulators' *model*, exact for a seed, and must never be read (or
/// averaged, or compared) as wall-clock time.
pub const VIRTUAL_NS: &str = "ns_virt";

/// The end-to-end metrics, reported per workload with tracing off. "op" is
/// one command or one echo round trip.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("ops_per_s", "ops/s", Higher, 0.10, Source::WallClock),
    e2e("rtt_wall_p50_ns", "ns", Lower, 0.10, Source::WallClock),
    e2e(
        "rtt_virt_p50_ns",
        VIRTUAL_NS,
        Lower,
        0.02,
        Source::VirtualTime,
    ),
    e2e(
        "rtt_virt_p99_ns",
        VIRTUAL_NS,
        Lower,
        0.02,
        Source::VirtualTime,
    ),
    e2e("allocs_per_op", "count", Lower, 0.01, Source::Count),
    e2e("frames_per_op", "count", Lower, 0.01, Source::Count),
    e2e("heap_peak_bytes", "bytes", Lower, 0.05, Source::Count),
    e2e("setup_s", "s", Lower, 0.25, Source::WallClock),
];

const fn layer(
    source: Source,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        source,
    }
}

/// The per-layer metrics, reported per workload by the traced run. A
/// ratio or per-op count of a layer the workload does not exercise reads
/// 0 (for example every `demi-kv.*` row on `udp_echo_64`).
pub const PER_LAYER: [MetricDef; 73] = [
    // Traced run: self time per op of the spans around the harness's calls.
    layer(Span, "core.api.push_ns", "ns", Lower),
    layer(Span, "core.api.pop_ns", "ns", Lower),
    layer(Span, "core.runtime.wait_self_ns", "ns", Lower),
    layer(Span, "demi-kv.server.feed_ns", "ns", Lower),
    layer(Span, "demi-kv.server.drain_ns", "ns", Lower),
    layer(Span, "core.catfs.commit_wall_ns", "ns", Lower),
    layer(Span, "harness.client_ns", "ns", Lower),
    layer(Span, "harness.trace_overhead_pct", "%", Lower),
    layer(Span, "demi-telemetry.enabled_overhead_pct", "%", Lower),
    // Counts, exact; per op unless a ratio.
    layer(LayerCount, "core.runtime.wait_passes", "count", Lower),
    layer(LayerCount, "core.runtime.wait_polls", "count", Lower),
    layer(LayerCount, "core.runtime.completion_checks", "count", Lower),
    layer(LayerCount, "demi-sched.polls", "count", Lower),
    layer(LayerCount, "demi-sched.wakeups", "count", Lower),
    layer(LayerCount, "demi-sched.useful_poll_ratio", "ratio", Higher),
    layer(LayerCount, "demi-memory.buffer_allocs", "count", Lower),
    layer(LayerCount, "demi-memory.copies", "count", Lower),
    layer(LayerCount, "net-stack.tcp.segments", "count", Lower),
    layer(LayerCount, "net-stack.tcp.acks", "count", Lower),
    layer(LayerCount, "net-stack.tcp.acks_coalesced", "count", Higher),
    layer(LayerCount, "net-stack.tcp.retransmits", "count", Lower),
    layer(LayerCount, "net-stack.tcp.ooo_segments", "count", Lower),
    layer(
        LayerCount,
        "net-stack.tcp.demux_cache_hit_ratio",
        "ratio",
        Higher,
    ),
    layer(LayerCount, "net-stack.stack.rx_frames", "count", Lower),
    layer(LayerCount, "net-stack.stack.tx_frames", "count", Lower),
    layer(LayerCount, "net-stack.stack.drops", "count", Lower),
    layer(
        LayerCount,
        "net-stack.stack.rx_budget_exhausted",
        "count",
        Lower,
    ),
    layer(LayerCount, "dpdk-sim.tx_bursts", "count", Lower),
    layer(LayerCount, "dpdk-sim.frames_per_burst", "ratio", Higher),
    layer(LayerCount, "dpdk-sim.rx_ring_drops", "count", Lower),
    layer(LayerCount, "sim-fabric.frames_dropped", "count", Lower),
    layer(LayerCount, "sim-fabric.goodput_ratio", "ratio", Higher),
    layer(
        LayerCount,
        "demi-kv.resp.zero_copy_arg_ratio",
        "ratio",
        Higher,
    ),
    layer(
        LayerCount,
        "demi-kv.reply.prepend_hit_ratio",
        "ratio",
        Higher,
    ),
    layer(LayerCount, "demi-kv.server.cmds_per_drain", "ratio", Higher),
    layer(LayerCount, "demi-kv.server.protocol_errors", "count", Lower),
    layer(LayerCount, "demi-kv.log.batches", "count", Lower),
    layer(LayerCount, "spdk-sim.blocks_written", "count", Lower),
    layer(LayerCount, "spdk-sim.queue_full_rejections", "count", Lower),
    layer(LayerCount, "spdk-sim.commit_virt_ns", VIRTUAL_NS, Lower),
    // Whole-path facts that can legitimately be 0, so they cannot carry a
    // bound as end-to-end metrics; the untraced twin segments supply them.
    layer(WholePath, "bytes_copied_per_op", "bytes", Lower),
    layer(WholePath, "heap_growth_bytes_per_op", "bytes", Lower),
    layer(WholePath, "error_rate", "ratio", Lower),
    layer(WholePath, "harness.cpu_busy_ratio", "ratio", Higher),
    layer(WholePath, "harness.rtt_wall_p99_ns", "ns", Lower),
    // Layer rigs: each layer alone, best-of-20 ns per unit.
    layer(Rig, "sim-fabric.deliver_ns", "ns", Lower),
    layer(Rig, "dpdk-sim.burst_ns", "ns", Lower),
    layer(Rig, "dpdk-sim.burst16_ns", "ns", Lower),
    layer(Rig, "demi-memory.alloc_ns", "ns", Lower),
    layer(Rig, "demi-memory.prepend_ns", "ns", Lower),
    layer(Rig, "demi-memory.slice_ns", "ns", Lower),
    layer(Rig, "net-stack.wire.tx_headers_ns", "ns", Lower),
    layer(Rig, "net-stack.wire.tx_headers_mss_ns", "ns", Lower),
    layer(Rig, "net-stack.wire.rx_parse_ns", "ns", Lower),
    layer(Rig, "net-stack.wire.rx_parse_mss_ns", "ns", Lower),
    layer(Rig, "net-stack.wire.checksum_ns_per_kib", "ns", Lower),
    layer(Rig, "net-stack.tcp.segment_ns", "ns", Lower),
    layer(Rig, "net-stack.stack.udp_rt_ns", "ns", Lower),
    layer(Rig, "net-stack.stack.tcp_rt_ns", "ns", Lower),
    layer(Rig, "demi-sched.wake_poll_ns", "ns", Lower),
    layer(Rig, "core.runtime.qtoken_ns", "ns", Lower),
    layer(Rig, "core.runtime.idle_pass_ns", "ns", Lower),
    layer(Rig, "core.catmem.push_pop_ns", "ns", Lower),
    layer(Rig, "demi-kv.resp.parse_ns", "ns", Lower),
    layer(Rig, "demi-kv.resp.parse_set1k_ns", "ns", Lower),
    layer(Rig, "demi-kv.store.get_ns", "ns", Lower),
    layer(Rig, "demi-kv.store.set_ns", "ns", Lower),
    layer(Rig, "demi-kv.reply.bulk_ns", "ns", Lower),
    layer(Rig, "demi-kv.log.encode_ns", "ns", Lower),
    layer(Rig, "core.catfs.commit_ns", "ns", Lower),
    layer(Rig, "demi-telemetry.record_ns", "ns", Lower),
    // Rigs × units per op against the measured wall time per op.
    layer(Reconcile, "reconcile.explained_ratio", "ratio", Higher),
    layer(Reconcile, "reconcile.unexplained_ns_per_op", "ns", Lower),
];

/// The definition of end-to-end metric `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Why each workload exists (one line each, for `BENCHMARK.json`).
pub fn why(workload: &str) -> &'static str {
    match workload {
        "udp_echo_64" => {
            "64 B UDP echo: bare datapath at the smallest packet, no TCP and no application, \
             so per-call and per-frame fixed cost is undiluted; a TCP or demi-kv change must not move it"
        }
        "kv_get_d1" => {
            "RESP GET at pipeline depth 1, 64 B values: API crossing, qtoken, scheduler wake-to-poll \
             and per-segment TCP cost dominate; where a batched-submit or TCP fast-path win must show"
        }
        "kv_get_d16_1k" => {
            "16 pipelined GETs of 1 KiB values: per-call cost is amortised 16x, so RESP parse, store, \
             reply writer and TX segmentation/checksum do the work; an API-crossing win should be ~0 here"
        }
        "kv_set_d16_1k_durable" => {
            "16 pipelined durable SETs of 1 KiB: inbound bursts straddle segments (reassembly path), \
             group commit through catfs onto spdk-sim, crash-replay checked; the write path's price"
        }
        _ => "",
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .into_iter()
    .map(Json::from)
    .collect();
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .map(|w| Json::obj().with("name", w.name).with("why", why(w.name)))
        .collect();
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Json> = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
        })
        .collect();
    Json::obj()
        .with("command", command)
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

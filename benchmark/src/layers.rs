//! The traced run: per-layer numbers for one workload.
//!
//! Three sources, kept apart in the ledger file:
//!
//! 1. *Spans* — the workload re-run with the harness recording a span
//!    around every call it makes; self time per op. The recorder is on in
//!    every other 30 ms slice, and the difference between adjacent slices
//!    is the tracing overhead. Untraced twin segments run in between for
//!    the whole-path facts.
//! 2. *Counts* — the layers' own counters over the timed window, read
//!    through public getters; exact, and the same traced or not.
//! 3. *Rigs* — each layer alone ([`crate::rigs`]).
//!
//! Finally the reconciliation: rig ns × that layer's units per op, summed,
//! against the measured wall time per op. An unexplained gap is a finding
//! to write down, not a failure.

use std::rc::Rc;

use crate::json::Json;
use crate::measure::{repeat_within, Plan, Tally};
use crate::rigs::Rigs;
use crate::spec::PER_LAYER;
use crate::stats::median;
use crate::trace::{SpanName, Tracer};
use crate::workloads::{find, run_segment, Kind, Segment, SegmentOptions, Workload};

/// About this many spans (whole bursts) go into the Chrome trace file.
const TRACE_FILE_SPANS: usize = 2_000;

/// `num / den`, or 0 when the layer was not exercised.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `kv_get_d1` with `demikernel::telemetry::enable` on vs off, as a
/// percentage of throughput lost (ROADMAP budget: ≤3 %). Telemetry is
/// switched every slice (see [`SegmentOptions`]); each segment yields the
/// median over its 32 adjacent on/off pairs, and the median over the
/// segments that fit `plan.seconds` is reported.
pub fn telemetry_overhead_pct(seed: u64, plan: Plan, tally: &mut Tally) -> f64 {
    let w = find("kv_get_d1").expect("kv_get_d1 is a ledger workload");
    let bursts = (plan.bursts(w) / 2).max(1);
    let opts = SegmentOptions {
        telemetry: true,
        ..SegmentOptions::default()
    };
    let mut overheads = Vec::new();
    repeat_within(plan.seconds, 1, || {
        let seg = run_segment(w, seed, bursts, &opts);
        tally.absorb(&seg);
        overheads.push(seg.instrument_overhead_pct.unwrap_or(0.0));
        true
    });
    median(&overheads)
}

/// What the traced run of one workload produced.
#[derive(Debug, Clone)]
pub struct Layered {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Chrome-trace JSON of the first bursts of the last traced segment.
    pub chrome_trace: Json,
    /// Explained nanoseconds per op, by layer (the reconciliation's rows).
    pub explained: Vec<(&'static str, f64)>,
    /// Measured wall nanoseconds per op, untraced (best slice).
    pub actual_ns_per_op: f64,
    /// Wall nanoseconds per op of the traced slices the span self times
    /// come from: what those self times add up to.
    pub traced_ns_per_op: f64,
}

/// Runs `w` traced and untraced in alternation for about `plan.seconds`,
/// and assembles every per-layer metric from the spans, the counters,
/// `rigs`, and the already measured `telemetry_pct`. `known_ops_per_s` is
/// the untraced throughput when a longer measurement already took it (the
/// ledger's end-to-end run); the reconciliation then uses the better of
/// that and this run's own untraced twins.
pub fn trace_workload(
    w: &Workload,
    seed: u64,
    plan: Plan,
    rigs: &Rigs,
    telemetry_pct: f64,
    known_ops_per_s: Option<f64>,
    tally: &mut Tally,
) -> Layered {
    let bursts = (plan.bursts(w) / 2).max(1);
    let spans_per_burst = if w.depth == 1 { 12 } else { 160 };
    let mut traced: Vec<Segment> = Vec::new();
    let mut plain: Vec<Segment> = Vec::new();
    let mut chrome_trace = Json::obj();
    // One round = a traced segment and its untraced twin.
    repeat_within(plan.seconds, 1, || {
        for with_tracer in [true, false] {
            let tracer = with_tracer.then(|| {
                Rc::new(Tracer::with_capacity(
                    (bursts + bursts / 8) * spans_per_burst,
                ))
            });
            let seg = run_segment(
                w,
                seed,
                bursts,
                &SegmentOptions {
                    tracer: tracer.clone(),
                    ..SegmentOptions::default()
                },
            );
            tally.absorb(&seg);
            match tracer {
                Some(tracer) => {
                    chrome_trace = tracer.chrome_trace(w.name, TRACE_FILE_SPANS);
                    traced.push(seg);
                }
                None => plain.push(seg),
            }
        }
        true
    });

    let med = |segs: &[Segment], f: &dyn Fn(&Segment) -> f64| {
        median(&segs.iter().map(f).collect::<Vec<f64>>())
    };
    let ops_of = |s: &Segment| s.ops.max(1) as f64;
    // Spans: the least disturbed traced segment's, for the same reason;
    // per op of the slices the recorder was on for.
    let calm = traced
        .iter()
        .max_by(|a, b| a.ops_per_s().total_cmp(&b.ops_per_s()))
        .expect("at least one traced segment");
    let span_ns = |name: SpanName| {
        calm.span_self_ns.map_or(0.0, |t| t[name as usize] as f64)
            / calm.instrumented_ops.max(1) as f64
    };
    // Wall clock: best slice, as everywhere (see `measure`).
    let plain_ops_per_s = plain
        .iter()
        .map(Segment::best_ops_per_s)
        .fold(known_ops_per_s.unwrap_or(0.0), f64::max);
    let actual_ns_per_op = 1e9 / plain_ops_per_s;
    let client_ns = span_ns(SpanName::ClientBuild) + span_ns(SpanName::ClientVerify);

    // Counts are exact and identical in every segment; read the first.
    let seg = &traced[0];
    let c = &seg.counts;
    let ops = seg.ops.max(1);
    let per_op = |n: u64| n as f64 / ops as f64;

    // ---- Reconciliation: rig ns × units per op.
    let frames = per_op(c.fabric_frames);
    let qtokens = per_op(c.api_pushes + c.api_pops);
    let extra_polls = (per_op(c.sched_polls) - qtokens).max(0.0);
    let payload_kib = seg.payload_bytes as f64 / ops as f64 / 1024.0;
    let stack_ns = match w.kind {
        Kind::UdpEcho => rigs.get("net-stack.stack.udp_rt_ns") / 2.0 * frames,
        // The TCP stack rig carries 64 B payloads; the checksum over the
        // workload's real payload (summed on TX, verified on RX) is added
        // per KiB.
        Kind::KvGet | Kind::KvSet => {
            rigs.get("net-stack.stack.tcp_rt_ns") / rigs.tcp_rt_frames * frames
                + 2.0 * rigs.get("net-stack.wire.checksum_ns_per_kib") * payload_kib
        }
    };
    let kv_ns = match w.kind {
        Kind::UdpEcho => 0.0,
        Kind::KvGet => {
            rigs.get("demi-kv.resp.parse_ns")
                + rigs.get("demi-kv.store.get_ns")
                + rigs.get("demi-kv.reply.bulk_ns")
        }
        Kind::KvSet => {
            rigs.get("demi-kv.resp.parse_set1k_ns")
                + rigs.get("demi-kv.store.set_ns")
                + rigs.get("demi-kv.log.encode_ns")
        }
    };
    let explained = vec![
        ("sim-fabric", rigs.get("sim-fabric.deliver_ns") * frames),
        ("dpdk-sim", rigs.get("dpdk-sim.burst_ns") * frames),
        ("net-stack", stack_ns),
        (
            "core.runtime+demi-sched",
            rigs.get("core.runtime.qtoken_ns") * qtokens
                + rigs.get("demi-sched.wake_poll_ns") * extra_polls
                + rigs.get("core.runtime.idle_pass_ns") * per_op(c.wait_passes),
        ),
        ("demi-kv", kv_ns),
        (
            // The commit rig's own qtoken is already in the row above.
            "core.catfs+spdk-sim",
            (rigs.get("core.catfs.commit_ns") - rigs.get("core.runtime.qtoken_ns"))
                * per_op(c.log_batches),
        ),
        ("harness.client", client_ns),
    ];
    let explained_ns: f64 = explained.iter().map(|(_, ns)| ns).sum();

    let cpu_busy = {
        let ratios: Vec<f64> = plain.iter().filter_map(|s| s.cpu_busy_ratio).collect();
        // -1: the kernel does not report per-thread CPU time here.
        if ratios.is_empty() {
            -1.0
        } else {
            median(&ratios)
        }
    };
    let attempted: u64 = plain.iter().map(|s| s.attempted).sum();
    let failed: u64 = plain.iter().map(|s| s.failed).sum();

    let value = |name: &str| -> f64 {
        match name {
            "core.api.push_ns" => span_ns(SpanName::ApiPush),
            "core.api.pop_ns" => span_ns(SpanName::ApiPop),
            "core.runtime.wait_self_ns" => span_ns(SpanName::RuntimeWait),
            "demi-kv.server.feed_ns" => span_ns(SpanName::KvFeed),
            "demi-kv.server.drain_ns" => span_ns(SpanName::KvDrain),
            "core.catfs.commit_wall_ns" => plain
                .iter()
                .map(|s| s.commit_wall_ns as f64 / ops_of(s))
                .fold(f64::INFINITY, f64::min),
            "harness.client_ns" => client_ns,
            "harness.trace_overhead_pct" => {
                med(&traced, &|s| s.instrument_overhead_pct.unwrap_or(0.0))
            }
            "demi-telemetry.enabled_overhead_pct" => telemetry_pct,
            "core.runtime.wait_passes" => per_op(c.wait_passes),
            "core.runtime.wait_polls" => per_op(c.wait_polls),
            "core.runtime.completion_checks" => per_op(c.completion_checks),
            "demi-sched.polls" => per_op(c.sched_polls),
            "demi-sched.wakeups" => per_op(c.sched_wakeups),
            "demi-sched.useful_poll_ratio" => ratio(
                c.sched_polls - c.sched_spurious.min(c.sched_polls),
                c.sched_polls,
            ),
            "demi-memory.buffer_allocs" => per_op(c.buffer_allocs),
            "demi-memory.copies" => per_op(c.buffer_copies),
            "net-stack.tcp.segments" => per_op(c.tcp_segments),
            "net-stack.tcp.acks" => per_op(c.tcp_acks),
            "net-stack.tcp.acks_coalesced" => per_op(c.tcp_acks_coalesced),
            "net-stack.tcp.retransmits" => per_op(c.tcp_retransmits),
            "net-stack.tcp.ooo_segments" => per_op(c.tcp_ooo),
            "net-stack.tcp.demux_cache_hit_ratio" => ratio(c.demux_cache_hits, c.demux_lookups),
            "net-stack.stack.rx_frames" => per_op(c.rx_frames),
            "net-stack.stack.tx_frames" => per_op(c.tx_frames),
            "net-stack.stack.drops" => per_op(c.stack_drops),
            "net-stack.stack.rx_budget_exhausted" => per_op(c.rx_budget_exhausted),
            "dpdk-sim.tx_bursts" => per_op(c.tx_bursts),
            "dpdk-sim.frames_per_burst" => ratio(c.port_tx_frames, c.tx_bursts),
            "dpdk-sim.rx_ring_drops" => per_op(c.rx_ring_drops),
            "sim-fabric.frames_dropped" => per_op(c.fabric_dropped),
            "sim-fabric.goodput_ratio" => ratio(seg.payload_bytes, c.fabric_bytes),
            "demi-kv.resp.zero_copy_arg_ratio" => {
                ratio(c.zero_copy_args, c.zero_copy_args + c.reassembled_args)
            }
            "demi-kv.reply.prepend_hit_ratio" => {
                ratio(c.prepend_hits, c.prepend_hits + c.prepend_fallbacks)
            }
            "demi-kv.server.cmds_per_drain" => ratio(c.kv_commands, c.kv_drains),
            "demi-kv.server.protocol_errors" => per_op(c.protocol_errors),
            "demi-kv.log.batches" => per_op(c.log_batches),
            "spdk-sim.blocks_written" => per_op(c.blocks_written),
            "spdk-sim.queue_full_rejections" => per_op(c.queue_full),
            "spdk-sim.commit_virt_ns" => per_op(seg.commit_virt_ns),
            "bytes_copied_per_op" => per_op(c.bytes_copied),
            "heap_growth_bytes_per_op" => med(&plain, &|s| s.heap_growth as f64 / ops_of(s)),
            "error_rate" => ratio(failed, attempted),
            "harness.cpu_busy_ratio" => cpu_busy,
            "harness.rtt_wall_p99_ns" => plain
                .iter()
                .map(|s| s.rtt_wall_ns.p99 as f64)
                .fold(f64::INFINITY, f64::min),
            "reconcile.explained_ratio" => explained_ns / actual_ns_per_op,
            "reconcile.unexplained_ns_per_op" => actual_ns_per_op - explained_ns,
            rig => rigs.get(rig),
        }
    };
    let metrics = PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect();
    Layered {
        metrics,
        chrome_trace,
        explained,
        actual_ns_per_op,
        traced_ns_per_op: calm.instrumented_wall_s * 1e9 / calm.instrumented_ops.max(1) as f64,
    }
}

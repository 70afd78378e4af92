//! The `run` subcommand: all four workloads, untraced then traced, plus
//! the rigs, written as one ledger entry (`BENCH_<seed>.json`) and four
//! Chrome trace files.
//!
//! The file keeps its sources apart: per workload, `wall_clock` (the
//! implementation), `virtual_time` (the simulators' model) and `counts`
//! never share a field; under `per_layer` the spans, the layers' own
//! counts, the whole-path facts and the reconciliation are separate
//! objects; the rigs, which do not depend on the workload, are at the top.

use std::path::Path;
use std::time::Duration;

use crate::json::Json;
use crate::layers::{telemetry_overhead_pct, trace_workload, Layered};
use crate::measure::{measure, EndToEnd, Plan, Reading, Tally};
use crate::rigs::{self, Rigs};
use crate::spec::{self, Source, END_TO_END, PER_LAYER};
use crate::workloads::{Workload, WORKLOADS};

/// Format tag of the ledger files this version writes and `diff` reads.
pub const SCHEMA: &str = "demi-ledger/1";

/// How a traced run's time budget is split: rigs, telemetry on/off,
/// traced/untraced twins.
const RIG_SHARE: f64 = 0.40;
const TELEMETRY_SHARE: f64 = 0.20;
const TRACE_SHARE: f64 = 0.40;

/// The rigs and the telemetry comparison do not depend on the workload;
/// the ledger measures them once, a single traced driver run once each.
pub struct Shared {
    /// Layer rig results.
    pub rigs: Rigs,
    /// `demi-telemetry.enabled_overhead_pct`.
    pub telemetry_pct: f64,
}

/// Measures the workload-independent per-layer numbers within the rig
/// and telemetry shares of `plan.seconds`.
pub fn shared(seed: u64, plan: Plan, tally: &mut Tally) -> Shared {
    let rigs = rigs::run(Duration::from_secs_f64(plan.seconds * RIG_SHARE));
    let telemetry_pct = telemetry_overhead_pct(
        seed,
        Plan {
            seconds: plan.seconds * TELEMETRY_SHARE,
            ..plan
        },
        tally,
    );
    Shared {
        rigs,
        telemetry_pct,
    }
}

/// The traced run of `w` within the trace share of `plan.seconds`.
pub fn traced(
    w: &Workload,
    seed: u64,
    plan: Plan,
    shared: &Shared,
    known_ops_per_s: Option<f64>,
    tally: &mut Tally,
) -> Layered {
    trace_workload(
        w,
        seed,
        Plan {
            seconds: plan.seconds * TRACE_SHARE,
            ..plan
        },
        &shared.rigs,
        shared.telemetry_pct,
        known_ops_per_s,
        tally,
    )
}

/// Prints one `name value unit` line.
pub fn print_metric(name: &str, value: f64, unit: &str) {
    println!("  {name:<40} {value:>16.4} {unit}");
}

fn reading_json(r: &Reading, unit: &str) -> Json {
    let s = &r.segments;
    Json::obj()
        .with("unit", unit)
        .with("value", r.value)
        .with("spread", r.spread)
        .with(
            "per_segment",
            Json::obj()
                .with("median", s.median)
                .with("q1", s.q1)
                .with("q3", s.q3)
                .with("min", s.min)
                .with("max", s.max)
                .with("n", s.n),
        )
}

fn end_to_end_json(w: &Workload, plan: Plan, e2e: &EndToEnd) -> Json {
    let mut fields: Vec<(Source, Json)> = [Source::WallClock, Source::VirtualTime, Source::Count]
        .into_iter()
        .map(|s| (s, Json::obj()))
        .collect();
    println!(
        "{} — end to end, {} timed segments",
        w.name,
        e2e.segments.len()
    );
    for (m, r) in e2e.readings() {
        print_metric(m.name, r.value, m.unit);
        if m.source == Source::WallClock {
            let s = &r.segments;
            println!(
                "  {:<40} per segment: median {:.4}  q1 {:.4}  q3 {:.4}  min {:.4}  max {:.4}  n {}",
                "", s.median, s.q1, s.q3, s.min, s.max, s.n
            );
        }
        let field = fields
            .iter_mut()
            .find(|(src, _)| *src == m.source)
            .expect("end-to-end sources are the three above");
        field.1.set(m.name, reading_json(&r, m.unit));
    }
    let segments: Vec<Json> = e2e
        .segments
        .iter()
        .enumerate()
        .map(|(i, seg)| {
            let mut j = Json::obj()
                .with("ops_per_s", seg.ops_per_s())
                .with("best_slice_ops_per_s", seg.best_ops_per_s());
            // Absent where the kernel does not report per-thread CPU time.
            if let Some(r) = seg.cpu_busy_ratio {
                j.set("cpu_busy_ratio", r);
                j.set("disturbed", e2e.disturbed(i));
                if e2e.disturbed(i) {
                    println!(
                        "  warning: segment {i} had the CPU for {:.0} % of its window — disturbed",
                        r * 100.0
                    );
                }
            }
            j
        })
        .collect();
    let mut out = Json::obj().with(
        "shape",
        Json::obj()
            .with("ops_per_burst", w.depth)
            .with("bursts_per_segment", plan.bursts(w))
            .with("payload_bytes", w.value_len)
            .with("durable", w.durable),
    );
    for (source, json) in fields {
        out.set(source.field(), json);
    }
    out.with("segments", segments)
}

fn per_layer_json(w: &Workload, layered: &Layered) -> Json {
    let sources = [
        Source::Span,
        Source::LayerCount,
        Source::WholePath,
        Source::Reconcile,
    ];
    let mut fields: Vec<(Source, Json)> = sources.into_iter().map(|s| (s, Json::obj())).collect();
    println!("{} — per layer (traced run)", w.name);
    for (m, (name, value)) in PER_LAYER.iter().zip(&layered.metrics) {
        debug_assert_eq!(m.name, *name);
        let Some(field) = fields.iter_mut().find(|(src, _)| *src == m.source) else {
            continue; // Rigs are printed and stored once, not per workload.
        };
        print_metric(m.name, *value, m.unit);
        field.1.set(
            m.name,
            Json::obj().with("value", *value).with("unit", m.unit),
        );
    }
    let mut out = Json::obj();
    for (source, mut json) in fields {
        if source == Source::Reconcile {
            let mut by_layer = Json::obj();
            for (layer, ns) in &layered.explained {
                by_layer.set(layer, *ns);
            }
            json.set("explained_ns_per_op_by_layer", by_layer);
            json.set("actual_ns_per_op", layered.actual_ns_per_op);
        }
        if source == Source::Span {
            // The self times are averages over one segment's traced
            // slices; this is the time per op they add up to.
            json.set("traced_ns_per_op", layered.traced_ns_per_op);
        }
        out.set(source.field(), json);
    }
    out
}

/// What the whole ledger run produced.
pub struct Ledger {
    /// The ledger entry.
    pub json: Json,
    /// `(workload, Chrome trace)` pairs.
    pub traces: Vec<(&'static str, Json)>,
    /// Outcome of every operation of every workload.
    pub tally: Tally,
}

/// Runs every workload under `plan` (`plan.seconds` each for the untraced
/// measurement, and again for the traced one), printing every metric by
/// name with its unit as it goes.
pub fn run_all(seed: u64, plan: Plan) -> Ledger {
    let mut tally = Tally::default();
    let mut workloads = Json::obj();
    let mut traces = Vec::new();
    let trace_plan = Plan {
        // The traced side needs far less time than the headline numbers.
        seconds: plan.seconds / 2.0,
        ..plan
    };
    // Measured once for all four workloads, so given a full budget.
    let shared = shared(seed, plan, &mut tally);
    println!(
        "layer rigs (each layer alone, best of {} rounds)",
        rigs::ROUNDS
    );
    let mut rigs_json = Json::obj();
    for m in PER_LAYER.iter().filter(|m| m.source == Source::Rig) {
        let ns = shared.rigs.get(m.name);
        print_metric(m.name, ns, m.unit);
        rigs_json.set(m.name, Json::obj().with("value", ns).with("unit", m.unit));
    }
    for w in &WORKLOADS {
        let e2e = measure(w, seed, plan);
        tally.merge(&e2e.tally);
        let mut entry = end_to_end_json(w, plan, &e2e);
        let ops_per_s = spec::end_to_end("ops_per_s").map(|m| e2e.reading(m).value);
        let layered = traced(w, seed, trace_plan, &shared, ops_per_s, &mut tally);
        entry.set("per_layer", per_layer_json(w, &layered));
        workloads.set(w.name, entry);
        traces.push((w.name, layered.chrome_trace));
    }
    let error_rate = if tally.attempted == 0 {
        0.0
    } else {
        tally.failed as f64 / tally.attempted as f64
    };
    println!(
        "attempted {} operations, {} failed (error_rate {error_rate})",
        tally.attempted, tally.failed
    );
    let host = Json::obj().with(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let json = Json::obj()
        .with("schema", SCHEMA)
        .with("seed", seed)
        .with("mode", if plan.smoke { "smoke" } else { "full" })
        // The ledger's first entry claims no gain; later entries name the
        // workload × metric they claim to move.
        .with("claim", Json::Null)
        .with("host", host)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("error_rate", error_rate)
        .with("rigs", rigs_json)
        .with("workloads", workloads);
    Ledger {
        json,
        traces,
        tally,
    }
}

/// Writes the ledger entry and its trace files into `dir`.
pub fn write(ledger: &Ledger, seed: u64, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("BENCH_{seed}.json")), ledger.json.pretty())?;
    for (workload, trace) in &ledger.traces {
        write_trace(dir, workload, trace)?;
    }
    Ok(())
}

/// Writes one workload's Chrome trace into `dir`.
pub fn write_trace(dir: &Path, workload: &str, trace: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("trace_{workload}.json")),
        trace.compact() + "\n",
    )
}

/// One `workload × end-to-end metric` reading in a ledger file, for
/// `diff`: `(value, spread)`.
pub fn read_reading(ledger: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let def = END_TO_END.iter().find(|m| m.name == metric)?;
    let r = ledger
        .get("workloads")?
        .get(workload)?
        .get(def.source.field())?
        .get(metric)?;
    Some((r.get("value")?.as_f64()?, r.get("spread")?.as_f64()?))
}

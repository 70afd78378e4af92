//! The ledger's self-test: `--smoke` runs of the real binary, checked
//! against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use demi_ledger::json::{self, Json};
use demi_ledger::spec::{self, Source, END_TO_END, PER_LAYER};
use demi_ledger::workloads::{self, WORKLOADS};
use demikernel::libos::{LibOs, SocketKind};
use demikernel::testing::{catnip_pair, host_ip};
use net_stack::types::SocketAddr;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn ledger(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_demi-ledger"))
        .args(args)
        .output()
        .expect("the ledger binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

/// One driver-mode smoke run; returns the result line's metrics as
/// `name → (value, unit)`.
fn smoke(workload: &str, seed: u64, trace: u8) -> BTreeMap<String, (f64, String)> {
    let (ok, stdout) = ledger(&[
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "0.3",
        "--trace",
        &trace.to_string(),
        "--smoke",
    ]);
    assert!(ok, "{workload} trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is one JSON object");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let mut seen = BTreeMap::new();
    for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap() {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} has no finite value"));
        assert!(value.is_finite(), "{name} = {value}");
        let unit = m.get("unit").and_then(Json::as_str).unwrap().to_string();
        let dup = seen.insert(name.clone(), (value, unit));
        assert!(dup.is_none(), "{name} emitted twice");
    }
    seen
}

fn names_and_units(spec: &Json, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_is_what_the_code_declares_and_within_the_contract() {
    let file = benchmark_json();
    assert_eq!(
        file,
        spec::benchmark_json(),
        "regenerate with `demi-ledger spec`"
    );

    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = Vec::new();
    for w in &WORKLOADS {
        let why = spec::why(w.name);
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{}",
            w.name
        );
        names.push(w.name);
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(unit_ok(m.unit), "{}: unit {:?}", m.name, m.unit);
        names.push(m.name);
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for n in &names {
        assert!(name_ok(n), "{n:?}");
    }
    let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used once");
    let setup = spec::end_to_end("setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!((1..=60).contains(&spec::RUN_SECONDS));
    assert!(file.pretty().len() <= 64 * 1024);
}

#[test]
fn every_metric_of_every_workload_is_emitted_once_with_its_unit() {
    let spec = benchmark_json();
    let e2e = names_and_units(&spec, "end_to_end");
    let layers = names_and_units(&spec, "per_layer");
    for w in spec.get("workloads").and_then(Json::as_arr).unwrap() {
        let w = w.get("name").and_then(Json::as_str).unwrap();
        for (trace, want) in [(0, &e2e), (1, &layers)] {
            let got: BTreeMap<String, String> = smoke(w, 7, trace)
                .into_iter()
                .map(|(name, (_, unit))| (name, unit))
                .collect();
            assert_eq!(&got, want, "{w} --trace {trace}");
        }
    }
}

#[test]
fn one_seed_gives_identical_counts_and_virtual_time() {
    for w in &WORKLOADS {
        let (a, b) = (smoke(w.name, 42, 0), smoke(w.name, 42, 0));
        for m in END_TO_END
            .iter()
            .filter(|m| matches!(m.source, Source::Count | Source::VirtualTime))
        {
            assert_eq!(a[m.name], b[m.name], "{} {}", w.name, m.name);
        }
        let (a, b) = (smoke(w.name, 42, 1), smoke(w.name, 42, 1));
        for m in PER_LAYER.iter().filter(|m| m.source == Source::LayerCount) {
            assert_eq!(a[m.name], b[m.name], "{} {}", w.name, m.name);
        }
    }
}

#[test]
fn another_seed_changes_the_inputs_but_not_the_frames_per_echo() {
    let udp = workloads::find("udp_echo_64").unwrap();
    let kv = workloads::find("kv_get_d1").unwrap();
    assert_ne!(workloads::first_key(kv, 1), workloads::first_key(kv, 2));
    assert_ne!(workloads::first_key(udp, 1), workloads::first_key(udp, 2));
    assert_eq!(workloads::first_key(kv, 1), workloads::first_key(kv, 1));
    let (a, b) = (smoke(udp.name, 1, 0), smoke(udp.name, 2, 0));
    assert_eq!(a["frames_per_op"], b["frames_per_op"]);
    assert_eq!(
        a["frames_per_op"].0, 2.0,
        "one frame each way, no ARP after warm-up"
    );
}

#[test]
fn layers_a_workload_bypasses_read_zero() {
    let udp = smoke("udp_echo_64", 3, 1);
    assert_eq!(udp["net-stack.tcp.segments"].0, 0.0);
    assert_eq!(udp["demi-kv.server.cmds_per_drain"].0, 0.0);
    assert_eq!(udp["demi-kv.log.batches"].0, 0.0);
    let d1 = smoke("kv_get_d1", 3, 1);
    assert_eq!(d1["demi-kv.server.cmds_per_drain"].0, 1.0);
    assert_eq!(d1["demi-kv.log.batches"].0, 0.0);
    let d16 = smoke("kv_get_d16_1k", 3, 1);
    assert_eq!(d16["demi-kv.server.cmds_per_drain"].0, 16.0);
    assert_eq!(d16["demi-kv.log.batches"].0, 0.0);
    let set = smoke("kv_set_d16_1k_durable", 3, 1);
    assert!(set["demi-kv.log.batches"].0 > 0.0);
    assert!(set["spdk-sim.blocks_written"].0 > 0.0);
    assert!(
        set["demi-kv.resp.zero_copy_arg_ratio"].0 < 1.0,
        "SET bursts straddle segments"
    );
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn two_ledger_entries_of_one_commit_diff_clean_on_every_exact_metric() {
    let (a, b) = (tmp("ledger-a"), tmp("ledger-b"));
    for dir in [&a, &b] {
        let (ok, out) = ledger(&[
            "run",
            "--seed",
            "5",
            "--smoke",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(ok, "{out}");
        for w in &WORKLOADS {
            assert!(dir.join(format!("trace_{}.json", w.name)).exists());
        }
    }
    let entry = |dir: &Path| dir.join("BENCH_5.json");
    let parsed = json::parse(&std::fs::read_to_string(entry(&a)).unwrap()).unwrap();
    assert_eq!(parsed.get("claim"), Some(&Json::Null));
    assert_eq!(parsed.get("error_rate"), Some(&Json::Num(0.0)));
    let (_, table) = ledger(&[
        "diff",
        entry(&a).to_str().unwrap(),
        entry(&b).to_str().unwrap(),
    ]);
    // Smoke-sized wall-clock rows may be noisy; the exact rows may not.
    let mut exact_rows = 0;
    for line in table.lines() {
        let exact = END_TO_END.iter().any(|m| {
            matches!(m.source, Source::Count | Source::VirtualTime)
                && line.split_whitespace().nth(1) == Some(m.name)
        });
        if exact {
            exact_rows += 1;
            assert!(line.ends_with("unchanged"), "{line}");
        }
    }
    assert_eq!(exact_rows, 5 * WORKLOADS.len(), "{table}");
}

/// The finding behind "wait every qtoken": a loop that drops its push
/// tokens leaves one entry per call in the runtime's token table, for
/// ever — and the ledger's live-heap meter (what
/// `heap_growth_bytes_per_op` is computed from) sees it.
#[test]
fn dropped_push_tokens_are_retained_and_the_heap_meter_sees_it() {
    let (rt, _fabric, client, server) = catnip_pair(1);
    let sqd = server.socket(SocketKind::Udp).unwrap();
    server.bind(sqd, SocketAddr::new(host_ip(2), 7)).unwrap();
    let cqd = client.socket(SocketKind::Udp).unwrap();
    client.bind(cqd, SocketAddr::new(host_ip(1), 9000)).unwrap();
    let to = SocketAddr::new(host_ip(2), 7);
    let round = |wait_push: bool| {
        let qt = client.pushto(cqd, &client.sgaalloc(64), to).unwrap();
        if wait_push {
            client.wait(qt, None).unwrap();
        }
        let _ = server.blocking_pop(sqd).unwrap();
    };
    for _ in 0..64 {
        round(true);
    }
    const ROUNDS: usize = 2_000;
    let growth = |wait_push: bool| {
        let before = (rt.outstanding(), demi_ledger::alloc::snapshot().live);
        for _ in 0..ROUNDS {
            round(wait_push);
        }
        (
            rt.outstanding() - before.0,
            demi_ledger::alloc::snapshot().live - before.1,
        )
    };
    let (tokens, bytes) = growth(true);
    assert_eq!(tokens, 0, "waited tokens are consumed");
    assert!(bytes < 16 * 1024, "steady state retains nothing: {bytes} B");
    let (tokens, bytes) = growth(false);
    assert_eq!(tokens, ROUNDS, "one retained entry per dropped token");
    assert!(
        bytes > (ROUNDS * 64) as i64,
        "retention shows up as heap growth: {bytes} B over {ROUNDS} rounds"
    );
}

//! The perf ledger's command line.
//!
//! ```text
//! demi-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//!     One workload, as the acceptance driver runs it: prints every metric
//!     by name with its unit, then one JSON result line.
//! demi-ledger run --seed <n> [--seconds <s>] [--smoke] [--out <dir>]
//!     All four workloads, untraced and traced, plus the rigs; writes
//!     <dir>/BENCH_<n>.json and <dir>/trace_<workload>.json.
//! demi-ledger diff <old.json> <new.json> [--spec <BENCHMARK.json>]
//!     Compares two ledger entries; exits non-zero on any regression.
//! demi-ledger spec
//!     Prints BENCHMARK.json.
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use demi_ledger::json::{self, Json};
use demi_ledger::measure::{measure, Plan, Tally};
use demi_ledger::spec::{benchmark_json, PER_LAYER, RUN_SECONDS};
use demi_ledger::{diff, ledger, workloads};

/// The benchmark's own directory (where `results/` and `out/` live).
fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `--name value` options and bare positionals.
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags_known: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if flags_known.contains(&name) {
                    out.flags.push(name.to_string());
                } else {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.options.push((name.to_string(), value.clone()));
                }
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read {v:?} as a number"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.number(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

fn report_failures(tally: &Tally) {
    for e in &tally.errors {
        eprintln!("FAILED: {e}");
    }
}

/// One workload as the acceptance driver runs it.
fn driver(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = args.required("seed")?;
    let plan = Plan {
        seconds: args.required("seconds")?,
        smoke: args.flag("smoke"),
    };
    let trace: u8 = args.required("trace")?;

    let mut metrics = Json::obj();
    let mut put = |name: &str, value: f64, unit: &str| {
        ledger::print_metric(name, value, unit);
        metrics.set(name, Json::obj().with("value", value).with("unit", unit));
    };
    let tally = match trace {
        0 => {
            let e2e = measure(w, seed, plan);
            println!(
                "{} — end to end, {} timed segments",
                w.name,
                e2e.segments.len()
            );
            for (m, r) in e2e.readings() {
                put(m.name, r.value, m.unit);
            }
            e2e.tally
        }
        1 => {
            let mut tally = Tally::default();
            let shared = ledger::shared(seed, plan, &mut tally);
            let layered = ledger::traced(w, seed, plan, &shared, None, &mut tally);
            println!("{} — per layer (traced run)", w.name);
            for (m, (_, value)) in PER_LAYER.iter().zip(&layered.metrics) {
                put(m.name, *value, m.unit);
            }
            // A checkout may be read-only; the trace file is a courtesy.
            if let Err(e) = ledger::write_trace(&home().join("out"), w.name, &layered.chrome_trace)
            {
                eprintln!("could not write the trace file: {e}");
            }
            tally
        }
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    report_failures(&tally);
    let correct = tally.failed == 0 && tally.attempted > 0;
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("metrics", metrics);
    println!("{}", result.compact());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.required("seed")?;
    let smoke = args.flag("smoke");
    let default_seconds = if smoke { 0.5 } else { RUN_SECONDS as f64 };
    let plan = Plan {
        seconds: args.number("seconds")?.unwrap_or(default_seconds),
        smoke,
    };
    let dir = args
        .get("out")
        .map_or_else(|| home().join("results"), PathBuf::from);
    let ledger = ledger::run_all(seed, plan);
    ledger::write(&ledger, seed, &dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    println!("wrote {}", dir.join(format!("BENCH_{seed}.json")).display());
    report_failures(&ledger.tally);
    Ok(if ledger.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn diff_command(args: &Args) -> Result<ExitCode, String> {
    let [old, new] = args.positional.as_slice() else {
        return Err("diff takes <old.json> <new.json>".into());
    };
    // The bounds live in BENCHMARK.json: here if run from the repository
    // root, else next to the benchmark's directory.
    let spec = match args.get("spec") {
        Some(path) => PathBuf::from(path),
        None if Path::new("BENCHMARK.json").exists() => PathBuf::from("BENCHMARK.json"),
        None => home().join("../BENCHMARK.json"),
    };
    let rows = diff::compare(
        &read_json(&spec)?,
        &read_json(Path::new(old))?,
        &read_json(Path::new(new))?,
    )?;
    Ok(if diff::print(&rows) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "diff" | "spec")) => (c, &argv[1..]),
        _ => ("driver", &argv[..]),
    };
    let outcome = Args::parse(rest, &["smoke"]).and_then(|args| match command {
        "run" => run(&args),
        "diff" => diff_command(&args),
        "spec" => {
            print!("{}", benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => driver(&args),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("demi-ledger: {e}");
        ExitCode::from(2)
    })
}

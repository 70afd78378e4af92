//! The `diff` subcommand: is the new ledger entry worse than the old one?
//!
//! One row per workload × end-to-end metric, with both values, both
//! spreads (as a share of the value: for an exact metric the
//! inter-quartile distance over segments, for a wall-clock one the gap
//! between the run's best and third-best observation) and the bound from
//! `BENCHMARK.json`. A metric whose spread is wider than its bound is
//! reported `unresolved`, never `unchanged`. This is ROADMAP's
//! `bench-diff`; wiring it into the justfile and CI is a later change.

use crate::json::Json;
use crate::ledger::read_reading;

/// What `diff` concluded about one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the old value by more than the bound.
    Regressed,
    /// Better than the old value by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// A spread exceeds the bound: the runs cannot tell.
    Unresolved,
    /// One of the files lacks the row.
    Missing,
}

impl Verdict {
    /// The word printed in the table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// `(value, spread)` in the old file.
    pub old: Option<(f64, f64)>,
    /// `(value, spread)` in the new file.
    pub new: Option<(f64, f64)>,
    /// The metric's bound.
    pub bound: f64,
    /// Share of the old value by which the new one is worse (negative:
    /// better).
    pub worse_by: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

fn judge(old: (f64, f64), new: (f64, f64), higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let change = if old.0 == 0.0 {
        // Only an exact count can sit at 0; any rise from 0 is a rise.
        if new.0 == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(new.0)
        }
    } else {
        (new.0 - old.0) / old.0.abs()
    };
    let worse_by = if higher_is_better { -change } else { change };
    let verdict = if old.1.max(new.1) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, verdict)
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: entry without a string `{key}`"))
}

/// Compares two ledger files under the bounds in `spec`
/// (`BENCHMARK.json`).
pub fn compare(spec: &Json, old: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let list = |key: &str| {
        spec.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
    };
    let mut rows = Vec::new();
    for workload in list("workloads")? {
        let workload = str_field(workload, "name")?;
        for metric in list("end_to_end")? {
            let name = str_field(metric, "name")?;
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: {name} has no bound"))?;
            let higher = str_field(metric, "better")? == "higher";
            let (o, n) = (
                read_reading(old, workload, name),
                read_reading(new, workload, name),
            );
            let (worse_by, verdict) = match (o, n) {
                (Some(o), Some(n)) => judge(o, n, higher, bound),
                _ => (0.0, Verdict::Missing),
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                old: o,
                new: n,
                bound,
                worse_by,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Prints the table; returns how many rows regressed.
pub fn print(rows: &[Row]) -> usize {
    println!(
        "{:<24} {:<18} {:>16} {:>8} {:>16} {:>8} {:>7} {:>9}  verdict",
        "workload", "metric", "old", "spread", "new", "spread", "bound", "worse by"
    );
    let cell = |side: Option<(f64, f64)>| match side {
        Some((value, spread)) => format!("{value:>16.4} {:>7.2}%", spread * 100.0),
        None => format!("{:>16} {:>8}", "-", "-"),
    };
    for r in rows {
        println!(
            "{:<24} {:<18} {} {} {:>6.1}% {:>8.2}%  {}",
            r.workload,
            r.metric,
            cell(r.old),
            cell(r.new),
            r.bound * 100.0,
            r.worse_by * 100.0,
            r.verdict.as_str()
        );
    }
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {regressed} regressed, {unresolved} unresolved",
        rows.len()
    );
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Throughput: higher is better, 10 % bound.
        assert_eq!(
            judge((100.0, 0.01), (85.0, 0.01), true, 0.1).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge((100.0, 0.01), (115.0, 0.01), true, 0.1).1,
            Verdict::Improved
        );
        assert_eq!(
            judge((100.0, 0.01), (95.0, 0.01), true, 0.1).1,
            Verdict::Unchanged
        );
        // Too noisy to tell, even though the medians moved a lot.
        assert_eq!(
            judge((100.0, 0.2), (50.0, 0.01), true, 0.1).1,
            Verdict::Unresolved
        );
        // Latency: lower is better.
        assert_eq!(
            judge((100.0, 0.0), (103.0, 0.0), false, 0.02).1,
            Verdict::Regressed
        );
        // An exact count rising from zero is a regression at any bound.
        assert_eq!(
            judge((0.0, 0.0), (1.0, 0.0), false, 0.01).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge((0.0, 0.0), (0.0, 0.0), false, 0.01).1,
            Verdict::Unchanged
        );
    }
}

//! `--compare A.json B.json`: is B worse than A by more than a metric's
//! bound, on any workload?
//!
//! Counts the program makes (`sim_cycles`, failures) must not get worse at
//! all. Timings may get worse by their bound. Each run also reports, per
//! timing, how far the estimates from its even and from its odd repetitions
//! differ; where that is wider than the bound on either side, the run cannot
//! settle a difference of that size, and the row is printed as unresolved —
//! not as unchanged and not as a regression.

use crate::json::Value;
use crate::metrics::END_TO_END;

/// One workload × metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse by more than the bound.
    Regression,
    /// Worse by more than the bound, but a run's own halves differ by more.
    Unresolved,
}

/// A row of the comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    /// Share of `base` by which `new` is worse; negative when better.
    pub worsening: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

fn number(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_f64)
}

/// Compares two `result.json` documents, workload by workload.
pub fn compare(base: &Value, new: &Value) -> Result<Vec<Row>, String> {
    let workloads = base
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("base: no \"workloads\"")?;
    let mut rows = Vec::new();
    for (workload, base_detail) in workloads {
        let Some(new_detail) = new.get("workloads").and_then(|w| w.get(workload)) else {
            return Err(format!("new: workload {workload} is missing"));
        };
        for spec in &END_TO_END {
            let read = |detail: &Value, field: &str| {
                number(detail, &["metrics", spec.name, field])
                    .ok_or_else(|| format!("{workload}: {} has no {field}", spec.name))
            };
            let (a, b) = (read(base_detail, "value")?, read(new_detail, "value")?);
            let spread = |detail: &Value| {
                number(detail, &["metrics", spec.name, "halves_differ"]).unwrap_or(0.0)
            };
            let spread = spread(base_detail).max(spread(new_detail));
            let worsening = spec.better.worsening(a, b);
            let verdict = if spec.exact {
                if worsening > 0.0 {
                    Verdict::Regression
                } else {
                    Verdict::Ok
                }
            } else if worsening <= spec.bound {
                Verdict::Ok
            } else if spread > spec.bound {
                Verdict::Unresolved
            } else {
                Verdict::Regression
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name,
                base: a,
                new: b,
                worsening,
                spread,
                verdict,
            });
        }
        let failed = |detail: &Value| number(detail, &["failed_share"]).unwrap_or(0.0);
        let (a, b) = (failed(base_detail), failed(new_detail));
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_share",
            base: a,
            new: b,
            worsening: b - a,
            spread: 0.0,
            verdict: if b > a {
                Verdict::Regression
            } else {
                Verdict::Ok
            },
        });
    }
    Ok(rows)
}

/// Prints the table; returns `(regressions, unresolved)`.
pub fn print(rows: &[Row]) -> (usize, usize) {
    println!(
        "{:<18} {:<12} {:>16} {:>16} {:>9} {:>8}  verdict",
        "workload", "metric", "base", "new", "worse by", "spread"
    );
    for row in rows {
        println!(
            "{:<18} {:<12} {:>16.4} {:>16.4} {:>8.2}% {:>7.2}%  {}",
            row.workload,
            row.metric,
            row.base,
            row.new,
            row.worsening * 100.0,
            row.spread * 100.0,
            match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    (count(Verdict::Regression), count(Verdict::Unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn result(ops: f64, ops_spread: f64, cycles: f64, failed_share: f64) -> Value {
        let mut metrics = String::new();
        for spec in &END_TO_END {
            let (value, spread) = match spec.name {
                "ops_per_s" => (ops, ops_spread),
                "sim_cycles" => (cycles, 0.0),
                _ => (10.0, 0.01),
            };
            metrics.push_str(&format!(
                "\"{}\": {{\"value\": {value}, \"halves_differ\": {spread}}},",
                spec.name
            ));
        }
        metrics.pop();
        parse(&format!(
            "{{\"workloads\": {{\"w\": {{\"failed_share\": {failed_share}, \"metrics\": {{{metrics}}}}}}}}}"
        ))
        .unwrap()
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap()
            .verdict
            .clone()
    }

    #[test]
    fn bounds_apply_per_metric_and_counts_are_exact() {
        let base = result(1000.0, 0.02, 500.0, 0.0);
        // 15% slower: inside the 20% bound.
        assert_eq!(
            verdict(
                &compare(&base, &result(850.0, 0.02, 500.0, 0.0)).unwrap(),
                "ops_per_s"
            ),
            Verdict::Ok
        );
        // 30% slower, and the run's halves agree within 2%: a regression.
        let rows = compare(&base, &result(700.0, 0.02, 500.0, 0.0)).unwrap();
        assert_eq!(verdict(&rows, "ops_per_s"), Verdict::Regression);
        // 30% slower, but the run's own halves differ by 35%: unresolved.
        let rows = compare(&base, &result(700.0, 0.35, 500.0, 0.0)).unwrap();
        assert_eq!(verdict(&rows, "ops_per_s"), Verdict::Unresolved);
        // Faster is never a regression.
        assert_eq!(
            verdict(
                &compare(&base, &result(2000.0, 0.5, 500.0, 0.0)).unwrap(),
                "ops_per_s"
            ),
            Verdict::Ok
        );
        // One more cycle is; one fewer is not.
        assert_eq!(
            verdict(
                &compare(&base, &result(1000.0, 0.02, 501.0, 0.0)).unwrap(),
                "sim_cycles"
            ),
            Verdict::Regression
        );
        assert_eq!(
            verdict(
                &compare(&base, &result(1000.0, 0.02, 499.0, 0.0)).unwrap(),
                "sim_cycles"
            ),
            Verdict::Ok
        );
        // Any new failure is.
        assert_eq!(
            verdict(
                &compare(&base, &result(1000.0, 0.02, 500.0, 0.001)).unwrap(),
                "failed_share"
            ),
            Verdict::Regression
        );
    }

    #[test]
    fn a_missing_workload_is_an_error() {
        let base = result(1.0, 0.0, 1.0, 0.0);
        assert!(compare(&base, &parse("{\"workloads\": {}}").unwrap()).is_err());
    }
}

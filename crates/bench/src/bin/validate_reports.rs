//! Validates every `BENCH_*.json` in the working directory (or the
//! directories given as arguments) against the shared report schema, every
//! `TRACE_*.json` as well-formed Chrome trace JSON, and every
//! `ACCESS_LOG_*.jsonl` as a serving access log (one self-contained JSON
//! record per line, in the `serve::access_log` schema). CI runs this after
//! the figure gates so a drifting emitter fails the build instead of
//! silently corrupting the perf trajectory.
//!
//! Exits non-zero if any file fails, or if no report is found at all — an
//! empty sweep almost always means the gates never ran.

use bench::report::{parse_json, validate_report_json, JsonValue};
use std::path::{Path, PathBuf};

/// Metrics the diagnostics figure must always report, whatever its gate
/// says: the equivalence sweep's size and failure count, and the
/// symbolication fraction.
const FIG18_REQUIRED_METRICS: [&str; 4] = [
    "equivalence_runs",
    "equivalence_mismatches",
    "symbolication_coverage",
    "pass",
];

/// The code-cache gate's ratios: fig11 must report one per suite.
const FIG11_REQUIRED_METRICS: [&str; 3] = [
    "polybench.warm_over_cold",
    "libsodium.warm_over_cold",
    "ostrich.warm_over_cold",
];

/// The optimizing tier's compile-time breakdown: fig13 must report every
/// pass's share and the compile-time ratio on both sides of its
/// function-size threshold.
const FIG13_REQUIRED_METRICS: [&str; 11] = [
    "virtualisa.optc.pass.frontend_share",
    "virtualisa.optc.pass.fold_share",
    "virtualisa.optc.pass.simplify_params_share",
    "virtualisa.optc.pass.cse_share",
    "virtualisa.optc.pass.dce_share",
    "virtualisa.optc.pass.layout_share",
    "virtualisa.optc.pass.regalloc_share",
    "virtualisa.optc.pass.emit_share",
    "virtualisa.opt_compile_time_ratio.small_funcs",
    "virtualisa.opt_compile_time_ratio.large_funcs",
    "opt_compile_time_ratio.size_threshold_bytes",
];

/// Validates one access-log line against the `serve::access_log` schema.
fn validate_access_log_line(line: &str) -> Result<(), String> {
    let doc = parse_json(line)?;
    for field in ["request", "app", "worker", "latency_us", "instantiate_us", "exec_cycles"] {
        if doc.get(field).and_then(JsonValue::as_number).is_none() {
            return Err(format!("missing numeric field {field:?}"));
        }
    }
    for field in ["warm", "deadline_expired"] {
        if !matches!(doc.get(field), Some(JsonValue::Bool(_))) {
            return Err(format!("missing boolean field {field:?}"));
        }
    }
    for field in ["fuel_consumed", "deadline_overshoot_epochs"] {
        match doc.get(field) {
            Some(JsonValue::Null | JsonValue::Number(_)) => {}
            _ => return Err(format!("field {field:?} must be a number or null")),
        }
    }
    let status = doc
        .get("status")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field \"status\"")?;
    match status {
        "ok" => Ok(()),
        "rejected" => doc
            .get("reject_reason")
            .and_then(JsonValue::as_str)
            .map(|_| ())
            .ok_or_else(|| "rejected record missing string \"reject_reason\"".to_string()),
        "trap" => {
            let trap = doc
                .get("trap")
                .filter(|t| t.as_object().is_some())
                .ok_or("trap record missing object field \"trap\"")?;
            trap.get("reason")
                .and_then(JsonValue::as_str)
                .ok_or("trap missing string field \"reason\"")?;
            let frames = trap
                .get("frames")
                .and_then(JsonValue::as_array)
                .ok_or("trap missing array field \"frames\"")?;
            for (i, frame) in frames.iter().enumerate() {
                for field in ["func", "offset"] {
                    if frame.get(field).and_then(JsonValue::as_number).is_none() {
                        return Err(format!("frame {i} missing numeric field {field:?}"));
                    }
                }
                if frame.get("tier").and_then(JsonValue::as_str).is_none() {
                    return Err(format!("frame {i} missing string field \"tier\""));
                }
                match frame.get("name") {
                    Some(JsonValue::Null | JsonValue::String(_)) => {}
                    _ => return Err(format!("frame {i}: \"name\" must be a string or null")),
                }
            }
            Ok(())
        }
        other => Err(format!("unknown status {other:?}")),
    }
}

fn validate_access_log(text: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_access_log_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        lines += 1;
    }
    if lines == 0 {
        return Err("access log holds no records".to_string());
    }
    Ok(lines)
}

fn validate_trace_json(text: &str) -> Result<usize, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing array field \"traceEvents\"")?;
    for (i, event) in events.iter().enumerate() {
        let phase = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i} missing string field \"ph\""))?;
        // "C" is the counter phase an overflowed ring reports its dropped
        // events with.
        if !matches!(phase, "M" | "X" | "i" | "B" | "E" | "C") {
            return Err(format!("event {i} has unknown phase {phase:?}"));
        }
        if phase != "M" && event.get("ts").and_then(JsonValue::as_number).is_none() {
            return Err(format!("event {i} missing numeric field \"ts\""));
        }
    }
    Ok(events.len())
}

fn main() {
    let dirs: Vec<PathBuf> = {
        let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
        if args.is_empty() {
            vec![PathBuf::from(".")]
        } else {
            args
        }
    };

    let mut checked = 0usize;
    let mut failures = Vec::new();
    for dir in &dirs {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) => {
                failures.push(format!("{}: unreadable directory: {e}", dir.display()));
                continue;
            }
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                ((name.starts_with("BENCH_") || name.starts_with("TRACE_"))
                    && name.ends_with(".json"))
                    || (name.starts_with("ACCESS_LOG_") && name.ends_with(".jsonl"))
            })
            .collect();
        paths.sort();
        for path in paths {
            checked += 1;
            match check_one(&path) {
                Ok(summary) => println!("ok   {}: {summary}", path.display()),
                Err(e) => {
                    println!("FAIL {}: {e}", path.display());
                    failures.push(format!("{}: {e}", path.display()));
                }
            }
        }
    }

    if checked == 0 {
        eprintln!("no BENCH_*.json, TRACE_*.json, or ACCESS_LOG_*.jsonl found in {dirs:?}");
        std::process::exit(1);
    }
    println!("{checked} report(s) checked, {} failure(s)", failures.len());
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn check_one(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.starts_with("TRACE_") {
        let events = validate_trace_json(&text)?;
        Ok(format!("{events} trace events"))
    } else if name.starts_with("ACCESS_LOG_") {
        let lines = validate_access_log(&text)?;
        Ok(format!("{lines} access-log records"))
    } else {
        validate_report_json(&text)?;
        let doc = parse_json(&text)?;
        let metrics = doc.get("metrics").and_then(JsonValue::as_object);
        let required: &[&str] = match name {
            "BENCH_fig11.json" => &FIG11_REQUIRED_METRICS,
            "BENCH_fig13.json" => &FIG13_REQUIRED_METRICS,
            "BENCH_fig18.json" => &FIG18_REQUIRED_METRICS,
            _ => &[],
        };
        if let Some(missing) = required
            .iter()
            .find(|&&r| !metrics.is_some_and(|m| m.contains_key(r)))
        {
            return Err(format!("{name} is missing metric {missing:?}"));
        }
        if name == "BENCH_fig18.json" {
            let coverage = doc
                .get("metrics")
                .and_then(|m| m.get("symbolication_coverage"))
                .and_then(JsonValue::as_number)
                .ok_or("symbolication_coverage must be a number")?;
            if !(0.0..=1.0).contains(&coverage) {
                return Err(format!("symbolication_coverage {coverage} outside [0, 1]"));
            }
        }
        Ok(format!("{} metrics", metrics.map_or(0, |m| m.len())))
    }
}

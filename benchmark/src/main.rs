//! `perfbench`: the repository's benchmark. See `README.md` beside
//! `Cargo.toml` for what each workload and metric means.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   one workload (what the driver runs)
//! perfbench [--seed N] [--seconds S] [--trace] [--smoke]    every workload, each in its own process
//! perfbench --compare A.json B.json                         apply the bounds to two results
//! perfbench --selfcheck [--seed N] [--seconds S]            two full sets, compared both ways
//! perfbench --regen-expected                                rewrite expected/*.tsv
//! ```

mod compare;
mod corpus;
mod expected;
mod host;
mod json;
mod layers;
mod metrics;
mod rng;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    /// `None` until `--seconds` is given; see [`Args::seconds`].
    seconds: Option<f64>,
    trace: bool,
    layers: bool,
    smoke: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    selfcheck: bool,
    regen_expected: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        layers: true,
        smoke: false,
        // Beside the manifest when run through cargo from anywhere.
        out: PathBuf::from("benchmark/out"),
        compare: None,
        selfcheck: false,
        regen_expected: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let switch = |text: &str, flag: &str| match text {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("{flag} takes 0 or 1, not {other:?}")),
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => args.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                args.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(seconds);
            }
            // `--trace 0|1` from the driver; a bare `--trace` from a person.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    args.trace = switch(v, flag)?;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--layers" => args.layers = switch(&value(&mut i, flag)?, flag)?,
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value(&mut i, flag)?),
            "--compare" => {
                args.compare = Some((value(&mut i, flag)?.into(), value(&mut i, flag)?.into()))
            }
            "--selfcheck" => args.selfcheck = true,
            "--regen-expected" => args.regen_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

impl Args {
    /// The measuring window: `--seconds`, else 1 s for `--smoke`, else the
    /// driver's length for `--selfcheck` (it rehearses the driver's
    /// acceptance check), else the shorter default.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            1.0
        } else if self.selfcheck {
            f64::from(metrics::RUN_SECONDS)
        } else {
            f64::from(metrics::DEFAULT_SECONDS)
        })
    }
}

fn options(args: &Args, workload: &str) -> run::Options {
    run::Options {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        layers: args.layers,
        out: args.out.clone(),
    }
}

/// One workload in this process: what the driver runs.
fn single(args: &Args, workload: &str) -> Result<bool, String> {
    let report = run::run(&options(args, workload))?;
    report.print_human();
    println!("{}", report.contract_line());
    Ok(report.correct)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, each in a child process of its own so that peak memory
/// is per workload and a crash in one does not take the rest along. Returns
/// the combined result document and whether every workload was correct.
fn full(args: &Args, out: &Path) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut details = Vec::new();
    let mut all_correct = true;
    for (index, spec) in metrics::WORKLOADS.iter().enumerate() {
        eprintln!("\n{}: {}", spec.name, spec.why);
        let mut command = Command::new(&exe);
        command
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds().to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            // The layer profile does not depend on the workload: once is enough.
            .args(["--layers", if index == 0 { "1" } else { "0" }])
            .arg("--out")
            .arg(out)
            .stdout(Stdio::piped());
        let output = command
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let contract =
            json::parse(line).map_err(|e| format!("{}: no result line ({e})", spec.name))?;
        let correct = contract.get("correct") == Some(&Value::Bool(true));
        if !output.status.success() || !correct {
            eprintln!(
                "{}: FAILED (exit {:?}, correct {correct})",
                spec.name,
                output.status.code()
            );
            all_correct = false;
        }
        let detail = out.join(format!("{}.trace{}.json", spec.name, u8::from(args.trace)));
        details.push((spec.name, read_json(&detail)?));
    }
    let document = Value::obj([
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds())),
        ("trace", Value::Bool(args.trace)),
        ("environment", run::environment()),
        ("workloads", Value::obj(details)),
    ]);
    Ok((document, all_correct))
}

/// Merges the per-workload Chrome traces into one file, one process row per
/// workload.
fn merge_traces(out: &Path) -> Result<(), String> {
    let mut events = Vec::new();
    for (index, spec) in metrics::WORKLOADS.iter().enumerate() {
        let pid = Value::Num(index as f64 + 1.0);
        let trace = read_json(&out.join(format!("trace-{}.json", spec.name)))?;
        events.push(Value::obj([
            ("name", Value::str("process_name")),
            ("ph", Value::str("M")),
            ("pid", pid.clone()),
            ("args", Value::obj([("name", Value::str(spec.name))])),
        ]));
        for event in trace
            .get("traceEvents")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            let Value::Obj(mut pairs) = event.clone() else {
                continue;
            };
            for (key, value) in &mut pairs {
                if key == "pid" {
                    *value = pid.clone();
                }
            }
            events.push(Value::Obj(pairs));
        }
    }
    let merged = Value::obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::str("ns")),
    ]);
    run::write_file(&out.join("trace.json"), &merged.encode())
}

fn print_summary(document: &Value) {
    let Some(workloads) = document.get("workloads").and_then(Value::as_obj) else {
        return;
    };
    println!(
        "\n{:<18} {:<40} {:>16}  unit",
        "workload", "metric", "value"
    );
    for (workload, detail) in workloads {
        for (metric, fields) in detail.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
            println!(
                "{:<18} {:<40} {:>16.4}  {}",
                workload,
                metric,
                fields
                    .get("value")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN),
                fields.get("unit").and_then(Value::as_str).unwrap_or("")
            );
        }
        println!(
            "{:<18} {:<40} {:>16.6}  ratio",
            workload,
            "failed_share",
            detail
                .get("failed_share")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        );
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    if args.regen_expected {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
        expected::regenerate(&dir)?;
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let rows = compare::compare(&read_json(a)?, &read_json(b)?)?;
        let (regressions, unresolved) = compare::print(&rows);
        println!("{regressions} regression(s), {unresolved} unresolved");
        return Ok(regressions == 0);
    }
    if let Some(workload) = &args.workload {
        return single(&args, workload);
    }
    if args.selfcheck {
        // Two full sets of the same code must agree within the benchmark's
        // own bounds, whichever is taken as the base. Unresolved rows fail
        // too: a benchmark that cannot resolve its own bound is not steady.
        let (first, ok_first) = full(&args, &args.out.join("selfcheck-1"))?;
        let (second, ok_second) = full(&args, &args.out.join("selfcheck-2"))?;
        let mut clean = ok_first && ok_second;
        for (base, new) in [(&first, &second), (&second, &first)] {
            let (regressions, unresolved) = compare::print(&compare::compare(base, new)?);
            clean &= regressions == 0 && unresolved == 0;
        }
        println!("selfcheck: {}", if clean { "PASS" } else { "FAIL" });
        return Ok(clean);
    }

    let (document, correct) = full(&args, &args.out)?;
    print_summary(&document);
    let name = if args.trace {
        "layers.json"
    } else {
        "result.json"
    };
    run::write_file(&args.out.join(name), &document.encode_pretty())?;
    if args.trace {
        merge_traces(&args.out)?;
    }
    println!("\nwrote {}", args.out.join(name).display());
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

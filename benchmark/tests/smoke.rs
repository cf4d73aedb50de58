//! The benchmark run end to end in its smoke mode (1 s windows, 2
//! repetitions): every workload in its own process, the result file, the
//! traced run and its trace file.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 7] = [
    "load-baseline",
    "load-opt-par",
    "coldstart-cached",
    "exec-interp",
    "exec-jit",
    "tiered-run",
    "serve-warm",
];

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn perfbench(args: &[&str], out: &Path) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("perfbench starts");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("UTF-8 output"),
    )
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The names between `"metrics": {` and its closing brace in a result line,
/// without a JSON parser: the line's shape is fixed by the contract.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = line
        .split_once("\"metrics\":{")
        .expect("a metrics object")
        .1;
    let mut pieces: Vec<&str> = metrics.split("\":{\"value\":").collect();
    pieces.pop(); // what follows the last value
    pieces
        .iter()
        .map(|piece| piece.rsplit_once('"').expect("a quoted name").1.to_string())
        .collect()
}

#[test]
fn smoke_run_of_every_workload_writes_a_result() {
    let out = out_dir("smoke-full");
    let (ok, stdout) = perfbench(&["--smoke", "--seed", "5"], &out);
    assert!(ok, "perfbench --smoke failed:\n{stdout}");
    let result = std::fs::read_to_string(out.join("result.json")).expect("result.json is written");
    for workload in WORKLOADS {
        assert!(
            result.contains(&format!("\"{workload}\": {{")),
            "{workload} is missing from result.json"
        );
        assert!(
            stdout.contains(workload),
            "{workload} is missing from the summary"
        );
    }
    for metric in [
        "ops_per_s",
        "op_p50_us",
        "sim_cycles",
        "peak_rss_mb",
        "setup_s",
        "failed_share",
    ] {
        assert_eq!(
            stdout.matches(metric).count(),
            WORKLOADS.len(),
            "{metric} once per workload"
        );
    }
    assert!(!result.contains("\"correct\": false"));
    assert_eq!(
        result.matches("\"failed_share\": 0,").count(),
        WORKLOADS.len()
    );
    assert!(result.contains("\"nproc\""));
}

#[test]
fn one_workload_prints_the_contract_line_last() {
    let out = out_dir("smoke-single");
    let args = [
        "--workload",
        "coldstart-cached",
        "--seed",
        "9",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let (ok, stdout) = perfbench(&args, &out);
    assert!(ok);
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    assert!(line.contains(",\"failed\":0,\"metrics\":{"));
    let names = metric_names(line);
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    assert!(names.contains(&"setup_s".to_string()) && names.contains(&"ops_per_s".to_string()));
    // The same seed gives the same inputs: simulated cycles repeat exactly.
    let cycles = |line: &str| {
        line.split_once("\"sim_cycles\":{\"value\":")
            .unwrap()
            .1
            .split(',')
            .next()
            .unwrap()
            .to_string()
    };
    let (_, again) = perfbench(&args, &out);
    assert_eq!(cycles(line), cycles(again.lines().last().unwrap()));
}

#[test]
fn traced_run_prints_every_layer_metric_and_writes_a_chrome_trace() {
    let out = out_dir("smoke-traced");
    let (ok, stdout) = perfbench(
        &[
            "--workload",
            "serve-warm",
            "--seed",
            "2",
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
        &out,
    );
    assert!(ok);
    let line = stdout.lines().last().expect("a result line");
    assert!(line.starts_with("{\"correct\":true,"), "{line}");
    let names = metric_names(line);
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    for required in [
        "wasm.decode.ns_per_byte",
        "interp.dispatch.ns_per_kcycle",
        "spc.compile_x64.ns_per_byte",
        "optc.cycles_over_spc",
        "machine.sim.cycles_per_us",
        "engine.instantiate.accounted_share",
        "serve.overhead_us",
        "telemetry.on_over_off",
        "host.runqueue_wait_s",
        "trace.overhead_share",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "{required} is missing: {names:?}"
        );
    }
    let trace = std::fs::read_to_string(out.join("trace-serve-warm.json")).expect("a trace file");
    assert!(trace.starts_with("{\"traceEvents\":[{\"name\":"));
    assert!(trace.contains("\"ph\":\"X\"") && trace.contains("\"name\":\"serve.run\""));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = out_dir("smoke-bad");
    for args in [
        &["--workload", "nope", "--seconds", "1"][..],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let (ok, stdout) = perfbench(args, &out);
        assert!(!ok, "{args:?} should fail");
        assert!(!stdout.contains("\"metrics\""), "{args:?} printed a result");
    }
}

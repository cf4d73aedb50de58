//! Running one workload: the end-to-end run and the traced run.
//!
//! End-to-end run (`--trace 0`): build the fixture, one untimed warm-up
//! repetition, then repetitions back to back until `--seconds` have passed;
//! the fixture is rebuilt and re-timed at ten evenly spaced points.
//!
//! Every repetition performs the same ops in the same order, so op *i* is
//! timed once per repetition. The reported timings are built from **each
//! op's fastest time over the repetitions**: `ops_per_s` is the ops over the
//! sum of those times, `op_p50_us`/`op_p99_us` their percentiles, `setup_s`
//! the fastest build. Per-repetition values (median, quartiles, count) go to
//! the detail file beside them. The reason is the host: on the shared 2-CPU
//! machines this runs on, the hypervisor takes a CPU away for milliseconds
//! to seconds at a time, a whole repetition slows by tens of percent, and
//! medians of back-to-back runs of the same binary differ by 10–25%. An op's
//! fastest time over a dozen tries is the op on a machine nobody is
//! borrowing, and repeats within a percent or two. A code change that makes
//! an op slower makes its fastest time slower; host noise does not.
//!
//! Traced run (`--trace 1`): the same repetitions alternately with and
//! without spans (their throughput ratio is the tracing overhead), then the
//! layer profile of `layers.rs`.

use crate::host::{self, HostSample};
use crate::json::Value;
use crate::layers;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats::{self, Better};
use crate::trace::Tracer;
use crate::workloads::{self, Rep, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run the layer profile in a traced run (the all-workloads run profiles
    /// once, not once per workload).
    pub layers: bool,
    /// Where detail and trace files go.
    pub out: PathBuf,
}

/// Repetitions a run makes even if `--seconds` is over before: the timings
/// are compared between its even and odd repetitions.
const MIN_REPS: usize = 2;
/// Times the fixture is built in a run.
const SETUPS: usize = 10;
/// Share of the window the client thread may spend waiting for a CPU before
/// the run is marked noisy.
const NOISY_WAIT_SHARE: f64 = 0.05;

/// One reported metric with the statistics behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Per-repetition values (empty for counts and readings).
    pub samples: Vec<f64>,
    /// Share of `value` by which the estimates from the even and from the
    /// odd repetitions differ: the run's own measure of how well it pins
    /// the value down. `None` for counts and readings.
    pub halves_differ: Option<f64>,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    pub options: Options,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    pub reps: usize,
    pub noisy: bool,
    pub notes: Vec<String>,
    pub host: HostSample,
    pub wall_s: f64,
}

impl Report {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .encode()
    }

    /// Everything, for `out/<workload>.trace<0|1>.json` and `result.json`.
    pub fn detail(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![("value", Value::Num(m.value)), ("unit", Value::str(m.unit))];
            if m.samples.len() > 1 {
                let (q1, median, q3) = stats::quartiles(&m.samples);
                fields.extend([
                    ("median", Value::Num(median)),
                    ("q1", Value::Num(q1)),
                    ("q3", Value::Num(q3)),
                    ("n", Value::Num(m.samples.len() as f64)),
                ]);
            }
            if let Some(share) = m.halves_differ {
                fields.push(("halves_differ", Value::Num(share)));
            }
            (m.name, Value::obj(fields))
        });
        Value::obj([
            ("workload", Value::str(&self.options.workload)),
            ("seed", Value::Num(self.options.seed as f64)),
            ("seconds", Value::Num(self.options.seconds)),
            ("trace", Value::Bool(self.options.trace)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "failed_share",
                Value::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("repetitions", Value::Num(self.reps as f64)),
            ("noisy", Value::Bool(self.noisy)),
            (
                "notes",
                Value::Arr(self.notes.iter().map(Value::str).collect()),
            ),
            ("wall_s", Value::Num(self.wall_s)),
            ("host_cpu_s", Value::Num(self.host.cpu_s)),
            (
                "host_runqueue_wait_s",
                Value::Num(self.host.runqueue_wait_s),
            ),
            ("metrics", Value::obj(metrics)),
        ])
    }

    /// The table a person reads, on standard error.
    pub fn print_human(&self) {
        eprintln!(
            "{} seed={} trace={} reps={} attempted={} failed={} correct={}{}",
            self.options.workload,
            self.options.seed,
            u8::from(self.options.trace),
            self.reps,
            self.attempted,
            self.failed,
            self.correct,
            if self.noisy { " NOISY" } else { "" },
        );
        for m in &self.metrics {
            if m.samples.len() > 1 {
                let (q1, median, q3) = stats::quartiles(&m.samples);
                eprintln!(
                    "  {:<38} {:>16.4} {:<10} (median {:.4}, q1 {:.4}, q3 {:.4}, n {})",
                    m.name,
                    m.value,
                    m.unit,
                    median,
                    q1,
                    q3,
                    m.samples.len()
                );
            } else {
                eprintln!("  {:<38} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
        for note in &self.notes {
            eprintln!("  note: {note}");
        }
    }
}

fn timed_build(options: &Options) -> Result<(Box<dyn Workload>, f64), String> {
    let start = Instant::now();
    let workload = workloads::build(&options.workload, options.seed)?;
    Ok((workload, start.elapsed().as_secs_f64()))
}

/// What the repetitions of a run add up to: ops attempted and failed, and
/// whether every repetition had the same counts — a compiler or an engine
/// whose cycles or emitted bytes change between repetitions fails the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first: Option<(u64, u64, usize)>,
    notes: Vec<String>,
}

impl Tally {
    fn observe(&mut self, rep: &Rep) {
        self.attempted += rep.op_ns.len() as u64;
        self.failed += rep.failed;
        let seen = (rep.sim_cycles, rep.code_fingerprint, rep.op_ns.len());
        match self.first {
            None => self.first = Some(seen),
            Some(first) if first != seen => self.notes.push(format!(
                "repetitions differ: (sim_cycles, code fingerprint, ops) {first:?} then {seen:?}"
            )),
            Some(_) => {}
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty()
    }
}

fn percentile_us(op_ns: &[u64], p: f64) -> f64 {
    let us: Vec<f64> = op_ns.iter().map(|&ns| ns as f64 / 1000.0).collect();
    stats::percentile(&us, p)
}

fn end_to_end_metric(
    name: &'static str,
    value: f64,
    samples: Vec<f64>,
    halves: Option<(f64, f64)>,
) -> Measured {
    let spec = metrics::end_to_end(name).expect("a declared end-to-end metric");
    let halves_differ = halves.map(|(a, b)| (a - b).abs() / value);
    Measured {
        name,
        unit: spec.unit,
        value,
        samples,
        halves_differ,
    }
}

/// `[ops_per_s, op_p50_us, op_p99_us]` from each op's fastest time over
/// `reps`. A batch has one wall-clock for all its ops, so its rate is that
/// of the fastest batch.
fn timings(reps: &[&Rep]) -> [f64; 3] {
    let mut fastest = reps[0].op_ns.clone();
    for rep in &reps[1..] {
        for (best, &ns) in fastest.iter_mut().zip(&rep.op_ns) {
            *best = (*best).min(ns);
        }
    }
    let rate = if reps[0].batch_ns.is_some() {
        reps.iter().map(|r| r.ops_per_s()).fold(0.0, f64::max)
    } else {
        fastest.len() as f64 / (fastest.iter().sum::<u64>() as f64 / 1e9)
    };
    [
        rate,
        percentile_us(&fastest, 50.0),
        percentile_us(&fastest, 99.0),
    ]
}

/// Elements of `items` at even positions, and at odd positions.
fn halves<T>(items: &[T]) -> (Vec<&T>, Vec<&T>) {
    (
        items.iter().step_by(2).collect(),
        items.iter().skip(1).step_by(2).collect(),
    )
}

/// The end-to-end run.
pub fn end_to_end(options: &Options) -> Result<Report, String> {
    let run_start = Instant::now();
    let host_start = HostSample::now();
    let mut tracer = Tracer::disabled();
    let mut tally = Tally::default();

    let (mut workload, first_setup) = timed_build(options)?;
    let mut setups = vec![first_setup];
    tally.observe(&workload.rep(&mut tracer));

    let window = Duration::from_secs_f64(options.seconds);
    let window_start = Instant::now();
    let window_host = HostSample::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let rep = workload.rep(&mut tracer);
        tally.observe(&rep);
        reps.push(rep);
        let elapsed = window_start.elapsed();
        // The extra fixtures are timed and dropped; the first keeps serving
        // the repetitions, so its pools and caches stay warm.
        while setups.len() < SETUPS
            && elapsed >= window.mul_f64(setups.len() as f64 / SETUPS as f64)
        {
            setups.push(timed_build(options)?.1);
        }
        if elapsed >= window && reps.len() >= MIN_REPS {
            break;
        }
    }
    let window_wall = window_start.elapsed().as_secs_f64();
    let window_used = HostSample::now().since(&window_host);
    while setups.len() < SETUPS {
        setups.push(timed_build(options)?.1);
    }
    drop(workload);

    let noisy = window_used.runqueue_wait_s > NOISY_WAIT_SHARE * window_wall;
    let correct = tally.correct();
    let mut notes = tally.notes;
    if noisy {
        notes.push(format!(
            "noisy: the client thread waited {:.3} s for a CPU in a {:.3} s window",
            window_used.runqueue_wait_s, window_wall
        ));
    }
    let host = HostSample::now();
    // The same estimate from the even and from the odd repetitions: how far
    // the two differ is how well this run pins the value down.
    let all: Vec<&Rep> = reps.iter().collect();
    let (even, odd) = halves(&reps);
    let (value, even, odd) = (timings(&all), timings(&even), timings(&odd));
    let fastest_setup = |builds: &[&f64]| builds.iter().map(|&&s| s).fold(f64::INFINITY, f64::min);
    let (even_setups, odd_setups) = halves(&setups);
    let metrics = END_TO_END
        .iter()
        .map(|spec| {
            let timing = |i: usize, per_rep: fn(&Rep) -> f64| {
                end_to_end_metric(
                    spec.name,
                    value[i],
                    reps.iter().map(per_rep).collect(),
                    Some((even[i], odd[i])),
                )
            };
            match spec.name {
                "ops_per_s" => timing(0, Rep::ops_per_s),
                "op_p50_us" => timing(1, |r| percentile_us(&r.op_ns, 50.0)),
                "op_p99_us" => timing(2, |r| percentile_us(&r.op_ns, 99.0)),
                "sim_cycles" => {
                    end_to_end_metric(spec.name, reps[0].sim_cycles as f64, Vec::new(), None)
                }
                "peak_rss_mb" => end_to_end_metric(spec.name, host.peak_rss_mb, Vec::new(), None),
                "setup_s" => end_to_end_metric(
                    spec.name,
                    fastest_setup(&setups.iter().collect::<Vec<_>>()),
                    setups.clone(),
                    Some((fastest_setup(&even_setups), fastest_setup(&odd_setups))),
                ),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            }
        })
        .collect();
    Ok(Report {
        options: options.clone(),
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        reps: reps.len(),
        noisy,
        notes,
        host: host.since(&host_start),
        wall_s: run_start.elapsed().as_secs_f64(),
    })
}

/// The traced run.
pub fn traced(options: &Options) -> Result<Report, String> {
    let run_start = Instant::now();
    let host_start = HostSample::now();
    let mut off = Tracer::disabled();
    let mut on = Tracer::enabled();
    let mut tally = Tally::default();

    let mut workload = workloads::build(&options.workload, options.seed)?;
    tally.observe(&workload.rep(&mut off));

    // Half the time for the workload itself, alternating untraced and traced
    // repetitions; the first traced repetition's spans are kept for the
    // trace file, later ones only for their throughput.
    let window = Duration::from_secs_f64(options.seconds / 2.0);
    let window_start = Instant::now();
    let (mut untraced_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut kept_spans = None;
    while window_start.elapsed() < window || traced_rates.len() < MIN_REPS {
        for (tracer, rates) in [
            (&mut off, &mut untraced_rates),
            (&mut on, &mut traced_rates),
        ] {
            let rep = workload.rep(tracer);
            tally.observe(&rep);
            rates.push(rep.ops_per_s());
        }
        match kept_spans {
            None => kept_spans = Some(on.len()),
            Some(len) => on.truncate(len),
        }
    }
    drop(workload);
    let reps = untraced_rates.len() + traced_rates.len();
    let overhead = 1.0
        - stats::best(&traced_rates, Better::Higher) / stats::best(&untraced_rates, Better::Higher);

    let mut values = layers::Values::new();
    if options.layers {
        let inputs = layers::Inputs::new(options.seed);
        let mut checked = layers::Checked::default();
        let budget = Duration::from_secs_f64(options.seconds);
        let mut rounds = 0;
        // At least one round; another while one more still fits the run's
        // time. Only the first round's spans are kept.
        while rounds == 0 || (rounds < 3 && run_start.elapsed() + layers::ROUND_ESTIMATE <= budget)
        {
            let len = on.len();
            layers::fold_best(&mut values, layers::round(&inputs, &mut on, &mut checked));
            if rounds > 0 {
                on.truncate(len);
            }
            rounds += 1;
        }
        tally.attempted += checked.attempted;
        tally.failed += checked.failed;
    }

    let host = HostSample::now().since(&host_start);
    values.insert("trace.overhead_share", overhead);
    values.insert("host.cpu_s", host.cpu_s);
    values.insert("host.runqueue_wait_s", host.runqueue_wait_s);
    values.insert(
        "host.nonvoluntary_ctxt_switches",
        host.nonvoluntary_ctxt_switches as f64,
    );

    let trace_path = options.out.join(format!("trace-{}.json", options.workload));
    write_file(&trace_path, &on.chrome_trace().encode())?;

    let wall_s = run_start.elapsed().as_secs_f64();
    let noisy = host.runqueue_wait_s > NOISY_WAIT_SHARE * wall_s;
    let correct = tally.correct();
    let mut notes = tally.notes;
    notes.push(format!(
        "{} spans written to {}",
        on.len(),
        trace_path.display()
    ));
    let metrics = PER_LAYER
        .iter()
        .filter_map(|spec| {
            values.get(spec.name).map(|&value| Measured {
                name: spec.name,
                unit: spec.unit,
                value,
                samples: Vec::new(),
                halves_differ: None,
            })
        })
        .collect();
    Ok(Report {
        options: options.clone(),
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        reps,
        noisy,
        notes,
        host,
        wall_s,
    })
}

/// Runs per `options.trace` and writes the detail file.
pub fn run(options: &Options) -> Result<Report, String> {
    let report = if options.trace {
        traced(options)?
    } else {
        end_to_end(options)?
    };
    let detail = options.out.join(format!(
        "{}.trace{}.json",
        options.workload,
        u8::from(options.trace)
    ));
    write_file(&detail, &report.detail().encode_pretty())?;
    Ok(report)
}

/// Writes `text` to `path`, creating the directory.
pub fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Where a result was measured, for `result.json`: CPUs, compiler, and the
/// commit checked out (`unknown` outside a git checkout).
pub fn environment() -> Value {
    let first_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    Value::obj([
        ("nproc", Value::Num(host::nproc() as f64)),
        ("rustc", Value::Str(first_line("rustc", &["--version"]))),
        (
            "commit",
            Value::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn rep(op_ns: &[u64]) -> Rep {
        Rep {
            op_ns: op_ns.to_vec(),
            ..Rep::default()
        }
    }

    #[test]
    fn timings_use_each_ops_fastest_time() {
        // Op 0 was fastest in the second repetition, op 1 in the first.
        let (a, b) = (rep(&[4_000, 1_000]), rep(&[2_000, 3_000]));
        let [rate, p50, p99] = timings(&[&a, &b]);
        assert_eq!(rate, 2.0 / 3e-6);
        assert_eq!((p50, p99), (1.0, 2.0));
        // A batch is timed as a whole: the faster batch gives the rate.
        let slow = Rep {
            batch_ns: Some(10_000),
            ..rep(&[4_000, 1_000])
        };
        let fast = Rep {
            batch_ns: Some(5_000),
            ..rep(&[2_000, 3_000])
        };
        assert_eq!(timings(&[&slow, &fast])[0], 2.0 / 5e-6);
    }

    #[test]
    fn halves_split_by_position() {
        let (even, odd) = halves(&[10, 11, 12, 13, 14]);
        assert_eq!((even, odd), (vec![&10, &12, &14], vec![&11, &13]));
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys_and_parses() {
        let options = Options {
            workload: "serve-warm".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            layers: true,
            out: PathBuf::from("unused"),
        };
        let report = Report {
            options,
            correct: true,
            attempted: 1092,
            failed: 0,
            metrics: vec![
                end_to_end_metric(
                    "ops_per_s",
                    3764.380612345,
                    vec![3000.0, 3764.380612345],
                    Some((3700.0, 3764.0)),
                ),
                end_to_end_metric("setup_s", 0.010234567, vec![0.011, 0.010234567], None),
            ],
            reps: 2,
            noisy: false,
            notes: Vec::new(),
            host: HostSample::default(),
            wall_s: 1.5,
        };
        let line = report.contract_line();
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).expect("the result line is JSON");
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            parsed.get("attempted").and_then(Value::as_f64),
            Some(1092.0)
        );
        let ops = parsed
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .expect("ops_per_s");
        // All the digits, not a rounded figure.
        assert_eq!(
            ops.get("value").and_then(Value::as_f64),
            Some(3764.380612345)
        );
        assert_eq!(ops.get("unit").and_then(Value::as_str), Some("1/s"));
        let detail =
            json::parse(&report.detail().encode_pretty()).expect("the detail file is JSON");
        assert_eq!(
            detail.get("failed_share").and_then(Value::as_f64),
            Some(0.0)
        );
        assert!(detail
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .and_then(|m| m.get("halves_differ"))
            .is_some());
    }
}

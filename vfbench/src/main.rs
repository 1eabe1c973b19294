//! `vfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path vfbench/Cargo.toml -- \
//!     --workload <train_vn1|train_vn16|elastic_vn16|sched_replay> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures whole rounds of the
//! workload for about `--seconds` seconds, checks the program's outputs,
//! prints every metric with its unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
//! untraced and then traced, writes a Chrome trace under `vfbench/out/`,
//! prints a self-time table and the per-layer metrics. `--seconds 0` runs
//! a single round (the benchmark's own test uses it). The exit code is 0
//! only when every correctness check held.
//! See `README.md` for the workloads, the metrics and reference figures.

mod kernels;
mod layers;
mod measure;
mod reference;
mod sched;
mod spans;
mod train;

use measure::{median, metric, peak_rss_mb, quantile, timed_setup, Outcome};
use spans::Tracer;
use std::fmt::Write as _;
use std::process::ExitCode;
use train::{new_store, ElasticWorkload, Job, TrainWorkload};

/// Set-up repeats at least this often, and for at least `SETUP_MIN_S`
/// seconds; `setup_s` is the median.
const SETUP_REPS: usize = 9;
const SETUP_MIN_S: f64 = 0.3;

/// What one round of a workload did.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Wall seconds the throughput is taken over.
    pub busy_s: f64,
    /// Units of work done: training samples, or completed jobs.
    pub items: f64,
    /// Operations attempted.
    pub ops: u64,
    /// Wall milliseconds of each training step, or of each scheduling
    /// event of a trace replay.
    pub op_ms: Vec<f64>,
}

enum Workload {
    Train(Box<TrainWorkload>),
    Elastic(Box<ElasticWorkload>),
    Sched(sched::SchedWorkload),
}

impl Workload {
    fn round(&mut self, tr: &mut Tracer, out: &mut Outcome) -> Round {
        match self {
            Workload::Train(w) => w.round(tr),
            Workload::Elastic(w) => w.round(tr, out),
            Workload::Sched(w) => w.round(tr, out),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: vfbench --workload <train_vn1|train_vn16|elastic_vn16|sched_replay> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Sets the workload up (timed, `SETUP_REPS` times) and runs its untimed,
/// checked first operation.
fn start(args: &Args, out: &mut Outcome) -> Result<(Workload, f64), String> {
    let seed = args.seed;
    Ok(match args.workload.as_str() {
        "train_vn1" | "train_vn16" => {
            let vns = if args.workload == "train_vn1" { 1 } else { 16 };
            let (job, setup_s) = timed_setup(SETUP_REPS, SETUP_MIN_S, || Job::new(seed, vns));
            (
                Workload::Train(Box::new(TrainWorkload::start(job, out))),
                setup_s,
            )
        }
        "elastic_vn16" => {
            let (parts, setup_s) = timed_setup(SETUP_REPS, SETUP_MIN_S, || {
                (Job::new(seed, 16), new_store(seed))
            });
            (
                Workload::Elastic(Box::new(ElasticWorkload::start(parts, out))),
                setup_s,
            )
        }
        "sched_replay" => {
            let (traces, setup_s) =
                timed_setup(SETUP_REPS, SETUP_MIN_S, || sched::replay_set(seed));
            (Workload::Sched(sched::SchedWorkload::new(traces)), setup_s)
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Runs whole rounds until `seconds` of round time have passed (one round
/// when `seconds` is 0), or exactly `count` rounds when given.
fn run_rounds(
    w: &mut Workload,
    seconds: f64,
    count: Option<usize>,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Round> {
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        rounds.push(w.round(tr, out));
        let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
        let done = match count {
            Some(n) => rounds.len() >= n,
            None => wall >= seconds,
        };
        if done {
            return rounds;
        }
    }
}

fn attempted(rounds: &[Round]) -> u64 {
    rounds.iter().map(|r| r.ops).sum()
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(rounds: &[Round], setup_s: f64, out: &mut Outcome) {
    let throughput: Vec<f64> = rounds.iter().map(|r| r.items / r.busy_s).collect();
    let op_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.op_ms.iter().copied())
        .collect();
    let cpu: Vec<f64> = rounds.iter().map(|r| r.cpu_s).collect();
    out.metrics.extend([
        metric("throughput_per_s", quantile(&throughput, 0.75), "1/s"),
        metric("step_ms.p25", quantile(&op_ms, 0.25), "ms"),
        metric("cpu_s", median(&cpu), "s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]);
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut w, setup_s) = start(args, &mut out)?;
    // The first training step is untimed and checked, so it counts.
    out.attempted = u64::from(matches!(w, Workload::Train(_) | Workload::Elastic(_)));
    if args.trace {
        traced(args, &mut w, &mut out)?;
    } else {
        let rounds = run_rounds(
            &mut w,
            args.seconds,
            None,
            &mut Tracer::new(false),
            &mut out,
        );
        end_to_end(&rounds, setup_s, &mut out);
        out.attempted += attempted(&rounds);
        finish(&w, &mut out);
    }
    if let Workload::Sched(s) = &w {
        // Every round replays the same operations; each counts once.
        out.attempted = s.operations() + sched::HANGING_OPS as u64;
        out.failed = sched::attempt_hanging_ops();
    }
    Ok(out)
}

/// A traced run: rounds untraced, then as many traced, then the per-layer
/// suite; writes the Chrome trace and prints the self-time table.
fn traced(args: &Args, w: &mut Workload, out: &mut Outcome) -> Result<(), String> {
    let plain = run_rounds(
        w,
        args.seconds / 2.0,
        None,
        &mut Tracer::new(false),
        out,
    );
    let mut tr = Tracer::new(true);
    let traced = run_rounds(w, 0.0, Some(plain.len()), &mut tr, out);
    let wall = |rs: &[Round]| rs.iter().map(|r| r.wall_s).sum::<f64>();
    let overhead_pct = 100.0 * (wall(&traced) - wall(&plain)) / wall(&plain);
    out.attempted += attempted(&plain) + attempted(&traced);
    finish(w, out);

    let sched_layers = match w {
        Workload::Sched(s) => sched::layer_pass(&s.traces, &mut tr),
        _ => sched::layer_pass(&sched::replay_set(args.seed), &mut tr),
    };
    let mut probe;
    let job = match w {
        Workload::Train(t) => &mut t.job,
        Workload::Elastic(e) => &mut e.job,
        Workload::Sched(_) => {
            probe = Job::new(args.seed, 16);
            &mut probe
        }
    };
    layers::suite(job, args.seed, sched_layers, overhead_pct, &mut tr, out);

    println!("{}", tr.table());
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tr.chrome_json()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("chrome trace: {path}");
    Ok(())
}

/// The checks that run once the timed rounds are over.
fn finish(w: &Workload, out: &mut Outcome) {
    match w {
        Workload::Train(t) => t.finish(out),
        Workload::Elastic(e) => e.finish(out),
        Workload::Sched(_) => {}
    }
}

fn json_line(out: &Outcome, correct: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--hang-child") {
        let i = argv.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        return ExitCode::from(sched::hang_child(i) as u8);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.problems
                .push(format!("metric {} is not finite", m.name));
        }
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &out.metrics {
        println!("  {:<30} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("attempted {} failed {}", out.attempted, out.failed);
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty();
    println!("{}", json_line(&out, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

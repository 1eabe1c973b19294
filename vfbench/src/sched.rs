//! `sched_replay`: seeded Poisson traces in the style of Figs 13–14 through
//! `run_trace`, under `ElasticWfs` and `StaticPriority`, each replayed plain
//! and through `run_trace_monitored`. No tensor code runs here.

use crate::measure::{derive, median, time_ms, Outcome, Stamp};
use crate::spans::Tracer;
use crate::Round;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use vf_comm::LinkProfile;
use vf_device::DeviceProfile;
use vf_obs::{Monitor, Recorder, RingSink};
use vf_sched::trace::poisson_trace;
use vf_sched::{
    run_trace, run_trace_monitored, ElasticWfs, JobId, JobSpec, JobState, Scheduler, SimConfig,
    SimResult, StaticPriority,
};

/// `(jobs, arrivals per hour, GPUs)` of each trace shape in the replay set.
pub const SHAPES: [(u32, f64, u32); 4] = [
    (20, 12.0, 32),
    (50, 20.0, 64),
    (100, 30.0, 64),
    (100, 30.0, 128),
];
/// Traces of each shape, each from its own sub-seed.
pub const TRACES_PER_SHAPE: usize = 16;
/// Largest GPU demand of any job.
pub const MAX_DEMAND: u32 = 32;
const TRACE_STREAM: u64 = 100;
/// Events the monitored replay's in-memory recorder keeps.
const RECORDER_CAPACITY: usize = 4096;
/// Replay passes the per-layer numbers are the median of.
const LAYER_PASSES: usize = 3;

/// How long a known-hanging trace may run before it counts as failed:
/// a terminating 400-job trace takes about 20 ms.
const HANG_DEADLINE: Duration = Duration::from_secs(2);

pub struct Trace {
    pub jobs: Vec<JobSpec>,
    pub config: SimConfig,
}

/// The replay set derived from `seed`.
pub fn replay_set(seed: u64) -> Vec<Trace> {
    let mut traces = Vec::new();
    for (s, &(jobs, rate, gpus)) in SHAPES.iter().enumerate() {
        for i in 0..TRACES_PER_SHAPE {
            let trace_seed = derive(seed, TRACE_STREAM + (s * TRACES_PER_SHAPE + i) as u64);
            traces.push(Trace {
                jobs: poisson_trace(jobs, rate, MAX_DEMAND, trace_seed, &LinkProfile::nvlink()),
                config: SimConfig::v100_cluster(gpus),
            });
        }
    }
    traces
}

#[derive(Debug, Clone, Copy)]
enum Policy {
    Wfs,
    Static,
}

const POLICIES: [Policy; 2] = [Policy::Wfs, Policy::Static];

impl Policy {
    fn scheduler(self) -> Box<dyn Scheduler> {
        match self {
            Policy::Wfs => Box::new(ElasticWfs::new()),
            Policy::Static => Box::new(StaticPriority::new()),
        }
    }
}

fn monitored(trace: &Trace, scheduler: &mut dyn Scheduler) -> (SimResult, u64) {
    let monitor = Monitor::with_default_pack();
    let recorder = Recorder::new(RingSink::with_capacity(RECORDER_CAPACITY));
    let result = run_trace_monitored(
        &trace.jobs,
        scheduler,
        &trace.config,
        &recorder,
        Some(&monitor),
    );
    (result, recorder.events_recorded())
}

fn finished(result: &SimResult) -> usize {
    result
        .jobs
        .iter()
        .filter(|j| j.finished_at_s.is_some())
        .count()
}

/// Property checks of one replayed trace.
fn check(trace: &Trace, plain: &SimResult, monitored: &SimResult, what: &str, out: &mut Outcome) {
    out.check(
        plain.jobs.len() == trace.jobs.len() && finished(plain) == trace.jobs.len(),
        || {
            format!(
                "{what}: {} of {} jobs finished",
                finished(plain),
                trace.jobs.len()
            )
        },
    );
    // Busy GPU-seconds from the allocation timeline: each snapshot holds
    // until the next scheduling event.
    let busy: f64 = plain
        .timeline
        .windows(2)
        .map(|w| w[0].allocations.values().sum::<u32>() as f64 * (w[1].time_s - w[0].time_s))
        .sum();
    let capacity = trace.config.num_gpus as f64 * plain.metrics.makespan_s;
    out.check(busy <= capacity * (1.0 + 1e-9), || {
        format!("{what}: {busy} busy GPU-seconds exceed capacity × makespan = {capacity}")
    });
    let device = DeviceProfile::of(trace.config.device_type);
    let specs: BTreeMap<JobId, &JobSpec> = trace.jobs.iter().map(|j| (j.id, j)).collect();
    for job in &plain.jobs {
        let spec = specs[&job.spec.id];
        let shortest = (1..=spec.demand)
            .map(|g| spec.runtime_on(g, device, &trace.config.link))
            .fold(f64::INFINITY, f64::min);
        let earliest = spec.arrival_s + shortest * (1.0 - 1e-9);
        out.check(job.finished_at_s.is_none_or(|f| f >= earliest), || {
            format!(
                "{what}: {} finished at {:?}, before arrival + shortest runtime = {earliest}",
                spec.id, job.finished_at_s
            )
        });
    }
    out.check(
        plain.scheduler == monitored.scheduler
            && plain.jobs == monitored.jobs
            && plain.timeline == monitored.timeline
            && plain.metrics == monitored.metrics,
        || format!("{what}: the monitored SimResult differs from the plain one"),
    );
}

/// `sched_replay`.
pub struct SchedWorkload {
    pub traces: Vec<Trace>,
    checked: bool,
}

impl SchedWorkload {
    pub fn new(traces: Vec<Trace>) -> Self {
        SchedWorkload {
            traces,
            checked: false,
        }
    }

    /// Operations whose outcome is checked: each trace under each policy,
    /// plain and monitored. Later rounds repeat the same operations.
    pub fn operations(&self) -> u64 {
        (self.traces.len() * POLICIES.len() * 2) as u64
    }

    /// One round: every trace under both policies, plain then monitored.
    pub fn round(&mut self, tr: &mut Tracer, out: &mut Outcome) -> Round {
        let mut round = Round::default();
        let mut results = Vec::new();
        let st = Stamp::now();
        for (t, trace) in self.traces.iter().enumerate() {
            for policy in POLICIES {
                let r = replay(trace, policy, tr);
                // A simulator step is one scheduling event.
                round.op_ms.push(r.plain_ms / r.plain.timeline.len() as f64);
                round.busy_s += r.plain_ms / 1e3;
                round.items += finished(&r.plain) as f64;
                if !self.checked {
                    results.push((t, policy, r));
                }
            }
        }
        (round.wall_s, round.cpu_s) = st.elapsed();
        round.ops = self.operations();
        for (t, policy, r) in results {
            check(
                &self.traces[t],
                &r.plain,
                &r.monitored,
                &format!("trace {t} under {policy:?}"),
                out,
            );
        }
        self.checked = true;
        round
    }
}

/// A `Scheduler` that times every `allocate` call of the one it wraps.
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    calls: u64,
    ms: f64,
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&mut self, now_s: f64, jobs: &[JobState], capacity: u32) -> BTreeMap<JobId, u32> {
        let t = Instant::now();
        let alloc = self.inner.allocate(now_s, jobs, capacity);
        self.ms += t.elapsed().as_secs_f64() * 1e3;
        self.calls += 1;
        alloc
    }
}

impl TimedScheduler {
    fn new(policy: Policy) -> Self {
        TimedScheduler {
            inner: policy.scheduler(),
            calls: 0,
            ms: 0.0,
        }
    }
}

/// One trace under one policy, replayed plain and then monitored, each
/// through the timing wrapper.
struct Replay {
    plain: SimResult,
    plain_ms: f64,
    allocate_ms: f64,
    allocate_calls: u64,
    monitored: SimResult,
    monitored_ms: f64,
    recorded: u64,
}

fn replay(trace: &Trace, policy: Policy, tr: &mut Tracer) -> Replay {
    tr.next_group();
    let mut timed = TimedScheduler::new(policy);
    let open = tr.begin("sched.run_trace");
    let (plain, plain_ms) = time_ms(|| run_trace(&trace.jobs, &mut timed, &trace.config));
    tr.end(open);
    let (allocate_ms, allocate_calls) = (timed.ms, timed.calls);
    let mut timed = TimedScheduler::new(policy);
    let open = tr.begin("sched.run_trace_monitored");
    let ((monitored, recorded), monitored_ms) = time_ms(|| monitored(trace, &mut timed));
    tr.end(open);
    Replay {
        plain,
        plain_ms,
        allocate_ms,
        allocate_calls,
        monitored,
        monitored_ms,
        recorded,
    }
}

/// Per-pass scheduler and obs layer numbers.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedLayers {
    pub allocate_ms: f64,
    pub allocate_calls: f64,
    pub loop_ms: f64,
    pub events: f64,
    pub monitor_ms: f64,
    pub events_recorded: f64,
}

/// Replays `traces` through the timing wrapper; each number is the median
/// over a few passes.
pub fn layer_pass(traces: &[Trace], tr: &mut Tracer) -> SchedLayers {
    let mut passes = Vec::new();
    for _ in 0..LAYER_PASSES {
        let (mut plain_ms, mut monitored_ms) = (0.0, 0.0);
        let mut l = SchedLayers::default();
        for trace in traces {
            for policy in POLICIES {
                let r = replay(trace, policy, tr);
                plain_ms += r.plain_ms;
                monitored_ms += r.monitored_ms;
                l.allocate_ms += r.allocate_ms;
                l.allocate_calls += r.allocate_calls as f64;
                l.events += r.plain.timeline.len() as f64;
                l.events_recorded += r.recorded as f64;
            }
        }
        l.loop_ms = plain_ms - l.allocate_ms;
        l.monitor_ms = monitored_ms - plain_ms;
        passes.push(l);
    }
    let med = |f: fn(&SchedLayers) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    SchedLayers {
        allocate_ms: med(|l| l.allocate_ms),
        allocate_calls: med(|l| l.allocate_calls),
        loop_ms: med(|l| l.loop_ms),
        events: med(|l| l.events),
        monitor_ms: med(|l| l.monitor_ms),
        events_recorded: med(|l| l.events_recorded),
    }
}

/// The two traces on which `run_trace` never returns (see the README):
/// one 400-job trace, on 128 GPUs under `ElasticWfs` and on 64 GPUs under
/// `StaticPriority`. Neither depends on `--seed`.
fn hanging_op(i: usize) -> (Vec<JobSpec>, SimConfig, Policy) {
    let jobs = poisson_trace(400, 30.0, MAX_DEMAND, 7, &LinkProfile::nvlink());
    match i {
        0 => (jobs, SimConfig::v100_cluster(128), Policy::Wfs),
        _ => (jobs, SimConfig::v100_cluster(64), Policy::Static),
    }
}

pub const HANGING_OPS: usize = 2;

/// Child-process body: replays hanging operation `i`; exit code 0 when it
/// returns with every job finished.
pub fn hang_child(i: usize) -> i32 {
    let (jobs, config, policy) = hanging_op(i);
    let result = run_trace(&jobs, policy.scheduler().as_mut(), &config);
    i32::from(finished(&result) != jobs.len())
}

/// Attempts each hanging operation in a child process under a deadline,
/// killing it when the deadline passes. Returns the number that failed.
/// Runs only after every timed operation, so no hung simulation shares
/// the machine with a measurement.
pub fn attempt_hanging_ops() -> u64 {
    let exe = std::env::current_exe().expect("the running benchmark has a path");
    let mut failed = 0;
    for i in 0..HANGING_OPS {
        let (jobs, config, policy) = hanging_op(i);
        let what = format!(
            "{}-job trace on {} GPUs under {policy:?}",
            jobs.len(),
            config.num_gpus
        );
        let mut child = Command::new(&exe)
            .args(["--hang-child", &i.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("the benchmark can start a copy of itself");
        let start = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("waiting on a child works") {
                break Some(status);
            }
            if start.elapsed() >= HANG_DEADLINE {
                child.kill().expect("a running child can be killed");
                child.wait().expect("a killed child can be reaped");
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        match status {
            Some(s) if s.success() => println!("hanging op {i} ({what}): returned"),
            Some(s) => {
                failed += 1;
                println!("hanging op {i} ({what}): FAILED, exited with {s}");
            }
            None => {
                failed += 1;
                println!("hanging op {i} ({what}): FAILED, no return within {HANG_DEADLINE:?}");
            }
        }
    }
    failed
}

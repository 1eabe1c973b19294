//! Measuring instruments shared by every workload: a wall and CPU clock,
//! order statistics, peak RSS, seed derivation, and the printed metric.

use std::time::Instant;

/// One printed metric: name, measured value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Correctness checks that did not hold; empty means `correct`.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    /// `ru_maxrss` (KiB on Linux) followed by the 13 other `long` fields.
    ru_rest: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, from the kernel's own accounting.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); the call writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, in MB (the kernel's
/// `VmHWM`, as reported by `getrusage`).
pub fn peak_rss_mb() -> f64 {
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_rest: [0; 14],
    };
    // SAFETY: `ru` has the size and layout of `struct rusage` on 64-bit
    // Linux (two timevals and fourteen longs); the call writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru.ru_rest[0] as f64 / 1024.0
}

/// A wall + CPU reading, for timing a stretch of work both ways.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// `(wall seconds, cpu seconds)` elapsed since this stamp.
    pub fn elapsed(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_s() - self.cpu)
    }
}

/// Times `f` in milliseconds of wall time.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// The `q`-quantile (0..=1), interpolating linearly between order
/// statistics. Panics on an empty slice: every caller measures at least once.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A sub-seed for one named input, so each input depends on `--seed` alone
/// and inputs do not share random streams (splitmix64 finalizer).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `setup` at least `reps` times and until `min_s` seconds have been
/// spent in it, returning the last result and the median wall seconds.
pub fn timed_setup<T>(reps: usize, min_s: f64, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::with_capacity(reps);
    let mut last = None;
    while times.len() < reps || times.iter().sum::<f64>() < min_s {
        // Free the previous repetition first, so no timing includes a drop.
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (
        last.expect("at least one set-up repetition"),
        median(&times),
    )
}

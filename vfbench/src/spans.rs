//! The benchmark's own tracer: a span around every timed public call.
//!
//! Spans are kept in memory and written out once, at the end of a traced
//! run, as a Chrome `trace_event` file. Each span has a name, start, end,
//! the span that encloses it, and the id of the step, checkpoint cycle or
//! trace replay it belongs to. A disabled tracer records nothing and costs
//! one branch per call, so the untraced runs that give the end-to-end
//! numbers pay for no tracing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    group: u64,
}

/// Handle of an open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    group: u64,
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            group: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Starts a new group: the spans that follow belong to one step,
    /// checkpoint cycle or trace replay.
    pub fn next_group(&mut self) {
        self.group += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.stack.last().copied(),
            group: self.group,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(idx), "spans close in the order they open");
        self.spans[idx].end_us = self.now_us();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Calls, total and self time per span name. Self time is a span's
    /// duration minus the part its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += (s.end_us - s.start_us) / 1e3;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = (s.end_us - s.start_us) / 1e3;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ms += dur;
            t.self_ms += dur - child_ms[i];
        }
        out
    }

    /// The per-layer self-time table printed by a traced run.
    pub fn table(&self) -> String {
        let totals = self.totals();
        let all_self: f64 = totals.values().map(|t| t.self_ms).sum();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<26} {:>8} {:>12} {:>12} {:>7}",
            "span", "calls", "total_ms", "self_ms", "self%"
        );
        for (name, t) in &totals {
            let _ = writeln!(
                s,
                "{:<26} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
                name,
                t.calls,
                t.total_ms,
                t.self_ms,
                100.0 * t.self_ms / all_self.max(f64::MIN_POSITIVE)
            );
        }
        s
    }

    /// The spans as a Chrome `trace_event` JSON document.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"vfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
                sp.name,
                sp.start_us,
                sp.end_us - sp.start_us,
                i,
                parent,
                sp.group
            );
        }
        s.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        s
    }
}

//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer: name, start, end, parent span and op id. A span's
//! self time is its duration minus the durations of its child spans
//! (children never overlap: every traced call is sequential). A
//! replayed span — one timed after the fact, such as serve_mix's
//! server-side replay — keeps its own start and end but still counts
//! against its parent, so a parent's self time is the part of its
//! latency no named layer explains.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: usize,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
    last_root: Option<usize>,
}

/// The root span every op's spans hang from.
pub const OP: &str = "op";

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            last_root: None,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; nested calls become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.last_root = Some(id);
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Runs op `op` as a root span named [`OP`].
    pub fn op<T>(&mut self, op: usize, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op = op;
        self.span(OP, f)
    }

    /// Records a span with explicit bounds as a child of `parent` (or
    /// of the innermost open span when `parent` is `None`).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) {
        let parent = parent.or_else(|| self.stack.last().copied());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: self.op,
        });
    }

    /// Records op `op`'s root span after the fact, from explicit bounds.
    pub fn record_op(&mut self, op: usize, start_ns: u64, end_ns: u64) {
        self.op = op;
        self.last_root = Some(self.spans.len());
        self.record(OP, start_ns, end_ns, None);
    }

    /// Times `f` as a replayed child of span `parent`.
    pub fn replay<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.record(name, start_ns, end_ns, Some(parent));
        out
    }

    /// Index of the most recent root span.
    pub fn last_op_span(&self) -> Option<usize> {
        self.last_root
    }

    /// Self time of every span, in ms.
    fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| (s.dur_ns() as f64 - c as f64) / 1e6)
            .collect()
    }

    /// Per span name, the per-op sum of its self times (ops where the
    /// name does not occur are absent).
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let self_ms = self.self_ms();
        let mut per: BTreeMap<(&'static str, usize), f64> = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(self_ms) {
            *per.entry((s.name, s.op)).or_default() += ms;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ms) in per {
            out.entry(name).or_default().push(ms);
        }
        out
    }

    /// Duration of every root span, in ms.
    pub fn op_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// A table of total self time per span name next to the total op
    /// time, showing that named layers plus the unattributed remainder
    /// (the root spans' own self time) add up to the op latency.
    pub fn summary(&self) -> String {
        let by_name = self.self_by_name();
        let total: f64 = self.op_ms().iter().sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>7} {:>12} {:>7}",
            "span", "ops", "self_ms", "share"
        );
        let mut sum = 0.0;
        for (name, v) in &by_name {
            let s: f64 = v.iter().sum();
            sum += s;
            let label = if *name == OP { "(unattributed)" } else { name };
            let _ = writeln!(
                out,
                "{label:<22} {:>7} {s:>12.3} {:>6.2}%",
                v.len(),
                100.0 * s / total.max(1e-9)
            );
        }
        let _ = writeln!(out, "{:<22} {:>7} {sum:>12.3}", "sum of self times", "");
        let _ = writeln!(
            out,
            "{:<22} {:>7} {total:>12.3}",
            "op latency",
            self.op_ms().len()
        );
        out
    }

    /// The spans as JSON lines: one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

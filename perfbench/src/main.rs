//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_route|eco_delta|serve_mix> [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Each workload runs a fixed op list, a pure function of the workload
//! and the seed, against the public APIs of `mebl-route`,
//! `mebl-shard`, `mebl-delta` and `mebl-serve`, checks every output, and
//! prints one JSON line. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the op list untraced and then traced, checks that
//! both give the same per-op output fingerprints, and prints the
//! per-layer metrics. See README.md for the metric definitions.

mod batch;
mod eco;
mod serve;
mod stats;
mod trace;

use stats::{median, percentile, result_line, Metrics, Quality};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2013;

/// What one pass over a workload's op list produced.
pub struct RunOutput {
    /// Median time of the run's set-ups, in seconds.
    pub setup_s: f64,
    /// Latency of every op, in op-list order.
    pub op_ms: Vec<f64>,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    pub attempted: u64,
    /// Ops that returned an error or failed an output check.
    pub failed: u64,
    pub quality: Quality,
    /// Per-op output fingerprints (0 for an op without output).
    pub fingerprints: Vec<u64>,
    /// Per-layer metrics: span-derived ones from a traced pass, output
    /// check times from an untraced one.
    pub layer: Metrics,
    pub trace: Option<Tracer>,
}

pub trait Workload {
    fn run(&self, seed: u64, n_ops: usize, traced: bool) -> RunOutput;
}

/// A run's set-ups, spread evenly over its timed phase: the first before
/// op 0, the last after the final op, the rest between ops. Their median
/// then tracks the host over the same window as the op latencies.
pub struct Setups {
    /// How many set-ups are due before op `i`; index `n_ops` is after the
    /// last op.
    due: Vec<usize>,
    times: Vec<f64>,
}

impl Setups {
    pub fn new(n_ops: usize, count: usize) -> Self {
        assert!(count >= 2, "a set-up before and after the timed phase");
        let mut due = vec![0; n_ops + 1];
        for k in 0..count {
            due[k * n_ops / (count - 1)] += 1;
        }
        Self {
            due,
            times: Vec::new(),
        }
    }

    /// Runs the set-ups due before op `i`; `setup` returns the time one
    /// set-up measured. Returns the wall time of the whole call, which
    /// the caller keeps out of the timed phase.
    pub fn run_due(&mut self, i: usize, mut setup: impl FnMut() -> f64) -> f64 {
        let t0 = Instant::now();
        for _ in 0..self.due[i] {
            self.times.push(setup());
        }
        t0.elapsed().as_secs_f64()
    }

    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Fewest ops in a run: p95 then has at least ten samples beyond it.
const MIN_OPS: usize = 200;

/// Each workload and its op count. The counts are fixed, so a run's
/// quality metrics and counts depend only on the seed; they are sized so
/// the timed phase lasts 10–15 s on the 2-core reference host.
const WORKLOADS: [(&str, usize); 3] = [
    ("batch_route", 900),
    ("eco_delta", 6300),
    ("serve_mix", 2250),
];
const _: () =
    assert!(WORKLOADS[0].1 >= MIN_OPS && WORKLOADS[1].1 >= MIN_OPS && WORKLOADS[2].1 >= MIN_OPS);

fn workload(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "batch_route" => Some(Box::new(batch::Batch)),
        "eco_delta" => Some(Box::new(eco::Eco)),
        "serve_mix" => Some(Box::new(serve::Serve)),
        _ => None,
    }
}

/// Every per-layer metric, in print order. A traced run reports each
/// one; a layer its workload does not call reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("route.validate_ms", "ms"),
    ("global.route_ms", "ms"),
    ("global.expansions_per_net", "count"),
    ("assign.tracks_ms", "ms"),
    ("assign.bad_ends_per_knet", "count"),
    ("detailed.route_ms", "ms"),
    ("detailed.expansions_per_net", "count"),
    ("detailed.share_pct", "%"),
    ("route.report_ms", "ms"),
    ("shard.split_ms", "ms"),
    ("shard.panels_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("shard.jobs_per_op", "count"),
    ("shard.residual_pct", "%"),
    ("delta.apply_ms", "ms"),
    ("delta.closure_ms", "ms"),
    ("delta.patch_ms", "ms"),
    ("delta.global_ms", "ms"),
    ("delta.assign_ms", "ms"),
    ("delta.detailed_ms", "ms"),
    ("delta.check_ms", "ms"),
    ("delta.rerouted_per_op", "count"),
    ("serve.miss_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.disk_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.resolve_ms", "ms"),
    ("serve.key_ms", "ms"),
    ("serve.work_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.hit_pct", "%"),
    ("store.hit_pct", "%"),
    ("serve.uncacheable_pct", "%"),
    ("audit.check_ms", "ms"),
    ("op.unattributed_ms", "ms"),
    ("trace.unattributed_pct", "%"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Expands timed entries of [`PER_LAYER`] into their `.p50`/`.p95` names.
fn per_layer_names() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .flat_map(|&(name, unit)| {
            if name.ends_with("_ms") {
                vec![(format!("{name}.p50"), unit), (format!("{name}.p95"), unit)]
            } else {
                vec![(name.to_string(), unit)]
            }
        })
        .collect()
}

/// A fresh directory for files a run writes, inside the build output
/// directory the benchmark binary lives in.
pub fn scratch_dir(name: &str) -> PathBuf {
    let root = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    let dir = root
        .join("perfbench-scratch")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    dir
}

/// A fixed CPU loop that does not call the program: its time tracks
/// host speed drift across and within runs.
fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..8_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

fn end_to_end(run: &RunOutput) -> Metrics {
    let q = &run.quality;
    let mut m = Metrics::default();
    m.put("setup_s", run.setup_s, "s");
    m.put("op_p50_ms", percentile(&run.op_ms, 50.0), "ms");
    m.put("op_p95_ms", percentile(&run.op_ms, 95.0), "ms");
    m.put(
        "ops_per_s",
        run.op_ms.len() as f64 / run.wall_s.max(1e-9),
        "1/s",
    );
    m.put(
        "ok_pct",
        100.0 * (run.attempted - run.failed) as f64 / run.attempted.max(1) as f64,
        "%",
    );
    m.put("routability_pct", q.routability_pct(), "%");
    m.put("sp_per_knet", q.sp_per_knet(), "1/knet");
    m.put("vv_per_knet", q.vv_per_knet(), "1/knet");
    m.put("wirelength_per_net", q.wirelength_per_net(), "pitch/net");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    m
}

/// Untraced then traced pass over the same op list: whether their
/// outputs agree, the untraced pass, and the per-layer metrics.
fn traced_run(w: &dyn Workload, name: &str, seed: u64, n_ops: usize) -> (bool, RunOutput, Metrics) {
    let mut calib: Vec<f64> = (0..5).map(|_| calib_ms()).collect();
    let plain = w.run(seed, n_ops, false);
    let traced = w.run(seed, n_ops, true);
    calib.extend((0..5).map(|_| calib_ms()));

    let same = plain.fingerprints == traced.fingerprints && plain.quality == traced.quality;
    if !same {
        eprintln!("perfbench: traced outputs differ from untraced outputs");
    }
    let plain_total: f64 = plain.op_ms.iter().sum();
    let traced_total: f64 = traced.op_ms.iter().sum();

    let mut values = traced.layer.clone();
    values.0.extend(plain.layer.0.iter().cloned());
    values.put_dist("host.calib_ms", &calib, "ms");
    values.put(
        "trace.overhead_pct",
        100.0 * (traced_total - plain_total) / plain_total.max(1e-9),
        "%",
    );
    if let Some(tracer) = &traced.trace {
        // Each op's root span keeps what no named layer explains.
        let unattributed = tracer.self_by_name().remove(trace::OP).unwrap_or_default();
        let op_total: f64 = tracer.op_ms().iter().sum();
        values.put_dist("op.unattributed_ms", &unattributed, "ms");
        values.put(
            "trace.unattributed_pct",
            100.0 * unattributed.iter().sum::<f64>() / op_total.max(1e-9),
            "%",
        );
        let path = scratch_dir("trace").join(format!("{name}-seed{seed}.jsonl"));
        if std::fs::write(&path, tracer.to_jsonl()).is_ok() {
            eprintln!("perfbench: spans written to {}", path.display());
        }
        eprint!("{}", tracer.summary());
    }
    let mut metrics = Metrics::default();
    for (metric, unit) in per_layer_names() {
        metrics.put(metric.clone(), values.get(&metric).unwrap_or(0.0), unit);
    }
    (same, plain, metrics)
}

/// Runs every workload twice at a tiny size and once traced, and checks
/// that quality, counts and per-op fingerprints repeat exactly; then
/// runs a second seed and checks it reports the same metric names.
fn self_test(seed: u64) -> bool {
    let mut ok = true;
    for (name, n_ops) in [("batch_route", 20), ("eco_delta", 60), ("serve_mix", 40)] {
        let w = workload(name).expect("known workload");
        let a = w.run(seed, n_ops, false);
        let b = w.run(seed, n_ops, false);
        let (traced_same, _, _) = traced_run(w.as_ref(), name, seed, n_ops);
        let other = w.run(seed + 1, n_ops, false);
        let checks = [
            ("fingerprints repeat", a.fingerprints == b.fingerprints),
            ("quality repeats", a.quality == b.quality),
            (
                "counts repeat",
                (a.attempted, a.failed) == (b.attempted, b.failed),
            ),
            ("traced run reproduces fingerprints", traced_same),
            (
                "second seed reports the same metrics",
                end_to_end(&a).names() == end_to_end(&other).names(),
            ),
            ("second seed differs", a.fingerprints != other.fingerprints),
        ];
        for (what, pass) in checks {
            eprintln!(
                "self-test {name}: {what}: {}",
                if pass { "ok" } else { "FAILED" }
            );
            ok &= pass;
        }
        eprintln!(
            "self-test {name}: seed {seed}: {} ops, {} failed; seed {}: {} ops, {} failed",
            a.attempted,
            a.failed,
            seed + 1,
            other.attempted,
            other.failed
        );
    }
    ok
}

struct Args {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = number()?,
            // Part of the standard benchmark command line
            // (`--workload --seed --seconds --trace`), so it is accepted,
            // but ignored: the op lists are fixed, so a run lasts as long
            // as its op list takes.
            "--seconds" => {
                number()?;
            }
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N (default {DEFAULT_SEED})] \
         [--seconds S (ignored)] [--trace 0|1]\n       perfbench --self-test [--seed N]",
        WORKLOADS.map(|(name, _)| name).join("|")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return if self_test(args.seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("perfbench: --workload is required\n{}", usage());
        return ExitCode::from(2);
    };
    let (Some(w), Some(&(_, n_ops))) = (workload(name), WORKLOADS.iter().find(|w| w.0 == name))
    else {
        eprintln!("perfbench: unknown workload {name}\n{}", usage());
        return ExitCode::from(2);
    };
    let (correct, run, metrics) = if args.trace {
        traced_run(w.as_ref(), name, args.seed, n_ops)
    } else {
        let run = w.run(args.seed, n_ops, false);
        let metrics = end_to_end(&run);
        (true, run, metrics)
    };
    eprintln!(
        "perfbench: {name} seed {} ops {} failed {} timed {:.2}s setup {:.3}s op p50 {:.3}ms",
        args.seed,
        run.attempted,
        run.failed,
        run.wall_s,
        run.setup_s,
        median(&run.op_ms)
    );
    println!(
        "{}",
        result_line(correct, run.attempted, run.failed, &metrics)
    );
    ExitCode::SUCCESS
}

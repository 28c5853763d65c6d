//! `batch_route`: batch routing as `mebl route <file> [--shards 2]` does
//! it. Each op parses one design's text and routes it with the
//! stitch-aware preset at one worker; a fixed share of ops route with
//! two shards instead.

use crate::stats::{fnv1a, Metrics, Quality};
use crate::trace::Tracer;
use crate::{RunOutput, Setups, Workload};
use mebl_assign::{assign_tracks, extract_panels};
use mebl_control::{CancelToken, Degradation};
use mebl_detailed::{route_detailed, DetailedResult};
use mebl_global::{route_circuit, GlobalResult};
use mebl_netlist::{
    circuit_from_str, circuit_to_string, full_suite, BenchmarkSpec, Circuit, CircuitIssue,
    GenerateConfig,
};
use mebl_route::{build_report, Pool, RouteReport, Router, RouterConfig, RoutingOutcome};
use mebl_shard::{
    fragment_config, merge_fragments, route_sharded, FragmentOutcome, ShardOptions, ShardPlan,
};
use mebl_stitch::StitchPlan;
use mebl_testkit::{Rng, Xoshiro256pp};
use std::time::Instant;

/// Smallest and largest design in the op list, in nets.
const MIN_NETS: f64 = 20.0;
const MAX_NETS: f64 = 600.0;
/// Skew of the size ladder toward small designs: slot quantile `q`
/// gets `MIN_NETS * (MAX_NETS / MIN_NETS)^(q^SIZE_SKEW)` nets.
const SIZE_SKEW: f64 = 2.5;
/// Share of the list, taken from the largest slots down, that keeps a
/// fixed generator seed. These slots hold nearly all of the slowest 5% of
/// ops and the process's peak memory, which vary with the instance: with
/// only the largest 3% fixed, `op_p95_ms` spread 0.28 over ten seeds; with
/// none fixed, `peak_rss_mb` spread 0.32.
const FIXED_TOP_SHARE: f64 = 0.15;
/// Ladder slots (mod 14) that route with two shards: 3 ops in 14, a
/// chosen share (not measured CLI use) that gives the shard layers a
/// few hundred ops a run while monolithic routing stays the majority.
const SHARDED_SLOTS: [usize; 3] = [2, 7, 11];
/// Shard count of the sharded ops (`mebl route --shards 2`).
const SHARDS: usize = 2;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 11;

#[derive(Debug, Clone)]
struct Op {
    spec: BenchmarkSpec,
    nets: usize,
    gen_seed: u64,
    sharded: bool,
}

/// The op list. Slot `i` of the size ladder gets quantile
/// `(i + 0.5) / n` of the size distribution, circuit `(i + i / 14) % 14`
/// (so every circuit visits every size band) and two shards when
/// `i % 14` is one of [`SHARDED_SLOTS`]. Ops run in a fixed scrambled
/// order of the slots. Mix and order are the same for every seed; the
/// seed draws each op's generator seed, except in the largest
/// [`FIXED_TOP_SHARE`] of the slots.
fn op_list(seed: u64, n_ops: usize) -> Vec<Op> {
    let mut rng = Xoshiro256pp::from_seed(seed ^ 0xba7c_0000);
    let suite = full_suite();
    let n = suite.len();
    let fixed = (FIXED_TOP_SHARE * n_ops as f64) as usize;
    let ops: Vec<Op> = (0..n_ops)
        .map(|slot| {
            let q = (slot as f64 + 0.5) / n_ops as f64;
            let nets = MIN_NETS * (MAX_NETS / MIN_NETS).powf(q.powf(SIZE_SKEW));
            let drawn = rng.next_u64() % 1_000_000;
            Op {
                spec: suite[(slot + slot / n) % n],
                nets: nets.round() as usize,
                gen_seed: if slot + fixed >= n_ops {
                    slot as u64
                } else {
                    drawn
                },
                sharded: SHARDED_SLOTS.contains(&(slot % n)),
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..n_ops).collect();
    order.sort_by_key(|&slot| {
        (slot as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    });
    order.into_iter().map(|slot| ops[slot].clone()).collect()
}

fn generate(spec: &BenchmarkSpec, nets: usize, seed: u64) -> Circuit {
    spec.generate(&GenerateConfig {
        seed,
        net_scale: (nets as f64 / spec.nets as f64).min(1.0),
        ..GenerateConfig::default()
    })
}

fn config() -> RouterConfig {
    RouterConfig::stitch_aware()
}

/// One op as the CLI runs it: parse, then `Router::try_route` or
/// `route_sharded`.
fn run_op(text: &str, sharded: bool) -> Result<(Circuit, RoutingOutcome), String> {
    let circuit = circuit_from_str(text).map_err(|e| e.to_string())?;
    let outcome = if sharded {
        route_sharded(&circuit, &ShardOptions::new(SHARDS))
            .map_err(|e| e.to_string())?
            .outcome
    } else {
        Router::new(config())
            .try_route(&circuit)
            .map_err(|e| e.to_string())?
    };
    Ok((circuit, outcome))
}

/// Per-op layer counts gathered by the traced run.
#[derive(Debug, Default)]
struct Counts {
    nets: u64,
    global_exp: u64,
    detailed_exp: u64,
    bad_ends: u64,
    sharded_ops: u64,
    sharded_nets: u64,
    jobs: u64,
    residual_nets: u64,
}

/// The parts of an op's outcome that its fingerprint and quality cover.
struct Output {
    global: GlobalResult,
    detailed: DetailedResult,
    report: RouteReport,
    degradations: Vec<Degradation>,
}

impl From<RoutingOutcome> for Output {
    fn from(outcome: RoutingOutcome) -> Self {
        let RoutingOutcome {
            global,
            detailed,
            report,
            degradations,
            ..
        } = outcome;
        Output {
            global,
            detailed,
            report,
            degradations,
        }
    }
}

/// The same op, traced: the stage calls of `Router::run_with` (or of
/// `route_sharded_under`) made one by one, in the same order and with
/// the same config, each inside its own span.
fn run_op_traced(
    t: &mut Tracer,
    text: &str,
    sharded: bool,
    counts: &mut Counts,
) -> Result<Output, String> {
    let circuit = t
        .span("netlist.parse", |_| circuit_from_str(text))
        .map_err(|e| e.to_string())?;
    if sharded {
        let opts = ShardOptions::new(SHARDS);
        let stitch = opts.stitch();
        let mut probe = config();
        probe.stitch = stitch;
        probe.global.tile_size = stitch.period;
        let issues = t.span("route.validate", |_| Router::new(probe).validate(&circuit));
        if issues.iter().any(CircuitIssue::is_error) {
            return Err("invalid circuit".into());
        }
        let plan = t.span("shard.split", |_| ShardPlan::new(&circuit, stitch));
        let pool = Pool::new(opts.shards.min(plan.jobs.len()).max(1));
        let interrupt = CancelToken::armed(None, None);
        let fragments = t.span("shard.panels", |_| {
            pool.par_map_indexed(&plan.jobs, |_, job| {
                Router::new(fragment_config(false, job.period, opts.budget))
                    .try_route_under(&job.circuit, &interrupt)
                    .map(|o| FragmentOutcome::from_outcome(&o))
                    .map_err(|e| e.to_string())
            })
        });
        let fragments = fragments.into_iter().collect::<Result<Vec<_>, _>>()?;
        counts.sharded_ops += 1;
        counts.sharded_nets += circuit.net_count() as u64;
        counts.jobs += plan.jobs.len() as u64;
        counts.residual_nets += plan.residual_net_count() as u64;
        let merged = t.span("shard.merge", |_| {
            merge_fragments(&circuit, false, &plan, &fragments)
        });
        Ok(Output::from(merged))
    } else {
        let config = config();
        let router = Router::new(config.clone());
        let issues = t.span("route.validate", |_| router.validate(&circuit));
        if issues.iter().any(CircuitIssue::is_error) {
            return Err("invalid circuit".into());
        }
        let start = Instant::now();
        let plan = StitchPlan::new(circuit.outline(), config.stitch);
        // One armed, boundless token per stage: behaviorally the run's
        // shared token, but it counts each stage's expansions apart.
        let tokens = [(); 3].map(|()| CancelToken::armed(None, None));

        let mut global_config = config.global.clone();
        global_config.cancel = tokens[0].clone();
        global_config.pool = config.pool;
        let global = t.span("global.route", |_| {
            route_circuit(&circuit, &plan, &global_config)
        });

        let mut track_config = config.track.clone();
        track_config.cancel = tokens[1].clone();
        track_config.pool = config.pool;
        let tracks = t.span("assign.tracks", |_| {
            let panels = extract_panels(&global);
            assign_tracks(
                &panels,
                &global.graph,
                &plan,
                circuit.layer_count(),
                &track_config,
            )
        });

        let mut detailed_config = config.detailed.clone();
        detailed_config.cancel = tokens[2].clone();
        detailed_config.pool = config.pool;
        let detailed = t.span("detailed.route", |_| {
            route_detailed(&circuit, &plan, &global.graph, &tracks, &detailed_config)
        });

        let report = t.span("route.report", |_| {
            build_report(&circuit, &plan, &detailed, start.elapsed())
        });
        counts.nets += circuit.net_count() as u64;
        counts.global_exp += tokens[0].expansions();
        counts.detailed_exp += tokens[2].expansions();
        counts.bad_ends += tracks.bad_ends as u64;
        Ok(Output {
            global,
            detailed,
            report,
            degradations: tokens
                .iter()
                .flat_map(CancelToken::take_degradations)
                .collect(),
        })
    }
}

/// The checks of every op's output, made right after the op and kept
/// out of its latency: a strict audit (no errors, no warnings), the
/// quality columns, and a fingerprint of the routes, geometry, routed
/// flags and degradations.
#[derive(Debug)]
pub struct Checks {
    /// Whether to audit. A traced pass skips it: its fingerprints must
    /// equal those of the untraced pass, whose outputs were audited.
    audit: bool,
    pub quality: Quality,
    pub fingerprints: Vec<u64>,
    /// Ops that returned an error or failed the audit.
    pub failed: u64,
    pub audit_ms: Vec<f64>,
    /// Time spent checking, excluded from the timed phase.
    pub seconds: f64,
}

impl Checks {
    pub fn new(audit: bool) -> Self {
        Self {
            audit,
            quality: Quality::default(),
            fingerprints: Vec::new(),
            failed: 0,
            audit_ms: Vec::new(),
            seconds: 0.0,
        }
    }

    pub fn routed(&mut self, circuit: &Circuit, config: &RouterConfig, outcome: &RoutingOutcome) {
        let t0 = Instant::now();
        if self.audit {
            let audit = mebl_audit::audit_outcome(circuit, config, outcome);
            self.audit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if audit.error_count() > 0 || audit.warning_count() > 0 {
                self.failed += 1;
            }
        }
        self.seconds += t0.elapsed().as_secs_f64();
        self.record(
            &outcome.global,
            &outcome.detailed,
            &outcome.report,
            &outcome.degradations,
        );
    }

    /// Records one output's quality columns and fingerprint.
    fn record(
        &mut self,
        global: &GlobalResult,
        detailed: &DetailedResult,
        report: &RouteReport,
        degradations: &[Degradation],
    ) {
        let t0 = Instant::now();
        self.quality += Quality::of_report(report);
        let text = format!(
            "{:?}|{:?}|{:?}|{degradations:?}",
            global.routes, detailed.geometry, detailed.routed
        );
        self.fingerprints.push(fnv1a(text.as_bytes()));
        self.seconds += t0.elapsed().as_secs_f64();
    }

    pub fn error(&mut self) {
        self.failed += 1;
        self.fingerprints.push(0);
    }
}

pub struct Batch;

impl Workload for Batch {
    fn run(&self, seed: u64, n_ops: usize, traced: bool) -> RunOutput {
        let ops = op_list(seed, n_ops);
        let warm = generate(
            &BenchmarkSpec::by_name("S5378").expect("suite circuit"),
            100,
            1,
        );
        let warm_text = circuit_to_string(&warm);

        // Set-up: generate every design of the op list (as `mebl gen`
        // does) plus one untimed warm-up route.
        let setup = || {
            let t0 = Instant::now();
            let texts: Vec<String> = ops
                .iter()
                .map(|op| circuit_to_string(&generate(&op.spec, op.nets, op.gen_seed)))
                .collect();
            let _ = run_op(&warm_text, false);
            (t0.elapsed().as_secs_f64(), texts)
        };
        let mut setups = Setups::new(ops.len(), SETUPS);
        let mut texts = Vec::new();
        setups.run_due(0, || {
            let (s, t) = setup();
            texts = t;
            s
        });

        let mut tracer = Tracer::new();
        let mut counts = Counts::default();
        let mut checks = Checks::new(!traced);
        let mut op_ms = Vec::with_capacity(ops.len());
        let mut paused_s = 0.0;
        let wall = Instant::now();
        for (i, (op, text)) in ops.iter().zip(&texts).enumerate() {
            let t0 = Instant::now();
            if traced {
                let out = tracer.op(i, |t| run_op_traced(t, text, op.sharded, &mut counts));
                op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                match out {
                    Ok(o) => checks.record(&o.global, &o.detailed, &o.report, &o.degradations),
                    Err(_) => checks.error(),
                }
            } else {
                let out = run_op(text, op.sharded);
                op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                match out {
                    Ok((circuit, outcome)) => checks.routed(&circuit, &config(), &outcome),
                    Err(_) => checks.error(),
                }
            }
            paused_s += setups.run_due(i + 1, || setup().0);
        }
        let wall_s = wall.elapsed().as_secs_f64() - checks.seconds - paused_s;
        let Checks {
            quality,
            fingerprints,
            failed,
            audit_ms,
            ..
        } = checks;

        let mut layer = Metrics::default();
        if !traced {
            layer.put_dist("audit.check_ms", &audit_ms, "ms");
        } else {
            let by_name = tracer.self_by_name();
            let dist = |name: &str| by_name.get(name).cloned().unwrap_or_default();
            let detailed_total: f64 = dist("detailed.route").iter().sum();
            let mono_total: f64 = ops
                .iter()
                .zip(tracer.op_ms())
                .filter(|(op, _)| !op.sharded)
                .map(|(_, ms)| ms)
                .sum();
            let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
            layer.put_dist("netlist.parse_ms", &dist("netlist.parse"), "ms");
            layer.put_dist("route.validate_ms", &dist("route.validate"), "ms");
            layer.put_dist("global.route_ms", &dist("global.route"), "ms");
            layer.put(
                "global.expansions_per_net",
                per(counts.global_exp, counts.nets),
                "count",
            );
            layer.put_dist("assign.tracks_ms", &dist("assign.tracks"), "ms");
            layer.put(
                "assign.bad_ends_per_knet",
                1000.0 * per(counts.bad_ends, counts.nets),
                "count",
            );
            layer.put_dist("detailed.route_ms", &dist("detailed.route"), "ms");
            layer.put(
                "detailed.expansions_per_net",
                per(counts.detailed_exp, counts.nets),
                "count",
            );
            layer.put(
                "detailed.share_pct",
                100.0 * detailed_total / mono_total.max(1e-9),
                "%",
            );
            layer.put_dist("route.report_ms", &dist("route.report"), "ms");
            layer.put_dist("shard.split_ms", &dist("shard.split"), "ms");
            layer.put_dist("shard.panels_ms", &dist("shard.panels"), "ms");
            layer.put_dist("shard.merge_ms", &dist("shard.merge"), "ms");
            layer.put(
                "shard.jobs_per_op",
                per(counts.jobs, counts.sharded_ops),
                "count",
            );
            layer.put(
                "shard.residual_pct",
                100.0 * per(counts.residual_nets, counts.sharded_nets),
                "%",
            );
        }

        RunOutput {
            setup_s: setups.median_s(),
            op_ms,
            wall_s,
            attempted: ops.len() as u64,
            failed,
            quality,
            fingerprints,
            layer,
            trace: traced.then_some(tracer),
        }
    }
}

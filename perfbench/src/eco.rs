//! `eco_delta`: the ECO loop. Set-up routes the fully routed MCNC base
//! designs; each op applies one seeded edit list to one base with
//! `mebl_delta::route_delta` against that base's prior outcome.
//!
//! Edit lists come from this file's own generator, never from the
//! program's validator, so the op list is the same on every commit.
//! `AddNet` pins are drawn independently, so a net whose pins coincide
//! occurs at its natural rate.

use crate::batch::Checks;
use crate::stats::Metrics;
use crate::trace::Tracer;
use crate::{RunOutput, Setups, Workload};
use mebl_delta::{affected_nets, apply_edits, route_delta, CircuitEdit};
use mebl_geom::{Layer, Point, Rect};
use mebl_netlist::{BenchmarkSpec, Circuit, GenerateConfig, Pin};
use mebl_route::{Router, RouterConfig, RoutingOutcome};
use mebl_testkit::{Rng, Xoshiro256pp};
use std::time::{Duration, Instant};

/// Size of each base design, in nets.
const BASE_NETS: usize = 240;
/// The bases: every MCNC circuit at [`BASE_NETS`] nets, each with a fixed
/// generator seed. Each seed is the first of 1, 2, 3, ... whose
/// from-scratch stitch-aware route was complete when this table was
/// made (unrouted nets join every delta closure, so bases must be fully
/// routed). The table is constant so that the op list does not depend on
/// the router: a base that stops routing fully shows as lower
/// routability, not as a different workload. The bases are the same for
/// every seed; the seed draws the edit lists.
const BASES: [(&str, u64); 9] = [
    ("Struct", 3),
    ("Primary1", 1),
    ("Primary2", 5),
    ("S5378", 3),
    ("S9234", 1),
    ("S13207", 3),
    ("S15850", 1),
    ("S38417", 2),
    ("S38584", 1),
];
/// Edit mix, a chosen value rather than measured ECO traffic: most edit
/// lists move one net, as a late placement fix does; the other kinds
/// get a tenth each so that every kind occurs hundreds of times a run.
/// Cumulative shares of move, add, remove (the rest add a blockage).
const MOVE_SHARE: f64 = 0.70;
const ADD_SHARE: f64 = 0.80;
const REMOVE_SHARE: f64 = 0.90;
/// Largest move, in pitches per axis.
const MAX_MOVE: i32 = 3;
/// Half-width of the window an added net's pins are drawn in, and the
/// share of added nets with three pins (the rest have two).
const ADD_RADIUS: i32 = 10;
const ADD_THREE_PIN_SHARE: f64 = 0.3;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 11;

fn config() -> RouterConfig {
    RouterConfig::stitch_aware()
}

fn bases() -> Vec<Circuit> {
    BASES
        .iter()
        .map(|&(name, seed)| {
            let spec = BenchmarkSpec::by_name(name).expect("MCNC suite circuit");
            spec.generate(&GenerateConfig {
                seed,
                net_scale: (BASE_NETS as f64 / spec.nets as f64).min(1.0),
                ..GenerateConfig::default()
            })
        })
        .collect()
}

fn rand_point(rng: &mut Xoshiro256pp, r: Rect) -> Point {
    Point::new(
        rng.gen_range(r.x0()..=r.x1()),
        rng.gen_range(r.y0()..=r.y1()),
    )
}

/// One seeded edit list against `base`. Edits respect what an ECO tool
/// must (pins inside the outline, no blockage over a pin); nothing else
/// is filtered.
fn edit_list(rng: &mut Xoshiro256pp, base: &Circuit) -> Vec<CircuitEdit> {
    let outline = base.outline();
    let nets = base.nets();
    let r = rng.gen_f64();
    if r < MOVE_SHARE {
        loop {
            let net = &nets[rng.gen_index(nets.len())];
            let bbox = net.bounding_box();
            let dx = rng.gen_range(-MAX_MOVE..=MAX_MOVE);
            let dy = rng.gen_range(-MAX_MOVE..=MAX_MOVE);
            let moved = Rect::new(
                bbox.x0() + dx,
                bbox.y0() + dy,
                bbox.x1() + dx,
                bbox.y1() + dy,
            );
            if (dx, dy) != (0, 0) && outline.contains_rect(moved) {
                return vec![CircuitEdit::MoveNet {
                    name: net.name().to_string(),
                    dx,
                    dy,
                }];
            }
        }
    } else if r < ADD_SHARE {
        let center = rand_point(rng, outline);
        let window = Rect::new(
            (center.x - ADD_RADIUS).max(outline.x0()),
            (center.y - ADD_RADIUS).max(outline.y0()),
            (center.x + ADD_RADIUS).min(outline.x1()),
            (center.y + ADD_RADIUS).min(outline.y1()),
        );
        let pin_count = if rng.gen_bool(ADD_THREE_PIN_SHARE) {
            3
        } else {
            2
        };
        let pins = (0..pin_count)
            .map(|_| Pin::new(rand_point(rng, window), Layer::new(0)))
            .collect();
        vec![CircuitEdit::AddNet {
            name: "eco_added".to_string(),
            pins,
        }]
    } else if r < REMOVE_SHARE {
        vec![CircuitEdit::RemoveNet {
            name: nets[rng.gen_index(nets.len())].name().to_string(),
        }]
    } else {
        loop {
            let w = rng.gen_range(2..=6);
            let h = rng.gen_range(2..=6);
            let x0 = rng.gen_range(outline.x0()..=outline.x1() - w);
            let y0 = rng.gen_range(outline.y0()..=outline.y1() - h);
            let rect = Rect::new(x0, y0, x0 + w, y0 + h);
            let covers_pin = nets
                .iter()
                .any(|n| n.pins().iter().any(|p| rect.contains(p.position)));
            if !covers_pin {
                return vec![CircuitEdit::AddBlockage { rect }];
            }
        }
    }
}

struct Op {
    base: usize,
    edits: Vec<CircuitEdit>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub struct Eco;

impl Workload for Eco {
    fn run(&self, seed: u64, n_ops: usize, traced: bool) -> RunOutput {
        let mut rng = Xoshiro256pp::from_seed(seed ^ 0xec0_0000);
        let bases = bases();
        let ops: Vec<Op> = (0..n_ops)
            .map(|i| {
                let base = i % bases.len();
                Op {
                    base,
                    edits: edit_list(&mut rng, &bases[base]),
                }
            })
            .collect();
        let config = config();
        let warm_edit = [CircuitEdit::RemoveNet {
            name: bases[0].nets()[0].name().to_string(),
        }];

        // Set-up: route every base from scratch (the priors), plus one
        // warm-up delta.
        let setup = || {
            let t0 = Instant::now();
            let priors: Vec<RoutingOutcome> = bases
                .iter()
                .map(|b| Router::new(config.clone()).route(b))
                .collect();
            let _ = route_delta(&bases[0], &priors[0], &warm_edit, &config);
            (t0.elapsed().as_secs_f64(), priors)
        };
        let mut setups = Setups::new(ops.len(), SETUPS);
        let mut priors = Vec::new();
        setups.run_due(0, || {
            let (s, p) = setup();
            priors = p;
            s
        });

        let mut tracer = Tracer::new();
        let mut checks = Checks::new(!traced);
        let mut rerouted = Vec::with_capacity(ops.len());
        let mut op_ms = Vec::with_capacity(ops.len());
        let mut paused_s = 0.0;
        let wall = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let (base, prior) = (&bases[op.base], &priors[op.base]);
            let t0 = Instant::now();
            let out = if traced {
                tracer.op(i, |t| {
                    // The public calls route_delta makes first, timed on
                    // their own; their cost is repeated inside the patch.
                    let plan = t.span("delta.apply", |_| apply_edits(base, &op.edits));
                    if let Ok(plan) = &plan {
                        let _ = t.span("delta.closure", |_| affected_nets(prior, plan));
                    }
                    t.span("delta.patch", |t| {
                        let start = t.now_ns();
                        let out = route_delta(base, prior, &op.edits, &config);
                        // The outcome's own stage timers, laid end to end
                        // as children of the patch span.
                        if let Ok(d) = &out {
                            let mut at = start;
                            for (name, dur) in [
                                ("delta.global", d.outcome.timings.global),
                                ("delta.assign", d.outcome.timings.assignment),
                                ("delta.detailed", d.outcome.timings.detailed),
                                ("delta.check", d.outcome.timings.check),
                            ] {
                                let end = at + dur.as_nanos() as u64;
                                t.record(name, at, end, None);
                                at = end;
                            }
                        }
                        out
                    })
                })
            } else {
                route_delta(base, prior, &op.edits, &config)
            };
            op_ms.push(ms(t0.elapsed()));
            match out {
                Ok(d) => {
                    checks.routed(&d.circuit, &config, &d.outcome);
                    rerouted.push(d.rerouted.len() as f64);
                }
                Err(_) => checks.error(),
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
            for name in [
                "delta.apply",
                "delta.closure",
                "delta.patch",
                "delta.global",
                "delta.assign",
                "delta.detailed",
                "delta.check",
            ] {
                layer.put_dist(&format!("{name}_ms"), &dist(name), "ms");
            }
            let total_rerouted: f64 = rerouted.iter().sum();
            layer.put(
                "delta.rerouted_per_op",
                total_rerouted / rerouted.len().max(1) as f64,
                "count",
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

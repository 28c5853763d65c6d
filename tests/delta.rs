//! Delta-vs-scratch differential harness for the incremental router.
//!
//! `mebl_delta::route_delta` patches a prior outcome instead of routing
//! from scratch; this suite pins its contract on real benchmark
//! circuits under seeded random edit sequences:
//!
//! * every delta outcome audits **strict-clean** (zero errors *and*
//!   zero warnings from the independent verifier) against the edited
//!   circuit;
//! * an empty edit list reproduces the prior outcome bit-identically;
//! * quality stays within bands of a from-scratch route of the edited
//!   circuit: no more than two fewer routed nets, combined wire
//!   objective (wirelength + `via_cost`·vias) within 10% plus a floor
//!   of eight average net costs, and `#VV`/`#SP` within +2 — the
//!   incremental route keeps preserved nets frozen, so it may not find
//!   the globally best trade, but it must stay close;
//! * preserved nets keep their prior geometry byte-identical.
//!
//! Edit sequences are generated per seed: net removals, new nets on
//! free cells (off stitching lines), small net moves and pin-free
//! blockages — each candidate is accepted only if `apply_edits` plus
//! circuit validation admit it, so the harness exercises the routing
//! path, not the rejection path (tests/robustness.rs covers hostile
//! edits).

use mebl_audit::audit_outcome;
use mebl_control::DegradationKind;
use mebl_delta::{apply_edits, route_delta, CircuitEdit};
use mebl_geom::{Layer, Point, Rect};
use mebl_netlist::{BenchmarkSpec, Circuit, CircuitIssue, GenerateConfig, Pin};
use mebl_route::{Router, RouterConfig, RoutingOutcome, RunBudget};
use mebl_stitch::StitchPlan;
use mebl_testkit::{Rng, SplitMix64};
use std::collections::BTreeSet;

fn quick(name: &str, seed: u64) -> Circuit {
    BenchmarkSpec::by_name(name)
        .expect("known benchmark")
        .generate(&GenerateConfig::quick(seed))
}

/// FNV-1a over a byte stream (same constants as tests/determinism.rs).
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-sensitive fingerprint of every drawn shape of an outcome.
fn geometry_fingerprint(outcome: &RoutingOutcome) -> u64 {
    fnv1a(outcome.detailed.geometry.iter().flat_map(|g| {
        let segs = g.segments().iter().flat_map(|s| {
            let (a, b) = s.endpoints();
            [a.x, a.y, b.x, b.y, i32::from(s.layer.index())]
        });
        let vias = g
            .vias()
            .iter()
            .flat_map(|v| [v.x, v.y, i32::from(v.lower.index())]);
        segs.chain(vias)
            .flat_map(|c| c.to_le_bytes())
            .collect::<Vec<u8>>()
    }))
}

/// Generates one valid edit batch against `base`: candidates are drawn
/// from the full vocabulary and kept only when `apply_edits` + circuit
/// validation accept the batch so far.
fn edit_batch(base: &Circuit, plan_lines: &[i32], rng: &mut SplitMix64, len: usize) -> Vec<CircuitEdit> {
    let outline = base.outline();
    let lines: BTreeSet<i32> = plan_lines.iter().copied().collect();
    let occupied: BTreeSet<(i32, i32)> = base
        .nets()
        .iter()
        .flat_map(|n| n.pins().iter().map(|p| (p.position.x, p.position.y)))
        .collect();
    let mut batch: Vec<CircuitEdit> = Vec::new();
    let mut fresh = 0u32;
    let mut attempts = 0;
    while batch.len() < len && attempts < 200 {
        attempts += 1;
        let candidate = match rng.gen_index(4) {
            0 => {
                // Remove a random *original* net (never one this batch
                // added, to keep the sequence simple).
                let nets = base.nets();
                CircuitEdit::RemoveNet {
                    name: nets[rng.gen_index(nets.len())].name().to_string(),
                }
            }
            1 => {
                // A fresh two-pin net on free cells off stitching lines.
                let mut pins = Vec::new();
                for _ in 0..40 {
                    let x = rng.gen_range(outline.x0() + 1..outline.x1());
                    let y = rng.gen_range(outline.y0() + 1..outline.y1());
                    if lines.contains(&x) || occupied.contains(&(x, y)) {
                        continue;
                    }
                    let layer = rng.gen_index(usize::from(base.layer_count())) as u8;
                    pins.push(Pin::new(Point::new(x, y), Layer::new(layer)));
                    if pins.len() == 2 {
                        break;
                    }
                }
                if pins.len() < 2 {
                    continue;
                }
                fresh += 1;
                CircuitEdit::AddNet {
                    name: format!("delta_fresh_{fresh}"),
                    pins,
                }
            }
            2 => {
                let nets = base.nets();
                CircuitEdit::MoveNet {
                    name: nets[rng.gen_index(nets.len())].name().to_string(),
                    dx: rng.gen_range(-2i32..=2),
                    dy: rng.gen_range(-2i32..=2),
                }
            }
            _ => {
                // A small blockage on a pin-free patch.
                let x = rng.gen_range(outline.x0() + 1..outline.x1() - 2);
                let y = rng.gen_range(outline.y0() + 1..outline.y1() - 2);
                CircuitEdit::AddBlockage {
                    rect: Rect::new(x, y, x + 1, y + 1),
                }
            }
        };
        batch.push(candidate);
        let ok = match apply_edits(base, &batch) {
            Err(_) => false,
            Ok(plan) => !plan
                .circuit
                .validate(plan_lines)
                .iter()
                .any(CircuitIssue::is_error),
        };
        if !ok {
            batch.pop();
        }
    }
    assert!(!batch.is_empty(), "edit generator produced nothing");
    batch
}

/// Asserts the outcome audits strict-clean (no errors, no warnings)
/// against `circuit`.
fn assert_strict_clean(circuit: &Circuit, config: &RouterConfig, outcome: &RoutingOutcome, ctx: &str) {
    let audit = audit_outcome(circuit, config, outcome);
    assert_eq!(
        (audit.error_count(), audit.warning_count()),
        (0, 0),
        "{ctx}: delta outcome not strict-clean: {:#?}",
        audit.findings
    );
}

/// The eq. (10) wire objective realised by an outcome: wirelength plus
/// `via_cost` per via, over all routed nets.
fn combined_cost(outcome: &RoutingOutcome, via_cost: u64) -> u64 {
    outcome
        .detailed
        .geometry
        .iter()
        .map(|g| g.wirelength() + via_cost * g.vias().len() as u64)
        .sum()
}

/// The core differential loop: for each seed, route a benchmark, apply
/// seeded edit batches, and after every batch check strict-clean audit,
/// preserved-net byte-identity, and quality bands against a from-scratch
/// route of the same edited circuit.
#[test]
fn seeded_edit_sequences_stay_clean_and_near_scratch_quality() {
    let config = RouterConfig::stitch_aware();
    for seed in [1u64, 2, 3] {
        let mut circuit = quick("S5378", seed);
        let mut prior = Router::new(config.clone()).route(&circuit);
        let plan = StitchPlan::new(circuit.outline(), config.stitch);
        let mut rng = SplitMix64::from_seed(0xd17a_0000 ^ seed);

        for round in 0..2 {
            let ctx = format!("seed {seed} round {round}");
            let edits = edit_batch(&circuit, plan.lines(), &mut rng, 3);
            let delta = route_delta(&circuit, &prior, &edits, &config)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));

            // 1. Strict-clean audit against the edited circuit.
            assert_strict_clean(&delta.circuit, &config, &delta.outcome, &ctx);

            // 2. Preserved nets keep their prior geometry untouched.
            let edit_plan = apply_edits(&circuit, &edits).expect("batch was validated");
            let rerouted: BTreeSet<usize> = delta.rerouted.iter().copied().collect();
            let mut preserved = 0;
            for (new, origin) in edit_plan.origin.iter().enumerate() {
                let Some(old) = origin else { continue };
                if rerouted.contains(&new) {
                    continue;
                }
                assert_eq!(
                    delta.outcome.detailed.geometry[new], prior.detailed.geometry[*old],
                    "{ctx}: preserved net {new} geometry changed"
                );
                preserved += 1;
            }
            assert!(preserved > 0, "{ctx}: closure ripped up every net");

            // 3. Quality bands vs a from-scratch route of the edited
            //    circuit.
            let scratch = Router::new(config.clone()).route(&delta.circuit);
            assert!(
                delta.outcome.report.routed_nets + 2 >= scratch.report.routed_nets,
                "{ctx}: delta routed {} nets, scratch {}",
                delta.outcome.report.routed_nets,
                scratch.report.routed_nets
            );
            let via_cost = 2;
            let delta_cost = combined_cost(&delta.outcome, via_cost);
            let scratch_cost = combined_cost(&scratch, via_cost);
            let nets = scratch.report.routed_nets.max(1) as u64;
            let slack = (scratch_cost / 10).max(8 * scratch_cost / nets);
            assert!(
                delta_cost <= scratch_cost + slack,
                "{ctx}: delta objective {delta_cost} exceeds scratch {scratch_cost} + {slack}"
            );
            assert!(
                delta.outcome.report.via_violations <= scratch.report.via_violations + 2,
                "{ctx}: #VV {} vs scratch {}",
                delta.outcome.report.via_violations,
                scratch.report.via_violations
            );
            assert!(
                delta.outcome.report.short_polygons <= scratch.report.short_polygons + 2,
                "{ctx}: #SP {} vs scratch {}",
                delta.outcome.report.short_polygons,
                scratch.report.short_polygons
            );

            circuit = delta.circuit;
            prior = delta.outcome;
        }
    }
}

/// An empty edit list must reproduce the prior outcome bit-identically
/// on a real benchmark.
#[test]
fn empty_edit_list_is_bit_identical_on_bench() {
    let config = RouterConfig::stitch_aware();
    let circuit = quick("S9234", 1);
    let prior = Router::new(config.clone()).route(&circuit);
    let delta = route_delta(&circuit, &prior, &[], &config).expect("empty edits");
    assert!(delta.rerouted.is_empty());
    assert_eq!(delta.circuit, circuit);
    assert_eq!(delta.outcome.detailed.geometry, prior.detailed.geometry);
    assert_eq!(delta.outcome.detailed.routed, prior.detailed.routed);
    assert_eq!(delta.outcome.global.routes, prior.global.routes);
    assert_eq!(delta.outcome.report, prior.report);
    assert_eq!(
        geometry_fingerprint(&delta.outcome),
        geometry_fingerprint(&prior)
    );
}

/// Removing a net frees its resources: the freed nets never shrink the
/// routed fraction, and the removed net's name is really gone.
#[test]
fn remove_net_shrinks_circuit_and_stays_clean() {
    let config = RouterConfig::stitch_aware();
    let circuit = quick("S5378", 5);
    let prior = Router::new(config.clone()).route(&circuit);
    let victim = circuit.nets()[circuit.net_count() / 2].name().to_string();
    let edits = vec![CircuitEdit::RemoveNet {
        name: victim.clone(),
    }];
    let delta = route_delta(&circuit, &prior, &edits, &config).expect("remove routes");
    assert_eq!(delta.circuit.net_count(), circuit.net_count() - 1);
    assert!(delta.circuit.nets().iter().all(|n| n.name() != victim));
    assert_strict_clean(&delta.circuit, &config, &delta.outcome, "remove-net");
}

/// A move that lands a pin on another net's pin cell (same x, y and
/// layer) leaves a net unrouted: the cell belongs to one of the two
/// nets, and no window lets the other enter it. The router must see
/// that at once instead of widening its window over the whole grid, so
/// the delta fits an expansion cap far below what that widening costs
/// (about 174k expansions), and the capped outcome equals the uncapped
/// one.
#[test]
fn shared_pin_move_fits_a_small_expansion_cap() {
    const CAP: u64 = 20_000;
    let config = RouterConfig::stitch_aware();
    let spec = BenchmarkSpec::by_name("S5378").expect("known benchmark");
    let base = spec.generate(&GenerateConfig {
        seed: 3,
        net_scale: 240.0 / spec.nets as f64,
        ..GenerateConfig::default()
    });
    let prior = Router::new(config.clone()).route(&base);
    let edits = vec![CircuitEdit::MoveNet {
        name: "s5378_46".to_string(),
        dx: 1,
        dy: 0,
    }];
    let moved = apply_edits(&base, &edits).expect("valid move").circuit;
    let pin_cells = |name: &str| -> BTreeSet<(i32, i32, u8)> {
        let net = moved.nets().iter().find(|n| n.name() == name).expect("net");
        net.pins()
            .iter()
            .map(|p| (p.position.x, p.position.y, p.layer.index()))
            .collect()
    };
    assert!(
        !pin_cells("s5378_46").is_disjoint(&pin_cells("s5378_104")),
        "the move must land a pin on another net's pin cell"
    );

    let uncapped = route_delta(&base, &prior, &edits, &config).expect("validated move");
    assert!(
        uncapped.outcome.detailed.routed.contains(&false),
        "the shared pin cell must leave a net unrouted"
    );
    let capped_config = config
        .clone()
        .with_budget(RunBudget::with_max_expansions(CAP));
    let capped = route_delta(&base, &prior, &edits, &capped_config).expect("validated move");
    assert!(
        capped
            .outcome
            .degradations
            .iter()
            .all(|d| d.kind != DegradationKind::BudgetExhausted),
        "{CAP} expansions ran out: {:?}",
        capped.outcome.degradations
    );
    assert_eq!(
        capped.outcome.detailed.routed,
        uncapped.outcome.detailed.routed
    );
    assert_eq!(
        capped.outcome.detailed.geometry,
        uncapped.outcome.detailed.geometry
    );
    assert_eq!(capped.outcome.degradations, uncapped.outcome.degradations);
}

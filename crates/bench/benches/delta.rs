//! Incremental-routing latency benchmark for `mebl-delta`.
//!
//! Measures what the ECO path actually buys over a from-scratch route
//! on the S13207 quick benchmark (large enough that search cost,
//! which the delta path avoids, dominates the fixed grid setup both
//! paths share):
//!
//! - `delta/scratch_reference` — a full `Router::route` of the edited
//!   circuit, the cost the delta path replaces.
//! - `delta/single_net` — patching the prior outcome after a one-net
//!   move, the canonical ECO. The whole point of the subsystem: its
//!   fastest sample must be at least [`SPEEDUP_BAR`]× under the fastest
//!   `scratch_reference` sample (asserted below, so the gap is recorded
//!   in `results/bench_delta.json` rather than taken on faith).
//! - `delta/tenth_of_nets` — moving ~10% of the nets, the point where
//!   closure growth starts eating the advantage.
//! - `delta/blockage_insert` — dropping a fresh keep-out, which rips
//!   up exactly the nets whose prior geometry crosses it.
//!
//! Written to `results/bench_delta.json` and gated by `xtask benchgate`
//! in `scripts/ci.sh`.

use mebl_delta::{route_delta, CircuitEdit};
use mebl_geom::Rect;
use mebl_netlist::{BenchmarkSpec, Circuit, GenerateConfig};
use mebl_route::{Router, RouterConfig, RoutingOutcome, Stopwatch};
use mebl_testkit::bench::BenchSuite;

const SCRATCH_SAMPLES: usize = 12;
const DELTA_SAMPLES: usize = 25;
/// How many times cheaper than the from-scratch route a single-net
/// delta must be, compared on the fastest sample of each. A delta
/// call's fixed cost scales with the edit, not with the design.
const SPEEDUP_BAR: u64 = 12;

fn circuit() -> Circuit {
    BenchmarkSpec::by_name("S13207")
        .expect("known benchmark")
        .generate(&GenerateConfig::quick(11))
}

/// Whether moving `name` by `(dx, dy)` yields a valid edited circuit
/// (pins can land on stitching lines or other pins; skip those nets).
fn move_applies(circuit: &Circuit, config: &RouterConfig, edits: &[CircuitEdit]) -> bool {
    let plan = mebl_stitch::StitchPlan::new(circuit.outline(), config.stitch);
    match mebl_delta::apply_edits(circuit, edits) {
        Err(_) => false,
        Ok(p) => !p
            .circuit
            .validate(plan.lines())
            .iter()
            .any(mebl_netlist::CircuitIssue::is_error),
    }
}

/// One-net nudge: the smallest plausible ECO. Scans for a net whose
/// moved pins stay valid.
fn single_net_edit(circuit: &Circuit, config: &RouterConfig) -> Vec<CircuitEdit> {
    for net in circuit.nets() {
        let edit = vec![CircuitEdit::MoveNet {
            name: net.name().to_string(),
            dx: 1,
            dy: 1,
        }];
        if move_applies(circuit, config, &edit) {
            return edit;
        }
    }
    panic!("no net admits a (1, 1) move");
}

/// Moves roughly every tenth net by one pitch, skipping nets whose
/// move would land on a stitching line or another pin.
fn tenth_of_nets_edit(circuit: &Circuit, config: &RouterConfig) -> Vec<CircuitEdit> {
    let target = circuit.net_count().div_ceil(10);
    let mut edits = Vec::new();
    for net in circuit.nets() {
        if edits.len() == target {
            break;
        }
        let mut candidate = edits.clone();
        candidate.push(CircuitEdit::MoveNet {
            name: net.name().to_string(),
            dx: 1,
            dy: 0,
        });
        if move_applies(circuit, config, &candidate) {
            edits = candidate;
        }
    }
    assert!(!edits.is_empty(), "no net admits a (1, 0) move");
    edits
}

/// A fresh keep-out on a pin-free patch near the chip centre: scan
/// outward from the centre for a 2×2 cell window covering no pin.
fn blockage_edit(circuit: &Circuit) -> Vec<CircuitEdit> {
    let outline = circuit.outline();
    let cx = (outline.x0() + outline.x1()) / 2;
    let cy = (outline.y0() + outline.y1()) / 2;
    let pin_free = |r: Rect| {
        circuit
            .nets()
            .iter()
            .all(|n| n.pins().iter().all(|p| !r.contains(p.position)))
    };
    for d in 0..i32::try_from(outline.width()).unwrap_or(i32::MAX) {
        let r = Rect::new(cx + d, cy, cx + d + 1, cy + 1);
        if outline.contains_rect(r) && pin_free(r) {
            return vec![CircuitEdit::AddBlockage { rect: r }];
        }
    }
    panic!("no pin-free 2x2 window found");
}

fn bench_delta(
    suite: &mut BenchSuite,
    case: &str,
    circuit: &Circuit,
    prior: &RoutingOutcome,
    config: &RouterConfig,
    edits: &[CircuitEdit],
) -> u64 {
    let mut samples = Vec::with_capacity(DELTA_SAMPLES);
    for _ in 0..DELTA_SAMPLES {
        let sw = Stopwatch::start();
        let delta = route_delta(circuit, prior, edits, config).expect("bench edits route");
        samples.push(u64::try_from(sw.elapsed().as_nanos()).unwrap_or(u64::MAX));
        assert!(
            !delta.rerouted.is_empty(),
            "{case}: edit list touched nothing"
        );
    }
    suite.record_manual(format!("delta/{case}"), samples).min_ns
}

fn main() {
    let config = RouterConfig::stitch_aware();
    let circuit = circuit();
    let prior = Router::new(config.clone()).route(&circuit);

    let mut suite = BenchSuite::new("delta");

    // The scratch reference routes the *edited* circuit (one net
    // moved), so the comparison is delta-vs-scratch on identical input.
    let single = single_net_edit(&circuit, &config);
    let edited = mebl_delta::apply_edits(&circuit, &single)
        .expect("single-net edit applies")
        .circuit;
    let mut scratch_samples = Vec::with_capacity(SCRATCH_SAMPLES);
    for _ in 0..SCRATCH_SAMPLES {
        let sw = Stopwatch::start();
        let outcome = Router::new(config.clone()).route(&edited);
        scratch_samples.push(u64::try_from(sw.elapsed().as_nanos()).unwrap_or(u64::MAX));
        assert!(outcome.report.routed_nets > 0);
    }
    let scratch_min = suite
        .record_manual("delta/scratch_reference", scratch_samples)
        .min_ns;

    let single_min = bench_delta(&mut suite, "single_net", &circuit, &prior, &config, &single);
    bench_delta(
        &mut suite,
        "tenth_of_nets",
        &circuit,
        &prior,
        &config,
        &tenth_of_nets_edit(&circuit, &config),
    );
    bench_delta(
        &mut suite,
        "blockage_insert",
        &circuit,
        &prior,
        &config,
        &blockage_edit(&circuit),
    );

    // The acceptance bar for the subsystem: a one-net ECO must be at
    // least SPEEDUP_BAR times cheaper than re-routing from scratch.
    assert!(
        single_min.saturating_mul(SPEEDUP_BAR) <= scratch_min,
        "single-net delta ({single_min} ns) is not {SPEEDUP_BAR}x faster than scratch \
         ({scratch_min} ns)"
    );

    suite
        .finish_to(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
        .expect("write bench report");
}

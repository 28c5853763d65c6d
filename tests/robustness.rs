//! Fault-injection robustness suite: every hostile input or starved
//! budget must produce a typed error or an audit-clean degraded outcome
//! — never a panic, never a silently-wrong result.

use mebl_audit::audit_outcome;
use mebl_geom::{Layer, Point, Rect};
use mebl_netlist::{
    circuit_from_str, circuit_to_string, BenchmarkSpec, Circuit, GenerateConfig, Net, Pin,
};
use mebl_route::{
    DegradationKind, RouteError, Router, RouterConfig, RoutingOutcome, RunBudget,
};
use mebl_testkit::{fault, Fault, FaultPlan, Rng, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn quick(name: &str, seed: u64) -> Circuit {
    BenchmarkSpec::by_name(name)
        .expect("known benchmark")
        .generate(&GenerateConfig::quick(seed))
}

/// Routes with `config` and asserts the partial result is audit-clean.
fn route_and_audit(circuit: &Circuit, config: RouterConfig) -> RoutingOutcome {
    let outcome = Router::new(config.clone()).route(circuit);
    let audit = audit_outcome(circuit, &config, &outcome);
    assert_eq!(
        audit.error_count(),
        0,
        "audit errors on degraded run: {:#?}",
        audit.findings
    );
    outcome
}

/// Satellite 2: the parser must return `ParseCircuitError`, never panic,
/// on truncated, bit-flipped and line-shuffled input.
#[test]
fn parser_never_panics_on_corrupted_text() {
    let text = circuit_to_string(&quick("S5378", 1));
    let mut rng = SplitMix64::from_seed(0x0bad_f00d);
    let mut cases: Vec<String> = Vec::new();
    for permille in [0, 1, 10, 250, 500, 750, 990, 999] {
        cases.push(fault::truncate_text(&text, permille));
    }
    for _ in 0..200 {
        cases.push(fault::flip_bit(&text, rng.next_u64()));
    }
    for seed in 0..20 {
        cases.push(fault::shuffle_lines(&text, seed));
    }
    // Compound corruption: shuffle, then truncate, then flip.
    for _ in 0..50 {
        let s = fault::shuffle_lines(&text, rng.next_u64());
        let t = fault::truncate_text(&s, rng.gen_range(0u32..1000));
        cases.push(fault::flip_bit(&t, rng.next_u64()));
    }
    for (i, case) in cases.iter().enumerate() {
        let result = catch_unwind(AssertUnwindSafe(|| circuit_from_str(case)));
        let parsed = result.unwrap_or_else(|_| panic!("parser panicked on case {i}"));
        if let Ok(c) = parsed {
            // Whatever parses must satisfy the constructor's invariants.
            assert!(c.layer_count() >= 2);
        }
    }
}

/// Tentpole acceptance: a generous budget must not change a single byte
/// of the result relative to an unbudgeted run.
#[test]
fn generous_budget_reproduces_unbudgeted_results() {
    let c = quick("S5378", 3);
    let free = Router::new(RouterConfig::stitch_aware()).route(&c);
    let generous = RunBudget {
        time: Some(Duration::from_secs(3600)),
        stage_time: Some(Duration::from_secs(3600)),
        max_expansions: Some(u64::MAX / 2),
    };
    let budgeted = Router::new(RouterConfig::stitch_aware().with_budget(generous))
        .try_route(&c)
        .expect("generous budget cannot fail");
    assert!(!budgeted.is_degraded(), "{:?}", budgeted.degradations);
    assert_eq!(free.detailed.geometry, budgeted.detailed.geometry);
    assert_eq!(free.detailed.routed, budgeted.detailed.routed);
    assert_eq!(free.tracks.segments, budgeted.tracks.segments);
    assert_eq!(free.global.routes, budgeted.global.routes);
    assert_eq!(free.report.wirelength, budgeted.report.wirelength);
    assert_eq!(free.report.short_polygons, budgeted.report.short_polygons);
}

/// Tentpole acceptance: a 1 ms deadline on S9234 comes back quickly with
/// recorded `BudgetExhausted` degradations and audit-clean geometry.
#[test]
fn tiny_time_budget_degrades_cleanly_on_s9234() {
    let c = quick("S9234", 5);
    let config = RouterConfig::stitch_aware()
        .with_budget(RunBudget::with_time(Duration::from_millis(1)));
    let started = mebl_route::Stopwatch::start();
    match Router::new(config.clone()).try_route(&c) {
        Ok(outcome) => {
            assert!(
                outcome
                    .degradations
                    .iter()
                    .any(|d| d.kind == DegradationKind::BudgetExhausted),
                "1ms deadline must record what it skipped: {:?}",
                outcome.degradations
            );
            let audit = audit_outcome(&c, &config, &outcome);
            assert_eq!(audit.error_count(), 0, "{:#?}", audit.findings);
        }
        // The deadline may expire before the first stage even starts.
        Err(RouteError::BudgetExhausted) => {}
        Err(other) => panic!("unexpected error: {other:?}"),
    }
    // "Within ~2x budget" is unverifiable on a loaded CI box; assert a
    // bound loose enough to never flake but far below the ~seconds an
    // unbudgeted S9234 run takes.
    assert!(
        started.elapsed() < Duration::from_millis(1500),
        "1ms-budget run took {:?}",
        started.elapsed()
    );
}

/// Expansion caps are deterministic: the same capped run twice gives the
/// same partial result, and that result is audit-clean.
#[test]
fn expansion_cap_is_deterministic_and_audit_clean() {
    let c = quick("S5378", 1);
    let config =
        RouterConfig::stitch_aware().with_budget(RunBudget::with_max_expansions(2_000));
    let a = route_and_audit(&c, config.clone());
    let b = route_and_audit(&c, config);
    assert!(a.is_degraded(), "a 2k-expansion cap must bite");
    assert_eq!(a.degradations, b.degradations);
    assert_eq!(a.detailed.geometry, b.detailed.geometry);
    assert_eq!(a.tracks.segments, b.tracks.segments);
    assert_eq!(a.report.wirelength, b.report.wirelength);
}

/// A budget that is spent on arrival is a typed error, not a panic and
/// not a fake-empty success.
#[test]
fn dead_budgets_are_typed_errors() {
    let c = quick("S5378", 2);
    for budget in [
        RunBudget::with_max_expansions(0),
        RunBudget::with_time(Duration::ZERO),
        RunBudget {
            stage_time: Some(Duration::ZERO),
            ..RunBudget::default()
        },
    ] {
        let config = RouterConfig::stitch_aware().with_budget(budget);
        assert!(
            matches!(
                Router::new(config).try_route(&c),
                Err(RouteError::BudgetExhausted)
            ),
            "{budget:?}"
        );
    }
}

/// Pre-flight validation rejects unroutable circuits with a typed error
/// listing every problem.
#[test]
fn validation_rejects_degenerate_circuits() {
    // Width-1 outline: constructible, but unroutable.
    let net = Net::new(
        "a",
        vec![
            Pin::new(Point::new(0, 0), Layer::new(0)),
            Pin::new(Point::new(0, 9), Layer::new(0)),
        ],
    );
    let c = Circuit::new("sliver", Rect::new(0, 0, 0, 9), 3, vec![net]);
    match Router::default().try_route(&c) {
        Err(RouteError::InvalidCircuit(issues)) => {
            assert!(issues.iter().any(|i| i.is_error()));
            assert!(issues.iter().any(|i| i.message.contains("degenerate")));
        }
        other => panic!("expected InvalidCircuit, got {other:?}"),
    }
}

/// Starving the Dial search of its expansion window (a one-node cap and
/// no widening retries) must not panic and must not silently drop nets:
/// every unrouted net surfaces as a recorded `SearchExhausted`
/// degradation naming the net, and the partial geometry stays
/// audit-clean.
#[test]
fn window_widening_exhaustion_is_a_recorded_degradation() {
    let c = quick("S5378", 1);
    let mut config = RouterConfig::stitch_aware();
    config.detailed.node_cap = 1;
    config.detailed.retries = 0;
    let outcome = route_and_audit(&c, config);
    let exhausted: Vec<_> = outcome
        .degradations
        .iter()
        .filter(|d| d.kind == DegradationKind::SearchExhausted)
        .collect();
    assert!(
        !exhausted.is_empty(),
        "a one-node cap with no retries must exhaust some searches"
    );
    assert!(
        exhausted.iter().all(|d| d.net.is_some()),
        "every SearchExhausted degradation names its net: {exhausted:#?}"
    );
    // The recorded degradations agree with the routed mask — nothing is
    // lost without a paper trail.
    for d in &exhausted {
        let net = d.net.expect("checked above");
        assert!(
            !outcome.detailed.routed[net],
            "net {net} recorded as exhausted but marked routed"
        );
    }
}

/// The nastiest routed scenarios under a bounded expansion budget keep
/// the never-panic, audit-clean-or-typed-error contract.
#[test]
fn hostile_scenarios_hold_under_a_bounded_budget() {
    let bounded = RunBudget::with_max_expansions(200_000);
    // Congested corner, pins on stitching lines and the boundary.
    let adv = adversarial_circuit(77);
    try_and_audit(&adv, RouterConfig::stitch_aware().with_budget(bounded));
    // Starved per-connection search window.
    let c = quick("S5378", 1);
    let mut config = RouterConfig::stitch_aware().with_budget(bounded);
    config.detailed.node_cap = 8;
    try_and_audit(&c, config);
    // Stitch-line-saturated grid (zero friendly capacity).
    let mut config = RouterConfig::stitch_aware().with_budget(bounded);
    config.stitch.period = 2;
    config.global.tile_size = 2;
    try_and_audit(&c, config);
}

/// Builds the adversarial circuit for [`Fault::AdversarialPins`]: many
/// nets crammed into one congested corner, pins sitting on stitching
/// lines and on the outline boundary.
fn adversarial_circuit(seed: u64) -> Circuit {
    let outline = Rect::new(0, 0, 89, 59);
    let mut rng = SplitMix64::from_seed(seed);
    let mut used = std::collections::HashSet::new();
    let mut nets = Vec::new();
    for i in 0..40 {
        let mut pins = Vec::new();
        for _ in 0..2 {
            // Bias hard into the corner and onto x = 15/30 stitch lines.
            let x = match rng.gen_range(0u32..4) {
                0 => 15,
                1 => 30,
                _ => rng.gen_range(0i32..20),
            };
            let y = rng.gen_range(0i32..12);
            let mut p = Point::new(x, y);
            while !used.insert(p) {
                p = Point::new(rng.gen_range(0i32..=89), rng.gen_range(0i32..=59));
            }
            pins.push(Pin::new(p, Layer::new(0)));
        }
        nets.push(Net::new(format!("adv_{i}"), pins));
    }
    Circuit::new("adversarial", outline, 3, nets)
}

/// The tentpole contract, fault by fault: every entry of the standard
/// plan yields a typed error or an audit-clean outcome. No panics.
#[test]
fn every_standard_fault_is_survived() {
    let base_text = circuit_to_string(&quick("S5378", 1));
    let plan = FaultPlan::standard(2013);
    for (i, &injected) in plan.faults.iter().enumerate() {
        let result = catch_unwind(AssertUnwindSafe(|| run_fault(&base_text, injected)));
        assert!(
            result.is_ok(),
            "fault #{i} ({injected}) caused a panic"
        );
    }
}

/// Interprets one fault against the flow. Asserts typed-error-or-clean.
fn run_fault(base_text: &str, injected: Fault) {
    // Bound every routed scenario so the whole battery stays fast; a cap
    // is itself a budget, and capped runs must stay audit-clean.
    let bounded = RunBudget::with_max_expansions(200_000);
    match injected {
        Fault::TruncateText { permille } => {
            let mutated = fault::truncate_text(base_text, permille);
            if let Ok(c) = circuit_from_str(&mutated) {
                try_and_audit(&c, RouterConfig::stitch_aware().with_budget(bounded));
            }
        }
        Fault::FlipBit { index } => {
            let mutated = fault::flip_bit(base_text, index);
            if let Ok(c) = circuit_from_str(&mutated) {
                try_and_audit(&c, RouterConfig::stitch_aware().with_budget(bounded));
            }
        }
        Fault::ShuffleLines { seed } => {
            let mutated = fault::shuffle_lines(base_text, seed);
            if let Ok(c) = circuit_from_str(&mutated) {
                try_and_audit(&c, RouterConfig::stitch_aware().with_budget(bounded));
            }
        }
        Fault::ZeroCapacity => {
            // Period 2 puts a stitching line on every other column: the
            // friendly capacity of most tiles drops to zero.
            let c = quick("S5378", 1);
            let mut config = RouterConfig::stitch_aware().with_budget(bounded);
            config.stitch.period = 2;
            config.global.tile_size = 2;
            try_and_audit(&c, config);
        }
        Fault::AdversarialPins { seed } => {
            let c = adversarial_circuit(seed);
            try_and_audit(&c, RouterConfig::stitch_aware().with_budget(bounded));
        }
        Fault::TinyNodeCap { cap } => {
            let c = quick("S5378", 1);
            let mut config = RouterConfig::stitch_aware().with_budget(bounded);
            config.detailed.node_cap = cap;
            try_and_audit(&c, config);
        }
        Fault::NearZeroTimeBudget { millis } => {
            let c = quick("S5378", 1);
            let config = RouterConfig::stitch_aware()
                .with_budget(RunBudget::with_time(Duration::from_millis(millis)));
            try_and_audit(&c, config);
        }
        Fault::TinyExpansionCap { cap } => {
            let c = quick("S5378", 1);
            let config =
                RouterConfig::stitch_aware().with_budget(RunBudget::with_max_expansions(cap));
            try_and_audit(&c, config);
        }
    }
}

/// Runs `try_route`; a typed error passes, a produced outcome must be
/// audit-clean.
fn try_and_audit(circuit: &Circuit, config: RouterConfig) {
    match Router::new(config.clone()).try_route(circuit) {
        Ok(outcome) => {
            let audit = audit_outcome(circuit, &config, &outcome);
            assert_eq!(
                audit.error_count(),
                0,
                "audit errors: {:#?}",
                audit.findings
            );
        }
        Err(
            RouteError::BudgetExhausted
            | RouteError::InvalidCircuit(_)
            | RouteError::InvalidConfig(_),
        ) => {}
    }
}

/// Hostile `CircuitEdit` lists — dangling references, contradictory
/// sequences, out-of-range geometry, broken JSON — must yield a typed
/// parse error, a typed `DeltaError`, or a strict-audit-clean patched
/// outcome. Never a panic, at any stage of the delta pipeline.
#[test]
fn hostile_edit_lists_are_survived() {
    let circuit = quick("S5378", 1);
    let config = RouterConfig::stitch_aware();
    let prior = Router::new(config.clone()).route(&circuit);
    let names: Vec<&str> = circuit.nets().iter().map(|n| n.name()).collect();
    let battery = fault::hostile_edit_lists(0xed17_0bad, &names);
    for (i, raw) in battery.iter().enumerate() {
        let survived = catch_unwind(AssertUnwindSafe(|| {
            // Stage 1: JSON -> typed edits (the serve wire format).
            let json = match mebl_serve::json::parse(raw) {
                Ok(j) => j,
                Err(_) => return, // typed parse error: survived
            };
            let edits = match mebl_serve::delta::edits_from_json(&json) {
                Ok(e) => e,
                Err(_) => return, // typed shape error: survived
            };
            // Stage 2: typed edits -> patched outcome.
            match mebl_delta::route_delta(&circuit, &prior, &edits, &config) {
                Err(_) => {} // typed DeltaError: survived
                Ok(delta) => {
                    let audit = audit_outcome(&delta.circuit, &config, &delta.outcome);
                    assert_eq!(
                        (audit.error_count(), audit.warning_count()),
                        (0, 0),
                        "case {i} ({raw:?}): accepted edits must stay strict-clean: {:#?}",
                        audit.findings
                    );
                }
            }
        }));
        assert!(survived.is_ok(), "hostile edit case {i} panicked: {raw:?}");
    }
}

/// A net whose pins all sit on one cell has nothing to connect. An edit
/// adding one must fail with the typed `InvalidCircuit` naming the new
/// net, never come back as an outcome that calls it routed with no
/// geometry (which the strict audit rejects with `PinNotCovered`).
#[test]
fn coincident_pin_add_net_is_a_typed_error() {
    let circuit = quick("S5378", 1);
    let config = RouterConfig::stitch_aware();
    let prior = Router::new(config.clone()).route(&circuit);
    let plan = mebl_stitch::StitchPlan::new(circuit.outline(), config.stitch);
    let o = circuit.outline();
    let taken = |x: i32, y: i32| {
        plan.lines().contains(&x)
            || circuit
                .nets()
                .iter()
                .any(|n| n.pins().iter().any(|p| p.position == Point::new(x, y)))
    };
    let (x, y) = (o.x0() + 1..o.x1())
        .flat_map(|x| (o.y0() + 1..o.y1()).map(move |y| (x, y)))
        .find(|&(x, y)| !taken(x, y))
        .expect("a free cell off the stitching lines");
    for layer in [0, 1] {
        let pin = Pin::new(Point::new(x, y), Layer::new(layer));
        for pins in [vec![pin, pin], vec![pin, pin, pin]] {
            let edits = vec![mebl_delta::CircuitEdit::AddNet {
                name: "dot".into(),
                pins,
            }];
            match mebl_delta::route_delta(&circuit, &prior, &edits, &config) {
                Err(mebl_delta::DeltaError::InvalidCircuit(issues)) => {
                    let new_net = circuit.net_count();
                    assert!(
                        issues.iter().any(|i| i.is_error() && i.net == Some(new_net)),
                        "{issues:?}"
                    );
                }
                Err(other) => panic!("expected InvalidCircuit, got {other:?}"),
                Ok(delta) => panic!(
                    "coincident pins produced an outcome ({} of {} nets routed)",
                    delta.outcome.report.routed_nets, delta.outcome.report.total_nets
                ),
            }
        }
    }
}

//! Differential thread-count harness: the parallel execution layer must
//! be invisible in the output. Every benchmark in the suite, routed at
//! 1, 2, 4 and 8 workers, must produce bit-identical geometry, identical
//! paper metrics (#VV / #SP / wirelength) and a strict-clean audit. The
//! fault battery and starved budgets must stay panic- and deadlock-free
//! when the fan-out is multi-threaded.

use mebl_audit::audit_outcome;
use mebl_geom::{Layer, Point, Rect};
use mebl_netlist::{
    circuit_from_str, circuit_to_string, BenchmarkSpec, Circuit, GenerateConfig, Net, Pin,
};
use mebl_route::{
    DegradationKind, RouteError, Router, RouterConfig, RoutingOutcome, RunBudget, Stage,
};
use mebl_testkit::{fault, Fault, FaultPlan, Rng, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// The worker counts every differential test sweeps.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Generates `name` scaled down to roughly `target_nets` nets: large
/// enough to exercise congestion rip-up, panel coloring and stitch-aware
/// search, small enough that sweeping four thread counts over the whole
/// suite stays affordable in debug CI.
fn scaled(spec: &BenchmarkSpec, seed: u64, target_nets: usize) -> Circuit {
    let net_scale = (target_nets as f64 / spec.nets as f64).min(1.0);
    spec.generate(&GenerateConfig {
        seed,
        net_scale,
        ..GenerateConfig::default()
    })
}

fn small(name: &str, seed: u64) -> Circuit {
    scaled(
        &BenchmarkSpec::by_name(name).expect("known benchmark"),
        seed,
        60,
    )
}

/// FNV-1a over a byte stream, for cross-thread-count fingerprints.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of everything a run produces that must not depend on the
/// worker count: global routes, track pieces, detailed geometry, the
/// routed mask and the recorded degradations.
fn fingerprint(outcome: &RoutingOutcome) -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        outcome.global.routes,
        outcome.tracks.segments,
        outcome.detailed.geometry,
        outcome.detailed.routed,
        outcome.degradations,
    );
    fnv1a(text.bytes())
}

/// Differential sweep over the whole benchmark suite: fingerprints and
/// paper metrics at 2, 4 and 8 workers must equal the 1-worker run, and
/// every run must pass the independent audit with `--strict` semantics
/// (zero errors *and* zero warnings).
#[test]
fn full_suite_is_thread_count_invariant() {
    for spec in mebl_netlist::full_suite() {
        let circuit = scaled(&spec, 2013, 40);
        let mut reference: Option<(u64, usize, usize, u64)> = None;
        for &threads in &THREADS {
            let config = RouterConfig::stitch_aware().with_threads(threads);
            let outcome = Router::new(config.clone()).route(&circuit);
            assert_eq!(outcome.parallelism, threads, "{}", spec.name);

            let audit = audit_outcome(&circuit, &config, &outcome);
            assert_eq!(
                audit.error_count(),
                0,
                "{}: audit errors at {threads} threads: {:#?}",
                spec.name,
                audit.findings
            );
            assert_eq!(
                audit.warning_count(),
                0,
                "{}: strict audit failed at {threads} threads: {:#?}",
                spec.name,
                audit.findings
            );

            let measured = (
                fingerprint(&outcome),
                outcome.report.via_violations,
                outcome.report.short_polygons,
                outcome.report.wirelength,
            );
            match reference {
                None => reference = Some(measured),
                Some(expected) => assert_eq!(
                    measured, expected,
                    "{}: (fingerprint, #VV, #SP, WL) diverged at {threads} threads",
                    spec.name
                ),
            }
        }
    }
}

/// The baseline (stitch-oblivious) configuration must be thread-count
/// invariant too — it shares the fan-out code paths.
#[test]
fn baseline_flow_is_thread_count_invariant() {
    let circuit = small("S5378", 7);
    let serial = Router::new(RouterConfig::baseline().with_threads(1)).route(&circuit);
    for &threads in &THREADS[1..] {
        let wide = Router::new(RouterConfig::baseline().with_threads(threads)).route(&circuit);
        assert_eq!(fingerprint(&wide), fingerprint(&serial), "{threads} threads");
    }
}

/// Budget exhaustion mid-fan-out must drain cleanly: a starved expansion
/// cap or a near-zero deadline under a multi-threaded pool yields a typed
/// error or an audit-clean degraded outcome — never a panic, never a hang.
#[test]
fn budget_exhaustion_mid_fanout_drains_cleanly() {
    let circuit = small("S5378", 1);
    let mut budgets: Vec<RunBudget> = [100u64, 2_000, 50_000]
        .iter()
        .map(|&cap| RunBudget::with_max_expansions(cap))
        .collect();
    budgets.extend([1u64, 5, 20].iter().map(|&ms| RunBudget::with_time(Duration::from_millis(ms))));
    for &threads in &[2usize, 8] {
        for &budget in &budgets {
            let config = RouterConfig::stitch_aware()
                .with_threads(threads)
                .with_budget(budget);
            let result = catch_unwind(AssertUnwindSafe(|| {
                Router::new(config.clone()).try_route(&circuit)
            }));
            let routed = result.unwrap_or_else(|_| {
                panic!("panicked under {budget:?} at {threads} threads")
            });
            match routed {
                Ok(outcome) => {
                    let audit = audit_outcome(&circuit, &config, &outcome);
                    assert_eq!(
                        audit.error_count(),
                        0,
                        "audit errors under {budget:?} at {threads} threads: {:#?}",
                        audit.findings
                    );
                }
                Err(RouteError::BudgetExhausted) => {}
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
    }
}

/// An expansion budget that fires during detailed routing gives the
/// same bytes at every width: detailed routing runs its nets in net
/// order whatever the pool width, so the budget is spent in the same
/// order and runs out on the same net. Budgets that stay exceptions to
/// byte identity (DESIGN.md §9): an expansion budget that fires during
/// global routing or track assignment, where workers observe the shared
/// latch mid-batch, and a wall-clock budget. The 2k cap here must fire
/// in detailed routing, or the check below would test one of those.
#[test]
fn capped_multithreaded_runs_degrade_cleanly() {
    let circuit = small("S5378", 1);
    let mut reference: Option<u64> = None;
    for &threads in &THREADS {
        let config = RouterConfig::stitch_aware()
            .with_threads(threads)
            .with_budget(RunBudget::with_max_expansions(2_000));
        let outcome = Router::new(config.clone()).route(&circuit);
        assert!(outcome.is_degraded(), "a 2k-expansion cap must bite");
        let budget_stages: Vec<Stage> = outcome
            .degradations
            .iter()
            .filter(|d| d.kind == DegradationKind::BudgetExhausted)
            .map(|d| d.stage)
            .collect();
        assert!(
            !budget_stages.is_empty() && budget_stages.iter().all(|&s| s == Stage::Detailed),
            "the cap must fire in detailed routing at {threads} threads: {:?}",
            outcome.degradations
        );
        let audit = audit_outcome(&circuit, &config, &outcome);
        assert_eq!(audit.error_count(), 0, "{:#?}", audit.findings);
        let measured = fingerprint(&outcome);
        match reference {
            None => reference = Some(measured),
            Some(expected) => assert_eq!(
                measured, expected,
                "capped output diverged at {threads} threads"
            ),
        }
    }
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

/// The robustness contract of `tests/robustness.rs`, re-run with the
/// fan-out multi-threaded: every standard fault yields a typed error or
/// an audit-clean outcome at 2, 4 and 8 workers. No panics, no hangs.
#[test]
fn every_standard_fault_is_survived_multithreaded() {
    let base_text = circuit_to_string(&small("S5378", 1));
    let plan = FaultPlan::standard(2013);
    for (i, &injected) in plan.faults.iter().enumerate() {
        // Rotate through the non-serial widths so the battery stays fast.
        let threads = THREADS[1..][i % 3];
        let result =
            catch_unwind(AssertUnwindSafe(|| run_fault(&base_text, injected, threads)));
        assert!(
            result.is_ok(),
            "fault #{i} ({injected}) caused a panic at {threads} threads"
        );
    }
}

/// Interprets one fault against the flow at the given worker count.
fn run_fault(base_text: &str, injected: Fault, threads: usize) {
    // Bound every routed scenario so the whole battery stays fast; a cap
    // is itself a budget, and capped runs must stay audit-clean.
    let bounded = RunBudget::with_max_expansions(200_000);
    let stitch_aware = || {
        RouterConfig::stitch_aware()
            .with_threads(threads)
            .with_budget(bounded)
    };
    match injected {
        Fault::TruncateText { permille } => {
            if let Ok(c) = circuit_from_str(&fault::truncate_text(base_text, permille)) {
                try_and_audit(&c, stitch_aware());
            }
        }
        Fault::FlipBit { index } => {
            if let Ok(c) = circuit_from_str(&fault::flip_bit(base_text, index)) {
                try_and_audit(&c, stitch_aware());
            }
        }
        Fault::ShuffleLines { seed } => {
            if let Ok(c) = circuit_from_str(&fault::shuffle_lines(base_text, seed)) {
                try_and_audit(&c, stitch_aware());
            }
        }
        Fault::ZeroCapacity => {
            let c = small("S5378", 1);
            let mut config = stitch_aware();
            config.stitch.period = 2;
            config.global.tile_size = 2;
            try_and_audit(&c, config);
        }
        Fault::AdversarialPins { seed } => {
            try_and_audit(&adversarial_circuit(seed), stitch_aware());
        }
        Fault::TinyNodeCap { cap } => {
            let c = small("S5378", 1);
            let mut config = stitch_aware();
            config.detailed.node_cap = cap;
            try_and_audit(&c, config);
        }
        Fault::NearZeroTimeBudget { millis } => {
            let c = small("S5378", 1);
            let config = RouterConfig::stitch_aware()
                .with_threads(threads)
                .with_budget(RunBudget::with_time(Duration::from_millis(millis)));
            try_and_audit(&c, config);
        }
        Fault::TinyExpansionCap { cap } => {
            let c = small("S5378", 1);
            let config = RouterConfig::stitch_aware()
                .with_threads(threads)
                .with_budget(RunBudget::with_max_expansions(cap));
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
            assert_eq!(audit.error_count(), 0, "audit errors: {:#?}", audit.findings);
        }
        Err(
            RouteError::BudgetExhausted
            | RouteError::InvalidCircuit(_)
            | RouteError::InvalidConfig(_),
        ) => {}
    }
}

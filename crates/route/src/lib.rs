//! `mebl-route` — the stitch-aware routing framework for multiple e-beam
//! lithography (MEBL).
//!
//! This is the top-level crate of a Rust reproduction of
//! *Liu, Fang, Chang: "Stitch-Aware Routing for Multiple E-Beam
//! Lithography"* (DAC 2013 / IEEE TCAD 2015). It wires the per-stage
//! crates into the paper's two-pass bottom-up multilevel flow:
//!
//! 1. **Global routing** (`mebl-global`) — congestion + line-end aware
//!    tile routing, eqs. (1)–(3);
//! 2. **Layer/track assignment** (`mebl-assign`) — max-cut k-coloring
//!    layer assignment (eq. 4) and short-polygon-avoiding track
//!    assignment (ILP eqs. 5–9 / graph heuristic);
//! 3. **Detailed routing** (`mebl-detailed`) — stitch-aware weighted A\*
//!    (eq. 10) with stitch-aware net ordering and rip-up of failed nets.
//!
//! The [`Router`] facade runs the whole flow and produces a
//! [`RouteReport`] with the metrics the paper tabulates: routability,
//! `#VV` (via violations), `#SP` (short polygons), wirelength and CPU
//! time.
//!
//! # Quick start
//!
//! ```
//! use mebl_netlist::{BenchmarkSpec, GenerateConfig};
//! use mebl_route::{Router, RouterConfig};
//!
//! let circuit = BenchmarkSpec::by_name("S9234")
//!     .unwrap()
//!     .generate(&GenerateConfig::quick(7));
//! let outcome = Router::new(RouterConfig::stitch_aware()).route(&circuit);
//! assert!(outcome.report.routability() > 0.9);
//! assert_eq!(outcome.report.vertical_violations, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod report;

pub use budget::{RouteError, RunBudget};
pub use mebl_control::{CancelReason, CancelToken, Degradation, DegradationKind, Stage};
pub use report::{RouteReport, Stopwatch};

use mebl_assign::{assign_tracks, extract_panels, TrackConfig, TrackResult};
use mebl_detailed::{route_detailed, DetailedConfig, DetailedResult};
use mebl_geom::Point;
use mebl_global::{route_circuit, GlobalConfig, GlobalResult};
use mebl_netlist::{Circuit, CircuitIssue};
use mebl_graph::FastSet;
pub use mebl_par::Pool;
use mebl_stitch::{StitchConfig, StitchPlan};
use std::cell::OnceCell;

/// Configuration of the full routing flow.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Stitching-line geometry.
    pub stitch: StitchConfig,
    /// Global routing stage.
    pub global: GlobalConfig,
    /// Layer/track assignment stage.
    pub track: TrackConfig,
    /// Detailed routing stage.
    pub detailed: DetailedConfig,
    /// Resource bounds for the run (unlimited by default).
    pub budget: RunBudget,
    /// Worker pool shared by every stage (serial by default).
    ///
    /// The determinism contract (DESIGN.md §9): for an **unbudgeted**
    /// run, output is bit-identical for every pool width — every width
    /// executes the same speculative-batch algorithm with an ordered
    /// commit. A run with a wall-clock or expansion budget stays
    /// audit-clean and typed at every width, but which nets a
    /// mid-fan-out cancellation skips may vary with scheduling, so
    /// budgeted multi-threaded runs are not byte-reproducible.
    pub pool: Pool,
}

impl RouterConfig {
    /// The paper's full stitch-aware framework (all stages aware).
    pub fn stitch_aware() -> Self {
        Self {
            stitch: StitchConfig::default(),
            global: GlobalConfig::default(),
            track: TrackConfig::default(),
            detailed: DetailedConfig::default(),
            budget: RunBudget::default(),
            pool: Pool::serial(),
        }
    }

    /// The conventional baseline router of Table III: NTUgr-style global
    /// routing, conventional layer/track assignment and detailed routing.
    /// Hard MEBL constraints are still enforced in detailed routing (the
    /// paper's baseline rips up line-track segments and forbids vertical
    /// routing on lines), so the baseline differs in *objectives*, not
    /// legality.
    pub fn baseline() -> Self {
        Self {
            stitch: StitchConfig::default(),
            global: GlobalConfig::baseline(),
            track: TrackConfig {
                layer_mode: mebl_assign::LayerMode::MstBaseline,
                track_mode: mebl_assign::TrackMode::Baseline,
                ..TrackConfig::default()
            },
            detailed: DetailedConfig::without_stitch_consideration(),
            budget: RunBudget::default(),
            pool: Pool::serial(),
        }
    }

    /// Returns this configuration with `budget` installed.
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Returns this configuration with an `n`-worker pool installed.
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> Self {
        self.pool = Pool::new(n);
        self
    }

    /// Checks the stitch geometry parameters that [`StitchPlan::new`]
    /// would otherwise reject by panicking.
    fn check_stitch(&self) -> Result<(), RouteError> {
        let s = &self.stitch;
        if s.period <= 0 {
            return Err(RouteError::InvalidConfig(format!(
                "stitch period must be positive (got {})",
                s.period
            )));
        }
        if s.epsilon < 0 {
            return Err(RouteError::InvalidConfig(format!(
                "epsilon must be non-negative (got {})",
                s.epsilon
            )));
        }
        if s.escape_width < s.epsilon {
            return Err(RouteError::InvalidConfig(format!(
                "escape width {} must contain the unfriendly region {}",
                s.escape_width, s.epsilon
            )));
        }
        Ok(())
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self::stitch_aware()
    }
}

/// Wall-clock time spent in each stage of a routing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Global routing (pass 1).
    pub global: std::time::Duration,
    /// Panel extraction + layer/track assignment.
    pub assignment: std::time::Duration,
    /// Detailed routing (pass 2).
    pub detailed: std::time::Duration,
    /// Violation checking / report building.
    pub check: std::time::Duration,
}

/// Everything produced by one routing run.
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// The stitch plan the run used.
    pub plan: StitchPlan,
    /// Global routing result (pass 1).
    pub global: GlobalResult,
    /// Layer/track assignment result (intermediate stage).
    pub tracks: TrackResult,
    /// Detailed routing result (pass 2).
    pub detailed: DetailedResult,
    /// Aggregated paper-style metrics.
    pub report: RouteReport,
    /// Per-stage wall-clock breakdown.
    pub timings: StageTimings,
    /// Everything the run gave up or papered over, in the order it
    /// happened. Empty for a clean, unconstrained run.
    pub degradations: Vec<Degradation>,
    /// Number of workers the run fanned out to (1 = serial).
    pub parallelism: usize,
}

impl RoutingOutcome {
    /// Whether the run recorded any [`Degradation`]. A degraded outcome
    /// is still audit-clean — it just covers less than was asked for.
    pub fn is_degraded(&self) -> bool {
        !self.degradations.is_empty()
    }
}

/// The full two-pass stitch-aware router.
///
/// See [`RouterConfig`] for the stitch-aware/baseline presets; every stage
/// can also be configured independently for the ablation experiments
/// (Tables IV, VI, VII, VIII).
#[derive(Debug, Clone, Default)]
pub struct Router {
    config: RouterConfig,
}

impl Router {
    /// Creates a router with the given configuration.
    pub fn new(config: RouterConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Routes a circuit through all three stages and checks the result.
    ///
    /// This entry point is infallible and keeps the pre-budget contract:
    /// with the default (unlimited) budget the output is bit-identical to
    /// earlier releases. Budget overruns and internal shortcuts come back
    /// as [`RoutingOutcome::degradations`], never as panics. Use
    /// [`Router::try_route`] to also get pre-flight validation and a
    /// typed error for runs that cannot produce a result at all.
    pub fn route(&self, circuit: &Circuit) -> RoutingOutcome {
        self.run_with(circuit, self.config.budget.arm())
    }

    /// Validates, then routes: the fallible front door of the flow.
    ///
    /// Returns `Err` only when the run can produce no result at all —
    /// a degenerate stitch configuration, a circuit that fails
    /// [`Circuit::validate`] with error-severity issues, or a budget
    /// that is already spent on arrival. Anything less fatal routes and
    /// reports what was skipped via [`RoutingOutcome::degradations`].
    pub fn try_route(&self, circuit: &Circuit) -> Result<RoutingOutcome, RouteError> {
        self.config.check_stitch()?;
        let issues = self.validate(circuit);
        if issues.iter().any(CircuitIssue::is_error) {
            return Err(RouteError::InvalidCircuit(issues));
        }
        if self.config.budget.is_dead_on_arrival() {
            return Err(RouteError::BudgetExhausted);
        }
        let token = self.config.budget.arm();
        if token.is_cancelled_now() {
            // A non-zero but too-tight deadline can expire between arming
            // and the first stage; surface that as the same typed error.
            return Err(RouteError::BudgetExhausted);
        }
        Ok(self.run_with(circuit, token))
    }

    /// Like [`Router::try_route`], but the run additionally stops when
    /// `interrupt` latches — for drivers (such as the routing service)
    /// that must be able to cancel in-flight work from outside.
    ///
    /// `interrupt` is observed, never mutated: degradations recorded by
    /// the run land on the run's own token, and cancelling the run does
    /// not latch `interrupt`. With an inert, never-cancelled interrupt
    /// this is behaviorally identical to [`Router::try_route`].
    pub fn try_route_under(
        &self,
        circuit: &Circuit,
        interrupt: &CancelToken,
    ) -> Result<RoutingOutcome, RouteError> {
        self.config.check_stitch()?;
        let issues = self.validate(circuit);
        if issues.iter().any(CircuitIssue::is_error) {
            return Err(RouteError::InvalidCircuit(issues));
        }
        if self.config.budget.is_dead_on_arrival() {
            return Err(RouteError::BudgetExhausted);
        }
        let token = self.config.budget.arm_under(interrupt);
        if token.is_cancelled_now() {
            // Already past the deadline, or the server is already
            // draining: same typed error either way.
            return Err(RouteError::BudgetExhausted);
        }
        Ok(self.run_with(circuit, token))
    }

    /// Pre-flight checks of `circuit` against this configuration's
    /// stitch geometry (pins on stitching lines are found relative to
    /// the plan the run would use).
    pub fn validate(&self, circuit: &Circuit) -> Vec<CircuitIssue> {
        if self.config.check_stitch().is_err() {
            return circuit.validate(&[]);
        }
        let plan = StitchPlan::new(circuit.outline(), self.config.stitch);
        circuit.validate(plan.lines())
    }

    /// Warning-severity pre-flight issues as [`Stage::Validate`]
    /// degradation records. Purely advisory: [`Router::try_route`]
    /// tolerates these, so they never enter
    /// [`RoutingOutcome::degradations`] or flip a run to degraded;
    /// drivers that want them visible surface them separately.
    pub fn validation_degradations(&self, circuit: &Circuit) -> Vec<Degradation> {
        self.validate(circuit)
            .iter()
            .filter(|issue| !issue.is_error())
            .map(|issue| {
                Degradation::new(
                    Stage::Validate,
                    DegradationKind::ValidationWarning,
                    issue.net,
                    issue.message.clone(),
                )
            })
            .collect()
    }

    /// Runs the three-stage flow with `token` threaded through every
    /// stage, draining whatever the stages recorded into the outcome.
    fn run_with(&self, circuit: &Circuit, token: CancelToken) -> RoutingOutcome {
        let start = Stopwatch::start();
        let plan = StitchPlan::new(circuit.outline(), self.config.stitch);
        let budget = self.config.budget;
        let mut timings = StageTimings::default();

        let t = Stopwatch::start();
        let mut global_config = self.config.global.clone();
        global_config.cancel = budget.stage_scope(&token);
        global_config.pool = self.config.pool;
        let global = route_circuit(circuit, &plan, &global_config);
        timings.global = t.elapsed();

        let t = Stopwatch::start();
        let panels = extract_panels(&global);
        let mut track_config = self.config.track.clone();
        track_config.cancel = budget.stage_scope(&token);
        track_config.pool = self.config.pool;
        let tracks = assign_tracks(
            &panels,
            &global.graph,
            &plan,
            circuit.layer_count(),
            &track_config,
        );
        timings.assignment = t.elapsed();

        let t = Stopwatch::start();
        let mut detailed_config = self.config.detailed.clone();
        detailed_config.cancel = budget.stage_scope(&token);
        detailed_config.pool = self.config.pool;
        let detailed = route_detailed(circuit, &plan, &global.graph, &tracks, &detailed_config);
        timings.detailed = t.elapsed();

        let t = Stopwatch::start();
        let mut report = build_report(circuit, &plan, &detailed, start.elapsed());
        timings.check = t.elapsed();
        // Stamp the true total (build_report ran before check finished).
        report.elapsed = start.elapsed();

        let degradations = token.take_degradations();
        RoutingOutcome {
            plan,
            global,
            tracks,
            detailed,
            report,
            timings,
            degradations,
            parallelism: self.config.pool.workers(),
        }
    }
}

/// Checks every routed net and aggregates the paper's table metrics.
/// Failed nets contribute nothing (the paper notes the baseline's lower
/// #VV comes from exactly this).
#[must_use]
pub fn build_report(
    circuit: &Circuit,
    plan: &StitchPlan,
    detailed: &DetailedResult,
    elapsed: std::time::Duration,
) -> RouteReport {
    let mut report = RouteReport {
        total_nets: circuit.net_count(),
        routed_nets: detailed.routed_count,
        elapsed,
        ..RouteReport::default()
    };
    for (i, geom) in detailed.geometry.iter().enumerate() {
        if !detailed.routed[i] {
            continue;
        }
        // `check_geometry` asks about pins only for vias and wires on a
        // stitching line, so most nets never build their pin set.
        let pins: OnceCell<FastSet<Point>> = OnceCell::new();
        let is_pin = |p| {
            pins.get_or_init(|| circuit.nets()[i].pins().iter().map(|pin| pin.position).collect())
                .contains(&p)
        };
        let v = mebl_stitch::check_geometry(plan, geom, is_pin);
        report.via_violations += v.via_violations;
        report.via_violations_off_pin += v.via_violations_off_pin;
        report.vertical_violations += v.vertical_violations;
        report.short_polygons += v.short_polygons;
        report.wirelength += v.wirelength;
        report.vias += v.via_count;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_netlist::{BenchmarkSpec, GenerateConfig};

    fn quick(name: &str, seed: u64) -> Circuit {
        BenchmarkSpec::by_name(name)
            .unwrap()
            .generate(&GenerateConfig::quick(seed))
    }

    #[test]
    fn stitch_aware_flow_routes_and_is_hard_clean() {
        let c = quick("S5378", 3);
        let out = Router::new(RouterConfig::stitch_aware()).route(&c);
        assert!(out.report.routability() > 0.9, "{}", out.report.routability());
        assert_eq!(out.report.vertical_violations, 0);
        assert_eq!(out.report.via_violations_off_pin, 0);
    }

    #[test]
    fn baseline_flow_also_hard_clean_but_more_short_polygons() {
        let c = quick("S5378", 3);
        let aware = Router::new(RouterConfig::stitch_aware()).route(&c);
        let base = Router::new(RouterConfig::baseline()).route(&c);
        assert_eq!(base.report.vertical_violations, 0);
        assert_eq!(base.report.via_violations_off_pin, 0);
        assert!(
            aware.report.short_polygons <= base.report.short_polygons,
            "aware {} vs baseline {}",
            aware.report.short_polygons,
            base.report.short_polygons
        );
    }

    #[test]
    fn report_counts_only_routed_nets() {
        let c = quick("S9234", 5);
        let out = Router::new(RouterConfig::stitch_aware()).route(&c);
        assert!(out.report.routed_nets <= out.report.total_nets);
        assert_eq!(
            out.report.routed_nets,
            out.detailed.routed.iter().filter(|&&r| r).count()
        );
    }

    #[test]
    fn stage_timings_cover_elapsed() {
        let c = quick("S5378", 8);
        let out = Router::default().route(&c);
        let sum = out.timings.global + out.timings.assignment + out.timings.detailed + out.timings.check;
        assert!(sum <= out.report.elapsed, "stages cannot exceed total");
        // The four timed stages account for the bulk of the run (plan
        // construction and bookkeeping are the only code outside them).
        assert!(
            sum.as_secs_f64() >= out.report.elapsed.as_secs_f64() * 0.5,
            "stages {sum:?} vs total {:?}",
            out.report.elapsed
        );
        assert!(out.timings.detailed > std::time::Duration::ZERO);
    }

    #[test]
    fn outcome_parts_are_consistent() {
        let c = quick("Primary1", 2);
        let out = Router::default().route(&c);
        assert_eq!(out.global.routes.len(), c.net_count());
        assert_eq!(out.detailed.geometry.len(), c.net_count());
        assert_eq!(out.plan.outline(), c.outline());
    }

    #[test]
    fn unconstrained_run_records_no_degradations() {
        let c = quick("S5378", 3);
        let out = Router::default().route(&c);
        assert!(!out.is_degraded(), "unexpected: {:?}", out.degradations);
    }

    #[test]
    fn dead_budget_is_a_typed_error() {
        let c = quick("S5378", 3);
        let config = RouterConfig::stitch_aware().with_budget(RunBudget::with_max_expansions(0));
        assert!(matches!(
            Router::new(config).try_route(&c),
            Err(RouteError::BudgetExhausted)
        ));
    }

    #[test]
    fn expansion_cap_degrades_instead_of_failing() {
        let c = quick("S5378", 3);
        let config = RouterConfig::stitch_aware().with_budget(RunBudget::with_max_expansions(500));
        let out = Router::new(config)
            .try_route(&c)
            .expect("capped run still produces an outcome");
        assert!(out.is_degraded(), "a 500-expansion cap must bite");
        assert!(out
            .degradations
            .iter()
            .any(|d| d.kind == DegradationKind::BudgetExhausted));
        // Partial results keep their shape: one entry per net.
        assert_eq!(out.global.routes.len(), c.net_count());
        assert_eq!(out.detailed.geometry.len(), c.net_count());
    }

    #[test]
    fn degenerate_stitch_config_is_reported_not_panicked() {
        let c = quick("S5378", 3);
        let mut config = RouterConfig::stitch_aware();
        config.stitch.period = 0;
        match Router::new(config).try_route(&c) {
            Err(RouteError::InvalidConfig(msg)) => assert!(msg.contains("period")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn validate_flags_pin_on_stitch_line_as_warning() {
        use mebl_geom::{Layer, Point, Rect};
        use mebl_netlist::{Net, Pin};
        let net = Net::new(
            "a",
            vec![
                Pin::new(Point::new(15, 3), Layer::new(0)),
                Pin::new(Point::new(40, 9), Layer::new(0)),
            ],
        );
        let c = Circuit::new("demo", Rect::new(0, 0, 59, 19), 3, vec![net]);
        let router = Router::default();
        let issues = router.validate(&c);
        assert!(issues.iter().any(|i| !i.is_error()));
        assert!(!issues.iter().any(CircuitIssue::is_error));
        // Warnings alone must not block routing.
        assert!(router.try_route(&c).is_ok());
    }
}

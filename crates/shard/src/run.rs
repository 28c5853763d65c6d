//! The sharded routing driver.
//!
//! `route_sharded_with` decomposes, routes every panel through the
//! routine its caller passes over the `mebl-par` pool, merges, and
//! hands back a full-die [`RoutingOutcome`]. `route_sharded` (the
//! `--shards <n>` entry point) routes each panel in process; the
//! coordinator passes its worker dispatch instead.
//!
//! Determinism contract: the panel decomposition is a pure function of
//! `(circuit, stitch config)` and each panel routes with a serial
//! single-fragment configuration, so `shards` controls only how many
//! pool workers the fixed job list fans out across — the merged outcome
//! is byte-identical at every shard count. As with thread counts
//! (DESIGN.md §9), wall-clock-budgeted multi-shard runs are the one
//! sanctioned nonreproducibility: each fragment arms the full budget at
//! its own start time. Expansion budgets stay deterministic — the cap
//! applies per fragment.

use crate::merge::{merge_fragments, FragmentOutcome};
use crate::split::{PanelJob, ShardPlan};
use mebl_geom::Coord;
use mebl_netlist::{Circuit, CircuitIssue};
use mebl_par::Pool;
use mebl_route::{CancelToken, Router, RouterConfig, RoutingOutcome, RunBudget, Stopwatch};
use mebl_stitch::StitchConfig;

/// Options for one sharded run.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Route panels with the baseline (non-stitch-aware) presets.
    pub baseline: bool,
    /// Stitch-period override for the die (`None` = default geometry).
    pub period: Option<Coord>,
    /// Requested fan-out width; clamped to the panel count. Has no
    /// effect on the output bytes.
    pub shards: usize,
    /// Budget applied to **each** panel job independently.
    pub budget: RunBudget,
}

impl ShardOptions {
    /// Default options at the given fan-out width.
    pub fn new(shards: usize) -> Self {
        Self {
            baseline: false,
            period: None,
            shards,
            budget: RunBudget::default(),
        }
    }

    /// The stitch geometry this run splits and audits against.
    pub fn stitch(&self) -> StitchConfig {
        let mut stitch = StitchConfig::default();
        if let Some(p) = self.period {
            stitch.period = p;
        }
        stitch
    }
}

/// Typed failures of the sharded driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The options are unusable (zero shards, degenerate period).
    InvalidConfig(String),
    /// Pre-flight validation found error-severity issues.
    InvalidCircuit(Vec<CircuitIssue>),
    /// The budget was spent before any panel could route.
    BudgetExhausted,
    /// One panel job failed with a typed routing error.
    Panel {
        /// The panel's stable key.
        key: String,
        /// The underlying error, rendered.
        detail: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::InvalidConfig(msg) => write!(f, "invalid shard configuration: {msg}"),
            ShardError::InvalidCircuit(issues) => {
                let errors = issues.iter().filter(|i| i.is_error()).count();
                write!(f, "invalid circuit: {errors} error(s)")
            }
            ShardError::BudgetExhausted => f.write_str("budget exhausted before routing"),
            ShardError::Panel { key, detail } => write!(f, "panel {key} failed: {detail}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// A completed sharded run: the merged outcome plus decomposition stats.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The merged full-die outcome.
    pub outcome: RoutingOutcome,
    /// Number of panel jobs the circuit split into.
    pub jobs: usize,
    /// Nets cut across at least one stitching line.
    pub cut_nets: usize,
    /// Nets owned by the residual panel.
    pub residual_nets: usize,
    /// Effective pool width the jobs fanned out across.
    pub shards: usize,
}

/// The exact configuration one panel job routes with: the mode's
/// preset over the panel's period ([`RouterConfig::preset`] couples it
/// into the global tile size) on a serial pool — the same derivation
/// the serve wire schema applies to a fragment request, so in-process
/// fragments and worker-routed fragments are the same computation.
pub fn fragment_config(baseline: bool, period: Coord, budget: RunBudget) -> RouterConfig {
    let stitch = StitchConfig {
        period,
        ..StitchConfig::default()
    };
    RouterConfig::preset(baseline, stitch).with_budget(budget)
}

/// Splits `circuit` at its stitch boundaries, routes every panel, and
/// merges the fragments into one audited-shape outcome.
pub fn route_sharded(circuit: &Circuit, opts: &ShardOptions) -> Result<ShardedRun, ShardError> {
    route_sharded_under(circuit, opts, &CancelToken::inert())
}

/// Like [`route_sharded`], but every panel job additionally stops when
/// `interrupt` latches — the hook a draining service composes its
/// shutdown token through, mirroring `Router::try_route_under`.
pub fn route_sharded_under(
    circuit: &Circuit,
    opts: &ShardOptions,
    interrupt: &CancelToken,
) -> Result<ShardedRun, ShardError> {
    route_sharded_with(circuit, opts, |job| {
        Router::new(fragment_config(opts.baseline, job.period, opts.budget))
            .try_route_under(&job.circuit, interrupt)
            .map(|outcome| FragmentOutcome::from_outcome(&outcome))
            .map_err(|e| ShardError::Panel {
                key: job.key.clone(),
                detail: e.to_string(),
            })
    })
}

/// The one sharded driver: pre-flight, split, route every panel with
/// `route_panel` over a pool `opts.shards` wide (clamped to the panel
/// count), then either the first failed panel's error in job order or
/// the merge. The merged report's `elapsed` is the driver's wall time,
/// pre-flight through merge.
/// [`route_sharded_under`] passes an in-process router; the coordinator
/// passes its worker dispatch, so both run the same checks in the same
/// order and the same merge.
///
/// # Errors
///
/// A failed pre-flight comes back as `E::from` the [`ShardError`]
/// before any panel routes; otherwise the first panel error in job
/// order.
pub fn route_sharded_with<E, F>(
    circuit: &Circuit,
    opts: &ShardOptions,
    route_panel: F,
) -> Result<ShardedRun, E>
where
    E: From<ShardError> + Send,
    F: Fn(&PanelJob) -> Result<FragmentOutcome, E> + Sync,
{
    let start = Stopwatch::start();
    preflight(circuit, opts)?;
    let plan = ShardPlan::new(circuit, opts.stitch());
    let width = opts.shards.min(plan.jobs.len()).max(1);
    let fragments = Pool::new(width)
        .par_map_indexed(&plan.jobs, |_, job| route_panel(job))
        .into_iter()
        .collect::<Result<Vec<_>, E>>()?;
    let mut outcome = merge_fragments(circuit, opts.baseline, &plan, &fragments);
    outcome.report.elapsed = start.elapsed();
    Ok(ShardedRun {
        outcome,
        jobs: plan.jobs.len(),
        cut_nets: plan.cut_net_count(),
        residual_nets: plan.residual_net_count(),
        shards: width,
    })
}

/// The checks a sharded run passes before it splits: usable options,
/// a circuit valid against the *monolithic* stitch geometry (pins on
/// stitching lines are warnings there and land in the residual panel
/// here; errors stay errors), and a budget not spent on arrival.
fn preflight(circuit: &Circuit, opts: &ShardOptions) -> Result<(), ShardError> {
    if opts.shards == 0 {
        return Err(ShardError::InvalidConfig(
            "shard count must be at least 1".to_string(),
        ));
    }
    let stitch = opts.stitch();
    if stitch.period <= 1 {
        return Err(ShardError::InvalidConfig(format!(
            "stitch period must be > 1, got {}",
            stitch.period
        )));
    }
    let issues = Router::new(RouterConfig::preset(opts.baseline, stitch)).validate(circuit);
    if issues.iter().any(CircuitIssue::is_error) {
        return Err(ShardError::InvalidCircuit(issues));
    }
    if opts.budget.is_dead_on_arrival() {
        return Err(ShardError::BudgetExhausted);
    }
    Ok(())
}

//! Rip-up, re-route and outcome patching.

use crate::closure::affected_nets;
use crate::edit::{apply_edits, CircuitEdit, DeltaError, EditPlan};
use mebl_assign::TrackResult;
use mebl_geom::RouteGeometry;
use mebl_global::GlobalRoute;
use mebl_netlist::{Circuit, CircuitIssue};
use mebl_route::{
    build_report, CancelToken, RouterConfig, RoutingOutcome, StageTimings, Stopwatch,
};
use mebl_stitch::StitchPlan;

/// Result of a delta routing run.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The edited circuit the patched outcome describes.
    pub circuit: Circuit,
    /// The patched outcome: preserved nets byte-identical to the prior
    /// run, affected nets freshly routed.
    pub outcome: RoutingOutcome,
    /// Indices (in the edited circuit) of the nets that were ripped up
    /// and re-routed. Empty for an empty edit list.
    pub rerouted: Vec<usize>,
}

/// Applies `edits` to `base` and patches `prior` into an outcome for
/// the edited circuit, re-routing only the affected-net closure.
///
/// The undo side is exact by construction: global demands and detailed
/// occupancy are pure functions of the per-net routes, so "rip up net
/// i" is simply "do not re-apply net i's prior state" — preserved nets
/// re-apply their prior routes and geometry untouched, and the
/// re-route runs against exactly the occupancy a from-scratch route
/// would see after routing the preserved nets first.
///
/// An **empty** edit list short-circuits: the prior outcome comes back
/// as a clone, bit-identical, with nothing re-routed.
///
/// # Errors
///
/// [`DeltaError`] on an invalid edit list, a stitch-plan mismatch
/// between `config` and `prior`, or a prior outcome whose shape does
/// not match `base`.
pub fn route_delta(
    base: &Circuit,
    prior: &RoutingOutcome,
    edits: &[CircuitEdit],
    config: &RouterConfig,
) -> Result<DeltaOutcome, DeltaError> {
    route_delta_under(base, prior, edits, config, &CancelToken::inert())
}

/// [`route_delta`] with an external interrupt composed into the budget
/// token, mirroring `Router::try_route_under` — a service daemon can
/// cancel an in-flight delta job the same way it cancels a full route.
///
/// # Errors
///
/// Same contract as [`route_delta`].
pub fn route_delta_under(
    base: &Circuit,
    prior: &RoutingOutcome,
    edits: &[CircuitEdit],
    config: &RouterConfig,
    interrupt: &CancelToken,
) -> Result<DeltaOutcome, DeltaError> {
    let n = base.net_count();
    if prior.global.routes.len() != n {
        return Err(DeltaError::PriorMismatch(format!(
            "{} global routes for {} nets",
            prior.global.routes.len(),
            n
        )));
    }
    if prior.detailed.geometry.len() != n || prior.detailed.routed.len() != n {
        return Err(DeltaError::PriorMismatch(format!(
            "detailed result covers {} nets, circuit has {}",
            prior.detailed.geometry.len(),
            n
        )));
    }
    let plan = StitchPlan::new(base.outline(), config.stitch);
    if plan != prior.plan {
        return Err(DeltaError::PlanMismatch);
    }

    if edits.is_empty() {
        return Ok(DeltaOutcome {
            circuit: base.clone(),
            outcome: prior.clone(),
            rerouted: Vec::new(),
        });
    }

    let start = Stopwatch::start();
    let edit_plan = apply_edits(base, edits)?;
    let issues = edit_plan.circuit.validate(plan.lines());
    if issues.iter().any(CircuitIssue::is_error) {
        return Err(DeltaError::InvalidCircuit(issues));
    }
    let rerouted = affected_nets(prior, &edit_plan);

    let m = edit_plan.circuit.net_count();
    let mut is_affected = vec![false; m];
    for &i in &rerouted {
        is_affected[i] = true;
    }

    let mut global_preserved: Vec<Option<GlobalRoute>> = vec![None; m];
    let mut detailed_preserved: Vec<Option<(bool, RouteGeometry)>> = vec![None; m];
    for (new, origin) in edit_plan.origin.iter().enumerate() {
        let Some(old) = origin else { continue };
        if is_affected[new] {
            continue;
        }
        global_preserved[new] = Some(prior.global.routes[*old].clone());
        detailed_preserved[new] = Some((
            prior.detailed.routed[*old],
            prior.detailed.geometry[*old].clone(),
        ));
    }

    let token = config.budget.arm_under(interrupt);
    let mut timings = StageTimings::default();

    let t = Stopwatch::start();
    let mut global_config = config.global.clone();
    global_config.cancel = token.clone();
    let global = mebl_global::route_incremental(
        &edit_plan.circuit,
        &plan,
        &global_config,
        global_preserved,
    );
    timings.global = t.elapsed();

    let t = Stopwatch::start();
    let tracks = remap_tracks(&prior.tracks, n, &edit_plan, &is_affected);
    timings.assignment = t.elapsed();

    let t = Stopwatch::start();
    let mut detailed_config = config.detailed.clone();
    detailed_config.cancel = token.clone();
    let detailed = mebl_detailed::route_incremental(
        &edit_plan.circuit,
        &plan,
        &detailed_config,
        detailed_preserved,
    );
    timings.detailed = t.elapsed();

    let t = Stopwatch::start();
    let mut report = build_report(&edit_plan.circuit, &plan, &detailed, start.elapsed());
    timings.check = t.elapsed();
    report.elapsed = start.elapsed();

    let degradations = token.take_degradations();
    Ok(DeltaOutcome {
        outcome: RoutingOutcome {
            plan,
            global,
            tracks,
            detailed,
            report,
            timings,
            degradations,
        },
        circuit: edit_plan.circuit,
        rerouted,
    })
}

/// Carries the prior track assignment over to the edited circuit:
/// segments of surviving, unaffected nets are remapped to their new net
/// indices; everything belonging to a removed or re-routed net is
/// dropped. The auditor never reads the track stage (detailed geometry
/// is the authoritative output), so `bad_ends` is carried over as-is.
fn remap_tracks(
    prior: &TrackResult,
    base_nets: usize,
    plan: &EditPlan,
    is_affected: &[bool],
) -> TrackResult {
    let mut base_to_new: Vec<Option<usize>> = vec![None; base_nets];
    for (new, origin) in plan.origin.iter().enumerate() {
        if let Some(old) = origin {
            if !is_affected[new] {
                base_to_new[*old] = Some(new);
            }
        }
    }
    let mut out = TrackResult {
        bad_ends: prior.bad_ends,
        timed_out: prior.timed_out,
        ..TrackResult::default()
    };
    for seg in &prior.segments {
        if let Some(Some(new)) = base_to_new.get(seg.net) {
            let mut seg = seg.clone();
            seg.net = *new;
            out.segments.push(seg);
        }
    }
    for &old in &prior.failed_nets {
        if let Some(Some(new)) = base_to_new.get(old) {
            out.failed_nets.insert(*new);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_geom::{Layer, Point, Rect};
    use mebl_netlist::{Circuit, Net, Pin};
    use mebl_route::Router;

    fn pin(x: i32, y: i32, l: u8) -> Pin {
        Pin::new(Point::new(x, y), Layer::new(l))
    }

    fn circuit() -> Circuit {
        Circuit::new(
            "t",
            Rect::new(0, 0, 79, 79),
            4,
            vec![
                Net::new("a", vec![pin(2, 30, 0), pin(70, 30, 0)]),
                Net::new("b", vec![pin(2, 70, 0), pin(70, 70, 0)]),
                Net::new("c", vec![pin(40, 2, 1), pin(40, 60, 1)]),
            ],
        )
    }

    #[test]
    fn empty_edit_list_is_bit_identical() {
        let c = circuit();
        let config = RouterConfig::stitch_aware();
        let prior = Router::new(config.clone()).route(&c);
        let delta = route_delta(&c, &prior, &[], &config).unwrap();
        assert!(delta.rerouted.is_empty());
        assert_eq!(delta.circuit, c);
        assert_eq!(delta.outcome.detailed.geometry, prior.detailed.geometry);
        assert_eq!(delta.outcome.detailed.routed, prior.detailed.routed);
        assert_eq!(delta.outcome.global.routes, prior.global.routes);
        assert_eq!(delta.outcome.report, prior.report);
    }

    #[test]
    fn preserved_nets_stay_byte_identical_after_an_edit() {
        let c = circuit();
        let config = RouterConfig::stitch_aware();
        let prior = Router::new(config.clone()).route(&c);
        let edits = vec![CircuitEdit::AddNet {
            name: "d".into(),
            pins: vec![pin(10, 50, 0), pin(60, 55, 0)],
        }];
        let delta = route_delta(&c, &prior, &edits, &config).unwrap();
        assert_eq!(delta.circuit.net_count(), 4);
        for old in 0..3 {
            if delta.rerouted.contains(&old) {
                continue;
            }
            assert_eq!(
                delta.outcome.detailed.geometry[old],
                prior.detailed.geometry[old]
            );
        }
        assert!(delta.rerouted.contains(&3));
        assert!(delta.outcome.detailed.routed[3]);
    }

    #[test]
    fn plan_mismatch_is_typed() {
        let c = circuit();
        let config = RouterConfig::stitch_aware();
        let prior = Router::new(config.clone()).route(&c);
        let mut other = config.clone();
        other.stitch.period = 20;
        let e = route_delta(&c, &prior, &[], &other).unwrap_err();
        assert_eq!(e, DeltaError::PlanMismatch);
    }

    #[test]
    fn prior_mismatch_is_typed() {
        let c = circuit();
        let config = RouterConfig::stitch_aware();
        let prior = Router::new(config.clone()).route(&c);
        let smaller = Circuit::new(
            "t",
            Rect::new(0, 0, 79, 79),
            4,
            vec![Net::new("a", vec![pin(2, 30, 0), pin(70, 30, 0)])],
        );
        let e = route_delta(&smaller, &prior, &[], &config).unwrap_err();
        assert!(matches!(e, DeltaError::PriorMismatch(_)));
    }
}

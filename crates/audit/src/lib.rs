//! `mebl-audit` — an independent, deliberately naive verifier for routing
//! solutions produced by `mebl-route`.
//!
//! The router's own checker ([`mebl_stitch::check_geometry`]) is part of
//! the flow it validates; a bug shared by router and checker is invisible
//! to it. This crate re-derives every published number from the raw
//! solution with *different* algorithms and data structures — linear scans
//! instead of binary searches, cell sets instead of interval merges, a
//! local union-find instead of the routing stages' bookkeeping — and
//! reports every disagreement as an [`AuditFinding`]:
//!
//! * **Connectivity**: each routed net's drawn geometry must cover every
//!   pin and form one connected component (union-find over grid points).
//! * **Well-formedness**: segments/vias on-stack, inside the outline,
//!   non-degenerate; vias join two existing layers.
//! * **Bad patterns** (paper §II-A): a second implementation of the `#VV`,
//!   `#SP` and vertical-riding checks whose counts must agree *exactly*
//!   with `check_geometry` and the published [`RouteReport`].
//! * **Global resources** (eqs. 1–3): tile-graph capacities re-derived
//!   from the stitch plan, edge/vertex demand recounted from the raw
//!   routes, and the published [`GlobalMetrics`] totals re-verified.
//!
//! A clean solution audits clean: zero findings, and
//! [`AuditReport::recount`] equal to the router's own metrics.
//!
//! ```
//! use mebl_audit::audit_outcome;
//! use mebl_netlist::{BenchmarkSpec, GenerateConfig};
//! use mebl_route::{Router, RouterConfig};
//!
//! let circuit = BenchmarkSpec::by_name("S5378")
//!     .unwrap()
//!     .generate(&GenerateConfig::quick(1));
//! let config = RouterConfig::stitch_aware();
//! let outcome = Router::new(config.clone()).route(&circuit);
//! let audit = audit_outcome(&circuit, &config, &outcome);
//! assert_eq!(audit.error_count(), 0, "{audit}");
//! ```
//!
//! [`GlobalMetrics`]: mebl_global::GlobalMetrics
//! [`RouteReport`]: mebl_route::RouteReport

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity;
mod finding;
mod geometry;
mod patterns;

pub use finding::{AuditCounts, AuditFinding, AuditReport, FindingKind, Severity};

use mebl_geom::Point;
use mebl_netlist::{Circuit, NetId};
use mebl_route::{RouterConfig, RoutingOutcome};
use std::collections::BTreeSet;

/// Audits one routing solution end to end.
///
/// `circuit` and `config` must be the inputs the solution was produced
/// from; the audit re-derives everything else from `outcome` itself.
#[must_use]
pub fn audit_outcome(
    circuit: &Circuit,
    config: &RouterConfig,
    outcome: &RoutingOutcome,
) -> AuditReport {
    let mut out = AuditReport::default();
    let plan = &outcome.plan;

    check_plan(circuit, config, outcome, &mut out);

    // Per-net geometry checks over the detailed-routing output.
    let mut routed_count = 0usize;
    for (i, geometry) in outcome.detailed.geometry.iter().enumerate() {
        let id = NetId(i as u32);
        if !outcome.detailed.routed.get(i).copied().unwrap_or(false) {
            if !geometry.is_empty() {
                out.push(AuditFinding {
                    kind: FindingKind::RoutedFlagMismatch,
                    net: Some(id),
                    location: None,
                    expected: Some(0),
                    actual: Some(geometry.segments().len() as u64),
                    detail: "net flagged unrouted but owns drawn geometry".into(),
                });
            }
            continue;
        }
        routed_count += 1;
        let net = &circuit.nets()[i];
        geometry::check_well_formed(
            id,
            geometry,
            circuit.outline(),
            circuit.layer_count(),
            &mut out,
        );
        geometry::check_connectivity(id, net, geometry, &mut out);
        geometry::check_blockages(id, geometry, circuit.blockages(), &mut out);

        // Independent bad-pattern recount vs the flow's own checker.
        let pins: BTreeSet<Point> = net.pins().iter().map(|p| p.position).collect();
        let (counts, sites) = patterns::recount_net(plan, geometry, &pins);
        for p in &sites.off_pin_vias {
            out.push(hard(FindingKind::OffPinViaOnLine, id, *p));
        }
        for p in &sites.vertical_rides {
            out.push(hard(FindingKind::VerticalRideOnLine, id, *p));
        }
        let checked = mebl_stitch::check_geometry(plan, geometry, |p| pins.contains(&p));
        let pairs = [
            (
                FindingKind::ViaViolationMismatch,
                counts.via_violations,
                checked.via_violations as u64,
            ),
            (
                FindingKind::OffPinViaMismatch,
                counts.via_violations_off_pin,
                checked.via_violations_off_pin as u64,
            ),
            (
                FindingKind::VerticalRideMismatch,
                counts.vertical_violations,
                checked.vertical_violations as u64,
            ),
            (
                FindingKind::ShortPolygonMismatch,
                counts.short_polygons,
                checked.short_polygons as u64,
            ),
            (
                FindingKind::WirelengthMismatch,
                counts.wirelength,
                checked.wirelength,
            ),
            (
                FindingKind::ViaCountMismatch,
                counts.via_count,
                checked.via_count as u64,
            ),
        ];
        for (kind, audit, reported) in pairs {
            if audit != reported {
                out.push(AuditFinding {
                    kind,
                    net: Some(id),
                    location: None,
                    expected: Some(audit),
                    actual: Some(reported),
                    detail: "independent recount disagrees with check_geometry".into(),
                });
            }
        }
        out.recount.accumulate(&counts);
    }
    out.nets_audited = routed_count;

    // Published aggregate report vs the auditor's totals.
    check_report(circuit, outcome, routed_count, &mut out);

    // Global-routing resource model and metrics (eqs. 1–3).
    capacity::check_global(
        circuit.outline(),
        circuit.layer_count(),
        plan,
        &config.global,
        &outcome.global,
        &mut out,
    );
    out
}

/// Verifies the stitch plan itself: uniformly spaced lines strictly inside
/// the outline, re-derived by plain iteration.
fn check_plan(
    circuit: &Circuit,
    config: &RouterConfig,
    outcome: &RoutingOutcome,
    out: &mut AuditReport,
) {
    let outline = circuit.outline();
    let period = config.stitch.period;
    let mut expected = Vec::new();
    let mut x = outline.x0() + period;
    while x < outline.x1() {
        expected.push(x);
        x += period;
    }
    if outcome.plan.lines() != expected.as_slice() {
        out.push(AuditFinding {
            kind: FindingKind::CapacityModelMismatch,
            net: None,
            location: None,
            expected: Some(expected.len() as u64),
            actual: Some(outcome.plan.lines().len() as u64),
            detail: format!(
                "stitch plan lines {:?} but period {period} over {outline} implies {:?}",
                outcome.plan.lines(),
                expected
            ),
        });
    }
}

/// Compares the published [`mebl_route::RouteReport`] against the
/// auditor's aggregated recount.
fn check_report(
    circuit: &Circuit,
    outcome: &RoutingOutcome,
    routed_count: usize,
    out: &mut AuditReport,
) {
    let report = &outcome.report;
    if report.routed_nets != routed_count || report.total_nets != circuit.net_count() {
        out.push(AuditFinding {
            kind: FindingKind::RoutedFlagMismatch,
            net: None,
            location: None,
            expected: Some(routed_count as u64),
            actual: Some(report.routed_nets as u64),
            detail: format!(
                "report claims {}/{} nets but the solution routes {}/{}",
                report.routed_nets,
                report.total_nets,
                routed_count,
                circuit.net_count()
            ),
        });
    }
    let recount = out.recount;
    let fields = [
        ("via_violations", recount.via_violations, report.via_violations as u64),
        (
            "via_violations_off_pin",
            recount.via_violations_off_pin,
            report.via_violations_off_pin as u64,
        ),
        (
            "vertical_violations",
            recount.vertical_violations,
            report.vertical_violations as u64,
        ),
        ("short_polygons", recount.short_polygons, report.short_polygons as u64),
        ("wirelength", recount.wirelength, report.wirelength),
        ("vias", recount.via_count, report.vias as u64),
    ];
    for (name, audit, reported) in fields {
        if audit != reported {
            out.push(AuditFinding {
                kind: FindingKind::ReportFieldMismatch,
                net: None,
                location: None,
                expected: Some(audit),
                actual: Some(reported),
                detail: format!("RouteReport.{name}"),
            });
        }
    }
}

fn hard(kind: FindingKind, net: NetId, location: Point) -> AuditFinding {
    AuditFinding {
        kind,
        net: Some(net),
        location: Some(location),
        expected: None,
        actual: None,
        detail: String::new(),
    }
}

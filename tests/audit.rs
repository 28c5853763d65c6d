//! Auditor-as-oracle integration tests: the independent verifier must
//! pass clean routing solutions and catch every class of injected defect.

use mebl_audit::{audit_outcome, FindingKind};
use mebl_geom::{Layer, Point, Rect, RouteGeometry, Segment, Via};
use mebl_netlist::{BenchmarkSpec, Circuit, GenerateConfig};
use mebl_route::{Router, RouterConfig, RoutingOutcome};
use mebl_testkit::prop::{self, Config};
use mebl_testkit::{prop_assert, prop_assert_eq, prop_check};

fn quick(seed: u64) -> Circuit {
    BenchmarkSpec::by_name("S5378")
        .expect("known benchmark")
        .generate(&GenerateConfig::quick(seed))
}

fn routed(circuit: &Circuit, config: &RouterConfig) -> RoutingOutcome {
    Router::new(config.clone()).route(circuit)
}

/// Acceptance: the stitch-aware flow on the S5378 quick seeds audits
/// completely clean — no findings of any severity, and the independent
/// recount reproduces the published report exactly.
#[test]
fn stitch_aware_quick_seeds_audit_clean() {
    for seed in [1, 2, 3] {
        let circuit = quick(seed);
        let config = RouterConfig::stitch_aware();
        let outcome = routed(&circuit, &config);
        let audit = audit_outcome(&circuit, &config, &outcome);
        assert!(
            audit.is_clean(),
            "seed {seed}: {:#?}",
            audit.findings
        );
        assert_eq!(audit.nets_audited, outcome.report.routed_nets);
        assert_eq!(audit.recount.via_violations, outcome.report.via_violations as u64);
        assert_eq!(audit.recount.short_polygons, outcome.report.short_polygons as u64);
        assert_eq!(audit.recount.vertical_violations, 0);
        assert_eq!(audit.recount.wirelength, outcome.report.wirelength);
        assert_eq!(audit.recount.via_count, outcome.report.vias as u64);
    }
}

/// Oracle property: on random quick circuits, both router presets produce
/// solutions with zero error-severity findings and exact count agreement.
#[test]
fn prop_audit_is_error_free_for_both_configs() {
    prop_check!(Config::with_cases(4), prop::ints(0u64..1 << 32), |seed| {
        let circuit = quick(seed);
        for config in [RouterConfig::stitch_aware(), RouterConfig::baseline()] {
            let outcome = routed(&circuit, &config);
            let audit = audit_outcome(&circuit, &config, &outcome);
            prop_assert_eq!(audit.error_count(), 0);
            prop_assert_eq!(audit.recount.wirelength, outcome.report.wirelength);
            prop_assert_eq!(
                audit.recount.short_polygons,
                outcome.report.short_polygons as u64
            );
            prop_assert!(audit.recount.hard_clean());
        }
    });
}

/// A seeded run shared by the mutation tests below.
fn mutated_base() -> (Circuit, RouterConfig, RoutingOutcome) {
    let circuit = quick(1);
    let config = RouterConfig::stitch_aware();
    let outcome = routed(&circuit, &config);
    (circuit, config, outcome)
}

/// Index of a routed net, preferring one whose pins are far apart.
fn pick_routed_net(circuit: &Circuit, outcome: &RoutingOutcome) -> usize {
    (0..circuit.net_count())
        .filter(|&i| outcome.detailed.routed[i])
        .max_by_key(|&i| circuit.nets()[i].hpwl())
        .expect("at least one routed net")
}

#[test]
fn mutation_off_pin_via_on_line_is_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let line = outcome.plan.lines()[0];
    // A y with no pin of this net on the line.
    let y = (circuit.outline().y0()..=circuit.outline().y1())
        .find(|&y| {
            circuit.nets()[net]
                .pins()
                .iter()
                .all(|p| p.position != Point::new(line, y))
        })
        .expect("some line cell is pin-free");
    outcome.detailed.geometry[net].push_via(Via::new(line, y, Layer::new(0)));
    let audit = audit_outcome(&circuit, &config, &outcome);
    assert!(
        audit.of_kind(FindingKind::OffPinViaOnLine).count() >= 1,
        "{:#?}",
        audit.findings
    );
}

#[test]
fn mutation_vertical_ride_is_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let line = outcome.plan.lines()[0];
    let y0 = circuit.outline().y0();
    outcome.detailed.geometry[net].push_segment(Segment::vertical(
        Layer::new(1),
        line,
        y0,
        y0 + 3,
    ));
    let audit = audit_outcome(&circuit, &config, &outcome);
    assert!(
        audit.of_kind(FindingKind::VerticalRideOnLine).count() >= 1,
        "{:#?}",
        audit.findings
    );
}

#[test]
fn mutation_short_polygon_is_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let line = outcome.plan.lines()[0];
    // A horizontal track this net does not already use on M0, so the new
    // run's ends are exactly where we put them.
    let y = (circuit.outline().y0()..=circuit.outline().y1())
        .find(|&y| {
            outcome.detailed.geometry[net]
                .segments()
                .iter()
                .all(|s| !(s.is_horizontal() && s.layer == Layer::new(0) && s.track == y))
        })
        .expect("free horizontal track");
    // Run cut by `line` with a via landing inside the unfriendly region.
    outcome.detailed.geometry[net].push_segment(Segment::horizontal(
        Layer::new(0),
        y,
        line - 5,
        line + 1,
    ));
    outcome.detailed.geometry[net].push_via(Via::new(line + 1, y, Layer::new(0)));
    let audit = audit_outcome(&circuit, &config, &outcome);
    let sp_mismatch = audit
        .of_kind(FindingKind::ReportFieldMismatch)
        .any(|f| f.detail.contains("short_polygons"));
    assert!(sp_mismatch, "{:#?}", audit.findings);
}

#[test]
fn mutation_duplicated_global_edges_are_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = (0..circuit.net_count())
        .find(|&i| !outcome.global.routes[i].edges.is_empty())
        .expect("some net crosses a tile boundary");
    let extra = outcome.global.routes[net].edges.clone();
    outcome.global.routes[net].edges.extend(extra);
    let audit = audit_outcome(&circuit, &config, &outcome);
    assert!(
        audit.of_kind(FindingKind::GlobalMetricsMismatch).count() >= 1,
        "{:#?}",
        audit.findings
    );
}

#[test]
fn mutation_disconnected_net_is_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let pins = circuit.nets()[net].pins();
    let (p0, p1) = (pins[0].position, pins[1].position);
    assert!(
        (p0.x - p1.x).abs() + (p0.y - p1.y).abs() > 3,
        "picked net's pins must be far apart"
    );
    // Replace the net's geometry with two short stubs, one per pin: every
    // pin is covered but the net falls into two components.
    let stub = |p: Point, layer: Layer| {
        let outline = circuit.outline();
        if p.x < outline.x1() {
            Segment::horizontal(layer, p.y, p.x, p.x + 1)
        } else {
            Segment::horizontal(layer, p.y, p.x - 1, p.x)
        }
    };
    let mut g = RouteGeometry::new();
    g.push_segment(stub(p0, pins[0].layer));
    g.push_segment(stub(p1, pins[1].layer));
    outcome.detailed.geometry[net] = g;
    let audit = audit_outcome(&circuit, &config, &outcome);
    let connectivity = audit.of_kind(FindingKind::DisconnectedNet).count()
        + audit.of_kind(FindingKind::PinNotCovered).count();
    assert!(connectivity >= 1, "{:#?}", audit.findings);
}

#[test]
fn mutation_unrouted_net_with_geometry_is_detected() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    outcome.detailed.routed[net] = false;
    outcome.detailed.routed_count -= 1;
    let audit = audit_outcome(&circuit, &config, &outcome);
    assert!(
        audit.of_kind(FindingKind::RoutedFlagMismatch).count() >= 1,
        "{:#?}",
        audit.findings
    );
}

/// An off-pin via and a vertical wire riding a stitching line, injected
/// together into one net: each is reported once, at its own site.
#[test]
fn mutation_line_defects_are_located() {
    let (circuit, config, mut outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let line = outcome.plan.lines()[0];
    let y0 = circuit.outline().y0();
    let y = (y0..=circuit.outline().y1())
        .find(|&y| {
            circuit.nets()[net]
                .pins()
                .iter()
                .all(|p| p.position != Point::new(line, y))
        })
        .expect("some line cell is pin-free");
    outcome.detailed.geometry[net].push_via(Via::new(line, y, Layer::new(0)));
    outcome.detailed.geometry[net].push_segment(Segment::vertical(Layer::new(1), line, y0, y0 + 3));
    let audit = audit_outcome(&circuit, &config, &outcome);
    let sites = |kind| -> Vec<Option<Point>> { audit.of_kind(kind).map(|f| f.location).collect() };
    assert_eq!(
        sites(FindingKind::OffPinViaOnLine),
        vec![Some(Point::new(line, y))],
        "{:#?}",
        audit.findings
    );
    assert_eq!(
        sites(FindingKind::VerticalRideOnLine),
        vec![Some(Point::new(line, y0))],
        "{:#?}",
        audit.findings
    );
}

/// A copy of `circuit` that also declares `blockages`, as if an ECO had
/// added keep-outs after routing: a solution of `circuit` audits against
/// it unchanged.
fn with_blockages(circuit: &Circuit, blockages: Vec<Rect>) -> Circuit {
    Circuit::with_blockages(
        circuit.name().to_string(),
        circuit.outline(),
        circuit.layer_count(),
        circuit.nets().to_vec(),
        blockages,
    )
}

/// A one-cell blockage dropped on a routed wire's end is reported
/// against that segment.
#[test]
fn mutation_segment_on_blockage_is_detected() {
    let (circuit, config, outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let seg = outcome.detailed.geometry[net]
        .segments()
        .iter()
        .find(|s| s.is_horizontal())
        .copied()
        .expect("routed net has a horizontal segment");
    let (a, _) = seg.endpoints();
    let blocked = with_blockages(&circuit, vec![Rect::from_point(a)]);
    let audit = audit_outcome(&blocked, &config, &outcome);
    assert!(
        audit
            .of_kind(FindingKind::GeometryOnBlockage)
            .any(|f| f.location == Some(a) && f.detail.starts_with("segment")),
        "{:#?}",
        audit.findings
    );
}

/// A one-cell blockage dropped on a routed via is reported against the
/// via itself, not only against the wires that meet there.
#[test]
fn mutation_via_in_blockage_is_detected() {
    let (circuit, config, outcome) = mutated_base();
    let net = pick_routed_net(&circuit, &outcome);
    let via = *outcome.detailed.geometry[net]
        .vias()
        .first()
        .expect("routed net has a via");
    let blocked = with_blockages(&circuit, vec![Rect::from_point(via.point())]);
    let audit = audit_outcome(&blocked, &config, &outcome);
    assert!(
        audit
            .of_kind(FindingKind::GeometryOnBlockage)
            .any(|f| f.location == Some(via.point()) && f.detail.contains("via")),
        "{:#?}",
        audit.findings
    );
}

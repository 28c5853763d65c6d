//! Well-formedness and connectivity checks over drawn geometry.
//!
//! Everything here is re-derived from the raw [`RouteGeometry`]: the
//! auditor never trusts the router's adjacency bookkeeping. Connectivity
//! uses a plain union-find over the grid points the net actually draws:
//! two points are joined only when they are consecutive cells of one
//! segment or the two layers of one via — exactly the electrical model of
//! the preferred-direction grid.

use crate::finding::{AuditFinding, AuditReport, FindingKind};
use mebl_geom::{GridPoint, Point, Rect, RouteGeometry};
use mebl_netlist::{Net, NetId};
use std::collections::BTreeMap;

/// Checks that no drawn geometry intersects an all-layer blockage.
///
/// Blockages are keep-outs on every layer, so 2-D overlap of a segment's
/// bounding box (exact for rectilinear wires) or a via's point is a
/// violation. Each segment and via scans the blockage list, so the cost
/// is geometry × blockages; one finding is emitted per element however
/// many blockages it touches.
pub(crate) fn check_blockages(
    net: NetId,
    geometry: &RouteGeometry,
    blockages: &[Rect],
    out: &mut AuditReport,
) {
    if blockages.is_empty() {
        return;
    }
    let hit = |r: Rect| blockages.iter().any(|b| b.overlaps(r));
    for seg in geometry.segments() {
        let bb = Rect::from_intervals(seg.x_interval(), seg.y_interval());
        if hit(bb) {
            let (a, b) = seg.endpoints();
            out.push(finding(
                FindingKind::GeometryOnBlockage,
                net,
                Some(a),
                format!("segment {a}-{b} crosses an all-layer blockage"),
            ));
        }
    }
    for via in geometry.vias() {
        if hit(Rect::new(via.x, via.y, via.x, via.y)) {
            out.push(finding(
                FindingKind::GeometryOnBlockage,
                net,
                Some(via.point()),
                "via lands inside a blockage".to_string(),
            ));
        }
    }
}

/// Minimal union-find, local to the auditor so the audit does not depend
/// on the structure used by the routing stages it verifies.
struct DisjointSets {
    parent: Vec<usize>,
}

impl DisjointSets {
    fn new() -> Self {
        Self { parent: Vec::new() }
    }

    fn make_set(&mut self) -> usize {
        self.parent.push(self.parent.len());
        self.parent.len() - 1
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Checks that every segment and via of one net is structurally sound:
/// inside the outline, on a layer of the stack, and non-degenerate.
pub(crate) fn check_well_formed(
    net: NetId,
    geometry: &RouteGeometry,
    outline: Rect,
    layer_count: u8,
    out: &mut AuditReport,
) {
    for seg in geometry.segments() {
        let (a, b) = seg.endpoints();
        if seg.layer.index() >= layer_count {
            out.push(finding(
                FindingKind::SegmentLayerOutOfStack,
                net,
                Some(a),
                format!("segment on layer {} of a {layer_count}-layer stack", seg.layer),
            ));
        }
        if !outline.contains(a) || !outline.contains(b) {
            out.push(finding(
                FindingKind::SegmentOutsideOutline,
                net,
                Some(a),
                format!("segment {a}-{b} escapes outline {outline}"),
            ));
        }
        if seg.is_empty() {
            out.push(finding(
                FindingKind::DegenerateSegment,
                net,
                Some(a),
                "zero-length segment".to_string(),
            ));
        }
    }
    for via in geometry.vias() {
        if !outline.contains(via.point()) {
            out.push(finding(
                FindingKind::ViaOutsideOutline,
                net,
                Some(via.point()),
                format!("via outside outline {outline}"),
            ));
        }
        if via.upper().index() >= layer_count {
            out.push(finding(
                FindingKind::ViaLayerOutOfStack,
                net,
                Some(via.point()),
                format!(
                    "via joins layers {}-{} but the stack has {layer_count}",
                    via.lower,
                    via.upper()
                ),
            ));
        }
    }
}

/// Checks that the net's drawn geometry electrically connects all of its
/// pins: every pin cell must be covered, and all pins must fall in one
/// connected component of the drawn metal.
pub(crate) fn check_connectivity(
    id: NetId,
    net: &Net,
    geometry: &RouteGeometry,
    out: &mut AuditReport,
) {
    let mut ids: BTreeMap<GridPoint, usize> = BTreeMap::new();
    let mut sets = DisjointSets::new();
    {
        let mut intern = |p: GridPoint, sets: &mut DisjointSets| -> usize {
            *ids.entry(p).or_insert_with(|| sets.make_set())
        };
        for seg in geometry.segments() {
            let mut prev: Option<usize> = None;
            for gp in seg.points() {
                let cur = intern(gp, &mut sets);
                if let Some(p) = prev {
                    sets.union(p, cur);
                }
                prev = Some(cur);
            }
        }
        for via in geometry.vias() {
            let lo = intern(GridPoint::new(via.x, via.y, via.lower), &mut sets);
            let hi = intern(GridPoint::new(via.x, via.y, via.upper()), &mut sets);
            sets.union(lo, hi);
        }
    }

    let mut root: Option<usize> = None;
    for pin in net.pins() {
        let gp = pin.position.on_layer(pin.layer);
        match ids.get(&gp).copied() {
            None => out.push(finding(
                FindingKind::PinNotCovered,
                id,
                Some(pin.position),
                format!("pin on {} touched by no segment or via", pin.layer),
            )),
            Some(node) => {
                let r = sets.find(node);
                match root {
                    None => root = Some(r),
                    Some(r0) if r0 != r => out.push(finding(
                        FindingKind::DisconnectedNet,
                        id,
                        Some(pin.position),
                        "pin in a different component than the first pin".to_string(),
                    )),
                    Some(_) => {}
                }
            }
        }
    }
}

fn finding(kind: FindingKind, net: NetId, location: Option<Point>, detail: String) -> AuditFinding {
    AuditFinding {
        kind,
        net: Some(net),
        location,
        expected: None,
        actual: None,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_geom::{Layer, Segment, Via};
    use mebl_netlist::Pin;

    fn report_for(
        geometry: &RouteGeometry,
        pins: &[(i32, i32)],
    ) -> AuditReport {
        let net = Net::new(
            "t",
            pins.iter()
                .map(|&(x, y)| Pin::new(Point::new(x, y), Layer::new(0)))
                .collect(),
        );
        let mut out = AuditReport::default();
        check_well_formed(NetId(0), geometry, Rect::new(0, 0, 59, 29), 3, &mut out);
        check_connectivity(NetId(0), &net, geometry, &mut out);
        out
    }

    #[test]
    fn straight_wire_connects_its_pins() {
        let mut g = RouteGeometry::new();
        g.push_segment(Segment::horizontal(Layer::new(0), 5, 2, 9));
        let r = report_for(&g, &[(2, 5), (9, 5)]);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn via_bridges_layers() {
        let mut g = RouteGeometry::new();
        g.push_segment(Segment::horizontal(Layer::new(0), 5, 2, 6));
        g.push_via(Via::new(6, 5, Layer::new(0)));
        g.push_segment(Segment::vertical(Layer::new(1), 6, 5, 9));
        g.push_via(Via::new(6, 9, Layer::new(1)));
        g.push_segment(Segment::horizontal(Layer::new(2), 9, 6, 11));
        let r = report_for(&g, &[(2, 5), (6, 5)]);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn stacked_segments_without_via_are_disconnected() {
        let mut g = RouteGeometry::new();
        g.push_segment(Segment::horizontal(Layer::new(0), 5, 2, 6));
        // Same footprint on M2 but no via joining them.
        g.push_segment(Segment::horizontal(Layer::new(2), 5, 2, 6));
        let r = report_for(&g, &[(2, 5), (6, 5)]);
        assert!(r.is_clean(), "layer-0 pins are covered");
        let mut out = AuditReport::default();
        let net = Net::new(
            "t",
            vec![
                Pin::new(Point::new(2, 5), Layer::new(0)),
                Pin::new(Point::new(6, 5), Layer::new(2)),
            ],
        );
        check_connectivity(NetId(0), &net, &g, &mut out);
        assert_eq!(out.of_kind(FindingKind::DisconnectedNet).count(), 1);
    }

    #[test]
    fn uncovered_pin_is_reported() {
        let mut g = RouteGeometry::new();
        g.push_segment(Segment::horizontal(Layer::new(0), 5, 2, 6));
        let r = report_for(&g, &[(2, 5), (20, 20)]);
        assert_eq!(r.of_kind(FindingKind::PinNotCovered).count(), 1);
    }

    #[test]
    fn malformed_geometry_reported() {
        let mut g = RouteGeometry::new();
        g.push_segment(Segment::horizontal(Layer::new(0), 5, 50, 70)); // escapes
        g.push_segment(Segment::horizontal(Layer::new(0), 7, 3, 3)); // degenerate
        g.push_via(Via::new(3, 3, Layer::new(2))); // upper layer 3 of 3-stack
        g.push_via(Via::new(80, 3, Layer::new(0))); // outside
        let r = report_for(&g, &[(50, 5), (55, 5)]);
        assert_eq!(r.of_kind(FindingKind::SegmentOutsideOutline).count(), 1);
        assert_eq!(r.of_kind(FindingKind::DegenerateSegment).count(), 1);
        assert_eq!(r.of_kind(FindingKind::ViaLayerOutOfStack).count(), 1);
        assert_eq!(r.of_kind(FindingKind::ViaOutsideOutline).count(), 1);
    }
}

//! A second, deliberately different implementation of the §II-A
//! bad-pattern checks.
//!
//! [`mebl_stitch::check_geometry`] classifies violations by iterating
//! segments and querying the plan's binary-search region helpers. The
//! auditor re-derives the same three counts from the opposite direction:
//! it iterates **stitching lines** with plain linear scans, rebuilds
//! maximal horizontal runs from a per-track *cell set* instead of merging
//! segment intervals, and resolves pin/via membership through explicit
//! ordered sets. Counts from the two implementations must agree exactly; any
//! disagreement is reported by the caller as an [`AuditFinding`].
//!
//! [`AuditFinding`]: crate::AuditFinding

use crate::finding::AuditCounts;
use mebl_geom::{Coord, Point, RouteGeometry};
use mebl_stitch::StitchPlan;
use std::collections::{BTreeMap, BTreeSet};

/// Where each hard violation of one net sits, for finding locations.
#[derive(Debug, Clone, Default)]
pub(crate) struct HardViolationSites {
    /// Off-pin vias on stitching lines.
    pub off_pin_vias: Vec<Point>,
    /// Lowest covered point of each vertical segment riding a line.
    pub vertical_rides: Vec<Point>,
}

/// Independently recounts one net's violations and quality metrics.
///
/// `pins` must hold the net's fixed pin positions. The returned counts use
/// the same definitions as [`mebl_stitch::check_geometry`] but share no
/// code with it. Every lookup is a linear scan of the plan's line list or
/// the net's segments: a plan has a few dozen lines at most and a net a
/// few dozen segments, so a spatial index costs more to build than the
/// scans it would save (DESIGN.md §7).
pub(crate) fn recount_net(
    plan: &StitchPlan,
    geometry: &RouteGeometry,
    pins: &BTreeSet<Point>,
) -> (AuditCounts, HardViolationSites) {
    let lines = plan.lines();
    let eps = plan.config().epsilon;
    let mut counts = AuditCounts::default();
    let mut sites = HardViolationSites::default();

    // Wirelength and via count from first principles.
    for seg in geometry.segments() {
        counts.wirelength += seg.span.lo().abs_diff(seg.span.hi()) as u64;
    }
    counts.via_count = geometry.vias().len() as u64;

    // Via violations: line membership per via, by a scan of the line list.
    for via in geometry.vias() {
        if lines.contains(&via.x) {
            counts.via_violations += 1;
            if !pins.contains(&via.point()) {
                counts.via_violations_off_pin += 1;
                sites.off_pin_vias.push(via.point());
            }
        }
    }

    // Vertical riding: iterate lines on the outside and walk every covered
    // y explicitly. A segment whose covered points are all fixed pins is a
    // fused via-landing cluster, not a wire.
    for &line in lines {
        for seg in geometry.segments() {
            if seg.is_horizontal() || seg.track != line || seg.span.lo() == seg.span.hi() {
                continue;
            }
            let all_pins =
                (seg.span.lo()..=seg.span.hi()).all(|y| pins.contains(&Point::new(line, y)));
            if !all_pins {
                counts.vertical_violations += 1;
                sites.vertical_rides.push(Point::new(line, seg.span.lo()));
            }
        }
    }

    // Short polygons: rebuild maximal horizontal runs as contiguous cell
    // ranges per (layer, y) track, then test each run end against every
    // cutting line.
    let mut cells: BTreeMap<(u8, Coord), BTreeSet<Coord>> = BTreeMap::new();
    for seg in geometry.segments() {
        if seg.is_horizontal() {
            let entry = cells.entry((seg.layer.index(), seg.track)).or_default();
            for x in seg.span.lo()..=seg.span.hi() {
                entry.insert(x);
            }
        }
    }
    let mut via_touches: BTreeSet<(Point, u8)> = BTreeSet::new();
    for via in geometry.vias() {
        via_touches.insert((via.point(), via.lower.index()));
        via_touches.insert((via.point(), via.upper().index()));
    }
    for ((layer, y), xs) in &cells {
        // Decompose the sorted cell set into maximal contiguous ranges.
        let mut ranges: Vec<(Coord, Coord)> = Vec::new();
        for &x in xs {
            match ranges.last_mut() {
                Some((_, hi)) if x == *hi + 1 => *hi = x,
                _ => ranges.push((x, x)),
            }
        }
        for (x0, x1) in ranges {
            for end in [x0, x1] {
                // A line cuts the run strictly inside (x0, x1) and sits
                // within eps of this end.
                let cut_nearby = lines
                    .iter()
                    .any(|&l| x0 < l && l < x1 && (end - l).abs() <= eps);
                if cut_nearby && via_touches.contains(&(Point::new(end, *y), *layer)) {
                    counts.short_polygons += 1;
                }
            }
        }
    }

    (counts, sites)
}

impl AuditCounts {
    /// Accumulates another net's recount.
    pub fn accumulate(&mut self, other: &AuditCounts) {
        self.via_violations += other.via_violations;
        self.via_violations_off_pin += other.via_violations_off_pin;
        self.vertical_violations += other.vertical_violations;
        self.short_polygons += other.short_polygons;
        self.wirelength += other.wirelength;
        self.via_count += other.via_count;
    }

    /// `true` when no hard constraint is violated.
    #[must_use]
    pub fn hard_clean(&self) -> bool {
        self.vertical_violations == 0 && self.via_violations_off_pin == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_geom::{Layer, Rect, Segment, Via};
    use mebl_stitch::{check_geometry, StitchConfig};

    fn plan() -> StitchPlan {
        StitchPlan::new(Rect::new(0, 0, 59, 29), StitchConfig::default())
    }

    fn agree(geometry: &RouteGeometry, pins: &[Point]) {
        let pin_set: BTreeSet<Point> = pins.iter().copied().collect();
        let (mine, _) = recount_net(&plan(), geometry, &pin_set);
        let theirs = check_geometry(&plan(), geometry, |p| pin_set.contains(&p));
        assert_eq!(mine.via_violations, theirs.via_violations as u64);
        assert_eq!(
            mine.via_violations_off_pin,
            theirs.via_violations_off_pin as u64
        );
        assert_eq!(mine.vertical_violations, theirs.vertical_violations as u64);
        assert_eq!(mine.short_polygons, theirs.short_polygons as u64);
        assert_eq!(mine.wirelength, theirs.wirelength);
        assert_eq!(mine.via_count, theirs.via_count as u64);
    }

    #[test]
    fn agrees_on_clean_wire() {
        let mut g = RouteGeometry::new();
        g.push_segment(Segment::horizontal(Layer::new(0), 5, 3, 12));
        agree(&g, &[]);
    }

    #[test]
    fn agrees_on_via_violations_and_pin_exemption() {
        let mut g = RouteGeometry::new();
        g.push_via(Via::new(15, 5, Layer::new(0)));
        g.push_via(Via::new(30, 9, Layer::new(0)));
        agree(&g, &[]);
        agree(&g, &[Point::new(15, 5)]);
    }

    #[test]
    fn agrees_on_vertical_riding_and_clusters() {
        let mut g = RouteGeometry::new();
        g.push_segment(Segment::vertical(Layer::new(1), 30, 2, 9));
        g.push_segment(Segment::vertical(Layer::new(1), 15, 16, 17));
        agree(&g, &[]);
        agree(&g, &[Point::new(15, 16), Point::new(15, 17)]);
    }

    #[test]
    fn agrees_on_short_polygons_both_ends() {
        let mut g = RouteGeometry::new();
        g.push_segment(Segment::horizontal(Layer::new(0), 5, 14, 31));
        g.push_via(Via::new(14, 5, Layer::new(0)));
        g.push_via(Via::new(31, 5, Layer::new(0)));
        agree(&g, &[]);
    }

    #[test]
    fn agrees_on_split_segments_forming_one_run() {
        let mut g = RouteGeometry::new();
        g.push_segment(Segment::horizontal(Layer::new(0), 5, 3, 10));
        g.push_segment(Segment::horizontal(Layer::new(0), 5, 10, 16));
        g.push_via(Via::new(10, 5, Layer::new(0)));
        agree(&g, &[]);
    }

    #[test]
    fn agrees_on_upper_layer_landing() {
        let mut g = RouteGeometry::new();
        g.push_segment(Segment::horizontal(Layer::new(2), 5, 3, 16));
        g.push_via(Via::new(16, 5, Layer::new(1)));
        agree(&g, &[]);
    }

    #[test]
    fn hard_violation_sites_are_recorded() {
        let mut g = RouteGeometry::new();
        g.push_via(Via::new(15, 5, Layer::new(0)));
        g.push_segment(Segment::vertical(Layer::new(1), 30, 2, 9));
        let (counts, sites) = recount_net(&plan(), &g, &BTreeSet::new());
        assert!(!counts.hard_clean());
        assert_eq!(sites.off_pin_vias, vec![Point::new(15, 5)]);
        assert_eq!(sites.vertical_rides, vec![Point::new(30, 2)]);
    }
}

//! Stitching-line placement and region queries.

use mebl_geom::{Coord, Interval, Rect};

/// Geometric parameters of the stitch pattern.
///
/// Defaults follow the paper's experimental setup: lines every 15 routing
/// pitches, the tracks adjacent to a line form the stitch unfriendly region
/// (ε = 1), and the 4 tracks nearest a line form the detailed-routing
/// escape region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StitchConfig {
    /// Distance between consecutive stitching lines, in pitches.
    pub period: Coord,
    /// Half-width of the stitch unfriendly region: tracks with
    /// `|x - line| <= epsilon` are unfriendly (the line track included).
    pub epsilon: Coord,
    /// Width of the escape region on each side of a line (tracks with
    /// `0 < |x - line| <= escape_width`).
    pub escape_width: Coord,
}

impl Default for StitchConfig {
    fn default() -> Self {
        Self {
            period: 15,
            epsilon: 1,
            escape_width: 4,
        }
    }
}

/// The set of stitching lines over a chip outline, with region queries.
///
/// Lines are uniformly distributed: `x = period, 2*period, ...` strictly
/// inside the outline (a line on the chip boundary cuts nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchPlan {
    config: StitchConfig,
    outline: Rect,
    lines: Vec<Coord>,
}

impl StitchPlan {
    /// Places uniformly spaced stitching lines across `outline`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`period <= 0`,
    /// `epsilon < 0`, or `escape_width < epsilon`).
    pub fn new(outline: Rect, config: StitchConfig) -> Self {
        assert!(config.period > 0, "stitch period must be positive");
        assert!(config.epsilon >= 0, "epsilon must be non-negative");
        assert!(
            config.escape_width >= config.epsilon,
            "escape region must contain the unfriendly region"
        );
        let lines = (1..)
            .map(|i| outline.x0() + i * config.period)
            .take_while(|&x| x < outline.x1())
            .collect();
        Self {
            config,
            outline,
            lines,
        }
    }

    /// The configuration used to build the plan.
    pub fn config(&self) -> StitchConfig {
        self.config
    }

    /// The chip outline.
    pub fn outline(&self) -> Rect {
        self.outline
    }

    /// The x positions of all stitching lines, ascending.
    pub fn lines(&self) -> &[Coord] {
        &self.lines
    }

    /// Whether a vertical track at `x` is on a stitching line.
    pub fn is_on_line(&self, x: Coord) -> bool {
        self.lines.binary_search(&x).is_ok()
    }

    /// The stitching line nearest to `x`, if any line exists.
    /// Ties resolve to the left line.
    pub fn nearest_line(&self, x: Coord) -> Option<Coord> {
        if self.lines.is_empty() {
            return None;
        }
        let idx = self.lines.partition_point(|&l| l < x);
        let right = self.lines.get(idx).copied();
        let left = idx.checked_sub(1).map(|i| self.lines[i]);
        match (left, right) {
            (Some(l), Some(r)) => Some(if x - l <= r - x { l } else { r }),
            (l, r) => l.or(r),
        }
    }

    /// Whether `x` lies in the stitch unfriendly region of any line
    /// (`|x - line| <= epsilon`; the line track itself is included).
    pub fn in_unfriendly_region(&self, x: Coord) -> bool {
        self.nearest_line(x)
            .is_some_and(|l| (x - l).abs() <= self.config.epsilon)
    }

    /// Whether `x` lies in the escape region of any line
    /// (`0 < |x - line| <= escape_width`).
    pub fn in_escape_region(&self, x: Coord) -> bool {
        self.nearest_line(x)
            .is_some_and(|l| x != l && (x - l).abs() <= self.config.escape_width)
    }

    /// Stitching lines strictly inside the open interval `(xs.lo, xs.hi)` —
    /// the lines that *cut* a horizontal wire spanning `xs`.
    pub fn lines_cutting(&self, xs: Interval) -> &[Coord] {
        let lo = self.lines.partition_point(|&l| l <= xs.lo());
        let hi = self.lines.partition_point(|&l| l < xs.hi());
        &self.lines[lo..hi]
    }

    /// Number of x coordinates in `xs` that are **not** on a stitching
    /// line — the usable vertical-track capacity of a tile column
    /// (Fig. 7(b): edge capacity reduction).
    pub fn vertical_track_capacity(&self, xs: Interval) -> u64 {
        let blocked = self
            .lines
            .iter()
            .filter(|&&l| xs.contains(l))
            .count() as u64;
        xs.count() - blocked
    }

    /// Number of x coordinates in `xs` **outside** every stitch unfriendly
    /// region — the line-end (vertex) capacity of a tile (Fig. 7(b)).
    pub fn friendly_track_capacity(&self, xs: Interval) -> u64 {
        xs.iter().filter(|&x| !self.in_unfriendly_region(x)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_testkit::prop::ints;
    use mebl_testkit::{prop_assert, prop_check};

    fn plan_60() -> StitchPlan {
        StitchPlan::new(Rect::new(0, 0, 59, 29), StitchConfig::default())
    }

    #[test]
    fn uniform_lines_strictly_inside() {
        let p = plan_60();
        assert_eq!(p.lines(), &[15, 30, 45]);
        // x1 = 59: line at 60 would be outside; 45 + 15 = 60 excluded.
        let p2 = StitchPlan::new(Rect::new(0, 0, 60, 29), StitchConfig::default());
        assert_eq!(p2.lines(), &[15, 30, 45]);
        let p3 = StitchPlan::new(Rect::new(0, 0, 61, 29), StitchConfig::default());
        assert_eq!(p3.lines(), &[15, 30, 45, 60]);
    }

    #[test]
    fn nonzero_origin_outline() {
        let p = StitchPlan::new(Rect::new(100, 0, 159, 29), StitchConfig::default());
        assert_eq!(p.lines(), &[115, 130, 145]);
    }

    #[test]
    fn on_line_and_regions() {
        let p = plan_60();
        assert!(p.is_on_line(15));
        assert!(!p.is_on_line(16));
        assert!(p.in_unfriendly_region(14));
        assert!(p.in_unfriendly_region(15));
        assert!(p.in_unfriendly_region(16));
        assert!(!p.in_unfriendly_region(17));
        assert!(p.in_escape_region(11));
        assert!(p.in_escape_region(19));
        assert!(!p.in_escape_region(15), "line itself is not escape");
        assert!(!p.in_escape_region(10));
    }

    #[test]
    fn nearest_line_ties_left() {
        let p = plan_60();
        assert_eq!(p.nearest_line(22), Some(15)); // 22-15=7, 30-22=8
        assert_eq!(p.nearest_line(23), Some(30)); // 8 vs 7
        assert_eq!(p.nearest_line(0), Some(15));
        assert_eq!(p.nearest_line(59), Some(45));
    }

    #[test]
    fn empty_plan_has_no_regions() {
        // A period as wide as the outline places no line strictly inside.
        let config = StitchConfig {
            period: 59,
            ..StitchConfig::default()
        };
        let p = StitchPlan::new(Rect::new(0, 0, 59, 29), config);
        assert!(p.lines().is_empty());
        assert_eq!(p.nearest_line(10), None);
        assert!(!p.in_unfriendly_region(10));
        assert!(!p.in_escape_region(10));
        assert_eq!(p.vertical_track_capacity(Interval::new(0, 59)), 60);
    }

    #[test]
    fn lines_cutting_is_strict() {
        let p = plan_60();
        assert_eq!(p.lines_cutting(Interval::new(0, 59)), &[15, 30, 45]);
        assert_eq!(p.lines_cutting(Interval::new(15, 30)), &[] as &[i32]);
        assert_eq!(p.lines_cutting(Interval::new(14, 31)), &[15, 30]);
        assert_eq!(p.lines_cutting(Interval::new(16, 29)), &[] as &[i32]);
    }

    #[test]
    fn capacities_match_fig7_model() {
        let p = plan_60();
        // Tile column covering x in [8, 22]: one line (15) inside.
        let xs = Interval::new(8, 22);
        assert_eq!(p.vertical_track_capacity(xs), 14); // 15 tracks - 1 line
        assert_eq!(p.friendly_track_capacity(xs), 12); // minus 14,15,16
    }

    #[test]
    #[should_panic(expected = "escape region must contain")]
    fn bad_config_rejected() {
        let _ = StitchPlan::new(
            Rect::new(0, 0, 59, 29),
            StitchConfig {
                period: 15,
                epsilon: 5,
                escape_width: 4,
            },
        );
    }

    #[test]
    fn prop_region_nesting() {
        prop_check!((ints(20i32..200), ints(0i32..200)), |(width, x)| {
            let p = StitchPlan::new(Rect::new(0, 0, width, 30), StitchConfig::default());
            let x = x.min(width);
            // on-line => unfriendly; unfriendly and not on-line => escape.
            if p.is_on_line(x) {
                prop_assert!(p.in_unfriendly_region(x));
            }
            if p.in_unfriendly_region(x) && !p.is_on_line(x) {
                prop_assert!(p.in_escape_region(x));
            }
        });
    }

    #[test]
    fn prop_capacities_consistent() {
        prop_check!((ints(20i32..200), ints(0i32..200), ints(0i32..200)), |(width, a, b)| {
            let p = StitchPlan::new(Rect::new(0, 0, width, 30), StitchConfig::default());
            let xs = Interval::new(a.min(width), b.min(width));
            let vt = p.vertical_track_capacity(xs);
            let ft = p.friendly_track_capacity(xs);
            prop_assert!(ft <= vt);
            prop_assert!(vt <= xs.count());
        });
    }
}

//! Routed wire geometry: segments, vias and per-net collections.

use crate::{Coord, GridPoint, Interval, Layer, Point};

/// A straight routed wire piece on a single layer.
///
/// A segment runs along its layer's preferred direction: the *track* is the
/// fixed coordinate (y for horizontal layers, x for vertical layers) and the
/// *span* is the varying coordinate range.
///
/// ```
/// use mebl_geom::{Layer, Point, Segment};
/// let h = Segment::horizontal(Layer::new(0), 3, 1, 6);
/// assert_eq!(h.endpoints(), (Point::new(1, 3), Point::new(6, 3)));
/// let v = Segment::vertical(Layer::new(1), 4, 0, 9);
/// assert_eq!(v.len(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Layer the segment is drawn on.
    pub layer: Layer,
    /// Fixed coordinate: y for horizontal segments, x for vertical ones.
    pub track: Coord,
    /// Varying coordinate range.
    pub span: Interval,
}

impl Segment {
    /// A horizontal segment at `y = track` covering `x in [x0, x1]`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `layer` is not a horizontal layer.
    pub fn horizontal(layer: Layer, track: Coord, x0: Coord, x1: Coord) -> Self {
        debug_assert!(layer.is_horizontal(), "horizontal segment on V layer");
        Self {
            layer,
            track,
            span: Interval::new(x0, x1),
        }
    }

    /// A vertical segment at `x = track` covering `y in [y0, y1]`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `layer` is not a vertical layer.
    pub fn vertical(layer: Layer, track: Coord, y0: Coord, y1: Coord) -> Self {
        debug_assert!(!layer.is_horizontal(), "vertical segment on H layer");
        Self {
            layer,
            track,
            span: Interval::new(y0, y1),
        }
    }

    /// `true` if the segment runs horizontally.
    pub fn is_horizontal(&self) -> bool {
        self.layer.is_horizontal()
    }

    /// Wirelength in pitches (span length).
    pub fn len(&self) -> u64 {
        self.span.len()
    }

    /// `true` for a zero-length (single point) segment.
    pub fn is_empty(&self) -> bool {
        self.span.is_point()
    }

    /// Both endpoints, lower span coordinate first.
    pub fn endpoints(&self) -> (Point, Point) {
        if self.is_horizontal() {
            (
                Point::new(self.span.lo(), self.track),
                Point::new(self.span.hi(), self.track),
            )
        } else {
            (
                Point::new(self.track, self.span.lo()),
                Point::new(self.track, self.span.hi()),
            )
        }
    }

    /// Whether the 2-D point lies on the segment (layer ignored).
    pub fn contains_point(&self, p: Point) -> bool {
        if self.is_horizontal() {
            p.y == self.track && self.span.contains(p.x)
        } else {
            p.x == self.track && self.span.contains(p.y)
        }
    }

    /// The x extent occupied by the segment.
    pub fn x_interval(&self) -> Interval {
        if self.is_horizontal() {
            self.span
        } else {
            Interval::point(self.track)
        }
    }

    /// The y extent occupied by the segment.
    pub fn y_interval(&self) -> Interval {
        if self.is_horizontal() {
            Interval::point(self.track)
        } else {
            self.span
        }
    }

    /// Iterates the grid points covered by the segment, in span order.
    pub fn points(&self) -> impl Iterator<Item = GridPoint> + '_ {
        let horizontal = self.is_horizontal();
        let track = self.track;
        let layer = self.layer;
        self.span.iter().map(move |c| {
            if horizontal {
                GridPoint::new(c, track, layer)
            } else {
                GridPoint::new(track, c, layer)
            }
        })
    }
}

/// A via connecting `lower` to `lower + 1` at `(x, y)`.
///
/// ```
/// use mebl_geom::{Layer, Via};
/// let v = Via::new(3, 4, Layer::new(0));
/// assert_eq!(v.upper(), Layer::new(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Via {
    /// x coordinate.
    pub x: Coord,
    /// y coordinate.
    pub y: Coord,
    /// Lower of the two connected layers.
    pub lower: Layer,
}

impl Via {
    /// Creates a via at `(x, y)` between `lower` and `lower + 1`.
    pub const fn new(x: Coord, y: Coord, lower: Layer) -> Self {
        Self { x, y, lower }
    }

    /// The upper connected layer.
    pub fn upper(&self) -> Layer {
        self.lower.above()
    }

    /// 2-D location.
    pub const fn point(&self) -> Point {
        Point::new(self.x, self.y)
    }
}

/// The routed geometry of one net: wire segments plus vias.
///
/// ```
/// use mebl_geom::{Layer, RouteGeometry, Segment, Via};
/// let mut g = RouteGeometry::new();
/// g.push_segment(Segment::horizontal(Layer::new(0), 2, 0, 5));
/// g.push_via(Via::new(5, 2, Layer::new(0)));
/// g.push_segment(Segment::vertical(Layer::new(1), 5, 2, 8));
/// assert_eq!(g.wirelength(), 11);
/// assert_eq!(g.via_count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteGeometry {
    segments: Vec<Segment>,
    vias: Vec<Via>,
}

impl RouteGeometry {
    /// An empty geometry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a wire segment.
    pub fn push_segment(&mut self, seg: Segment) {
        self.segments.push(seg);
    }

    /// Adds a via.
    pub fn push_via(&mut self, via: Via) {
        self.vias.push(via);
    }

    /// All wire segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// All vias.
    pub fn vias(&self) -> &[Via] {
        &self.vias
    }

    /// Total wirelength in pitches.
    pub fn wirelength(&self) -> u64 {
        self.segments.iter().map(Segment::len).sum()
    }

    /// Number of vias.
    pub fn via_count(&self) -> usize {
        self.vias.len()
    }

    /// `true` when no segment or via has been recorded.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty() && self.vias.is_empty()
    }

    /// Whether any via lands on the 2-D point `p` touching layer `layer`.
    pub fn has_via_at(&self, p: Point, layer: Layer) -> bool {
        self.vias
            .iter()
            .any(|v| v.point() == p && (v.lower == layer || v.upper() == layer))
    }
}

impl FromIterator<Segment> for RouteGeometry {
    fn from_iter<I: IntoIterator<Item = Segment>>(iter: I) -> Self {
        Self {
            segments: iter.into_iter().collect(),
            vias: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_testkit::prop::{ints, vecs};
    use mebl_testkit::{prop_assert_eq, prop_check};

    #[test]
    fn horizontal_segment_geometry() {
        let s = Segment::horizontal(Layer::new(2), 5, 10, 3);
        assert_eq!(s.endpoints(), (Point::new(3, 5), Point::new(10, 5)));
        assert!(s.contains_point(Point::new(7, 5)));
        assert!(!s.contains_point(Point::new(7, 6)));
        assert_eq!(s.len(), 7);
        assert_eq!(s.x_interval(), Interval::new(3, 10));
        assert_eq!(s.y_interval(), Interval::point(5));
    }

    #[test]
    fn vertical_segment_geometry() {
        let s = Segment::vertical(Layer::new(1), 4, 2, 6);
        assert_eq!(s.endpoints(), (Point::new(4, 2), Point::new(4, 6)));
        assert!(s.contains_point(Point::new(4, 4)));
        assert_eq!(s.x_interval(), Interval::point(4));
    }

    #[test]
    fn via_layers() {
        let v = Via::new(1, 1, Layer::new(3));
        assert_eq!(v.upper(), Layer::new(4));
    }

    #[test]
    fn geometry_accumulates() {
        let mut g = RouteGeometry::new();
        assert!(g.is_empty());
        g.push_segment(Segment::horizontal(Layer::new(0), 0, 0, 4));
        g.push_via(Via::new(4, 0, Layer::new(0)));
        g.push_segment(Segment::vertical(Layer::new(1), 4, 0, 3));
        assert_eq!(g.wirelength(), 7);
        assert_eq!(g.via_count(), 1);
        assert!(g.has_via_at(Point::new(4, 0), Layer::new(0)));
        assert!(g.has_via_at(Point::new(4, 0), Layer::new(1)));
        assert!(!g.has_via_at(Point::new(4, 0), Layer::new(2)));
    }

    #[test]
    fn points_iterator_covers_span() {
        let s = Segment::vertical(Layer::new(1), 2, 5, 7);
        let pts: Vec<GridPoint> = s.points().collect();
        assert_eq!(
            pts,
            vec![
                GridPoint::new(2, 5, Layer::new(1)),
                GridPoint::new(2, 6, Layer::new(1)),
                GridPoint::new(2, 7, Layer::new(1)),
            ]
        );
    }

    #[test]
    fn prop_segment_points_match_contains() {
        let near = || ints(-20i32..20);
        prop_check!(
            (near(), near(), near(), ints(-25i32..25), ints(-25i32..25)),
            |(track, a, b, px, py)| {
                let s = Segment::horizontal(Layer::new(0), track, a, b);
                let p = Point::new(px, py);
                let on = s.points().any(|gp| gp.point() == p);
                prop_assert_eq!(on, s.contains_point(p));
            }
        );
    }

    #[test]
    fn prop_wirelength_is_sum_of_spans() {
        prop_check!(vecs((ints(0i32..30), ints(0i32..30)), 0..8), |spans| {
            let g: RouteGeometry = spans
                .iter()
                .map(|&(a, b)| Segment::horizontal(Layer::new(0), 0, a, b))
                .collect();
            let expect: u64 = spans.iter().map(|&(a, b)| a.abs_diff(b) as u64).sum();
            prop_assert_eq!(g.wirelength(), expect);
        });
    }
}

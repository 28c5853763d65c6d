//! Axis-aligned inclusive grid rectangles.

use crate::{Coord, Interval, Point};

/// An axis-aligned rectangle of grid coordinates, inclusive on all sides.
///
/// Used for chip outlines, global tiles and net bounding boxes.
///
/// ```
/// use mebl_geom::{Point, Rect};
/// let r = Rect::new(0, 0, 9, 4);
/// assert_eq!(r.width(), 10);
/// assert_eq!(r.height(), 5);
/// assert!(r.contains(Point::new(9, 4)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    xs: Interval,
    ys: Interval,
}

impl Rect {
    /// Creates a rectangle from corner coordinates (order-insensitive).
    pub fn new(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Self {
        Self {
            xs: Interval::new(x0, x1),
            ys: Interval::new(y0, y1),
        }
    }

    /// Creates a rectangle from x and y extents.
    pub const fn from_intervals(xs: Interval, ys: Interval) -> Self {
        Self { xs, ys }
    }

    /// The degenerate rectangle covering a single point.
    pub fn from_point(p: Point) -> Self {
        Self {
            xs: Interval::point(p.x),
            ys: Interval::point(p.y),
        }
    }

    /// Horizontal extent.
    pub const fn xs(self) -> Interval {
        self.xs
    }

    /// Vertical extent.
    pub const fn ys(self) -> Interval {
        self.ys
    }

    /// Minimum x coordinate.
    pub const fn x0(self) -> Coord {
        self.xs.lo()
    }

    /// Minimum y coordinate.
    pub const fn y0(self) -> Coord {
        self.ys.lo()
    }

    /// Maximum x coordinate.
    pub const fn x1(self) -> Coord {
        self.xs.hi()
    }

    /// Maximum y coordinate.
    pub const fn y1(self) -> Coord {
        self.ys.hi()
    }

    /// Number of columns covered.
    pub fn width(self) -> u64 {
        self.xs.count()
    }

    /// Number of rows covered.
    pub fn height(self) -> u64 {
        self.ys.count()
    }

    /// Number of grid points covered.
    pub fn area(self) -> u64 {
        self.width() * self.height()
    }

    /// Whether the point lies inside the rectangle.
    pub fn contains(self, p: Point) -> bool {
        self.xs.contains(p.x) && self.ys.contains(p.y)
    }

    /// Whether `other` lies fully inside `self`.
    pub fn contains_rect(self, other: Rect) -> bool {
        self.xs.contains_interval(other.xs) && self.ys.contains_interval(other.ys)
    }

    /// Whether the two rectangles share at least one grid point.
    pub fn overlaps(self, other: Rect) -> bool {
        self.xs.overlaps(other.xs) && self.ys.overlaps(other.ys)
    }

    /// Intersection, if non-empty.
    pub fn intersect(self, other: Rect) -> Option<Rect> {
        Some(Rect {
            xs: self.xs.intersect(other.xs)?,
            ys: self.ys.intersect(other.ys)?,
        })
    }

    /// Smallest rectangle containing both operands.
    pub fn hull(self, other: Rect) -> Rect {
        Rect {
            xs: self.xs.hull(other.xs),
            ys: self.ys.hull(other.ys),
        }
    }

    /// Extends the rectangle to include `p`.
    pub fn including(self, p: Point) -> Rect {
        self.hull(Rect::from_point(p))
    }

    /// Smallest rectangle covering all points, or `None` for an empty
    /// iterator.
    ///
    /// ```
    /// use mebl_geom::{Point, Rect};
    /// let bb = Rect::bounding([Point::new(1, 5), Point::new(4, 2)]).unwrap();
    /// assert_eq!(bb, Rect::new(1, 2, 4, 5));
    /// ```
    pub fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Rect> {
        let mut it = points.into_iter();
        let first = it.next()?;
        Some(it.fold(Rect::from_point(first), Rect::including))
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}, {}]x[{}, {}]",
            self.x0(),
            self.x1(),
            self.y0(),
            self.y1()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_testkit::prop::ints;
    use mebl_testkit::{prop_assert, prop_assert_eq, prop_check};

    #[test]
    fn corner_normalisation() {
        let r = Rect::new(5, 7, 1, 2);
        assert_eq!((r.x0(), r.y0(), r.x1(), r.y1()), (1, 2, 5, 7));
    }

    #[test]
    fn area_of_unit_rect_is_one() {
        let r = Rect::from_point(Point::new(3, 3));
        assert_eq!(r.area(), 1);
    }

    #[test]
    fn containment_edges_inclusive() {
        let r = Rect::new(0, 0, 4, 4);
        assert!(r.contains(Point::new(0, 0)));
        assert!(r.contains(Point::new(4, 4)));
        assert!(!r.contains(Point::new(5, 4)));
    }

    #[test]
    fn bounding_box_of_points() {
        let pts = [Point::new(2, 9), Point::new(-1, 3), Point::new(4, 4)];
        assert_eq!(Rect::bounding(pts), Some(Rect::new(-1, 3, 4, 9)));
        assert_eq!(Rect::bounding(std::iter::empty()), None);
    }

    #[test]
    fn intersect_disjoint_is_none() {
        let a = Rect::new(0, 0, 2, 2);
        let b = Rect::new(3, 3, 5, 5);
        assert_eq!(a.intersect(b), None);
        assert!(!a.overlaps(b));
    }

    #[test]
    fn prop_intersect_symmetric_and_contained() {
        let coord = || ints(-50i32..50);
        prop_check!(
            (coord(), coord(), coord(), coord(), coord(), coord(), coord(), coord()),
            |(ax, ay, bx, by, cx, cy, dx, dy)| {
                let r1 = Rect::new(ax, ay, bx, by);
                let r2 = Rect::new(cx, cy, dx, dy);
                prop_assert_eq!(r1.intersect(r2), r2.intersect(r1));
                if let Some(i) = r1.intersect(r2) {
                    prop_assert!(r1.contains_rect(i));
                    prop_assert!(r2.contains_rect(i));
                }
                let h = r1.hull(r2);
                prop_assert!(h.contains_rect(r1) && h.contains_rect(r2));
            }
        );
    }

    #[test]
    fn prop_contains_point_matches_intervals() {
        let coord = || ints(-50i32..50);
        prop_check!(
            (coord(), coord(), coord(), coord(), ints(-60i32..60), ints(-60i32..60)),
            |(ax, ay, bx, by, px, py)| {
                let r = Rect::new(ax, ay, bx, by);
                let p = Point::new(px, py);
                prop_assert_eq!(r.contains(p), r.xs().contains(px) && r.ys().contains(py));
            }
        );
    }
}

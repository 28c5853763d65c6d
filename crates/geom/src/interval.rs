//! Closed integer intervals.

use crate::Coord;

/// A closed (inclusive) integer interval `[lo, hi]` of track coordinates.
///
/// Intervals are used for wire spans, panel extents and segment overlap
/// tests. An interval always satisfies `lo <= hi`; a single point is the
/// degenerate interval `[p, p]`.
///
/// ```
/// use mebl_geom::Interval;
/// let a = Interval::new(2, 8);
/// let b = Interval::new(5, 12);
/// assert_eq!(a.intersect(b), Some(Interval::new(5, 8)));
/// assert_eq!(a.len(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    lo: Coord,
    hi: Coord,
}

impl Interval {
    /// Creates the interval `[lo, hi]`, normalising argument order.
    ///
    /// ```
    /// use mebl_geom::Interval;
    /// assert_eq!(Interval::new(8, 2), Interval::new(2, 8));
    /// ```
    pub fn new(a: Coord, b: Coord) -> Self {
        if a <= b {
            Self { lo: a, hi: b }
        } else {
            Self { lo: b, hi: a }
        }
    }

    /// The degenerate single-point interval `[p, p]`.
    pub const fn point(p: Coord) -> Self {
        Self { lo: p, hi: p }
    }

    /// Lower endpoint.
    pub const fn lo(self) -> Coord {
        self.lo
    }

    /// Upper endpoint.
    pub const fn hi(self) -> Coord {
        self.hi
    }

    /// Number of unit steps spanned (`hi - lo`); a point interval has
    /// length 0.
    pub fn len(self) -> u64 {
        self.hi.abs_diff(self.lo) as u64
    }

    /// Whether the interval spans zero unit steps (i.e. is a point).
    /// Intervals always contain at least one coordinate, so this is the
    /// same as [`is_point`](Self::is_point).
    pub fn is_empty(self) -> bool {
        self.is_point()
    }

    /// Whether the interval is a single point.
    pub fn is_point(self) -> bool {
        self.lo == self.hi
    }

    /// Number of integer coordinates contained (`len() + 1`).
    pub fn count(self) -> u64 {
        self.len() + 1
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(self, v: Coord) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether `other` is fully inside `self`.
    pub fn contains_interval(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether the two intervals share at least one coordinate.
    pub fn overlaps(self, other: Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Intersection, if non-empty.
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Smallest interval containing both operands.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Iterates over all contained coordinates in increasing order.
    ///
    /// ```
    /// use mebl_geom::Interval;
    /// let v: Vec<i32> = Interval::new(3, 5).iter().collect();
    /// assert_eq!(v, vec![3, 4, 5]);
    /// ```
    pub fn iter(self) -> impl Iterator<Item = Coord> {
        self.lo..=self.hi
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_testkit::prop::ints;
    use mebl_testkit::{prop_assert, prop_assert_eq, prop_check};

    #[test]
    fn normalises_order() {
        let i = Interval::new(9, 4);
        assert_eq!((i.lo(), i.hi()), (4, 9));
    }

    #[test]
    fn point_interval() {
        let p = Interval::point(5);
        assert!(p.is_point());
        assert_eq!(p.len(), 0);
        assert_eq!(p.count(), 1);
        assert!(p.contains(5));
        assert!(!p.contains(4));
    }

    #[test]
    fn overlap_and_intersection_agree() {
        let a = Interval::new(0, 10);
        let b = Interval::new(10, 20);
        let c = Interval::new(11, 20);
        assert!(a.overlaps(b));
        assert_eq!(a.intersect(b), Some(Interval::point(10)));
        assert!(!a.overlaps(c));
        assert_eq!(a.intersect(c), None);
    }

    #[test]
    fn hull_covers_both() {
        let a = Interval::new(0, 2);
        let b = Interval::new(7, 9);
        assert_eq!(a.hull(b), Interval::new(0, 9));
    }

    #[test]
    fn contains_interval_is_subset() {
        assert!(Interval::new(0, 10).contains_interval(Interval::new(3, 7)));
        assert!(!Interval::new(0, 10).contains_interval(Interval::new(3, 11)));
    }

    #[test]
    fn prop_intersection_commutes() {
        let coord = || ints(-100i32..100);
        prop_check!((coord(), coord(), coord(), coord()), |(a, b, c, d)| {
            let x = Interval::new(a, b);
            let y = Interval::new(c, d);
            prop_assert_eq!(x.intersect(y), y.intersect(x));
            prop_assert_eq!(x.overlaps(y), x.intersect(y).is_some());
        });
    }

    #[test]
    fn prop_intersection_inside_hull() {
        let coord = || ints(-100i32..100);
        prop_check!((coord(), coord(), coord(), coord()), |(a, b, c, d)| {
            let x = Interval::new(a, b);
            let y = Interval::new(c, d);
            let h = x.hull(y);
            prop_assert!(h.contains_interval(x));
            prop_assert!(h.contains_interval(y));
            if let Some(i) = x.intersect(y) {
                prop_assert!(x.contains_interval(i));
                prop_assert!(y.contains_interval(i));
            }
        });
    }

    #[test]
    fn prop_contains_matches_iter() {
        prop_check!((ints(-50i32..50), ints(-50i32..50), ints(-60i32..60)), |(a, b, v)| {
            let x = Interval::new(a, b);
            let by_iter = x.iter().any(|c| c == v);
            prop_assert_eq!(x.contains(v), by_iter);
        });
    }
}

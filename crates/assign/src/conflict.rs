//! Segment conflict graph with eq. (4) weights.

/// A segment's tile-interval along its panel (rows for a column panel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentInterval {
    /// First covered tile, inclusive.
    pub lo: u32,
    /// Last covered tile, inclusive (`>= lo`).
    pub hi: u32,
}

impl SegmentInterval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "interval endpoints out of order");
        Self { lo, hi }
    }

    /// Tile-wise overlap (closed intervals).
    pub fn overlaps(&self, other: &SegmentInterval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

/// The conflict graph of one panel: a vertex per segment, an edge per
/// overlapping pair, weighted by eq. (4):
///
/// `w(vi, vj) = D_segment(vi, vj) + D_end(vi, vj)`
///
/// where `D_segment` is the maximum segment density over the tiles where
/// the two segments overlap and `D_end` the maximum line-end density over
/// the tiles where both have a line end (column panels only — row panels
/// drop the second term, as stitching lines are vertical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGraph {
    /// The segment intervals (vertex order).
    pub intervals: Vec<SegmentInterval>,
    /// Weighted conflict edges `(i, j, w)`, `i < j`.
    pub edges: Vec<(usize, usize, i64)>,
    /// Per-vertex weight: sum of incident edge weights (the selection
    /// weight used by the paper's k-colorable-subset heuristic).
    pub vertex_weight: Vec<i64>,
}

impl ConflictGraph {
    /// Builds the conflict graph over `intervals` spanning tiles
    /// `0..rows`. `count_line_ends` enables the `D_end` term (used for
    /// column panels, dropped for row panels).
    ///
    /// # Panics
    ///
    /// Panics if any interval exceeds `rows`.
    pub fn build(intervals: &[SegmentInterval], rows: u32, count_line_ends: bool) -> Self {
        let mut seg_density = vec![0i64; rows as usize];
        let mut end_density = vec![0i64; rows as usize];
        for iv in intervals {
            assert!(iv.hi < rows, "interval beyond panel extent");
            for r in iv.lo..=iv.hi {
                seg_density[r as usize] += 1;
            }
            end_density[iv.lo as usize] += 1;
            if iv.hi != iv.lo {
                end_density[iv.hi as usize] += 1;
            }
        }

        let mut edges = Vec::new();
        let mut vertex_weight = vec![0i64; intervals.len()];
        for i in 0..intervals.len() {
            for j in (i + 1)..intervals.len() {
                let (a, b) = (&intervals[i], &intervals[j]);
                if !a.overlaps(b) {
                    continue;
                }
                let lo = a.lo.max(b.lo);
                let hi = a.hi.min(b.hi);
                let d_seg = (lo..=hi)
                    .map(|r| seg_density[r as usize])
                    .max()
                    .unwrap_or(0);
                let d_end = if count_line_ends {
                    let ends_a = [a.lo, a.hi];
                    let ends_b = [b.lo, b.hi];
                    ends_a
                        .iter()
                        .filter(|r| ends_b.contains(r))
                        .map(|&r| end_density[r as usize])
                        .max()
                        .unwrap_or(0)
                } else {
                    0
                };
                let w = d_seg + d_end;
                edges.push((i, j, w));
                vertex_weight[i] += w;
                vertex_weight[j] += w;
            }
        }
        Self {
            intervals: intervals.to_vec(),
            edges,
            vertex_weight,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// `true` when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_segments_no_edges() {
        let ivs = [SegmentInterval::new(0, 1), SegmentInterval::new(3, 4)];
        let g = ConflictGraph::build(&ivs, 6, true);
        assert!(g.edges.is_empty());
        assert_eq!(g.vertex_weight, vec![0, 0]);
    }

    #[test]
    fn overlap_weight_counts_segment_density() {
        // Three segments all covering tile 2: density there is 3.
        let ivs = [
            SegmentInterval::new(0, 2),
            SegmentInterval::new(2, 4),
            SegmentInterval::new(1, 3),
        ];
        let g = ConflictGraph::build(&ivs, 6, false);
        assert_eq!(g.edges.len(), 3);
        // Pair (0,1) overlaps only at tile 2 where density = 3.
        let w01 = g.edges.iter().find(|e| (e.0, e.1) == (0, 1)).unwrap().2;
        assert_eq!(w01, 3);
    }

    #[test]
    fn line_end_term_added_for_shared_end_rows() {
        // Two segments sharing the end tile 2 (end density 2 there).
        let ivs = [SegmentInterval::new(0, 2), SegmentInterval::new(2, 4)];
        let with = ConflictGraph::build(&ivs, 6, true);
        let without = ConflictGraph::build(&ivs, 6, false);
        assert_eq!(without.edges[0].2, 2); // D_segment only
        assert_eq!(with.edges[0].2, 2 + 2); // + D_end at tile 2
    }

    #[test]
    fn no_shared_end_rows_means_zero_dend() {
        // Overlapping but ends at different tiles.
        let ivs = [SegmentInterval::new(0, 3), SegmentInterval::new(1, 4)];
        let g = ConflictGraph::build(&ivs, 6, true);
        let g2 = ConflictGraph::build(&ivs, 6, false);
        assert_eq!(g.edges[0].2, g2.edges[0].2);
    }

    #[test]
    fn vertex_weight_sums_incident_edges() {
        let ivs = [
            SegmentInterval::new(0, 5),
            SegmentInterval::new(0, 2),
            SegmentInterval::new(3, 5),
        ];
        let g = ConflictGraph::build(&ivs, 6, false);
        // Vertex 0 conflicts with both others; 1 and 2 don't conflict.
        assert_eq!(g.edges.len(), 2);
        assert_eq!(
            g.vertex_weight[0],
            g.vertex_weight[1] + g.vertex_weight[2]
        );
    }

    #[test]
    fn point_interval_end_counted_once() {
        let ivs = [SegmentInterval::new(2, 2), SegmentInterval::new(2, 2)];
        let g = ConflictGraph::build(&ivs, 4, true);
        // seg density 2 at tile 2; end density 2 (each point segment
        // deposits one end, not two).
        assert_eq!(g.edges[0].2, 2 + 2);
    }

    #[test]
    #[should_panic(expected = "beyond panel extent")]
    fn interval_outside_rows_rejected() {
        let _ = ConflictGraph::build(&[SegmentInterval::new(0, 9)], 5, true);
    }
}

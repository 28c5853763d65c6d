//! Short-polygon-avoiding track assignment (paper §III-C).
//!
//! Within each (column panel, vertical layer) group, every segment needs an
//! exact x track. A **bad end** is a segment end whose track sits in a
//! stitch unfriendly region while the attached horizontal wire crosses that
//! stitching line — the precursor of a short polygon. Three algorithms:
//!
//! * **Baseline** — conventional left-edge first-fit that ignores
//!   stitching lines entirely; segments landing on a line track are ripped
//!   up (net falls back to direct detailed routing), exactly like the
//!   baseline router in the paper's Table VII.
//! * **Graph heuristic** — the paper's §III-C2: longer segments are placed
//!   next to stitching lines first (outermost tracks), then bad ends are
//!   resolved with doglegs; the feasible dogleg window `[m, M]` of each end
//!   interval comes from the minimum/maximum track constraint graphs
//!   solved by DAG longest path (Fig. 11(d)).
//! * **ILP (exact)** — see [`crate::ilp`]; dispatched via
//!   [`TrackMode::IlpExact`].

use crate::panels::{Continuation, PanelSegment, Panels};
use crate::{layer_assign_mst, layer_assign_ours, ConflictGraph, SegmentInterval};
use mebl_control::{CancelToken, Degradation, DegradationKind, Stage};
use mebl_geom::Coord;
use mebl_global::TileGraph;
use mebl_par::Pool;
use mebl_stitch::StitchPlan;
use std::collections::BTreeSet;

/// Which layer-assignment heuristic to run before track assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerMode {
    /// Maximum-spanning-tree heuristic of \[4\] (baseline).
    MstBaseline,
    /// The paper's iterated k-colorable-subset heuristic.
    Ours,
}

/// Which track-assignment algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackMode {
    /// Stitch-oblivious left-edge first fit.
    Baseline,
    /// The paper's graph-based dogleg heuristic.
    GraphHeuristic,
    /// Exact branch-and-bound over the multicommodity model (the CPLEX
    /// substitute), with a search-node budget per panel group; exceeding
    /// the budget anywhere marks the whole run as timed out.
    IlpExact {
        /// Maximum branch-and-bound nodes per panel group.
        node_budget: u64,
    },
}

/// Configuration of the assignment stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackConfig {
    /// Layer-assignment heuristic.
    pub layer_mode: LayerMode,
    /// Track-assignment algorithm.
    pub track_mode: TrackMode,
    /// Cooperative cancellation/budget handle. Inert by default; when
    /// armed, cancellation takes effect at panel-group boundaries:
    /// skipped groups place no segments, so their nets reach detailed
    /// routing seedless and are routed pin-to-pin.
    pub cancel: CancelToken,
    /// Ignored by the assignment stage, which assigns its panels one
    /// at a time in panel order (DESIGN.md §9).
    pub pool: Pool,
}

impl Default for TrackConfig {
    fn default() -> Self {
        Self {
            layer_mode: LayerMode::Ours,
            track_mode: TrackMode::GraphHeuristic,
            cancel: CancelToken::default(),
            pool: Pool::serial(),
        }
    }
}

/// A segment with assigned layer and track(s).
///
/// `pieces` partitions the tile range `[lo, hi]`; each piece carries the
/// absolute track coordinate it occupies. A straight segment has one
/// piece; a doglegged segment has several.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignedSeg {
    /// Net index.
    pub net: usize,
    /// `true` for horizontal (row panel) segments.
    pub horizontal: bool,
    /// Column (vertical) or row (horizontal) panel index.
    pub panel: u32,
    /// Colour index within the orientation's layer set (0-based); the
    /// n-th vertical colour maps to the n-th vertical layer.
    pub layer_color: usize,
    /// Covered tile range along the panel.
    pub lo: u32,
    /// Covered tile range along the panel (inclusive).
    pub hi: u32,
    /// `(tile_lo, tile_hi, track)` pieces partitioning `[lo, hi]`.
    pub pieces: Vec<(u32, u32, Coord)>,
    /// Continuation at the `lo` end.
    pub lo_cont: Continuation,
    /// Continuation at the `hi` end.
    pub hi_cont: Continuation,
}

impl AssignedSeg {
    /// Track of the piece containing tile `t`.
    ///
    /// `pieces` partitions `[lo, hi]` by construction. The function is
    /// total anyway: for a `t` outside every piece it answers with the
    /// nearest piece's track (and `0` for a pieceless segment, which
    /// cannot be built through this crate's APIs), so a malformed
    /// segment degrades to a conservative answer instead of panicking
    /// mid-flow.
    pub fn track_at(&self, t: u32) -> Coord {
        let mut nearest: Option<(u32, Coord)> = None;
        for &(a, b, x) in &self.pieces {
            if a <= t && t <= b {
                return x;
            }
            let d = if t < a { a - t } else { t - b };
            match nearest {
                Some((best, _)) if best <= d => {}
                _ => nearest = Some((d, x)),
            }
        }
        nearest.map_or(0, |(_, x)| x)
    }

    /// Whether the end at `lo` (`end_hi == false`) or `hi` is a bad end
    /// under the given plan.
    pub fn end_is_bad(&self, plan: &StitchPlan, end_hi: bool) -> bool {
        let (tile, cont) = if end_hi {
            (self.hi, self.hi_cont)
        } else {
            (self.lo, self.lo_cont)
        };
        is_bad_track(plan, self.track_at(tile), cont)
    }
}

/// Whether track `x` makes an end with continuation `cont` a bad end:
/// `x` lies in some line's unfriendly region and the horizontal
/// continuation crosses that line.
pub(crate) fn is_bad_track(plan: &StitchPlan, x: Coord, cont: Continuation) -> bool {
    let eps = plan.config().epsilon;
    let Some(line) = plan.nearest_line(x) else {
        return false;
    };
    if (x - line).abs() > eps {
        return false;
    }
    if x == line {
        // On the line itself: forbidden for other reasons; as an end track
        // it is categorically bad.
        return cont != Continuation::None;
    }
    if line < x {
        cont.crosses_left()
    } else {
        cont.crosses_right()
    }
}

/// Result of track assignment over all panels.
#[derive(Debug, Clone, Default)]
pub struct TrackResult {
    /// Successfully assigned segments (both orientations).
    pub segments: Vec<AssignedSeg>,
    /// Nets with at least one unplaceable segment; their panel wiring is
    /// ripped up and the whole net is routed directly in detailed routing.
    pub failed_nets: BTreeSet<usize>,
    /// Number of bad ends remaining after assignment (drives the
    /// stitch-aware detailed-routing net order).
    pub bad_ends: usize,
    /// `true` when an [`TrackMode::IlpExact`] run exhausted its node
    /// budget somewhere (reported as "NA" in Table VII).
    pub timed_out: bool,
}

/// Runs layer assignment then track assignment over all panels.
pub fn assign_tracks(
    panels: &Panels,
    graph: &TileGraph,
    plan: &StitchPlan,
    layers: u8,
    config: &TrackConfig,
) -> TrackResult {
    let v_layers = usize::from(layers) / 2;
    let h_layers = usize::from(layers).div_ceil(2);
    let mut result = TrackResult::default();

    // Every non-empty panel in order: column panels (vertical segments,
    // stitch-aware) first, then row panels (horizontal segments,
    // conventional — stitching lines are vertical and do not constrain
    // horizontal tracks).
    let columns = panels
        .columns
        .iter()
        .enumerate()
        .map(|(i, segs)| (true, i as u32, segs));
    let rows = panels
        .rows
        .iter()
        .enumerate()
        .map(|(i, segs)| (false, i as u32, segs));
    let exact = matches!(config.track_mode, TrackMode::IlpExact { .. });
    let mut skipped_groups = 0usize;
    for (column, panel, segs) in columns.chain(rows).filter(|(_, _, segs)| !segs.is_empty()) {
        // Cancellation commits at panel boundaries: a skipped panel
        // places no segments, so its nets fall through to seedless
        // pin-to-pin detailed routing.
        if config.cancel.is_cancelled() {
            skipped_groups += 1;
            continue;
        }
        let (extent, k) = if column {
            (graph.rows(), v_layers)
        } else {
            (graph.cols(), h_layers)
        };
        let colors = color_panel(segs, extent, k, config.layer_mode, column);
        if column && exact && result.timed_out {
            // Once any exact group has timed out the run is "NA"
            // (Table VII): every later column panel's members fail
            // without being solved.
            for (s, &c) in segs.iter().zip(&colors) {
                if c < k {
                    result.failed_nets.insert(s.net);
                }
            }
            continue;
        }
        // Each panel assigns into a result of its own: the baseline
        // column branch drains the result it is given.
        let mut local = TrackResult::default();
        for layer_color in 0..k {
            let members: Vec<&PanelSegment> = segs
                .iter()
                .zip(&colors)
                .filter(|&(_, &c)| c == layer_color)
                .map(|(s, _)| s)
                .collect();
            if members.is_empty() {
                continue;
            }
            if column {
                assign_column_group(
                    panel,
                    layer_color,
                    &members,
                    graph,
                    plan,
                    config.track_mode,
                    &config.cancel,
                    &mut local,
                );
            } else {
                assign_row_group(panel, layer_color, &members, graph, &mut local);
            }
        }
        result.segments.extend(local.segments);
        result.failed_nets.extend(local.failed_nets);
        result.timed_out |= local.timed_out;
    }

    if skipped_groups > 0 {
        config.cancel.record(Degradation::new(
            Stage::Assign,
            DegradationKind::BudgetExhausted,
            None,
            format!("{skipped_groups} panels skipped; their nets route pin-to-pin"),
        ));
    }

    result.bad_ends = result
        .segments
        .iter()
        .filter(|s| !s.horizontal)
        .map(|s| {
            usize::from(s.end_is_bad(plan, false)) + usize::from(s.end_is_bad(plan, true))
        })
        .sum();
    result
}

/// Layer-assigns a panel's segments, returning a colour per segment.
fn color_panel(
    segs: &[PanelSegment],
    extent: u32,
    k: usize,
    mode: LayerMode,
    count_line_ends: bool,
) -> Vec<usize> {
    if k <= 1 {
        return vec![0; segs.len()];
    }
    let ivs: Vec<SegmentInterval> = segs
        .iter()
        .map(|s| SegmentInterval::new(s.lo, s.hi))
        .collect();
    let graph = ConflictGraph::build(&ivs, extent, count_line_ends);
    match mode {
        LayerMode::MstBaseline => layer_assign_mst(&graph, k),
        LayerMode::Ours => layer_assign_ours(&graph, k),
    }
}

/// Track assignment for one (column, layer) group.
#[allow(clippy::too_many_arguments)]
fn assign_column_group(
    col: u32,
    layer_color: usize,
    members: &[&PanelSegment],
    graph: &TileGraph,
    plan: &StitchPlan,
    mode: TrackMode,
    cancel: &CancelToken,
    result: &mut TrackResult,
) {
    let span = graph.col_span(col);
    // Usable tracks: baseline keeps line tracks (and pays for it later).
    let tracks: Vec<Coord> = match mode {
        TrackMode::Baseline => span.iter().collect(),
        _ => span.iter().filter(|&x| !plan.is_on_line(x)).collect(),
    };
    if tracks.is_empty() {
        for s in members {
            result.failed_nets.insert(s.net);
        }
        return;
    }

    match mode {
        TrackMode::Baseline => {
            assign_straight(
                col,
                layer_color,
                members,
                graph.rows(),
                &tracks,
                OrderPolicy::LeftEdge,
                result,
            );
            // Rip up segments that landed on a stitching-line track.
            let mut keep = Vec::new();
            for seg in result.segments.drain(..) {
                let on_line = !seg.horizontal
                    && seg.panel == col
                    && seg.layer_color == layer_color
                    && seg.pieces.iter().any(|&(_, _, x)| plan.is_on_line(x));
                if on_line {
                    result.failed_nets.insert(seg.net);
                } else {
                    keep.push(seg);
                }
            }
            result.segments = keep;
        }
        TrackMode::GraphHeuristic => {
            let start = result.segments.len();
            let occupancy = assign_straight(
                col,
                layer_color,
                members,
                graph.rows(),
                &tracks,
                OrderPolicy::LongFirstOutermost,
                result,
            );
            resolve_bad_ends_with_doglegs(
                &mut result.segments[start..],
                occupancy,
                &tracks,
                graph.rows(),
                plan,
                cancel,
            );
        }
        TrackMode::IlpExact { node_budget } => {
            // Once any group has timed out the run is "NA" (Table VII);
            // skip the remaining exact solves instead of burning budget.
            if result.timed_out {
                for s in members {
                    result.failed_nets.insert(s.net);
                }
                return;
            }
            let timed_out = crate::ilp::assign_group_exact(
                col,
                layer_color,
                members,
                graph.rows(),
                &tracks,
                plan,
                node_budget,
                result,
            );
            result.timed_out |= timed_out;
        }
    }
}

/// Horizontal (row panel) groups: first-fit on y tracks; no stitch logic.
fn assign_row_group(
    row: u32,
    layer_color: usize,
    members: &[&PanelSegment],
    graph: &TileGraph,
    result: &mut TrackResult,
) {
    let tracks: Vec<Coord> = graph.row_span(row).iter().collect();
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_by_key(|&i| (members[i].lo, members[i].hi, members[i].net));
    let cols = graph.cols() as usize;
    let mut occupancy = vec![false; tracks.len() * cols];
    for &i in &order {
        let s = members[i];
        let free = (0..tracks.len()).find(|&t| {
            (s.lo..=s.hi).all(|c| !occupancy[t * cols + c as usize])
        });
        match free {
            Some(t) => {
                for c in s.lo..=s.hi {
                    occupancy[t * cols + c as usize] = true;
                }
                result.segments.push(AssignedSeg {
                    net: s.net,
                    horizontal: true,
                    panel: row,
                    layer_color,
                    lo: s.lo,
                    hi: s.hi,
                    pieces: vec![(s.lo, s.hi, tracks[t])],
                    lo_cont: Continuation::None,
                    hi_cont: Continuation::None,
                });
            }
            None => {
                result.failed_nets.insert(s.net);
            }
        }
    }
}

enum OrderPolicy {
    /// Conventional left-edge: ascending start, first (lowest) free track.
    LeftEdge,
    /// Paper §III-C2: longest segments first, placed on the outermost
    /// (stitch-line-adjacent) free track.
    LongFirstOutermost,
}

/// Straight (one piece per segment) assignment. Returns the occupancy
/// matrix `rows x tracks` with the index (into the freshly pushed
/// segments) +1, 0 = free.
fn assign_straight(
    panel: u32,
    layer_color: usize,
    members: &[&PanelSegment],
    rows: u32,
    tracks: &[Coord],
    policy: OrderPolicy,
    result: &mut TrackResult,
) -> Vec<u32> {
    let t_count = tracks.len();
    let base = result.segments.len();
    let mut occupancy = vec![0u32; rows as usize * t_count];
    let mut order: Vec<usize> = (0..members.len()).collect();
    let preference: Vec<usize> = match policy {
        OrderPolicy::LeftEdge => {
            order.sort_by_key(|&i| (members[i].lo, members[i].hi, members[i].net));
            (0..t_count).collect()
        }
        OrderPolicy::LongFirstOutermost => {
            order.sort_by_key(|&i| {
                (
                    std::cmp::Reverse(members[i].tile_len()),
                    members[i].lo,
                    members[i].net,
                )
            });
            // 0, T-1, 1, T-2, ... : outermost tracks first.
            let mut pref = Vec::with_capacity(t_count);
            let (mut a, mut b) = (0usize, t_count - 1);
            while a <= b {
                pref.push(a);
                if a != b {
                    pref.push(b);
                }
                a += 1;
                if b == 0 {
                    break;
                }
                b -= 1;
            }
            pref
        }
    };

    for &i in &order {
        let s = members[i];
        let free = preference.iter().copied().find(|&t| {
            (s.lo..=s.hi).all(|r| occupancy[r as usize * t_count + t] == 0)
        });
        match free {
            Some(t) => {
                // Group-local 1-based index (the dogleg resolver receives
                // only this group's slice of `result.segments`).
                let seg_idx = (result.segments.len() - base) as u32 + 1;
                for r in s.lo..=s.hi {
                    occupancy[r as usize * t_count + t] = seg_idx;
                }
                result.segments.push(AssignedSeg {
                    net: s.net,
                    horizontal: false,
                    panel,
                    layer_color,
                    lo: s.lo,
                    hi: s.hi,
                    pieces: vec![(s.lo, s.hi, tracks[t])],
                    lo_cont: s.lo_cont,
                    hi_cont: s.hi_cont,
                });
            }
            None => {
                result.failed_nets.insert(s.net);
            }
        }
    }
    occupancy
}

/// Dogleg refinement (paper Fig. 11): for each remaining bad end, move the
/// end-tile piece to a friendly track inside the `[m, M]` window given by
/// the min/max track constraint graphs.
///
/// `group` are the segments just pushed for this (panel, layer); the
/// occupancy matrix indexes them 1-based in push order.
fn resolve_bad_ends_with_doglegs(
    group: &mut [AssignedSeg],
    mut occupancy: Vec<u32>,
    tracks: &[Coord],
    _rows: u32,
    plan: &StitchPlan,
    cancel: &CancelToken,
) {
    let t_count = tracks.len();

    for idx in 0..group.len() {
        for end_hi in [false, true] {
            if !group[idx].end_is_bad(plan, end_hi) {
                continue;
            }
            let (end_tile, cont) = if end_hi {
                (group[idx].hi, group[idx].hi_cont)
            } else {
                (group[idx].lo, group[idx].lo_cont)
            };
            // Zero-length dogleg impossible: segment must keep >= 1 tile
            // on the main track.
            if group[idx].lo == group[idx].hi {
                continue;
            }
            let main = group[idx].track_at(end_tile);
            // Assigned tracks come from `tracks` by construction; if the
            // lookup misses, leave the bad end in place and surface it
            // rather than panicking.
            let Some(main_t) = tracks.iter().position(|&t| t == main) else {
                cancel.record(Degradation::new(
                    Stage::Assign,
                    DegradationKind::InternalFallback,
                    Some(group[idx].net),
                    format!("dogleg skipped: track {main} missing from panel track set"),
                ));
                continue;
            };

            // Feasible window [m, M] from the constraint graphs.
            let (m, big_m) = feasible_window(group, idx, end_tile, &occupancy, t_count, plan, tracks, cont);

            // Candidate tracks: inside the window, friendly for this end,
            // free in the end tile row; nearest to the main track wins
            // (fewest/cheapest bends, the greedy of Fig. 11(e)).
            let row_base = end_tile as usize * t_count;
            let candidate = (m..=big_m)
                .filter(|&t| t < t_count)
                .filter(|&t| occupancy[row_base + t] == 0 || occupancy[row_base + t] == idx as u32 + 1)
                .filter(|&t| !is_bad_track(plan, tracks[t], cont))
                .min_by_key(|&t| t.abs_diff(main_t));
            let Some(new_t) = candidate else {
                continue; // bad end stays; detailed routing may still fix it
            };
            if new_t == main_t {
                continue;
            }
            // Shrink the end piece off the end tile and add the dogleg.
            // Every segment covers its own end tile; if the piece list is
            // somehow inconsistent, leave this end untouched.
            let Some(pos) = group[idx]
                .pieces
                .iter()
                .position(|&(a, b, _)| a <= end_tile && end_tile <= b)
            else {
                continue;
            };
            // Re-point occupancy and split the piece.
            occupancy[row_base + main_t] = 0;
            occupancy[row_base + new_t] = idx as u32 + 1;
            let seg = &mut group[idx];
            let (a, b, x) = seg.pieces[pos];
            if a == b {
                // Single-tile piece (the other end was already doglegged):
                // re-track it in place instead of splitting.
                seg.pieces[pos] = (a, b, tracks[new_t]);
            } else if end_hi {
                seg.pieces[pos] = (a, b - 1, x);
                seg.pieces.insert(pos + 1, (end_tile, end_tile, tracks[new_t]));
            } else {
                seg.pieces[pos] = (a + 1, b, x);
                seg.pieces.insert(pos, (end_tile, end_tile, tracks[new_t]));
            }
        }
    }
}

/// Computes the feasible track window `[m, M]` of the end-tile interval of
/// `group[idx]` using the minimum/maximum track constraint graphs
/// (Fig. 11(d)), restricted to intervals overlapping the end tile row.
#[allow(clippy::too_many_arguments)]
fn feasible_window(
    _group: &[AssignedSeg],
    idx: usize,
    end_tile: u32,
    occupancy: &[u32],
    t_count: usize,
    plan: &StitchPlan,
    tracks: &[Coord],
    cont: Continuation,
) -> (usize, usize) {
    // Intervals sharing the end tile row, ordered by their current track.
    let row_base = end_tile as usize * t_count;
    let mut on_row: Vec<(usize, usize)> = (0..t_count)
        .filter_map(|t| {
            let occ = occupancy[row_base + t];
            (occ != 0).then(|| (occ as usize - 1, t))
        })
        .collect();
    on_row.sort_by_key(|&(_, t)| t);

    let n = on_row.len();
    // A segment always occupies its own end row; fall back to the
    // unconstrained window if the occupancy map disagrees.
    let Some(me) = on_row.iter().position(|&(g, _)| g == idx) else {
        return (0, t_count - 1);
    };

    // Minimum track constraint graph: nodes = intervals on this row in
    // track order; edge (i -> i+1) weight 1 (must be strictly right of the
    // previous one); a dummy source edge of weight eps when the interval's
    // end is bad on the leftmost tracks.
    let eps = plan.config().epsilon as i64;
    let mut min_edges: Vec<(usize, usize, i64)> = Vec::new();
    let mut sources: Vec<(usize, i64)> = Vec::new();
    for (i, &(g, _)) in on_row.iter().enumerate() {
        if i + 1 < n {
            min_edges.push((i, i + 1, 1));
        }
        let c = if g == idx { cont } else { Continuation::Both };
        // Bad on the left edge of the track range?
        let left_bad = is_bad_track(plan, tracks[0], c);
        sources.push((i, if left_bad && g == idx { eps } else { 0 }));
    }
    // The chain graph is acyclic by construction; an unconstrained window
    // is the safe answer if longest-path analysis ever rejects it.
    let Some(m_dist) = mebl_graph::longest_paths(n, &min_edges, &sources) else {
        return (0, t_count - 1);
    };

    // Maximum graph: mirrored.
    let mut max_edges: Vec<(usize, usize, i64)> = Vec::new();
    let mut max_sources: Vec<(usize, i64)> = Vec::new();
    for (i, &(g, _)) in on_row.iter().enumerate() {
        if i + 1 < n {
            max_edges.push((i + 1, i, 1));
        }
        let c = if g == idx { cont } else { Continuation::Both };
        let right_bad = is_bad_track(plan, tracks[t_count - 1], c);
        max_sources.push((i, if right_bad && g == idx { eps } else { 0 }));
    }
    let Some(max_dist) = mebl_graph::longest_paths(n, &max_edges, &max_sources) else {
        return (0, t_count - 1);
    };

    let m = m_dist[me].max(0) as usize;
    let big_m = (t_count as i64 - 1 - max_dist[me].max(0)).max(0) as usize;
    (m, big_m.max(m.min(t_count - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_geom::Rect;
    use mebl_stitch::StitchConfig;

    fn plan() -> StitchPlan {
        StitchPlan::new(Rect::new(0, 0, 89, 89), StitchConfig::default())
    }

    fn graph(plan: &StitchPlan) -> TileGraph {
        TileGraph::new(Rect::new(0, 0, 89, 89), 15, 3, plan, true)
    }

    fn vseg(net: usize, col: u32, lo: u32, hi: u32, lc: Continuation, hc: Continuation) -> PanelSegment {
        PanelSegment {
            net,
            panel: col,
            lo,
            hi,
            lo_cont: lc,
            hi_cont: hc,
        }
    }

    fn panels_with(columns: Vec<Vec<PanelSegment>>, rows_n: usize) -> Panels {
        Panels {
            columns,
            rows: vec![Vec::new(); rows_n],
        }
    }

    #[test]
    fn bad_track_logic() {
        let p = plan();
        // Line at 15; eps 1. Track 16: unfriendly on the right side of 15.
        assert!(is_bad_track(&p, 16, Continuation::Left));
        assert!(!is_bad_track(&p, 16, Continuation::Right));
        assert!(is_bad_track(&p, 16, Continuation::Both));
        assert!(!is_bad_track(&p, 16, Continuation::None));
        // Track 14: unfriendly on the left side of 15.
        assert!(is_bad_track(&p, 14, Continuation::Right));
        assert!(!is_bad_track(&p, 14, Continuation::Left));
        // Track 18: friendly.
        assert!(!is_bad_track(&p, 18, Continuation::Both));
    }

    #[test]
    fn straight_assignment_no_overlap_on_same_track() {
        let p = plan();
        let g = graph(&p);
        let mut cols = vec![Vec::new(); g.cols() as usize];
        cols[1] = vec![
            vseg(0, 1, 0, 3, Continuation::None, Continuation::None),
            vseg(1, 1, 2, 5, Continuation::None, Continuation::None),
            vseg(2, 1, 0, 5, Continuation::None, Continuation::None),
        ];
        let panels = panels_with(cols, g.rows() as usize);
        let res = assign_tracks(&panels, &g, &p, 3, &TrackConfig::default());
        assert_eq!(res.segments.len(), 3);
        assert!(res.failed_nets.is_empty());
        // Overlapping rows must be on distinct tracks.
        for i in 0..3 {
            for j in (i + 1)..3 {
                let (a, b) = (&res.segments[i], &res.segments[j]);
                let lo = a.lo.max(b.lo);
                let hi = a.hi.min(b.hi);
                for r in lo..=hi.min(a.hi).min(b.hi) {
                    if a.lo <= r && r <= a.hi && b.lo <= r && r <= b.hi {
                        assert_ne!(a.track_at(r), b.track_at(r), "row {r}");
                    }
                }
            }
        }
        // No segment on a stitch line track.
        for s in &res.segments {
            for &(_, _, x) in &s.pieces {
                assert!(!p.is_on_line(x));
            }
        }
    }

    #[test]
    fn baseline_rips_up_line_track_segments() {
        let p = plan();
        let g = graph(&p);
        // Column 1 spans x [15, 29]; fill it with 15 overlapping segments
        // so the left-edge baseline must use track 15 (the stitch line).
        let mut cols = vec![Vec::new(); g.cols() as usize];
        cols[1] = (0..15)
            .map(|i| vseg(i, 1, 0, 5, Continuation::None, Continuation::None))
            .collect();
        let panels = panels_with(cols, g.rows() as usize);
        let res = assign_tracks(
            &panels,
            &g,
            &p,
            3,
            &TrackConfig {
                layer_mode: LayerMode::MstBaseline,
                track_mode: TrackMode::Baseline,
                ..TrackConfig::default()
            },
        );
        assert!(
            !res.failed_nets.is_empty(),
            "a segment must land on x=15 and be ripped up"
        );
        assert_eq!(res.segments.len() + res.failed_nets.len(), 15);
    }

    #[test]
    fn graph_heuristic_doglegs_away_bad_end() {
        let p = plan();
        let g = graph(&p);
        // One long segment in column 1 whose hi end continues left
        // (crossing line 15 when placed on track 16).
        let mut cols = vec![Vec::new(); g.cols() as usize];
        cols[1] = vec![vseg(0, 1, 0, 4, Continuation::None, Continuation::Left)];
        let panels = panels_with(cols, g.rows() as usize);
        let res = assign_tracks(&panels, &g, &p, 3, &TrackConfig::default());
        assert_eq!(res.segments.len(), 1);
        assert_eq!(
            res.bad_ends, 0,
            "dogleg must fix the single bad end: {:?}",
            res.segments[0]
        );
    }

    #[test]
    fn saturated_group_reports_failures() {
        let p = plan();
        let g = graph(&p);
        // 20 fully-overlapping segments in a 15-track column (14 usable):
        // at least 6 must fail.
        let mut cols = vec![Vec::new(); g.cols() as usize];
        cols[1] = (0..20)
            .map(|i| vseg(i, 1, 0, 5, Continuation::None, Continuation::None))
            .collect();
        let panels = panels_with(cols, g.rows() as usize);
        let res = assign_tracks(&panels, &g, &p, 3, &TrackConfig::default());
        assert_eq!(res.failed_nets.len(), 6);
        assert_eq!(res.segments.len(), 14);
    }

    #[test]
    fn horizontal_segments_assigned_by_first_fit() {
        let p = plan();
        let g = graph(&p);
        let mut rows = vec![Vec::new(); g.rows() as usize];
        rows[2] = vec![
            vseg(0, 2, 0, 3, Continuation::None, Continuation::None),
            vseg(1, 2, 1, 4, Continuation::None, Continuation::None),
        ];
        let panels = Panels {
            columns: vec![Vec::new(); g.cols() as usize],
            rows,
        };
        let res = assign_tracks(&panels, &g, &p, 3, &TrackConfig::default());
        assert_eq!(res.segments.len(), 2);
        assert!(res.segments.iter().all(|s| s.horizontal));
        // Overlapping segments must differ in layer or in track.
        let (a, b) = (&res.segments[0], &res.segments[1]);
        assert!(
            a.layer_color != b.layer_color || a.pieces[0].2 != b.pieces[0].2,
            "overlapping horizontal segments share (layer, track)"
        );
    }

    #[test]
    fn track_at_spans_pieces() {
        let seg = AssignedSeg {
            net: 0,
            horizontal: false,
            panel: 0,
            layer_color: 0,
            lo: 0,
            hi: 4,
            pieces: vec![(0, 3, 7), (4, 4, 10)],
            lo_cont: Continuation::None,
            hi_cont: Continuation::None,
        };
        assert_eq!(seg.track_at(0), 7);
        assert_eq!(seg.track_at(3), 7);
        assert_eq!(seg.track_at(4), 10);
    }
}

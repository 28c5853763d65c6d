//! Flat dense-grid search state for the detailed router.
//!
//! The hot path routes every net over the same [`DetailedGrid`], so the
//! per-search machinery here is built once and reused: a [`CostField`]
//! precomputes the stitch-aware step costs of eq. (10) per grid column
//! (they depend only on x), and a [`DialSolver`] owns flat dist/parent
//! arrays with epoch-stamped validity plus a [`BucketQueue`] ring, so a
//! new search costs an epoch bump instead of an allocation storm.
//!
//! Costs are quantized integers: each step cost is computed in α units
//! and clamped to [`MAX_STEP_Q`], which bounds the bucket ring while
//! preserving the ordering of all in-range configurations (the paper's
//! defaults use single-digit weights). The heuristic unit is clamped
//! identically, so it stays a consistent lower bound per planar step.
//!
//! The same expansion loop runs a *soft* search for the blocker round:
//! cells a [`Rippable`] admits are passable, and paths are ordered by
//! (foreign cells entered, eq. (10) cost), so the cheapest soft path
//! names a minimal set of blocking cells.

use crate::DetailedGrid;
use mebl_control::CancelToken;
use mebl_geom::{Coord, Point};
use mebl_graph::{BucketQueue, FastSet};
use mebl_stitch::StitchPlan;

/// Soft-search distance of one foreign cell entered. Soft distances
/// are `blocked << 40 | cost`, so comparing them as integers orders
/// paths by foreign cells first and eq. (10) cost second, exactly while
/// the cost part stays below 2^40 (a path of fewer than 2^28 steps at
/// the [`MAX_STEP_Q`] ceiling) and the count below 2^24.
const BLOCKED: u64 = 1 << 40;

/// Cells a soft search may enter: those owned by a net flagged in
/// `nets`, except the cells in `pins`. Every other occupied cell stays
/// hard.
pub(crate) struct Rippable<'a> {
    /// Per net index: whether its cells may be crossed.
    pub(crate) nets: &'a [bool],
    /// Cells that stay hard whoever owns them.
    pub(crate) pins: &'a FastSet<u32>,
}

impl Rippable<'_> {
    /// Whether a soft search may enter `cell`, occupied by another net.
    fn admits(&self, grid: &DetailedGrid, cell: u32) -> bool {
        grid.occupant(cell)
            .is_some_and(|owner| self.nets.get(owner as usize) == Some(&true))
            && !self.pins.contains(&cell)
    }
}

/// Per-step cost ceiling in quantized α units. Costs above this clamp
/// saturate: ordering among saturated steps is lost, but every
/// in-range configuration (the paper's single-digit weights, and any
/// α·via_cost + β below the ceiling) is ranked exactly.
pub(crate) const MAX_STEP_Q: u64 = 4096;

/// Precomputed per-column step costs for one routing run.
///
/// Stitch geometry depends only on the x coordinate, so the weighted
/// costs of eq. (10) collapse into three arrays indexed by local
/// column: whether the column is a stitching line (hard constraints),
/// the planar step cost into the column (α, plus γ inside an escape
/// region when stitch costs are on), and the via step cost within the
/// column (α·via_cost, plus β inside an unfriendly region).
pub(crate) struct CostField {
    on_line: Vec<bool>,
    planar: Vec<u32>,
    via: Vec<u32>,
    h_unit: u64,
    /// Bucket-ring span: the largest key increment a single expansion
    /// can produce (step plus heuristic drift).
    pub(crate) span: u64,
}

/// Packs local coordinates into the queue-payload word
/// (`x | y<<20 | l<<40`). 20 bits per axis covers any grid whose
/// occupancy array fits in memory; neighbour coordinates are a single
/// add/subtract on the packed word, mirroring node-id arithmetic.
#[inline]
fn pack(x: u32, y: u32, l: u32) -> u64 {
    u64::from(x) | u64::from(y) << 20 | u64::from(l) << 40
}

/// Decodes a packed coordinate word into `(x, y, layer)`.
#[inline]
fn unpack(c: u64) -> (u32, u32, u32) {
    (
        (c & 0xf_ffff) as u32,
        ((c >> 20) & 0xf_ffff) as u32,
        (c >> 40) as u32,
    )
}

impl CostField {
    /// Builds the cost layers for `grid` under `plan` and the given
    /// weights. Saturating arithmetic plus the [`MAX_STEP_Q`] clamp
    /// keep arbitrary `u64` configuration values safe.
    pub(crate) fn build(
        grid: &DetailedGrid,
        plan: &StitchPlan,
        alpha: u64,
        beta: u64,
        gamma: u64,
        via_cost: u64,
        stitch_costs: bool,
    ) -> Self {
        let width = grid.width() as usize;
        let x0 = grid.outline().x0();
        let mut on_line = Vec::with_capacity(width);
        let mut planar = Vec::with_capacity(width);
        let mut via = Vec::with_capacity(width);
        for lx in 0..width {
            let wx = x0 + lx as Coord;
            on_line.push(plan.is_on_line(wx));
            let mut p = alpha;
            if stitch_costs && plan.in_escape_region(wx) {
                p = p.saturating_add(gamma);
            }
            planar.push(p.min(MAX_STEP_Q) as u32);
            let mut v = alpha.saturating_mul(via_cost);
            if stitch_costs && plan.in_unfriendly_region(wx) {
                v = v.saturating_add(beta);
            }
            via.push(v.min(MAX_STEP_Q) as u32);
        }
        let max_step = planar
            .iter()
            .chain(via.iter())
            .copied()
            .max()
            .unwrap_or(1);
        Self {
            on_line,
            planar,
            via,
            // The clamp is monotone, so h_unit <= every planar step and
            // the heuristic stays consistent.
            h_unit: alpha.min(MAX_STEP_Q),
            span: 2 * u64::from(max_step),
        }
    }
}

/// An inclusive window of local grid coordinates, clamped in-bounds.
///
/// The search never expands outside its window; staged widening on
/// failure re-runs the search with a larger margin. Clamping guarantees
/// `x0 <= x1 < width` and `y0 <= y1 < height` for any input box, so
/// windowed index arithmetic cannot leave the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridWindow {
    /// Leftmost column.
    pub x0: u32,
    /// Rightmost column.
    pub x1: u32,
    /// Bottom row.
    pub y0: u32,
    /// Top row.
    pub y1: u32,
}

impl GridWindow {
    /// Expands `bbox` (as `(x0, y0, x1, y1)` local coordinates, corners
    /// in either order) by `margin` and clamps it to a `width` ×
    /// `height` grid. Both dimensions must be nonzero.
    pub fn clamped(width: u32, height: u32, bbox: (i64, i64, i64, i64), margin: i64) -> Self {
        assert!(width > 0 && height > 0, "window over an empty grid");
        let m = margin.max(0);
        let cx = |v: i64| v.clamp(0, i64::from(width) - 1) as u32;
        let cy = |v: i64| v.clamp(0, i64::from(height) - 1) as u32;
        let (ax, ay, bx, by) = bbox;
        Self {
            x0: cx(ax.min(bx).saturating_sub(m)),
            x1: cx(ax.max(bx).saturating_add(m)),
            y0: cy(ay.min(by).saturating_sub(m)),
            y1: cy(ay.max(by).saturating_add(m)),
        }
    }

    /// Whether the local coordinate lies inside the window.
    pub fn contains(&self, x: u32, y: u32) -> bool {
        self.x0 <= x && x <= self.x1 && self.y0 <= y && y <= self.y1
    }
}

/// Reusable Dial-search state sized to the grid on first use.
///
/// Validity of per-cell state is tracked by an epoch stamp, so starting
/// a new search is O(1): bump the epoch, clear the queue. Each cell's
/// whole search record packs into one `u64` — `tag(26) | dist(32) |
/// dir(3) | flags(3)` — so a relaxation is a single 8-byte load and
/// store. The parent pointer is a move *direction* rather than a node
/// id: path reconstruction walks inverse moves from the target, which
/// is exactly as expressive and 29 bits cheaper. Queue payloads are
/// packed coordinate words (see [`pack`]): the pop loop recovers `(x,
/// y, layer)` without dividing and rebuilds the node id with two
/// multiplies.
///
/// `dist` is a saturating 32-bit quantity in quantized α units: with
/// the [`MAX_STEP_Q`] per-step clamp, saturation needs a million-step
/// path at the ceiling cost, far outside any real window, and a
/// saturated search still terminates (distances just stop ordering
/// beyond the cap).
///
/// A soft search keeps its wider distances (see [`BLOCKED`]) in
/// `soft_dist`, valid where the cell word is discovered this epoch, and
/// leaves the word's dist bits zero. The array grows on the first soft
/// search, so solvers that never run one never allocate it.
pub(crate) struct DialSolver {
    cells: Vec<u64>,
    soft_dist: Vec<u64>,
    epoch: u32,
    queue: BucketQueue<u64>,
}

/// Cell flag: the cell has a valid distance/direction this epoch.
const DISCOVERED: u64 = 1;
/// Cell flag: the cell was popped with its final distance.
const CLOSED: u64 = 2;
/// Cell flag: the cell belongs to a target component.
const TARGET: u64 = 4;
/// Bit offset of the 3-bit arrival direction in a cell word.
const DIR_SHIFT: u32 = 3;
/// Bit offset of the 32-bit distance in a cell word.
const DIST_SHIFT: u32 = 6;
/// Bit offset of the 26-bit epoch tag in a cell word.
const TAG_SHIFT: u32 = 38;
/// Mask selecting the epoch tag of a cell word.
const TAG_MASK: u64 = !0 << TAG_SHIFT;
/// Mask selecting the flag bits of a cell word.
const FLAGS_MASK: u64 = 7;
/// Arrival direction of a search source (no parent).
const DIR_SOURCE: u64 = 6;
/// Node-id deltas per direction: -x, +x, -y, +y, -z, +z. The y and z
/// strides are grid-dependent and patched in per search.
#[inline]
fn dir_deltas(w: u32, wh: u32) -> [i64; 6] {
    [
        -1,
        1,
        -i64::from(w),
        i64::from(w),
        -i64::from(wh),
        i64::from(wh),
    ]
}

impl DialSolver {
    /// Creates a solver whose bucket ring covers key increments up to
    /// `span` (see [`CostField::span`]). Arrays grow lazily to the grid.
    pub(crate) fn new(span: u64) -> Self {
        Self {
            cells: Vec::new(),
            soft_dist: Vec::new(),
            epoch: 0,
            queue: BucketQueue::with_span(span),
        }
    }

    /// Opens a fresh search epoch over a grid of `cells` cells.
    fn begin(&mut self, cells: usize) {
        if self.cells.len() < cells {
            self.cells.resize(cells, 0);
        }
        self.epoch += 1;
        if self.epoch >= 1 << (64 - TAG_SHIFT) {
            // One full clear every 2^26 searches keeps stale tags from
            // a previous wrap-around epoch out of the new one.
            self.cells.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    /// Stitch-aware shortest path (eq. 10) from any of `sources` to any
    /// cell of any component in `target_comps`, restricted to the
    /// bounding box of the endpoints plus `margin`.
    ///
    /// The returned path includes the source cell it grew from and ends
    /// at the reached target; `None` on exhaustion (window, `node_cap`)
    /// or cancellation. `sources` must be sorted for deterministic
    /// tie-breaking.
    ///
    /// With `soft`, cells it admits are passable too, and the path
    /// enters the fewest of them, then costs the least.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn find_path(
        &mut self,
        grid: &DetailedGrid,
        field: &CostField,
        net: u32,
        own_pins: &FastSet<Point>,
        sources: &[u32],
        target_comps: &[FastSet<u32>],
        margin: Coord,
        node_cap: usize,
        cancel: &CancelToken,
        soft: Option<&Rippable>,
    ) -> Option<Vec<u32>> {
        match soft {
            None => self.search::<false>(
                grid, field, net, own_pins, sources, target_comps, margin, node_cap, cancel, None,
            ),
            Some(_) => self.search::<true>(
                grid, field, net, own_pins, sources, target_comps, margin, node_cap, cancel, soft,
            ),
        }
    }

    /// The expansion loop behind [`DialSolver::find_path`]. `SOFT`
    /// selects the distance store at compile time, so a hard search
    /// runs the 32-bit cell-word path with no soft branch in it.
    #[allow(clippy::too_many_arguments)]
    fn search<const SOFT: bool>(
        &mut self,
        grid: &DetailedGrid,
        field: &CostField,
        net: u32,
        own_pins: &FastSet<Point>,
        sources: &[u32],
        target_comps: &[FastSet<u32>],
        margin: Coord,
        node_cap: usize,
        cancel: &CancelToken,
        soft: Option<&Rippable>,
    ) -> Option<Vec<u32>> {
        if sources.is_empty() || target_comps.iter().all(FastSet::is_empty) {
            return None;
        }
        let w = grid.width();
        let rows = grid.height();
        let wh = w * rows;
        let layers = u32::from(grid.layers());
        let (ox, oy) = (grid.outline().x0(), grid.outline().y0());
        self.begin(grid.cell_count());
        if SOFT && self.soft_dist.len() < grid.cell_count() {
            self.soft_dist.resize(grid.cell_count(), 0);
        }

        let tag = u64::from(self.epoch) << TAG_SHIFT;
        // Cold-path decomposition for endpoint setup; the pop loop
        // never divides (coordinates ride along in the queue payload).
        let local = |c: u32| -> (u32, u32, u32) {
            let x = c % w;
            let rest = c / w;
            (x, rest % rows, rest / rows)
        };
        // One bounding box per target component: `h` takes the minimum
        // over them, which stays admissible and consistent (a minimum
        // of 1-Lipschitz lower bounds) while being far tighter than the
        // union box whenever the components are spread apart — the
        // union box often *contains* the source, flattening `h` to zero
        // over a wide region. Box count is capped so `h` stays O(1);
        // overflow components fold into the last box, which only
        // loosens (never breaks) the bound.
        const MAX_H_BOXES: usize = 8;
        let mut bbox = (i64::MAX, i64::MAX, i64::MIN, i64::MIN);
        let mut boxes: [(u32, u32, u32, u32); MAX_H_BOXES] =
            [(u32::MAX, u32::MAX, 0, 0); MAX_H_BOXES];
        let mut nboxes = 0usize;
        for comp in target_comps {
            if comp.is_empty() {
                continue;
            }
            let slot = nboxes.min(MAX_H_BOXES - 1);
            for &t in comp {
                // `begin` bumped the epoch, so every word is stale here
                // and a plain store marks the target.
                self.cells[t as usize] = tag | TARGET;
                let (x, y, _) = local(t);
                let b = &mut boxes[slot];
                *b = (b.0.min(x), b.1.min(y), b.2.max(x), b.3.max(y));
                bbox = (
                    bbox.0.min(i64::from(x)),
                    bbox.1.min(i64::from(y)),
                    bbox.2.max(i64::from(x)),
                    bbox.3.max(i64::from(y)),
                );
            }
            nboxes = (nboxes + 1).min(MAX_H_BOXES);
        }
        for &c in sources {
            let (x, y, _) = local(c);
            bbox = (
                bbox.0.min(i64::from(x)),
                bbox.1.min(i64::from(y)),
                bbox.2.max(i64::from(x)),
                bbox.3.max(i64::from(y)),
            );
        }
        let win = GridWindow::clamped(w, rows, (bbox.0, bbox.1, bbox.2, bbox.3), i64::from(margin));

        // Manhattan distance to the nearest target-component bounding
        // box, in clamped α units — admissible and consistent (each
        // planar step costs at least `h_unit` and moves one grid unit).
        let boxes = &boxes[..nboxes];
        let h = |x: u32, y: u32| -> u64 {
            let mut best = u32::MAX;
            for b in boxes {
                let dx = b.0.saturating_sub(x).max(x.saturating_sub(b.2));
                let dy = b.1.saturating_sub(y).max(y.saturating_sub(b.3));
                best = best.min(dx + dy);
                if best == 0 {
                    break;
                }
            }
            u64::from(best) * field.h_unit
        };

        for &s in sources {
            // Components are disjoint, so a source is never a target.
            self.cells[s as usize] = tag | (DIR_SOURCE << DIR_SHIFT) | DISCOVERED;
            if SOFT {
                self.soft_dist[s as usize] = 0;
            }
            let (x, y, l) = local(s);
            self.queue.push(h(x, y), pack(x, y, l));
        }

        let mut expanded = 0usize;
        while let Some((_key, packed)) = self.queue.pop() {
            let (x, y, l) = unpack(packed);
            let u = (l * rows + y) * w + x;
            let ui = u as usize;
            // Queued cells always carry the current epoch tag. The
            // heuristic is consistent, so the first pop of a cell has
            // its final distance; later entries are superseded
            // duplicates.
            let m = self.cells[ui];
            if m & CLOSED != 0 {
                continue;
            }
            self.cells[ui] = m | CLOSED;
            if m & TARGET != 0 {
                return Some(self.reconstruct(u, w, wh));
            }
            // Hard distances live in the cell word; soft ones in their
            // own array (see `BLOCKED`).
            let du = if SOFT {
                self.soft_dist[ui]
            } else {
                (m >> DIST_SHIFT) & u64::from(u32::MAX)
            };
            expanded += 1;
            if expanded > node_cap {
                return None;
            }
            // Charge the run budget and honour cancellation mid-search:
            // a `None` return rips the net up like any failed
            // connection, so aborting never leaves partial geometry.
            if cancel.charge_expansions(1) {
                return None;
            }

            let lx = x as usize;
            let src_on_line = field.on_line[lx];
            // Via moves keep (x, y), so both share this pop's h value;
            // planar moves shift a coordinate and re-evaluate.
            let hxy = h(x, y);
            // Candidate moves as (node, packed coordinates, step cost);
            // neighbour coordinates are one add on the packed word.
            // Hard constraints (no riding a stitching line vertically;
            // vias on a line only at own pins) are keyed on the source
            // cell, in soft searches too. Vias are queued
            // *before* planar moves: the bucket queue pops LIFO among
            // equal keys, so equal-cost ties continue in-plane rather
            // than hop layers first.
            let mut cand = [(0u32, 0u64, 0u32, 0u64); 4];
            let mut nc = 0usize;
            let z_ok = !src_on_line
                || own_pins.contains(&Point::new(ox + x as Coord, oy + y as Coord));
            if z_ok {
                if l > 0 {
                    cand[nc] = (u - wh, packed - (1 << 40), field.via[lx], 4);
                    nc += 1;
                }
                if l + 1 < layers {
                    cand[nc] = (u + wh, packed + (1 << 40), field.via[lx], 5);
                    nc += 1;
                }
            }
            if l.is_multiple_of(2) {
                if x > win.x0 {
                    cand[nc] = (u - 1, packed - 1, field.planar[lx - 1], 0);
                    nc += 1;
                }
                if x < win.x1 {
                    cand[nc] = (u + 1, packed + 1, field.planar[lx + 1], 1);
                    nc += 1;
                }
            } else if !src_on_line {
                if y > win.y0 {
                    cand[nc] = (u - w, packed - (1 << 20), field.planar[lx], 2);
                    nc += 1;
                }
                if y < win.y1 {
                    cand[nc] = (u + w, packed + (1 << 20), field.planar[lx], 3);
                    nc += 1;
                }
            }
            for &(v, q, step, dir) in &cand[..nc] {
                let vi = v as usize;
                let foreign = !grid.passable(v, net);
                if foreign && !(SOFT && soft.is_some_and(|r| r.admits(grid, v))) {
                    continue;
                }
                let cv = self.cells[vi];
                // Flags survive only under the current epoch tag; a
                // stale word means "untouched, keep the target bit off".
                let flags = if cv & TAG_MASK == tag { cv & FLAGS_MASK } else { 0 };
                let discovered = flags & DISCOVERED != 0;
                // Hard distances saturate at 32 bits; soft ones add
                // `BLOCKED` per foreign cell entered.
                let nd = if SOFT {
                    let nd = du.saturating_add(u64::from(step) + if foreign { BLOCKED } else { 0 });
                    if discovered && nd >= self.soft_dist[vi] {
                        continue;
                    }
                    self.soft_dist[vi] = nd;
                    nd
                } else {
                    let nd = (du + u64::from(step)).min(u64::from(u32::MAX));
                    if discovered && nd >= (cv >> DIST_SHIFT) & u64::from(u32::MAX) {
                        continue;
                    }
                    nd
                };
                let word_dist = if SOFT { 0 } else { nd << DIST_SHIFT };
                self.cells[vi] = tag | word_dist | dir << DIR_SHIFT | flags | DISCOVERED;
                let hq = if dir >= 4 {
                    hxy
                } else {
                    let (qx, qy, _) = unpack(q);
                    h(qx, qy)
                };
                self.queue.push(nd.saturating_add(hq), q);
            }
        }
        None
    }

    /// Walks inverse arrival moves from `target` back to the source
    /// that seeded it.
    fn reconstruct(&self, target: u32, w: u32, wh: u32) -> Vec<u32> {
        let deltas = dir_deltas(w, wh);
        let mut path = vec![target];
        let mut cur = target;
        loop {
            let dir = (self.cells[cur as usize] >> DIR_SHIFT) & 7;
            if dir == DIR_SOURCE {
                break;
            }
            cur = (i64::from(cur) - deltas[dir as usize]) as u32;
            path.push(cur);
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_geom::{GridPoint, Layer, Rect};
    use mebl_stitch::StitchConfig;

    fn setup() -> (DetailedGrid, StitchPlan) {
        let outline = Rect::new(0, 0, 39, 29);
        (
            DetailedGrid::new(outline, 3),
            StitchPlan::new(outline, StitchConfig::default()),
        )
    }

    fn field_for(grid: &DetailedGrid, plan: &StitchPlan) -> CostField {
        CostField::build(grid, plan, 1, 10, 5, 2, true)
    }

    fn comps(cells: &[u32]) -> Vec<FastSet<u32>> {
        vec![cells.iter().copied().collect()]
    }

    #[test]
    fn window_clamps_any_box() {
        let win = GridWindow::clamped(10, 8, (-50, -50, 500, 500), 1 << 40);
        assert_eq!(win, GridWindow { x0: 0, x1: 9, y0: 0, y1: 7 });
        let tight = GridWindow::clamped(10, 8, (3, 2, 5, 4), 1);
        assert_eq!(tight, GridWindow { x0: 2, x1: 6, y0: 1, y1: 5 });
        assert!(tight.contains(2, 1));
        assert!(!tight.contains(7, 3));
    }

    #[test]
    fn finds_a_shortest_l_path() {
        let (grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let src = grid.node(GridPoint::new(2, 2, Layer::new(0)));
        let dst = grid.node(GridPoint::new(8, 2, Layer::new(0)));
        let path = solver
            .find_path(
                &grid,
                &field,
                0,
                &FastSet::default(),
                &[src],
                &comps(&[dst]),
                18,
                60_000,
                &CancelToken::default(),
                None,
            )
            .expect("path");
        assert_eq!(path.first(), Some(&src));
        assert_eq!(path.last(), Some(&dst));
        assert_eq!(path.len(), 7, "straight run on one layer");
    }

    #[test]
    fn epoch_reuse_is_clean_across_searches() {
        let (mut grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let a = grid.node(GridPoint::new(1, 1, Layer::new(0)));
        let b = grid.node(GridPoint::new(6, 1, Layer::new(0)));
        let first = solver
            .find_path(&grid, &field, 0, &FastSet::default(), &[a], &comps(&[b]), 18, 60_000, &CancelToken::default(), None)
            .expect("first path");
        // Occupy a cell of the first path for a foreign net: the second
        // search (same solver, new epoch) must route around it.
        grid.occupy(first[3], 9);
        let second = solver
            .find_path(&grid, &field, 0, &FastSet::default(), &[a], &comps(&[b]), 18, 60_000, &CancelToken::default(), None)
            .expect("second path");
        assert!(!second.contains(&first[3]), "stale state leaked across epochs");
    }

    #[test]
    fn node_cap_exhausts_to_none() {
        let (grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let src = grid.node(GridPoint::new(0, 0, Layer::new(0)));
        let dst = grid.node(GridPoint::new(30, 25, Layer::new(2)));
        let found = solver.find_path(
            &grid,
            &field,
            0,
            &FastSet::default(),
            &[src],
            &comps(&[dst]),
            18,
            1,
            &CancelToken::default(),
            None,
        );
        assert!(found.is_none());
    }

    #[test]
    fn window_blocks_detours_outside_margin() {
        let (mut grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        // Wall off a column across the whole window height on every layer
        // so the only way around is outside the zero-margin window.
        for y in 0..grid.height() {
            for l in 0..3u8 {
                let p = GridPoint::new(5, y as Coord, Layer::new(l));
                grid.occupy(grid.node(p), 7);
            }
        }
        let src = grid.node(GridPoint::new(2, 10, Layer::new(0)));
        let dst = grid.node(GridPoint::new(9, 10, Layer::new(0)));
        let narrow = solver.find_path(
            &grid,
            &field,
            0,
            &FastSet::default(),
            &[src],
            &comps(&[dst]),
            0,
            60_000,
            &CancelToken::default(),
            None,
        );
        assert!(narrow.is_none(), "wall spans the entire zero-margin window");
    }

    /// Occupies column `x` on every layer for the rows in `ys`.
    fn wall(grid: &mut DetailedGrid, x: Coord, ys: impl IntoIterator<Item = Coord>, owner: u32) {
        for y in ys {
            for l in 0..grid.layers() {
                let cell = grid.node(GridPoint::new(x, y, Layer::new(l)));
                grid.occupy(cell, owner);
            }
        }
    }

    /// A whole-grid soft search for net 0 from `src` to `dst` that may
    /// cross net 7's cells, except `pins`; net 0 owns pins at `own_pins`.
    fn soft_path_with_pins(
        grid: &DetailedGrid,
        field: &CostField,
        src: u32,
        dst: u32,
        pins: &FastSet<u32>,
        own_pins: &FastSet<Point>,
    ) -> Option<Vec<u32>> {
        let mut nets = [false; 10];
        nets[7] = true;
        let soft = Rippable { nets: &nets, pins };
        DialSolver::new(field.span).find_path(
            grid,
            field,
            0,
            own_pins,
            &[src],
            &comps(&[dst]),
            40,
            1 << 20,
            &CancelToken::default(),
            Some(&soft),
        )
    }

    fn soft_path(
        grid: &DetailedGrid,
        field: &CostField,
        src: u32,
        dst: u32,
        pins: &FastSet<u32>,
    ) -> Option<Vec<u32>> {
        soft_path_with_pins(grid, field, src, dst, pins, &FastSet::default())
    }

    fn foreign_cells(grid: &DetailedGrid, path: &[u32]) -> usize {
        path.iter().filter(|&&c| grid.occupant(c).is_some_and(|o| o != 0)).count()
    }

    #[test]
    fn soft_search_takes_any_free_detour_over_one_foreign_cell() {
        let (mut grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let top = grid.height() as Coord - 1;
        // Net 7 walls column 8 on every layer but the top row.
        wall(&mut grid, 8, 0..top, 7);
        let src = grid.node(GridPoint::new(4, 2, Layer::new(0)));
        let dst = grid.node(GridPoint::new(12, 2, Layer::new(0)));
        let detour = soft_path(&grid, &field, src, dst, &FastSet::default()).expect("detour");
        assert_eq!(foreign_cells(&grid, &detour), 0);
        assert!(detour.iter().any(|&c| grid.point(c).y == top), "detour via the top row");
        assert!(detour.len() > 50);
        // Close the gap: now the path crosses exactly one cell of net 7.
        wall(&mut grid, 8, [top], 7);
        let through = soft_path(&grid, &field, src, dst, &FastSet::default()).expect("crossing");
        assert_eq!(foreign_cells(&grid, &through), 1);
    }

    #[test]
    fn soft_search_takes_the_cheapest_path_among_equal_foreign_counts() {
        let (mut grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let rows = 0..grid.height() as Coord;
        // Two full walls: every path crosses both, once each, at best.
        wall(&mut grid, 6, rows.clone(), 7);
        wall(&mut grid, 10, rows, 7);
        let src = grid.node(GridPoint::new(4, 2, Layer::new(0)));
        let dst = grid.node(GridPoint::new(12, 2, Layer::new(0)));
        let path = soft_path(&grid, &field, src, dst, &FastSet::default()).expect("path");
        assert_eq!(foreign_cells(&grid, &path), 2);
        let straight: Vec<u32> = (4..=12)
            .map(|x| grid.node(GridPoint::new(x, 2, Layer::new(0))))
            .collect();
        assert_eq!(path, straight, "the cheapest two-crossing path is the straight run");
    }

    #[test]
    fn pins_and_unrippable_nets_stay_hard_in_soft_search() {
        let (mut grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let rows = 0..grid.height() as Coord;
        let src = grid.node(GridPoint::new(4, 2, Layer::new(0)));
        let dst = grid.node(GridPoint::new(12, 2, Layer::new(0)));
        // A wall of net 9, which is not rippable.
        wall(&mut grid, 8, rows.clone(), 9);
        assert!(soft_path(&grid, &field, src, dst, &FastSet::default()).is_none());
        // The same wall owned by rippable net 7, every cell a pin.
        wall(&mut grid, 8, rows, 7);
        let mut pins: FastSet<u32> = (0..grid.cell_count() as u32)
            .filter(|&c| grid.occupant(c) == Some(7))
            .collect();
        assert!(soft_path(&grid, &field, src, dst, &pins).is_none());
        // One cell that is not a pin is the only way through.
        let door = grid.node(GridPoint::new(8, 20, Layer::new(0)));
        pins.remove(&door);
        let path = soft_path(&grid, &field, src, dst, &pins).expect("through the door");
        assert_eq!(foreign_cells(&grid, &path), 1);
        assert!(path.contains(&door));
    }

    #[test]
    fn stitch_hard_rules_hold_in_soft_search() {
        let (mut grid, plan) = setup();
        let field = field_for(&grid, &plan);
        assert!(plan.is_on_line(15));
        // Net 7 fills the columns beside the line, so every free path
        // below breaks a hard rule on the line.
        let rows = 0..grid.height() as Coord;
        wall(&mut grid, 14, rows.clone(), 7);
        wall(&mut grid, 16, rows, 7);
        let at = |x: Coord, y: Coord, l: u8| grid.node(GridPoint::new(x, y, Layer::new(l)));
        let check = |path: &[u32], own_pins: &FastSet<Point>| {
            for step in path.windows(2) {
                let (a, b) = (grid.point(step[0]), grid.point(step[1]));
                if plan.is_on_line(a.x) {
                    assert_eq!(a.y, b.y, "rode the stitching line at {a:?}");
                    assert!(
                        a.layer == b.layer || own_pins.contains(&a.point()),
                        "via on the stitching line off the net's pins at {a:?}"
                    );
                }
            }
            assert!(foreign_cells(&grid, path) >= 2, "left the line through net 7");
        };
        // Straight up the via stack: vias on the line need a pin there.
        let none = FastSet::default();
        let up = soft_path(&grid, &field, at(15, 2, 0), at(15, 2, 2), &none).expect("up");
        check(&up, &FastSet::default());
        // Pins at both ends allow their vias, never a ride along the line.
        let pins: FastSet<Point> = [Point::new(15, 2), Point::new(15, 20)].into_iter().collect();
        let along = soft_path_with_pins(&grid, &field, at(15, 2, 0), at(15, 20, 0), &none, &pins)
            .expect("along");
        check(&along, &pins);
    }
}

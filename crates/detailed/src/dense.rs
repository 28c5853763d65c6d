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
//! defaults use single-digit weights). The A* bound is read from the
//! same clamped costs: the columns a path must enter to reach a target
//! are priced at their own eq. (10) planar cost (escape regions
//! included), and each row it must cross at the cheapest planar step.
//!
//! The same expansion loop runs a *soft* search for the blocker round:
//! cells a [`Rippable`] admits are passable, and paths are ordered by
//! (foreign cells entered, eq. (10) cost), so the cheapest soft path
//! names a minimal set of blocking cells.
//!
//! A search whose queue runs dry proves only that its window holds no
//! path. [`DialSolver::unreachable`] floods backward from the targets
//! over the whole grid to prove that no window holds one.

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

/// Whether `net`'s search may enter `cell`: a free cell, one of its own,
/// or one a soft search's licence admits.
fn enterable(grid: &DetailedGrid, net: u32, soft: Option<&Rippable>, cell: u32) -> bool {
    grid.passable(cell, net) || soft.is_some_and(|r| r.admits(grid, cell))
}

/// How a [`DialSolver::find_path`] search ended.
pub(crate) enum Search {
    /// A least-cost path: the source cell it grew from, then every cell
    /// it enters, ending at the target it reached.
    Found(Vec<u32>),
    /// No window and no node cap can connect the sources to a target.
    Unreachable,
    /// The queue ran dry after this many pops: no target is reachable
    /// inside the window.
    Dry(usize),
    /// The node cap or the cancel token stopped the search.
    Stopped,
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
    /// Prefix sums of `planar`: `planar_sum[x]` is the cost of entering
    /// every column left of `x` once.
    planar_sum: Vec<u64>,
    /// The cheapest planar step: the A* bound's price per row crossed.
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
        let planar_sum = std::iter::once(0)
            .chain(planar.iter().scan(0u64, |sum, &p| {
                *sum += u64::from(p);
                Some(*sum)
            }))
            .collect();
        Self {
            on_line,
            planar,
            via,
            planar_sum,
            // The clamp is monotone, so h_unit <= every planar step.
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
///
/// The backward flood of [`DialSolver::unreachable`] takes an epoch of
/// its own and keeps its frontier in `stack`.
pub(crate) struct DialSolver {
    cells: Vec<u64>,
    soft_dist: Vec<u64>,
    epoch: u32,
    queue: BucketQueue<u64>,
    stack: Vec<u32>,
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
            stack: Vec::new(),
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
    /// The found path includes the source cell it grew from and ends at
    /// the reached target. `sources` must be sorted for deterministic
    /// tie-breaking.
    ///
    /// Two failures are final, [`Search::Unreachable`], whatever the
    /// window or the cap. The search enters a target like any other
    /// cell, so if it may enter no target cell it returns before it
    /// expands anything. And a queue that runs dry after at most
    /// `margin` pops never reached the window's edge: every cell it
    /// popped lies fewer than `margin` moves from a source, so every
    /// planar neighbour lies inside the window or off the grid.
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
    ) -> Search {
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
    ) -> Search {
        if sources.is_empty() {
            return Search::Unreachable;
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
        // of consistent lower bounds) while being far tighter than the
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
        let mut any_enterable = false;
        for comp in target_comps {
            if comp.is_empty() {
                continue;
            }
            let slot = nboxes.min(MAX_H_BOXES - 1);
            for &t in comp {
                // `begin` bumped the epoch, so every word is stale here
                // and a plain store marks the target.
                self.cells[t as usize] = tag | TARGET;
                any_enterable = any_enterable || enterable(grid, net, soft, t);
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
        if !any_enterable {
            return Search::Unreachable;
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

        // Per target-component bounding box: the eq. (10) cost of the
        // columns a path must enter to reach the box's x-range, plus
        // `h_unit` per row to its y-range; `h` is the least over the
        // boxes. Admissible, because those column entries and row
        // crossings are distinct steps of any path to the box. And
        // consistent: an x-move toward the box lowers the bound by
        // exactly the cost of the column it enters, a y-move changes it
        // by at most `h_unit` (no more than its cost), and a via leaves
        // it unchanged. A minimum over boxes keeps all three, so the
        // first pop of a cell is final. A move raises the bound by at
        // most one planar step, so a key grows by at most twice the
        // largest step: the bucket ring's span. With stitch costs off
        // every column costs `h_unit` and this is the Manhattan bound.
        //
        // `h` reads a cell as the summed column cost through its column
        // and before it (`planar_sum[x + 1]` and `planar_sum[x]`) and its
        // row times `h_unit`; a box is kept the same way, as the cost
        // through its first column, the cost before its last, and its
        // rows times `h_unit`. Left of the box, `first - through` prices
        // the columns `x+1..=x0`; right of it, `before - last` prices
        // `x1..x`; every other difference is at most zero and saturates.
        let sums = &field.planar_sum;
        let unit = field.h_unit;
        let mut hboxes = [(0u64, 0u64, 0u64, 0u64); MAX_H_BOXES];
        for (hb, b) in hboxes.iter_mut().zip(&boxes[..nboxes]) {
            let (x0, x1) = (b.0 as usize, b.2 as usize);
            *hb = (
                sums[x0 + 1],
                u64::from(b.1) * unit,
                sums[x1],
                u64::from(b.3) * unit,
            );
        }
        let hboxes = &hboxes[..nboxes];
        let h = |through: u64, before: u64, yh: u64| -> u64 {
            let mut best = u64::MAX;
            for &(first, y0h, last, y1h) in hboxes {
                let dx = first.saturating_sub(through) + before.saturating_sub(last);
                let dy = y0h.saturating_sub(yh).max(yh.saturating_sub(y1h));
                best = best.min(dx + dy);
                if best == 0 {
                    break;
                }
            }
            best
        };
        let at = |x: u32, y: u32| -> (u64, u64, u64) {
            (sums[x as usize + 1], sums[x as usize], u64::from(y) * unit)
        };

        for &s in sources {
            // Components are disjoint, so a source is never a target.
            self.cells[s as usize] = tag | (DIR_SOURCE << DIR_SHIFT) | DISCOVERED;
            if SOFT {
                self.soft_dist[s as usize] = 0;
            }
            let (x, y, l) = local(s);
            let (through, before, yh) = at(x, y);
            self.queue.push(h(through, before, yh), pack(x, y, l));
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
                return Search::Found(self.reconstruct(u, w, wh));
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
                return Search::Stopped;
            }
            // Charge the run budget and honour cancellation mid-search:
            // a stopped search rips the net up like any failed
            // connection, so aborting never leaves partial geometry.
            if cancel.charge_expansions(1) {
                return Search::Stopped;
            }

            let lx = x as usize;
            let src_on_line = field.on_line[lx];
            // Via moves keep (x, y), so both share this pop's h value.
            // A planar move's inputs follow from this cell's and the
            // step: an x-move shifts the column sums by the cost of the
            // column it enters, a y-move the row by one `h_unit`.
            let (through, before, yh) = at(x, y);
            let hxy = h(through, before, yh);
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
                let step = u64::from(step);
                let hq = match dir {
                    0 => h(before, before - step, yh),
                    1 => h(through + step, through, yh),
                    2 => h(through, before, yh - unit),
                    3 => h(through, before, yh + unit),
                    _ => hxy,
                };
                self.queue.push(nd.saturating_add(hq), q);
            }
        }
        if usize::try_from(margin).is_ok_and(|m| expanded <= m) {
            Search::Unreachable
        } else {
            Search::Dry(expanded)
        }
    }

    /// Whether no window and no node cap can connect `sources` to
    /// `target_comps`: floods backward over the whole grid from the
    /// target cells `net`'s search may enter, and answers `true` if the
    /// flood runs dry without touching a source.
    ///
    /// The flood follows the search's move rules and passability. Moves
    /// are symmetric: an x-move is legal in both directions, a via or a
    /// y-move keeps its column, and the stitch rules read only the
    /// column and the net's own pin positions. Passability belongs to
    /// the cell entered. So the flood reaches exactly the cells from
    /// which a search can reach a target. A source counts when the flood
    /// touches it, enterable or not: the search starts on its sources
    /// and never enters them.
    ///
    /// Every pop is charged to `cancel` like a search's. The flood gives
    /// up, answering `false`, after `limit` pops or when `cancel` stops
    /// it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn unreachable(
        &mut self,
        grid: &DetailedGrid,
        field: &CostField,
        net: u32,
        own_pins: &FastSet<Point>,
        sources: &[u32],
        target_comps: &[FastSet<u32>],
        soft: Option<&Rippable>,
        limit: usize,
        cancel: &CancelToken,
    ) -> bool {
        let w = grid.width();
        let rows = grid.height();
        let wh = w * rows;
        let layers = u32::from(grid.layers());
        let (ox, oy) = (grid.outline().x0(), grid.outline().y0());
        self.begin(grid.cell_count());
        let tag = u64::from(self.epoch) << TAG_SHIFT;
        // The flood's goals are the search's sources: `TARGET` marks
        // them, `DISCOVERED` every cell the flood has queued.
        for &s in sources {
            self.cells[s as usize] = tag | TARGET;
        }
        self.stack.clear();
        for &t in target_comps.iter().flatten() {
            if enterable(grid, net, soft, t) {
                self.cells[t as usize] = tag | DISCOVERED;
                self.stack.push(t);
            }
        }
        let mut pops = 0usize;
        while let Some(v) = self.stack.pop() {
            pops += 1;
            if pops > limit || cancel.charge_expansions(1) {
                return false;
            }
            let (x, rest) = (v % w, v / w);
            let (y, l) = (rest % rows, rest / rows);
            let on_line = field.on_line[x as usize];
            let mut cand = [0u32; 4];
            let mut nc = 0usize;
            if !on_line || own_pins.contains(&Point::new(ox + x as Coord, oy + y as Coord)) {
                if l > 0 {
                    cand[nc] = v - wh;
                    nc += 1;
                }
                if l + 1 < layers {
                    cand[nc] = v + wh;
                    nc += 1;
                }
            }
            if l.is_multiple_of(2) {
                if x > 0 {
                    cand[nc] = v - 1;
                    nc += 1;
                }
                if x + 1 < w {
                    cand[nc] = v + 1;
                    nc += 1;
                }
            } else if !on_line {
                if y > 0 {
                    cand[nc] = v - w;
                    nc += 1;
                }
                if y + 1 < rows {
                    cand[nc] = v + w;
                    nc += 1;
                }
            }
            for &u in &cand[..nc] {
                let cu = self.cells[u as usize];
                if cu & TAG_MASK == tag {
                    if cu & TARGET != 0 {
                        return false;
                    }
                } else if enterable(grid, net, soft, u) {
                    self.cells[u as usize] = tag | DISCOVERED;
                    self.stack.push(u);
                }
            }
        }
        true
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
    use mebl_testkit::{Rng, SplitMix64};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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

    impl Search {
        /// The path a search found, if it found one.
        fn path(self) -> Option<Vec<u32>> {
            match self {
                Search::Found(path) => Some(path),
                Search::Unreachable | Search::Dry(_) | Search::Stopped => None,
            }
        }
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
            .path()
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
            .path()
            .expect("first path");
        // Occupy a cell of the first path for a foreign net: the second
        // search (same solver, new epoch) must route around it.
        grid.occupy(first[3], 9);
        let second = solver
            .find_path(&grid, &field, 0, &FastSet::default(), &[a], &comps(&[b]), 18, 60_000, &CancelToken::default(), None)
            .path()
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
        assert!(matches!(found, Search::Stopped));
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
        assert!(
            matches!(narrow, Search::Dry(_)),
            "wall spans the entire zero-margin window"
        );
    }

    #[test]
    fn the_flood_proves_only_what_no_window_reaches() {
        let (mut grid, plan) = setup();
        let field = field_for(&grid, &plan);
        let mut solver = DialSolver::new(field.span);
        let none = FastSet::default();
        let src = grid.node(GridPoint::new(4, 2, Layer::new(0)));
        let dst = grid.node(GridPoint::new(12, 2, Layer::new(0)));
        let targets = comps(&[dst]);
        let search = |solver: &mut DialSolver, grid: &DetailedGrid, margin, cancel| {
            solver.find_path(
                grid,
                &field,
                0,
                &none,
                &[src],
                &targets,
                margin,
                usize::MAX,
                cancel,
                None,
            )
        };
        let flood = |solver: &mut DialSolver, grid: &DetailedGrid, limit, cancel| {
            solver.unreachable(
                grid,
                &field,
                0,
                &none,
                &[src],
                &targets,
                None,
                limit,
                cancel,
            )
        };
        let inert = CancelToken::default();
        // Net 7 walls column 8 on every layer but the top row: the
        // narrow window runs dry, a wider one finds the detour.
        let top = grid.height() as Coord - 1;
        wall(&mut grid, 8, 0..top, 7);
        assert!(matches!(
            search(&mut solver, &grid, 2, &inert),
            Search::Dry(_)
        ));
        assert!(!flood(&mut solver, &grid, usize::MAX, &inert));
        assert!(matches!(
            search(&mut solver, &grid, 40, &inert),
            Search::Found(_)
        ));
        // Closing the gap leaves no window a path: the flood proves it,
        // unless it is stopped first, and it charges every pop.
        wall(&mut grid, 8, [top], 7);
        assert!(flood(&mut solver, &grid, usize::MAX, &inert));
        let counter = CancelToken::armed(None, None);
        assert!(!flood(&mut solver, &grid, 5, &counter));
        assert_eq!(counter.expansions(), 5);
        let capped = CancelToken::armed(Some(3), None);
        assert!(!flood(&mut solver, &grid, usize::MAX, &capped));
        assert!(capped.is_cancelled());
        // A target another net owns is never entered: the search ends
        // before it expands a cell, and the flood, seeded from no cell,
        // proves it at once.
        grid.occupy(dst, 7);
        let counter = CancelToken::armed(None, None);
        assert!(matches!(
            search(&mut solver, &grid, 40, &counter),
            Search::Unreachable
        ));
        assert!(flood(&mut solver, &grid, 0, &counter));
        assert_eq!(counter.expansions(), 0);
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
        DialSolver::new(field.span)
            .find_path(
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
            .path()
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

    /// The eq. (10) weights of one optimality-oracle case.
    #[derive(Debug)]
    struct Weights {
        alpha: u64,
        beta: u64,
        gamma: u64,
        via_cost: u64,
        stitch_costs: bool,
    }

    impl Weights {
        /// Legal moves out of `p` with their eq. (10) step costs, read
        /// from the plan's region queries: x-moves on even layers,
        /// y-moves on odd layers off the stitching lines, and vias off
        /// the lines or at the net's own pins on them.
        fn moves(
            &self,
            grid: &DetailedGrid,
            plan: &StitchPlan,
            own_pins: &FastSet<Point>,
            p: GridPoint,
        ) -> Vec<(GridPoint, u64)> {
            let inside = |x: Coord, y: Coord| grid.outline().contains(Point::new(x, y));
            let planar = |x: Coord| {
                let escape = self.stitch_costs && plan.in_escape_region(x);
                self.alpha + if escape { self.gamma } else { 0 }
            };
            let on_line = plan.is_on_line(p.x);
            let mut out = Vec::new();
            if p.layer.index().is_multiple_of(2) {
                for x in [p.x - 1, p.x + 1] {
                    if inside(x, p.y) {
                        out.push((GridPoint::new(x, p.y, p.layer), planar(x)));
                    }
                }
            } else if !on_line {
                for y in [p.y - 1, p.y + 1] {
                    if inside(p.x, y) {
                        out.push((GridPoint::new(p.x, y, p.layer), planar(p.x)));
                    }
                }
            }
            if !on_line || own_pins.contains(&p.point()) {
                let unfriendly = self.stitch_costs && plan.in_unfriendly_region(p.x);
                let via = self.alpha * self.via_cost + if unfriendly { self.beta } else { 0 };
                let l = p.layer.index();
                for nl in [l.wrapping_sub(1), l + 1] {
                    if nl < grid.layers() {
                        out.push((GridPoint::new(p.x, p.y, Layer::new(nl)), via));
                    }
                }
            }
            out
        }
    }

    /// A soft search's licence, restated for the oracle: `nets[o]`
    /// flags the nets whose cells may be entered, except `pins`.
    struct Licence<'a> {
        nets: &'a [bool],
        pins: &'a FastSet<u32>,
    }

    /// Whether `net`'s search may enter `v`, and whether that enters a
    /// foreign cell.
    fn entry(grid: &DetailedGrid, net: u32, v: u32, soft: Option<&Licence>) -> Option<bool> {
        match grid.occupant(v) {
            None => Some(false),
            Some(o) if o == net => Some(false),
            Some(o) => soft
                .is_some_and(|l| l.nets[o as usize] && !l.pins.contains(&v))
                .then_some(true),
        }
    }

    /// Plain Dijkstra over the whole grid, keyed by (foreign cells
    /// entered, eq. (10) cost): the least key at which any target is
    /// reached, or `None` if none is. Without a licence no foreign
    /// cell is passable and the first part stays zero.
    #[allow(clippy::too_many_arguments)]
    fn oracle(
        weights: &Weights,
        grid: &DetailedGrid,
        plan: &StitchPlan,
        net: u32,
        own_pins: &FastSet<Point>,
        sources: &[u32],
        targets: &FastSet<u32>,
        soft: Option<&Licence>,
    ) -> Option<(u64, u64)> {
        let mut dist = vec![(u64::MAX, u64::MAX); grid.cell_count()];
        let mut heap = BinaryHeap::new();
        for &s in sources {
            dist[s as usize] = (0, 0);
            heap.push(Reverse(((0, 0), s)));
        }
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if targets.contains(&u) {
                return Some(d);
            }
            for (q, step) in weights.moves(grid, plan, own_pins, grid.point(u)) {
                let v = grid.node(q);
                let Some(foreign) = entry(grid, net, v, soft) else {
                    continue;
                };
                let nd = (d.0 + u64::from(foreign), d.1 + step);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        None
    }

    /// The (foreign cells entered, eq. (10) cost) of `path`, checking
    /// that it runs from a source to a target by legal moves into cells
    /// the search may enter.
    #[allow(clippy::too_many_arguments)]
    fn path_key(
        weights: &Weights,
        grid: &DetailedGrid,
        plan: &StitchPlan,
        net: u32,
        own_pins: &FastSet<Point>,
        sources: &[u32],
        targets: &FastSet<u32>,
        soft: Option<&Licence>,
        path: &[u32],
    ) -> (u64, u64) {
        assert!(sources.contains(&path[0]), "path starts off the sources");
        assert!(
            targets.contains(&path[path.len() - 1]),
            "path ends off the targets"
        );
        let mut key = (0, 0);
        for step in path.windows(2) {
            let (a, b) = (grid.point(step[0]), grid.point(step[1]));
            let cost = weights
                .moves(grid, plan, own_pins, a)
                .into_iter()
                .find_map(|(q, c)| (q == b).then_some(c))
                .unwrap_or_else(|| panic!("illegal move {a:?} -> {b:?}"));
            let foreign = entry(grid, net, step[1], soft)
                .unwrap_or_else(|| panic!("entered a blocked cell at {b:?}"));
            key = (key.0 + u64::from(foreign), key.1 + cost);
        }
        key
    }

    /// Optimality oracle: on seeded random small grids (2–4 layers,
    /// random stitch geometry and weights, stitch costs on and off, up
    /// to 35% foreign cells, several target components, random own
    /// pins), a whole-grid uncapped search finds a path exactly when
    /// plain Dijkstra reaches a target, and its path costs the least.
    /// A soft search must match the oracle's (foreign cells, cost)
    /// optimum the same way. This is what makes the A* bound safe to
    /// tighten: an inadmissible or inconsistent bound returns a dearer
    /// path.
    ///
    /// An unlimited backward flood must prove a case unreachable
    /// exactly when Dijkstra reaches no target, and a search with a
    /// margin of 0 to 4 may call its failure final only when Dijkstra
    /// reaches no target either. One case in three hands
    /// a source cell, and one in three a target cell, to another net,
    /// as a pin cell two nets share is: the search still starts on such
    /// a source, and enters such a target only if a soft licence
    /// admits it.
    #[test]
    fn searches_return_least_cost_paths() {
        const CASES: usize = 3000;
        let mut rng = SplitMix64::from_seed(0x00d1_a1e5);
        // A stream of its own keeps the other draws of every case as
        // they were before the shared cells were added.
        let mut shared_rng = SplitMix64::from_seed(0x05ba_2ed0);
        let (mut hard_found, mut soft_found) = (0, 0);
        // Flood proofs, those with a shared source or target, and final
        // failures of windowed searches.
        let (mut proofs, mut shared_proofs, mut narrow_proofs) = (0, 0, 0);
        for case in 0..CASES {
            let width = rng.gen_range(4..=28);
            let height = rng.gen_range(2..=10);
            let (x0, y0) = (rng.gen_range(-16..=16), rng.gen_range(-4..=4));
            let outline = Rect::new(x0, y0, x0 + width - 1, y0 + height - 1);
            let epsilon = rng.gen_range(0..=2);
            let stitch = StitchConfig {
                period: rng.gen_range(2..=12),
                epsilon,
                escape_width: rng.gen_range(epsilon..=epsilon + 4),
            };
            let plan = StitchPlan::new(outline, stitch);
            let weights = Weights {
                alpha: rng.gen_range(0..=4),
                beta: rng.gen_range(0..=12),
                gamma: rng.gen_range(0..=8),
                via_cost: rng.gen_range(0..=4),
                stitch_costs: rng.gen_bool(0.5),
            };
            let mut grid = DetailedGrid::new(outline, rng.gen_range(2u8..=4));
            let cells = grid.cell_count() as u32;
            let density = rng.gen_f64() * 0.35;
            for c in 0..cells {
                if rng.gen_bool(density) {
                    grid.occupy(c, rng.gen_range(1..=3));
                }
            }
            // Distinct cells for the sources and every target component,
            // all owned by net 0; one case in ten has enough components
            // to fold the last bounding boxes into one.
            let mut taken = FastSet::default();
            let mut pick = |rng: &mut SplitMix64| loop {
                let c = rng.gen_range(0..cells);
                if taken.insert(c) {
                    return c;
                }
            };
            let mut sources: Vec<u32> = (0..rng.gen_range(1..=3)).map(|_| pick(&mut rng)).collect();
            sources.sort_unstable();
            let ncomps = if rng.gen_bool(0.1) {
                9
            } else {
                rng.gen_range(1..=3)
            };
            let comps: Vec<FastSet<u32>> = (0..ncomps)
                .map(|_| (0..rng.gen_range(1..=2)).map(|_| pick(&mut rng)).collect())
                .collect();
            let targets: FastSet<u32> = comps.iter().flatten().copied().collect();
            for &c in sources.iter().chain(&targets) {
                grid.occupy(c, 0);
            }
            let mut own_pins: FastSet<Point> = sources
                .iter()
                .chain(&targets)
                .filter(|_| rng.gen_bool(0.5))
                .map(|&c| grid.point(c).point())
                .collect();
            for _ in 0..rng.gen_range(0..=3) {
                let c = rng.gen_range(0..cells);
                own_pins.insert(grid.point(c).point());
            }
            let field = CostField::build(
                &grid,
                &plan,
                weights.alpha,
                weights.beta,
                weights.gamma,
                weights.via_cost,
                weights.stitch_costs,
            );
            let nets = [
                false,
                rng.gen_bool(0.7),
                rng.gen_bool(0.7),
                rng.gen_bool(0.7),
            ];
            let mut pins: FastSet<u32> = (0..cells)
                .filter(|&c| grid.occupant(c).is_some_and(|o| o != 0) && rng.gen_bool(0.2))
                .collect();
            let shared = match shared_rng.gen_index(3) {
                0 => None,
                1 => Some(sources[shared_rng.gen_index(sources.len())]),
                _ => comps[shared_rng.gen_index(comps.len())]
                    .iter()
                    .min()
                    .copied(),
            };
            if let Some(cell) = shared {
                grid.occupy(cell, shared_rng.gen_range(1..=3));
                if shared_rng.gen_bool(0.5) {
                    pins.insert(cell);
                }
            }
            let licence = Licence {
                nets: &nets,
                pins: &pins,
            };
            let rippable = Rippable {
                nets: &nets,
                pins: &pins,
            };
            let what = format!("case {case}: {stitch:?} {weights:?} {outline:?}");
            for (soft, licence) in [(None, None), (Some(&rippable), Some(&licence))] {
                let mut solver = DialSolver::new(field.span);
                let path = solver
                    .find_path(
                        &grid,
                        &field,
                        0,
                        &own_pins,
                        &sources,
                        &comps,
                        Coord::MAX,
                        usize::MAX,
                        &CancelToken::default(),
                        soft,
                    )
                    .path();
                let best = oracle(
                    &weights, &grid, &plan, 0, &own_pins, &sources, &targets, licence,
                );
                assert_eq!(
                    path.is_some(),
                    best.is_some(),
                    "reachability differs (soft: {}), {what}",
                    soft.is_some()
                );
                // A narrow window may miss a path, but a failure it calls
                // final must be one.
                let margin = shared_rng.gen_range(0..=4);
                match solver.find_path(
                    &grid,
                    &field,
                    0,
                    &own_pins,
                    &sources,
                    &comps,
                    margin,
                    usize::MAX,
                    &CancelToken::default(),
                    soft,
                ) {
                    Search::Found(_) => {
                        assert!(best.is_some(), "found an unreachable target, {what}")
                    }
                    Search::Unreachable => {
                        assert!(
                            best.is_none(),
                            "margin {margin} called a reachable target final, {what}"
                        );
                        narrow_proofs += 1;
                    }
                    Search::Dry(_) | Search::Stopped => {}
                }
                let proof = solver.unreachable(
                    &grid,
                    &field,
                    0,
                    &own_pins,
                    &sources,
                    &comps,
                    soft,
                    usize::MAX,
                    &CancelToken::default(),
                );
                assert_eq!(
                    proof,
                    best.is_none(),
                    "the flood disagrees with Dijkstra (soft: {}, shared: {shared:?}), {what}",
                    soft.is_some()
                );
                proofs += usize::from(proof);
                shared_proofs += usize::from(proof && shared.is_some());
                if let (Some(path), Some(best)) = (path, best) {
                    let key = path_key(
                        &weights, &grid, &plan, 0, &own_pins, &sources, &targets, licence, &path,
                    );
                    assert_eq!(
                        key,
                        best,
                        "not a least-cost path (soft: {}), {what}",
                        soft.is_some()
                    );
                    if soft.is_some() {
                        soft_found += 1;
                    } else {
                        hard_found += 1;
                    }
                }
            }
        }
        // Enough cases reach a target, and enough do not, for the
        // comparisons to bite.
        assert!(hard_found > CASES / 4, "only {hard_found} hard paths");
        assert!(soft_found > hard_found, "only {soft_found} soft paths");
        assert!(proofs > CASES / 8, "only {proofs} flood proofs");
        assert!(
            shared_proofs > CASES / 10,
            "only {shared_proofs} shared-cell proofs"
        );
        assert!(
            narrow_proofs > CASES / 16,
            "only {narrow_proofs} final windowed failures"
        );
    }
}

//! Detailed routing: seeding, ordering, dense-grid search, pruning.

use crate::dense::{CostField, DialSolver, Rippable, Search};
use crate::{realize_seeds, DetailedGrid};
use mebl_assign::TrackResult;
use mebl_control::{CancelToken, Degradation, DegradationKind, Stage};
use mebl_geom::{Coord, GridPoint, Point, RouteGeometry, Segment, Via};
use mebl_global::TileGraph;
use mebl_netlist::Circuit;
use mebl_graph::{FastMap, FastSet, UnionFind};
use mebl_par::Pool;
use mebl_stitch::StitchPlan;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;

/// Configuration of stitch-aware detailed routing.
///
/// Paper defaults: α = 1, β = 10, γ = 5 (§IV-A), with β ≫ γ so vias avoid
/// stitch unfriendly regions far more strongly than paths avoid escape
/// regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetailedConfig {
    /// Wirelength weight α of eq. (10).
    pub alpha: u64,
    /// Via-in-stitch-unfriendly-region weight β.
    pub beta: u64,
    /// Escape-region weight γ.
    pub gamma: u64,
    /// Cost of a z-move in α units (a via is dearer than a track step).
    pub via_cost: u64,
    /// Apply the stitch-aware weighted costs (β, γ). Hard constraints stay
    /// enforced either way, as in the paper's baseline.
    pub stitch_costs: bool,
    /// Use stitch-aware net ordering (more bad ends first).
    pub stitch_order: bool,
    /// Search-window margin around each connection's bounding box.
    pub margin: Coord,
    /// Node-expansion cap per search.
    pub node_cap: usize,
    /// Window-growth retries before a connection is declared failed.
    pub retries: usize,
    /// Cooperative cancellation/budget handle. Inert by default; when
    /// armed, searches abort mid-expansion (the aborted net is ripped
    /// up like any failed net) and remaining nets/rip-up rounds are
    /// skipped, keeping partial geometry audit-clean.
    pub cancel: CancelToken,
    /// Ignored by the detailed stage, which routes its nets one at a
    /// time in net order at every pool width (DESIGN.md §9).
    pub pool: Pool,
}

impl Default for DetailedConfig {
    fn default() -> Self {
        Self {
            alpha: 1,
            beta: 10,
            gamma: 5,
            via_cost: 2,
            stitch_costs: true,
            stitch_order: true,
            margin: 8,
            node_cap: 60_000,
            retries: 3,
            cancel: CancelToken::default(),
            pool: Pool::serial(),
        }
    }
}

impl DetailedConfig {
    /// The Table VIII baseline: no stitch-aware costs or ordering.
    pub fn without_stitch_consideration() -> Self {
        Self {
            stitch_costs: false,
            stitch_order: false,
            ..Self::default()
        }
    }
}

/// Sentinel occupant for blockage cells. The stored raw occupancy is
/// `BLOCKAGE_NET + 1 == u32::MAX`, far above any real net index, so
/// blockage cells are impassable to every net and are never freed by
/// rip-up (which always names a concrete net).
pub const BLOCKAGE_NET: u32 = u32::MAX - 1;

/// Marks every cell covered by the circuit's blockages, on all layers,
/// as owned by [`BLOCKAGE_NET`]. Runs before pins are placed, so a pin
/// inside a blockage (already a validation error upstream) still ends up
/// owned by its net rather than silently walling the net in.
fn occupy_blockages(grid: &mut DetailedGrid, circuit: &Circuit) {
    for b in circuit.blockages() {
        for l in 0..grid.layers() {
            let layer = mebl_geom::Layer::new(l);
            for y in b.y0()..=b.y1() {
                for x in b.x0()..=b.x1() {
                    let node = grid.node(GridPoint::new(x, y, layer));
                    grid.occupy(node, BLOCKAGE_NET);
                }
            }
        }
    }
}

/// Occupies every pin cell with its net and returns each net's pin
/// nodes, in pin order. A pin cell shared by two nets ends up owned by
/// the later one.
fn occupy_pins(grid: &mut DetailedGrid, circuit: &Circuit) -> Vec<Vec<u32>> {
    let mut pin_cells: Vec<Vec<u32>> = vec![Vec::new(); circuit.net_count()];
    for (id, net) in circuit.iter_nets() {
        for pin in net.pins() {
            let node = grid.node(pin.position.on_layer(pin.layer));
            grid.occupy(node, id.0);
            pin_cells[id.0 as usize].push(node);
        }
    }
    pin_cells
}

/// Positions of a net's pin cells: the only points where the net may
/// drop a via on a stitching line. Built per routed net, never for the
/// whole circuit at once.
fn pin_points(grid: &DetailedGrid, pin_cells: &[u32]) -> FastSet<Point> {
    pin_cells.iter().map(|&c| grid.point(c).point()).collect()
}

/// Outcome of detailed routing.
#[derive(Debug, Clone)]
pub struct DetailedResult {
    /// Final geometry per net (empty for failed nets).
    pub geometry: Vec<RouteGeometry>,
    /// Whether each net was fully connected.
    pub routed: Vec<bool>,
    /// Number of routed nets.
    pub routed_count: usize,
}

impl DetailedResult {
    /// `n` nets, none routed.
    fn unrouted(n: usize) -> Self {
        Self {
            geometry: vec![RouteGeometry::new(); n],
            routed: vec![false; n],
            routed_count: 0,
        }
    }

    /// Publishes `net` as routed with `geometry`.
    fn publish(&mut self, net: usize, geometry: RouteGeometry) {
        self.geometry[net] = geometry;
        self.routed[net] = true;
        self.routed_count += 1;
    }
}

/// Grid points a net's geometry covers: every segment point and both
/// ends of every via. A routed net owns exactly these cells plus its
/// pins, since geometry extraction draws every cell the net keeps.
fn geometry_points(geometry: &RouteGeometry) -> impl Iterator<Item = GridPoint> + '_ {
    let wires = geometry.segments().iter().flat_map(Segment::points);
    let vias = geometry.vias().iter().flat_map(|via| {
        [via.lower, via.upper()].map(|layer| GridPoint::new(via.x, via.y, layer))
    });
    wires.chain(vias)
}

/// What an entry point hands the shared driver: the grid with
/// blockages, preserved geometry, pins and seeds occupied; each net's
/// pin cells and seed runs (empty for a seedless route); the nets to
/// route, in pass-0 order; and the result, holding what is preserved.
struct RoutingState {
    grid: DetailedGrid,
    pin_cells: Vec<Vec<u32>>,
    seeds: Vec<Vec<Vec<u32>>>,
    targets: Vec<usize>,
    result: DetailedResult,
}

/// Routes all nets on the detailed grid.
///
/// Seeds from `tracks` are pre-placed (nets in `tracks.failed_nets` get no
/// seeds and are routed directly pin-to-pin); nets are ordered by bad-end
/// count when [`DetailedConfig::stitch_order`] is set; each net's
/// components are then joined by stitch-aware shortest paths and its final
/// cell set is pruned of dangling stubs before geometry extraction.
///
/// The per-column cost layers are built once per run and shared by every
/// search, and the run keeps one reusable [`DialSolver`] for all its
/// nets, so routing a net costs an epoch bump, not an allocation storm.
pub fn route_detailed(
    circuit: &Circuit,
    plan: &StitchPlan,
    graph: &TileGraph,
    tracks: &TrackResult,
    config: &DetailedConfig,
) -> DetailedResult {
    let mut state = scratch_state(circuit, plan, graph, tracks, config);
    route_targets(circuit, plan, config, &mut state);
    state.result
}

/// Grid state of a from-scratch route: every net is a target.
fn scratch_state(
    circuit: &Circuit,
    plan: &StitchPlan,
    graph: &TileGraph,
    tracks: &TrackResult,
    config: &DetailedConfig,
) -> RoutingState {
    let n = circuit.net_count();
    let mut grid = DetailedGrid::new(circuit.outline(), circuit.layer_count());
    occupy_blockages(&mut grid, circuit);

    // Fixed pins block their cells for everyone else, and allow the
    // pin-owning net to drop vias on stitching lines.
    let pin_cells = occupy_pins(&mut grid, circuit);

    // Place seeds; runs interrupted by foreign pins split into sub-runs.
    let mut seeds: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
    for seg in &tracks.segments {
        if tracks.failed_nets.contains(&seg.net) {
            continue;
        }
        for run in realize_seeds(seg, graph) {
            let mut current: Vec<u32> = Vec::new();
            for cell in run {
                let node = grid.node(cell);
                if grid.passable(node, seg.net as u32) {
                    grid.occupy(node, seg.net as u32);
                    current.push(node);
                } else if !current.is_empty() {
                    seeds[seg.net].push(std::mem::take(&mut current));
                }
            }
            if !current.is_empty() {
                seeds[seg.net].push(current);
            }
        }
    }

    // Net ordering: more bad ends first (stitch-aware), then shorter nets.
    let mut bad_ends = vec![0usize; n];
    for seg in &tracks.segments {
        if seg.horizontal || tracks.failed_nets.contains(&seg.net) {
            continue;
        }
        bad_ends[seg.net] += usize::from(seg.end_is_bad(plan, false))
            + usize::from(seg.end_is_bad(plan, true));
    }
    let mut targets: Vec<usize> = (0..n).collect();
    if config.stitch_order {
        targets.sort_by_key(|&i| (Reverse(bad_ends[i]), circuit.nets()[i].hpwl(), i));
    } else {
        targets.sort_by_key(|&i| (circuit.nets()[i].hpwl(), i));
    }

    RoutingState {
        grid,
        pin_cells,
        seeds,
        targets,
        result: DetailedResult::unrouted(n),
    }
}

/// Incrementally routes only the nets whose `preserved` entry is `None`,
/// reconstructing grid occupancy from every preserved net's geometry.
///
/// `preserved[i] = Some((routed, geometry))` keeps net `i` exactly as the
/// prior outcome left it — including a preserved *failure*, which is not
/// retried; `None` marks net `i` as a target for (re-)routing. Preserved
/// occupancy is rebuilt from segment points and via endpoints plus every
/// net's pins, which is exactly the state the prior detailed run left
/// behind (geometry extraction draws every cell a routed net keeps), so
/// ripping up the target nets is an exact-inverse undo.
///
/// Target nets route seedless (pin-to-pin, like rip-up rounds), smallest
/// first, through the same driver as [`route_detailed`] — except rip-up
/// victims are restricted to target nets. Every cell a preserved net
/// owns stays hard even for the blocker round's soft search, so a delta
/// run never disturbs what it promised to keep. Each preserved geometry
/// moves into the result unchanged.
///
/// # Panics
///
/// Panics if `preserved.len() != circuit.net_count()`.
pub fn route_incremental(
    circuit: &Circuit,
    plan: &StitchPlan,
    config: &DetailedConfig,
    preserved: Vec<Option<(bool, RouteGeometry)>>,
) -> DetailedResult {
    let n = circuit.net_count();
    assert!(
        preserved.len() == n,
        "preserved state must cover every net"
    );
    let mut grid = DetailedGrid::new(circuit.outline(), circuit.layer_count());
    occupy_blockages(&mut grid, circuit);

    let mut result = DetailedResult::unrouted(n);
    let mut targets: Vec<usize> = (0..n).filter(|&i| preserved[i].is_none()).collect();
    targets.sort_by_key(|&i| (circuit.nets()[i].hpwl(), i));

    // Re-occupy preserved geometry first, then pins: a pin cell always
    // ends up owned by the pin's net, matching [`route_detailed`].
    for (i, kept) in preserved.into_iter().enumerate() {
        let Some((routed, geometry)) = kept else {
            continue;
        };
        for gp in geometry_points(&geometry) {
            grid.occupy(grid.node(gp), i as u32);
        }
        result.geometry[i] = geometry;
        result.routed[i] = routed;
        result.routed_count += usize::from(routed);
    }
    let pin_cells = occupy_pins(&mut grid, circuit);

    let mut state = RoutingState {
        grid,
        pin_cells,
        seeds: Vec::new(),
        targets,
        result,
    };
    route_targets(circuit, plan, config, &mut state);
    state.result
}

/// The routing driver both entry points share: pass 0 over the targets,
/// one relaxed rip-up/reroute round, the blocker round and the
/// exhaustion records. Only target nets are routed, retried or ripped.
fn route_targets(
    circuit: &Circuit,
    plan: &StitchPlan,
    config: &DetailedConfig,
    state: &mut RoutingState,
) {
    let field = CostField::build(
        &state.grid,
        plan,
        config.alpha,
        config.beta,
        config.gamma,
        config.via_cost,
        config.stitch_costs,
    );
    let mut solver = DialSolver::new(field.span);
    let RoutingState {
        grid,
        pin_cells,
        seeds,
        targets,
        result,
    } = state;
    let targets: &[usize] = targets;
    let failed = |result: &DetailedResult| -> Vec<usize> {
        targets.iter().copied().filter(|&i| !result.routed[i]).collect()
    };

    route_pass(&field, config, targets, grid, &mut solver, pin_cells, seeds, result);

    // Failed-net rip-up/reroute — the second bottom-up pass of the
    // framework (Fig. 6): all failed nets' resources are free now, so
    // they route seedless, smallest first, with a widened window and a
    // raised expansion budget.
    let mut retry = failed(result);
    if !retry.is_empty() {
        if config.cancel.is_cancelled_now() {
            config.cancel.record(Degradation::new(
                Stage::Detailed,
                DegradationKind::BudgetExhausted,
                None,
                format!(
                    "rip-up/reroute round skipped ({} nets still failed)",
                    retry.len()
                ),
            ));
        } else {
            retry.sort_by_key(|&i| (circuit.nets()[i].hpwl(), i));
            let relaxed = DetailedConfig {
                node_cap: config.node_cap.checked_shl(2).unwrap_or(usize::MAX),
                margin: config.margin.checked_shl(1).unwrap_or(Coord::MAX),
                ..config.clone()
            };
            route_pass(&field, &relaxed, &retry, grid, &mut solver, pin_cells, &[], result);
        }
    }

    // Final blocker rip-up: a net still failed here survived a complete
    // search of its fully widened window, so it is walled in by routed
    // nets and no further widening can help. One round, in net order:
    // let every connection of the net cross other target nets' cells,
    // fewest first, rip up the nets on those soft paths, route the
    // walled-in net through the freed corridors, then reroute the ripped
    // nets around it. Nets still unrouted afterwards fall through to the
    // degradation records below.
    if !failed(result).is_empty() && !config.cancel.is_cancelled_now() {
        blocker_ripup_round(circuit, &field, config, grid, &mut solver, pin_cells, targets, result);
    }

    // Surface window-widening exhaustion: every target still unrouted
    // gets one recorded degradation, in net-index order so the record
    // stream never depends on worker scheduling. Runs that were
    // budget-cancelled skip this — their failed nets already carry
    // budget-exhausted records.
    if !config.cancel.is_cancelled_now() {
        let mut missing = failed(result);
        missing.sort_unstable();
        for net in missing {
            config.cancel.record(Degradation::new(
                Stage::Detailed,
                DegradationKind::SearchExhausted,
                Some(net),
                "search window widening exhausted; net left unrouted",
            ));
        }
    }
}

/// One routing pass over `order`, one net at a time on the live grid;
/// skips already-routed nets and updates `result` in place. `seeds` is
/// indexed by net; a seedless pass hands in an empty slice.
///
/// Each net routes against the wires every earlier net left, as the
/// paper's detailed router does (§III-D).
#[allow(clippy::too_many_arguments)]
fn route_pass(
    field: &CostField,
    config: &DetailedConfig,
    order: &[usize],
    grid: &mut DetailedGrid,
    solver: &mut DialSolver,
    pin_cells: &[Vec<u32>],
    seeds: &[Vec<Vec<u32>>],
    result: &mut DetailedResult,
) {
    let mut skipped = 0usize;
    for &net in order {
        if result.routed[net] {
            continue;
        }
        // Budget checks commit at net boundaries: a skipped net stays
        // unrouted (pins only), which downstream reporting and the audit
        // already treat as "failed nets contribute nothing".
        if config.cancel.is_cancelled() {
            skipped += 1;
        } else if let Some(geometry) =
            route_one_net(field, config, net, grid, solver, pin_cells, seeds)
        {
            result.publish(net, geometry);
        }
    }
    if skipped > 0 {
        config.cancel.record(Degradation::new(
            Stage::Detailed,
            DegradationKind::BudgetExhausted,
            None,
            format!("{skipped} nets skipped before detailed routing"),
        ));
    }
}

/// Routes a single net on `grid`; returns its geometry if the net was
/// fully connected, and leaves only its pins on the grid otherwise.
fn route_one_net(
    field: &CostField,
    config: &DetailedConfig,
    net: usize,
    grid: &mut DetailedGrid,
    solver: &mut DialSolver,
    pin_cells: &[Vec<u32>],
    seeds: &[Vec<Vec<u32>>],
) -> Option<RouteGeometry> {
    let pins = &pin_cells[net];
    let net_seeds = seeds.get(net).map_or(&[][..], Vec::as_slice);
    let mut components = components_of(grid, pins, net_seeds);
    let own_pins = pin_points(grid, pins);

    let mut ok = connect_components(
        grid,
        solver,
        field,
        config,
        net as u32,
        &own_pins,
        &mut components,
        None,
    );
    if !ok && !net_seeds.is_empty() {
        // Failed-net rip-up/reroute (second bottom-up pass of the
        // framework): drop the net's planned segments and route the
        // pins directly.
        free_except_pins(grid, &components, pins);
        components = components_of(grid, pins, &[]);
        ok = connect_components(
            grid,
            solver,
            field,
            config,
            net as u32,
            &own_pins,
            &mut components,
            None,
        );
    }
    // `ok` implies exactly one component remains.
    if let Some(full) = ok.then(|| components.pop()).flatten() {
        let mut cells = full.clone();
        prune_stubs(grid, &mut cells, pins);
        // Free pruned cells on the grid.
        for &cell in &full {
            if !cells.contains(&cell) {
                grid.free(cell);
            }
        }
        Some(extract_geometry(grid, &cells))
    } else {
        free_except_pins(grid, &components, pins);
        if config.cancel.is_cancelled() {
            config.cancel.record(Degradation::new(
                Stage::Detailed,
                DegradationKind::BudgetExhausted,
                Some(net),
                "net abandoned mid-search and ripped up",
            ));
        }
        None
    }
}

/// A net's pins and seed runs as components, merged where they touch.
fn components_of(grid: &DetailedGrid, pins: &[u32], seeds: &[Vec<u32>]) -> Vec<FastSet<u32>> {
    let singletons = pins.iter().map(|&cell| std::iter::once(cell).collect());
    let runs = seeds.iter().map(|run| run.iter().copied().collect());
    let mut components: Vec<FastSet<u32>> = singletons.chain(runs).collect();
    merge_touching(grid, &mut components);
    components
}

/// Rips up every cell of `components` except the net's fixed pins.
fn free_except_pins(grid: &mut DetailedGrid, components: &[FastSet<u32>], pins: &[u32]) {
    for &cell in components.iter().flatten() {
        if !pins.contains(&cell) {
            grid.free(cell);
        }
    }
}

/// Merges components that already touch (seed overlapping a pin etc.).
///
/// Near-linear: one ownership map over every cell, a union-find join
/// per shared cell or adjacent pair, then a single regroup pass that
/// keeps each surviving component at its first original position.
fn merge_touching(grid: &DetailedGrid, components: &mut Vec<FastSet<u32>>) {
    let k = components.len();
    if k <= 1 {
        return;
    }
    let total: usize = components.iter().map(FastSet::len).sum();
    let mut owner: FastMap<u32, u32> = FastMap::with_capacity_and_hasher(total, Default::default());
    let mut uf = UnionFind::new(k);
    for (i, comp) in components.iter().enumerate() {
        for &c in comp {
            match owner.entry(c) {
                Entry::Vacant(e) => {
                    e.insert(i as u32);
                }
                Entry::Occupied(e) => {
                    uf.union(i, *e.get() as usize);
                }
            }
        }
    }
    let mut buf = [0u32; 4];
    for (&c, &i) in &owner {
        let n = grid.node_moves(c, &mut buf);
        for &q in &buf[..n] {
            if let Some(&j) = owner.get(&q) {
                uf.union(i as usize, j as usize);
            }
        }
    }
    if uf.component_count() == k {
        return;
    }
    let mut slot: Vec<usize> = vec![usize::MAX; k];
    let mut out: Vec<FastSet<u32>> = Vec::with_capacity(k);
    for (i, comp) in components.drain(..).enumerate() {
        let r = uf.find(i);
        if slot[r] == usize::MAX {
            slot[r] = out.len();
            out.push(comp);
        } else {
            out[slot[r]].extend(comp);
        }
    }
    *components = out;
}

/// Removes and returns the smallest component, the first one on ties.
/// A plain fold (first minimum wins, matching `min_by_key`) keeps this
/// total: callers only ask while `components` holds two or more.
fn take_smallest(components: &mut Vec<FastSet<u32>>) -> FastSet<u32> {
    let mut smallest = 0usize;
    for i in 1..components.len() {
        if components[i].len() < components[smallest].len() {
            smallest = i;
        }
    }
    components.swap_remove(smallest)
}

/// Connects all components of a net, smallest first; `true` on success
/// (exactly one component remains, left at the back of `components`).
///
/// A `soft` search may cross the cells it admits and occupies nothing:
/// each path only joins the component it reached, so the final
/// component holds every cell the soft connections cross.
#[allow(clippy::too_many_arguments)]
fn connect_components(
    grid: &mut DetailedGrid,
    solver: &mut DialSolver,
    field: &CostField,
    config: &DetailedConfig,
    net: u32,
    own_pins: &FastSet<Point>,
    components: &mut Vec<FastSet<u32>>,
    soft: Option<&Rippable>,
) -> bool {
    while components.len() > 1 {
        let source = take_smallest(components);
        // Sorted source order keeps tie-breaking (and thus paths)
        // deterministic despite set iteration order. The solver takes
        // the remaining components as targets directly (it marks them
        // in its own stamp array and keeps one heuristic box per
        // component).
        let mut src_nodes: Vec<u32> = source.iter().copied().collect();
        src_nodes.sort_unstable();

        let mut found = None;
        for attempt in 0..=config.retries {
            // Retries widen the window *and* the expansion budget: the
            // stitch-aware weighted costs flatten the search frontier, so
            // congested regions near stitching lines need more nodes.
            let node_cap = config
                .node_cap
                .checked_shl(2 * attempt as u32)
                .unwrap_or(usize::MAX);
            let margin = config
                .margin
                .checked_shl(attempt as u32)
                .unwrap_or(Coord::MAX);
            match solver.find_path(
                grid, field, net, own_pins, &src_nodes, components, margin, node_cap,
                &config.cancel, soft,
            ) {
                Search::Found(path) => {
                    found = Some(path);
                    break;
                }
                Search::Unreachable => break,
                // A dry queue proves only that the window holds no path.
                // Before a wider rung, flood back from the targets for at
                // most as many pops: if the flood runs dry too, no window
                // holds one and the ladder stops.
                Search::Dry(pops)
                    if attempt < config.retries
                        && solver.unreachable(
                            grid,
                            field,
                            net,
                            own_pins,
                            &src_nodes,
                            components,
                            soft,
                            pops,
                            &config.cancel,
                        ) =>
                {
                    break;
                }
                Search::Dry(_) | Search::Stopped => {}
            }
        }
        let Some(path) = found else {
            components.push(source);
            return false;
        };
        // Occupy path cells and merge.
        let Some(&reached) = path.last() else {
            // Search paths are non-empty by construction; treat a breach
            // as a failed connection and surface it.
            config.cancel.record(Degradation::new(
                Stage::Detailed,
                DegradationKind::InternalFallback,
                Some(net as usize),
                "connection dropped: search returned an empty path",
            ));
            components.push(source);
            return false;
        };
        if soft.is_none() {
            for &cell in &path {
                grid.occupy(cell, net);
            }
        }
        let Some(dst_idx) = components.iter().position(|c| c.contains(&reached)) else {
            // The path must end in a target component; treat a breach as a
            // failed connection and surface it.
            config.cancel.record(Degradation::new(
                Stage::Detailed,
                DegradationKind::InternalFallback,
                Some(net as usize),
                "connection dropped: path ended outside every target component",
            ));
            components.push(source);
            return false;
        };
        let mut merged = source;
        merged.extend(path);
        let dst = components.swap_remove(dst_idx);
        merged.extend(dst);
        components.push(merged);
    }
    true
}

/// One rip-up/reroute round for walled-in nets (see the call site in
/// `route_targets`), on the live grid in deterministic net order.
///
/// Only nets in `candidates` are recovered or ripped as blockers. Pin
/// cells and every cell owned by a net outside `candidates` are hard
/// obstacles even for the soft search: that covers blockage cells
/// ([`BLOCKAGE_NET`] is never a candidate) and, in an incremental run,
/// preserved geometry, since a preserved net owns nothing but its
/// geometry and pins and no candidate can occupy either.
#[allow(clippy::too_many_arguments)]
fn blocker_ripup_round(
    circuit: &Circuit,
    field: &CostField,
    config: &DetailedConfig,
    grid: &mut DetailedGrid,
    solver: &mut DialSolver,
    pin_cells: &[Vec<u32>],
    candidates: &[usize],
    result: &mut DetailedResult,
) {
    let n = pin_cells.len();
    let all_pins: FastSet<u32> = pin_cells.iter().flatten().copied().collect();
    let mut rippable = vec![false; n];
    for &i in candidates {
        rippable[i] = true;
    }
    let soft = Rippable {
        nets: &rippable,
        pins: &all_pins,
    };
    // The soft search and the recovery attempts get the expansion budget
    // one widening step past the retry ladder's last rung — still
    // proportional to the configured cap, so starved runs stay starved.
    let cap = config
        .node_cap
        .checked_shl(2 * (config.retries as u32 + 1))
        .unwrap_or(usize::MAX);
    // A margin the size of the grid makes any window cover the whole
    // outline after clamping, without overflowing coordinate arithmetic.
    let full_margin = grid.width().max(grid.height()) as Coord;
    let relaxed = DetailedConfig {
        node_cap: cap,
        margin: full_margin,
        retries: 0,
        ..config.clone()
    };
    let mut failed: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| !result.routed[i])
        .collect();
    failed.sort_by_key(|&i| (circuit.nets()[i].hpwl(), i));
    for net in failed {
        if result.routed[net] || config.cancel.is_cancelled_now() {
            continue;
        }
        // A few rip-up iterations per net: each either removes at least
        // one blocking net, routes the net, or proves it hopeless.
        let own_pins = pin_points(grid, &pin_cells[net]);
        let mut ripped: Vec<usize> = Vec::new();
        for _ in 0..4 {
            // Soft-connect every component of the net: its pins (failed
            // nets own nothing else), merged where they already touch.
            // Nothing is occupied, so the one component left is the pins
            // plus every cell the soft paths cross, and the blockers are
            // the rippable nets owning any of them. A connection with no
            // soft path rips nothing.
            let mut components = components_of(grid, &pin_cells[net], &[]);
            if components.len() <= 1 {
                break;
            }
            let joined = connect_components(
                grid,
                solver,
                field,
                &relaxed,
                net as u32,
                &own_pins,
                &mut components,
                Some(&soft),
            );
            if !joined {
                break;
            }
            let mut blockers: Vec<usize> = components
                .iter()
                .flatten()
                .filter_map(|&c| grid.occupant(c))
                .map(|o| o as usize)
                .filter(|&o| o != net && rippable.get(o) == Some(&true))
                .collect();
            blockers.sort_unstable();
            blockers.dedup();
            for &b in &blockers {
                rip_net(grid, b, &pin_cells[b], result);
                ripped.push(b);
            }
            if let Some(geometry) =
                route_one_net(field, &relaxed, net, grid, solver, pin_cells, &[])
            {
                result.publish(net, geometry);
                break;
            }
            if blockers.is_empty() {
                break;
            }
        }
        // Reroute the ripped nets around the recovered wire, in net
        // order; any that fail now stay failed and get recorded by the
        // caller.
        ripped.sort_unstable();
        ripped.dedup();
        for b in ripped {
            if result.routed[b] || config.cancel.is_cancelled_now() {
                continue;
            }
            if let Some(geometry) = route_one_net(field, config, b, grid, solver, pin_cells, &[]) {
                result.publish(b, geometry);
            }
        }
    }
}

/// Rips a routed net back to its pins: frees the cells of its geometry,
/// except its pins and any cell another net owns, and clears its
/// published result.
fn rip_net(grid: &mut DetailedGrid, net: usize, pins: &[u32], result: &mut DetailedResult) {
    if !result.routed[net] {
        return;
    }
    let pin_set: FastSet<u32> = pins.iter().copied().collect();
    for gp in geometry_points(&result.geometry[net]) {
        let node = grid.node(gp);
        if grid.occupant(node) == Some(net as u32) && !pin_set.contains(&node) {
            grid.free(node);
        }
    }
    result.geometry[net] = RouteGeometry::new();
    result.routed[net] = false;
    result.routed_count -= 1;
}

/// Iteratively removes dangling non-pin cells (degree <= 1 in the net's
/// own cell set) — unused seed overhangs become antenna stubs otherwise.
/// The removal fixpoint is unique, so worklist order never shows in the
/// result.
fn prune_stubs(grid: &DetailedGrid, cells: &mut FastSet<u32>, pins: &[u32]) {
    let pin_set: FastSet<u32> = pins.iter().copied().collect();
    let degree = |cells: &FastSet<u32>, c: u32| -> usize {
        let mut buf = [0u32; 4];
        let n = grid.node_moves(c, &mut buf);
        buf[..n].iter().filter(|q| cells.contains(q)).count()
    };
    let mut queue: Vec<u32> = cells
        .iter()
        .copied()
        .filter(|&c| !pin_set.contains(&c) && degree(cells, c) <= 1)
        .collect();
    let mut buf = [0u32; 4];
    while let Some(c) = queue.pop() {
        if !cells.remove(&c) {
            continue;
        }
        let n = grid.node_moves(c, &mut buf);
        for &qn in &buf[..n] {
            if cells.contains(&qn) && !pin_set.contains(&qn) && degree(cells, qn) <= 1 {
                queue.push(qn);
            }
        }
    }
}

/// Converts a net's final cell set into wire segments and vias.
fn extract_geometry(grid: &DetailedGrid, cells: &FastSet<u32>) -> RouteGeometry {
    let mut geom = RouteGeometry::new();
    // Sorted cell order makes the emitted via list deterministic.
    let mut sorted_cells: Vec<u32> = cells.iter().copied().collect();
    sorted_cells.sort_unstable();
    let wh = grid.width() * grid.height();
    // One `(layer, track, coord)` triple per cell; sorting groups the
    // triples into maximal runs without any hash-map traffic.
    let mut runs: Vec<(u8, Coord, Coord)> = Vec::with_capacity(sorted_cells.len());
    for &c in &sorted_cells {
        let p = grid.point(c);
        if p.layer.is_horizontal() {
            runs.push((p.layer.index(), p.y, p.x));
        } else {
            runs.push((p.layer.index(), p.x, p.y));
        }
        // Vias: emit when the cell above is also present.
        if p.layer.index() + 1 < grid.layers() && cells.contains(&(c + wh)) {
            geom.push_via(Via::new(p.x, p.y, p.layer));
        }
    }
    runs.sort_unstable();
    let mut i = 0;
    while i < runs.len() {
        let (layer_idx, track, start) = runs[i];
        let mut end = start;
        while i + 1 < runs.len() {
            let (l2, t2, c2) = runs[i + 1];
            if l2 != layer_idx || t2 != track || c2 != end + 1 {
                break;
            }
            end = c2;
            i += 1;
        }
        if end > start {
            let layer = mebl_geom::Layer::new(layer_idx);
            let seg = if layer.is_horizontal() {
                Segment::horizontal(layer, track, start, end)
            } else {
                Segment::vertical(layer, track, start, end)
            };
            geom.push_segment(seg);
        }
        i += 1;
    }
    geom
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_assign::{assign_tracks, extract_panels, TrackConfig};
    use mebl_geom::{Layer, Rect};
    use mebl_netlist::{Net, Pin};
    use mebl_stitch::StitchConfig;
    use std::collections::{HashMap, HashSet};

    fn pin(x: i32, y: i32) -> Pin {
        Pin::new(Point::new(x, y), Layer::new(0))
    }

    fn route(nets: Vec<Net>, config: &DetailedConfig) -> (Circuit, StitchPlan, DetailedResult) {
        let outline = Rect::new(0, 0, 89, 89);
        let plan = StitchPlan::new(outline, StitchConfig::default());
        let circuit = Circuit::new("t", outline, 3, nets);
        let global = mebl_global::route_circuit(&circuit, &plan, &mebl_global::GlobalConfig::default());
        let panels = extract_panels(&global);
        let tracks = assign_tracks(&panels, &global.graph, &plan, 3, &TrackConfig::default());
        let res = route_detailed(&circuit, &plan, &global.graph, &tracks, config);
        (circuit, plan, res)
    }

    fn assert_connected(c: &Circuit, net: usize, geom: &RouteGeometry) {
        // Every pin must be reachable through the geometry: check that the
        // union of cells covered by segments+vias+pins is connected and
        // touches all pins.
        let mut cells: HashSet<GridPoint> = HashSet::new();
        for s in geom.segments() {
            cells.extend(s.points());
        }
        for v in geom.vias() {
            cells.insert(GridPoint::new(v.x, v.y, v.lower));
            cells.insert(GridPoint::new(v.x, v.y, v.upper()));
        }
        for p in c.nets()[net].pins() {
            cells.insert(p.position.on_layer(p.layer));
        }
        // BFS from the first pin.
        let start = c.nets()[net].pins()[0].position.on_layer(Layer::new(0));
        let mut seen = HashSet::from([start]);
        let mut queue = vec![start];
        while let Some(p) = queue.pop() {
            let neighbours = [
                GridPoint::new(p.x - 1, p.y, p.layer),
                GridPoint::new(p.x + 1, p.y, p.layer),
                GridPoint::new(p.x, p.y - 1, p.layer),
                GridPoint::new(p.x, p.y + 1, p.layer),
                GridPoint::new(p.x, p.y, Layer::new(p.layer.index().wrapping_sub(1))),
                GridPoint::new(p.x, p.y, p.layer.above()),
            ];
            for q in neighbours {
                if cells.contains(&q) && seen.insert(q) {
                    queue.push(q);
                }
            }
        }
        for p in c.nets()[net].pins() {
            assert!(
                seen.contains(&p.position.on_layer(p.layer)),
                "pin {} unreachable",
                p.position
            );
        }
    }

    #[test]
    fn routes_simple_two_pin_net() {
        let (c, plan, res) = route(
            vec![Net::new("a", vec![pin(2, 2), pin(40, 40)])],
            &DetailedConfig::default(),
        );
        assert_eq!(res.routed_count, 1);
        assert_connected(&c, 0, &res.geometry[0]);
        let v = mebl_stitch::check_geometry(&plan, &res.geometry[0], |_| false);
        assert!(v.hard_clean(), "{v:?}");
    }

    #[test]
    fn routes_multi_pin_net() {
        let (c, plan, res) = route(
            vec![Net::new("a", vec![pin(2, 2), pin(70, 10), pin(40, 80), pin(85, 85)])],
            &DetailedConfig::default(),
        );
        assert_eq!(res.routed_count, 1);
        assert_connected(&c, 0, &res.geometry[0]);
        let v = mebl_stitch::check_geometry(&plan, &res.geometry[0], |_| false);
        assert_eq!(v.vertical_violations, 0);
    }

    #[test]
    fn several_nets_no_shorts() {
        let nets = vec![
            Net::new("a", vec![pin(2, 2), pin(60, 60)]),
            Net::new("b", vec![pin(5, 60), pin(60, 5)]),
            Net::new("c", vec![pin(30, 2), pin(30, 85)]),
        ];
        let (c, _, res) = route(nets, &DetailedConfig::default());
        assert_eq!(res.routed_count, 3);
        // No two nets may share a cell.
        let mut seen: HashMap<GridPoint, usize> = HashMap::new();
        for (i, g) in res.geometry.iter().enumerate() {
            for s in g.segments() {
                for p in s.points() {
                    if let Some(&other) = seen.get(&p) {
                        assert_eq!(other, i, "short between nets {other} and {i} at {p}");
                    }
                    seen.insert(p, i);
                }
            }
        }
        for i in 0..3 {
            assert_connected(&c, i, &res.geometry[i]);
        }
    }

    #[test]
    fn hard_constraints_always_hold_even_without_stitch_costs() {
        let nets: Vec<Net> = (0..8)
            .map(|i| {
                Net::new(
                    format!("n{i}"),
                    vec![pin(10 + i * 3, 5 + i * 2), pin(50 + i * 4, 70 - i * 3)],
                )
            })
            .collect();
        let (c, plan, res) = route(nets, &DetailedConfig::without_stitch_consideration());
        assert!(res.routed_count >= 7);
        for (i, g) in res.geometry.iter().enumerate() {
            if !res.routed[i] {
                continue;
            }
            let pins: HashSet<Point> = c.nets()[i].pins().iter().map(|p| p.position).collect();
            let v = mebl_stitch::check_geometry(&plan, g, |p| pins.contains(&p));
            assert!(v.hard_clean(), "net {i}: {v:?}");
        }
    }

    #[test]
    fn pin_on_stitch_line_gets_via_violation_but_stays_legal() {
        // Pin exactly on line x = 15; net must go vertical somewhere, so a
        // via at the pin is required and counted as a (tolerated) #VV.
        let (c, plan, res) = route(
            vec![Net::new("a", vec![pin(15, 5), pin(15, 70)])],
            &DetailedConfig::default(),
        );
        assert_eq!(res.routed_count, 1);
        let pins: HashSet<Point> = c.nets()[0].pins().iter().map(|p| p.position).collect();
        let v = mebl_stitch::check_geometry(&plan, &res.geometry[0], |p| pins.contains(&p));
        assert!(v.hard_clean(), "{v:?}");
        assert!(v.vertical_violations == 0);
    }

    #[test]
    fn stitch_costs_reduce_short_polygons() {
        // A congested pattern around a stitch line: nets whose natural
        // turn points sit in unfriendly regions.
        let mut nets = Vec::new();
        for i in 0..12 {
            nets.push(Net::new(
                format!("n{i}"),
                vec![pin(3 + i, 10 + i * 5), pin(17, 12 + i * 5)],
            ));
        }
        let (c, plan, aware) = route(nets.clone(), &DetailedConfig::default());
        let (_, _, blind) = route(nets, &DetailedConfig::without_stitch_consideration());
        let count = |res: &DetailedResult| -> usize {
            res.geometry
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    let pins: HashSet<Point> =
                        c.nets()[i].pins().iter().map(|p| p.position).collect();
                    mebl_stitch::check_geometry(&plan, g, |p| pins.contains(&p)).short_polygons
                })
                .sum()
        };
        assert!(
            count(&aware) <= count(&blind),
            "aware {} vs blind {}",
            count(&aware),
            count(&blind)
        );
    }

    #[test]
    fn failed_connection_reports_unrouted() {
        // A net whose second pin is walled off by a dense blocker net
        // cannot fail here (grid is generous), so instead verify the
        // node-cap fallback: a tiny cap forces failure.
        let (_, _, res) = route(
            vec![Net::new("a", vec![pin(2, 2), pin(80, 80)])],
            &DetailedConfig {
                node_cap: 1,
                retries: 0,
                ..DetailedConfig::default()
            },
        );
        assert_eq!(res.routed_count, 0);
        assert!(res.geometry[0].is_empty());
    }

    #[test]
    fn blockages_are_avoided() {
        let outline = Rect::new(0, 0, 89, 89);
        let plan = StitchPlan::new(outline, StitchConfig::default());
        // A wall across the net's straight-line path, with room around it.
        let blockage = Rect::new(40, 10, 42, 70);
        let circuit = Circuit::with_blockages(
            "t",
            outline,
            3,
            vec![Net::new("a", vec![pin(2, 30), pin(80, 30)])],
            vec![blockage],
        );
        let global =
            mebl_global::route_circuit(&circuit, &plan, &mebl_global::GlobalConfig::default());
        let panels = extract_panels(&global);
        let tracks = assign_tracks(&panels, &global.graph, &plan, 3, &TrackConfig::default());
        let res = route_detailed(
            &circuit,
            &plan,
            &global.graph,
            &tracks,
            &DetailedConfig::default(),
        );
        assert_eq!(res.routed_count, 1);
        let g = &res.geometry[0];
        for s in g.segments() {
            for p in s.points() {
                assert!(!blockage.contains(p.point()), "segment cell {p:?} in blockage");
            }
        }
        for v in g.vias() {
            assert!(
                !blockage.contains(Point::new(v.x, v.y)),
                "via ({}, {}) in blockage",
                v.x,
                v.y
            );
        }
    }

    #[test]
    fn incremental_preserves_and_reroutes() {
        let nets = vec![
            Net::new("a", vec![pin(2, 2), pin(60, 60)]),
            Net::new("b", vec![pin(5, 60), pin(60, 5)]),
            Net::new("c", vec![pin(30, 2), pin(30, 85)]),
        ];
        let (c, plan, full) = route(nets, &DetailedConfig::default());
        assert_eq!(full.routed_count, 3);

        // All preserved: the result must be exactly the prior one.
        let all: Vec<Option<(bool, RouteGeometry)>> = (0..3)
            .map(|i| Some((full.routed[i], full.geometry[i].clone())))
            .collect();
        let same = route_incremental(&c, &plan, &DetailedConfig::default(), all.clone());
        assert_eq!(same.routed, full.routed);
        for i in 0..3 {
            assert_eq!(same.geometry[i], full.geometry[i], "net {i}");
        }

        // One target: nets 0 and 2 stay untouched, net 1 re-routes.
        let mut partial = all;
        partial[1] = None;
        let inc = route_incremental(&c, &plan, &DetailedConfig::default(), partial);
        assert_eq!(inc.routed_count, 3);
        assert_eq!(inc.geometry[0], full.geometry[0]);
        assert_eq!(inc.geometry[2], full.geometry[2]);
        assert_connected(&c, 1, &inc.geometry[1]);
        // No shorts between the re-routed net and the preserved ones.
        let mut seen: HashMap<GridPoint, usize> = HashMap::new();
        for (i, g) in inc.geometry.iter().enumerate() {
            for s in g.segments() {
                for p in s.points() {
                    if let Some(&other) = seen.get(&p) {
                        assert_eq!(other, i, "short between nets {other} and {i} at {p}");
                    }
                    seen.insert(p, i);
                }
            }
        }
    }

    #[test]
    fn blocker_round_rips_targets_but_never_preserved_geometry() {
        let outline = Rect::new(0, 0, 29, 29);
        let plan = StitchPlan::new(outline, StitchConfig::default());
        let at = |x: Coord, y: Coord, l: u8| Pin::new(Point::new(x, y), Layer::new(l));
        // Two preserved nets wall off row y = 15 on both layers: a
        // layer-0 wire with a via at every column off the stitching line
        // (a y-move on the line is illegal anyway). The one gap is x = 10.
        let wall = |x0: Coord, x1: Coord| {
            let mut g = RouteGeometry::new();
            g.push_segment(Segment::horizontal(Layer::new(0), 15, x0, x1));
            for x in (x0..=x1).filter(|&x| !plan.is_on_line(x)) {
                g.push_via(Via::new(x, 15, Layer::new(0)));
            }
            g
        };
        let walls = [wall(0, 9), wall(11, 29)];
        let c = Circuit::new(
            "sealed",
            outline,
            2,
            vec![
                Net::new("wall_w", vec![at(0, 15, 0), at(9, 15, 0)]),
                Net::new("wall_e", vec![at(11, 15, 0), at(29, 15, 0)]),
                // Smaller HPWL, so it routes first and takes the gap.
                Net::new("gap", vec![at(10, 13, 1), at(10, 17, 1)]),
                // Must cross the row too, and the gap is its only corridor.
                Net::new("cross", vec![at(3, 5, 0), at(25, 25, 0)]),
            ],
        );
        let preserved = vec![
            Some((true, walls[0].clone())),
            Some((true, walls[1].clone())),
            None,
            None,
        ];
        let config = DetailedConfig {
            cancel: CancelToken::armed(None, None),
            ..DetailedConfig::default()
        };
        let out = route_incremental(&c, &plan, &config, preserved);

        // The walls come back byte-identical and routed.
        assert_eq!(out.geometry[..2], walls);
        assert_eq!(out.routed[..2], [true, true]);
        // The blocker round found the corridor through the gap net, not
        // through the cheaper one-cell crossings of the walls: it ripped
        // `gap`, routed `cross` through the gap, and `gap` has no way
        // back, so it is recorded as exhausted.
        assert!(out.routed[3]);
        assert_connected(&c, 3, &out.geometry[3]);
        assert!(!out.routed[2]);
        assert_eq!(out.routed_count, 3);
        let exhausted: Vec<Option<usize>> = config
            .cancel
            .take_degradations()
            .into_iter()
            .filter(|d| d.kind == DegradationKind::SearchExhausted)
            .map(|d| d.net)
            .collect();
        assert_eq!(exhausted, vec![Some(2)]);
    }

    #[test]
    fn blocker_round_recovers_a_walled_in_later_connection() {
        let outline = Rect::new(0, 0, 29, 29);
        let plan = StitchPlan::new(outline, StitchConfig::default());
        let at = |x: Coord, y: Coord, l: u8| Pin::new(Point::new(x, y), Layer::new(l));
        // Preserved walls seal row y = 15 on both layers but for the gap
        // at x = 10 (see `blocker_round_rips_targets_but_never_preserved_geometry`).
        let wall = |x0: Coord, x1: Coord| {
            let mut g = RouteGeometry::new();
            g.push_segment(Segment::horizontal(Layer::new(0), 15, x0, x1));
            for x in (x0..=x1).filter(|&x| !plan.is_on_line(x)) {
                g.push_via(Via::new(x, 15, Layer::new(0)));
            }
            g
        };
        let walls = [wall(0, 9), wall(11, 29)];
        let c = Circuit::new(
            "pocket",
            outline,
            2,
            vec![
                Net::new("wall_w", vec![at(0, 15, 0), at(9, 15, 0)]),
                Net::new("wall_e", vec![at(11, 15, 0), at(29, 15, 0)]),
                // Routes first and plugs the gap, sealing the upper half.
                Net::new("plug", vec![at(10, 13, 1), at(10, 17, 1)]),
                // Its first connection (pin 0 to pin 1) is free below the
                // row; only the second, to pin 2 above it, is walled in.
                Net::new("three", vec![at(3, 5, 0), at(25, 3, 0), at(20, 25, 0)]),
            ],
        );
        let preserved = vec![
            Some((true, walls[0].clone())),
            Some((true, walls[1].clone())),
            None,
            None,
        ];
        let config = DetailedConfig {
            cancel: CancelToken::armed(None, None),
            ..DetailedConfig::default()
        };
        let out = route_incremental(&c, &plan, &config, preserved);

        assert_eq!(out.geometry[..2], walls);
        // Soft-connecting every component names `plug` as the blocker of
        // the second connection: it is ripped, `three` routes through the
        // gap, and `plug` has no way back.
        assert!(out.routed[3], "the walled-in three-pin net was dropped");
        assert_connected(&c, 3, &out.geometry[3]);
        let pins: HashSet<Point> = c.nets()[3].pins().iter().map(|p| p.position).collect();
        let v = mebl_stitch::check_geometry(&plan, &out.geometry[3], |p| pins.contains(&p));
        assert!(v.hard_clean(), "{v:?}");
        assert!(!out.routed[2]);
        let exhausted: Vec<Option<usize>> = config
            .cancel
            .take_degradations()
            .into_iter()
            .filter(|d| d.kind == DegradationKind::SearchExhausted)
            .map(|d| d.net)
            .collect();
        assert_eq!(exhausted, vec![Some(2)]);
    }

    /// The whole-grid scan `rip_net` replaced: frees every cell the net
    /// owns except its pins.
    fn rip_net_by_scan(grid: &mut DetailedGrid, net: usize, pins: &[u32]) {
        for node in 0..grid.cell_count() as u32 {
            if grid.occupant(node) == Some(net as u32) && !pins.contains(&node) {
                grid.free(node);
            }
        }
    }

    #[test]
    fn rip_net_frees_what_a_grid_scan_frees() {
        use mebl_netlist::{BenchmarkSpec, GenerateConfig};
        for (name, seed) in [("S5378", 1), ("S9234", 2), ("DMA", 3)] {
            let spec = BenchmarkSpec::by_name(name).unwrap();
            let circuit = spec.generate(&GenerateConfig {
                seed,
                net_scale: 60.0 / spec.nets as f64,
                ..GenerateConfig::default()
            });
            let plan = StitchPlan::new(circuit.outline(), StitchConfig::default());
            let global = mebl_global::route_circuit(
                &circuit,
                &plan,
                &mebl_global::GlobalConfig::default(),
            );
            let tracks = assign_tracks(
                &extract_panels(&global),
                &global.graph,
                &plan,
                circuit.layer_count(),
                &TrackConfig::default(),
            );
            let config = DetailedConfig::default();
            let mut state = scratch_state(&circuit, &plan, &global.graph, &tracks, &config);
            route_targets(&circuit, &plan, &config, &mut state);
            let mut freed = 0;
            for net in (0..circuit.net_count()).filter(|&i| state.result.routed[i]) {
                let pins = &state.pin_cells[net];
                let mut by_geometry = state.grid.clone();
                let mut result = state.result.clone();
                rip_net(&mut by_geometry, net, pins, &mut result);
                let mut by_scan = state.grid.clone();
                rip_net_by_scan(&mut by_scan, net, pins);
                for node in 0..by_scan.cell_count() as u32 {
                    assert_eq!(
                        by_geometry.occupant(node),
                        by_scan.occupant(node),
                        "{name}: net {net}, cell {:?}",
                        by_scan.point(node)
                    );
                    freed += usize::from(by_scan.occupant(node) != state.grid.occupant(node));
                }
                assert!(!result.routed[net] && result.geometry[net].is_empty());
            }
            assert!(freed > 0, "{name}: no routed net owned a cell to free");
        }
    }

    #[test]
    fn geometry_has_no_dangling_stubs() {
        let (c, _, res) = route(
            vec![Net::new("a", vec![pin(2, 2), pin(70, 70)])],
            &DetailedConfig::default(),
        );
        // Every segment endpoint must either carry a via, meet another
        // segment, or be a pin.
        let g = &res.geometry[0];
        let pins: HashSet<Point> = c.nets()[0].pins().iter().map(|p| p.position).collect();
        for s in g.segments() {
            let (a, b) = s.endpoints();
            for end in [a, b] {
                let has_via = g.has_via_at(end, s.layer);
                let meets = g
                    .segments()
                    .iter()
                    .filter(|o| *o != s)
                    .any(|o| o.layer == s.layer && o.contains_point(end));
                let is_pin = s.layer.index() == 0 && pins.contains(&end);
                assert!(
                    has_via || meets || is_pin,
                    "dangling end {end} of {s:?}"
                );
            }
        }
    }
}

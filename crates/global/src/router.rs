//! Congestion- and line-end-aware global routing.

use crate::{TileGraph, TileId};
use mebl_control::{CancelToken, Degradation, DegradationKind, Stage};
use mebl_geom::Coord;
use mebl_netlist::Circuit;
use mebl_par::Pool;
use mebl_stitch::StitchPlan;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Negotiation-style rip-up/reroute passes after the initial pass.
const REROUTE_PASSES: usize = 3;

/// Configuration of the global routing stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalConfig {
    /// Global tile edge length in pitches. The default (15) matches the
    /// stitch period so each tile column contains at most one line, the
    /// Fig. 7 geometry.
    pub tile_size: Coord,
    /// Account for stitching lines in edge/vertex capacities. `false`
    /// models a conventional router's resource estimate.
    pub stitch_aware_capacity: bool,
    /// Include the vertex (line-end congestion) term `ψv` in path costs —
    /// the switch studied in Table IV.
    pub line_end_cost: bool,
    /// Cooperative cancellation/budget handle. The inert default never
    /// fires; when armed (see `mebl-route`'s `RunBudget`), cancellation
    /// takes effect at net-group and pass boundaries so partial results
    /// stay internally consistent.
    pub cancel: CancelToken,
    /// Ignored by the global stage, which routes its net groups one
    /// net at a time in net order (DESIGN.md §9).
    pub pool: Pool,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        Self {
            tile_size: 15,
            stitch_aware_capacity: true,
            line_end_cost: true,
            cancel: CancelToken::default(),
            pool: Pool::serial(),
        }
    }
}

impl GlobalConfig {
    /// The conventional baseline: wire-density cost only, blind capacities.
    pub fn baseline() -> Self {
        Self {
            stitch_aware_capacity: false,
            line_end_cost: false,
            ..Self::default()
        }
    }
}

/// A maximal straight run of a net's global route, in tile coordinates.
///
/// Runs are the "segments" consumed by layer and track assignment: a
/// vertical run in a column panel, a horizontal run in a row panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileRun {
    /// `true` for a run along a tile row (horizontal wiring).
    pub horizontal: bool,
    /// Row index for horizontal runs, column index for vertical runs.
    pub fixed: u32,
    /// First tile index along the run (column for horizontal, row for
    /// vertical), inclusive.
    pub lo: u32,
    /// Last tile index along the run, inclusive. Always `> lo`.
    pub hi: u32,
}

/// A net's global route: the Steiner-tree tiles and edges it occupies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalRoute {
    /// Occupied tiles (sorted, deduplicated). Never empty for a routed
    /// net; a net local to one tile has one tile and no edges.
    pub tiles: Vec<TileId>,
    /// Tree edges between adjacent tiles, normalised `(min, max)`.
    pub edges: Vec<(TileId, TileId)>,
}

impl GlobalRoute {
    /// Decomposes the route's edges into maximal straight [`TileRun`]s.
    pub fn runs(&self, graph: &TileGraph) -> Vec<TileRun> {
        let mut h_edges: Vec<(u32, u32)> = Vec::new(); // (row, left col)
        let mut v_edges: Vec<(u32, u32)> = Vec::new(); // (col, lower row)
        for &(a, b) in &self.edges {
            let (ac, ar) = graph.tile_coords(a);
            let (bc, br) = graph.tile_coords(b);
            if ar == br {
                h_edges.push((ar, ac.min(bc)));
            } else {
                v_edges.push((ac, ar.min(br)));
            }
        }
        let mut runs = Vec::new();
        collect_runs(&mut h_edges, true, &mut runs);
        collect_runs(&mut v_edges, false, &mut runs);
        runs
    }

    /// Tile-level wirelength: number of tile-boundary crossings.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

fn collect_runs(edges: &mut [(u32, u32)], horizontal: bool, out: &mut Vec<TileRun>) {
    edges.sort_unstable();
    let mut i = 0;
    while i < edges.len() {
        let (fixed, start) = edges[i];
        let mut end = start;
        while i + 1 < edges.len() && edges[i + 1] == (fixed, end + 1) {
            end += 1;
            i += 1;
        }
        out.push(TileRun {
            horizontal,
            fixed,
            lo: start,
            hi: end + 1, // edge (fixed, end) spans tiles end..end+1
        });
        i += 1;
    }
}

/// Quality metrics of a global routing solution (Table IV columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalMetrics {
    /// Total vertex overflow (`TVOF`): Σ max(0, dv − cv).
    pub total_vertex_overflow: u64,
    /// Maximum vertex overflow over all tiles (`MVOF`).
    pub max_vertex_overflow: u32,
    /// Total edge overflow: Σ max(0, de − ce).
    pub total_edge_overflow: u64,
    /// Maximum edge overflow over all edges.
    pub max_edge_overflow: u32,
    /// Wirelength in pitches (tile crossings × tile size).
    pub wirelength: u64,
}

/// Output of [`route_circuit`].
#[derive(Debug, Clone)]
pub struct GlobalResult {
    /// Per-net routes, indexed by net id.
    pub routes: Vec<GlobalRoute>,
    /// The tile graph the routes live on.
    pub graph: TileGraph,
    /// Congestion/overflow metrics.
    pub metrics: GlobalMetrics,
    /// Per-tile congestion `max(demand/capacity)` over the tile's four
    /// edges (1.0 = full), for heatmap rendering.
    pub tile_congestion: Vec<f64>,
    /// Per-tile line-end utilisation `dv / cv`.
    pub vertex_utilization: Vec<f64>,
}

/// Mutable routing state: demands and negotiation history.
struct State {
    h_demand: Vec<u32>,
    v_demand: Vec<u32>,
    vertex_demand: Vec<u32>,
    h_history: Vec<f64>,
    v_history: Vec<f64>,
    vertex_history: Vec<f64>,
}

impl State {
    fn new(graph: &TileGraph) -> Self {
        Self {
            h_demand: vec![0; graph.h_edge_count()],
            v_demand: vec![0; graph.v_edge_count()],
            vertex_demand: vec![0; graph.tile_count()],
            h_history: vec![0.0; graph.h_edge_count()],
            v_history: vec![0.0; graph.v_edge_count()],
            vertex_history: vec![0.0; graph.tile_count()],
        }
    }

    fn apply_route(
        &mut self,
        graph: &TileGraph,
        route: &GlobalRoute,
        sign: i64,
        cancel: &CancelToken,
    ) {
        for &(a, b) in &route.edges {
            let Some((idx, is_h)) = graph.edge_between(a, b) else {
                // Routes only hold adjacent pairs, so a missing edge is an
                // invariant breach; skip the edge and surface it.
                cancel.record(Degradation::new(
                    Stage::Global,
                    DegradationKind::InternalFallback,
                    None,
                    format!("demand update skipped for non-adjacent tile pair {a:?}-{b:?}"),
                ));
                continue;
            };
            let slot = if is_h {
                &mut self.h_demand[idx]
            } else {
                &mut self.v_demand[idx]
            };
            *slot = (*slot as i64 + sign) as u32;
        }
        // Each vertical run deposits a line end in both its terminal tiles.
        for run in route.runs(graph) {
            if run.horizontal {
                continue;
            }
            for row in [run.lo, run.hi] {
                let t = graph.tile_at(run.fixed, row);
                let d = &mut self.vertex_demand[t.0 as usize];
                *d = (*d as i64 + sign) as u32;
            }
        }
    }
}

/// Congestion cost `ψ(x) = 2^x − 1` (eqs. 1–2).
fn psi(demand: u32, capacity: u32) -> f64 {
    if capacity == 0 {
        // A zero-capacity resource is effectively blocked but must stay
        // finite so fully blocked regions remain traversable as a last
        // resort (overflow shows up in the metrics instead).
        return 1.0e6;
    }
    (f64::from(demand) / f64::from(capacity)).exp2() - 1.0
}

/// Routes every net of `circuit` on the global tile graph: the
/// incremental route with nothing preserved.
///
/// Nets are processed in bottom-up multilevel order (smallest bounding box
/// first), then `REROUTE_PASSES` negotiation rounds rip up and
/// reroute the nets crossing overflowed resources.
pub fn route_circuit(
    circuit: &Circuit,
    plan: &StitchPlan,
    config: &GlobalConfig,
) -> GlobalResult {
    route_incremental(circuit, plan, config, vec![None; circuit.net_count()])
}

/// Incrementally routes only the nets whose `preserved` entry is `None`.
///
/// Every preserved route moves into the result and its demand is
/// re-applied first — the exact inverse of ripping up the target nets
/// from the prior state — then the targets route in multilevel order
/// against that demand. Negotiation passes run over *all* nets: at the
/// tile level any net crossing an overflowed resource may be ripped and
/// rerouted (the capacity model is a pure function of the routes, and
/// detailed routing never reads them), which lets a delta run converge
/// to zero overflow exactly like a from-scratch run instead of
/// inheriting overflow the preserved routes pin in place.
///
/// # Panics
///
/// Panics if `preserved.len() != circuit.net_count()`.
pub fn route_incremental(
    circuit: &Circuit,
    plan: &StitchPlan,
    config: &GlobalConfig,
    preserved: Vec<Option<GlobalRoute>>,
) -> GlobalResult {
    assert!(
        preserved.len() == circuit.net_count(),
        "preserved state must cover every net"
    );
    let graph = tile_graph(circuit, plan, config);
    let mut state = State::new(&graph);

    // Bottom-up multilevel ordering: route the nets that are local at the
    // finest coarsening level first, then coarser levels — the two-pass
    // bottom-up framework of [3].
    let order = crate::multilevel::bottom_up_order(circuit, &graph);

    let targets: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| preserved[i].is_none())
        .collect();
    let mut routes: Vec<GlobalRoute> = Vec::with_capacity(preserved.len());
    for kept in preserved {
        if let Some(route) = &kept {
            state.apply_route(&graph, route, 1, &config.cancel);
        }
        routes.push(kept.unwrap_or_default());
    }
    let skipped = route_groups(circuit, &graph, &mut state, config, &targets, &mut routes);
    if skipped > 0 {
        config.cancel.record(Degradation::new(
            Stage::Global,
            DegradationKind::BudgetExhausted,
            None,
            format!("{skipped} nets left unrouted at tile level"),
        ));
    }

    negotiate(circuit, &graph, &mut state, config, &order, &mut routes);
    finish(graph, &state, routes, &config.cancel)
}

/// Reconstructs a [`GlobalResult`] from already-known per-net routes.
///
/// Demands, metrics and the utilisation maps are pure functions of the
/// routes, so a result serialised as routes alone round-trips through
/// this function bit-identically. No routing, rip-up or negotiation
/// happens — the routes come back exactly as given.
///
/// # Panics
///
/// Panics if `routes.len() != circuit.net_count()`.
pub fn rebuild_result(
    circuit: &Circuit,
    plan: &StitchPlan,
    config: &GlobalConfig,
    routes: Vec<GlobalRoute>,
) -> GlobalResult {
    assert!(
        routes.len() == circuit.net_count(),
        "one route slot per net"
    );
    let graph = tile_graph(circuit, plan, config);
    let mut state = State::new(&graph);
    for route in &routes {
        state.apply_route(&graph, route, 1, &config.cancel);
    }
    finish(graph, &state, routes, &config.cancel)
}

/// The tile graph of `circuit` under `config`'s tile size and capacity
/// model.
fn tile_graph(circuit: &Circuit, plan: &StitchPlan, config: &GlobalConfig) -> TileGraph {
    TileGraph::new(
        circuit.outline(),
        config.tile_size,
        circuit.layer_count(),
        plan,
        config.stitch_aware_capacity,
    )
}

/// Packs final routes with their graph, metrics and utilisation maps.
fn finish(
    graph: TileGraph,
    state: &State,
    routes: Vec<GlobalRoute>,
    cancel: &CancelToken,
) -> GlobalResult {
    let metrics = compute_metrics(&graph, state, &routes);
    let (tile_congestion, vertex_utilization) = utilization_maps(&graph, state, cancel);
    GlobalResult {
        routes,
        graph,
        metrics,
        tile_congestion,
        vertex_utilization,
    }
}

/// Negotiation rounds: penalise overflowed resources and rip up and
/// reroute the nets crossing them, up to `REROUTE_PASSES` times
/// or until nothing overflows.
fn negotiate(
    circuit: &Circuit,
    graph: &TileGraph,
    state: &mut State,
    config: &GlobalConfig,
    order: &[usize],
    routes: &mut [GlobalRoute],
) {
    for pass in 0..REROUTE_PASSES {
        if config.cancel.is_cancelled_now() {
            config.cancel.record(Degradation::new(
                Stage::Global,
                DegradationKind::BudgetExhausted,
                None,
                format!("negotiation passes {}..{REROUTE_PASSES} skipped", pass + 1),
            ));
            break;
        }
        let metrics = compute_metrics(graph, state, routes);
        if metrics.total_edge_overflow == 0 && metrics.total_vertex_overflow == 0 {
            break;
        }
        let mut h_over = vec![false; graph.h_edge_count()];
        let mut v_over = vec![false; graph.v_edge_count()];
        for (idx, over) in h_over.iter_mut().enumerate() {
            if state.h_demand[idx] > graph.h_edge_capacity(idx) {
                *over = true;
                state.h_history[idx] += 1.0;
            }
        }
        for (idx, over) in v_over.iter_mut().enumerate() {
            if state.v_demand[idx] > graph.v_edge_capacity(idx) {
                *over = true;
                state.v_history[idx] += 1.0;
            }
        }
        let mut vertex_over = vec![false; graph.tile_count()];
        if config.line_end_cost {
            for (t, over) in vertex_over.iter_mut().enumerate() {
                if state.vertex_demand[t] > graph.vertex_capacity(TileId(t as u32)) {
                    *over = true;
                    state.vertex_history[t] += 1.0;
                }
            }
        }
        let victims: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| {
                routes[i].edges.iter().any(|&(a, b)| {
                    graph
                        .edge_between(a, b)
                        .is_some_and(|(idx, is_h)| if is_h { h_over[idx] } else { v_over[idx] })
                }) || routes[i].tiles.iter().any(|t| vertex_over[t.0 as usize])
            })
            .collect();
        if victims.is_empty() {
            break;
        }
        // Rip up every victim before rerouting any: demand removal and
        // re-addition stay paired, so a cancelled run never leaves the
        // capacity model out of sync with the routes (a victim skipped by
        // a mid-reroute cancellation keeps its empty default route).
        for &i in &victims {
            state.apply_route(graph, &routes[i], -1, &config.cancel);
            routes[i] = GlobalRoute::default();
        }
        let skipped = route_groups(circuit, graph, state, config, &victims, routes);
        if skipped > 0 {
            config.cancel.record(Degradation::new(
                Stage::Global,
                DegradationKind::BudgetExhausted,
                None,
                format!("{skipped} ripped-up nets left unrouted in pass {}", pass + 1),
            ));
        }
    }
}

/// Nets per group. Nets in one group price congestion against the
/// demand the group started from, so the group size is visible in the
/// result.
const NET_GROUP: usize = 32;

/// Routes `nets` (in order) in fixed groups of [`NET_GROUP`] nets.
///
/// Each net routes on `state` and has its demand rolled back at once,
/// so every net of a group prices congestion against the demand the
/// group started from; the group's routes are then committed in net
/// order after its last net. Returns the number of nets skipped by
/// cancellation, which is checked at group boundaries only: an
/// expansion cap is charged in net order, so it fires at the same
/// group on every run.
fn route_groups(
    circuit: &Circuit,
    graph: &TileGraph,
    state: &mut State,
    config: &GlobalConfig,
    nets: &[usize],
    routes: &mut [GlobalRoute],
) -> usize {
    let mut skipped = 0usize;
    for group in nets.chunks(NET_GROUP) {
        // A skipped net keeps its empty default route (no demand
        // charged), so the capacity model stays consistent and the
        // audit recount agrees.
        if config.cancel.is_cancelled() {
            skipped += group.len();
            continue;
        }
        for &net in group {
            let route = route_net(circuit, net, graph, state, config);
            state.apply_route(graph, &route, -1, &config.cancel);
            routes[net] = route;
        }
        for &net in group {
            state.apply_route(graph, &routes[net], 1, &config.cancel);
        }
    }
    skipped
}

/// Per-tile congestion and line-end utilisation maps.
fn utilization_maps(
    graph: &TileGraph,
    state: &State,
    cancel: &CancelToken,
) -> (Vec<f64>, Vec<f64>) {
    let ratio = |d: u32, c: u32| {
        if c == 0 {
            if d == 0 { 0.0 } else { f64::INFINITY }
        } else {
            f64::from(d) / f64::from(c)
        }
    };
    let mut congestion = vec![0.0f64; graph.tile_count()];
    for t in 0..graph.tile_count() as u32 {
        let tile = TileId(t);
        let mut worst = 0.0f64;
        for n in graph.neighbors(tile) {
            let Some((idx, is_h)) = graph.edge_between(tile, n) else {
                // Neighbors are adjacent by construction; a miss means the
                // tile graph disagrees with itself, so surface it.
                cancel.record(Degradation::new(
                    Stage::Global,
                    DegradationKind::InternalFallback,
                    None,
                    format!("congestion map skipped edge {tile:?}-{n:?}"),
                ));
                continue;
            };
            let u = if is_h {
                ratio(state.h_demand[idx], graph.h_edge_capacity(idx))
            } else {
                ratio(state.v_demand[idx], graph.v_edge_capacity(idx))
            };
            worst = worst.max(u);
        }
        congestion[t as usize] = worst;
    }
    let vertex = (0..graph.tile_count() as u32)
        .map(|t| ratio(state.vertex_demand[t as usize], graph.vertex_capacity(TileId(t))))
        .collect();
    (congestion, vertex)
}

fn compute_metrics(graph: &TileGraph, state: &State, routes: &[GlobalRoute]) -> GlobalMetrics {
    let mut m = GlobalMetrics::default();
    for idx in 0..graph.h_edge_count() {
        let over = state.h_demand[idx].saturating_sub(graph.h_edge_capacity(idx));
        m.total_edge_overflow += u64::from(over);
        m.max_edge_overflow = m.max_edge_overflow.max(over);
    }
    for idx in 0..graph.v_edge_count() {
        let over = state.v_demand[idx].saturating_sub(graph.v_edge_capacity(idx));
        m.total_edge_overflow += u64::from(over);
        m.max_edge_overflow = m.max_edge_overflow.max(over);
    }
    for t in 0..graph.tile_count() {
        let over =
            state.vertex_demand[t].saturating_sub(graph.vertex_capacity(TileId(t as u32)));
        m.total_vertex_overflow += u64::from(over);
        m.max_vertex_overflow = m.max_vertex_overflow.max(over);
    }
    m.wirelength = routes
        .iter()
        .map(|r| r.edge_count() as u64 * graph.tile_size() as u64)
        .sum();
    m
}

/// Routes one net: MST decomposition over pin tiles, then multi-source A\*
/// per connection with the Ψ(P) cost of eq. (3).
fn route_net(
    circuit: &Circuit,
    net_idx: usize,
    graph: &TileGraph,
    state: &mut State,
    config: &GlobalConfig,
) -> GlobalRoute {
    let net = &circuit.nets()[net_idx];
    let mut pin_tiles: Vec<TileId> = net
        .pins()
        .iter()
        .map(|p| graph.tile_of(p.position))
        .collect();
    pin_tiles.sort_unstable();
    pin_tiles.dedup();

    let mut route = GlobalRoute {
        tiles: vec![pin_tiles[0]],
        edges: Vec::new(),
    };
    if pin_tiles.len() == 1 {
        return route;
    }

    // Greedy nearest-target order (Prim-style MST decomposition).
    let mut remaining: Vec<TileId> = pin_tiles[1..].to_vec();
    while !remaining.is_empty() {
        // Pick the remaining pin tile nearest to the current tree. A plain
        // fold (first minimum wins, matching `min_by_key`) keeps this total
        // without an `Option` or a sentinel distance: `route.tiles` and
        // `remaining` are both non-empty here by construction.
        let mut pos = 0usize;
        let mut best = u32::MAX;
        for (i, &t) in remaining.iter().enumerate() {
            let d = route
                .tiles
                .iter()
                .map(|&s| tile_dist(graph, s, t))
                .fold(u32::MAX, u32::min);
            if d < best {
                best = d;
                pos = i;
            }
        }
        let target = remaining.swap_remove(pos);
        if route.tiles.contains(&target) {
            continue;
        }
        let path = astar_tiles(graph, state, config, &route.tiles, target);
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let e = (a.min(b), a.max(b));
            if !route.edges.contains(&e) {
                route.edges.push(e);
                // Path steps are adjacent by construction.
                if let Some((idx, is_h)) = graph.edge_between(a, b) {
                    if is_h {
                        state.h_demand[idx] += 1;
                    } else {
                        state.v_demand[idx] += 1;
                    }
                }
            }
            if !route.tiles.contains(&b) {
                route.tiles.push(b);
            }
        }
    }
    route.tiles.sort_unstable();
    route.tiles.dedup();
    route.edges.sort_unstable();

    // Line-end demand: both terminals of every vertical run.
    for run in route.runs(graph) {
        if run.horizontal {
            continue;
        }
        for row in [run.lo, run.hi] {
            let t = graph.tile_at(run.fixed, row);
            state.vertex_demand[t.0 as usize] += 1;
        }
    }
    route
}

fn tile_dist(graph: &TileGraph, a: TileId, b: TileId) -> u32 {
    let (ac, ar) = graph.tile_coords(a);
    let (bc, br) = graph.tile_coords(b);
    ac.abs_diff(bc) + ar.abs_diff(br)
}

/// Fixed-point scale (heap units per pitch) for f64 weights in the
/// binary heap; integer cost arithmetic downstream is saturating.
const FIXED_POINT_SCALE: f64 = 1024.0;

/// Ceiling on a single edge's congestion cost before fixed-point
/// conversion. `ψ` is exponential in demand/capacity, so near-capacity
/// demand can push a step cost to infinity; an unbounded `as u64` cast
/// would saturate to `u64::MAX` and poison every accumulated path cost
/// downstream of the edge. Clamping keeps blocked edges astronomically
/// expensive (≫ any real path) while total costs stay far from overflow:
/// even a million-edge path of clamped steps sums to ~1e15, four orders
/// of magnitude under `u64::MAX`.
const MAX_STEP_COST: f64 = 1.0e9;

/// Converts an f64 step cost to saturating fixed-point heap units.
fn fixed_cost(step: f64) -> u64 {
    (step.clamp(0.0, MAX_STEP_COST) * FIXED_POINT_SCALE) as u64
}

/// Multi-source A\* over the tile graph from the net's current tree to
/// `target`. Returns the tile path from a tree tile to the target.
fn astar_tiles(
    graph: &TileGraph,
    state: &State,
    config: &GlobalConfig,
    sources: &[TileId],
    target: TileId,
) -> Vec<TileId> {
    let n = graph.tile_count();
    let mut dist = vec![u64::MAX; n];
    let mut prev = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let h = |t: TileId| -> u64 { (tile_dist(graph, t, target) as f64 * FIXED_POINT_SCALE) as u64 };

    for &s in sources {
        dist[s.0 as usize] = 0;
        heap.push(Reverse((h(s), s.0)));
    }
    while let Some(Reverse((_, u))) = heap.pop() {
        let ut = TileId(u);
        if ut == target {
            break;
        }
        // Charge the pop against the run's expansion budget. Global A*
        // never aborts mid-search — an interrupted search would leave a
        // half-built `prev` chain — so the cancellation this may latch
        // takes effect at the next group boundary in `route_groups`.
        config.cancel.charge_expansions(1);
        let du = dist[u as usize];
        for v in graph.neighbors(ut) {
            let Some((idx, is_h)) = graph.edge_between(ut, v) else {
                // Neighbors are adjacent by construction; surface the
                // inconsistency instead of silently skipping the edge.
                config.cancel.record(Degradation::new(
                    Stage::Global,
                    DegradationKind::InternalFallback,
                    None,
                    format!("search skipped edge {ut:?}-{v:?}"),
                ));
                continue;
            };
            let (cap, dem, hist) = if is_h {
                (
                    graph.h_edge_capacity(idx),
                    state.h_demand[idx],
                    state.h_history[idx],
                )
            } else {
                (
                    graph.v_edge_capacity(idx),
                    state.v_demand[idx],
                    state.v_history[idx],
                )
            };
            // Prospective congestion of taking this edge (demand + 1).
            let mut step = 1.0 + psi(dem + 1, cap) + hist;
            // Vertex (line-end) cost ψv of eq. (2): charged on vertical
            // moves — the moves whose endpoints can deposit the line ends
            // that dv counts — so a crowded tile can still be entered
            // horizontally for free and the router steers final approaches
            // accordingly (Fig. 7(b), segment C).
            if config.line_end_cost && !is_h {
                step += psi(
                    state.vertex_demand[v.0 as usize] + 1,
                    graph.vertex_capacity(v),
                ) + state.vertex_history[v.0 as usize];
            }
            let nd = du.saturating_add(fixed_cost(step));
            if nd < dist[v.0 as usize] {
                dist[v.0 as usize] = nd;
                prev[v.0 as usize] = u;
                heap.push(Reverse((nd.saturating_add(h(v)), v.0)));
            }
        }
    }

    // Reconstruct from target back to a source.
    let mut path = vec![target];
    let mut cur = target.0;
    while prev[cur as usize] != u32::MAX {
        cur = prev[cur as usize];
        path.push(TileId(cur));
    }
    path.reverse();
    debug_assert!(sources.contains(&path[0]), "path must start at the tree");
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_geom::{Layer, Point, Rect};
    use mebl_netlist::{Circuit, Net, Pin};
    use mebl_stitch::{StitchConfig, StitchPlan};

    fn pin(x: i32, y: i32) -> Pin {
        Pin::new(Point::new(x, y), Layer::new(0))
    }

    fn tiny_circuit(nets: Vec<Net>) -> (Circuit, StitchPlan) {
        let outline = Rect::new(0, 0, 89, 59);
        let plan = StitchPlan::new(outline, StitchConfig::default());
        (Circuit::new("t", outline, 3, nets), plan)
    }

    #[test]
    fn local_net_occupies_one_tile() {
        let (c, plan) = tiny_circuit(vec![Net::new("a", vec![pin(1, 1), pin(3, 4)])]);
        let res = route_circuit(&c, &plan, &GlobalConfig::default());
        assert_eq!(res.routes[0].tiles.len(), 1);
        assert!(res.routes[0].edges.is_empty());
    }

    #[test]
    fn two_pin_net_connects_its_tiles() {
        let (c, plan) = tiny_circuit(vec![Net::new("a", vec![pin(1, 1), pin(80, 50)])]);
        let res = route_circuit(&c, &plan, &GlobalConfig::default());
        let r = &res.routes[0];
        // Path between tile (0,0) and tile (5,3): at least 8 edges.
        assert!(r.edges.len() >= 8, "edges: {}", r.edges.len());
        let t0 = res.graph.tile_of(Point::new(1, 1));
        let t1 = res.graph.tile_of(Point::new(80, 50));
        assert!(r.tiles.contains(&t0) && r.tiles.contains(&t1));
        assert_route_connected(r);
    }

    #[test]
    fn multi_pin_net_forms_connected_tree() {
        let (c, plan) = tiny_circuit(vec![Net::new(
            "a",
            vec![pin(1, 1), pin(80, 5), pin(40, 55), pin(85, 58)],
        )]);
        let res = route_circuit(&c, &plan, &GlobalConfig::default());
        assert_route_connected(&res.routes[0]);
    }

    fn assert_route_connected(r: &GlobalRoute) {
        if r.tiles.len() <= 1 {
            return;
        }
        let mut uf = mebl_graph_lite::UnionFindLite::new(r.tiles.len());
        let index = |t: TileId| r.tiles.binary_search(&t).expect("tile in route");
        for &(a, b) in &r.edges {
            uf.union(index(a), index(b));
        }
        let root = uf.find(0);
        for i in 1..r.tiles.len() {
            assert_eq!(uf.find(i), root, "route not connected");
        }
    }

    /// Minimal local union-find to avoid a dev-dependency cycle.
    mod mebl_graph_lite {
        pub struct UnionFindLite {
            parent: Vec<usize>,
        }
        impl UnionFindLite {
            pub fn new(n: usize) -> Self {
                Self {
                    parent: (0..n).collect(),
                }
            }
            pub fn find(&mut self, x: usize) -> usize {
                if self.parent[x] != x {
                    let r = self.find(self.parent[x]);
                    self.parent[x] = r;
                }
                self.parent[x]
            }
            pub fn union(&mut self, a: usize, b: usize) {
                let (ra, rb) = (self.find(a), self.find(b));
                self.parent[ra] = rb;
            }
        }
    }

    #[test]
    fn runs_decompose_l_shaped_route() {
        let (c, plan) = tiny_circuit(vec![Net::new("a", vec![pin(1, 1), pin(80, 50)])]);
        let res = route_circuit(&c, &plan, &GlobalConfig::default());
        let runs = res.routes[0].runs(&res.graph);
        assert!(!runs.is_empty());
        // Total run length equals edge count.
        let total: u32 = runs.iter().map(|r| r.hi - r.lo).sum();
        assert_eq!(total as usize, res.routes[0].edges.len());
        for r in &runs {
            assert!(r.hi > r.lo);
        }
    }

    #[test]
    fn line_end_cost_reduces_vertex_overflow() {
        // Many vertical connections terminating in the same tile column.
        let mut nets = Vec::new();
        for i in 0..40 {
            let x = 16 + (i % 3);
            nets.push(Net::new(
                format!("n{i}"),
                vec![pin(x, 1 + (i % 10)), pin(x + (i % 2), 40 + (i % 15))],
            ));
        }
        let (c, plan) = tiny_circuit(nets);
        let aware = route_circuit(&c, &plan, &GlobalConfig::default());
        let blind = route_circuit(
            &c,
            &plan,
            &GlobalConfig {
                line_end_cost: false,
                ..GlobalConfig::default()
            },
        );
        assert!(
            aware.metrics.total_vertex_overflow <= blind.metrics.total_vertex_overflow,
            "aware {} vs blind {}",
            aware.metrics.total_vertex_overflow,
            blind.metrics.total_vertex_overflow
        );
    }

    #[test]
    fn wirelength_accounts_tile_size() {
        let (c, plan) = tiny_circuit(vec![Net::new("a", vec![pin(1, 1), pin(80, 1)])]);
        let res = route_circuit(&c, &plan, &GlobalConfig::default());
        assert_eq!(
            res.metrics.wirelength,
            res.routes[0].edges.len() as u64 * 15
        );
    }

    #[test]
    fn step_cost_saturates_instead_of_poisoning() {
        // ψ is exponential: near-capacity demand overflows f64 to +inf.
        let blocked = psi(u32::MAX - 1, 1);
        assert!(blocked.is_infinite());
        let c = fixed_cost(blocked + 1.0);
        // The fixed-point cost stays finite and far below u64::MAX, so
        // accumulating it along a path can never wrap the total cost.
        assert!(c < u64::MAX / 1_000_000, "cost {c} too close to u64::MAX");
        assert_eq!(c, fixed_cost(f64::INFINITY));
        assert_eq!(fixed_cost(-1.0), 0);
        assert_eq!(fixed_cost(2.5), 2560);
    }

    #[test]
    fn near_capacity_demand_still_routes_without_overflow() {
        // Saturate every edge close to the u32 demand ceiling and route
        // across the whole graph: before the saturating-cost fix this
        // overflowed the accumulated path cost (debug panic / release
        // wraparound that made blocked edges look free).
        let outline = Rect::new(0, 0, 89, 59);
        let plan = StitchPlan::new(outline, StitchConfig::default());
        let config = GlobalConfig::default();
        let graph = TileGraph::new(outline, config.tile_size, 3, &plan, true);
        let mut state = State::new(&graph);
        for d in &mut state.h_demand {
            *d = u32::MAX - 1;
        }
        for d in &mut state.v_demand {
            *d = u32::MAX - 1;
        }
        for d in &mut state.vertex_demand {
            *d = u32::MAX - 1;
        }
        let src = graph.tile_of(Point::new(1, 1));
        let dst = graph.tile_of(Point::new(88, 58));
        let path = astar_tiles(&graph, &state, &config, &[src], dst);
        assert_eq!(path.first(), Some(&src));
        assert_eq!(path.last(), Some(&dst));
        // Manhattan-shortest through a uniformly blocked graph: the clamp
        // keeps costs ordered, so the path cannot wander.
        let expected = tile_dist(&graph, src, dst) as usize + 1;
        assert_eq!(path.len(), expected);
    }

    #[test]
    fn cancelled_token_skips_remaining_nets_consistently() {
        let (c, plan) = tiny_circuit(vec![
            Net::new("a", vec![pin(1, 1), pin(80, 50)]),
            Net::new("b", vec![pin(5, 50), pin(85, 2)]),
        ]);
        let config = GlobalConfig {
            cancel: CancelToken::armed(None, None),
            ..GlobalConfig::default()
        };
        config.cancel.cancel();
        let res = route_circuit(&c, &plan, &config);
        // Every net skipped: empty routes, zero demand, consistent metrics.
        assert!(res.routes.iter().all(|r| r.tiles.is_empty() && r.edges.is_empty()));
        assert_eq!(res.metrics.wirelength, 0);
        let events = config.cancel.take_degradations();
        assert!(events
            .iter()
            .any(|d| d.kind == DegradationKind::BudgetExhausted && d.stage == Stage::Global));
    }

    #[test]
    fn incremental_with_all_preserved_matches_scratch() {
        let (c, plan) = tiny_circuit(vec![
            Net::new("a", vec![pin(1, 1), pin(80, 50)]),
            Net::new("b", vec![pin(5, 50), pin(85, 2)]),
        ]);
        let full = route_circuit(&c, &plan, &GlobalConfig::default());
        let all: Vec<Option<GlobalRoute>> = full.routes.iter().cloned().map(Some).collect();
        let inc = route_incremental(&c, &plan, &GlobalConfig::default(), all.clone());
        assert_eq!(inc.routes, full.routes);
        assert_eq!(inc.metrics, full.metrics);

        let mut partial = all;
        partial[0] = None;
        let inc = route_incremental(&c, &plan, &GlobalConfig::default(), partial);
        assert_eq!(inc.routes[1], full.routes[1]);
        assert!(!inc.routes[0].tiles.is_empty());
        assert_route_connected(&inc.routes[0]);
    }

    #[test]
    fn deterministic() {
        let (c, plan) = tiny_circuit(vec![
            Net::new("a", vec![pin(1, 1), pin(80, 50)]),
            Net::new("b", vec![pin(5, 50), pin(85, 2)]),
        ]);
        let r1 = route_circuit(&c, &plan, &GlobalConfig::default());
        let r2 = route_circuit(&c, &plan, &GlobalConfig::default());
        assert_eq!(r1.routes, r2.routes);
    }
}

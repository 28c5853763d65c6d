//! Merging routed panel fragments back into one `RoutingOutcome`.
//!
//! The merged outcome is assembled by [`RoutingOutcome::rebuild`], the
//! function `mebl-delta` rebuilds a saved outcome with: detailed
//! geometry is the source of truth, the global result is re-derived as
//! a pure function of (empty) per-net routes so the capacity audit holds
//! by construction, tracks stay empty, and the report is recomputed so
//! the published totals always equal the auditor's recount.
//! Panel-internal global planning is *not* reconstructed — it served its
//! purpose inside each fragment job.
//!
//! Cut nets additionally get their seam **bridges** drawn (one
//! three-cell horizontal layer-0 segment per reserved crossing) and
//! then a connectivity self-check with the same union-find model the
//! auditor uses. A cut net whose fragments fail to join degrades to
//! unrouted — geometry cleared, an `InternalFallback` degradation
//! recorded — instead of presenting a disconnected net as routed.

use std::collections::BTreeMap;

use crate::split::{NetPlace, ShardPlan};
use mebl_control::{Degradation, DegradationKind, Stage};
use mebl_geom::{GridPoint, Layer, RouteGeometry, Segment};
use mebl_global::GlobalRoute;
use mebl_netlist::{Circuit, Pin};
use mebl_route::{RouterConfig, RoutingOutcome};

/// The slice of a fragment job's outcome that survives the merge.
///
/// Extracted from an in-process [`RoutingOutcome`] or reconstructed from
/// a worker's canonical outcome text — both yield identical contents,
/// which is what makes the coordinator path byte-identical to the
/// in-process path.
#[derive(Debug, Clone, Default)]
pub struct FragmentOutcome {
    /// Per-fragment-net drawn geometry.
    pub geometry: Vec<RouteGeometry>,
    /// Per-fragment-net routed flags.
    pub routed: Vec<bool>,
    /// Degradations the fragment run recorded, with fragment-local net
    /// indices (remapped onto original net ids during the merge).
    pub degradations: Vec<Degradation>,
}

impl FragmentOutcome {
    /// Extracts the mergeable slice of a routed fragment.
    pub fn from_outcome(outcome: &RoutingOutcome) -> Self {
        Self {
            geometry: outcome.detailed.geometry.clone(),
            routed: outcome.detailed.routed.clone(),
            degradations: outcome.degradations.clone(),
        }
    }
}

/// Merges one routed fragment per panel job back into a full-die
/// outcome for `circuit`.
///
/// `fragments` must be in [`ShardPlan::jobs`] order. `baseline` selects
/// the global-config preset recorded on the merged outcome, mirroring
/// how a saved outcome restores its configuration.
pub fn merge_fragments(
    circuit: &Circuit,
    baseline: bool,
    shard_plan: &ShardPlan,
    fragments: &[FragmentOutcome],
) -> RoutingOutcome {
    let n = circuit.net_count();
    let mut geometry = vec![RouteGeometry::default(); n];
    let mut complete = vec![true; n];
    let mut degradations = Vec::new();

    for (job, frag) in shard_plan.jobs.iter().zip(fragments) {
        for (j, &net_id) in job.members.iter().enumerate() {
            if frag.routed.get(j).copied() != Some(true) {
                complete[net_id] = false;
            }
            if let Some(g) = frag.geometry.get(j) {
                for seg in g.segments() {
                    geometry[net_id].push_segment(*seg);
                }
                for via in g.vias() {
                    geometry[net_id].push_via(*via);
                }
            }
        }
        for d in &frag.degradations {
            let net = d.net.and_then(|j| job.members.get(j).copied());
            degradations.push(Degradation::new(d.stage, d.kind, net, d.detail.clone()));
        }
    }

    // Seam bridges, in (net, line) order.
    for c in &shard_plan.crossings {
        if complete[c.net] {
            geometry[c.net].push_segment(Segment::horizontal(Layer::new(0), c.y, c.x - 1, c.x + 1));
        }
    }

    // A net is routed only when every owning fragment routed it — and,
    // for cut nets, when the bridged union actually connects its pins.
    let mut routed = vec![false; n];
    for (i, net) in circuit.nets().iter().enumerate() {
        if !complete[i] {
            geometry[i] = RouteGeometry::default();
            continue;
        }
        let is_cut = matches!(shard_plan.places.get(i), Some(NetPlace::Cut { .. }));
        if is_cut && !connected(&geometry[i], net.pins()) {
            geometry[i] = RouteGeometry::default();
            degradations.push(Degradation::new(
                Stage::Detailed,
                DegradationKind::InternalFallback,
                Some(i),
                "shard merge: panel fragments failed to join across the seam",
            ));
            continue;
        }
        routed[i] = true;
    }

    RoutingOutcome::rebuild(
        circuit,
        &RouterConfig::preset(baseline, shard_plan.stitch()),
        vec![GlobalRoute::default(); n],
        geometry,
        routed,
        degradations,
    )
}

/// The auditor's electrical model: consecutive cells of one segment and
/// the two layer cells of one via are joined; every pin must land on a
/// drawn cell and all pins must share one component.
fn connected(geometry: &RouteGeometry, pins: &[Pin]) -> bool {
    let mut ids: BTreeMap<GridPoint, usize> = BTreeMap::new();
    let mut parent: Vec<usize> = Vec::new();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    let mut intern = |p: GridPoint, parent: &mut Vec<usize>| -> usize {
        *ids.entry(p).or_insert_with(|| {
            parent.push(parent.len());
            parent.len() - 1
        })
    };

    for seg in geometry.segments() {
        let mut prev: Option<usize> = None;
        for p in seg.points() {
            let id = intern(p, &mut parent);
            if let Some(q) = prev {
                let (ra, rb) = (find(&mut parent, q), find(&mut parent, id));
                if ra != rb {
                    parent[ra] = rb;
                }
            }
            prev = Some(id);
        }
    }
    for via in geometry.vias() {
        let a = intern(GridPoint::new(via.x, via.y, via.lower), &mut parent);
        let b = intern(GridPoint::new(via.x, via.y, via.upper()), &mut parent);
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    }

    let mut root: Option<usize> = None;
    for pin in pins {
        let Some(&id) = ids.get(&pin.position.on_layer(pin.layer)) else {
            return false;
        };
        let r = find(&mut parent, id);
        match root {
            None => root = Some(r),
            Some(r0) if r0 != r => return false,
            Some(_) => {}
        }
    }
    true
}

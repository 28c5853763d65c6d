//! Affected-net closure: which nets must rip up and re-route.
//!
//! The closure is computed against the **prior** outcome's geometry.
//! It must be *complete*: the auditor has no inter-net short check, so
//! a preserved net that actually conflicts with an edit would ship
//! silently. Three rules cover every conflict an edit can create:
//!
//! 1. **Dirty nets** (added or moved) have no or stale geometry.
//! 2. A preserved net whose geometry overlaps an **added blockage**
//!    (blockages are all-layer, so 2-D overlap suffices).
//! 3. A preserved net whose geometry covers a **pin cell** (exact
//!    x, y, layer) of a dirty net — the pin's owner must be able to
//!    occupy that cell.
//!
//! Rules 2 and 3 are answered by one scan over the prior geometry
//! against the edit's query windows, O(items × windows). An edit
//! brings a handful of windows (a blockage rectangle, a dirty net's
//! pin cells), so the scan beats bulk-loading a spatial index over
//! every prior segment and via only to run a few queries against it.
//!
//! Prior-unrouted nets are also re-targeted: ripping nothing up, they
//! get the same second chance a from-scratch route of the edited
//! circuit would give them.

use crate::edit::EditPlan;
use mebl_geom::Rect;
use mebl_route::RoutingOutcome;

/// Computes the set of nets (edited-circuit indices, sorted ascending)
/// that must be ripped up and re-routed.
pub fn affected_nets(prior: &RoutingOutcome, plan: &EditPlan) -> Vec<usize> {
    let n = plan.circuit.net_count();
    // Base-index -> edited-index for surviving nets.
    let base_nets = prior.detailed.geometry.len();
    let mut base_to_new: Vec<Option<usize>> = vec![None; base_nets];
    for (new, origin) in plan.origin.iter().enumerate() {
        if let Some(old) = origin {
            base_to_new[*old] = Some(new);
        }
    }

    let mut affected = vec![false; n];
    for (i, dirty) in plan.dirty.iter().enumerate() {
        if *dirty {
            affected[i] = true;
        }
    }
    // Rule: prior-unrouted surviving nets re-route (a scratch run of
    // the edited circuit would try them again too).
    for (old, new) in base_to_new.iter().enumerate() {
        if let Some(new) = new {
            if !prior.detailed.routed[old] {
                affected[*new] = true;
            }
        }
    }

    // Query windows with the layer they must hit: added blockages match
    // every layer (`None`), a dirty net's pin cells match layer-exactly.
    let mut windows: Vec<(Rect, Option<u8>)> = plan
        .added_blockages
        .iter()
        .map(|&rect| (rect, None))
        .collect();
    for (i, net) in plan.circuit.nets().iter().enumerate() {
        if plan.dirty[i] {
            for pin in net.pins() {
                windows.push((Rect::from_point(pin.position), Some(pin.layer.index())));
            }
        }
    }
    if !windows.is_empty() {
        // A piece of geometry spanning layers `lo..=hi` (vias span two)
        // hits a window it overlaps on one of the window's layers.
        let hits = |rect: Rect, lo: u8, hi: u8| {
            windows.iter().any(|&(window, layer)| {
                window.overlaps(rect) && layer.is_none_or(|l| lo <= l && l <= hi)
            })
        };
        for (old, geom) in prior.detailed.geometry.iter().enumerate() {
            let Some(new) = base_to_new[old] else { continue };
            if affected[new] {
                continue;
            }
            affected[new] = geom.segments().iter().any(|seg| {
                let l = seg.layer.index();
                hits(Rect::from_intervals(seg.x_interval(), seg.y_interval()), l, l)
            }) || geom.vias().iter().any(|via| {
                hits(Rect::from_point(via.point()), via.lower.index(), via.upper().index())
            });
        }
    }

    (0..n).filter(|&i| affected[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::{apply_edits, CircuitEdit};
    use mebl_geom::{Layer, Point, RTree};
    use mebl_netlist::{BenchmarkSpec, Circuit, GenerateConfig, Net, Pin};
    use mebl_route::{Router, RouterConfig};
    use mebl_testkit::{Rng, SplitMix64};

    fn pin(x: i32, y: i32, l: u8) -> Pin {
        Pin::new(Point::new(x, y), Layer::new(l))
    }

    #[test]
    fn blockage_overlap_pulls_net_into_closure() {
        // Net "a" runs along y=30; a blockage dropped on its corridor
        // must pull it into the closure, while far-away "b" stays out.
        let circuit = Circuit::new(
            "t",
            Rect::new(0, 0, 79, 79),
            4,
            vec![
                Net::new("a", vec![pin(2, 30, 0), pin(70, 30, 0)]),
                Net::new("b", vec![pin(2, 70, 0), pin(70, 70, 0)]),
            ],
        );
        let prior = Router::new(RouterConfig::stitch_aware()).route(&circuit);
        assert_eq!(prior.report.routed_nets, 2);

        let geom_a = &prior.detailed.geometry[0];
        // Pick a routed cell of "a" away from every pin so the blockage
        // is a legal edit.
        let pins: Vec<Point> = circuit
            .nets()
            .iter()
            .flat_map(|n| n.pins().iter().map(|p| p.position))
            .collect();
        let cell = geom_a
            .segments()
            .iter()
            .flat_map(|s| s.points())
            .map(|gp| Point::new(gp.x, gp.y))
            .find(|p| !pins.contains(p))
            .unwrap();
        let edits = vec![CircuitEdit::AddBlockage {
            rect: Rect::new(cell.x, cell.y, cell.x, cell.y),
        }];
        let plan = apply_edits(&circuit, &edits).unwrap();
        let affected = affected_nets(&prior, &plan);
        assert!(affected.contains(&0));
        assert!(!affected.contains(&1));
    }

    #[test]
    fn added_net_and_covered_pin_owner_both_in_closure() {
        let circuit = Circuit::new(
            "t",
            Rect::new(0, 0, 79, 79),
            4,
            vec![Net::new("a", vec![pin(2, 30, 0), pin(70, 30, 0)])],
        );
        let prior = Router::new(RouterConfig::stitch_aware()).route(&circuit);
        // Drop a new net's pin directly onto a's routed cell.
        let p = prior.detailed.geometry[0]
            .segments()
            .iter()
            .find(|s| s.layer.index() == 0)
            .map(|s| s.endpoints().0);
        let Some(p) = p else {
            // a routed entirely off layer 0: use its pin cell instead.
            panic!("expected some layer-0 geometry for a 2-pin layer-0 net");
        };
        let edits = vec![CircuitEdit::AddNet {
            name: "c".into(),
            pins: vec![pin(p.x, p.y, 0), pin(50, 60, 0)],
        }];
        let plan = apply_edits(&circuit, &edits).unwrap();
        let affected = affected_nets(&prior, &plan);
        assert_eq!(affected, vec![0, 1]);
    }

    #[test]
    fn removed_net_geometry_pulls_nothing() {
        let circuit = Circuit::new(
            "t",
            Rect::new(0, 0, 79, 79),
            4,
            vec![
                Net::new("a", vec![pin(2, 30, 0), pin(70, 30, 0)]),
                Net::new("b", vec![pin(2, 70, 0), pin(70, 70, 0)]),
            ],
        );
        let prior = Router::new(RouterConfig::stitch_aware()).route(&circuit);
        let plan =
            apply_edits(&circuit, &[CircuitEdit::RemoveNet { name: "a".into() }]).unwrap();
        // Removing a net dirties nothing that survives.
        assert!(affected_nets(&prior, &plan).is_empty());
    }

    /// The closure as an R-tree answered it before the scan replaced
    /// it: every prior segment and via bulk-loaded with its owning net
    /// and layer span, then one query per blockage and dirty pin cell.
    fn rtree_closure(prior: &RoutingOutcome, plan: &EditPlan) -> Vec<usize> {
        let n = plan.circuit.net_count();
        let mut base_to_new: Vec<Option<usize>> = vec![None; prior.detailed.geometry.len()];
        for (new, origin) in plan.origin.iter().enumerate() {
            if let Some(old) = origin {
                base_to_new[*old] = Some(new);
            }
        }
        let mut affected = plan.dirty.clone();
        for (old, new) in base_to_new.iter().enumerate() {
            if let Some(new) = new {
                if !prior.detailed.routed[old] {
                    affected[*new] = true;
                }
            }
        }
        let mut items: Vec<(Rect, (usize, u8, u8))> = Vec::new();
        for (net, geom) in prior.detailed.geometry.iter().enumerate() {
            for seg in geom.segments() {
                let l = seg.layer.index();
                let rect = Rect::from_intervals(seg.x_interval(), seg.y_interval());
                items.push((rect, (net, l, l)));
            }
            for via in geom.vias() {
                let rect = Rect::new(via.x, via.y, via.x, via.y);
                items.push((rect, (net, via.lower.index(), via.upper().index())));
            }
        }
        let tree = RTree::bulk_load(items);
        let mut hit = |&(net, _, _): &(usize, u8, u8)| {
            if let Some(new) = base_to_new[net] {
                affected[new] = true;
            }
        };
        for rect in &plan.added_blockages {
            for (_, item) in tree.query(*rect) {
                hit(item);
            }
        }
        for (i, net) in plan.circuit.nets().iter().enumerate() {
            if !plan.dirty[i] {
                continue;
            }
            for pin in net.pins() {
                let l = pin.layer.index();
                for (_, item) in tree.query(Rect::from_point(pin.position)) {
                    if item.1 <= l && l <= item.2 {
                        hit(item);
                    }
                }
            }
        }
        (0..n).filter(|&i| affected[i]).collect()
    }

    /// A random routed cell of the prior outcome, as a pin on its layer:
    /// added pins and blockages drawn here land on preserved geometry,
    /// which is what the closure rules exist to catch. Half the draws
    /// take either end of a via, which reaches the cells of a via stack
    /// that no segment covers.
    fn routed_cell(prior: &RoutingOutcome, rng: &mut SplitMix64) -> Option<Pin> {
        let geom = &prior.detailed.geometry[rng.gen_index(prior.detailed.geometry.len())];
        let (segs, vias) = (geom.segments(), geom.vias());
        let (x, y, layer) = if !vias.is_empty() && (segs.is_empty() || rng.gen_bool(0.5)) {
            let via = &vias[rng.gen_index(vias.len())];
            let layer = if rng.gen_bool(0.5) {
                via.lower
            } else {
                via.upper()
            };
            (via.x, via.y, layer)
        } else if !segs.is_empty() {
            let cells: Vec<_> = segs[rng.gen_index(segs.len())].points().collect();
            let gp = cells[rng.gen_index(cells.len())];
            (gp.x, gp.y, gp.layer)
        } else {
            return None;
        };
        Some(Pin::new(Point::new(x, y), layer))
    }

    /// One seeded edit list of `len` edits over the four kinds a delta
    /// run sees (add-net, remove-net, move-net, add-blockage), each
    /// kept only if `apply_edits` admits the list so far.
    fn seeded_edits(
        base: &Circuit,
        prior: &RoutingOutcome,
        rng: &mut SplitMix64,
        len: usize,
    ) -> Vec<CircuitEdit> {
        let outline = base.outline();
        let nets = base.nets();
        let mut edits: Vec<CircuitEdit> = Vec::new();
        let mut fresh = 0;
        for _ in 0..len * 20 {
            if edits.len() == len {
                break;
            }
            let edit = match rng.gen_index(4) {
                0 => {
                    let mut pins = Vec::new();
                    for _ in 0..2 + rng.gen_index(2) {
                        let pin = match routed_cell(prior, rng) {
                            Some(p) if rng.gen_bool(0.5) => p,
                            _ => {
                                let x = rng.gen_range(outline.x0()..=outline.x1());
                                let y = rng.gen_range(outline.y0()..=outline.y1());
                                let l = rng.gen_index(usize::from(base.layer_count()));
                                Pin::new(Point::new(x, y), Layer::new(l as u8))
                            }
                        };
                        pins.push(pin);
                    }
                    fresh += 1;
                    CircuitEdit::AddNet {
                        name: format!("closure_fresh_{fresh}"),
                        pins,
                    }
                }
                1 => CircuitEdit::RemoveNet {
                    name: nets[rng.gen_index(nets.len())].name().to_string(),
                },
                2 => CircuitEdit::MoveNet {
                    name: nets[rng.gen_index(nets.len())].name().to_string(),
                    dx: rng.gen_range(-3i32..=3),
                    dy: rng.gen_range(-3i32..=3),
                },
                _ => {
                    let Some(at) = routed_cell(prior, rng) else { continue };
                    let (w, h) = (rng.gen_range(0i32..=3), rng.gen_range(0i32..=3));
                    let (x, y) = (at.position.x, at.position.y);
                    CircuitEdit::AddBlockage {
                        rect: Rect::new(x, y, x + w, y + h),
                    }
                }
            };
            edits.push(edit);
            if apply_edits(base, &edits).is_err() {
                edits.pop();
            }
        }
        edits
    }

    #[test]
    fn scan_closure_matches_rtree_closure_on_seeded_edits() {
        let config = RouterConfig::stitch_aware();
        for (name, seed) in [("S5378", 1), ("S9234", 2), ("S13207", 3)] {
            let base = BenchmarkSpec::by_name(name)
                .expect("known benchmark")
                .generate(&GenerateConfig::quick(seed));
            let prior = Router::new(config.clone()).route(&base);
            let tenth = base.net_count().div_ceil(10);
            let mut rng = SplitMix64::from_seed(0xc105_0e00 ^ seed);
            let mut pulled = 0;
            for len in [1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 5, 8, tenth / 2, tenth, tenth] {
                let edits = seeded_edits(&base, &prior, &mut rng, len);
                let plan = apply_edits(&base, &edits).expect("seeded edits apply");
                let scan = affected_nets(&prior, &plan);
                assert_eq!(scan, rtree_closure(&prior, &plan), "{name}: {edits:?}");
                // Lists whose closure reaches past the dirty nets, i.e.
                // where the blockage or pin-cell rule fired.
                pulled += usize::from(scan.iter().any(|&i| !plan.dirty[i]));
            }
            assert!(
                pulled >= 4,
                "{name}: only {pulled} edit lists pulled in a preserved net"
            );
        }
    }
}

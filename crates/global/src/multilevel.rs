//! The bottom-up multilevel routing order (paper §II-B).
//!
//! The two-pass bottom-up framework of \[3\] iteratively groups routing
//! tiles into larger tiles; a net becomes *local* at the first level whose
//! tiles contain its whole pin bounding box, and local nets are routed
//! before the coarsening proceeds. Level 0 is the base tile grid and each
//! level merges 2×2 tiles, so the router only needs each net's level to
//! order the nets.

use crate::TileGraph;
use mebl_netlist::{Circuit, Net};

/// Bottom-up routing order: all level-0 (local) nets first, then level 1,
/// and so on — ties broken by net id.
pub(crate) fn bottom_up_order(circuit: &Circuit, graph: &TileGraph) -> Vec<usize> {
    let levels: Vec<u32> = circuit
        .nets()
        .iter()
        .map(|net| net_level(net, graph))
        .collect();
    let mut order: Vec<usize> = (0..circuit.net_count()).collect();
    order.sort_by_key(|&i| (levels[i], i));
    order
}

/// The level at which `net` becomes local: the smallest k such that its
/// bounding box fits inside one aligned (2^k × 2^k)-base-tile super tile.
fn net_level(net: &Net, graph: &TileGraph) -> u32 {
    let bb = net.bounding_box();
    let a = graph.tile_of(mebl_geom::Point::new(bb.x0(), bb.y0()));
    let b = graph.tile_of(mebl_geom::Point::new(bb.x1(), bb.y1()));
    let (ac, ar) = graph.tile_coords(a);
    let (bc, br) = graph.tile_coords(b);
    let mut k = 0u32;
    while (ac >> k) != (bc >> k) || (ar >> k) != (br >> k) {
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_geom::{Layer, Point, Rect};
    use mebl_netlist::Pin;
    use mebl_stitch::{StitchConfig, StitchPlan};

    fn pin(x: i32, y: i32) -> Pin {
        Pin::new(Point::new(x, y), Layer::new(0))
    }

    /// A 120×120 outline in 15-pitch tiles: 8×8 base tiles, levels 0..=3.
    fn setup(nets: Vec<Net>) -> (Circuit, TileGraph) {
        let outline = Rect::new(0, 0, 119, 119);
        let plan = StitchPlan::new(outline, StitchConfig::default());
        let c = Circuit::new("t", outline, 3, nets);
        let g = TileGraph::new(outline, 15, 3, &plan, true);
        (c, g)
    }

    #[test]
    fn local_net_is_level_zero() {
        let (c, g) = setup(vec![Net::new("a", vec![pin(1, 1), pin(5, 9)])]);
        assert_eq!(net_level(&c.nets()[0], &g), 0);
    }

    #[test]
    fn chip_spanning_net_is_top_level() {
        let (c, g) = setup(vec![Net::new("a", vec![pin(0, 0), pin(119, 119)])]);
        assert_eq!(net_level(&c.nets()[0], &g), 3);
    }

    #[test]
    fn order_is_bottom_up() {
        let (c, g) = setup(vec![
            Net::new("global", vec![pin(0, 0), pin(119, 119)]),
            Net::new("local", vec![pin(2, 2), pin(6, 6)]),
            Net::new("mid", vec![pin(2, 2), pin(40, 40)]),
        ]);
        // Levels 3, 0 and 2: the local net first, the chip-spanning last.
        assert_eq!(bottom_up_order(&c, &g), [1, 2, 0]);
    }

    #[test]
    fn crossing_a_tile_boundary_raises_level() {
        // Pins in adjacent tiles with unaligned boundary: (14,0) is tile 0,
        // (16,0) is tile 1; they merge at level 1.
        let (c, g) = setup(vec![Net::new("a", vec![pin(14, 1), pin(16, 1)])]);
        assert_eq!(net_level(&c.nets()[0], &g), 1);
    }
}

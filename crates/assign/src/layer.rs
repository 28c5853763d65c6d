//! Layer assignment by max-cut k-coloring of the conflict graph.

use crate::ConflictGraph;
use mebl_graph::{
    max_weight_k_colorable, maximum_spanning_tree, min_cost_perfect_matching, Edge,
    WeightedInterval,
};

/// Cost of a k-coloring of the conflict graph: the total weight of edges
/// whose endpoints share a colour (smaller is better; the max-cut
/// objective is its complement).
///
/// # Panics
///
/// Panics if `colors` is shorter than the vertex count.
pub fn assignment_cost(graph: &ConflictGraph, colors: &[usize]) -> i64 {
    assert!(colors.len() >= graph.len(), "missing colours");
    graph
        .edges
        .iter()
        .filter(|&&(i, j, _)| colors[i] == colors[j])
        .map(|&(_, _, w)| w)
        .sum()
}

/// The baseline heuristic of Chen et al. \[4\]: build a maximum spanning
/// tree of the conflict graph and colour the tree by level (`depth mod k`).
///
/// Exact for `k = 2` in spirit (a tree is 2-colorable with zero internal
/// conflict), but degrades as `k` grows because only tree edges are
/// considered — the effect Table VI quantifies.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn layer_assign_mst(graph: &ConflictGraph, k: usize) -> Vec<usize> {
    assert!(k > 0);
    let n = graph.len();
    let edges: Vec<Edge> = graph
        .edges
        .iter()
        .map(|&(i, j, w)| Edge::new(i, j, w))
        .collect();
    let picked = maximum_spanning_tree(n, &edges);

    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &e in &picked {
        let Edge { u, v, .. } = edges[e];
        adj[u].push(v);
        adj[v].push(u);
    }

    // BFS each tree from its smallest-index root; colour = depth mod k.
    let mut colors = vec![usize::MAX; n];
    for root in 0..n {
        if colors[root] != usize::MAX {
            continue;
        }
        colors[root] = 0;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if colors[v] == usize::MAX {
                    colors[v] = (colors[u] + 1) % k;
                    queue.push_back(v);
                }
            }
        }
    }
    colors
}

/// The paper's heuristic: iteratively extract the maximum-weight
/// k-colorable vertex subset (vertex weight = incident conflict weight in
/// the *remaining* graph, solved exactly on interval graphs via min-cost
/// flow), then merge the subset's colour groups into the accumulated
/// groups with a minimum-weight perfect bipartite matching (Fig. 9(c)–(e)).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn layer_assign_ours(graph: &ConflictGraph, k: usize) -> Vec<usize> {
    assert!(k > 0);
    let n = graph.len();
    let mut colors = vec![usize::MAX; n];
    let mut remaining: Vec<bool> = vec![true; n];
    let mut remaining_count = n;
    // Accumulated colour groups (k of them).
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut first = true;

    while remaining_count > 0 {
        // Vertex weights over the remaining graph (+1 so isolated vertices
        // are still selected — selecting them is free and maximises use of
        // each extraction round).
        let mut weight = vec![1i64; n];
        for &(i, j, w) in &graph.edges {
            if remaining[i] && remaining[j] {
                weight[i] += w;
                weight[j] += w;
            }
        }
        let idx: Vec<usize> = (0..n).filter(|&i| remaining[i]).collect();
        let ivs: Vec<WeightedInterval> = idx
            .iter()
            .map(|&i| {
                let s = graph.intervals[i];
                WeightedInterval::new(i64::from(s.lo), i64::from(s.hi), weight[i])
            })
            .collect();
        let sel = max_weight_k_colorable(&ivs, k);
        assert!(
            !sel.selected.is_empty(),
            "k-colorable selection cannot be empty while vertices remain"
        );

        // Colour groups of this round's selection.
        let mut new_groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (slot, &local) in sel.selected.iter().enumerate() {
            new_groups[sel.colors[slot]].push(idx[local]);
        }
        for &local in &sel.selected {
            remaining[idx[local]] = false;
            remaining_count -= 1;
        }

        if first {
            groups = new_groups;
            first = false;
        } else {
            // Merge with minimum total conflict weight between groups.
            let cost: Vec<Vec<i64>> = (0..k)
                .map(|gi| {
                    (0..k)
                        .map(|gj| conflict_between(graph, &groups[gi], &new_groups[gj]))
                        .collect()
                })
                .collect();
            let (assign, _) = min_cost_perfect_matching(&cost);
            for (gi, &gj) in assign.iter().enumerate() {
                let members = std::mem::take(&mut new_groups[gj]);
                groups[gi].extend(members);
            }
        }
    }

    for (color, group) in groups.iter().enumerate() {
        for &v in group {
            colors[v] = color;
        }
    }
    debug_assert!(colors.iter().all(|&c| c < k));
    colors
}

/// Total conflict-edge weight between two vertex sets.
fn conflict_between(graph: &ConflictGraph, a: &[usize], b: &[usize]) -> i64 {
    graph
        .edges
        .iter()
        .filter(|&&(i, j, _)| {
            (a.contains(&i) && b.contains(&j)) || (a.contains(&j) && b.contains(&i))
        })
        .map(|&(_, _, w)| w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegmentInterval;
    use mebl_testkit::prop::{ints, vecs};
    use mebl_testkit::{prop_assert, prop_assert_eq, prop_check};

    fn graph(ivs: &[(u32, u32)], rows: u32) -> ConflictGraph {
        let ivs: Vec<SegmentInterval> =
            ivs.iter().map(|&(a, b)| SegmentInterval::new(a, b)).collect();
        ConflictGraph::build(&ivs, rows, true)
    }

    #[test]
    fn fig9_style_example_ours_beats_mst() {
        // A clique-ish pattern where tree colouring wastes colours: five
        // segments stacked over a common tile window.
        let g = graph(&[(0, 6), (0, 3), (2, 5), (3, 6), (1, 4)], 8);
        for k in 2..=4 {
            let ours = layer_assign_ours(&g, k);
            let mst = layer_assign_mst(&g, k);
            assert!(
                assignment_cost(&g, &ours) <= assignment_cost(&g, &mst),
                "k={k}: ours {} vs mst {}",
                assignment_cost(&g, &ours),
                assignment_cost(&g, &mst)
            );
        }
    }

    #[test]
    fn enough_colors_gives_zero_cost() {
        // Max density 3: with k = 3 a perfect assignment exists and the
        // exact subset extraction finds it in one round.
        let g = graph(&[(0, 4), (1, 3), (2, 2)], 6);
        let ours = layer_assign_ours(&g, 3);
        assert_eq!(assignment_cost(&g, &ours), 0);
    }

    #[test]
    fn disjoint_segments_any_k_zero_cost() {
        let g = graph(&[(0, 1), (3, 4), (6, 7)], 9);
        for algo in [layer_assign_mst, layer_assign_ours] {
            let colors = algo(&g, 2);
            assert_eq!(assignment_cost(&g, &colors), 0);
        }
    }

    #[test]
    fn all_vertices_colored_within_k() {
        let g = graph(&[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5, 5)], 7);
        for k in 1..=4 {
            for colors in [layer_assign_mst(&g, k), layer_assign_ours(&g, k)] {
                assert_eq!(colors.len(), g.len());
                assert!(colors.iter().all(|&c| c < k), "k={k}, colors={colors:?}");
            }
        }
    }

    #[test]
    fn empty_graph_ok() {
        let g = graph(&[], 4);
        assert!(layer_assign_ours(&g, 3).is_empty());
        assert!(layer_assign_mst(&g, 3).is_empty());
    }

    #[test]
    fn mst_two_coloring_of_a_path_is_perfect() {
        // Path-shaped conflicts: 0-1, 1-2, 2-3 (chained overlaps).
        let g = graph(&[(0, 2), (2, 4), (4, 6), (6, 8)], 9);
        let colors = layer_assign_mst(&g, 2);
        assert_eq!(assignment_cost(&g, &colors), 0);
    }

    /// On random instances, the paper's heuristic never loses to MST
    /// by more than a small factor, and never produces invalid colours.
    #[test]
    fn prop_ours_valid_and_competitive() {
        prop_check!(
            (ints(2usize..5), vecs((ints(0u32..12), ints(0u32..12)), 1..14)),
            |(k, raw)| {
                let ivs: Vec<SegmentInterval> = raw
                    .into_iter()
                    .map(|(a, b)| SegmentInterval::new(a.min(b), a.max(b)))
                    .collect();
                let g = ConflictGraph::build(&ivs, 12, true);
                let ours = layer_assign_ours(&g, k);
                let mst = layer_assign_mst(&g, k);
                prop_assert!(ours.iter().all(|&c| c < k));
                prop_assert!(mst.iter().all(|&c| c < k));
                // Both must colour every vertex.
                prop_assert_eq!(ours.len(), g.len());
            }
        );
    }
}

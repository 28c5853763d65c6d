//! Known-answer and invariant tests for the `mebl-graph` optimisation
//! kernels, exercised through the public API: min-cost max-flow (flow
//! conservation, capacity bounds, residual maximality), the
//! Carlisle–Lloyd maximum-weight k-colorable interval selection
//! (k-colorability, monotonicity in k, brute-force optimality), the
//! Hungarian assignment solver (permutation validity, brute-force
//! optimality), and the dense-grid search primitives behind the Dial
//! detailed router: [`BucketQueue`] against a reference binary heap,
//! [`GridWindow`] clamping, and grid node/coordinate round-trips.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, BTreeMap};

use mebl_detailed::{DetailedGrid, GridWindow};
use mebl_geom::{GridPoint, Layer, Rect};
use mebl_graph::{
    max_weight_k_colorable, min_cost_perfect_matching, BucketQueue, ColorableSelection,
    MinCostFlow, WeightedInterval,
};
use mebl_testkit::prop::{ints, vecs};
use mebl_testkit::{prop_assert, prop_assert_eq, prop_check};

#[test]
fn mcmf_known_answer_from_docs() {
    // The module's doc example: three augmenting paths, flow 3, cost 8.
    let mut net = MinCostFlow::new(4);
    let (s, t) = (0, 3);
    net.add_edge(s, 1, 2, 1);
    net.add_edge(s, 2, 1, 2);
    net.add_edge(1, t, 1, 1);
    net.add_edge(1, 2, 1, 1);
    net.add_edge(2, t, 2, 1);
    assert_eq!(net.flow(s, t, i64::MAX), (3, 8));
}

/// Whether `t` is reachable from `s` in the residual graph of `edges`
/// with the given per-edge flows (forward residual `cap - f`, reverse
/// residual `f`).
fn residual_reaches(n: usize, edges: &[(usize, usize, i64)], flows: &[i64], s: usize, t: usize) -> bool {
    let mut seen = vec![false; n];
    seen[s] = true;
    let mut queue = vec![s];
    while let Some(u) = queue.pop() {
        for (&(a, b, cap), &f) in edges.iter().zip(flows) {
            let step = |to: usize, seen: &mut Vec<bool>, queue: &mut Vec<usize>| {
                if !seen[to] {
                    seen[to] = true;
                    queue.push(to);
                }
            };
            if a == u && f < cap {
                step(b, &mut seen, &mut queue);
            }
            if b == u && f > 0 {
                step(a, &mut seen, &mut queue);
            }
        }
    }
    seen[t]
}

/// On random networks, the returned flow conserves at every interior
/// node, respects capacities, delivers exactly `total` into the sink,
/// and is maximum (the residual graph has no augmenting s-t path).
#[test]
fn prop_mcmf_conserves_flow_and_is_maximum() {
    prop_check!(
        (
            ints(2usize..8),
            vecs((ints(0usize..8), ints(0usize..8), ints(1i64..5), ints(0i64..10)), 1..20)
        ),
        |(n, raw)| {
            let edges: Vec<(usize, usize, i64)> = raw
                .iter()
                .map(|&(u, v, cap, _)| (u % n, v % n, cap))
                .filter(|&(u, v, _)| u != v)
                .collect();
            let costs: Vec<i64> = raw
                .iter()
                .filter(|&&(u, v, _, _)| u % n != v % n)
                .map(|&(_, _, _, c)| c)
                .collect();
            let (s, t) = (0, n - 1);
            let mut net = MinCostFlow::new(n);
            let ids: Vec<_> = edges
                .iter()
                .zip(&costs)
                .map(|(&(u, v, cap), &c)| net.add_edge(u, v, cap, c))
                .collect();
            let (total, _) = net.flow(s, t, i64::MAX);
            let flows: Vec<i64> = ids.iter().map(|&id| net.edge_flow(id)).collect();

            let mut balance = vec![0i64; n];
            for (&(u, v, cap), &f) in edges.iter().zip(&flows) {
                prop_assert!(0 <= f && f <= cap, "flow {} outside [0, {}]", f, cap);
                balance[u] -= f;
                balance[v] += f;
            }
            prop_assert_eq!(balance[s], -total, "source emits the total");
            prop_assert_eq!(balance[t], total, "sink absorbs the total");
            for (node, &b) in balance.iter().enumerate().take(n - 1).skip(1) {
                prop_assert_eq!(b, 0, "conservation at node {}", node);
            }
            prop_assert!(
                !residual_reaches(n, &edges, &flows, s, t),
                "augmenting path left: flow {} is not maximum",
                total
            );
        }
    );
}

#[test]
fn carlisle_lloyd_known_answer_from_docs() {
    // Three pairwise-overlapping intervals, k = 2: drop the lightest.
    let iv = [
        WeightedInterval::new(0, 10, 3),
        WeightedInterval::new(0, 10, 5),
        WeightedInterval::new(0, 10, 4),
    ];
    let sel = max_weight_k_colorable(&iv, 2);
    assert_eq!(sel.total_weight, 9);
    assert_eq!(sel.selected, vec![1, 2]);
}

/// Asserts the selection is a valid k-coloring: every color below `k`,
/// no two same-colored intervals overlapping.
fn assert_k_colorable(intervals: &[WeightedInterval], k: usize, sel: &ColorableSelection) {
    assert_eq!(sel.selected.len(), sel.colors.len());
    for (slot, &c) in sel.colors.iter().enumerate() {
        assert!(c < k, "color {c} out of range (k = {k})");
        for other in slot + 1..sel.colors.len() {
            if sel.colors[other] == c {
                assert!(
                    !intervals[sel.selected[slot]].overlaps(&intervals[sel.selected[other]]),
                    "same-color overlap at color {c}"
                );
            }
        }
    }
}

/// Exhaustive optimum over all subsets whose max overlap stays <= k.
fn brute_force_best(intervals: &[WeightedInterval], k: usize) -> i64 {
    let n = intervals.len();
    let mut best = 0i64;
    'subset: for mask in 0u32..(1 << n) {
        let chosen: Vec<&WeightedInterval> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| &intervals[i])
            .collect();
        let mut w = 0i64;
        for iv in &chosen {
            w += iv.weight;
            let cover = chosen.iter().filter(|o| o.lo <= iv.lo && iv.lo <= o.hi).count();
            if cover > k {
                continue 'subset;
            }
        }
        best = best.max(w);
    }
    best
}

/// The selection is always properly k-colorable, its weight matches the
/// brute-force optimum, is monotone in k, and saturates to "everything"
/// once k covers the instance.
#[test]
fn prop_k_colorable_selection_invariants() {
    prop_check!(
        vecs((ints(0i64..12), ints(0i64..12), ints(1i64..9)), 1..8),
        |raw| {
            let iv: Vec<WeightedInterval> = raw
                .into_iter()
                .map(|(a, b, w)| WeightedInterval::new(a, b, w))
                .collect();
            let mut previous = 0i64;
            for k in 1..=4usize {
                let sel = max_weight_k_colorable(&iv, k);
                assert_k_colorable(&iv, k, &sel);
                prop_assert_eq!(
                    sel.total_weight,
                    brute_force_best(&iv, k),
                    "suboptimal at k = {}",
                    k
                );
                prop_assert!(sel.total_weight >= previous, "weight dropped as k grew");
                previous = sel.total_weight;
            }
            // All weights are positive, so k >= n admits every interval.
            let everything = max_weight_k_colorable(&iv, iv.len());
            let all: i64 = iv.iter().map(|i| i.weight).sum();
            prop_assert_eq!(everything.total_weight, all);
        }
    );
}

#[test]
fn hungarian_known_answer_from_docs() {
    let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
    let (assign, total) = min_cost_perfect_matching(&cost);
    assert_eq!(total, 5); // 1 + 2 + 2
    assert_eq!(assign, vec![1, 0, 2]);
}

/// Exhaustive assignment optimum by recursion over permutations.
fn brute_force_matching(cost: &[Vec<i64>]) -> i64 {
    fn rec(cost: &[Vec<i64>], row: usize, used: &mut Vec<bool>) -> i64 {
        if row == cost.len() {
            return 0;
        }
        let mut best = i64::MAX;
        for j in 0..cost.len() {
            if !used[j] {
                used[j] = true;
                best = best.min(cost[row][j] + rec(cost, row + 1, used));
                used[j] = false;
            }
        }
        best
    }
    rec(cost, 0, &mut vec![false; cost.len()])
}

/// The Hungarian result is a permutation and matches the brute-force
/// optimum up to n = 6, negative costs included.
#[test]
fn prop_matching_is_an_optimal_permutation() {
    prop_check!(
        (ints(1usize..7), vecs(ints(-30i64..30), 36usize)),
        |(n, values)| {
            let cost: Vec<Vec<i64>> = (0..n)
                .map(|i| (0..n).map(|j| values[i * 6 + j]).collect())
                .collect();
            let (assign, total) = min_cost_perfect_matching(&cost);
            let mut seen = vec![false; n];
            for &j in &assign {
                prop_assert!(j < n && !seen[j], "not a permutation: {:?}", assign);
                seen[j] = true;
            }
            let recount: i64 = (0..n).map(|i| cost[i][assign[i]]).sum();
            prop_assert_eq!(total, recount, "reported total disagrees with the assignment");
            prop_assert_eq!(total, brute_force_matching(&cost));
        }
    );
}

/// Replays one generated op script against a [`BucketQueue`], returning
/// the full `(key, item)` pop sequence. Each op pushes `key` (clamped to
/// the queue's monotone floor, matching the documented contract) and
/// then pops `pops` entries; the tail drains whatever is left.
fn run_bucket_script(span: u64, ops: &[(u64, u32, usize)]) -> Vec<(u64, u32)> {
    let mut q = BucketQueue::with_span(span);
    let mut out = Vec::new();
    for &(key, item, pops) in ops {
        q.push(key, item);
        for _ in 0..pops {
            if let Some(popped) = q.pop() {
                out.push(popped);
            }
        }
    }
    while let Some(popped) = q.pop() {
        out.push(popped);
    }
    out
}

/// The bucket queue pops the same key sequence as a reference binary
/// heap fed the same script, with the same per-key item multisets.
///
/// Exact item order among equal keys is *not* compared — it is
/// documented as unspecified (LIFO inside the ring window, but overflow
/// redistribution legitimately reorders spilled entries) — so the
/// contract here is what Dial search correctness actually needs: keys
/// come back in non-decreasing order, every pushed item comes back
/// exactly once, and an item never comes back under a different key.
#[test]
fn prop_bucket_queue_matches_reference_heap() {
    prop_check!(
        (
            ints(0u64..24),
            vecs((ints(0u64..90), ints(0u32..10_000), ints(0usize..3)), 1..50)
        ),
        |(span, ops)| {
            // Reference: a plain binary min-heap with the same clamp-to-
            // floor rule applied outside the structure.
            let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            let mut floor = 0u64;
            let mut reference = Vec::new();
            for &(key, item, pops) in &ops {
                heap.push(Reverse((key.max(floor), item)));
                for _ in 0..pops {
                    if let Some(Reverse(popped)) = heap.pop() {
                        floor = popped.0;
                        reference.push(popped);
                    }
                }
            }
            while let Some(Reverse(popped)) = heap.pop() {
                reference.push(popped);
            }

            let bucket = run_bucket_script(span, &ops);
            let keys = |seq: &[(u64, u32)]| seq.iter().map(|&(k, _)| k).collect::<Vec<_>>();
            prop_assert_eq!(
                keys(&bucket),
                keys(&reference),
                "pop key sequences diverge (span {})",
                span
            );
            let by_key = |seq: &[(u64, u32)]| {
                let mut m: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
                for &(k, v) in seq {
                    m.entry(k).or_default().push(v);
                }
                m.values_mut().for_each(|v| v.sort_unstable());
                m
            };
            prop_assert_eq!(
                by_key(&bucket),
                by_key(&reference),
                "per-key item multisets diverge (span {})",
                span
            );
        }
    );
}

/// Replaying the same script yields the same pop sequence, item order
/// included — the queue has no hidden nondeterminism (Dial's thread-count
/// invariance depends on this).
#[test]
fn prop_bucket_queue_is_deterministic() {
    prop_check!(
        (
            ints(0u64..24),
            vecs((ints(0u64..90), ints(0u32..10_000), ints(0usize..3)), 1..50)
        ),
        |(span, ops)| {
            prop_assert_eq!(
                run_bucket_script(span, &ops),
                run_bucket_script(span, &ops),
                "two runs of one script diverged"
            );
        }
    );
}

/// [`GridWindow::clamped`] never leaves the grid, contains the clamped
/// seed box whenever the margin is non-negative, and is monotone in the
/// margin.
#[test]
fn prop_grid_window_clamped_stays_in_bounds() {
    prop_check!(
        (
            ints(1u32..60),
            ints(1u32..60),
            vecs(ints(-80i64..140), 4usize),
            ints(-5i64..(1i64 << 40))
        ),
        |(w, h, bbox, margin)| {
            let bbox = (bbox[0], bbox[1], bbox[2], bbox[3]);
            let win = GridWindow::clamped(w, h, bbox, margin);
            prop_assert!(
                win.x0 <= win.x1 && win.x1 < w && win.y0 <= win.y1 && win.y1 < h,
                "window {:?} escapes the {}x{} grid",
                win,
                w,
                h
            );
            // The clamped corners of the seed box always land inside.
            let cx = |v: i64| v.clamp(0, i64::from(w) - 1) as u32;
            let cy = |v: i64| v.clamp(0, i64::from(h) - 1) as u32;
            prop_assert!(
                win.contains(cx(bbox.0), cy(bbox.1)) && win.contains(cx(bbox.2), cy(bbox.3)),
                "window {:?} lost a corner of {:?}",
                win,
                bbox
            );
            // Widening the margin only grows the window (staged widening
            // on search failure relies on this).
            let wider = GridWindow::clamped(w, h, bbox, margin.saturating_add(7));
            prop_assert!(
                wider.x0 <= win.x0 && win.x1 <= wider.x1 && wider.y0 <= win.y0 && win.y1 <= wider.y1,
                "widening shrank {:?} to {:?}",
                win,
                wider
            );
        }
    );
}

/// Grid node ids and grid points convert back and forth losslessly over
/// arbitrary outlines (non-zero origins included), and node ids stay
/// dense in `0..cell_count`.
#[test]
fn prop_grid_node_point_round_trip() {
    prop_check!(
        (
            ints(-50i32..50),
            ints(-50i32..50),
            ints(1i32..40),
            ints(1i32..40),
            ints(2u8..5),
            vecs(ints(0u64..(1 << 30)), 1..20)
        ),
        |(x0, y0, dw, dh, layers, picks)| {
            let grid = DetailedGrid::new(Rect::new(x0, y0, x0 + dw, y0 + dh), layers);
            let cells = grid.cell_count() as u64;
            prop_assert_eq!(
                cells,
                (dw + 1) as u64 * (dh + 1) as u64 * u64::from(layers),
                "cell count disagrees with the outline"
            );
            for &pick in &picks {
                let node = (pick % cells) as u32;
                let p = grid.point(node);
                prop_assert_eq!(grid.node(p), node, "node -> point -> node moved");
                prop_assert!(
                    grid.outline().contains(p.point()) && p.layer.index() < layers,
                    "point {:?} of node {} escapes the outline",
                    p,
                    node
                );
                // And the reverse orientation: a point built from local
                // coordinates survives point -> node -> point.
                let q = GridPoint::new(
                    x0 + (pick % (dw as u64 + 1)) as i32,
                    y0 + (pick % (dh as u64 + 1)) as i32,
                    Layer::new((pick % u64::from(layers)) as u8),
                );
                prop_assert_eq!(grid.point(grid.node(q)), q, "point -> node -> point moved");
            }
        }
    );
}

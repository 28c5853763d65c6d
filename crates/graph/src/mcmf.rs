//! Min-cost max-flow via successive shortest paths with potentials.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Opaque handle to an edge added with [`MinCostFlow::add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

#[derive(Debug, Clone)]
struct Arc {
    to: usize,
    cap: i64,
    cost: i64,
}

/// A min-cost max-flow network with `i64` capacities and costs.
///
/// Negative arc costs are supported (needed by the Carlisle–Lloyd
/// k-colorable-subset reduction, whose interval arcs carry cost `-weight`):
/// an initial Bellman–Ford pass establishes valid potentials, after which
/// Dijkstra with reduced costs is used per augmentation.
///
/// ```
/// use mebl_graph::MinCostFlow;
/// let mut net = MinCostFlow::new(4);
/// let s = 0; let t = 3;
/// net.add_edge(s, 1, 2, 1);
/// net.add_edge(s, 2, 1, 2);
/// net.add_edge(1, t, 1, 1);
/// net.add_edge(1, 2, 1, 1);
/// net.add_edge(2, t, 2, 1);
/// let (flow, cost) = net.flow(s, t, i64::MAX);
/// assert_eq!(flow, 3);
/// assert_eq!(cost, 8); // paths s-1-t (2), s-1-2-t (3), s-2-t (3)
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    arcs: Vec<Arc>,
    adj: Vec<Vec<usize>>,
}

impl MinCostFlow {
    /// Creates an empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            arcs: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Adds a directed edge `from -> to` and its residual reverse edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `cap < 0`.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> EdgeId {
        assert!(from < self.adj.len() && to < self.adj.len(), "node out of range");
        assert!(cap >= 0, "negative capacity");
        let id = self.arcs.len();
        self.adj[from].push(id);
        self.arcs.push(Arc { to, cap, cost });
        self.adj[to].push(id + 1);
        self.arcs.push(Arc {
            to: from,
            cap: 0,
            cost: -cost,
        });
        EdgeId(id)
    }

    /// Flow currently routed through `edge`.
    pub fn edge_flow(&self, edge: EdgeId) -> i64 {
        // Flow on the forward arc equals residual capacity of the reverse arc.
        self.arcs[edge.0 + 1].cap
    }

    /// Sends up to `limit` units of flow from `s` to `t` along successively
    /// cheapest augmenting paths. Returns `(flow, total_cost)`.
    ///
    /// Augmentation stops early once the cheapest path exists no more, even
    /// if `limit` has not been reached, so the returned flow is the true
    /// maximum (capped by `limit`).
    ///
    /// # Panics
    ///
    /// Panics if a negative-cost *cycle* is reachable from `s` (the network
    /// constructions in this workspace never create one).
    pub fn flow(&mut self, s: usize, t: usize, limit: i64) -> (i64, i64) {
        let n = self.adj.len();
        assert!(s < n && t < n, "node out of range");
        // Initial potentials via Bellman-Ford (handles negative arc costs).
        let mut potential = vec![0i64; n];
        if self.arcs.iter().any(|a| a.cost < 0) {
            let mut dist = vec![i64::MAX; n];
            dist[s] = 0;
            for round in 0..n {
                let mut changed = false;
                for u in 0..n {
                    if dist[u] == i64::MAX {
                        continue;
                    }
                    for &ai in &self.adj[u] {
                        let a = &self.arcs[ai];
                        if a.cap > 0 && dist[u] + a.cost < dist[a.to] {
                            dist[a.to] = dist[u] + a.cost;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
                assert!(round + 1 < n, "negative cycle reachable from source");
            }
            for u in 0..n {
                if dist[u] != i64::MAX {
                    potential[u] = dist[u];
                }
            }
        }

        let mut total_flow = 0i64;
        let mut total_cost = 0i64;
        let mut dist = vec![i64::MAX; n];
        let mut prev_arc = vec![usize::MAX; n];
        while total_flow < limit {
            // Dijkstra with reduced costs.
            dist.fill(i64::MAX);
            prev_arc.fill(usize::MAX);
            dist[s] = 0;
            let mut heap = BinaryHeap::new();
            heap.push(Reverse((0i64, s)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for &ai in &self.adj[u] {
                    let a = &self.arcs[ai];
                    if a.cap <= 0 {
                        continue;
                    }
                    let nd = d + a.cost + potential[u] - potential[a.to];
                    debug_assert!(a.cost + potential[u] - potential[a.to] >= 0);
                    if nd < dist[a.to] {
                        dist[a.to] = nd;
                        prev_arc[a.to] = ai;
                        heap.push(Reverse((nd, a.to)));
                    }
                }
            }
            if dist[t] == i64::MAX {
                break;
            }
            for u in 0..n {
                if dist[u] != i64::MAX {
                    potential[u] += dist[u];
                }
            }
            // Bottleneck along the path.
            let mut push = limit - total_flow;
            let mut v = t;
            while v != s {
                let ai = prev_arc[v];
                push = push.min(self.arcs[ai].cap);
                v = self.arcs[ai ^ 1].to;
            }
            // Apply.
            let mut v = t;
            while v != s {
                let ai = prev_arc[v];
                self.arcs[ai].cap -= push;
                self.arcs[ai ^ 1].cap += push;
                total_cost += push * self.arcs[ai].cost;
                v = self.arcs[ai ^ 1].to;
            }
            total_flow += push;
        }
        (total_flow, total_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_testkit::prop::{ints, vecs};
    use mebl_testkit::{prop_assert_eq, prop_check};

    #[test]
    fn simple_two_paths() {
        let mut net = MinCostFlow::new(4);
        net.add_edge(0, 1, 1, 1);
        net.add_edge(0, 2, 1, 10);
        net.add_edge(1, 3, 1, 1);
        net.add_edge(2, 3, 1, 10);
        let (f, c) = net.flow(0, 3, i64::MAX);
        assert_eq!((f, c), (2, 22));
    }

    #[test]
    fn respects_limit() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 10, 3);
        let (f, c) = net.flow(0, 1, 4);
        assert_eq!((f, c), (4, 12));
    }

    #[test]
    fn negative_costs_choose_cheapest() {
        // Two parallel unit edges, one with negative cost; one unit of flow
        // must take the negative edge.
        let mut net = MinCostFlow::new(3);
        let cheap = net.add_edge(0, 1, 1, -5);
        let dear = net.add_edge(0, 1, 1, 5);
        net.add_edge(1, 2, 2, 0);
        let (f, c) = net.flow(0, 2, 1);
        assert_eq!((f, c), (1, -5));
        assert_eq!(net.edge_flow(cheap), 1);
        assert_eq!(net.edge_flow(dear), 0);
    }

    #[test]
    fn disconnected_gives_zero_flow() {
        let mut net = MinCostFlow::new(3);
        net.add_edge(0, 1, 5, 1);
        let (f, c) = net.flow(0, 2, i64::MAX);
        assert_eq!((f, c), (0, 0));
    }

    #[test]
    fn edge_flow_tracks_routed_units() {
        let mut net = MinCostFlow::new(3);
        let a = net.add_edge(0, 1, 3, 1);
        let b = net.add_edge(1, 2, 2, 1);
        let (f, _) = net.flow(0, 2, i64::MAX);
        assert_eq!(f, 2);
        assert_eq!(net.edge_flow(a), 2);
        assert_eq!(net.edge_flow(b), 2);
    }

    /// Brute-force min-cost flow on tiny unit-capacity graphs: enumerate all
    /// subsets of edges forming s-t path systems. For simplicity we compare
    /// against min-cost *single-unit* augmentation: send exactly 1 unit.
    fn brute_force_unit_cheapest_path(
        n: usize,
        edges: &[(usize, usize, i64)],
        s: usize,
        t: usize,
    ) -> Option<i64> {
        // Bellman-Ford shortest path by cost, since caps are 1 and we only
        // send one unit.
        let mut dist = vec![i64::MAX; n];
        dist[s] = 0;
        for _ in 0..n {
            for &(u, v, c) in edges {
                if dist[u] != i64::MAX && dist[u] + c < dist[v] {
                    dist[v] = dist[u] + c;
                }
            }
        }
        (dist[t] != i64::MAX).then_some(dist[t])
    }

    #[test]
    fn prop_single_unit_matches_shortest_path() {
        prop_check!(
            (ints(2usize..7), vecs((ints(0usize..7), ints(0usize..7), ints(0i64..20)), 1..15)),
            |(n, raw)| {
                let edges: Vec<(usize, usize, i64)> = raw
                    .into_iter()
                    .map(|(u, v, c)| (u % n, v % n, c))
                    .filter(|&(u, v, _)| u != v)
                    .collect();
                let mut net = MinCostFlow::new(n);
                for &(u, v, c) in &edges {
                    net.add_edge(u, v, 1, c);
                }
                let (f, c) = net.flow(0, n - 1, 1);
                match brute_force_unit_cheapest_path(n, &edges, 0, n - 1) {
                    Some(best) => {
                        prop_assert_eq!(f, 1);
                        prop_assert_eq!(c, best);
                    }
                    None => prop_assert_eq!(f, 0),
                }
            }
        );
    }
}

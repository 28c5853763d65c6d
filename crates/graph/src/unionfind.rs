//! Disjoint-set forest with path compression and union by rank.

/// A union-find (disjoint-set) structure over `0..n`.
///
/// ```
/// use mebl_graph::UnionFind;
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(!uf.union(1, 0), "already joined");
/// assert_eq!(uf.find(0), uf.find(1));
/// assert_ne!(uf.find(0), uf.find(2));
/// assert_eq!(uf.component_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not below the `n` the structure was created with.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `false` if already joined.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// Number of disjoint sets remaining.
    pub fn component_count(&self) -> usize {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_compress() {
        let mut uf = UnionFind::new(6);
        for i in 0..5 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        let root = uf.find(0);
        for i in 0..6 {
            assert_eq!(uf.find(i), root);
        }
    }

    #[test]
    fn separate_components_stay_separate() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(2, 3);
        assert_eq!(uf.find(0), uf.find(1));
        assert_eq!(uf.find(2), uf.find(3));
        assert_ne!(uf.find(1), uf.find(2));
        assert_eq!(uf.component_count(), 2);
    }

    #[test]
    fn empty_is_empty() {
        let uf = UnionFind::new(0);
        assert_eq!(uf.component_count(), 0);
    }
}

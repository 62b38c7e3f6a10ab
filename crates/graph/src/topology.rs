//! Undirected graph topology backed by a CSR adjacency pattern.

use mg_tensor::Csr;

/// Reusable BFS workspace: epoch-stamped visited marks plus a queue.
///
/// [`Topology::khop`] historically allocated a fresh `vec![usize::MAX; n]`
/// distance array per call, making per-node ego formation O(n²) — fatal at
/// 10⁶ nodes. A `BfsScratch` is allocated once and reused across calls:
/// each traversal bumps `epoch`, so "visited" is `stamp[v] == epoch` and
/// clearing between calls costs nothing.
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    stamp: Vec<u64>,
    dist: Vec<usize>,
    epoch: u64,
    queue: std::collections::VecDeque<usize>,
}

impl BfsScratch {
    /// An empty scratch; arrays grow on first use.
    pub fn new() -> Self {
        BfsScratch::default()
    }

    /// A scratch pre-sized for graphs of `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        BfsScratch {
            stamp: vec![0; n],
            dist: vec![0; n],
            epoch: 0,
            queue: std::collections::VecDeque::new(),
        }
    }

    /// Start a fresh traversal over a graph of `n` nodes: grows the mark
    /// arrays if needed and invalidates all previous marks in O(1).
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
        self.epoch += 1;
        self.queue.clear();
    }
}

/// An undirected, simple graph (no self-loops, no multi-edges).
///
/// The adjacency is stored as a symmetric CSR *pattern*, the only copy of
/// the graph's edges; [`Topology::edges`] reads the unique edge list off
/// its upper triangle. Edge weights, when needed (GCN normalisation,
/// coarsened hyper-graphs), live in separate value vectors so they can be
/// tape variables.
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
    adj: Csr,
}

impl Topology {
    /// Build from an edge list. Self-loops are dropped, duplicates and
    /// reversed duplicates are merged.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, raw: &[(u32, u32)]) -> Self {
        let mut edges: Vec<(u32, u32)> = raw
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        for &(u, v) in &edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range"
            );
        }
        edges.sort_unstable();
        edges.dedup();
        let mut sym: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in &edges {
            sym.push((u, v));
            sym.push((v, u));
        }
        drop(edges);
        Topology {
            n,
            adj: Csr::from_coo(n, n, &sym),
        }
    }

    /// Build from an already-symmetric CSR adjacency pattern (sorted
    /// per-row indices, no self-loops, no duplicates — the invariants a
    /// streaming CSR builder establishes directly). Unlike
    /// [`Topology::from_edges`], this allocates nothing: the CSR is moved
    /// in as the graph's only edge storage after a validating scan.
    ///
    /// # Panics
    /// Panics if the matrix is not square, has a row that is not strictly
    /// ascending, carries a self-loop, or (in debug builds) is not
    /// symmetric.
    pub fn from_symmetric_csr(adj: Csr) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
        let n = adj.rows();
        for r in 0..n {
            let row = adj.row_indices(r);
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {r} is not strictly ascending"
            );
            assert!(
                row.binary_search(&(r as u32)).is_err(),
                "self-loop at node {r}"
            );
        }
        let g = Topology { n, adj };
        assert_eq!(
            g.edges().count() * 2,
            g.adj.nnz(),
            "adjacency pattern is not symmetric"
        );
        #[cfg(debug_assertions)]
        for (u, v) in g.edges() {
            debug_assert!(
                g.has_edge(v as usize, u as usize),
                "missing reverse edge ({v},{u})"
            );
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.nnz() / 2
    }

    /// Unique undirected edges `(u, v)` with `u < v`, sorted: the CSR's
    /// upper triangle, rows ascending.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n).flat_map(move |r| {
            let row = self.adj.row_indices(r);
            let r = r as u32;
            row[row.partition_point(|&c| c <= r)..]
                .iter()
                .map(move |&c| (r, c))
        })
    }

    /// Symmetric adjacency pattern (no self-loops).
    #[inline]
    pub fn adj(&self) -> &Csr {
        &self.adj
    }

    /// Degree of node `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.adj.row_indices(i).len()
    }

    /// Neighbours of node `i`, sorted.
    #[inline]
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj.row_indices(i).iter().map(|&c| c as usize)
    }

    /// True if `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj.row_indices(u).binary_search(&(v as u32)).is_ok()
    }

    /// Mean degree.
    pub fn mean_degree(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        2.0 * self.num_edges() as f64 / self.n as f64
    }

    /// All nodes within `k` hops of `start` (including `start` itself),
    /// sorted ascending.
    ///
    /// Thin wrapper over [`Topology::khop_with`] that pays a one-off
    /// scratch allocation; hot loops (per-node ego formation, neighbour
    /// sampling) should hold a [`BfsScratch`] and call `khop_with`.
    pub fn khop(&self, start: usize, k: usize) -> Vec<usize> {
        let mut scratch = BfsScratch::with_capacity(self.n);
        self.khop_with(&mut scratch, start, k)
    }

    /// As [`Topology::khop`], reusing `scratch` instead of allocating a
    /// distance array per call. Output is byte-identical to `khop`.
    pub fn khop_with(&self, scratch: &mut BfsScratch, start: usize, k: usize) -> Vec<usize> {
        scratch.begin(self.n);
        scratch.stamp[start] = scratch.epoch;
        scratch.dist[start] = 0;
        scratch.queue.push_back(start);
        let mut out = vec![start];
        while let Some(u) = scratch.queue.pop_front() {
            if scratch.dist[u] == k {
                continue;
            }
            for v in self.neighbors(u) {
                if scratch.stamp[v] != scratch.epoch {
                    scratch.stamp[v] = scratch.epoch;
                    scratch.dist[v] = scratch.dist[u] + 1;
                    out.push(v);
                    scratch.queue.push_back(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Connected-component id per node (0-based, in discovery order).
    pub fn connected_components(&self) -> Vec<usize> {
        let mut comp = vec![usize::MAX; self.n];
        let mut next = 0;
        let mut stack = Vec::new();
        for s in 0..self.n {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = next;
            stack.push(s);
            while let Some(u) = stack.pop() {
                for v in self.neighbors(u) {
                    if comp[v] == usize::MAX {
                        comp[v] = next;
                        stack.push(v);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.connected_components()
            .iter()
            .max()
            .map_or(0, |m| m + 1)
    }

    /// Directed edge arrays `(src, dst)` covering both directions of every
    /// edge plus one self-loop per node — the canonical message-passing
    /// index used by attention layers (GAT, AdamGNN fitness scoring).
    pub fn directed_edges_with_self_loops(&self) -> (Vec<usize>, Vec<usize>) {
        let mut src = Vec::with_capacity(self.adj.nnz() + self.n);
        let mut dst = Vec::with_capacity(self.adj.nnz() + self.n);
        for r in 0..self.n {
            for c in self.neighbors(r) {
                src.push(c);
                dst.push(r);
            }
            src.push(r);
            dst.push(r);
        }
        (src, dst)
    }

    /// Induced subgraph over `nodes` (which must be unique); returns the
    /// subgraph and the mapping from new index to old index.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> (Topology, Vec<usize>) {
        let mut new_of = vec![usize::MAX; self.n];
        for (new, &old) in nodes.iter().enumerate() {
            assert!(
                new_of[old] == usize::MAX,
                "induced_subgraph: duplicate node {old}"
            );
            new_of[old] = new;
        }
        let mut edges = Vec::new();
        for (u, v) in self.edges() {
            let (nu, nv) = (new_of[u as usize], new_of[v as usize]);
            if nu != usize::MAX && nv != usize::MAX {
                edges.push((nu as u32, nv as u32));
            }
        }
        (Topology::from_edges(nodes.len(), &edges), nodes.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Topology {
        Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn dedup_and_symmetry() {
        let g = Topology::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(2), 0); // self loop dropped
    }

    #[test]
    fn khop_path() {
        let g = path4();
        assert_eq!(g.khop(0, 1), vec![0, 1]);
        assert_eq!(g.khop(0, 2), vec![0, 1, 2]);
        assert_eq!(g.khop(1, 1), vec![0, 1, 2]);
        assert_eq!(g.khop(0, 0), vec![0]);
    }

    /// The pre-scratch `khop` implementation, kept verbatim as the
    /// regression reference: `khop`/`khop_with` must match it byte for
    /// byte on arbitrary graphs.
    fn khop_reference(g: &Topology, start: usize, k: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; g.n()];
        let mut queue = std::collections::VecDeque::new();
        dist[start] = 0;
        queue.push_back(start);
        let mut out = vec![start];
        while let Some(u) = queue.pop_front() {
            if dist[u] == k {
                continue;
            }
            for v in g.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    out.push(v);
                    queue.push_back(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn khop_with_matches_reference_bytewise() {
        // deterministic pseudo-random graph, all (start, k) combinations,
        // one shared scratch across every call
        let mut edges = Vec::new();
        let mut x = 0x243f6a8885a308d3u64;
        let n = 37;
        for _ in 0..90 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((x >> 33) % n as u64) as u32;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((x >> 33) % n as u64) as u32;
            edges.push((u, v));
        }
        let g = Topology::from_edges(n, &edges);
        let mut scratch = BfsScratch::new();
        for start in 0..n {
            for k in 0..5 {
                let want = khop_reference(&g, start, k);
                assert_eq!(g.khop(start, k), want, "khop({start},{k})");
                assert_eq!(
                    g.khop_with(&mut scratch, start, k),
                    want,
                    "khop_with({start},{k})"
                );
            }
        }
    }

    #[test]
    fn from_symmetric_csr_matches_from_edges() {
        let g = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let rebuilt = Topology::from_symmetric_csr(g.adj().clone());
        assert_eq!(rebuilt.n(), g.n());
        assert!(rebuilt.edges().eq(g.edges()));
        for u in 0..5 {
            assert_eq!(
                rebuilt.neighbors(u).collect::<Vec<_>>(),
                g.neighbors(u).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_symmetric_csr_rejects_self_loops() {
        let adj = Csr::from_coo(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let _ = Topology::from_symmetric_csr(adj);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Topology::from_edges(5, &[(0, 1), (2, 3)]);
        let comp = g.connected_components();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_eq!(g.num_components(), 3); // {0,1}, {2,3}, {4}
    }

    #[test]
    fn directed_edges_include_self_loops() {
        let g = path4();
        let (src, dst) = g.directed_edges_with_self_loops();
        assert_eq!(src.len(), 2 * 3 + 4);
        // every node has a self loop
        for i in 0..4 {
            assert!(src.iter().zip(&dst).any(|(&s, &d)| s == i && d == i));
        }
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = path4();
        let (sub, map) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(map, vec![1, 2, 3]);
        assert!(sub.has_edge(0, 1)); // old (1,2)
    }

    #[test]
    fn mean_degree_path() {
        let g = path4();
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }
}

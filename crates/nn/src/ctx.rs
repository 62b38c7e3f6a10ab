//! Pre-computed per-graph context shared by all models.
//!
//! Building CSR normalisations and edge indices is deterministic and
//! gradient-free, so it happens once per graph rather than once per
//! forward pass.

use mg_graph::{gcn_norm, neighbor_mean, unit_adj, NormAdj, Topology};
use mg_tensor::{Csr, Matrix, SparseMatrix, Tape, Var};
use std::rc::Rc;

/// Everything a GNN forward pass needs about one graph.
#[derive(Clone)]
pub struct GraphCtx {
    pub graph: Rc<Topology>,
    /// The node features' stored pattern (`n x d`), the only copy of
    /// them the context keeps. Shared with every sparse input product
    /// ([`GraphCtx::x_sparse_var`]); densified on demand by
    /// [`GraphCtx::x_var`].
    x_csr: Rc<Csr>,
    /// The stored feature values (`1 x nnz`), aligned with `x_csr`.
    x_values: Rc<Matrix>,
    /// Symmetric GCN normalisation of `A + I`.
    pub gcn: NormAdj,
    /// Mean over neighbours (no self loop) — GraphSAGE aggregation.
    pub nmean: NormAdj,
    /// Unit adjacency (no self loop) — GIN sum aggregation.
    pub unit: NormAdj,
    /// Directed edge endpoints including self loops — attention layers.
    pub edge_src: Rc<Vec<usize>>,
    pub edge_dst: Rc<Vec<usize>>,
}

impl GraphCtx {
    /// Precompute all adjacency forms for `graph` with features `x`,
    /// given sparse or as a dense `Matrix` (stored sparse either way).
    ///
    /// # Panics
    /// Panics if `x.rows() != graph.n()`.
    pub fn new(graph: Topology, x: impl Into<SparseMatrix>) -> Self {
        let x = x.into();
        assert_eq!(x.rows(), graph.n(), "GraphCtx: feature/node count mismatch");
        let gcn = gcn_norm(&graph);
        let nmean = neighbor_mean(&graph);
        let unit = unit_adj(&graph);
        let (src, dst) = graph.directed_edges_with_self_loops();
        let (x_csr, x_values) = x.into_parts();
        GraphCtx {
            graph: Rc::new(graph),
            x_csr: Rc::new(x_csr),
            x_values: Rc::new(Matrix::from_vec(1, x_values.len(), x_values)),
            gcn,
            nmean,
            unit,
            edge_src: Rc::new(src),
            edge_dst: Rc::new(dst),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Feature dimension.
    pub fn feat_dim(&self) -> usize {
        self.x_csr.cols()
    }

    /// The stored features: their pattern and the values aligned with it.
    /// Every entry outside the pattern is `+0.0`.
    pub fn x_sparse(&self) -> (&Csr, &[f64]) {
        (&self.x_csr, self.x_values.data())
    }

    /// Put the dense feature matrix on a tape as a constant, bit for bit
    /// the matrix the context was built from.
    pub fn x_var(&self, tape: &Tape) -> Var {
        tape.constant(self.x_csr.to_dense(self.x_values.data()))
    }

    /// Put the stored feature values on the tape as a constant and return
    /// the pieces `spmm` needs to compute `x·W`, sharing the stored
    /// pattern. The product skips only `x = ±0` terms, so it equals the
    /// dense `matmul` bitwise for finite `W`.
    pub fn x_sparse_var(&self, tape: &Tape) -> (Rc<Csr>, Var) {
        let vals = tape.constant(self.x_values.as_ref().clone());
        (self.x_csr.clone(), vals)
    }

    /// Put an adjacency's values on the tape as a constant and return the
    /// pieces `spmm` needs.
    pub fn adj_var(&self, tape: &Tape, adj: &NormAdj) -> (Rc<Csr>, Var) {
        let vals = tape.constant(Matrix::from_vec(1, adj.values.len(), adj.values.clone()));
        (adj.csr.clone(), vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_builds_all_forms() {
        let g = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let x = Matrix::eye(4);
        let ctx = GraphCtx::new(g, x);
        assert_eq!(ctx.n(), 4);
        assert_eq!(ctx.feat_dim(), 4);
        assert_eq!(ctx.gcn.csr.nnz(), 2 * 3 + 4);
        assert_eq!(ctx.unit.csr.nnz(), 2 * 3);
        assert_eq!(ctx.edge_src.len(), 2 * 3 + 4);
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `x_var` puts on the tape exactly the dense matrix the context was
    /// built from, `-0.0` included, whichever form it was given. (The
    /// tape refuses NaN and ±∞; the sparse round trip of those is tested
    /// in mg-tensor.)
    #[test]
    fn x_var_is_the_dense_features_bitwise() {
        let g = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let vals = [0.0, -0.0, 1.5, 0.0, 0.0, 3.0, -2.0, 0.0, 0.0];
        let x = Matrix::from_vec(3, 3, vals.to_vec());
        let from_dense = GraphCtx::new(g.clone(), x.clone());
        let from_sparse = GraphCtx::new(g, SparseMatrix::from(&x));
        for ctx in [&from_dense, &from_sparse] {
            let tape = Tape::new();
            let xv = ctx.x_var(&tape);
            assert_eq!(bits(&tape.value_cloned(xv)), bits(&x));
            assert_eq!(ctx.feat_dim(), 3);
        }
        let (p, v) = from_dense.x_sparse();
        let (q, w) = from_sparse.x_sparse();
        assert_eq!(p, q);
        let as_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(as_bits(v), as_bits(w));
        assert_eq!(p.nnz(), 4, "-0.0, 1.5, 3.0 and -2.0 are stored");
    }

    /// Every sparse input product reads the one stored pattern.
    #[test]
    fn x_sparse_var_shares_the_stored_pattern() {
        let ctx = GraphCtx::new(Topology::from_edges(4, &[(0, 1)]), Matrix::eye(4));
        let tape = Tape::new();
        let (a, _) = ctx.x_sparse_var(&tape);
        let (b, _) = ctx.x_sparse_var(&tape);
        assert!(Rc::ptr_eq(&a, &b));
        assert!(std::ptr::eq(a.as_ref(), ctx.x_sparse().0));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn ctx_rejects_bad_features() {
        let g = Topology::from_edges(3, &[(0, 1)]);
        let _ = GraphCtx::new(g, Matrix::eye(2));
    }
}

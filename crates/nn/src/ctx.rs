//! Pre-computed per-graph context shared by all models.
//!
//! Building CSR normalisations and edge indices is deterministic and
//! gradient-free, so it happens once per graph rather than once per
//! forward pass.

use mg_graph::{gcn_norm, neighbor_mean, unit_adj, NormAdj, Topology};
use mg_tensor::{Csr, Matrix, Tape, Var};
use std::rc::Rc;

/// Everything a GNN forward pass needs about one graph.
#[derive(Clone)]
pub struct GraphCtx {
    pub graph: Rc<Topology>,
    /// Dense node features. Private so the sparse copy below cannot go
    /// stale: read them through [`GraphCtx::x`].
    x: Matrix,
    /// `x`'s non-zero pattern, for the sparse input product
    /// ([`GraphCtx::x_sparse_var`]).
    x_csr: Rc<Csr>,
    /// `x`'s non-zero values (`1 x nnz`), aligned with `x_csr`.
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
    /// Precompute all adjacency forms for `graph` with features `x`.
    ///
    /// # Panics
    /// Panics if `x.rows() != graph.n()`.
    pub fn new(graph: Topology, x: Matrix) -> Self {
        assert_eq!(x.rows(), graph.n(), "GraphCtx: feature/node count mismatch");
        let gcn = gcn_norm(&graph);
        let nmean = neighbor_mean(&graph);
        let unit = unit_adj(&graph);
        let (src, dst) = graph.directed_edges_with_self_loops();
        let (x_csr, x_values) = Csr::from_dense(&x);
        GraphCtx {
            graph: Rc::new(graph),
            x,
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

    /// Dense node features.
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// Feature dimension.
    pub fn feat_dim(&self) -> usize {
        self.x.cols()
    }

    /// Put the feature matrix on a tape as a constant.
    pub fn x_var(&self, tape: &Tape) -> Var {
        tape.constant(self.x.clone())
    }

    /// Put `x`'s non-zero values on the tape as a constant and return the
    /// pieces `spmm` needs to compute `x·W`. The product skips only
    /// `x = ±0` terms, so it equals the dense `matmul` bitwise for finite
    /// `W` (see `Csr::from_dense`).
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

    #[test]
    #[should_panic(expected = "mismatch")]
    fn ctx_rejects_bad_features() {
        let g = Topology::from_edges(3, &[(0, 1)]);
        let _ = GraphCtx::new(g, Matrix::eye(2));
    }
}

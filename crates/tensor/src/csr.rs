//! Compressed-sparse-row structure.
//!
//! The *structure* (sparsity pattern) is separated from the *values* so
//! that values can live on the autograd tape as a `1 x nnz` variable —
//! AdamGNN's hyper-node formation matrix `S_k` carries learnable fitness
//! scores in its entries, and gradients must reach them.

use crate::matrix::Matrix;
use crate::par;
use std::sync::{Arc, OnceLock};

/// Lazily-built transpose of a [`Csr`] pattern, shared between clones.
///
/// Within each transposed row `c` the source rows stored in `indices`
/// are strictly ascending — the same order in which the serial scatter
/// loop of [`Csr::spmm_t_serial`] visits the entries contributing to
/// output row `c` — which is what lets the parallel transpose kernels
/// keep the bitwise-determinism contract of `par`.
#[derive(Debug)]
struct TransposeCache {
    /// Row pointers of the transposed pattern (`cols + 1` entries).
    indptr: Vec<usize>,
    /// Source-row indices per transposed row, ascending within each row.
    indices: Vec<u32>,
    /// Value permutation: transposed entry `k` reads `values[perm[k]]`
    /// of the original layout (`perm` is a bijection on `0..nnz`).
    perm: Vec<usize>,
}

/// Sparsity pattern of a sparse matrix in CSR layout, without values.
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    /// Transposed pattern, built on first use (`spmm_t` family,
    /// [`Csr::transpose_struct`]). The `Arc` is shared by `Clone`, so a
    /// structure wrapped in `Rc<Csr>` and cloned around a model (e.g.
    /// `NormAdj`, the `S_k` chain) pays the O(nnz) transpose once and
    /// amortises it across every epoch's forward and backward passes.
    tcache: OnceLock<Arc<TransposeCache>>,
}

impl Clone for Csr {
    fn clone(&self) -> Self {
        let tcache = OnceLock::new();
        if let Some(t) = self.tcache.get() {
            let _ = tcache.set(Arc::clone(t));
        }
        Csr {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            tcache,
        }
    }
}

// Equality is structural: the transpose cache is derived data and two
// patterns must compare equal whether or not either has built it.
impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.indptr == other.indptr
            && self.indices == other.indices
    }
}

impl Eq for Csr {}

impl std::fmt::Debug for Csr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Csr")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("indptr", &self.indptr)
            .field("indices", &self.indices)
            .finish_non_exhaustive()
    }
}

impl Csr {
    /// Build from COO triplet positions (duplicates are merged — the
    /// caller's values for duplicated positions must be pre-summed, so we
    /// forbid duplicates instead).
    ///
    /// # Panics
    /// Panics on out-of-range indices or duplicate `(row, col)` entries.
    pub fn from_coo(rows: usize, cols: usize, entries: &[(u32, u32)]) -> Self {
        let mut counts = vec![0usize; rows + 1];
        for &(r, c) in entries {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "coo entry out of range"
            );
            counts[r as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; entries.len()];
        let mut cursor = indptr.clone();
        for &(r, c) in entries {
            let pos = cursor[r as usize];
            indices[pos] = c;
            cursor[r as usize] += 1;
        }
        // Sort column indices within each row for deterministic layout.
        for r in 0..rows {
            indices[indptr[r]..indptr[r + 1]].sort_unstable();
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] != w[1], "duplicate coo entry at row {r}, col {}", w[0]);
            }
        }
        Csr {
            rows,
            cols,
            indptr,
            indices,
            tcache: OnceLock::new(),
        }
    }

    /// Build directly from CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent.
    pub fn from_parts(rows: usize, cols: usize, indptr: Vec<usize>, indices: Vec<u32>) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length");
        assert_eq!(
            *indptr.last().unwrap_or(&0),
            indices.len(),
            "indptr/indices mismatch"
        );
        for w in indptr.windows(2) {
            assert!(w[0] <= w[1], "indptr must be non-decreasing");
        }
        assert!(
            indices.iter().all(|&c| (c as usize) < cols),
            "column index out of range"
        );
        Csr {
            rows,
            cols,
            indptr,
            indices,
            tcache: OnceLock::new(),
        }
    }

    /// The lazily-built transposed pattern (see [`TransposeCache`]).
    fn transpose_cache(&self) -> &TransposeCache {
        self.tcache.get_or_init(|| {
            let mut counts = vec![0usize; self.cols + 1];
            for &c in &self.indices {
                counts[c as usize + 1] += 1;
            }
            for i in 0..self.cols {
                counts[i + 1] += counts[i];
            }
            let indptr = counts;
            let mut indices = vec![0u32; self.nnz()];
            let mut perm = vec![0usize; self.nnz()];
            let mut cursor = indptr.clone();
            // iter() walks rows in ascending order, so the source rows
            // land in each transposed row in ascending order.
            for (r, c, k) in self.iter() {
                let pos = cursor[c];
                indices[pos] = r as u32;
                perm[pos] = k;
                cursor[c] += 1;
            }
            Arc::new(TransposeCache {
                indptr,
                indices,
                perm,
            })
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array (`rows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices, grouped by row.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Bytes of the row pointer and column index arrays. The lazily
    /// built transpose is derived data and not counted.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.indptr.as_slice())
            + std::mem::size_of_val(self.indices.as_slice())
    }

    /// Column indices of one row.
    #[inline]
    pub fn row_indices(&self, r: usize) -> &[u32] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Range of value positions belonging to one row.
    #[inline]
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.indptr[r]..self.indptr[r + 1]
    }

    /// Iterate `(row, col, value_position)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.row_range(r)
                .map(move |k| (r, self.indices[k] as usize, k))
        })
    }

    /// Compute output rows `range` of `A * X` into `block`.
    fn spmm_rows(
        &self,
        values: &[f64],
        x: &Matrix,
        range: std::ops::Range<usize>,
        block: &mut [f64],
    ) {
        let d = x.cols();
        for (br, r) in range.enumerate() {
            let out_row = &mut block[br * d..(br + 1) * d];
            let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
            for (&ci, &v) in self.indices[lo..hi].iter().zip(&values[lo..hi]) {
                let c = ci as usize;
                if v == 0.0 {
                    continue;
                }
                let x_row = x.row(c);
                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                    *o += v * xv;
                }
            }
        }
    }

    /// Dense product `C = A * X` where `A` is this structure with
    /// `values`. Row-partitioned across the ambient thread pool under
    /// the `parallel` feature; bitwise identical to
    /// [`Csr::spmm_serial`] for any thread count.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn spmm(&self, values: &[f64], x: &Matrix) -> Matrix {
        assert_eq!(values.len(), self.nnz(), "spmm: values length");
        assert_eq!(self.cols, x.rows(), "spmm: inner dimension");
        mg_runtime::timed("spmm", || {
            let mut out = Matrix::zeros(self.rows, x.cols());
            let (rows, d) = (self.rows, x.cols());
            par::for_each_row_block(
                out.data_mut(),
                rows,
                d,
                par::MIN_SPARSE_ROWS,
                |range, block| self.spmm_rows(values, x, range, block),
            );
            out
        })
    }

    /// [`Csr::spmm`] on the calling thread only.
    pub fn spmm_serial(&self, values: &[f64], x: &Matrix) -> Matrix {
        assert_eq!(values.len(), self.nnz(), "spmm: values length");
        assert_eq!(self.cols, x.rows(), "spmm: inner dimension");
        let mut out = Matrix::zeros(self.rows, x.cols());
        self.spmm_rows(values, x, 0..self.rows, out.data_mut());
        out
    }

    /// Fused `relu(A * X + bias)` — the GCN layer's per-level hot chain
    /// as one row-partitioned kernel, so the aggregate and pre-activation
    /// intermediates are never materialised.
    ///
    /// Each output row is accumulated exactly as [`Csr::spmm`] does it,
    /// then finished in place with `(acc + bias[j]).max(0.0)` — the same
    /// per-element operations, in the same order, as the unfused
    /// `spmm → add_bias → relu` chain, so the fusion is bitwise invisible
    /// (the checked-in golden traces pin this). `bias` is one row of
    /// `x.cols()` elements.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn spmm_bias_relu(&self, values: &[f64], x: &Matrix, bias: &[f64]) -> Matrix {
        assert_eq!(values.len(), self.nnz(), "spmm_bias_relu: values length");
        assert_eq!(self.cols, x.rows(), "spmm_bias_relu: inner dimension");
        assert_eq!(bias.len(), x.cols(), "spmm_bias_relu: bias width");
        mg_runtime::timed("spmm_bias_relu", || {
            let mut out = Matrix::zeros(self.rows, x.cols());
            let (rows, d) = (self.rows, x.cols());
            par::for_each_row_block(
                out.data_mut(),
                rows,
                d,
                par::MIN_SPARSE_ROWS,
                |range, block| {
                    self.spmm_rows(values, x, range.clone(), block);
                    for br in 0..range.len() {
                        let out_row = &mut block[br * d..(br + 1) * d];
                        for (o, &b) in out_row.iter_mut().zip(bias) {
                            *o = (*o + b).max(0.0);
                        }
                    }
                },
            );
            out
        })
    }

    /// [`Csr::spmm_bias_relu`] on the calling thread only.
    pub fn spmm_bias_relu_serial(&self, values: &[f64], x: &Matrix, bias: &[f64]) -> Matrix {
        assert_eq!(values.len(), self.nnz(), "spmm_bias_relu: values length");
        assert_eq!(self.cols, x.rows(), "spmm_bias_relu: inner dimension");
        assert_eq!(bias.len(), x.cols(), "spmm_bias_relu: bias width");
        let mut out = Matrix::zeros(self.rows, x.cols());
        let d = x.cols();
        self.spmm_rows(values, x, 0..self.rows, out.data_mut());
        for r in 0..self.rows {
            let out_row = &mut out.data_mut()[r * d..(r + 1) * d];
            for (o, &b) in out_row.iter_mut().zip(bias) {
                *o = (*o + b).max(0.0);
            }
        }
        out
    }

    /// Dense product with the transpose: `C = Aᵀ * X`.
    ///
    /// The serial loop scatters each entry into its output row. The
    /// parallel path gathers instead: it row-partitions the *transposed*
    /// pattern (built once per structure, cached — see
    /// [`Csr::transpose_struct`]), so each chunk owns a contiguous range
    /// of output rows and reads only its own O(nnz/chunks) entries. Per
    /// output row `c` the cached entries arrive in ascending source row
    /// `r` — exactly the order in which the serial scatter visits the
    /// contributions to row `c` — so every output element accumulates in
    /// the serial order and results stay bitwise identical to
    /// [`Csr::spmm_t_serial`] for any thread count.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn spmm_t(&self, values: &[f64], x: &Matrix) -> Matrix {
        assert_eq!(values.len(), self.nnz(), "spmm_t: values length");
        assert_eq!(self.rows, x.rows(), "spmm_t: inner dimension");
        mg_runtime::timed("spmm_t", || {
            #[cfg(feature = "parallel")]
            if par::use_parallel(self.cols, par::MIN_SPARSE_ROWS) {
                let t = self.transpose_cache();
                let d = x.cols();
                let mut out = Matrix::zeros(self.cols, d);
                par::for_each_row_block(
                    out.data_mut(),
                    self.cols,
                    d,
                    par::MIN_SPARSE_ROWS,
                    |range, block| {
                        for (bc, c) in range.enumerate() {
                            let out_row = &mut block[bc * d..(bc + 1) * d];
                            for k in t.indptr[c]..t.indptr[c + 1] {
                                let v = values[t.perm[k]];
                                // The serial scatter skips exact zeros;
                                // skip them here too so non-finite x rows
                                // still match bitwise.
                                if v == 0.0 {
                                    continue;
                                }
                                let x_row = x.row(t.indices[k] as usize);
                                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                                    *o += v * xv;
                                }
                            }
                        }
                    },
                );
                return out;
            }
            self.spmm_t_serial(values, x)
        })
    }

    /// [`Csr::spmm_t`] on the calling thread only.
    pub fn spmm_t_serial(&self, values: &[f64], x: &Matrix) -> Matrix {
        assert_eq!(values.len(), self.nnz(), "spmm_t: values length");
        assert_eq!(self.rows, x.rows(), "spmm_t: inner dimension");
        let d = x.cols();
        let mut out = Matrix::zeros(self.cols, d);
        for r in 0..self.rows {
            let x_row = x.row(r);
            let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
            for (&ci, &v) in self.indices[lo..hi].iter().zip(&values[lo..hi]) {
                let c = ci as usize;
                if v == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(c);
                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                    *o += v * xv;
                }
            }
        }
        out
    }

    /// Gradient of [`Csr::spmm`] with respect to `values`: a `1 x nnz`
    /// matrix with `gv[k] = g[r,:] . x[c,:]` for each stored `(r, c, k)`.
    /// Each entry is one independent dot product, so row partitioning is
    /// trivially bitwise exact.
    pub fn spmm_grad_values(&self, g: &Matrix, x: &Matrix) -> Matrix {
        assert_eq!(g.rows(), self.rows, "spmm_grad_values: g rows");
        assert_eq!(x.rows(), self.cols, "spmm_grad_values: x rows");
        assert_eq!(g.cols(), x.cols(), "spmm_grad_values: inner dimension");
        mg_runtime::timed("spmm_grad_values", || {
            let mut gv = Matrix::zeros(1, self.nnz());
            par::for_each_row_segments(
                gv.data_mut(),
                &self.indptr,
                self.rows,
                par::MIN_SPARSE_ROWS,
                |range, block| {
                    let base = self.indptr[range.start];
                    for r in range {
                        let g_row = g.row(r);
                        for k in self.indptr[r]..self.indptr[r + 1] {
                            let c = self.indices[k] as usize;
                            block[k - base] =
                                g_row.iter().zip(x.row(c)).map(|(&a, &b)| a * b).sum();
                        }
                    }
                },
            );
            gv
        })
    }

    /// Gradient of [`Csr::spmm_t`] with respect to `values`: a `1 x nnz`
    /// matrix with `gv[k] = g[c,:] . x[r,:]` for each stored `(r, c, k)`.
    ///
    /// Each entry is one independent dot product, computed exactly once,
    /// so any partition is bitwise exact. The parallel path row-partitions
    /// the cached *transposed* pattern — chunks then read contiguous rows
    /// of `g` and scatter through `perm` into disjoint `gv` slots.
    pub fn spmm_t_grad_values(&self, g: &Matrix, x: &Matrix) -> Matrix {
        assert_eq!(g.rows(), self.cols, "spmm_t_grad_values: g rows");
        assert_eq!(x.rows(), self.rows, "spmm_t_grad_values: x rows");
        assert_eq!(g.cols(), x.cols(), "spmm_t_grad_values: inner dimension");
        mg_runtime::timed("spmm_t_grad_values", || {
            #[cfg(feature = "parallel")]
            if par::use_parallel(self.cols, par::MIN_SPARSE_ROWS) {
                let t = self.transpose_cache();
                let mut gv = Matrix::zeros(1, self.nnz());
                par::for_each_permuted_value(
                    gv.data_mut(),
                    &t.indptr,
                    self.cols,
                    &t.perm,
                    par::MIN_SPARSE_ROWS,
                    |c, k| {
                        let x_row = x.row(t.indices[k] as usize);
                        g.row(c).iter().zip(x_row).map(|(&a, &b)| a * b).sum()
                    },
                );
                return gv;
            }
            self.spmm_t_grad_values_serial(g, x)
        })
    }

    /// [`Csr::spmm_t_grad_values`] on the calling thread only.
    pub fn spmm_t_grad_values_serial(&self, g: &Matrix, x: &Matrix) -> Matrix {
        assert_eq!(g.rows(), self.cols, "spmm_t_grad_values: g rows");
        assert_eq!(x.rows(), self.rows, "spmm_t_grad_values: x rows");
        assert_eq!(g.cols(), x.cols(), "spmm_t_grad_values: inner dimension");
        let mut gv = Matrix::zeros(1, self.nnz());
        for r in 0..self.rows {
            let x_row = x.row(r);
            for k in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[k] as usize;
                gv.data_mut()[k] = g.row(c).iter().zip(x_row).map(|(&a, &b)| a * b).sum();
            }
        }
        gv
    }

    /// Materialise as a dense matrix: `values` at the stored positions,
    /// `+0.0` elsewhere. Costs `rows x cols` elements, so it is for tests,
    /// small graphs, and the models that take node features densely
    /// (`GraphCtx::x_var`).
    pub fn to_dense(&self, values: &[f64]) -> Matrix {
        assert_eq!(values.len(), self.nnz());
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, k) in self.iter() {
            m[(r, c)] = values[k];
        }
        m
    }

    /// Transposed structure together with the permutation `perm` such that
    /// `values_t[k_new] = values[perm[k_new]]`.
    ///
    /// The transposed pattern is built once per structure and cached (the
    /// same cache drives the parallel `spmm_t` kernels); this method only
    /// pays for copying it out. Clones share the populated cache.
    pub fn transpose_struct(&self) -> (Csr, Vec<usize>) {
        let t = self.transpose_cache();
        (
            Csr {
                rows: self.cols,
                cols: self.rows,
                indptr: t.indptr.clone(),
                indices: t.indices.clone(),
                tcache: OnceLock::new(),
            },
            t.perm.clone(),
        )
    }

    /// Sparse-sparse product `(C, values_c) = (A, va) * (B, vb)`.
    ///
    /// Used to maintain hyper-graph connectivity `A_k = S_kᵀ Â_{k-1} S_k`
    /// (values are detached from the tape — see DESIGN.md).
    pub fn spgemm(&self, va: &[f64], b: &Csr, vb: &[f64]) -> (Csr, Vec<f64>) {
        assert_eq!(self.cols, b.rows, "spgemm: inner dimension");
        assert_eq!(va.len(), self.nnz());
        assert_eq!(vb.len(), b.nnz());
        let mut indptr = Vec::with_capacity(self.rows + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        // Gustavson's algorithm with a dense accumulator per row.
        let mut acc = vec![0.0f64; b.cols];
        let mut touched: Vec<u32> = Vec::new();
        for r in 0..self.rows {
            for k in self.row_range(r) {
                let mid = self.indices[k] as usize;
                let av = va[k];
                if av == 0.0 {
                    continue;
                }
                for k2 in b.row_range(mid) {
                    let c = b.indices[k2] as usize;
                    if acc[c] == 0.0 {
                        touched.push(c as u32);
                    }
                    acc[c] += av * vb[k2];
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = acc[c as usize];
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
                acc[c as usize] = 0.0;
            }
            touched.clear();
            indptr.push(indices.len());
        }
        (
            Csr {
                rows: self.rows,
                cols: b.cols,
                indptr,
                indices,
                tcache: OnceLock::new(),
            },
            values,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Csr, Vec<f64>) {
        // [1 0 2]
        // [0 3 0]
        let csr = Csr::from_coo(2, 3, &[(0, 0), (0, 2), (1, 1)]);
        (csr, vec![1.0, 2.0, 3.0])
    }

    #[test]
    fn from_coo_layout() {
        let (csr, _) = sample();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.row_indices(0), &[0, 2]);
        assert_eq!(csr.row_indices(1), &[1]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn from_coo_duplicate_panics() {
        let _ = Csr::from_coo(2, 2, &[(0, 1), (0, 1)]);
    }

    #[test]
    fn spmm_matches_dense() {
        let (csr, vals) = sample();
        let x = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let sparse = csr.spmm(&vals, &x);
        let dense = csr.to_dense(&vals).matmul(&x);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn spmm_t_matches_dense() {
        let (csr, vals) = sample();
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let sparse = csr.spmm_t(&vals, &x);
        let dense = csr.to_dense(&vals).transpose().matmul(&x);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn transpose_struct_roundtrip() {
        let (csr, vals) = sample();
        let (t, perm) = csr.transpose_struct();
        let tvals: Vec<f64> = perm.iter().map(|&k| vals[k]).collect();
        assert_eq!(t.to_dense(&tvals), csr.to_dense(&vals).transpose());
    }

    #[test]
    fn transpose_cache_rows_ascending_per_row() {
        // The determinism contract of the parallel spmm_t path: within
        // each transposed row, source rows are strictly ascending.
        let csr = Csr::from_coo(
            5,
            4,
            &[(0, 1), (1, 1), (2, 1), (4, 1), (0, 0), (3, 0), (2, 3)],
        );
        let t = csr.transpose_cache();
        for c in 0..4 {
            let row = &t.indices[t.indptr[c]..t.indptr[c + 1]];
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {c}: {row:?}");
        }
    }

    #[test]
    fn clone_and_eq_ignore_transpose_cache() {
        let (csr, vals) = sample();
        let cold = csr.clone();
        assert!(csr.tcache.get().is_none(), "cache must start empty");
        let (t, perm) = csr.transpose_struct(); // populates the cache
        assert!(csr.tcache.get().is_some());
        // structural equality, both directions, regardless of cache state
        assert_eq!(csr, cold);
        assert_eq!(cold, csr);
        // a clone of a warm structure shares the built cache
        let warm = csr.clone();
        assert!(warm.tcache.get().is_some());
        // all three behave identically in the kernels
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let g = Matrix::from_vec(3, 2, vec![0.5, -1., 2., 0.25, -3., 1.5]);
        assert_eq!(csr.spmm_t(&vals, &x), cold.spmm_t(&vals, &x));
        assert_eq!(csr.spmm_t(&vals, &x), warm.spmm_t(&vals, &x));
        assert_eq!(
            csr.spmm_t_grad_values(&g, &x),
            cold.spmm_t_grad_values(&g, &x)
        );
        // the cached transpose equals a from-scratch rebuild
        let rebuilt = Csr::from_parts(2, 3, csr.indptr.clone(), csr.indices.clone());
        let (t2, perm2) = rebuilt.transpose_struct();
        assert_eq!(t, t2);
        assert_eq!(perm, perm2);
    }

    #[test]
    fn spmm_t_grad_values_serial_matches_dense() {
        let (csr, _vals) = sample();
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let g = Matrix::from_vec(3, 2, vec![0.5, -1., 2., 0.25, -3., 1.5]);
        let gv = csr.spmm_t_grad_values_serial(&g, &x);
        for (r, c, k) in csr.iter() {
            let want: f64 = g.row(c).iter().zip(x.row(r)).map(|(&a, &b)| a * b).sum();
            assert_eq!(gv.data()[k], want);
        }
        assert_eq!(gv, csr.spmm_t_grad_values(&g, &x));
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = Csr::from_coo(2, 3, &[(0, 0), (0, 2), (1, 1)]);
        let va = vec![1.0, 2.0, 3.0];
        let b = Csr::from_coo(3, 2, &[(0, 1), (1, 0), (2, 0), (2, 1)]);
        let vb = vec![4.0, 5.0, 6.0, 7.0];
        let (c, vc) = a.spgemm(&va, &b, &vb);
        let dense = a.to_dense(&va).matmul(&b.to_dense(&vb));
        assert_eq!(c.to_dense(&vc), dense);
    }

    #[test]
    fn spgemm_drops_exact_zeros() {
        // values that cancel out should not be stored
        let a = Csr::from_coo(1, 2, &[(0, 0), (0, 1)]);
        let b = Csr::from_coo(2, 1, &[(0, 0), (1, 0)]);
        let (c, vc) = a.spgemm(&[1.0, -1.0], &b, &[1.0, 1.0]);
        assert_eq!(c.nnz(), 0);
        assert!(vc.is_empty());
    }

    #[test]
    fn empty_rows_are_fine() {
        let csr = Csr::from_coo(3, 3, &[(2, 0)]);
        let x = Matrix::eye(3);
        let out = csr.spmm(&[5.0], &x);
        assert_eq!(out[(2, 0)], 5.0);
        assert_eq!(out[(0, 0)], 0.0);
    }
}

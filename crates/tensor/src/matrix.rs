//! Dense row-major `f64` matrix used as the single tensor type of the
//! autograd engine.
//!
//! Graphs in the AdamGNN workloads are small enough (≤ ~5k nodes, ≤ 64
//! hidden dims) that a dense matrix with register-tiled products (see
//! `tile.rs`) is the right tool; no BLAS dependency is needed.

use std::ops::Range;

use crate::par;
use crate::tile::{self, dispatched, fill, ByDepth, ByRow, Isa};
use rand::Rng;

/// A `rows x width` result whose row blocks `body` fills, split across
/// the ambient pool in chunks of at least `min_rows` rows.
fn product(
    rows: usize,
    width: usize,
    min_rows: usize,
    body: impl Fn(Range<usize>, &mut [f64]) + Sync,
) -> Matrix {
    let mut out = Matrix::zeros(rows, width);
    par::for_each_row_block(&mut out.data, rows, width, min_rows, body);
    out
}

/// Output rows `range` of `a · b` into `block`: 4 x 8 tiles, or eight
/// rows' dot products side by side when `b` has one column.
#[inline(always)]
fn nn_rows_body(a: &Matrix, b: &Matrix, range: Range<usize>, block: &mut [f64]) {
    let lhs = ByRow {
        data: &a.data,
        stride: a.cols,
    };
    let rhs = ByDepth {
        data: &b.data,
        stride: b.cols,
    };
    if b.cols == 1 {
        fill::<8, 1>(&lhs, &rhs, a.cols, range, 1, block, tile::product);
    } else {
        fill::<4, 8>(&lhs, &rhs, a.cols, range, b.cols, block, tile::product);
    }
}

dispatched!(nn_rows => nn_rows_body(a: &Matrix, b: &Matrix, range: Range<usize>, block: &mut [f64]));

/// Output rows `range` of `aᵀ · b` into `block`: 4 x 8 tiles, or, when
/// `b` has one column, sixteen contiguous elements of each row of `a`
/// scaled by `b`'s entry and added (an axpy per `k`).
#[inline(always)]
fn tn_rows_body(a: &Matrix, b: &Matrix, range: Range<usize>, block: &mut [f64]) {
    let lhs = ByDepth {
        data: &a.data,
        stride: a.cols,
    };
    let rhs = ByDepth {
        data: &b.data,
        stride: b.cols,
    };
    if b.cols == 1 {
        fill::<16, 1>(&lhs, &rhs, a.rows, range, 1, block, tile::product);
    } else {
        fill::<4, 8>(&lhs, &rhs, a.rows, range, b.cols, block, tile::product);
    }
}

dispatched!(tn_rows => tn_rows_body(a: &Matrix, b: &Matrix, range: Range<usize>, block: &mut [f64]));

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, v: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Create an identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Glorot/Xavier-uniform initialisation, the standard GNN weight init.
    pub fn glorot(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(-limit..limit))
    }

    /// Uniform random matrix in `[lo, hi)`.
    pub fn uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut impl Rng) -> Self {
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(lo..hi))
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The single scalar held by a 1x1 matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not 1x1.
    pub fn scalar(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "scalar() requires a 1x1 matrix");
        self.data[0]
    }

    /// Compute output rows `range` of `self * rhs` into `block` (the
    /// rows' contiguous storage) with the plain scalar loop: the
    /// reference the tiled kernels are checked against.
    ///
    /// ## Non-finite propagation contract
    ///
    /// Every stored term participates in the accumulation — there is
    /// deliberately no `a_ik == 0.0` skip. Skipping would silently
    /// swallow `0 × NaN` and `0 × ∞` terms, letting a non-finite value
    /// introduced upstream vanish mid-product; instead NaN/±∞ poison the
    /// output row exactly as IEEE-754 dictates, matching the dot-product
    /// form of [`Matrix::matmul_nt`]. For *finite* operands the change
    /// is bitwise invisible: an accumulator that starts at `+0.0` can
    /// never become `-0.0` under round-to-nearest, and adding a `±0.0`
    /// product to it leaves every bit unchanged — which is why the
    /// checked-in golden traces survived the skip's removal untouched.
    /// (Sparse `spmm` kernels differ by design: a stored zero there is
    /// structural — see `csr.rs`. The AdamGNN input product `x·W` runs
    /// through `spmm` over the sparse features (`SparseMatrix`) and so
    /// follows the sparse contract: a non-finite weight row reaches only the nodes whose
    /// matching feature is non-zero. The trainer's non-finite gradient
    /// check and `ParamStore::import_state` on checkpoint load reject
    /// such a weight instead.)
    fn matmul_rows(&self, rhs: &Matrix, range: std::ops::Range<usize>, block: &mut [f64]) {
        let w = rhs.cols;
        // ikj loop order: the inner loop walks contiguous rows of `rhs`
        // and `out`, which is the cache-friendly ordering for row-major data.
        for (bi, i) in range.enumerate() {
            let a_row = self.row(i);
            let out_row = &mut block[bi * w..(bi + 1) * w];
            for (k, &a_ik) in a_row.iter().enumerate() {
                let b_row = rhs.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b;
                }
            }
        }
    }

    /// Matrix product `self * rhs` in register tiles (see [`crate::tile`]),
    /// row-partitioned across the ambient thread pool when the `parallel`
    /// feature is enabled. Chunks are sized by estimated work (`k·n`
    /// mul-adds per output row). Every element adds its products in
    /// ascending `k` from `0.0`, so the result is bitwise equal to
    /// [`Matrix::matmul_serial`] for any input, thread count and ISA.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.check_nn(rhs);
        mg_runtime::timed("matmul", || {
            let isa = Isa::detect();
            let min_rows = par::matmul_chunk_rows(self.cols * rhs.cols);
            product(self.rows, rhs.cols, min_rows, |range, block| {
                nn_rows(isa, self, rhs, range, block)
            })
        })
    }

    /// [`Matrix::matmul`]'s plain scalar loop on the calling thread only:
    /// the reference the tiled kernels must match bitwise (see
    /// `tests/kernel_parity.rs`).
    pub fn matmul_serial(&self, rhs: &Matrix) -> Matrix {
        self.check_nn(rhs);
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_rows(rhs, 0..self.rows, &mut out.data);
        out
    }

    /// [`Matrix::matmul`]'s tiled kernel compiled for `isa`, on the
    /// calling thread. For parity tests.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch, or if the CPU cannot run `isa`.
    #[doc(hidden)]
    pub fn matmul_tiled(&self, rhs: &Matrix, isa: Isa) -> Matrix {
        self.check_nn(rhs);
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        nn_rows(isa, self, rhs, 0..self.rows, &mut out.data);
        out
    }

    fn check_nn(&self, rhs: &Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
    }

    /// `selfᵀ * rhs` without materialising the transpose, in register
    /// tiles; bitwise equal to [`Matrix::matmul_tn_serial`] (see
    /// [`Matrix::matmul`]).
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        self.check_tn(rhs);
        mg_runtime::timed("matmul_tn", || {
            let isa = Isa::detect();
            let min_rows = par::matmul_chunk_rows(self.rows * rhs.cols);
            product(self.cols, rhs.cols, min_rows, |range, block| {
                tn_rows(isa, self, rhs, range, block)
            })
        })
    }

    /// [`Matrix::matmul_tn`]'s scalar reference loop on the calling
    /// thread only (see [`Matrix::matmul_serial`]).
    pub fn matmul_tn_serial(&self, rhs: &Matrix) -> Matrix {
        self.check_tn(rhs);
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = rhs.row(k);
            for (i, &a_ki) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ki * b;
                }
            }
        }
        out
    }

    /// [`Matrix::matmul_tn`]'s tiled kernel compiled for `isa` (see
    /// [`Matrix::matmul_tiled`]).
    #[doc(hidden)]
    pub fn matmul_tn_tiled(&self, rhs: &Matrix, isa: Isa) -> Matrix {
        self.check_tn(rhs);
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        tn_rows(isa, self, rhs, 0..self.cols, &mut out.data);
        out
    }

    fn check_tn(&self, rhs: &Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
    }

    /// Compute output rows `range` of `self * rhsᵀ` into `block`.
    fn matmul_nt_rows(&self, rhs: &Matrix, range: std::ops::Range<usize>, block: &mut [f64]) {
        let w = rhs.rows;
        for (bi, i) in range.enumerate() {
            let a_row = self.row(i);
            let out_row = &mut block[bi * w..(bi + 1) * w];
            for (o, j) in out_row.iter_mut().zip(0..rhs.rows) {
                let b_row = rhs.row(j);
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
    }

    /// `self * rhsᵀ`: [`Matrix::matmul`]'s tiled kernel over a transposed
    /// copy of `rhs` (in the backward pass `rhs` is a layer's weight, so
    /// the copy is small). Element `(i, j)` is the dot product of row `i`
    /// and row `j` in ascending `k` from `0.0` either way, so the result
    /// is bitwise equal to [`Matrix::matmul_nt_serial`].
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        self.check_nt(rhs);
        mg_runtime::timed("matmul_nt", || {
            let isa = Isa::detect();
            let rt = rhs.transpose();
            let min_rows = par::matmul_chunk_rows(self.cols * rhs.rows);
            product(self.rows, rhs.rows, min_rows, |range, block| {
                nn_rows(isa, self, &rt, range, block)
            })
        })
    }

    /// [`Matrix::matmul_nt`]'s scalar reference loop on the calling
    /// thread only (see [`Matrix::matmul_serial`]).
    pub fn matmul_nt_serial(&self, rhs: &Matrix) -> Matrix {
        self.check_nt(rhs);
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_nt_rows(rhs, 0..self.rows, &mut out.data);
        out
    }

    /// [`Matrix::matmul_nt`]'s tiled kernel compiled for `isa` (see
    /// [`Matrix::matmul_tiled`]).
    #[doc(hidden)]
    pub fn matmul_nt_tiled(&self, rhs: &Matrix, isa: Isa) -> Matrix {
        self.check_nt(rhs);
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        nn_rows(isa, self, &rhs.transpose(), 0..self.rows, &mut out.data);
        out
    }

    fn check_nt(&self, rhs: &Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Elementwise map. `f` must be `Sync` so large matrices can be
    /// chunked across threads under the `parallel` feature (elementwise
    /// ops have no reductions, so any partition is bitwise exact).
    pub fn map(&self, f: impl Fn(f64) -> f64 + Sync) -> Matrix {
        mg_runtime::timed("map", || {
            #[cfg(feature = "parallel")]
            if par::use_parallel(self.data.len(), par::MIN_ELEMS) {
                let mut out = Matrix::zeros(self.rows, self.cols);
                par::for_each_row_block(
                    &mut out.data,
                    self.data.len(),
                    1,
                    par::MIN_ELEMS,
                    |range, block| {
                        for (o, i) in block.iter_mut().zip(range) {
                            *o = f(self.data[i]);
                        }
                    },
                );
                return out;
            }
            Matrix {
                rows: self.rows,
                cols: self.cols,
                data: self.data.iter().map(|&x| f(x)).collect(),
            }
        })
    }

    /// Elementwise binary zip (see [`Matrix::map`] for the `Sync` bound).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64 + Sync) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip: shape mismatch");
        mg_runtime::timed("zip", || {
            #[cfg(feature = "parallel")]
            if par::use_parallel(self.data.len(), par::MIN_ELEMS) {
                let mut out = Matrix::zeros(self.rows, self.cols);
                par::for_each_row_block(
                    &mut out.data,
                    self.data.len(),
                    1,
                    par::MIN_ELEMS,
                    |range, block| {
                        for (o, i) in block.iter_mut().zip(range) {
                            *o = f(self.data[i], rhs.data[i]);
                        }
                    },
                );
                return out;
            }
            Matrix {
                rows: self.rows,
                cols: self.cols,
                data: self
                    .data
                    .iter()
                    .zip(&rhs.data)
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            }
        })
    }

    /// `self += alpha * rhs`, in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, rhs: &Matrix, alpha: f64) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled: shape mismatch");
        mg_runtime::timed("add_scaled", || {
            let len = self.data.len();
            par::for_each_row_block(&mut self.data, len, 1, par::MIN_ELEMS, |range, block| {
                for (o, i) in block.iter_mut().zip(range) {
                    *o += alpha * rhs.data[i];
                }
            });
        })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Dot product between two rows of (possibly different) matrices.
    pub fn row_dot(&self, i: usize, other: &Matrix, j: usize) -> f64 {
        debug_assert_eq!(self.cols, other.cols);
        self.row(i)
            .iter()
            .zip(other.row(j))
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Index of the maximum element in a row (first on ties).
    pub fn row_argmax(&self, i: usize) -> usize {
        let row = self.row(i);
        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        best
    }

    /// Stack matrices vertically (all must share `cols`).
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack of zero matrices");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in parts {
            assert_eq!(m.cols, cols, "vstack: column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.sum(), 0.0);
    }

    #[test]
    fn eye_diagonal() {
        let m = Matrix::eye(3);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 0.0);
        assert_eq!(m.sum(), 3.0);
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let c = a.matmul(&Matrix::eye(2));
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Matrix::uniform(4, 3, -1.0, 1.0, &mut rng);
        let b = Matrix::uniform(4, 5, -1.0, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!((0..fast.len()).all(|i| (fast.data()[i] - slow.data()[i]).abs() < 1e-12));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let a = Matrix::uniform(4, 3, -1.0, 1.0, &mut rng);
        let b = Matrix::uniform(5, 3, -1.0, 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert!((0..fast.len()).all(|i| (fast.data()[i] - slow.data()[i]).abs() < 1e-12));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn map_and_zip() {
        let a = Matrix::from_vec(1, 3, vec![1., -2., 3.]);
        let b = a.map(f64::abs);
        assert_eq!(b.data(), &[1., 2., 3.]);
        let c = a.zip(&b, |x, y| x + y);
        assert_eq!(c.data(), &[2., 0., 6.]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::zeros(1, 2);
        let b = Matrix::from_vec(1, 2, vec![1., 2.]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[0.5, 1.0]);
    }

    #[test]
    fn glorot_within_limit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let m = Matrix::glorot(10, 20, &mut rng);
        let limit = (6.0 / 30.0_f64).sqrt();
        assert!(m.data().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn row_argmax_first_on_ties() {
        let m = Matrix::from_vec(1, 4, vec![0.5, 2.0, 2.0, 1.0]);
        assert_eq!(m.row_argmax(0), 1);
    }

    #[test]
    fn scalar_of_1x1() {
        let m = Matrix::from_vec(1, 1, vec![42.0]);
        assert_eq!(m.scalar(), 42.0);
    }
}

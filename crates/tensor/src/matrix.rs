//! Dense row-major `f64` matrix used as the single tensor type of the
//! autograd engine.
//!
//! Graphs in the AdamGNN workloads are small enough (≤ ~5k nodes, ≤ 64
//! hidden dims) that a straightforward dense matrix with cache-friendly
//! `ikj` matmul is the right tool; no BLAS dependency is needed.

use crate::par;
use rand::Rng;

/// Inner-dimension unroll width of the blocked matmul kernels: each pass
/// over an output row folds in 8 `k` terms as one expression, giving the
/// autovectorizer 8 independent multiplies per output element and
/// amortising the output-row load/store over 8 mul-adds.
const KB: usize = 8;

/// k-panel height of the blocked kernels: the `KC x n` panel of the
/// B-operand (64 x 512 doubles = 256 KiB) stays L2-resident while every
/// output row of the chunk streams across it, so B is read `k / KC`
/// times total instead of once per output row. A multiple of [`KB`] so
/// full panels have no scalar remainder.
const KC: usize = 64;

/// True when the blocked kernels may take their AVX2-compiled path.
///
/// Dispatch is a pure performance choice: the AVX2 and baseline
/// compilations inline the *same* Rust expression tree, and rustc never
/// enables floating-point contraction, so both produce bitwise-identical
/// results — vector width changes scheduling, not rounding.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    // std caches the cpuid probe behind an atomic, so this is cheap.
    std::arch::is_x86_feature_detected!("avx2")
}

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
    /// rows' contiguous storage). Shared by the serial and parallel
    /// paths so both produce bitwise-identical rows.
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

    /// Matrix product `self * rhs`, row-partitioned across the ambient
    /// thread pool when the `parallel` feature is enabled. Chunks are
    /// sized by estimated work (`k·n` mul-adds per output row), and for
    /// any thread count the result is bitwise identical to the same
    /// build's one-thread run. Without `fast-kernels` this is the scalar
    /// kernel of [`Matrix::matmul_serial`] (the golden path); with it,
    /// the cache-blocked [`Matrix::matmul_blocked`] kernel.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        mg_runtime::timed("matmul", || {
            let mut out = Matrix::zeros(self.rows, rhs.cols);
            let min_rows = par::matmul_chunk_rows(self.cols * rhs.cols);
            par::for_each_row_block(&mut out.data, self.rows, rhs.cols, min_rows, {
                |range, block| {
                    if cfg!(feature = "fast-kernels") {
                        self.matmul_rows_blocked(rhs, range, block);
                    } else {
                        self.matmul_rows(rhs, range, block);
                    }
                }
            });
            out
        })
    }

    /// [`Matrix::matmul`]'s scalar kernel on the calling thread only —
    /// the deterministic reference implementation. Default-build runs
    /// must match it bitwise for any thread count; `fast-kernels` runs
    /// match it to relative tolerance (see `tests/kernel_parity.rs`).
    pub fn matmul_serial(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_rows(rhs, 0..self.rows, &mut out.data);
        out
    }

    /// Compute output rows `range` of `selfᵀ * rhs` into `block`.
    ///
    /// For output row `i` the accumulation over `k` is ascending, the
    /// same addition order per element as the serial k-outer loop. No
    /// zero-skip, per the propagation contract on [`Matrix::matmul_rows`].
    #[cfg(feature = "parallel")]
    fn matmul_tn_rows(&self, rhs: &Matrix, range: std::ops::Range<usize>, block: &mut [f64]) {
        let w = rhs.cols;
        for (bi, i) in range.enumerate() {
            let out_row = &mut block[bi * w..(bi + 1) * w];
            for k in 0..self.rows {
                let a_ki = self.data[k * self.cols + i];
                let b_row = rhs.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ki * b;
                }
            }
        }
    }

    /// `selfᵀ * rhs` without materialising the transpose.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        mg_runtime::timed("matmul_tn", || {
            let min_rows = par::matmul_chunk_rows(self.rows * rhs.cols);
            if cfg!(feature = "fast-kernels") {
                let mut out = Matrix::zeros(self.cols, rhs.cols);
                par::for_each_row_block(
                    &mut out.data,
                    self.cols,
                    rhs.cols,
                    min_rows,
                    |range, block| self.matmul_tn_rows_blocked(rhs, range, block),
                );
                return out;
            }
            // The serial loop is k-outer (contiguous reads of `self`);
            // the parallel loop must be i-outer to own whole output
            // rows. Both accumulate each element in ascending-k order,
            // so they agree bitwise — but only split when the pool will
            // actually parallelise, keeping the fast shape otherwise.
            #[cfg(feature = "parallel")]
            if par::use_parallel(self.cols, min_rows) {
                let mut out = Matrix::zeros(self.cols, rhs.cols);
                par::for_each_row_block(
                    &mut out.data,
                    self.cols,
                    rhs.cols,
                    min_rows,
                    |range, block| self.matmul_tn_rows(rhs, range, block),
                );
                return out;
            }
            #[cfg(not(feature = "parallel"))]
            let _ = min_rows;
            self.matmul_tn_serial(rhs)
        })
    }

    /// [`Matrix::matmul_tn`]'s scalar kernel on the calling thread only
    /// (see [`Matrix::matmul_serial`] for the reference-role contract).
    pub fn matmul_tn_serial(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
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

    /// `self * rhsᵀ` without materialising the transpose.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        mg_runtime::timed("matmul_nt", || {
            let mut out = Matrix::zeros(self.rows, rhs.rows);
            let min_rows = par::matmul_chunk_rows(self.cols * rhs.rows);
            par::for_each_row_block(&mut out.data, self.rows, rhs.rows, min_rows, {
                |range, block| {
                    if cfg!(feature = "fast-kernels") {
                        self.matmul_nt_rows_blocked(rhs, range, block);
                    } else {
                        self.matmul_nt_rows(rhs, range, block);
                    }
                }
            });
            out
        })
    }

    /// [`Matrix::matmul_nt`]'s scalar kernel on the calling thread only
    /// (see [`Matrix::matmul_serial`] for the reference-role contract).
    pub fn matmul_nt_serial(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_nt_rows(rhs, 0..self.rows, &mut out.data);
        out
    }

    /// Cache-blocked `self * rhs` on the calling thread — the kernel
    /// [`Matrix::matmul`] dispatches to under `fast-kernels`. Always
    /// compiled so any build can benchmark or parity-test it.
    pub fn matmul_blocked(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_rows_blocked(rhs, 0..self.rows, &mut out.data);
        out
    }

    /// Cache-blocked `selfᵀ * rhs` on the calling thread (see
    /// [`Matrix::matmul_blocked`]).
    pub fn matmul_tn_blocked(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_tn_rows_blocked(rhs, 0..self.cols, &mut out.data);
        out
    }

    /// Cache-blocked `self * rhsᵀ` on the calling thread (see
    /// [`Matrix::matmul_blocked`]).
    pub fn matmul_nt_blocked(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_nt_rows_blocked(rhs, 0..self.rows, &mut out.data);
        out
    }

    /// Blocked body of `self * rhs` for output rows `range`.
    ///
    /// ## Determinism
    ///
    /// Per output element the addition order is fixed by the source
    /// alone: k-panels ascending, eight-term groups left-to-right inside
    /// a panel, then the scalar remainder ascending. The order never
    /// depends on how `0..rows` was partitioned, so blocked-parallel is
    /// bitwise identical to blocked-serial at any pool width (it is
    /// *not* bitwise equal to the scalar kernel, whose per-element order
    /// is plain ascending-k — that pairing is tolerance-checked).
    /// Non-finite operands propagate, same contract as
    /// [`Matrix::matmul_rows`].
    #[inline(always)]
    fn matmul_rows_blocked_impl(
        &self,
        rhs: &Matrix,
        range: std::ops::Range<usize>,
        block: &mut [f64],
    ) {
        let w = rhs.cols;
        let kd = self.cols;
        let mut kc = 0;
        while kc < kd {
            let kc_end = (kc + KC).min(kd);
            for (bi, i) in range.clone().enumerate() {
                let a_row = self.row(i);
                let out_row = &mut block[bi * w..(bi + 1) * w];
                let mut k = kc;
                while k + KB <= kc_end {
                    let a0 = a_row[k];
                    let a1 = a_row[k + 1];
                    let a2 = a_row[k + 2];
                    let a3 = a_row[k + 3];
                    let a4 = a_row[k + 4];
                    let a5 = a_row[k + 5];
                    let a6 = a_row[k + 6];
                    let a7 = a_row[k + 7];
                    let b0 = rhs.row(k);
                    let b1 = rhs.row(k + 1);
                    let b2 = rhs.row(k + 2);
                    let b3 = rhs.row(k + 3);
                    let b4 = rhs.row(k + 4);
                    let b5 = rhs.row(k + 5);
                    let b6 = rhs.row(k + 6);
                    let b7 = rhs.row(k + 7);
                    for (j, o) in out_row.iter_mut().enumerate() {
                        *o += a0 * b0[j]
                            + a1 * b1[j]
                            + a2 * b2[j]
                            + a3 * b3[j]
                            + a4 * b4[j]
                            + a5 * b5[j]
                            + a6 * b6[j]
                            + a7 * b7[j];
                    }
                    k += KB;
                }
                while k < kc_end {
                    let a_ik = a_row[k];
                    let b_row = rhs.row(k);
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a_ik * b;
                    }
                    k += 1;
                }
            }
            kc = kc_end;
        }
    }

    /// Blocked body of `selfᵀ * rhs` for output rows `range`: i-outer
    /// with strided gathers of the A-column, same panel/unroll/remainder
    /// order (and hence the same determinism argument) as
    /// [`Matrix::matmul_rows_blocked_impl`].
    #[inline(always)]
    fn matmul_tn_rows_blocked_impl(
        &self,
        rhs: &Matrix,
        range: std::ops::Range<usize>,
        block: &mut [f64],
    ) {
        let w = rhs.cols;
        let p = self.cols;
        let kd = self.rows;
        let mut kc = 0;
        while kc < kd {
            let kc_end = (kc + KC).min(kd);
            for (bi, i) in range.clone().enumerate() {
                let out_row = &mut block[bi * w..(bi + 1) * w];
                let mut k = kc;
                while k + KB <= kc_end {
                    let a0 = self.data[k * p + i];
                    let a1 = self.data[(k + 1) * p + i];
                    let a2 = self.data[(k + 2) * p + i];
                    let a3 = self.data[(k + 3) * p + i];
                    let a4 = self.data[(k + 4) * p + i];
                    let a5 = self.data[(k + 5) * p + i];
                    let a6 = self.data[(k + 6) * p + i];
                    let a7 = self.data[(k + 7) * p + i];
                    let b0 = rhs.row(k);
                    let b1 = rhs.row(k + 1);
                    let b2 = rhs.row(k + 2);
                    let b3 = rhs.row(k + 3);
                    let b4 = rhs.row(k + 4);
                    let b5 = rhs.row(k + 5);
                    let b6 = rhs.row(k + 6);
                    let b7 = rhs.row(k + 7);
                    for (j, o) in out_row.iter_mut().enumerate() {
                        *o += a0 * b0[j]
                            + a1 * b1[j]
                            + a2 * b2[j]
                            + a3 * b3[j]
                            + a4 * b4[j]
                            + a5 * b5[j]
                            + a6 * b6[j]
                            + a7 * b7[j];
                    }
                    k += KB;
                }
                while k < kc_end {
                    let a_ki = self.data[k * p + i];
                    let b_row = rhs.row(k);
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a_ki * b;
                    }
                    k += 1;
                }
            }
            kc = kc_end;
        }
    }

    /// Blocked body of `self * rhsᵀ` for output rows `range`.
    ///
    /// Two changes over the scalar kernel: output columns are tiled in
    /// [`KC`]-row panels of `rhs` so a panel (256 KiB at k = 512) stays
    /// cache-resident across every output row of the chunk — the scalar
    /// kernel streams the whole of `rhs` once per output row — and each
    /// dot product runs [`KB`] independent accumulator lanes (breaking
    /// the serial add-latency chain), combined in a fixed tree plus the
    /// scalar-remainder sum. Each output element is still computed in
    /// one shot, and lane assignment and the combine tree depend only on
    /// `k`, so nothing varies with the partition.
    #[inline(always)]
    fn matmul_nt_rows_blocked_impl(
        &self,
        rhs: &Matrix,
        range: std::ops::Range<usize>,
        block: &mut [f64],
    ) {
        let w = rhs.rows;
        let kd = self.cols;
        let mut jc = 0;
        while jc < w {
            let jc_end = (jc + KC).min(w);
            for (bi, i) in range.clone().enumerate() {
                let a_row = self.row(i);
                let out_row = &mut block[bi * w..(bi + 1) * w];
                for (dj, o) in out_row[jc..jc_end].iter_mut().enumerate() {
                    let b_row = rhs.row(jc + dj);
                    let mut acc = [0.0f64; KB];
                    let mut k = 0;
                    while k + KB <= kd {
                        let a: &[f64; KB] = a_row[k..k + KB].try_into().unwrap();
                        let b: &[f64; KB] = b_row[k..k + KB].try_into().unwrap();
                        for u in 0..KB {
                            acc[u] += a[u] * b[u];
                        }
                        k += KB;
                    }
                    let mut tail = 0.0;
                    while k < kd {
                        tail += a_row[k] * b_row[k];
                        k += 1;
                    }
                    *o = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                        + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
                        + tail;
                }
            }
            jc = jc_end;
        }
    }

    /// AVX2-compiled instantiations of the blocked bodies. Same inlined
    /// expression tree as the baseline compilation — see
    /// [`avx2_available`] for why results stay bitwise identical.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_rows_blocked_avx2(
        &self,
        rhs: &Matrix,
        range: std::ops::Range<usize>,
        block: &mut [f64],
    ) {
        self.matmul_rows_blocked_impl(rhs, range, block)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_tn_rows_blocked_avx2(
        &self,
        rhs: &Matrix,
        range: std::ops::Range<usize>,
        block: &mut [f64],
    ) {
        self.matmul_tn_rows_blocked_impl(rhs, range, block)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn matmul_nt_rows_blocked_avx2(
        &self,
        rhs: &Matrix,
        range: std::ops::Range<usize>,
        block: &mut [f64],
    ) {
        self.matmul_nt_rows_blocked_impl(rhs, range, block)
    }

    /// Blocked `self * rhs` body with runtime ISA dispatch.
    fn matmul_rows_blocked(&self, rhs: &Matrix, range: std::ops::Range<usize>, block: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: the AVX2 requirement is checked at runtime above.
            unsafe { return self.matmul_rows_blocked_avx2(rhs, range, block) };
        }
        self.matmul_rows_blocked_impl(rhs, range, block)
    }

    /// Blocked `selfᵀ * rhs` body with runtime ISA dispatch.
    fn matmul_tn_rows_blocked(
        &self,
        rhs: &Matrix,
        range: std::ops::Range<usize>,
        block: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: the AVX2 requirement is checked at runtime above.
            unsafe { return self.matmul_tn_rows_blocked_avx2(rhs, range, block) };
        }
        self.matmul_tn_rows_blocked_impl(rhs, range, block)
    }

    /// Blocked `self * rhsᵀ` body with runtime ISA dispatch.
    fn matmul_nt_rows_blocked(
        &self,
        rhs: &Matrix,
        range: std::ops::Range<usize>,
        block: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: the AVX2 requirement is checked at runtime above.
            unsafe { return self.matmul_nt_rows_blocked_avx2(rhs, range, block) };
        }
        self.matmul_nt_rows_blocked_impl(rhs, range, block)
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

//! The sparse input product equals the dense one, bitwise.
//!
//! A model's first layer computes `X·W` over a feature matrix that is
//! mostly zeros. Run as `spmm` over `SparseMatrix::from(X)`'s pattern,
//! the product skips every `x = ±0.0` term (a stored `-0.0` is skipped
//! by the kernels' zero test), and its backward computes `dW = Xᵀ·g` as
//! `spmm_t`. For finite operands both must equal the dense scalar
//! kernels to the bit: each skipped term is a `±0.0` product, and every
//! output element adds the remaining terms in the same ascending order.
//! The reference is the scalar kernel. Under `parallel` the kernels are
//! also swept over pools of several widths.

use std::rc::Rc;

use mg_tensor::{Matrix, SparseMatrix, Tape};
use proptest::prelude::*;

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` on the ambient pool and, under `parallel`, on pools of one
/// to four threads, returning every result.
fn on_pools<R>(f: impl Fn() -> R) -> Vec<R> {
    #[allow(unused_mut)]
    let mut out = vec![f()];
    #[cfg(feature = "parallel")]
    for k in 1..=4 {
        let pool = std::sync::Arc::new(mg_runtime::Pool::new(k));
        out.push(mg_runtime::with_pool(pool, &f));
    }
    out
}

/// Features with mostly exact zeros (some of them `-0.0`), mixed-sign
/// non-zeros, and one all-zero row and one all-zero column.
fn features(rows: usize, cols: usize, codes: &[(u8, f64)]) -> Matrix {
    let mut x = Matrix::from_fn(rows, cols, |i, j| match codes[i * cols + j] {
        (0..=5, _) => 0.0,
        (6, _) => -0.0,
        (_, v) => v,
    });
    let (zr, zc) = (rows / 2, cols / 3);
    for v in x.row_mut(zr) {
        *v = 0.0;
    }
    for i in 0..rows {
        x[(i, zc)] = 0.0;
    }
    x
}

fn feature_matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0u8..10, -3.0..3.0f64), r * c)
            .prop_map(move |codes| features(r, c, &codes))
    })
}

fn dense(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 37 + j * 11 + seed * 7) % 29) as f64 * 0.173 - 2.4
    })
}

/// Asserts the forward and dW parity of `x` against `w` (`f x d`) and
/// upstream `g` (`n x d`) through the kernels and the tape op.
fn assert_parity(x: &Matrix, w: &Matrix, g: &Matrix) {
    let (csr, vals) = SparseMatrix::from(x).into_parts();
    let want_fwd = bits(&x.matmul_serial(w));
    let want_dw = bits(&x.matmul_tn_serial(g));
    assert_eq!(bits(&csr.spmm_serial(&vals, w)), want_fwd, "spmm_serial");
    assert_eq!(bits(&csr.spmm_t_serial(&vals, g)), want_dw, "spmm_t_serial");
    let csr = Rc::new(csr);
    for (fwd, dw, tape_fwd, tape_dw) in on_pools(|| {
        let tape = Tape::new();
        let v = tape.constant(Matrix::from_vec(1, vals.len(), vals.clone()));
        let wv = tape.leaf(w.clone(), true);
        let y = tape.spmm(csr.clone(), v, wv);
        let loss = tape.sum_all(tape.mul_elem(y, tape.constant(g.clone())));
        let tape_fwd = tape.value_cloned(y);
        let grads = tape.backward(loss);
        (
            csr.spmm(&vals, w),
            csr.spmm_t(&vals, g),
            tape_fwd,
            grads.get(wv).expect("w requires grad").clone(),
        )
    }) {
        assert_eq!(bits(&fwd), want_fwd, "spmm");
        assert_eq!(bits(&dw), want_dw, "spmm_t");
        assert_eq!(bits(&tape_fwd), want_fwd, "tape spmm");
        assert_eq!(bits(&tape_dw), want_dw, "tape spmm backward");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_input_product_matches_dense_bitwise(x in feature_matrix(1..40, 1..40), d in 1..9usize) {
        let w = dense(x.cols(), d, 1);
        let g = dense(x.rows(), d, 2);
        assert_parity(&x, &w, &g);
    }
}

/// Large enough that a multi-thread pool splits both the forward rows
/// and the transposed (feature) rows of the dW product.
#[test]
fn wide_sparse_input_matches_dense_bitwise_on_split_pools() {
    let (n, f, d) = (300, 260, 16);
    let codes: Vec<(u8, f64)> = (0..n * f)
        .map(|k| (((k * 7919) % 10) as u8, ((k * 31) % 61) as f64 * 0.1 - 3.0))
        .collect();
    let x = features(n, f, &codes);
    assert!(x.data().iter().any(|&v| v == 0.0 && v.is_sign_negative()));
    assert_parity(&x, &dense(f, d, 3), &dense(n, d, 4));
}

#[test]
fn sparse_keeps_every_entry_but_positive_zero() {
    let x = Matrix::from_vec(2, 4, vec![0.0, 1.5, -0.0, f64::NAN, 0.0, 0.0, 0.0, -2.0]);
    let s = SparseMatrix::from(&x);
    assert!(!s.all_finite());
    let (csr, v) = s.into_parts();
    assert_eq!((csr.rows(), csr.cols()), (2, 4));
    assert_eq!(csr.indptr(), &[0, 3, 4]);
    assert_eq!(csr.indices(), &[1, 2, 3, 3]);
    assert_eq!((v[0], v[3]), (1.5, -2.0));
    assert_eq!(v[1].to_bits(), (-0.0f64).to_bits());
    assert!(v[2].is_nan());
}

/// Values that exercise every bit pattern class `From<Matrix>` must keep:
/// `±0.0`, NaN, ±∞ and ordinary numbers, zeros most often.
fn special(code: u8, v: f64) -> f64 {
    match code {
        0..=4 => 0.0,
        5 => -0.0,
        6 => f64::NAN,
        7 => f64::INFINITY,
        8 => f64::NEG_INFINITY,
        _ => v,
    }
}

/// An `r x c` matrix of [`special`] values with row `r / 2` and column
/// `c / 3` zeroed (when they exist). `r` and `c` may each be 0.
fn roundtrip_matrix() -> impl Strategy<Value = Matrix> {
    (0..12usize, 0..12usize).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0u8..12, -3.0..3.0f64), r * c).prop_map(move |codes| {
            let mut m = Matrix::from_fn(r, c, |i, j| {
                let (code, v) = codes[i * c + j];
                special(code, v)
            });
            for i in 0..r {
                for j in 0..c {
                    if i == r / 2 || j == c / 3 {
                        m[(i, j)] = 0.0;
                    }
                }
            }
            m
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Matrix → SparseMatrix → to_dense` gives back every bit, and the
    /// sparse form stores exactly the entries that are not `+0.0`.
    #[test]
    fn dense_sparse_dense_is_bit_identical(m in roundtrip_matrix()) {
        let s = SparseMatrix::from(&m);
        prop_assert_eq!((s.rows(), s.cols()), (m.rows(), m.cols()));
        prop_assert_eq!(bits(&s.to_dense()), bits(&m));
        let stored = m.data().iter().filter(|v| v.to_bits() != 0).count();
        prop_assert_eq!(s.nnz(), stored);
        prop_assert_eq!(s.all_finite(), m.all_finite());
        let rows_bits: Vec<u64> = (0..s.rows())
            .flat_map(|i| {
                let mut row = vec![0.0; s.cols()];
                for (c, v) in s.row(i) {
                    row[c] = v;
                }
                row
            })
            .map(|v| v.to_bits())
            .collect();
        prop_assert_eq!(rows_bits, bits(&m));
        let word = std::mem::size_of::<usize>();
        prop_assert_eq!(s.heap_bytes(), word * (m.rows() + 1) + 12 * stored);
    }
}

#[test]
fn empty_shapes_roundtrip() {
    for (r, c) in [(0, 0), (0, 5), (4, 0)] {
        let m = Matrix::zeros(r, c);
        let s = SparseMatrix::from(&m);
        assert_eq!((s.rows(), s.cols(), s.nnz()), (r, c, 0));
        assert_eq!(s.to_dense(), m);
        assert!((0..r).all(|i| s.row(i).next().is_none()));
    }
}

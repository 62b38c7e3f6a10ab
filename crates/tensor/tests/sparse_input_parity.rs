//! The sparse input product equals the dense one, bitwise.
//!
//! A model's first layer computes `X·W` over a feature matrix that is
//! mostly zeros. Run as `spmm` over `Csr::from_dense(X)`, the product
//! skips every `x = ±0.0` term, and its backward computes `dW = Xᵀ·g` as
//! `spmm_t`. For finite operands both must equal the dense scalar
//! kernels to the bit: each skipped term is a `±0.0` product, and every
//! output element adds the remaining terms in the same ascending order.
//! `spmm` is never blocked, so the reference is the scalar kernel in
//! every feature mode. Under `parallel` the kernels are also swept over
//! pools of several widths.

use std::rc::Rc;

use mg_tensor::{Csr, Matrix, Tape};
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
    let (csr, vals) = Csr::from_dense(x);
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
        let grads = tape.backward(loss);
        (
            csr.spmm(&vals, w),
            csr.spmm_t(&vals, g),
            tape.value_cloned(y),
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
fn from_dense_keeps_exactly_the_nonzeros() {
    let x = Matrix::from_vec(2, 4, vec![0.0, 1.5, -0.0, f64::NAN, 0.0, 0.0, 0.0, -2.0]);
    let (csr, vals) = Csr::from_dense(&x);
    assert_eq!((csr.rows(), csr.cols()), (2, 4));
    assert_eq!(csr.indptr(), &[0, 2, 3]);
    assert_eq!(csr.indices(), &[1, 3, 3]);
    assert_eq!(vals[0], 1.5);
    assert!(vals[1].is_nan());
    assert_eq!(vals[2], -2.0);
}

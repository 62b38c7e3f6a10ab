//! Bitwise parity between serial and parallel kernel execution.
//!
//! Every kernel dispatched through `mg-runtime` promises results
//! *bitwise identical* to the serial path for any thread count. These
//! tests sweep pools of 1..=8 threads via `with_pool` (so no environment
//! variables are involved) and compare against the `*_serial` reference
//! implementations with exact `==`, both for forward kernels and for
//! full gradients through the tape.

#![cfg(feature = "parallel")]

use std::rc::Rc;
use std::sync::Arc;

use mg_runtime::{with_pool, Pool};
use mg_tensor::{Csr, Matrix, Tape};
use proptest::prelude::*;

/// Thread counts swept by every parity test. 1 exercises the serial
/// degradation path (`MG_NUM_THREADS=1` builds the same one-thread pool
/// for the global); the rest oversubscribe this machine freely.
const THREADS: std::ops::RangeInclusive<usize> = 1..=8;

fn pools() -> impl Iterator<Item = Arc<Pool>> {
    THREADS.map(|k| Arc::new(Pool::new(k)))
}

/// Bitwise references for the dispatched matmul family: the scalar
/// loops, which the register-tiled kernels match for any partition.
fn matmul_ref(a: &Matrix, b: &Matrix) -> Matrix {
    a.matmul_serial(b)
}

fn matmul_tn_ref(a: &Matrix, b: &Matrix) -> Matrix {
    a.matmul_tn_serial(b)
}

fn matmul_nt_ref(a: &Matrix, b: &Matrix) -> Matrix {
    a.matmul_nt_serial(b)
}

/// Strategy: a random matrix with the given shape bounds. Shapes go well
/// past the parallel thresholds so chunked paths actually run.
fn matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Strategy: a random CSR structure with values, `rows x cols`, dense
/// enough to matter and tall enough to cross MIN_SPARSE_ROWS.
fn csr_with_values(rows: usize, cols: usize) -> impl Strategy<Value = (Csr, Vec<f64>)> {
    proptest::collection::btree_set((0..rows as u32, 0..cols as u32), 1..rows * 4).prop_flat_map(
        move |set| {
            let entries: Vec<(u32, u32)> = set.into_iter().collect();
            let nnz = entries.len();
            proptest::collection::vec(-5.0..5.0f64, nnz)
                .prop_map(move |vals| (Csr::from_coo(rows, cols, &entries), vals))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_parity((a, b) in (1..40usize, 1..40usize, 1..40usize).prop_flat_map(|(r, k, c)| {
        (
            proptest::collection::vec(-5.0..5.0f64, r * k),
            proptest::collection::vec(-5.0..5.0f64, k * c),
        )
            .prop_map(move |(a, b)| (Matrix::from_vec(r, k, a), Matrix::from_vec(k, c, b)))
    })) {
        let reference = matmul_ref(&a, &b);
        for pool in pools() {
            let got = with_pool(pool.clone(), || a.matmul(&b));
            prop_assert_eq!(got.data(), reference.data());
        }
    }

    #[test]
    fn matmul_tn_parity(a in matrix(1..48, 1..20), q in 1..20usize) {
        // a: n x p; b must be n x q
        let b = Matrix::from_fn(a.rows(), q, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let reference = matmul_tn_ref(&a, &b);
        for pool in pools() {
            let got = with_pool(pool.clone(), || a.matmul_tn(&b));
            prop_assert_eq!(got.data(), reference.data());
        }
    }

    #[test]
    fn matmul_nt_parity(a in matrix(1..48, 1..16), rows_b in 1..37usize) {
        // a: n x p; b must be q x p
        let b = Matrix::from_fn(rows_b, a.cols(), |i, j| ((i * 17 + j * 3) % 11) as f64 - 5.0);
        let reference = matmul_nt_ref(&a, &b);
        for pool in pools() {
            let got = with_pool(pool.clone(), || a.matmul_nt(&b));
            prop_assert_eq!(got.data(), reference.data());
        }
    }

    #[test]
    fn elementwise_parity(m in matrix(260..300, 260..300)) {
        // 260x260 = 67600+ elements: past MIN_ELEMS (32768, so two full
        // chunks) — the chunked path actually engages.
        let mapped_ref = {
            let serial: Vec<f64> = m.data().iter().map(|&x| (x * 1.5).tanh()).collect();
            serial
        };
        let zipped_ref: Vec<f64> =
            m.data().iter().map(|&x| x * x + 0.5 * x).collect();
        for pool in pools() {
            let mapped = with_pool(pool.clone(), || m.map(|x| (x * 1.5).tanh()));
            prop_assert_eq!(mapped.data(), &mapped_ref[..]);
            let zipped = with_pool(pool.clone(), || m.zip(&m, |a, b| a * b + 0.5 * a));
            prop_assert_eq!(zipped.data(), &zipped_ref[..]);
            let mut acc = Matrix::zeros(m.rows(), m.cols());
            with_pool(pool.clone(), || acc.add_scaled(&m, 0.25));
            let acc_ref: Vec<f64> = m.data().iter().map(|&x| 0.25 * x).collect();
            prop_assert_eq!(acc.data(), &acc_ref[..]);
        }
    }

    #[test]
    fn spmm_parity((csr, vals) in csr_with_values(200, 60), d in 1..24usize) {
        let x = Matrix::from_fn(60, d, |i, j| ((i * 13 + j * 5) % 17) as f64 * 0.25 - 2.0);
        let reference = csr.spmm_serial(&vals, &x);
        for pool in pools() {
            let got = with_pool(pool.clone(), || csr.spmm(&vals, &x));
            prop_assert_eq!(got.data(), reference.data());
        }
    }

    #[test]
    fn spmm_bias_relu_parity((csr, vals) in csr_with_values(200, 60), d in 1..24usize) {
        let x = Matrix::from_fn(60, d, |i, j| ((i * 13 + j * 5) % 17) as f64 * 0.25 - 2.0);
        let bias: Vec<f64> = (0..d).map(|j| (j % 5) as f64 * 0.3 - 0.6).collect();
        let reference = csr.spmm_bias_relu_serial(&vals, &x, &bias);
        for pool in pools() {
            let got = with_pool(pool.clone(), || csr.spmm_bias_relu(&vals, &x, &bias));
            prop_assert_eq!(got.data(), reference.data());
        }
    }

    #[test]
    fn spmm_t_parity((csr, vals) in csr_with_values(90, 200), d in 1..24usize) {
        let x = Matrix::from_fn(90, d, |i, j| ((i * 7 + j * 11) % 19) as f64 * 0.125 - 1.0);
        let reference = csr.spmm_t_serial(&vals, &x);
        for pool in pools() {
            let got = with_pool(pool.clone(), || csr.spmm_t(&vals, &x));
            prop_assert_eq!(got.data(), reference.data());
        }
    }

    #[test]
    fn spmm_t_transpose_cache_parity((csr, vals) in csr_with_values(90, 200), d in 1..16usize) {
        // The parallel spmm_t family partitions over the lazily-built
        // transpose cache. Check both kernels against the serial scatter
        // reference with a cold cache (first parallel call builds it) and
        // again with an explicitly warmed cache, across pools 1..=8.
        let x = Matrix::from_fn(90, d, |i, j| ((i * 3 + j * 13) % 23) as f64 * 0.25 - 2.5);
        let g = Matrix::from_fn(200, d, |i, j| ((i * 5 + j * 7) % 17) as f64 * 0.5 - 4.0);
        let f_ref = csr.spmm_t_serial(&vals, &x);
        let gv_ref = csr.spmm_t_grad_values_serial(&g, &x);
        // a structurally-equal rebuild whose cache is guaranteed cold
        let cold = Csr::from_parts(
            csr.rows(), csr.cols(), csr.indptr().to_vec(), csr.indices().to_vec(),
        );
        prop_assert_eq!(&cold, &csr);
        for pool in pools() {
            let got = with_pool(pool.clone(), || cold.spmm_t(&vals, &x));
            prop_assert_eq!(got.data(), f_ref.data());
            let gv = with_pool(pool.clone(), || cold.spmm_t_grad_values(&g, &x));
            prop_assert_eq!(gv.data(), gv_ref.data());
        }
        // warm the cache through the public API, then re-check; a clone
        // shares the warm cache and must agree too
        let _ = csr.transpose_struct();
        let warm_clone = csr.clone();
        for pool in pools() {
            let got = with_pool(pool.clone(), || csr.spmm_t(&vals, &x));
            prop_assert_eq!(got.data(), f_ref.data());
            let got_clone = with_pool(pool.clone(), || warm_clone.spmm_t(&vals, &x));
            prop_assert_eq!(got_clone.data(), f_ref.data());
            let gv = with_pool(pool.clone(), || csr.spmm_t_grad_values(&g, &x));
            prop_assert_eq!(gv.data(), gv_ref.data());
        }
    }

    #[test]
    fn gradient_parity((csr, vals) in csr_with_values(150, 40), w_cols in 1..12usize) {
        // Loss = sum(relu(A · X) · W) exercises spmm forward, the spmm
        // value-gradient kernel, matmul forward/backward (matmul_nt,
        // matmul_tn) and elementwise zip in one tape.
        let d = 8;
        let x_init = Matrix::from_fn(40, d, |i, j| ((i * 3 + j) % 7) as f64 * 0.5 - 1.5);
        let w = Matrix::from_fn(d, w_cols, |i, j| ((i + j * 2) % 5) as f64 * 0.3 - 0.6);
        let run = || {
            let tape = Tape::new();
            let values = tape.leaf(Matrix::from_vec(1, vals.len(), vals.clone()), true);
            let x = tape.leaf(x_init.clone(), true);
            let wv = tape.leaf(w.clone(), true);
            let h = tape.spmm(Rc::new(csr.clone()), values, x);
            let h = tape.relu(h);
            let y = tape.matmul(h, wv);
            let loss = tape.sum_all(y);
            let grads = tape.backward(loss);
            (
                grads.get(values).unwrap().clone(),
                grads.get(x).unwrap().clone(),
                grads.get(wv).unwrap().clone(),
            )
        };
        let reference = with_pool(Arc::new(Pool::new(1)), run);
        for pool in pools() {
            let got = with_pool(pool.clone(), run);
            prop_assert_eq!(got.0.data(), reference.0.data());
            prop_assert_eq!(got.1.data(), reference.1.data());
            prop_assert_eq!(got.2.data(), reference.2.data());
        }
    }

    #[test]
    fn gradient_parity_spmm_t((csr, vals) in csr_with_values(40, 150)) {
        // Loss = sum(Aᵀ · X) exercises spmm_t forward and its
        // value-gradient kernel.
        let d = 6;
        let x_init = Matrix::from_fn(40, d, |i, j| ((i * 5 + j) % 9) as f64 * 0.25 - 1.0);
        let run = || {
            let tape = Tape::new();
            let values = tape.leaf(Matrix::from_vec(1, vals.len(), vals.clone()), true);
            let x = tape.leaf(x_init.clone(), true);
            let h = tape.spmm_t(Rc::new(csr.clone()), values, x);
            let loss = tape.sum_all(h);
            let grads = tape.backward(loss);
            (grads.get(values).unwrap().clone(), grads.get(x).unwrap().clone())
        };
        let reference = with_pool(Arc::new(Pool::new(1)), run);
        for pool in pools() {
            let got = with_pool(pool.clone(), run);
            prop_assert_eq!(got.0.data(), reference.0.data());
            prop_assert_eq!(got.1.data(), reference.1.data());
        }
    }
}

/// `Pool::new(1)` is exactly the pool `MG_NUM_THREADS=1` builds for the
/// global; under it every kernel must take the inline serial path and
/// match the `*_serial` reference trivially (no workers are even
/// spawned — see `mg_runtime::Pool`).
#[test]
fn one_thread_degrades_to_serial() {
    let a = Matrix::from_fn(64, 32, |i, j| (i * j) as f64 * 0.01 - 5.0);
    let b = Matrix::from_fn(32, 48, |i, j| (i + j) as f64 * 0.1 - 2.0);
    let pool = Arc::new(Pool::new(1));
    assert!(!pool.is_parallel());
    let (mm, tn, nt) = with_pool(pool, || (a.matmul(&b), a.matmul_tn(&a), a.matmul_nt(&a)));
    assert_eq!(mm, matmul_ref(&a, &b));
    assert_eq!(tn, matmul_tn_ref(&a, &a));
    assert_eq!(nt, matmul_nt_ref(&a, &a));
}

/// A 4-thread pool cuts these outputs into 16 (or, for the Student-t
/// kernel, 4) row chunks of 62-63, 44-45 and 250 rows: none a multiple of
/// the 4-row register tile, so every chunk ends in 1-row tail tiles that
/// a one-thread run computes inside full tiles. The bits must not move.
#[test]
fn tiled_kernels_bitwise_on_uneven_four_thread_chunks() {
    let pool = Arc::new(Pool::new(4));
    let one = Arc::new(Pool::new(1));
    let m = |r: usize, c: usize, s: usize| {
        Matrix::from_fn(r, c, |i, j| {
            ((i * 31 + j * 17 + s) % 23) as f64 * 0.37 - 4.1
        })
    };
    // nn and nt: 1000 output rows over 64 x 64 (min chunk 32 rows)
    let (a, b) = (m(1000, 64, 1), m(64, 64, 2));
    let nn = with_pool(pool.clone(), || a.matmul(&b));
    assert_eq!(nn.data(), a.matmul_serial(&b).data(), "matmul");
    let nt = with_pool(pool.clone(), || a.matmul_nt(&b));
    assert_eq!(nt.data(), a.matmul_nt_serial(&b).data(), "matmul_nt");
    // tn: 530 output rows, depth 50, 64 wide (min chunk 41 rows)
    let (a, b) = (m(50, 530, 3), m(50, 64, 4));
    let tn = with_pool(pool.clone(), || a.matmul_tn(&b));
    assert_eq!(tn.data(), a.matmul_tn_serial(&b).data(), "matmul_tn");
    // Student-t kernel: 1000 rows of 16 x 37 (min chunk 222 rows)
    let h = m(1000, 16, 5);
    let egos = Rc::new((0..37).map(|c| c * 27).collect::<Vec<_>>());
    let kl = |pool: &Arc<Pool>| {
        with_pool(pool.clone(), || {
            let tape = Tape::new();
            let hv = tape.leaf(h.clone(), true);
            let loss = tape.student_t_kl(hv, egos.clone());
            let value = tape.value(loss).scalar().to_bits();
            let grad = tape.backward(loss).get(hv).unwrap().clone();
            (
                value,
                grad.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            )
        })
    };
    assert_eq!(kl(&pool), kl(&one), "student_t_kl loss and gradient");
}

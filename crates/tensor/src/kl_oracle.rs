//! Bitwise oracle for the Student-t KL op (AdamGNN Eq. 5).
//!
//! The loops below are the plain dense form of the op: the one-ego
//! kernel loop, `Q` and `P` built as full `n x m` matrices, and the
//! indexed (j, c, k) backward. The tape's op streams rows of `Q` and `P`
//! instead, runs the kernel four egos at a time and walks row slices in
//! backward; these tests pin that none of that moves a bit of the loss or
//! the gradient.

use std::rc::Rc;

use rand::{RngExt, SeedableRng};

use crate::matrix::Matrix;
use crate::tape::Tape;

fn kernel(h: &Matrix, egos: &[usize]) -> Matrix {
    let n = h.rows();
    let mut t = Matrix::zeros(n, egos.len());
    for j in 0..n {
        for (c, &e) in egos.iter().enumerate() {
            let mut d2 = 0.0;
            for (a, b) in h.row(j).iter().zip(h.row(e)) {
                let diff = a - b;
                d2 += diff * diff;
            }
            t[(j, c)] = 1.0 / (1.0 + d2);
        }
    }
    t
}

fn distributions(t: &Matrix) -> (Matrix, Matrix) {
    let (n, m) = t.shape();
    let mut q = Matrix::zeros(n, m);
    for j in 0..n {
        let row_sum: f64 = t.row(j).iter().sum();
        for c in 0..m {
            q[(j, c)] = t[(j, c)] / row_sum;
        }
    }
    let mut g = vec![0.0f64; m];
    for j in 0..n {
        for c in 0..m {
            g[c] += q[(j, c)];
        }
    }
    let mut p = Matrix::zeros(n, m);
    for j in 0..n {
        let mut denom = 0.0;
        for c in 0..m {
            denom += q[(j, c)] * q[(j, c)] / g[c];
        }
        for c in 0..m {
            p[(j, c)] = (q[(j, c)] * q[(j, c)] / g[c]) / denom;
        }
    }
    (q, p)
}

/// Loss and `dL/dh` scaled by `upstream`, the dense way.
fn loss_and_grad(
    h: &Matrix,
    egos: &[usize],
    target: Option<&Matrix>,
    upstream: f64,
) -> (f64, Matrix) {
    let t = kernel(h, egos);
    let (n, m) = t.shape();
    let (q, self_p) = distributions(&t);
    let p = target.unwrap_or(&self_p);
    let mut loss = 0.0;
    for j in 0..n {
        for c in 0..m {
            let (pj, qj) = (p[(j, c)], q[(j, c)]);
            if pj > 0.0 {
                loss += pj * (pj / qj).ln();
            }
        }
    }
    let d = h.cols();
    let gs = upstream / n as f64;
    let mut gh = Matrix::zeros(n, d);
    for j in 0..n {
        let t_row_sum: f64 = t.row(j).iter().sum();
        for (c, &e) in egos.iter().enumerate() {
            let qv = q[(j, c)];
            if qv <= 0.0 {
                continue;
            }
            let dl_dt = gs * (1.0 - p[(j, c)] / qv) / t_row_sum;
            let tv = t[(j, c)];
            let coef = dl_dt * (-tv * tv) * 2.0;
            for k in 0..d {
                let diff = h[(j, k)] - h[(e, k)];
                gh[(j, k)] += coef * diff;
                gh[(e, k)] -= coef * diff;
            }
        }
    }
    (loss / n as f64, gh)
}

/// The tape op's loss and gradient with the same upstream scale.
fn tape_loss_and_grad(
    h0: &Matrix,
    egos: &[usize],
    target: Option<&Matrix>,
    upstream: f64,
) -> (f64, Matrix) {
    let tape = Tape::new();
    let h = tape.leaf(h0.clone(), true);
    let egos = Rc::new(egos.to_vec());
    let loss = match target {
        Some(p) => tape.student_t_kl_with_target(h, egos, Rc::new(p.clone())),
        None => tape.student_t_kl(h, egos),
    };
    let value = tape.value(loss).scalar();
    let grads = tape.backward(tape.scale(loss, upstream));
    (value, grads.get(h).expect("h requires grad").clone())
}

fn random_h(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, d, |_, _| rng.random_range(-1.5..1.5))
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

fn assert_bitwise(h: &Matrix, egos: &[usize], target: Option<&Matrix>, upstream: f64) {
    let (want_loss, want_grad) = loss_and_grad(h, egos, target, upstream);
    let (got_loss, got_grad) = tape_loss_and_grad(h, egos, target, upstream);
    assert_eq!(
        got_loss.to_bits(),
        want_loss.to_bits(),
        "loss, egos {egos:?}"
    );
    assert_eq!(bits(&got_grad), bits(&want_grad), "gradient, egos {egos:?}");
}

#[test]
fn kernel_matches_one_ego_loop_bitwise() {
    let h = random_h(13, 7, 1);
    for m in 1..=13 {
        let egos: Vec<usize> = (0..m).map(|c| (c * 5) % 13).collect();
        let got = crate::ops::student_t_kernel(&h, &egos);
        assert_eq!(bits(&got), bits(&kernel(&h, &egos)), "{m} egos");
    }
}

/// Every node is an ego, so every row meets its own `e == j` term; 23
/// egos also leave a remainder of three after the four-ego passes.
#[test]
fn self_target_matches_dense_oracle_with_every_self_term() {
    let h = random_h(23, 6, 2);
    let egos: Vec<usize> = (0..23).rev().collect();
    assert_bitwise(&h, &egos, None, 1.0);
    assert_bitwise(&h, &egos, None, 0.37);
}

#[test]
fn sparse_and_repeated_egos_match_dense_oracle() {
    let h = random_h(17, 5, 3);
    for egos in [
        vec![4],
        vec![0, 16],
        vec![3, 9, 9],
        vec![1, 2, 3, 4],
        vec![16, 0, 8, 4, 12],
    ] {
        assert_bitwise(&h, &egos, None, -2.5);
    }
}

#[test]
fn explicit_target_matches_dense_oracle() {
    let h = random_h(19, 4, 4);
    let egos = vec![0, 5, 7, 11, 18, 2, 3];
    let target = distributions(&kernel(&random_h(19, 4, 5), &egos)).1;
    assert_bitwise(&h, &egos, Some(&target), 1.0);
    // an exact zero in P skips its loss term; the gradient keeps it
    let mut sparse = target.clone();
    sparse[(3, 2)] = 0.0;
    assert_bitwise(&h, &egos, Some(&sparse), 0.5);
}

#[test]
fn public_target_matches_dense_oracle() {
    let h = random_h(11, 3, 6);
    let egos = vec![1, 4, 6, 10, 0];
    let got = crate::ops::student_t_target(&h, &egos);
    assert_eq!(bits(&got), bits(&distributions(&kernel(&h, &egos)).1));
}

/// The backward runs up to four consecutive non-ego rows as one pass.
/// Runs of 1 to 9 non-ego rows between egos, starting at every offset,
/// put an ego row at every position mod 4 and leave passes of every
/// length; `d` is not a multiple of 8, and row 12 is a copy of row 0, so
/// some (row, ego) pairs are at distance zero.
#[test]
fn every_run_of_non_ego_rows_matches_dense_oracle() {
    for d in [5, 11] {
        let mut h = random_h(41, d, 7);
        for k in 0..d {
            h[(12, k)] = h[(0, k)];
        }
        for gap in 1..=9 {
            for start in 0..4 {
                let egos: Vec<usize> = (start..41).step_by(gap + 1).collect();
                assert_bitwise(&h, &egos, None, 0.8);
            }
        }
    }
}

/// Ego counts one past and one short of the kernel's 8-ego tiles, with
/// and without repeats (a repeat sends every row down the one-row path),
/// and explicit targets holding exact zeros inside the passes.
#[test]
fn tile_tails_repeats_and_zero_targets_match_dense_oracle() {
    let h = random_h(41, 11, 8);
    for m in [9, 15, 17, 23] {
        let egos: Vec<usize> = (0..m).map(|c| (c * 7 + 3) % 41).collect();
        assert_bitwise(&h, &egos, None, 1.3);
        let mut repeated = egos.clone();
        repeated[m - 1] = repeated[1];
        assert_bitwise(&h, &repeated, None, 1.3);
        let mut target = distributions(&kernel(&random_h(41, 11, 9), &egos)).1;
        for j in [0, 1, 5, 6, 13, 40] {
            target[(j, j % m)] = 0.0;
        }
        assert_bitwise(&h, &egos, Some(&target), -0.6);
    }
}

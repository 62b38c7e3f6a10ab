//! Central-difference gradient checks for every differentiable op.
//!
//! These tests are what make the autograd engine trustworthy: each op's
//! hand-written backward is validated against a numeric gradient on
//! random inputs.

use std::rc::Rc;

use mg_tensor::{check_gradients, Csr, Matrix, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f64 = 1e-5;
const TOL: f64 = 1e-6;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn rand_m(r: usize, c: usize, seed: u64) -> Matrix {
    Matrix::uniform(r, c, -1.0, 1.0, &mut rng(seed))
}

/// Reduce any matrix-valued var to a scalar with a fixed random projection
/// so the gradient exercises every output entry with distinct weights.
fn project(tape: &Tape, v: Var, seed: u64) -> Var {
    let (r, c) = tape.shape(v);
    let w = tape.constant(Matrix::uniform(r, c, -1.0, 1.0, &mut rng(seed ^ 0xabcd)));
    let prod = tape.mul_elem(v, w);
    tape.sum_all(prod)
}

#[test]
fn grad_add() {
    let rep = check_gradients(&[rand_m(3, 4, 1), rand_m(3, 4, 2)], EPS, |t, v| {
        let y = t.add(v[0], v[1]);
        project(t, y, 3)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_sub() {
    let rep = check_gradients(&[rand_m(3, 4, 4), rand_m(3, 4, 5)], EPS, |t, v| {
        let y = t.sub(v[0], v[1]);
        project(t, y, 6)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_mul_elem() {
    let rep = check_gradients(&[rand_m(3, 4, 7), rand_m(3, 4, 8)], EPS, |t, v| {
        let y = t.mul_elem(v[0], v[1]);
        project(t, y, 9)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_scale_and_add_scalar() {
    let rep = check_gradients(&[rand_m(2, 3, 10)], EPS, |t, v| {
        let y = t.scale(v[0], -2.5);
        let z = t.add_scalar(y, 0.7);
        project(t, z, 11)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_add_bias() {
    let rep = check_gradients(&[rand_m(4, 3, 12), rand_m(1, 3, 13)], EPS, |t, v| {
        let y = t.add_bias(v[0], v[1]);
        project(t, y, 14)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_matmul_both_sides() {
    let rep = check_gradients(&[rand_m(3, 4, 15), rand_m(4, 2, 16)], EPS, |t, v| {
        let y = t.matmul(v[0], v[1]);
        project(t, y, 17)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_transpose() {
    let rep = check_gradients(&[rand_m(3, 5, 18)], EPS, |t, v| {
        let y = t.transpose(v[0]);
        project(t, y, 19)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_relu() {
    // shift inputs away from the kink at 0
    let mut x = rand_m(3, 4, 20);
    for v in x.data_mut() {
        if v.abs() < 0.05 {
            *v += 0.1;
        }
    }
    let rep = check_gradients(&[x], EPS, |t, v| {
        let y = t.relu(v[0]);
        project(t, y, 21)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_leaky_relu() {
    let mut x = rand_m(3, 4, 22);
    for v in x.data_mut() {
        if v.abs() < 0.05 {
            *v += 0.1;
        }
    }
    let rep = check_gradients(&[x], EPS, |t, v| {
        let y = t.leaky_relu(v[0], 0.2);
        project(t, y, 23)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_sigmoid() {
    let rep = check_gradients(&[rand_m(3, 4, 24)], EPS, |t, v| {
        let y = t.sigmoid(v[0]);
        project(t, y, 25)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_tanh() {
    let rep = check_gradients(&[rand_m(3, 4, 26)], EPS, |t, v| {
        let y = t.tanh(v[0]);
        project(t, y, 27)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_softmax_rows() {
    let rep = check_gradients(&[rand_m(3, 5, 28)], EPS, |t, v| {
        let y = t.softmax_rows(v[0]);
        project(t, y, 29)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_log_softmax_rows() {
    let rep = check_gradients(&[rand_m(3, 5, 30)], EPS, |t, v| {
        let y = t.log_softmax_rows(v[0]);
        project(t, y, 31)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

fn sample_csr() -> Rc<Csr> {
    // 4x3 sparse pattern with an empty row
    Rc::new(Csr::from_coo(
        4,
        3,
        &[(0, 0), (0, 2), (1, 1), (3, 0), (3, 1), (3, 2)],
    ))
}

#[test]
fn grad_spmm_values_and_dense() {
    let csr = sample_csr();
    let vals = rand_m(1, csr.nnz(), 32);
    let dense = rand_m(3, 4, 33);
    let rep = check_gradients(&[vals, dense], EPS, |t, v| {
        let y = t.spmm(csr.clone(), v[0], v[1]);
        project(t, y, 34)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_spmm_t_values_and_dense() {
    let csr = sample_csr();
    let vals = rand_m(1, csr.nnz(), 35);
    let dense = rand_m(4, 4, 36);
    let rep = check_gradients(&[vals, dense], EPS, |t, v| {
        let y = t.spmm_t(csr.clone(), v[0], v[1]);
        project(t, y, 37)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

/// Fused `relu(csr(values) * dense + bias)` — all three inputs get
/// gradients through the single fused node.
#[test]
fn grad_spmm_bias_relu_values_dense_and_bias() {
    let csr = sample_csr();
    let vals = rand_m(1, csr.nnz(), 96);
    let dense = rand_m(3, 4, 97);
    let bias = rand_m(1, 4, 98);

    // Guard against the ReLU kink: central differences are only valid when
    // no pre-activation sits near zero. The seeds above were chosen so this
    // holds; the assert turns a silently flaky test into a loud one.
    let pre = {
        let agg = csr.spmm_serial(vals.data(), &dense);
        Matrix::from_fn(agg.rows(), agg.cols(), |i, j| agg[(i, j)] + bias[(0, j)])
    };
    assert!(
        pre.data().iter().all(|v| v.abs() > 100.0 * EPS),
        "pre-activation too close to ReLU kink for a reliable gradcheck"
    );

    let rep = check_gradients(&[vals, dense, bias], EPS, |t, v| {
        let y = t.spmm_bias_relu(csr.clone(), v[0], v[1], v[2]);
        project(t, y, 99)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_gather_rows_with_repeats() {
    let idx = Rc::new(vec![2usize, 0, 2, 1]);
    let rep = check_gradients(&[rand_m(3, 4, 38)], EPS, move |t, v| {
        let y = t.gather_rows(v[0], idx.clone());
        project(t, y, 39)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_segment_sum() {
    let seg = Rc::new(vec![1usize, 0, 1, 2, 0]);
    let rep = check_gradients(&[rand_m(5, 3, 40)], EPS, move |t, v| {
        let y = t.segment_sum(v[0], seg.clone(), 3);
        project(t, y, 41)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_segment_softmax() {
    let seg = Rc::new(vec![0usize, 0, 1, 1, 1, 2]);
    let rep = check_gradients(&[rand_m(6, 1, 42)], EPS, move |t, v| {
        let y = t.segment_softmax(v[0], seg.clone(), 3);
        project(t, y, 43)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

/// Fused per-pair dot, with a repeated pair (2, 3) and a self pair
/// (1, 1), where both gradient passes land in the same row.
#[test]
fn grad_pair_dot() {
    let src = Rc::new(vec![0usize, 2, 1, 2, 3]);
    let dst = Rc::new(vec![1usize, 3, 1, 3, 0]);
    let rep = check_gradients(&[rand_m(4, 3, 44)], EPS, move |t, v| {
        let y = t.pair_dot(v[0], src.clone(), dst.clone());
        project(t, y, 46)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

/// Fused `leaky_relu(a * b)` — both operands get gradients through the
/// single node, on both sides of the kink.
#[test]
fn grad_matmul_leaky_relu() {
    let (a, b) = (rand_m(4, 3, 45), rand_m(3, 5, 100));
    // Central differences are only valid away from the kink at zero.
    let pre = a.matmul(&b);
    assert!(
        pre.data().iter().all(|v| v.abs() > 100.0 * EPS),
        "pre-activation too close to the LeakyReLU kink for a reliable gradcheck"
    );
    assert!(pre.data().iter().any(|&v| v < 0.0) && pre.data().iter().any(|&v| v > 0.0));
    let rep = check_gradients(&[a, b], EPS, |t, v| {
        let y = t.matmul_leaky_relu(v[0], v[1], 0.2);
        project(t, y, 101)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

/// Fused `leaky_relu(a) * b` — both operands get gradients through the
/// single node, with `a` on both sides of the kink.
#[test]
fn grad_leaky_relu_matmul() {
    let (a, b) = (rand_m(4, 3, 102), rand_m(3, 2, 103));
    // Central differences are only valid away from the kink at zero.
    assert!(
        a.data().iter().all(|v| v.abs() > 100.0 * EPS),
        "input too close to the LeakyReLU kink for a reliable gradcheck"
    );
    assert!(a.data().iter().any(|&v| v < 0.0) && a.data().iter().any(|&v| v > 0.0));
    let rep = check_gradients(&[a, b], EPS, |t, v| {
        let y = t.leaky_relu_matmul(v[0], v[1], 0.2);
        project(t, y, 104)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_mul_col() {
    let rep = check_gradients(&[rand_m(4, 3, 47), rand_m(4, 1, 48)], EPS, |t, v| {
        let y = t.mul_col(v[0], v[1]);
        project(t, y, 49)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_add_weighted_cols() {
    let inputs: Vec<Matrix> = (0..4).map(|s| rand_m(4, 3, 140 + s)).collect();
    let weights = rand_m(4, 3, 144);
    let rep = check_gradients(&[inputs, vec![weights]].concat(), EPS, |t, v| {
        let y = t.add_weighted_cols(v[0], &v[1..4], v[4]);
        // a second reader of a part, recorded after the fused op
        let z = t.add(y, t.tanh(v[2]));
        project(t, z, 145)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_concat_and_slice() {
    let rep = check_gradients(&[rand_m(3, 2, 50), rand_m(3, 3, 51)], EPS, |t, v| {
        let y = t.concat_cols(&[v[0], v[1]]);
        let s = t.slice_cols(y, 1, 4);
        project(t, s, 52)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_reductions() {
    let rep = check_gradients(&[rand_m(4, 3, 53)], EPS, |t, v| {
        let a = t.sum_all(v[0]);
        let b = t.mean_all(v[0]);
        let c = project(t, t.mean_rows(v[0]), 54);
        let d = project(t, t.sum_rows(v[0]), 55);
        let ab = t.add(a, b);
        let cd = t.add(c, d);
        t.add(ab, cd)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_max_rows() {
    // well-separated values so the argmax is stable under perturbation
    let x = Matrix::from_vec(3, 2, vec![0.1, 5.0, 3.0, 0.2, 1.0, 1.5]);
    let rep = check_gradients(&[x], EPS, |t, v| {
        let y = t.max_rows(v[0]);
        project(t, y, 56)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_nll_loss_masked() {
    let rep = check_gradients(&[rand_m(5, 3, 57)], EPS, |t, v| {
        let logp = t.log_softmax_rows(v[0]);
        t.nll_loss(logp, Rc::new(vec![0, 2, 1, 0, 2]), Rc::new(vec![0, 2, 4]))
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_bce_pairs() {
    let pairs = Rc::new(vec![(0usize, 1usize), (1, 2), (0, 3), (3, 3)]);
    let labels = Rc::new(vec![1.0, 0.0, 1.0, 0.0]);
    let rep = check_gradients(&[rand_m(4, 3, 58)], EPS, move |t, v| {
        t.bce_pairs(v[0], pairs.clone(), labels.clone())
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_dropout_fixed_mask() {
    // dropout draws its mask from an rng at op-construction time; use a
    // deterministic seed so analytic and numeric passes share the mask.
    let rep = check_gradients(&[rand_m(3, 4, 59)], EPS, |t, v| {
        let mut r = rng(1234);
        let y = t.dropout(v[0], 0.5, &mut r);
        project(t, y, 60)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

/// The Student-t KL loss detaches the target distribution P (standard
/// DEC), so we check the analytic gradient against a numeric gradient of
/// the *P-frozen* objective, computed by hand here.
#[test]
fn grad_student_t_kl_with_frozen_target() {
    let h0 = rand_m(6, 3, 61);
    let egos = vec![0usize, 3];

    // frozen P from the unperturbed embedding
    let frozen_p = {
        let tape = Tape::new();
        let h = tape.leaf(h0.clone(), false);
        // recompute q/p exactly as the op does, via a probe: run the op and
        // recover p from its definition
        let _ = h;
        student_t_p(&h0, &egos)
    };
    let loss_frozen = |h: &Matrix| -> f64 {
        let q = student_t_q(h, &egos);
        let n = h.rows() as f64;
        let mut l = 0.0;
        for j in 0..h.rows() {
            for c in 0..egos.len() {
                let p = frozen_p[(j, c)];
                if p > 0.0 {
                    l += p * (p / q[(j, c)]).ln();
                }
            }
        }
        l / n
    };

    // analytic gradient from the op
    let tape = Tape::new();
    let h = tape.leaf(h0.clone(), true);
    let loss = tape.student_t_kl(h, Rc::new(egos.clone()));
    let grads = tape.backward(loss);
    let analytic = grads.get(h).expect("gradient must exist");

    // numeric gradient of the P-frozen objective
    let mut max_err = 0.0f64;
    for idx in 0..h0.len() {
        let mut plus = h0.clone();
        plus.data_mut()[idx] += EPS;
        let mut minus = h0.clone();
        minus.data_mut()[idx] -= EPS;
        let numeric = (loss_frozen(&plus) - loss_frozen(&minus)) / (2.0 * EPS);
        max_err = max_err.max((numeric - analytic.data()[idx]).abs());
    }
    assert!(max_err < 1e-6, "max_err = {max_err}");
}

fn student_t_q(h: &Matrix, egos: &[usize]) -> Matrix {
    let n = h.rows();
    let mut q = Matrix::zeros(n, egos.len());
    for j in 0..n {
        let mut sum = 0.0;
        for (c, &e) in egos.iter().enumerate() {
            let mut d2 = 0.0;
            for (a, b) in h.row(j).iter().zip(h.row(e)) {
                d2 += (a - b) * (a - b);
            }
            q[(j, c)] = 1.0 / (1.0 + d2);
            sum += q[(j, c)];
        }
        for c in 0..egos.len() {
            q[(j, c)] /= sum;
        }
    }
    q
}

fn student_t_p(h: &Matrix, egos: &[usize]) -> Matrix {
    let q = student_t_q(h, egos);
    let (n, m) = q.shape();
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
    p
}

/// Composite end-to-end check: a two-layer GCN-like computation mixing
/// spmm, matmul, bias, relu and cross-entropy.
#[test]
fn grad_composite_gcn_stack() {
    let csr = sample_csr();
    // adjacency values as constants, weights as checked inputs
    let adj_vals = Matrix::uniform(1, csr.nnz(), 0.1, 1.0, &mut rng(62));
    let x = rand_m(3, 4, 63);
    let w1 = rand_m(4, 5, 64);
    let b1 = rand_m(1, 5, 65);
    let w2 = rand_m(5, 2, 66);
    let csr_t = Rc::new(
        // reuse structure transposed so shapes line up for a second hop
        {
            let (t, _) = csr.transpose_struct();
            t
        },
    );
    let adj_vals_t = Matrix::uniform(1, csr_t.nnz(), 0.1, 1.0, &mut rng(67));
    let rep = check_gradients(&[x, w1, b1, w2], EPS, move |t, v| {
        let av = t.constant(adj_vals.clone());
        let avt = t.constant(adj_vals_t.clone());
        let xw = t.matmul(v[0], v[1]); // 3x5
        let agg = t.spmm(csr.clone(), av, xw); // 4x5
        let h = t.relu(t.add_bias(agg, v[2]));
        let hw = t.matmul(h, v[3]); // 4x2
        let out = t.spmm(csr_t.clone(), avt, hw); // 3x2
        t.cross_entropy(out, Rc::new(vec![0, 1, 0]), Rc::new(vec![0, 1, 2]))
    });
    assert!(rep.ok(1e-5), "{rep:?}");
}

#[test]
fn grad_col_normalize() {
    let rep = check_gradients(&[rand_m(5, 3, 70)], EPS, |t, v| {
        let y = t.col_normalize(v[0]);
        project(t, y, 71)
    });
    assert!(rep.ok(1e-5), "{rep:?}");
}

#[test]
fn grad_reshape() {
    let rep = check_gradients(&[rand_m(3, 4, 72)], EPS, |t, v| {
        let y = t.reshape(v[0], 2, 6);
        project(t, y, 73)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

/// The model's `S_k` assembly idiom: sparse values are not a free leaf but
/// a gather_rows + reshape view of learned fitness scores, so the
/// `spmm_grad_values` kernel output must flow back through a scatter-add.
#[test]
fn grad_spmm_values_via_gather_reshape_chain() {
    let csr = sample_csr();
    let gather_idx = Rc::new(vec![0usize, 2, 1, 0, 3, 2]); // repeats, like shared φ
    let phi = rand_m(4, 1, 90);
    let dense = rand_m(3, 3, 91);
    let rep = check_gradients(&[phi, dense], EPS, move |t, v| {
        let picked = t.gather_rows(v[0], gather_idx.clone()); // nnz x 1
        let vals = t.reshape(picked, 1, 6); // 1 x nnz
        let y = t.spmm(csr.clone(), vals, v[1]);
        project(t, y, 92)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

/// One values leaf feeding both `spmm` and `spmm_t` (the unpooling chain
/// uses the same `S_k` values in both directions), so the two backward
/// kernels (`spmm_grad_values` + `spmm_t_grad_values`) accumulate into one
/// gradient.
#[test]
fn grad_shared_values_through_spmm_and_spmm_t() {
    let csr = sample_csr();
    let vals = rand_m(1, csr.nnz(), 93);
    let down = rand_m(3, 3, 94); // spmm:   (4x3 pattern) * 3x3 -> 4x3
    let up = rand_m(4, 3, 95); // spmm_t: (3x4 pattern) * 4x3 -> 3x3
    let rep = check_gradients(&[vals, down, up], EPS, move |t, v| {
        let a = t.spmm(csr.clone(), v[0], v[1]);
        let b = t.spmm_t(csr.clone(), v[0], v[2]);
        let pa = project(t, a, 96);
        let pb = project(t, b, 97);
        t.add(pa, pb)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

/// The flyback aggregator's attention path (Eq. 4): per-level score
/// columns -> concat_cols -> softmax_rows -> slice_cols -> mul_col, summed
/// over levels.
#[test]
fn grad_flyback_attention_softmax_composite() {
    let s0 = rand_m(5, 1, 100);
    let s1 = rand_m(5, 1, 101);
    let h0 = rand_m(5, 3, 102);
    let h1 = rand_m(5, 3, 103);
    let rep = check_gradients(&[s0, s1, h0, h1], EPS, |t, v| {
        let scores = t.concat_cols(&[v[0], v[1]]);
        let beta = t.softmax_rows(scores);
        let b0 = t.slice_cols(beta, 0, 1);
        let b1 = t.slice_cols(beta, 1, 2);
        let w0 = t.mul_col(v[2], b0);
        let w1 = t.mul_col(v[3], b1);
        let sum = t.add(w0, w1);
        project(t, sum, 104)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

/// The hyper-node feature path (Eq. 3): member scores -> segment_softmax
/// -> mul_col -> segment_sum, i.e. attention-weighted member pooling.
#[test]
fn grad_segment_attention_composite() {
    let seg = Rc::new(vec![0usize, 0, 0, 1, 1, 2]);
    let scores = rand_m(6, 1, 105);
    let members = rand_m(6, 3, 106);
    let rep = check_gradients(&[scores, members], EPS, move |t, v| {
        let alpha = t.segment_softmax(v[0], seg.clone(), 3);
        let weighted = t.mul_col(v[1], alpha);
        let pooled = t.segment_sum(weighted, seg.clone(), 3);
        project(t, pooled, 107)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

#[test]
fn grad_exp() {
    let rep = check_gradients(&[rand_m(3, 4, 80)], EPS, |t, v| {
        let y = t.exp(v[0]);
        project(t, y, 81)
    });
    assert!(rep.ok(1e-5), "{rep:?}");
}

#[test]
fn grad_ln_positive_inputs() {
    let mut x = rand_m(3, 4, 82);
    for v in x.data_mut() {
        *v = v.abs() + 0.5; // keep strictly positive
    }
    let rep = check_gradients(&[x], EPS, |t, v| {
        let y = t.ln(v[0]);
        project(t, y, 83)
    });
    assert!(rep.ok(1e-5), "{rep:?}");
}

/// Recompute-on-backward through a checkpointed segment containing the
/// fused `spmm_bias_relu`: the numeric gradient validates the *replayed*
/// values, not just the retained ones (the interiors are dropped after
/// forward and rebuilt inside `backward` on every perturbation). The
/// ReLU kink is guarded exactly as in `grad_spmm_bias_relu_*`: central
/// differences are only valid when no pre-activation sits near zero.
#[test]
fn grad_checkpointed_segment_spmm_bias_relu() {
    let csr = sample_csr();
    let vals = rand_m(1, csr.nnz(), 96);
    let dense = rand_m(3, 4, 97);
    let bias = rand_m(1, 4, 98);

    let pre = {
        let agg = csr.spmm_serial(vals.data(), &dense);
        Matrix::from_fn(agg.rows(), agg.cols(), |i, j| agg[(i, j)] + bias[(0, j)])
    };
    assert!(
        pre.data().iter().all(|v| v.abs() > 100.0 * EPS),
        "pre-activation too close to ReLU kink for a reliable gradcheck"
    );

    let csr2 = csr.clone();
    let rep = check_gradients(&[vals, dense, bias], EPS, move |t, v| {
        let y = t.checkpoint_scope(|| {
            let fused = t.spmm_bias_relu(csr2.clone(), v[0], v[1], v[2]);
            t.mul_elem(t.tanh(fused), fused)
        });
        project(t, y, 99)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

/// Recompute-on-backward through a checkpointed attention block: the
/// Eq. 3 composite (segment_softmax -> mul_col -> segment_sum) runs
/// inside a scope, so backward must replay the softmax and its
/// intermediates bit-for-bit before the existing gradient kernels run.
#[test]
fn grad_checkpointed_segment_attention_softmax() {
    let seg = Rc::new(vec![0usize, 0, 0, 1, 1, 2]);
    let scores = rand_m(6, 1, 105);
    let members = rand_m(6, 3, 106);
    let rep = check_gradients(&[scores, members], EPS, move |t, v| {
        let pooled = t.checkpoint_scope(|| {
            let alpha = t.segment_softmax(v[0], seg.clone(), 3);
            let weighted = t.mul_col(v[1], alpha);
            t.segment_sum(weighted, seg.clone(), 3)
        });
        project(t, pooled, 107)
    });
    assert!(rep.ok(TOL), "{rep:?}");
}

//! Semantic tests of the autograd engine beyond per-op gradchecks:
//! gradient accumulation through shared subexpressions, diamond graphs,
//! the one-sweep tape lifetime, and failure modes.

use mg_tensor::{AdamConfig, Matrix, MgError, ParamStore, Tape};
use std::rc::Rc;

#[test]
fn shared_subexpression_accumulates_gradient() {
    // loss = sum(x + x) -> dloss/dx = 2
    let tape = Tape::new();
    let x = tape.leaf(Matrix::full(2, 2, 3.0), true);
    let y = tape.add(x, x);
    let loss = tape.sum_all(y);
    let grads = tape.backward(loss);
    assert!(grads.get(x).unwrap().data().iter().all(|&g| g == 2.0));
}

#[test]
fn diamond_graph_gradient() {
    // a = x*x ; b = 2x ; loss = sum(a + b) -> d/dx = 2x + 2
    let tape = Tape::new();
    let x = tape.leaf(Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]), true);
    let a = tape.mul_elem(x, x);
    let b = tape.scale(x, 2.0);
    let loss = tape.sum_all(tape.add(a, b));
    let grads = tape.backward(loss);
    let g = grads.get(x).unwrap();
    assert_eq!(g.data(), &[4.0, -2.0, 3.0]);
}

#[test]
fn a_tape_is_swept_once() {
    let tape = Tape::new();
    let x = tape.leaf(Matrix::full(1, 2, 2.0), true);
    let l1 = tape.sum_all(x);
    let sq = tape.mul_elem(x, x);
    let l2 = tape.sum_all(sq);
    let g1 = tape.backward(l1);
    assert_eq!(g1.get(x).unwrap().data(), &[1.0, 1.0]);
    // nodes recorded after the first loss keep their values...
    assert_eq!(tape.value(l2).scalar(), 8.0);
    // ...but a second sweep over the tape is refused
    assert!(matches!(
        tape.try_backward(l2),
        Err(MgError::InvalidInput { .. })
    ));
    // the second loss gets its own tape
    let tape = Tape::new();
    let x = tape.leaf(Matrix::full(1, 2, 2.0), true);
    let l2 = tape.sum_all(tape.mul_elem(x, x));
    assert_eq!(tape.backward(l2).get(x).unwrap().data(), &[4.0, 4.0]);
}

#[test]
fn constants_block_gradient_flow() {
    let tape = Tape::new();
    let x = tape.leaf(Matrix::full(1, 2, 1.0), true);
    let c = tape.constant(Matrix::full(1, 2, 5.0));
    let y = tape.mul_elem(x, c);
    let loss = tape.sum_all(y);
    let grads = tape.backward(loss);
    assert_eq!(grads.get(x).unwrap().data(), &[5.0, 5.0]);
    assert!(
        grads.get(c).is_none(),
        "constants must not receive gradients"
    );
}

#[test]
#[should_panic(expected = "loss must be a 1x1 scalar")]
fn backward_rejects_non_scalar() {
    let tape = Tape::new();
    let x = tape.leaf(Matrix::full(2, 2, 1.0), true);
    let _ = tape.backward(x);
}

#[test]
#[should_panic(expected = "matmul")]
fn matmul_shape_mismatch_panics() {
    let tape = Tape::new();
    let a = tape.constant(Matrix::zeros(2, 3));
    let b = tape.constant(Matrix::zeros(2, 3));
    let _ = tape.matmul(a, b);
}

#[test]
fn deep_chain_gradient_is_stable() {
    // 40 chained tanh ops: gradients must stay finite and non-zero
    let tape = Tape::new();
    let x = tape.leaf(Matrix::full(1, 4, 0.5), true);
    let mut h = x;
    for _ in 0..40 {
        h = tape.tanh(h);
    }
    let loss = tape.sum_all(h);
    let grads = tape.backward(loss);
    let g = grads.get(x).unwrap();
    assert!(g.all_finite());
}

#[test]
fn weight_decay_shrinks_parameters() {
    let mut store = ParamStore::new();
    let w = store.add("w", Matrix::full(1, 1, 10.0));
    let cfg = AdamConfig {
        lr: 0.1,
        weight_decay: 0.1,
        ..Default::default()
    };
    for _ in 0..50 {
        let tape = Tape::new();
        let bind = store.bind(&tape);
        // loss independent of w except through decay
        let loss = tape.scale(tape.sum_all(bind.var(w)), 0.0);
        let mut grads = tape.backward(loss);
        store.step(&mut grads, &bind, &cfg);
    }
    assert!(
        store.value(w).scalar() < 10.0,
        "decay must shrink the weight"
    );
}

#[test]
fn gather_then_segment_sum_roundtrip() {
    // scatter-gather consistency: segment_sum(gather(x, idx), idx) applied
    // to one-hot segments reconstructs multiplicity-weighted rows
    let tape = Tape::new();
    let x = tape.leaf(Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]), true);
    let idx = Rc::new(vec![0usize, 1, 1, 2]);
    let gathered = tape.gather_rows(x, idx.clone());
    let back = tape.segment_sum(gathered, idx, 3);
    let v = tape.value_cloned(back);
    assert_eq!(v.row(0), &[1., 2.]);
    assert_eq!(v.row(1), &[6., 8.]); // doubled
    assert_eq!(v.row(2), &[5., 6.]);
    // and gradients flow back with matching multiplicity
    let loss = tape.sum_all(back);
    let grads = tape.backward(loss);
    assert_eq!(grads.get(x).unwrap().data(), &[1., 1., 2., 2., 1., 1.]);
}

#[test]
fn bce_pairs_gradient_direction() {
    // positive pair with negative logit: gradient must push the dot up
    let tape = Tape::new();
    let h = tape.leaf(Matrix::from_vec(2, 1, vec![1.0, -1.0]), true);
    let loss = tape.bce_pairs(h, Rc::new(vec![(0, 1)]), Rc::new(vec![1.0]));
    let grads = tape.backward(loss);
    let g = grads.get(h).unwrap();
    // dL/dh0 = (sigma(z)-1) * h1 with z = -1: (0.269-1)*(-1) > 0... the
    // loss decreases by moving h0 towards -? Check by descent:
    let step = |h0: f64, h1: f64| {
        let t = Tape::new();
        let hv = t.leaf(Matrix::from_vec(2, 1, vec![h0, h1]), true);
        let l = t.bce_pairs(hv, Rc::new(vec![(0, 1)]), Rc::new(vec![1.0]));
        let v = t.value(l).scalar();
        v
    };
    let before = step(1.0, -1.0);
    let after = step(1.0 - 0.1 * g[(0, 0)], -1.0 - 0.1 * g[(1, 0)]);
    assert!(after < before, "gradient step must reduce the loss");
}

//! Differential parity: checkpointed tape vs retaining tape.
//!
//! A random op chain (matmul / spmm / the fused spmm+bias+relu,
//! matmul+leaky-relu, leaky-relu+matmul, weighted-column-sum and pair-dot
//! ops / map / zip) with random checkpoint-segment boundaries is executed
//! twice over the same tape program — once with the scopes active
//! (interiors dropped after forward, replayed on backward) and once fully
//! retained. The contract under test is *bitwise*: loss bits, every leaf
//! gradient's bits, and a tape high-water mark that never exceeds the
//! retained run's. Either way, backward leaves only the leaves' bytes
//! live. The same suite compiles unchanged under `--features parallel`
//! (swept across pools 1..=4 below).
//!
//! Also here: the fault-injection test for the replay fingerprint check
//! — a corrupted recomputed buffer must surface as a typed
//! `MgError::Corrupt`, never as silently wrong gradients.

use std::rc::Rc;

use mg_tensor::{Csr, Matrix, MgError, Tape, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Side of every dense matrix in a generated program.
const N: usize = 6;

/// One instruction of a generated tape program. `pick` indexes into the
/// executor's list of safely-usable dense vars (leaves, kept segment
/// outputs, vars recorded outside any scope, and vars of the currently
/// open scope) — never a dropped interior, so the same instruction
/// stream is legal with scopes on or off.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Matmul { pick: usize },
    Add { pick: usize },
    MulElem { pick: usize },
    Relu,
    Sigmoid,
    Tanh,
    Spmm,
    SpmmBiasRelu,
    MatmulLeakyRelu { pick: usize },
    LeakyReluMatmul { pick: usize },
    AddWeightedCols { pick: usize },
    PairDot,
    ScopeBegin,
    ScopeEnd,
}

/// Generate a program of `len` ops with non-nested scope markers at
/// random positions. Scopes always close before the program ends.
fn gen_program(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::new();
    let mut in_scope = false;
    let mut ops_in_scope = 0usize;
    while steps
        .iter()
        .filter(|s| !matches!(s, Step::ScopeBegin | Step::ScopeEnd))
        .count()
        < len
    {
        if in_scope && ops_in_scope >= 1 && rng.random_bool(0.25) {
            steps.push(Step::ScopeEnd);
            in_scope = false;
        } else if !in_scope && rng.random_bool(0.3) {
            steps.push(Step::ScopeBegin);
            in_scope = true;
            ops_in_scope = 0;
        }
        let pick = rng.random_range(0..64usize);
        steps.push(match rng.random_range(0..12u32) {
            0 => Step::Matmul { pick },
            1 => Step::Add { pick },
            2 => Step::MulElem { pick },
            3 => Step::Relu,
            4 => Step::Sigmoid,
            5 => Step::Tanh,
            6 => Step::Spmm,
            7 => Step::SpmmBiasRelu,
            8 => Step::MatmulLeakyRelu { pick },
            9 => Step::LeakyReluMatmul { pick },
            10 => Step::AddWeightedCols { pick },
            _ => Step::PairDot,
        });
        if in_scope {
            ops_in_scope += 1;
        }
    }
    if in_scope {
        steps.push(Step::ScopeEnd);
    }
    steps
}

/// Fixed inputs derived from the seed: two dense leaves, a CSR
/// structure with a learnable value row, a learnable bias row, and `N`
/// node pairs for `pair_dot` (one repeated, one a self pair).
struct Inputs {
    x0: Matrix,
    w: Matrix,
    csr: Rc<Csr>,
    vals: Matrix,
    bias: Matrix,
    src: Rc<Vec<usize>>,
    dst: Rc<Vec<usize>>,
}

fn gen_inputs(seed: u64) -> Inputs {
    fn dense(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        let data: Vec<f64> = (0..r * c).map(|_| rng.random_range(-0.5..0.5)).collect();
        Matrix::from_vec(r, c, data)
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let x0 = dense(&mut rng, N, N);
    let w = dense(&mut rng, N, N);
    let bias = dense(&mut rng, 1, N);
    // an N x N sparse structure with a ring plus random extra edges
    let mut entries: Vec<(u32, u32)> = (0..N as u32).map(|i| (i, (i + 1) % N as u32)).collect();
    for _ in 0..N {
        let e = (rng.random_range(0..N as u32), rng.random_range(0..N as u32));
        if !entries.contains(&e) {
            entries.push(e);
        }
    }
    let csr = Rc::new(Csr::from_coo(N, N, &entries));
    let vals = dense(&mut rng, 1, csr.nnz());
    Inputs {
        x0,
        w,
        csr,
        vals,
        bias,
        src: Rc::new(vec![0, 2, 2, 3, 5, 1]),
        dst: Rc::new(vec![1, 4, 4, 3, 0, 5]),
    }
}

struct RunOut {
    loss: Matrix,
    gx0: Matrix,
    gw: Option<Matrix>,
    gvals: Option<Matrix>,
    gbias: Option<Matrix>,
    peak: usize,
    /// Live tape bytes once backward has swept the tape.
    live_after: usize,
}

/// Execute `program` on a fresh tape. When `ckpt` is false the scope
/// markers are ignored — the instruction stream (and therefore every
/// `Var` index) is identical either way.
fn run(program: &[Step], inp: &Inputs, ckpt: bool) -> RunOut {
    let tape = Tape::new();
    let x0 = tape.leaf(inp.x0.clone(), true);
    let w = tape.leaf(inp.w.clone(), true);
    let vals = tape.leaf(inp.vals.clone(), true);
    let bias = tape.leaf(inp.bias.clone(), true);
    let mut usable = vec![x0, w];
    let mut scope_vars: Vec<Var> = Vec::new();
    let mut head = x0;
    let mut scope = None;
    let mut in_scope = false;
    for step in program {
        let arg = |pick: usize| {
            let k = usable.len() + scope_vars.len();
            let i = pick % k;
            if i < usable.len() {
                usable[i]
            } else {
                scope_vars[i - usable.len()]
            }
        };
        match *step {
            Step::ScopeBegin => {
                if ckpt {
                    scope = Some(tape.begin_checkpoint());
                }
                in_scope = true;
                continue;
            }
            Step::ScopeEnd => {
                if let Some(s) = scope.take() {
                    tape.end_checkpoint(s, &[head]);
                }
                in_scope = false;
                scope_vars.clear();
                usable.push(head);
                continue;
            }
            Step::Matmul { pick } => head = tape.matmul(head, arg(pick)),
            Step::Add { pick } => head = tape.add(head, arg(pick)),
            Step::MulElem { pick } => head = tape.mul_elem(head, arg(pick)),
            Step::Relu => head = tape.relu(head),
            Step::Sigmoid => head = tape.sigmoid(head),
            Step::Tanh => head = tape.tanh(head),
            Step::Spmm => head = tape.spmm(inp.csr.clone(), vals, head),
            Step::SpmmBiasRelu => head = tape.spmm_bias_relu(inp.csr.clone(), vals, head, bias),
            Step::MatmulLeakyRelu { pick } => head = tape.matmul_leaky_relu(head, arg(pick), 0.2),
            Step::LeakyReluMatmul { pick } => head = tape.leaky_relu_matmul(head, arg(pick), 0.2),
            Step::AddWeightedCols { pick } => {
                // the flyback shape: attention weights from the head,
                // weighting an earlier value and the head itself
                let beta = tape.softmax_rows(tape.slice_cols(head, 0, 2));
                head = tape.add_weighted_cols(head, &[arg(pick), head], beta);
            }
            Step::PairDot => {
                // the fitness shape: sigmoid of the pair scores, then a
                // second reader of `head` recorded after the fused op
                let dots = tape.pair_dot(head, inp.src.clone(), inp.dst.clone());
                head = tape.mul_col(head, tape.sigmoid(dots));
            }
        }
        if in_scope {
            scope_vars.push(head);
        } else {
            usable.push(head);
        }
    }
    let loss = tape.mean_all(tape.mul_elem(head, head));
    let loss_value = tape.value_cloned(loss);
    let grads = tape.backward(loss);
    RunOut {
        loss: loss_value,
        gx0: grads.get(x0).unwrap().clone(),
        gw: grads.get(w).cloned(),
        gvals: grads.get(vals).cloned(),
        gbias: grads.get(bias).cloned(),
        peak: tape.peak_tape_bytes(),
        live_after: tape.live_tape_bytes(),
    }
}

/// Bytes of the four leaves `run` records: all a swept tape still holds.
fn leaf_bytes(inp: &Inputs) -> usize {
    8 * [&inp.x0, &inp.w, &inp.vals, &inp.bias]
        .iter()
        .map(|m| m.len())
        .sum::<usize>()
}

fn assert_parity(seed: u64, len: usize) {
    let program = gen_program(seed, len);
    let inp = gen_inputs(seed);
    let retained = run(&program, &inp, false);
    let ckpt = run(&program, &inp, true);
    assert_eq!(retained.loss, ckpt.loss, "loss bits differ (seed {seed})");
    assert_eq!(retained.gx0, ckpt.gx0, "d/dx0 bits differ (seed {seed})");
    assert_eq!(retained.gw, ckpt.gw, "d/dw bits differ (seed {seed})");
    assert_eq!(
        retained.gvals, ckpt.gvals,
        "d/dvals bits differ (seed {seed})"
    );
    assert_eq!(
        retained.gbias, ckpt.gbias,
        "d/dbias bits differ (seed {seed})"
    );
    assert!(
        ckpt.peak <= retained.peak,
        "checkpointed peak {} exceeds retained peak {} (seed {seed})",
        ckpt.peak,
        retained.peak
    );
    // the sweep released every forward value; only the leaves are left
    assert_eq!(retained.live_after, leaf_bytes(&inp), "seed {seed}");
    assert_eq!(ckpt.live_after, leaf_bytes(&inp), "seed {seed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random program, random scope boundaries: bitwise identical
    /// gradients and a never-worse high-water mark.
    #[test]
    fn checkpointed_gradients_match_retained(seed in 0..u64::MAX, len in 6..22usize) {
        assert_parity(seed, len);
    }
}

/// Two sequential scopes: the first scope's interiors are dropped
/// before the second scope's nodes are recorded, so the high-water mark
/// must come out *strictly* below the retained run's (a single trailing
/// scope cannot lower the peak — it is reached before the scope-end
/// drop). Interiors must be gone both after forward and after backward
/// (the sweep re-drops them as it passes below each segment, and
/// releases the kept outputs with them).
#[test]
fn interiors_are_dropped_and_redropped() {
    let build = |ckpt: bool| {
        let tape = Tape::new();
        let x = tape.leaf(
            Matrix::from_fn(N, N, |i, j| (i + 2 * j) as f64 * 0.1 - 0.4),
            true,
        );
        let s1 = ckpt.then(|| tape.begin_checkpoint());
        let a = tape.matmul(x, x);
        let b = tape.tanh(a);
        let c = tape.matmul(b, x);
        if let Some(s) = s1 {
            tape.end_checkpoint(s, &[c]);
        }
        let s2 = ckpt.then(|| tape.begin_checkpoint());
        let d = tape.matmul(c, c);
        let e = tape.tanh(d);
        let f = tape.matmul(e, c);
        if let Some(s) = s2 {
            tape.end_checkpoint(s, &[f]);
        }
        let loss = tape.mean_all(tape.mul_elem(f, f));
        (tape, x, [a, b, d, e], [c, f], loss)
    };

    let (tape, x, interiors, kept, loss) = build(true);
    for v in interiors {
        assert!(
            !tape.is_materialized(v),
            "interior must be dropped after forward"
        );
    }
    for v in kept {
        assert!(tape.is_materialized(v), "kept output must survive");
    }
    let loss_value = tape.value_cloned(loss);
    let grads = tape.backward(loss);
    for v in interiors.into_iter().chain(kept) {
        assert!(
            !tape.is_materialized(v),
            "segment nodes must be released after backward"
        );
    }
    assert!(tape.is_materialized(x), "leaves outlive the sweep");

    // same chain fully retained: identical bits, strictly higher peak
    let (tape2, x2, _, _, loss2) = build(false);
    assert_eq!(loss_value, tape2.value_cloned(loss2));
    let grads2 = tape2.backward(loss2);
    assert_eq!(grads.get(x).unwrap(), grads2.get(x2).unwrap());
    assert!(
        tape.peak_tape_bytes() < tape2.peak_tape_bytes(),
        "dropping the first scope's interiors must lower the high-water mark \
         ({} vs {})",
        tape.peak_tape_bytes(),
        tape2.peak_tape_bytes()
    );
}

/// The `checkpoint_scope` closure API keeps exactly what the closure
/// returns and matches manual begin/end bitwise.
#[test]
fn checkpoint_scope_closure_matches_manual() {
    let inp = gen_inputs(7);
    let run_closure = || {
        let tape = Tape::new();
        let x = tape.leaf(inp.x0.clone(), true);
        let w = tape.leaf(inp.w.clone(), true);
        let h = tape.checkpoint_scope(|| {
            let a = tape.matmul(x, w);
            let b = tape.sigmoid(a);
            tape.matmul(b, w)
        });
        let loss = tape.sum_all(h);
        let loss_value = tape.value_cloned(loss);
        let grads = tape.backward(loss);
        (
            loss_value,
            grads.get(x).unwrap().clone(),
            grads.get(w).unwrap().clone(),
        )
    };
    let run_manual = || {
        let tape = Tape::new();
        let x = tape.leaf(inp.x0.clone(), true);
        let w = tape.leaf(inp.w.clone(), true);
        let scope = tape.begin_checkpoint();
        let a = tape.matmul(x, w);
        let b = tape.sigmoid(a);
        let h = tape.matmul(b, w);
        tape.end_checkpoint(scope, &[h]);
        let loss = tape.sum_all(h);
        let loss_value = tape.value_cloned(loss);
        let grads = tape.backward(loss);
        (
            loss_value,
            grads.get(x).unwrap().clone(),
            grads.get(w).unwrap().clone(),
        )
    };
    assert_eq!(run_closure(), run_manual());
}

/// Fault injection: a recomputed buffer that does not reproduce the
/// recorded fingerprint must surface as `MgError::Corrupt` from
/// `try_backward` — never as silently wrong gradients. The failed sweep
/// has released what it passed, so a retry on the same tape is refused;
/// the same program on a fresh checkpointed tape, uncorrupted, matches
/// the retained run bitwise.
#[test]
fn corrupted_replay_is_a_typed_error_not_wrong_gradients() {
    let inp = gen_inputs(11);
    let build = |ckpt: bool| {
        let tape = Tape::new();
        let x = tape.leaf(inp.x0.clone(), true);
        let w = tape.leaf(inp.w.clone(), true);
        let scope = ckpt.then(|| tape.begin_checkpoint());
        let a = tape.matmul(x, w);
        let b = tape.tanh(a);
        let c = tape.matmul(b, w);
        if let Some(scope) = scope {
            tape.end_checkpoint(scope, &[c]);
        }
        let loss = tape.mean_all(tape.mul_elem(c, c));
        (tape, x, w, b, loss)
    };

    let (tape, _, _, b, loss) = build(true);
    tape.corrupt_next_replay(b);
    let err = match tape.try_backward(loss) {
        Err(e) => e,
        Ok(_) => panic!("corrupted replay must fail"),
    };
    match &err {
        MgError::Corrupt { section, detail } => {
            assert_eq!(*section, "tape-replay");
            assert!(
                detail.contains("replayed to a different value"),
                "detail: {detail}"
            );
        }
        other => panic!("expected MgError::Corrupt, got {other:?}"),
    }
    assert!(matches!(
        tape.try_backward(loss),
        Err(MgError::InvalidInput { .. })
    ));

    let (tape, x, w, _, loss) = build(true);
    let grads = tape.try_backward(loss).expect("clean replay must succeed");
    let (tape2, x2, w2, _, loss2) = build(false);
    let grads2 = tape2.backward(loss2);
    assert_eq!(grads.get(x).unwrap(), grads2.get(x2).unwrap());
    assert_eq!(grads.get(w).unwrap(), grads2.get(w2).unwrap());
}

/// Pool sweep: parity must hold for every thread count, and the
/// checkpointed gradients must also be bitwise stable *across* pool
/// widths (the kernels promise width-independence; replay must not
/// break it).
#[cfg(feature = "parallel")]
mod parallel {
    use super::*;
    use mg_runtime::{with_pool, Pool};
    use std::sync::Arc;

    #[test]
    fn parity_holds_across_pool_widths() {
        for seed in [3u64, 17, 4242] {
            let program = gen_program(seed, 14);
            let inp = gen_inputs(seed);
            let mut first: Option<(Matrix, Option<Matrix>)> = None;
            for threads in 1..=4 {
                let pool = Arc::new(Pool::new(threads));
                let (retained, ckpt) = with_pool(pool, || {
                    (run(&program, &inp, false), run(&program, &inp, true))
                });
                assert_eq!(retained.loss, ckpt.loss, "{threads} threads, seed {seed}");
                assert_eq!(retained.gx0, ckpt.gx0, "{threads} threads, seed {seed}");
                assert_eq!(retained.gw, ckpt.gw, "{threads} threads, seed {seed}");
                assert_eq!(retained.gvals, ckpt.gvals, "{threads} threads, seed {seed}");
                assert_eq!(retained.gbias, ckpt.gbias, "{threads} threads, seed {seed}");
                match &first {
                    None => first = Some((ckpt.gx0.clone(), ckpt.gw.clone())),
                    Some((gx0, gw)) => {
                        assert_eq!(gx0, &ckpt.gx0, "pool-width drift, seed {seed}");
                        assert_eq!(gw, &ckpt.gw, "pool-width drift, seed {seed}");
                    }
                }
            }
        }
    }
}

//! Parity and contract tests for the matmul kernel family.
//!
//! Three concerns live here:
//!
//! 1. **Tiled-vs-scalar parity, bitwise.** The register-tiled kernels
//!    (`Matrix::matmul`, `matmul_tn`, `matmul_nt`) add each element's
//!    products in ascending `k` from `0.0`, exactly as the scalar
//!    `*_serial` loops do, so they must match them bit for bit — on every
//!    shape, on the tile edges, with signed zeros, infinities and NaN in
//!    the operands, and in both compilations (baseline and AVX2), which
//!    are called directly.
//! 2. **Non-finite propagation.** All product kernels — scalar, tiled,
//!    and the dispatched entry points — must propagate NaN/Inf from
//!    either operand, even when the matching lhs entry is `0.0`
//!    (`0.0 * NaN = NaN`, `0.0 * inf = NaN`). This pins the resolved
//!    zero-skip contract: dense kernels never skip on a zero operand.
//! 3. **Fused spmm+bias+ReLU equivalence.** The fused kernel and tape op
//!    must be *bitwise* equal to the unfused spmm → add_bias → relu
//!    chain, forward and backward — that is what keeps the golden traces
//!    byte-identical when the GCN layer takes the fused path. The same
//!    holds for the fused `pair_dot`, `matmul_leaky_relu` and
//!    `leaky_relu_matmul` tape ops against the chains they replace in the
//!    attentions.

use std::rc::Rc;

use mg_tensor::{Csr, Isa, Matrix, Tape, Var};

// -- tiled vs scalar: bitwise ---------------------------------------------

/// The compilations this CPU can run.
fn isas() -> Vec<Isa> {
    [Isa::Baseline, Isa::Avx2]
        .into_iter()
        .filter(|isa| isa.available())
        .collect()
}

/// Bits of every entry, each NaN as the one canonical NaN: IEEE-754 lets
/// an operation on two NaNs return either one's payload, and a compiler
/// may commute `x * y`, so only NaN-ness is part of the contract.
fn bits(m: &Matrix) -> Vec<u64> {
    m.data()
        .iter()
        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
        .collect()
}

/// A `rows x cols` operand of pseudo-random full-mantissa values in
/// `[-2, 2)`. With `poison`, its first and last rows and columns (tile
/// and tail positions both) also hold `-0.0`, `+inf`, `-inf` and NaN.
fn operand(rows: usize, cols: usize, seed: u64, poison: bool) -> Matrix {
    let mut m = Matrix::from_fn(rows, cols, |i, j| {
        let mut z = seed ^ ((i as u64) << 32 | j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    });
    if poison && rows * cols > 0 {
        let specials = [-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let spots = [(0, 0), (rows - 1, cols - 1), (0, cols - 1), (rows - 1, 0)];
        for (k, (&(i, j), v)) in spots.iter().zip(specials).enumerate() {
            // spread the specials over the depth, not only its ends
            let j = if cols > 4 { (j + k * 3) % cols } else { j };
            m[(i, j)] = v;
        }
        // a row of `-0.0`: its finite products are signed zeros, and a
        // sum of them must stay the `+0.0` it starts from
        for j in 0..cols {
            m[(rows / 2, j)] = -0.0;
        }
    }
    m
}

/// Every `(rows, cols, depth)` to test: rows 1-9, 16, 17 and 33 (the 4-,
/// 8- and 16-row tiles and their tails), cols 1-17 (the 8-wide tiles,
/// their tails, and a one-column operand), depth 0, 1 (a one-column
/// left operand) and 2,708 (the Cora node count); the deep products use
/// the edge cases of each only.
fn shapes() -> Vec<(usize, usize, usize)> {
    let rows: Vec<usize> = (1..=9).chain([16, 17, 33]).collect();
    let mut out = Vec::new();
    for &r in &rows {
        for c in 1..=17 {
            for k in [0, 1, 2708] {
                let edge = [1, 4, 5, 9, 17, 33].contains(&r) && [1, 7, 8, 9, 16, 17].contains(&c);
                if k < 2708 || edge {
                    out.push((r, c, k));
                }
            }
        }
    }
    out
}

type Kernel = fn(&Matrix, &Matrix, Isa) -> Matrix;
type Serial = fn(&Matrix, &Matrix) -> Matrix;

/// Each tiled product with its scalar reference and its operands' shapes
/// for an `r x c` output of depth `k`.
#[allow(clippy::type_complexity)]
const PRODUCTS: [(
    &str,
    Kernel,
    Serial,
    fn(usize, usize, usize) -> [(usize, usize); 2],
); 3] = [
    (
        "matmul",
        |a, b, isa| a.matmul_tiled(b, isa),
        |a, b| a.matmul_serial(b),
        |r, c, k| [(r, k), (k, c)],
    ),
    (
        "matmul_tn",
        |a, b, isa| a.matmul_tn_tiled(b, isa),
        |a, b| a.matmul_tn_serial(b),
        |r, c, k| [(k, r), (k, c)],
    ),
    (
        "matmul_nt",
        |a, b, isa| a.matmul_nt_tiled(b, isa),
        |a, b| a.matmul_nt_serial(b),
        |r, c, k| [(r, k), (c, k)],
    ),
];

#[test]
fn tiled_kernels_match_scalar_loops_bitwise() {
    for (name, tiled, serial, dims) in PRODUCTS {
        for (r, c, k) in shapes() {
            let [(ar, ac), (br, bc)] = dims(r, c, k);
            for poison in [false, true] {
                let a = operand(ar, ac, 1, poison);
                let b = operand(br, bc, 2, poison);
                let want = bits(&serial(&a, &b));
                for isa in isas() {
                    assert_eq!(
                        bits(&tiled(&a, &b, isa)),
                        want,
                        "{name} {r}x{c} depth {k}, {isa:?}, poison {poison}"
                    );
                }
            }
        }
    }
}

/// The dispatched entry points are the tiled kernels: same bits as the
/// scalar loops on a Cora-shaped product and its one-column forms.
#[test]
fn dispatched_kernels_match_scalar_loops_bitwise() {
    let h = operand(2708, 64, 3, true);
    let w = operand(64, 64, 4, false);
    let w1 = operand(64, 1, 5, false);
    let g = operand(2708, 64, 6, false);
    let g1 = operand(2708, 1, 7, false);
    assert_eq!(bits(&h.matmul(&w)), bits(&h.matmul_serial(&w)));
    assert_eq!(bits(&h.matmul(&w1)), bits(&h.matmul_serial(&w1)));
    assert_eq!(bits(&g.matmul_nt(&w)), bits(&g.matmul_nt_serial(&w)));
    assert_eq!(bits(&g1.matmul_nt(&w1)), bits(&g1.matmul_nt_serial(&w1)));
    assert_eq!(bits(&h.matmul_tn(&g)), bits(&h.matmul_tn_serial(&g)));
    assert_eq!(bits(&h.matmul_tn(&g1)), bits(&h.matmul_tn_serial(&g1)));
}

// -- non-finite propagation (resolved zero-skip contract) ----------------

/// Every way to run each product: the scalar loop, the dispatched entry
/// point and each tiled compilation this CPU can run — the contract must
/// hold for all of them.
type KernelFn = Box<dyn Fn(&Matrix, &Matrix) -> Matrix>;

fn variants(which: usize) -> Vec<(String, KernelFn)> {
    let (name, tiled, serial, _) = PRODUCTS[which];
    let dispatched: Serial = match which {
        0 => |a, b| a.matmul(b),
        1 => |a, b| a.matmul_tn(b),
        _ => |a, b| a.matmul_nt(b),
    };
    let mut out: Vec<(String, KernelFn)> = vec![
        (format!("{name}_serial"), Box::new(serial)),
        (name.to_string(), Box::new(dispatched)),
    ];
    for isa in isas() {
        out.push((
            format!("{name}_tiled {isa:?}"),
            Box::new(move |a, b| tiled(a, b, isa)),
        ));
    }
    out
}

fn mm_variants() -> Vec<(String, KernelFn)> {
    variants(0)
}

fn tn_variants() -> Vec<(String, KernelFn)> {
    variants(1)
}

fn nt_variants() -> Vec<(String, KernelFn)> {
    variants(2)
}

/// k values with the poison early, late, and past 64 in the depth.
const NAN_CASES: [(usize, usize); 4] = [(5, 2), (19, 17), (19, 4), (70, 66)];

// In every case below the poison index is paired with a `0.0` lhs entry
// in the first output row/column, so a kernel that skipped zero lhs
// entries would (wrongly) produce a finite value there.

#[test]
fn nonfinite_rhs_propagates_through_all_matmul_variants() {
    for &(k, pk) in &NAN_CASES {
        for poison in [f64::NAN, f64::INFINITY] {
            // a: 2 x k, row 0 has 0.0 exactly at the poison index.
            let mut a = Matrix::from_fn(2, k, |i, j| (i * k + j) as f64 * 0.25 + 1.0);
            a.data_mut()[pk] = 0.0;
            // b: k x 3, poison at (pk, 1).
            let mut b = Matrix::from_fn(k, 3, |i, j| (i + j) as f64 * 0.5 + 1.0);
            b.data_mut()[pk * 3 + 1] = poison;
            for (name, f) in mm_variants() {
                let out = f(&a, &b);
                // 0.0 * NaN and 0.0 * inf are both NaN: row 0 must not
                // be rescued by a zero-skip.
                assert!(
                    out[(0, 1)].is_nan(),
                    "{name} k={k} pk={pk} poison={poison}: row0"
                );
                // Row 1 multiplies the poison by a finite nonzero value.
                assert!(!out[(1, 1)].is_finite(), "{name}: row1");
                // Unrelated columns stay finite.
                assert!(
                    out[(0, 0)].is_finite() && out[(0, 2)].is_finite(),
                    "{name}: spill"
                );
            }
        }
    }
}

#[test]
fn nonfinite_rhs_propagates_through_all_matmul_tn_variants() {
    for &(k, pk) in &NAN_CASES {
        for poison in [f64::NAN, f64::INFINITY] {
            // a: k x 2 (lhs is transposed), column 0 has 0.0 at row pk.
            let mut a = Matrix::from_fn(k, 2, |i, j| (i * 2 + j) as f64 * 0.25 + 1.0);
            a.data_mut()[pk * 2] = 0.0;
            let mut b = Matrix::from_fn(k, 3, |i, j| (i + j) as f64 * 0.5 + 1.0);
            b.data_mut()[pk * 3 + 1] = poison;
            for (name, f) in tn_variants() {
                let out = f(&a, &b); // 2 x 3
                assert!(
                    out[(0, 1)].is_nan(),
                    "{name} k={k} pk={pk} poison={poison}: col0"
                );
                assert!(!out[(1, 1)].is_finite(), "{name}: col1");
                assert!(
                    out[(0, 0)].is_finite() && out[(0, 2)].is_finite(),
                    "{name}: spill"
                );
            }
        }
    }
}

#[test]
fn nonfinite_rhs_propagates_through_all_matmul_nt_variants() {
    for &(k, pk) in &NAN_CASES {
        for poison in [f64::NAN, f64::INFINITY] {
            // a: 2 x k, row 0 has 0.0 at the poison index.
            let mut a = Matrix::from_fn(2, k, |i, j| (i * k + j) as f64 * 0.25 + 1.0);
            a.data_mut()[pk] = 0.0;
            // b: 3 x k (rhs is transposed), poison at (1, pk).
            let mut b = Matrix::from_fn(3, k, |i, j| (i + j) as f64 * 0.5 + 1.0);
            b.data_mut()[k + pk] = poison;
            for (name, f) in nt_variants() {
                let out = f(&a, &b); // 2 x 3
                assert!(
                    out[(0, 1)].is_nan(),
                    "{name} k={k} pk={pk} poison={poison}: row0"
                );
                assert!(!out[(1, 1)].is_finite(), "{name}: row1");
                assert!(
                    out[(0, 0)].is_finite() && out[(0, 2)].is_finite(),
                    "{name}: spill"
                );
            }
        }
    }
}

// -- fused spmm + bias + relu: bitwise equivalence -----------------------

fn fused_fixture() -> (Rc<Csr>, Vec<f64>, Matrix, Vec<f64>) {
    let mut coo = Vec::new();
    for i in 0..40u32 {
        for j in 0..12u32 {
            if (i * 7 + j * 3) % 5 == 0 {
                coo.push((i, j));
            }
        }
    }
    let csr = Rc::new(Csr::from_coo(40, 12, &coo));
    let vals: Vec<f64> = (0..csr.nnz())
        .map(|e| ((e * 13) % 17) as f64 * 0.3 - 2.4)
        .collect();
    let x = Matrix::from_fn(12, 6, |i, j| ((i * 5 + j * 11) % 19) as f64 * 0.25 - 2.0);
    let bias: Vec<f64> = (0..6).map(|j| (j as f64) * 0.4 - 1.0).collect();
    (csr, vals, x, bias)
}

#[test]
fn fused_kernel_bitwise_matches_unfused_chain() {
    let (csr, vals, x, bias) = fused_fixture();
    let agg = csr.spmm_serial(&vals, &x);
    let unfused = Matrix::from_fn(agg.rows(), agg.cols(), |i, j| {
        (agg[(i, j)] + bias[j]).max(0.0)
    });
    let fused = csr.spmm_bias_relu_serial(&vals, &x, &bias);
    assert_eq!(
        fused.data(),
        unfused.data(),
        "fused forward must be bitwise"
    );
    // Mixed signs on both sides of the ReLU, or the test proves nothing.
    assert!(fused.data().contains(&0.0));
    assert!(fused.data().iter().any(|&v| v > 0.0));
}

/// The fused tape op must be indistinguishable — to the bit — from the
/// chain it replaces, in value *and* in every gradient. This is the
/// property that lets the GCN layer switch to the fused node without
/// perturbing golden traces.
#[test]
fn fused_tape_op_bitwise_matches_unfused_tape_chain() {
    let (csr, vals, x, bias) = fused_fixture();
    let run = |fused: bool| {
        let t = Tape::new();
        let v = t.leaf(Matrix::from_vec(1, vals.len(), vals.clone()), true);
        let d = t.leaf(x.clone(), true);
        let b = t.leaf(Matrix::from_vec(1, bias.len(), bias.clone()), true);
        let y = if fused {
            t.spmm_bias_relu(csr.clone(), v, d, b)
        } else {
            let h = t.spmm(csr.clone(), v, d);
            let hb = t.add_bias(h, b);
            t.relu(hb)
        };
        let out = t.value_cloned(y);
        let loss = t.sum_all(y);
        let g = t.backward(loss);
        (
            out,
            g.get(v).unwrap().clone(),
            g.get(d).unwrap().clone(),
            g.get(b).unwrap().clone(),
        )
    };
    let (fo, fgv, fgd, fgb) = run(true);
    let (uo, ugv, ugd, ugb) = run(false);
    assert_eq!(fo.data(), uo.data(), "forward value");
    assert_eq!(fgv.data(), ugv.data(), "grad wrt sparse values");
    assert_eq!(fgd.data(), ugd.data(), "grad wrt dense input");
    assert_eq!(fgb.data(), ugb.data(), "grad wrt bias");
}

// -- fused pair_dot and matmul_leaky_relu: bitwise equivalence ----------

/// `h` for the pair test: mixed signs and no zero entry, so no pair's
/// products are all `-0.0` (the one case where an accumulation started
/// from `+0.0` could disagree with `Matrix::row_dot` on the sign of a
/// zero). The pairs repeat (2, 5), hold two self pairs, (3, 3) and
/// (0, 0), and put rows 0 and 4 on both sides.
fn pair_fixture() -> (Matrix, Rc<Vec<usize>>, Rc<Vec<usize>>) {
    let h = Matrix::from_fn(7, 5, |i, j| ((i * 5 + j * 3) % 11) as f64 * 0.35 - 1.6);
    let src = Rc::new(vec![0, 2, 4, 3, 2, 6, 1, 4, 0]);
    let dst = Rc::new(vec![1, 5, 2, 3, 5, 4, 6, 0, 0]);
    (h, src, dst)
}

/// `pair_dot` against the chain it replaced in the fitness: two per-pair
/// gathers of `h` and their row-wise dot, the dot spelt here as
/// mul_elem → transpose → sum_rows (the same products, summed in the
/// same ascending order). `h` also feeds one consumer recorded before
/// the pair op and one recorded after it, so the order in which the
/// contributions land in h's shared gradient buffer is checked too.
#[test]
fn fused_pair_dot_bitwise_matches_gather_chain() {
    let (hm, src, dst) = pair_fixture();
    let p = src.len();
    let run = |fused: bool| {
        let t = Tape::new();
        let h = t.leaf(hm.clone(), true);
        let w = t.leaf(
            Matrix::from_fn(5, 3, |i, j| (i as f64 - 2.0) * 0.3 + j as f64 * 0.1),
            true,
        );
        let before = t.matmul(h, w);
        let dots = if fused {
            t.pair_dot(h, src.clone(), dst.clone())
        } else {
            let hs = t.gather_rows(h, src.clone());
            let hd = t.gather_rows(h, dst.clone());
            let sums = t.sum_rows(t.transpose(t.mul_elem(hs, hd)));
            t.reshape(sums, p, 1)
        };
        let after = t.tanh(h);
        let weights = t.constant(Matrix::from_fn(p, 1, |i, _| i as f64 * 0.5 - 1.7));
        let pair_term = t.sum_all(t.mul_elem(t.sigmoid(dots), weights));
        let rest = t.add(t.sum_all(before), t.sum_all(t.mul_elem(after, after)));
        let loss = t.add(pair_term, rest);
        let out = t.value_cloned(dots);
        let g = t.backward(loss);
        (out, g.get(h).unwrap().clone(), g.get(w).unwrap().clone())
    };
    let (fo, fgh, fgw) = run(true);
    let (uo, ugh, ugw) = run(false);
    let direct: Vec<f64> = src
        .iter()
        .zip(dst.iter())
        .map(|(&i, &j)| hm.row_dot(i, &hm, j))
        .collect();
    assert_eq!(
        fo.data(),
        &direct[..],
        "forward is Matrix::row_dot per pair"
    );
    assert_eq!(fo.data(), uo.data(), "forward value");
    assert_eq!(fgh.data(), ugh.data(), "grad wrt h");
    assert_eq!(
        fgw.data(),
        ugw.data(),
        "grad wrt the other consumer's weight"
    );
    // Both signs among the pair scores, or the test proves little.
    assert!(fo.data().iter().any(|&v| v < 0.0) && fo.data().iter().any(|&v| v > 0.0));
}

/// `matmul_leaky_relu` against `leaky_relu(matmul(a, b))`. Row 2 of `a`
/// is zero, so its products are exact zeros; the other rows give both
/// signs. `a` and `b` are read again by a product recorded after the
/// fused op, so their gradient buffers are shared.
#[test]
fn fused_matmul_leaky_relu_bitwise_matches_unfused_chain() {
    let am = Matrix::from_fn(6, 4, |i, j| {
        if i == 2 {
            0.0
        } else {
            ((i * 7 + j * 5) % 9) as f64 * 0.4 - 1.5
        }
    });
    let bm = Matrix::from_fn(4, 5, |i, j| ((i * 3 + j * 11) % 7) as f64 * 0.5 - 1.4);
    let run = |fused: bool| {
        let t = Tape::new();
        let a = t.leaf(am.clone(), true);
        let b = t.leaf(bm.clone(), true);
        let y = if fused {
            t.matmul_leaky_relu(a, b, 0.2)
        } else {
            t.leaky_relu(t.matmul(a, b), 0.2)
        };
        let after = t.matmul(a, b);
        let weights = t.constant(Matrix::from_fn(6, 5, |i, j| (i * 5 + j) as f64 * 0.1 - 1.3));
        let loss = t.add(
            t.sum_all(t.mul_elem(y, weights)),
            t.sum_all(t.mul_elem(after, after)),
        );
        let out = t.value_cloned(y);
        let g = t.backward(loss);
        (out, g.get(a).unwrap().clone(), g.get(b).unwrap().clone())
    };
    let (fo, fga, fgb) = run(true);
    let (uo, uga, ugb) = run(false);
    assert_eq!(fo.data(), uo.data(), "forward value");
    assert_eq!(fga.data(), uga.data(), "grad wrt a");
    assert_eq!(fgb.data(), ugb.data(), "grad wrt b");
    // Zero, negative and positive pre-activations all present.
    assert!(fo.row(2).iter().all(|&v| v == 0.0));
    assert!(fo.data().iter().any(|&v| v < 0.0) && fo.data().iter().any(|&v| v > 0.0));
}

/// `leaky_relu_matmul` against `matmul(leaky_relu(a), b)`, in the
/// attentions' shape: a one-column projection. Row 1 of `a` is zero, the
/// other rows give both signs, and `a` and `b` are read again by
/// consumers recorded before and after the fused op, so the order in
/// which contributions land in their shared gradient buffers is checked.
#[test]
fn fused_leaky_relu_matmul_bitwise_matches_unfused_chain() {
    let am = Matrix::from_fn(6, 4, |i, j| {
        if i == 1 {
            0.0
        } else {
            ((i * 7 + j * 5) % 9) as f64 * 0.4 - 1.5
        }
    });
    let bm = Matrix::from_fn(4, 1, |i, _| i as f64 * 0.6 - 0.8);
    let run = |fused: bool| {
        let t = Tape::new();
        let a = t.leaf(am.clone(), true);
        let b = t.leaf(bm.clone(), true);
        let before = t.tanh(a);
        let y = if fused {
            t.leaky_relu_matmul(a, b, 0.2)
        } else {
            t.matmul(t.leaky_relu(a, 0.2), b)
        };
        let after = t.matmul(a, b);
        let weights = t.constant(Matrix::from_fn(6, 1, |i, _| i as f64 * 0.3 - 0.7));
        let loss = t.add(
            t.sum_all(t.mul_elem(t.sigmoid(y), weights)),
            t.add(
                t.sum_all(t.mul_elem(before, before)),
                t.sum_all(t.mul_elem(after, after)),
            ),
        );
        let out = t.value_cloned(y);
        let g = t.backward(loss);
        (out, g.get(a).unwrap().clone(), g.get(b).unwrap().clone())
    };
    let (fo, fga, fgb) = run(true);
    let (uo, uga, ugb) = run(false);
    assert_eq!(fo.data(), uo.data(), "forward value");
    assert_eq!(fga.data(), uga.data(), "grad wrt a");
    assert_eq!(fgb.data(), ugb.data(), "grad wrt b");
    assert!(am.data().iter().any(|&v| v < 0.0) && am.data().iter().any(|&v| v > 0.0));
}

/// The fused flyback sum against the chain it replaces,
/// `base + Σ_k mul_col(up_k, slice_cols(β, k, k + 1))`, bit for bit, with
/// one part and with three. Row 2 of every part is zero under a negative
/// upstream gradient, so β's gradient column entries there are `-0.0`:
/// one part keeps it, three parts' zero-column adds turn it into `+0.0`.
/// β is read by the op alone, so its gradient shows them raw. `base` and
/// a part are also read before and after the op, so the order in which
/// contributions land in their buffers is checked too.
#[test]
fn fused_add_weighted_cols_bitwise_matches_unfused_chain() {
    let m = |seed: usize, cols: usize| {
        Matrix::from_fn(6, cols, |i, j| {
            if i == 2 && cols == 4 {
                0.0
            } else {
                ((i * 7 + j * 5 + seed * 3) % 11) as f64 * 0.3 - 1.4
            }
        })
    };
    let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let run = |fused: bool, k_parts: usize| {
        let t = Tape::new();
        let base = t.leaf(m(0, 4), true);
        let ups: Vec<Var> = (1..=k_parts).map(|s| t.leaf(m(s, 4), true)).collect();
        let beta = t.leaf(m(9, k_parts), true);
        let before = t.tanh(base);
        let y = if fused {
            t.add_weighted_cols(base, &ups, beta)
        } else {
            let mut h = base;
            for (k, &up) in ups.iter().enumerate() {
                h = t.add(h, t.mul_col(up, t.slice_cols(beta, k, k + 1)));
            }
            h
        };
        let after = t.tanh(ups[k_parts - 1]);
        let weights = t.constant(Matrix::from_fn(6, 4, |i, j| {
            if i == 2 {
                -0.5
            } else {
                (i + j) as f64 * 0.2 - 0.6
            }
        }));
        let loss = t.add(
            t.sum_all(t.mul_elem(y, weights)),
            t.add(
                t.sum_all(t.mul_elem(before, before)),
                t.sum_all(t.mul_elem(after, after)),
            ),
        );
        let out = bits(&t.value(y));
        let g = t.backward(loss);
        let grads: Vec<Vec<u64>> = [base, beta]
            .iter()
            .chain(&ups)
            .map(|&v| bits(g.get(v).unwrap()))
            .collect();
        (out, grads)
    };
    for k_parts in [1, 3] {
        let (fo, fg) = run(true, k_parts);
        let (uo, ug) = run(false, k_parts);
        assert_eq!(fo, uo, "forward value, {k_parts} parts");
        for (k, (f, u)) in fg.iter().zip(&ug).enumerate() {
            assert_eq!(f, u, "gradient of input {k}, {k_parts} parts");
        }
        // the signed zero the chain leaves in β's gradient, row 2
        let neg = f64::from_bits(ug[1][2 * k_parts]).is_sign_negative();
        assert_eq!(neg, k_parts == 1, "{k_parts} parts");
    }
}

// -- dispatch parity across pool widths ----------------------------------

/// The dispatched entry points must be bitwise-stable across pool widths
/// 1..=4 and equal to the scalar references.
#[cfg(feature = "parallel")]
mod pool_dispatch {
    use super::*;
    use mg_runtime::{with_pool, Pool};
    use std::sync::Arc;

    #[test]
    fn dispatched_kernels_bitwise_across_pools() {
        let a = Matrix::from_fn(96, 70, |i, j| ((i * 3 + j * 13) % 23) as f64 * 0.25 - 2.5);
        let b = Matrix::from_fn(70, 50, |i, j| ((i * 5 + j * 7) % 17) as f64 * 0.5 - 4.0);
        let bt = Matrix::from_fn(50, 70, |i, j| ((i * 11 + j) % 13) as f64 * 0.75 - 4.5);
        let (mm_ref, tn_ref, nt_ref) = (
            a.matmul_serial(&b),
            a.matmul_tn_serial(&a),
            a.matmul_nt_serial(&bt),
        );
        for threads in 1..=4 {
            let pool = Arc::new(Pool::new(threads));
            let (mm, tn, nt) =
                with_pool(pool, || (a.matmul(&b), a.matmul_tn(&a), a.matmul_nt(&bt)));
            assert_eq!(mm.data(), mm_ref.data(), "matmul @ {threads} threads");
            assert_eq!(tn.data(), tn_ref.data(), "matmul_tn @ {threads} threads");
            assert_eq!(nt.data(), nt_ref.data(), "matmul_nt @ {threads} threads");
        }
    }
}

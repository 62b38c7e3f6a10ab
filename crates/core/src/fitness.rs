//! Differentiable fitness scoring (paper Eq. 2) and the attention used for
//! hyper-node feature initialisation (Eq. 3) and flyback aggregation
//! (Eq. 4).
//!
//! All three attentions share the same algebraic shape
//! `aᵀ σ(W u ‖ v)`; because `σ` is elementwise, the dot product splits as
//! `a₁ᵀ σ(W u) + a₂ᵀ σ(v)`, which lets per-node terms be computed once and
//! gathered per pair — the same decomposition GAT implementations use.

use mg_tensor::{Binding, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use std::rc::Rc;

/// Negative slope of the LeakyReLU in every attention (paper uses
/// LeakyReLU for σ).
pub const ATT_SLOPE: f64 = 0.2;

/// Parameters of one `aᵀ σ(W · ‖ ·)` attention.
pub struct AttentionParams {
    pub w: ParamId,
    /// First half of `a` (applied to the transformed side).
    pub a_lhs: ParamId,
    /// Second half of `a` (applied to the raw side).
    pub a_rhs: ParamId,
}

impl AttentionParams {
    /// Create with Glorot initialisation. `dim` is the node-embedding
    /// width on both sides.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, rng: &mut StdRng) -> Self {
        AttentionParams {
            w: store.add(format!("{name}.w"), Matrix::glorot(dim, dim, rng)),
            a_lhs: store.add(format!("{name}.a_lhs"), Matrix::glorot(dim, 1, rng)),
            a_rhs: store.add(format!("{name}.a_rhs"), Matrix::glorot(dim, 1, rng)),
        }
    }
}

/// Ordered λ-hop pairs `(member j, candidate ego i)` used by both the
/// fitness score and the hyper-node formation matrix.
#[derive(Clone)]
pub struct EgoPairs {
    /// Member node `j` of each pair.
    pub src: Rc<Vec<usize>>,
    /// Candidate ego `i` of each pair.
    pub dst: Rc<Vec<usize>>,
}

impl EgoPairs {
    /// Build all ordered pairs within distance `lambda` (excluding
    /// self-pairs) of a topology.
    pub fn build(topo: &mg_graph::Topology, lambda: usize) -> EgoPairs {
        let n = topo.n();
        let mut src = Vec::new();
        let mut dst = Vec::new();
        if lambda == 1 {
            for i in 0..n {
                for j in topo.neighbors(i) {
                    src.push(j);
                    dst.push(i);
                }
            }
        } else {
            // one scratch across all n BFS traversals — khop() would
            // allocate an O(n) dist array per ego, O(n²) total
            let mut scratch = mg_graph::BfsScratch::with_capacity(n);
            for i in 0..n {
                for j in topo.khop_with(&mut scratch, i, lambda) {
                    if j != i {
                        src.push(j);
                        dst.push(i);
                    }
                }
            }
        }
        EgoPairs {
            src: Rc::new(src),
            dst: Rc::new(dst),
        }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True when the graph has no pairs (no edges).
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

/// Per-pair fitness `φ_ij = f^s × f^c` (Eq. 2), a `P x 1` tape variable.
///
/// * `f^s` — attention `aᵀ LeakyReLU(W h_j ‖ W h_i)` softmax-normalised
///   over each member `j`'s candidate egos (the `Σ_{r ∈ N_j^λ}`
///   denominator of the paper).
/// * `f^c` — the linearity term `sigmoid(h_jᵀ h_i)`.
pub fn pair_fitness(
    tape: &Tape,
    bind: &Binding,
    params: &AttentionParams,
    pairs: &EgoPairs,
    h: Var,
    n: usize,
) -> Var {
    pair_fitness_with(tape, bind, params, pairs, h, n, true)
}

/// As [`pair_fitness`] with the linearity term `f^c` optional — the
/// ablation knob for Eq. 2's second component.
pub fn pair_fitness_with(
    tape: &Tape,
    bind: &Binding,
    params: &AttentionParams,
    pairs: &EgoPairs,
    h: Var,
    n: usize,
    linearity: bool,
) -> Var {
    let act = tape.matmul_leaky_relu(h, bind.var(params.w), ATT_SLOPE);
    let lhs = tape.matmul(act, bind.var(params.a_lhs)); // n x 1 (member side)
    let rhs = tape.matmul(act, bind.var(params.a_rhs)); // n x 1 (ego side)
    let e_src = tape.gather_rows(lhs, pairs.src.clone());
    let e_dst = tape.gather_rows(rhs, pairs.dst.clone());
    let e = tape.add(e_src, e_dst);
    // softmax over each member's candidate egos
    let f_s = tape.segment_softmax(e, pairs.src.clone(), n);
    if !linearity {
        return f_s;
    }
    // linearity component
    let f_c = tape.sigmoid(tape.pair_dot(h, pairs.src.clone(), pairs.dst.clone()));
    tape.mul_elem(f_s, f_c)
}

/// Append a constant `1.0` row to a `P x 1` column so index `P` can be
/// gathered as the constant for retained-node entries of `S_k`.
pub fn with_unit_row(tape: &Tape, col: Var) -> Var {
    let p = tape.shape(col).0;
    let flat = tape.reshape(col, 1, p);
    let one = tape.constant(Matrix::full(1, 1, 1.0));
    let cat = tape.concat_cols(&[flat, one]);
    tape.reshape(cat, p + 1, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::Topology;
    use rand::SeedableRng;

    fn setup() -> (Topology, Matrix) {
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let h = Matrix::from_fn(5, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 / 5.0 - 0.4);
        (topo, h)
    }

    #[test]
    fn pairs_lambda1_are_directed_edges() {
        let (topo, _) = setup();
        let pairs = EgoPairs::build(&topo, 1);
        assert_eq!(pairs.len(), 2 * topo.num_edges());
    }

    #[test]
    fn pairs_lambda2_superset_of_lambda1() {
        let (topo, _) = setup();
        let p1 = EgoPairs::build(&topo, 1);
        let p2 = EgoPairs::build(&topo, 2);
        assert!(p2.len() >= p1.len());
        // no self pairs
        assert!(p2.src.iter().zip(p2.dst.iter()).all(|(a, b)| a != b));
    }

    #[test]
    fn fitness_values_in_unit_interval() {
        let (topo, h) = setup();
        let pairs = EgoPairs::build(&topo, 1);
        let mut store = ParamStore::new();
        let params = AttentionParams::new(&mut store, "fit", 4, &mut StdRng::seed_from_u64(0));
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let hv = tape.constant(h);
        let phi = pair_fitness(&tape, &bind, &params, &pairs, hv, 5);
        let v = tape.value(phi);
        assert_eq!(v.shape(), (pairs.len(), 1));
        assert!(v.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn fitness_softmax_component_normalises_per_member() {
        // with f^c forced to 1 (h = 0 gives sigmoid(0) = 0.5, so instead
        // verify that summing phi/f_c over each member's candidates = 1)
        let (topo, h) = setup();
        let pairs = EgoPairs::build(&topo, 1);
        let mut store = ParamStore::new();
        let params = AttentionParams::new(&mut store, "fit", 4, &mut StdRng::seed_from_u64(0));
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let hv = tape.constant(h.clone());
        let phi = pair_fitness(&tape, &bind, &params, &pairs, hv, 5);
        let v = tape.value(phi);
        // divide out f_c and check per-member sums
        let mut sums = vec![0.0f64; 5];
        for (k, (&j, &i)) in pairs.src.iter().zip(pairs.dst.iter()).enumerate() {
            let dot = h.row_dot(j, &h, i);
            let f_c = mg_tensor::sigmoid(dot);
            sums[j] += v[(k, 0)] / f_c;
        }
        for s in sums {
            assert!((s - 1.0).abs() < 1e-9, "sum = {s}");
        }
    }

    #[test]
    fn fitness_is_differentiable_wrt_h() {
        let (topo, h) = setup();
        let pairs = EgoPairs::build(&topo, 1);
        let mut store = ParamStore::new();
        let params = AttentionParams::new(&mut store, "fit", 4, &mut StdRng::seed_from_u64(0));
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let hv = tape.leaf(h, true);
        let phi = pair_fitness(&tape, &bind, &params, &pairs, hv, 5);
        let loss = tape.sum_all(phi);
        let grads = tape.backward(loss);
        assert!(grads.get(hv).is_some());
        assert!(grads.get(bind.var(params.w)).is_some());
    }

    #[test]
    fn with_unit_row_appends_one() {
        let tape = Tape::new();
        let col = tape.constant(Matrix::from_vec(3, 1, vec![0.1, 0.2, 0.3]));
        let ext = with_unit_row(&tape, col);
        assert_eq!(tape.shape(ext), (4, 1));
        assert_eq!(tape.value(ext)[(3, 0)], 1.0);
        assert_eq!(tape.value(ext)[(1, 0)], 0.2);
    }
}

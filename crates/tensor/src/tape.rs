//! Reverse-mode autograd tape.
//!
//! The tape is an append-only arena of nodes. Forward computation is
//! eager: every op constructor computes its value immediately and records
//! the operation, so `backward` only has to walk the arena in reverse.
//!
//! Design notes
//! * Ops are an enum, not boxed closures — cheap to match, easy to test,
//!   and the whole op set is visible in one place (`Op`).
//! * Sparse-matrix values are ordinary `1 x nnz` variables, so learnable
//!   sparse entries (AdamGNN's `S_k` fitness scores) receive gradients.
//! * Gradients are returned as a separate [`Gradients`] store rather than
//!   written into nodes, which keeps `backward(&self)` free of interior
//!   mutability headaches.
//! * A tape is swept once: `backward` releases every non-leaf node at or
//!   below the loss as soon as the sweep has passed it (see
//!   [`crate::backward`]), so forward values must be read before it runs.
//! * Node values are `Option<Matrix>`: a closed checkpoint scope (see
//!   [`crate::checkpoint`]) drops interior buffers after forward and
//!   `backward` re-materialises them by replaying the recorded ops (a
//!   grad-free scope's are never needed again, so never replayed). The
//!   shape is retained separately so shape-only queries never force a
//!   replay.

use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;

use crate::checkpoint::Segment;
use crate::csr::Csr;
use crate::matrix::Matrix;
use crate::ops::KlStats;

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

pub(crate) struct Node {
    /// The forward value. `None` while a checkpoint scope holds the
    /// buffer dropped; backward re-materialises it by replaying the op.
    pub value: Option<Matrix>,
    /// Shape of the value, retained even while the buffer is dropped.
    pub shape: (usize, usize),
    pub op: Op,
    pub requires_grad: bool,
}

impl Node {
    /// The materialised forward value.
    ///
    /// # Panics
    /// Panics if backward released the node, or if the buffer was dropped
    /// by a checkpoint scope and has not been re-materialised — callers
    /// inside `backward` must go through the segment materialisation path
    /// first.
    pub fn val(&self) -> &Matrix {
        match &self.value {
            Some(v) => v,
            // a leaf's value is never dropped, so a valueless leaf is a
            // node `release` emptied
            None if matches!(self.op, Op::Leaf) => panic!(
                "node value was released by backward, which frees every forward \
                 value it has swept past; read values before calling backward"
            ),
            None => panic!("node value was dropped by a checkpoint scope and is not materialised"),
        }
    }

    /// Free the value and the op payload (cached kernels, masks, `Rc`
    /// references) of a node the backward sweep has passed, returning the
    /// value and payload bytes freed. Leaves keep both: they are
    /// parameters and constants, not forward results.
    pub fn release(&mut self) -> usize {
        if matches!(self.op, Op::Leaf) {
            return 0;
        }
        let payload = std::mem::replace(&mut self.op, Op::Leaf).payload_bytes();
        payload + self.value.take().map_or(0, |v| bytes_of(&v))
    }

    /// Bytes this node holds on the tape: its value, if materialised,
    /// and its op payload.
    pub fn held_bytes(&self) -> usize {
        self.value.as_ref().map_or(0, bytes_of) + self.op.payload_bytes()
    }
}

/// Bytes held by a node value buffer (the accounting unit for
/// [`Tape::live_tape_bytes`] / [`Tape::peak_tape_bytes`]).
pub(crate) fn bytes_of(m: &Matrix) -> usize {
    m.len() * std::mem::size_of::<f64>()
}

/// Cached forward state for the Student-t KL (DEC) loss.
pub(crate) struct KlCache {
    /// `t[j, i] = (1 + ||h_j - h_{ego_i}||^2)^{-1}`, shape `n x m`.
    pub t: Matrix,
    /// Row sums and cluster frequencies of `t`, built once at record
    /// time for the loss and reused by the backward.
    pub stats: KlStats,
}

/// Cached forward state for edge-pair BCE-with-logits.
pub(crate) struct BceCache {
    /// Raw logits `z_k = h_i . h_j` per pair.
    pub logits: Vec<f64>,
}

impl Op {
    /// Bytes of the buffers the op keeps for its backward: the Student-t
    /// kernel and its statistics, the BCE logits, the dropout mask. They
    /// count toward [`Tape::live_tape_bytes`] from the moment the op is
    /// recorded until backward releases it; the other payloads are index
    /// lists shared with the caller, or a few scalars.
    pub(crate) fn payload_bytes(&self) -> usize {
        let f64s = match self {
            Op::StudentTKl { cache, .. } => cache.t.len() + cache.stats.len(),
            Op::BcePairs { cache, .. } => cache.logits.len(),
            Op::Dropout { mask, .. } => mask.len(),
            _ => 0,
        };
        f64s * std::mem::size_of::<f64>()
    }
}

/// The operation that produced a node. Payloads are input handles plus
/// whatever immutable auxiliary data the backward pass needs.
///
/// Checkpoint replay re-evaluates ops from these payloads alone (see
/// [`crate::ops::eval_op`]), so any stochastic or data-dependent choice —
/// dropout masks, argmax rows, cached logits/kernels — must live in the
/// payload, never be re-drawn at replay time.
#[allow(dead_code)] // some payload fields are forward-only
pub(crate) enum Op {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    Scale(Var, f64),
    AddScalar(Var, f64),
    /// `a (n x d) + bias (1 x d)` broadcast over rows.
    AddBias(Var, Var),
    MatMul(Var, Var),
    /// Fused `leaky_relu(a * b, slope)` — an attention's matmul and its
    /// activation as one node. The backward needs no cached product: for
    /// `slope >= 0`, `out > 0` holds exactly where the product was `> 0`.
    MatMulLeakyRelu {
        a: Var,
        b: Var,
        slope: f64,
    },
    /// Fused `leaky_relu(a, slope) * b` — an attention's activation and
    /// its projection as one node. The activated copy of `a` is never
    /// stored: the forward and the backward each rebuild it from `a`.
    LeakyReluMatMul {
        a: Var,
        b: Var,
        slope: f64,
    },
    Transpose(Var),
    Relu(Var),
    LeakyRelu(Var, f64),
    Sigmoid(Var),
    Tanh(Var),
    SoftmaxRows(Var),
    LogSoftmaxRows(Var),
    /// `csr(values) * dense`.
    ///
    /// The `Rc<Csr>` is shared with the caller, so the transpose cache the
    /// backward pass builds for `spmm_t` persists on the caller's instance
    /// and is reused by every later tape that records the same structure.
    Spmm {
        csr: Rc<Csr>,
        values: Var,
        dense: Var,
    },
    /// `csr(values)^T * dense`. Shares `csr` like [`Op::Spmm`], so the
    /// forward `spmm_t` warms the transpose cache that the backward
    /// `spmm_t_grad_values` then reuses.
    SpmmT {
        csr: Rc<Csr>,
        values: Var,
        dense: Var,
    },
    /// Fused `relu(csr(values) * dense + bias)` — the GCN layer's
    /// per-level chain as one node. Shares `csr` like [`Op::Spmm`]. The
    /// backward needs no cached pre-activation: `out > 0` holds exactly
    /// where the pre-activation was `> 0`.
    SpmmBiasRelu {
        csr: Rc<Csr>,
        values: Var,
        dense: Var,
        bias: Var,
    },
    GatherRows {
        src: Var,
        idx: Rc<Vec<usize>>,
    },
    /// Sum edge messages into `n_seg` buckets: `out[s] = sum_{e: seg[e]=s} src[e]`.
    SegmentSum {
        src: Var,
        seg: Rc<Vec<usize>>,
        n_seg: usize,
    },
    /// Softmax over entries sharing a segment id (`scores` is `n_e x 1`).
    SegmentSoftmax {
        scores: Var,
        seg: Rc<Vec<usize>>,
        n_seg: usize,
    },
    /// Per-pair dot product `out[p] = h[src[p]] . h[dst[p]]` -> `P x 1`,
    /// read straight from `h`: the two `P x d` gathers it replaces are
    /// never materialised.
    PairDot {
        h: Var,
        src: Rc<Vec<usize>>,
        dst: Rc<Vec<usize>>,
    },
    /// Scale each row of `a (n x d)` by `col (n x 1)`.
    MulCol {
        a: Var,
        col: Var,
    },
    /// Fused `base + Σ_k mul_col(parts[k], slice_cols(weights, k, k + 1))`
    /// — the flyback sum as one node. Its backward reads only `parts` and
    /// `weights`; the products, partial sums and column slices of the
    /// unfused chain are never stored.
    AddWeightedCols {
        base: Var,
        parts: Vec<Var>,
        weights: Var,
    },
    ConcatCols(Vec<Var>),
    SliceCols {
        src: Var,
        start: usize,
        end: usize,
    },
    SumAll(Var),
    MeanAll(Var),
    /// Column-wise mean over rows: `n x d -> 1 x d`.
    MeanRows(Var),
    /// Column-wise sum over rows: `n x d -> 1 x d`.
    SumRows(Var),
    /// Column-wise max over rows with recorded argmax rows.
    MaxRows {
        src: Var,
        argmax: Rc<Vec<usize>>,
    },
    /// Mean negative log likelihood over a node subset.
    NllLoss {
        logp: Var,
        targets: Rc<Vec<usize>>,
        nodes: Rc<Vec<usize>>,
    },
    /// Mean BCE-with-logits over inner-product pair scores.
    BcePairs {
        h: Var,
        pairs: Rc<Vec<(usize, usize)>>,
        labels: Rc<Vec<f64>>,
        cache: Rc<BceCache>,
    },
    /// DEC-style Student-t KL clustering loss (AdamGNN Eq. 5).
    StudentTKl {
        h: Var,
        egos: Rc<Vec<usize>>,
        cache: Rc<KlCache>,
        /// Explicit constant target `P`; `None` re-derives it from the
        /// cached kernel (the production self-target).
        target: Option<Rc<Matrix>>,
    },
    /// Inverted-dropout with a fixed mask (entries are 0 or 1/(1-p)).
    Dropout {
        src: Var,
        mask: Rc<Vec<f64>>,
    },
    /// Row-major reshape (same element count, data order preserved).
    /// The target shape is part of the payload so replay can rebuild the
    /// value without consulting the (possibly dropped) output buffer.
    Reshape {
        src: Var,
        rows: usize,
        cols: usize,
    },
    /// Per-column standardisation (graph-norm): `(x - mean) / std`.
    ColNormalize {
        src: Var,
        inv_std: Rc<Vec<f64>>,
    },
    /// Elementwise exponential.
    Exp(Var),
    /// Elementwise natural logarithm (input must be positive).
    Ln(Var),
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    pub(crate) grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `v`, if it was reached and requires grad.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Take ownership of a gradient (e.g. to feed an optimizer).
    pub fn take(&mut self, v: Var) -> Option<Matrix> {
        self.grads.get_mut(v.0).and_then(|g| g.take())
    }
}

/// Append-only autograd arena. Create one per forward/backward pass.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
    /// Closed checkpoint segments, ascending and disjoint by tape index.
    pub(crate) segments: RefCell<Vec<Segment>>,
    /// Start index of the currently open checkpoint scope, if any.
    pub(crate) open_scope: Cell<Option<usize>>,
    /// Bytes currently held by materialised node value buffers.
    pub(crate) live_bytes: Cell<usize>,
    /// High-water mark of `live_bytes`.
    pub(crate) peak_bytes: Cell<usize>,
    /// Test-only fault injection: the next replay of this node index is
    /// perturbed before the fingerprint check (see `corrupt_next_replay`).
    pub(crate) corrupt_replay: Cell<Option<usize>>,
    /// Set by the first backward sweep, which releases what it passes.
    pub(crate) swept: Cell<bool>,
    /// Dropped values backward has rebuilt by replay, and their bytes.
    pub(crate) replayed_nodes: Cell<usize>,
    pub(crate) replayed_bytes: Cell<usize>,
}

impl Tape {
    /// Fresh, empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a leaf holding `value`. Set `requires_grad` for parameters.
    pub fn leaf(&self, value: Matrix, requires_grad: bool) -> Var {
        self.push(value, Op::Leaf, requires_grad)
    }

    /// Record a constant (non-differentiable) leaf.
    pub fn constant(&self, value: Matrix) -> Var {
        self.leaf(value, false)
    }

    /// Borrow the value of a node.
    ///
    /// # Panics
    /// Panics if a checkpoint scope dropped the buffer — read segment
    /// outputs (the `keep` set), not interiors, after a scope closes — or
    /// if backward released it: after the sweep only leaves and nodes
    /// recorded after the loss keep their values.
    pub fn value(&self, v: Var) -> Ref<'_, Matrix> {
        Ref::map(self.nodes.borrow(), |nodes| nodes[v.0].val())
    }

    /// Clone the value of a node out of the tape.
    ///
    /// # Panics
    /// Panics if the buffer was dropped or released (see [`Tape::value`]).
    pub fn value_cloned(&self, v: Var) -> Matrix {
        self.nodes.borrow()[v.0].val().clone()
    }

    /// Shape of a node's value (available even while checkpointed away).
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.0].shape
    }

    /// Whether the node participates in gradient computation.
    pub fn requires_grad(&self, v: Var) -> bool {
        self.nodes.borrow()[v.0].requires_grad
    }

    /// Whether the node's value buffer is currently materialised (false
    /// for interiors of closed checkpoint scopes and for nodes backward
    /// has released).
    pub fn is_materialized(&self, v: Var) -> bool {
        self.nodes.borrow()[v.0].value.is_some()
    }

    /// Bytes currently held by materialised node value buffers and by the
    /// op payloads backward reads (the Student-t kernel, BCE logits,
    /// dropout masks; see `Op::payload_bytes`). Gradient buffers are not
    /// counted.
    pub fn live_tape_bytes(&self) -> usize {
        self.live_bytes.get()
    }

    /// High-water mark of [`Tape::live_tape_bytes`] since creation or the
    /// last [`Tape::reset_peak_tape_bytes`]. Monotone within a run; covers
    /// both the forward pass and any backward re-materialisation. On a
    /// retaining tape, where backward only frees, it is the forward's.
    pub fn peak_tape_bytes(&self) -> usize {
        self.peak_bytes.get()
    }

    /// Checkpointed values backward has recomputed so far: each replay of
    /// a dropped node counts once (0 on a retaining tape).
    pub fn replayed_nodes(&self) -> usize {
        self.replayed_nodes.get()
    }

    /// Bytes of the values counted by [`Tape::replayed_nodes`].
    pub fn replayed_bytes(&self) -> usize {
        self.replayed_bytes.get()
    }

    /// Reset the high-water mark to the current live size (e.g. between
    /// measured phases on a reused tape).
    pub fn reset_peak_tape_bytes(&self) {
        self.peak_bytes.set(self.live_bytes.get());
    }

    /// Test-only fault injection: perturb the next checkpoint replay of
    /// `v` so the fingerprint consistency check can be exercised. One-shot.
    #[doc(hidden)]
    pub fn corrupt_next_replay(&self, v: Var) {
        self.corrupt_replay.set(Some(v.0));
    }

    pub(crate) fn add_live_bytes(&self, bytes: usize) {
        let live = self.live_bytes.get() + bytes;
        self.live_bytes.set(live);
        if live > self.peak_bytes.get() {
            self.peak_bytes.set(live);
        }
    }

    pub(crate) fn sub_live_bytes(&self, bytes: usize) {
        self.live_bytes.set(self.live_bytes.get() - bytes);
    }

    pub(crate) fn push(&self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        debug_assert!(value.all_finite(), "non-finite value pushed to tape");
        self.add_live_bytes(bytes_of(&value) + op.payload_bytes());
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            shape: value.shape(),
            value: Some(value),
            op,
            requires_grad,
        });
        Var(nodes.len() - 1)
    }

    pub(crate) fn rg(&self, v: Var) -> bool {
        self.nodes.borrow()[v.0].requires_grad
    }

    pub(crate) fn rg2(&self, a: Var, b: Var) -> bool {
        let nodes = self.nodes.borrow();
        nodes[a.0].requires_grad || nodes[b.0].requires_grad
    }

    pub(crate) fn rg3(&self, a: Var, b: Var, c: Var) -> bool {
        let nodes = self.nodes.borrow();
        nodes[a.0].requires_grad || nodes[b.0].requires_grad || nodes[c.0].requires_grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let tape = Tape::new();
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let v = tape.leaf(m.clone(), true);
        assert_eq!(*tape.value(v), m);
        assert!(tape.requires_grad(v));
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn constant_does_not_require_grad() {
        let tape = Tape::new();
        let v = tape.constant(Matrix::eye(2));
        assert!(!tape.requires_grad(v));
    }

    #[test]
    fn fresh_tape_has_zero_bytes() {
        let tape = Tape::new();
        assert_eq!(tape.live_tape_bytes(), 0);
        assert_eq!(tape.peak_tape_bytes(), 0);
    }

    #[test]
    fn live_and_peak_bytes_track_pushes() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::zeros(2, 3), true);
        assert_eq!(tape.live_tape_bytes(), 6 * 8);
        let b = tape.leaf(Matrix::zeros(4, 1), true);
        assert_eq!(tape.live_tape_bytes(), 10 * 8);
        assert_eq!(tape.peak_tape_bytes(), 10 * 8);
        let _ = tape.add(a, a);
        let _ = tape.mul_elem(b, b);
        assert_eq!(tape.live_tape_bytes(), 20 * 8);
        assert_eq!(tape.peak_tape_bytes(), 20 * 8);
    }

    #[test]
    fn peak_is_monotone_and_resettable() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::zeros(8, 8), true);
        let scope = tape.begin_checkpoint();
        let b = tape.relu(a);
        let c = tape.sigmoid(b);
        tape.end_checkpoint(scope, &[c]);
        // dropping `b` reduced live but never peak
        assert!(tape.live_tape_bytes() < tape.peak_tape_bytes());
        assert_eq!(tape.peak_tape_bytes(), 3 * 64 * 8);
        let peak_before = tape.peak_tape_bytes();
        let _ = tape.tanh(c);
        assert!(tape.peak_tape_bytes() >= peak_before, "peak is monotone");
        tape.reset_peak_tape_bytes();
        assert_eq!(tape.peak_tape_bytes(), tape.live_tape_bytes());
    }
}

//! Gradient checkpointing: recompute-on-backward for marked tape segments.
//!
//! A *checkpoint scope* brackets a contiguous run of tape nodes. When the
//! scope closes, every interior value — anything recorded inside the
//! scope that is neither a leaf nor in the caller's `keep` set — is
//! dropped, and the scope is remembered as a [`Segment`]. The ops
//! themselves stay on the tape, so `backward` can re-execute them (via
//! [`crate::ops::eval_op`], the same evaluator the forward constructors
//! use) to rebuild exactly the buffers the retaining tape would have
//! held, then run the unchanged gradient kernels over them.
//!
//! ## The bitwise-replay contract
//!
//! Replay produces bit-identical values because it is the *same code* on
//! the *same inputs*: forward construction and replay share one
//! evaluator, and every source of nondeterminism is frozen into the op
//! payload at record time (dropout masks, argmax rows, BCE logits, the
//! Student-t kernel, `inv_std`). Nothing is re-drawn from an RNG and no
//! reduction is reassociated, so gradients under checkpointing are
//! bitwise identical to the retaining tape — which is what lets the
//! golden differential suites pin checkpointed runs against retained
//! goldens. As a belt-and-braces guard, each dropped value's fingerprint
//! (a word-wise FNV-1a over the IEEE-754 bit patterns, see
//! [`fingerprint`]) is recorded at drop time and re-checked after
//! replay; a mismatch surfaces as a typed [`MgError::Corrupt`] instead
//! of silently wrong gradients.
//!
//! ## Grad-free scopes are freed, not segmented
//!
//! A scope that recorded no node requiring grad — every scope of a
//! forward over a `bind_frozen` binding — drops its interiors the same
//! way, but computes no fingerprints and records no [`Segment`]. No
//! backward rule can ever read those values: the sweep skips nodes that
//! do not require grad, the keep contract means nothing recorded after
//! the scope reads an interior, and with no grad-requiring node inside
//! there is no backward step that would ask for a replay. Such a scope
//! therefore never replays, and a read of one of its interiors panics
//! like any other dropped value. This is what keeps a frozen forward's
//! tape down to its kept values plus one scope's interior.
//!
//! ## Memory model
//!
//! Peak tape memory with checkpointing is roughly: retained values
//! (leaves + `keep` sets) plus the largest single segment's interior,
//! because `backward` materialises at most the segments it is currently
//! sweeping and re-drops each segment once the sweep passes below its
//! start — releasing, at the same point, the segment's kept outputs and
//! every node the sweep has already passed (see [`crate::backward`]).
//! [`crate::Tape::peak_tape_bytes`] measures the realised high-water
//! mark across forward and backward.
//!
//! The process's peak resident set also depends on where the kept
//! outputs sit in the heap. A scope records its interiors before the
//! outputs computed from them, so when the interiors are dropped the
//! outputs sit just above the space they freed. glibc's heap only
//! shrinks from its top, and its mmap threshold rises to the size of
//! the largest mapped buffer freed (Eq. 5's Student-t kernel, ~10 MB at
//! Cora scale), after which every matrix is carved from that heap. So a
//! grad scope copies each kept output into a fresh buffer when it
//! closes: the copy can take the space just freed, and the original's
//! space, freed above it, is left for the rest of the step. The copy is
//! bit-exact and charged nowhere, since the bytes live stay the same.
//! Measured on perfbench's `train_full_cora` (seeds 1–3), this keeps
//! peak RSS at 43.4–44.5 MB where, without it, the same code read
//! 45.7–55.8 MB depending on the seed and on how the process was
//! started. Grad-free scopes do not copy: they free interiors in
//! short-lived frozen forwards, and on the serving path copying raised
//! peak RSS in a trial run.

use crate::error::MgError;
use crate::matrix::Matrix;
use crate::ops::eval_op;
use crate::tape::{bytes_of, Node, Op, Tape, Var};

/// A closed checkpoint segment: tape interval `[start, end)` whose
/// interior values were dropped at scope end.
pub(crate) struct Segment {
    pub start: usize,
    /// One past the last node recorded inside the scope.
    pub end: usize,
    /// Indices of the dropped nodes, ascending (replay order).
    pub dropped: Vec<usize>,
    /// [`fingerprint`] of each dropped value at drop time, parallel
    /// to `dropped`; replay must reproduce these bits exactly.
    pub prints: Vec<u64>,
}

/// Token for an open checkpoint scope. Deliberately not `Copy`/`Clone`:
/// each scope must be consumed by exactly one
/// [`Tape::end_checkpoint`] or [`Tape::abort_checkpoint`].
#[must_use]
pub struct CheckpointScope {
    pub(crate) start: usize,
}

/// Values a [`Tape::checkpoint_scope`] closure keeps live — the segment
/// outputs that downstream ops (and post-scope reads) may touch.
pub trait KeepVars {
    fn keep_vars(&self, out: &mut Vec<Var>);
}

impl KeepVars for Var {
    fn keep_vars(&self, out: &mut Vec<Var>) {
        out.push(*self);
    }
}

impl KeepVars for (Var, Var) {
    fn keep_vars(&self, out: &mut Vec<Var>) {
        out.push(self.0);
        out.push(self.1);
    }
}

impl KeepVars for (Var, Var, Var) {
    fn keep_vars(&self, out: &mut Vec<Var>) {
        out.push(self.0);
        out.push(self.1);
        out.push(self.2);
    }
}

impl KeepVars for Vec<Var> {
    fn keep_vars(&self, out: &mut Vec<Var>) {
        out.extend_from_slice(self);
    }
}

impl<const N: usize> KeepVars for [Var; N] {
    fn keep_vars(&self, out: &mut Vec<Var>) {
        out.extend_from_slice(self);
    }
}

impl KeepVars for Option<Var> {
    fn keep_vars(&self, out: &mut Vec<Var>) {
        if let Some(v) = self {
            out.push(*v);
        }
    }
}

/// FNV-1a's 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A word-wise FNV-1a over the IEEE-754 bit patterns, in four lanes:
/// element `i` goes to lane `i % 4` as one step
/// `l = (l ^ bits).wrapping_mul(FNV_PRIME)`, and the lanes are combined
/// with distinct rotations and the length. For a fixed word each lane
/// step is a bijection (xor, then a multiply by an odd constant), and so
/// is each combining step in both its inputs, so two matrices of one
/// shape that differ in any single element always print differently:
/// any single-bit divergence between forward and replay is caught. The
/// four independent lanes run one multiply per element where byte-wise
/// FNV-1a ran eight dependent ones.
pub(crate) fn fingerprint(m: &Matrix) -> u64 {
    let data = m.data();
    let mut lanes = [FNV_OFFSET; 4];
    let words = data.chunks_exact(4);
    let tail = words.remainder();
    for w in words {
        for (l, x) in lanes.iter_mut().zip(w) {
            *l = (*l ^ x.to_bits()).wrapping_mul(FNV_PRIME);
        }
    }
    for (l, x) in lanes.iter_mut().zip(tail) {
        *l = (*l ^ x.to_bits()).wrapping_mul(FNV_PRIME);
    }
    let mut h = FNV_OFFSET ^ data.len() as u64;
    for (r, l) in lanes.iter().enumerate() {
        h = (h ^ l.rotate_left(16 * r as u32)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Append every input handle of `op` to `out`.
pub(crate) fn op_inputs(op: &Op, out: &mut Vec<Var>) {
    match op {
        Op::Leaf => {}
        Op::Add(a, b)
        | Op::Sub(a, b)
        | Op::MulElem(a, b)
        | Op::AddBias(a, b)
        | Op::MatMul(a, b)
        | Op::MatMulLeakyRelu { a, b, .. }
        | Op::LeakyReluMatMul { a, b, .. } => {
            out.push(*a);
            out.push(*b);
        }
        Op::Scale(a, _)
        | Op::AddScalar(a, _)
        | Op::Transpose(a)
        | Op::Relu(a)
        | Op::LeakyRelu(a, _)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::SoftmaxRows(a)
        | Op::LogSoftmaxRows(a)
        | Op::SumAll(a)
        | Op::MeanAll(a)
        | Op::MeanRows(a)
        | Op::SumRows(a)
        | Op::Exp(a)
        | Op::Ln(a) => out.push(*a),
        Op::Spmm { values, dense, .. } | Op::SpmmT { values, dense, .. } => {
            out.push(*values);
            out.push(*dense);
        }
        Op::SpmmBiasRelu {
            values,
            dense,
            bias,
            ..
        } => {
            out.push(*values);
            out.push(*dense);
            out.push(*bias);
        }
        Op::GatherRows { src, .. }
        | Op::SegmentSum { src, .. }
        | Op::SliceCols { src, .. }
        | Op::MaxRows { src, .. }
        | Op::Dropout { src, .. }
        | Op::Reshape { src, .. }
        | Op::ColNormalize { src, .. } => out.push(*src),
        Op::SegmentSoftmax { scores, .. } => out.push(*scores),
        Op::MulCol { a, col } => {
            out.push(*a);
            out.push(*col);
        }
        Op::ConcatCols(parts) => out.extend_from_slice(parts),
        Op::AddWeightedCols {
            base,
            parts,
            weights,
        } => {
            out.push(*base);
            out.extend_from_slice(parts);
            out.push(*weights);
        }
        Op::NllLoss { logp, .. } => out.push(*logp),
        Op::BcePairs { h, .. } | Op::StudentTKl { h, .. } | Op::PairDot { h, .. } => out.push(*h),
    }
}

impl Tape {
    /// Open a checkpoint scope. Every op recorded until the matching
    /// [`Tape::end_checkpoint`] belongs to the scope; interiors will be
    /// dropped when it closes. Scopes do not nest.
    pub fn begin_checkpoint(&self) -> CheckpointScope {
        assert!(
            self.open_scope.get().is_none(),
            "begin_checkpoint: nested checkpoint scopes are not supported"
        );
        let start = self.nodes.borrow().len();
        self.open_scope.set(Some(start));
        CheckpointScope { start }
    }

    /// Close a checkpoint scope, dropping every interior value — nodes
    /// recorded inside the scope that are neither leaves nor listed in
    /// `keep`. Leaves are never dropped: they are the replay inputs that
    /// cannot be recomputed. A scope with nothing to drop records no
    /// segment, and neither does a grad-free one (no node inside requires
    /// grad): backward never visits its nodes, so nothing can ask for a
    /// replay and its interiors are simply freed (see the module docs).
    pub fn end_checkpoint(&self, scope: CheckpointScope, keep: &[Var]) {
        assert_eq!(
            self.open_scope.get(),
            Some(scope.start),
            "end_checkpoint: scope token does not match the open scope"
        );
        self.open_scope.set(None);
        let start = scope.start;
        let mut nodes = self.nodes.borrow_mut();
        let end = nodes.len();
        let mut kept = vec![false; end - start];
        for v in keep {
            if (start..end).contains(&v.0) {
                kept[v.0 - start] = true;
            }
        }
        let replayable = nodes[start..end].iter().any(|n| n.requires_grad);
        let mut dropped = Vec::new();
        let mut prints = Vec::new();
        let mut freed = 0usize;
        for i in start..end {
            if kept[i - start] || matches!(nodes[i].op, Op::Leaf) {
                continue;
            }
            let value = nodes[i]
                .value
                .take()
                .expect("open-scope values are always materialised");
            freed += bytes_of(&value);
            if replayable {
                prints.push(fingerprint(&value));
                dropped.push(i);
            }
        }
        // Move the kept outputs down into the space just freed (see the
        // module docs' memory model).
        if !dropped.is_empty() {
            for i in (start..end).filter(|&i| kept[i - start]) {
                if let Some(value) = nodes[i].value.take() {
                    nodes[i].value = Some(value.clone());
                }
            }
        }
        drop(nodes);
        self.sub_live_bytes(freed);
        if !dropped.is_empty() {
            let mut segments = self.segments.borrow_mut();
            debug_assert!(
                segments.last().is_none_or(|s| s.end <= start),
                "checkpoint segments must be disjoint and ascending"
            );
            segments.push(Segment {
                start,
                end,
                dropped,
                prints,
            });
        }
    }

    /// Discard an open scope without dropping anything (e.g. on an early
    /// exit from a forward block).
    pub fn abort_checkpoint(&self, scope: CheckpointScope) {
        assert_eq!(
            self.open_scope.get(),
            Some(scope.start),
            "abort_checkpoint: scope token does not match the open scope"
        );
        self.open_scope.set(None);
    }

    /// Run `f` inside a checkpoint scope, keeping exactly the [`Var`]s in
    /// its return value live (see [`KeepVars`] for accepted shapes).
    pub fn checkpoint_scope<R: KeepVars>(&self, f: impl FnOnce() -> R) -> R {
        let scope = self.begin_checkpoint();
        let out = f();
        let mut keep = Vec::new();
        out.keep_vars(&mut keep);
        self.end_checkpoint(scope, &keep);
        out
    }

    /// Materialise everything `backward` needs to process node `idx`: the
    /// node's own value and all of its op inputs. Dropped values pull in
    /// their whole containing segment (segment granularity is the unit of
    /// replay).
    pub(crate) fn ensure_for_backward(
        &self,
        nodes: &mut [Node],
        segments: &[Segment],
        idx: usize,
    ) -> Result<(), MgError> {
        let mut need = vec![Var(idx)];
        op_inputs(&nodes[idx].op, &mut need);
        for v in need {
            if nodes[v.0].value.is_none() {
                let s = segment_containing(segments, v.0)
                    .expect("dropped value outside any checkpoint segment");
                self.materialize_segment(nodes, segments, s)?;
            }
        }
        Ok(())
    }

    /// Replay a segment's dropped ops in recording order, rebuilding each
    /// value and checking it against the fingerprint captured at drop
    /// time. Inputs living in earlier (already re-dropped) segments are
    /// materialised recursively; recursion terminates because segment
    /// starts strictly decrease.
    pub(crate) fn materialize_segment(
        &self,
        nodes: &mut [Node],
        segments: &[Segment],
        s: usize,
    ) -> Result<(), MgError> {
        let seg = &segments[s];
        for (&j, &expected) in seg.dropped.iter().zip(&seg.prints) {
            if nodes[j].value.is_some() {
                continue;
            }
            let mut inputs = Vec::new();
            op_inputs(&nodes[j].op, &mut inputs);
            for v in inputs {
                if nodes[v.0].value.is_none() {
                    let s2 = segment_containing(segments, v.0)
                        .expect("dropped value outside any checkpoint segment");
                    debug_assert!(s2 < s, "op inputs precede their segment");
                    self.materialize_segment(nodes, segments, s2)?;
                }
            }
            let mut value = eval_op(nodes, &nodes[j].op);
            if self.corrupt_replay.get() == Some(j) {
                self.corrupt_replay.set(None);
                if let Some(x) = value.data_mut().first_mut() {
                    *x += 1.0;
                }
            }
            let got = fingerprint(&value);
            if got != expected {
                return Err(MgError::Corrupt {
                    section: "tape-replay",
                    detail: format!(
                        "node {j} replayed to a different value than the forward pass \
                         recorded (fingerprint {got:016x}, expected {expected:016x}); \
                         gradients would be silently wrong"
                    ),
                });
            }
            let bytes = bytes_of(&value);
            self.add_live_bytes(bytes);
            self.replayed_nodes.set(self.replayed_nodes.get() + 1);
            self.replayed_bytes.set(self.replayed_bytes.get() + bytes);
            nodes[j].value = Some(value);
        }
        Ok(())
    }

    /// Drop a segment's interior values again (the backward sweep has
    /// passed below its start, so nothing can need them anymore).
    pub(crate) fn redrop_segment(&self, nodes: &mut [Node], seg: &Segment) {
        let mut freed = 0usize;
        for &j in &seg.dropped {
            if let Some(value) = nodes[j].value.take() {
                freed += bytes_of(&value);
            }
        }
        self.sub_live_bytes(freed);
    }
}

/// Index of the segment whose `[start, end)` interval contains `idx`.
pub(crate) fn segment_containing(segments: &[Segment], idx: usize) -> Option<usize> {
    let p = segments.partition_point(|s| s.end <= idx);
    (p < segments.len() && segments[p].start <= idx).then_some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn scope_drops_interiors_keeps_outputs_and_leaves() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]), true);
        let scope = tape.begin_checkpoint();
        let inner_leaf = tape.constant(Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]));
        let b = tape.add(a, inner_leaf);
        let c = tape.tanh(b);
        tape.end_checkpoint(scope, &[c]);
        assert!(tape.is_materialized(a));
        assert!(tape.is_materialized(inner_leaf), "leaves are never dropped");
        assert!(!tape.is_materialized(b), "interior is dropped");
        assert!(tape.is_materialized(c), "kept output survives");
    }

    #[test]
    fn empty_scope_records_no_segment() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]), true);
        let scope = tape.begin_checkpoint();
        let b = tape.relu(a);
        tape.end_checkpoint(scope, &[b]);
        assert!(tape.segments.borrow().is_empty());
    }

    /// A scope over constants only: `(tape, interior, kept)`, closed.
    fn grad_free_scope() -> (Tape, Var, Var) {
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, -3.0]));
        let scope = tape.begin_checkpoint();
        let b = tape.tanh(x);
        let c = tape.scale(b, 2.0);
        tape.end_checkpoint(scope, &[c]);
        (tape, b, c)
    }

    #[test]
    fn grad_free_scope_frees_interiors_without_a_segment() {
        let (tape, b, c) = grad_free_scope();
        assert!(tape.segments.borrow().is_empty(), "nothing can replay it");
        assert!(!tape.is_materialized(b));
        assert!(tape.is_materialized(c));
        // the leaf and the kept output stay; the interior's bytes are gone
        assert_eq!(tape.live_tape_bytes(), 2 * 4 * 8);
        assert_eq!(tape.peak_tape_bytes(), 3 * 4 * 8);
    }

    /// A grad scope that dropped something leaves its kept outputs in
    /// fresh buffers (bit-exact copies); a grad-free scope leaves them
    /// where they were.
    #[test]
    fn grad_scopes_move_kept_outputs_to_fresh_buffers() {
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, -3.0]));
        let w = tape.leaf(Matrix::from_vec(2, 2, vec![0.3, -0.2, 0.7, 1.1]), true);
        let at = |v: Var| tape.value(v).data().as_ptr();
        for grad in [true, false] {
            let src = if grad { w } else { x };
            let scope = tape.begin_checkpoint();
            let kept = tape.sigmoid(tape.tanh(src));
            let (before, bits) = (at(kept), tape.value_cloned(kept));
            tape.end_checkpoint(scope, &[kept]);
            assert_eq!(at(kept) != before, grad, "grad scope: {grad}");
            assert_eq!(tape.value_cloned(kept), bits);
        }
    }

    #[test]
    #[should_panic(expected = "dropped by a checkpoint scope")]
    fn grad_free_interior_read_panics() {
        let (tape, b, _) = grad_free_scope();
        let _ = tape.value(b);
    }

    /// A grad-free scope (constants only) followed by a grad-requiring
    /// one, scoped or retained: `(tape, loss, w, free interior, rg interior)`.
    fn mixed_scopes(ckpt: bool) -> (Tape, Var, Var, Var, Var) {
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(2, 3, vec![0.3, -1.2, 0.7, 2.0, -0.4, 1.1]));
        let w = tape.leaf(
            Matrix::from_vec(3, 2, vec![0.2, -0.5, 1.3, 0.4, -0.9, 0.6]),
            true,
        );
        let free = ckpt.then(|| tape.begin_checkpoint());
        let t = tape.tanh(x);
        let c = tape.sigmoid(tape.scale(t, 1.5));
        if let Some(scope) = free {
            tape.end_checkpoint(scope, &[c]);
        }
        let rg = ckpt.then(|| tape.begin_checkpoint());
        let p = tape.matmul(c, w);
        let q = tape.tanh(p);
        let r = tape.mul_elem(q, q);
        if let Some(scope) = rg {
            tape.end_checkpoint(scope, &[r]);
        }
        let loss = tape.sum_all(r);
        (tape, loss, w, t, p)
    }

    #[test]
    fn mixed_scopes_replay_only_the_grad_segment() {
        let (retained, loss, w, _, _) = mixed_scopes(false);
        let want = retained.backward(loss).get(w).unwrap().clone();
        let (tape, loss, w, t, p) = mixed_scopes(true);
        {
            let segs = tape.segments.borrow();
            assert_eq!(segs.len(), 1, "only the grad-requiring scope is a segment");
            assert!((segs[0].start..segs[0].end).contains(&p.0));
        }
        // corrupting the grad-free interior's replay changes nothing:
        // that interior is never replayed
        tape.corrupt_next_replay(t);
        let grads = tape
            .try_backward(loss)
            .expect("grad-free scope never replays");
        let got = grads.get(w).unwrap();
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got),
            bits(&want),
            "gradients bitwise equal to retaining"
        );
        assert!(
            !tape.is_materialized(t),
            "backward left the free interior dropped"
        );
        // while the grad-requiring segment does replay, fingerprint-checked
        let (tape, loss, _, _, p) = mixed_scopes(true);
        tape.corrupt_next_replay(p);
        assert!(matches!(
            tape.try_backward(loss),
            Err(MgError::Corrupt { .. })
        ));
    }

    /// Backward rebuilds each dropped value of a grad segment exactly
    /// once, and the replay counters say so; a retaining tape replays
    /// nothing.
    #[test]
    fn replay_counters_count_each_dropped_value_once() {
        let (retained, loss, _, _, _) = mixed_scopes(false);
        let _ = retained.backward(loss);
        assert_eq!(
            (retained.replayed_nodes(), retained.replayed_bytes()),
            (0, 0)
        );
        let (tape, loss, _, _, _) = mixed_scopes(true);
        let (nodes, bytes) = {
            let segs = tape.segments.borrow();
            let nodes = tape.nodes.borrow();
            let dropped = || segs.iter().flat_map(|s| &s.dropped);
            let bytes = dropped().map(|&j| 8 * nodes[j].shape.0 * nodes[j].shape.1);
            (dropped().count(), bytes.sum::<usize>())
        };
        assert!(nodes > 0);
        let _ = tape.backward(loss);
        assert_eq!(
            (tape.replayed_nodes(), tape.replayed_bytes()),
            (nodes, bytes)
        );
    }

    #[test]
    fn abort_leaves_everything_materialised() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]), true);
        let scope = tape.begin_checkpoint();
        let b = tape.relu(a);
        tape.abort_checkpoint(scope);
        assert!(tape.is_materialized(b));
        assert!(tape.segments.borrow().is_empty());
    }

    #[test]
    #[should_panic(expected = "nested checkpoint scopes")]
    fn nested_scopes_panic() {
        let tape = Tape::new();
        let _outer = tape.begin_checkpoint();
        let _inner = tape.begin_checkpoint();
    }

    #[test]
    fn checkpoint_scope_keeps_returned_vars() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(2, 2, vec![1., -2., 3., -4.]), true);
        let (r, s) = tape.checkpoint_scope(|| {
            let r = tape.relu(a);
            let t = tape.scale(r, 2.0);
            let s = tape.sigmoid(t);
            (r, s)
        });
        assert!(tape.is_materialized(r));
        assert!(tape.is_materialized(s));
        let seg = tape.segments.borrow();
        assert_eq!(seg.len(), 1);
        assert_eq!(seg[0].dropped.len(), 1);
    }

    #[test]
    fn fingerprint_is_bit_sensitive() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let mut b = a.clone();
        b.data_mut()[1] = f64::from_bits(2.0f64.to_bits() ^ 1);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    /// Every length 0-9 (each lane's tail): flipping any one bit of any
    /// element changes the print, and so does appending a `0.0`.
    #[test]
    fn fingerprint_catches_every_single_bit_flip_and_an_appended_zero() {
        for n in 0..10 {
            let data: Vec<f64> = (0..n).map(|i| 0.75 - i as f64 * 1.3).collect();
            let base = Matrix::from_vec(1, n, data.clone());
            let print = fingerprint(&base);
            for i in 0..n {
                for bit in 0..64 {
                    let mut flipped = base.clone();
                    let x = &mut flipped.data_mut()[i];
                    *x = f64::from_bits(x.to_bits() ^ (1 << bit));
                    assert_ne!(
                        fingerprint(&flipped),
                        print,
                        "len {n}, element {i}, bit {bit}"
                    );
                }
            }
            let mut longer = data;
            longer.push(0.0);
            assert_ne!(
                fingerprint(&Matrix::from_vec(1, n + 1, longer)),
                print,
                "len {n} + 0.0"
            );
        }
    }

    #[test]
    fn segment_containing_finds_intervals() {
        let segs = vec![
            Segment {
                start: 2,
                end: 5,
                dropped: vec![],
                prints: vec![],
            },
            Segment {
                start: 8,
                end: 10,
                dropped: vec![],
                prints: vec![],
            },
        ];
        assert_eq!(segment_containing(&segs, 0), None);
        assert_eq!(segment_containing(&segs, 3), Some(0));
        assert_eq!(segment_containing(&segs, 5), None);
        assert_eq!(segment_containing(&segs, 9), Some(1));
        assert_eq!(segment_containing(&segs, 10), None);
    }
}

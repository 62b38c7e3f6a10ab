//! Reverse pass over the tape.
//!
//! Nodes are processed in reverse creation order; inputs always precede
//! outputs on the tape, so a single backward sweep suffices. Gradients
//! accumulate into a side table ([`Gradients`]) rather than the nodes
//! themselves.
//!
//! Checkpointed segments (see [`crate::checkpoint`]) are re-materialised
//! lazily: before a node is processed, its own value and its inputs are
//! replayed if a scope dropped them, and a segment's interior is dropped
//! again as soon as the sweep passes below its start — so at any moment
//! at most the segments under the sweep cursor are resident, which is
//! what bounds peak memory.
//!
//! ## What the sweep releases
//!
//! Once the cursor is below node `i`, no backward step reads `i` again:
//! every consumer of `i` has a higher index and has already run. So the
//! sweep releases `i` as it passes it — its value and its op payload
//! (the Student-t kernel, BCE logits, dropout masks, `Rc<Csr>`
//! references), charged back through the live-byte counter. Leaves
//! (parameters and constants) and nodes recorded after the loss keep
//! theirs. A checkpoint segment's nodes, kept outputs included, are
//! released together when the cursor passes below its start, where its
//! interior is re-dropped: until then a replay of the segment may read
//! any of them, and a later replay of an earlier segment reads only
//! nodes below the cursor, which are all still live. A tape is therefore
//! swept once; a second sweep is an [`MgError::InvalidInput`].

use crate::checkpoint::{segment_containing, Segment};
use crate::error::MgError;
use crate::matrix::Matrix;
use crate::ops::{leaky_relu, sigmoid, softmax_rows};
use crate::tape::{Gradients, KlCache, Node, Op, Tape, Var};
use crate::tile::{dispatched, Isa};

impl Tape {
    /// Run reverse-mode differentiation from the scalar `loss` node,
    /// releasing every non-leaf node at or below `loss` on the way (see
    /// the module docs).
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`, if the tape was already swept, or
    /// if a checkpointed segment fails its replay consistency check (use
    /// [`Tape::try_backward`] to handle the last two as typed errors).
    pub fn backward(&self, loss: Var) -> Gradients {
        self.try_backward(loss)
            .unwrap_or_else(|e| panic!("backward: {e}"))
    }

    /// [`Tape::backward`], surfacing checkpoint-replay divergence as
    /// [`MgError::Corrupt`] instead of silently wrong gradients, and a
    /// second sweep over the same tape as [`MgError::InvalidInput`]. On
    /// a retaining tape (no checkpoint scopes) the first sweep never
    /// errors.
    pub fn try_backward(&self, loss: Var) -> Result<Gradients, MgError> {
        assert!(
            self.open_scope.get().is_none(),
            "backward: a checkpoint scope is still open"
        );
        if self.swept.replace(true) {
            return Err(MgError::InvalidInput {
                detail: "this tape was already swept and its forward values released; \
                         record a fresh tape for each backward pass"
                    .into(),
            });
        }
        let mut nodes = self.nodes.borrow_mut();
        let segments = self.segments.borrow();
        assert_eq!(
            nodes[loss.0].shape,
            (1, 1),
            "backward: loss must be a 1x1 scalar"
        );
        let mut grads: Vec<Option<Matrix>> = (0..nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        // Segments with start above the sweep cursor can never be needed
        // again (a node's inputs always precede it): `sweep_past` releases
        // them, and every other node, the moment the cursor is below them.
        let mut live_seg = segments.len();

        for i in (0..=loss.0).rev() {
            self.sweep_past(&mut nodes, &segments, &mut live_seg, i + 1, loss);
            if !nodes[i].requires_grad {
                grads[i] = None;
                continue;
            }
            let Some(g) = grads[i].take() else { continue };
            self.ensure_for_backward(&mut nodes, &segments, i)?;
            let node = &nodes[i];
            let out = node.val();

            // Accumulate `delta` into the gradient of `v` if it needs one.
            macro_rules! acc {
                ($v:expr, $delta:expr) => {{
                    let v: Var = $v;
                    if nodes[v.0].requires_grad {
                        match &mut grads[v.0] {
                            Some(existing) => existing.add_scaled(&$delta, 1.0),
                            slot @ None => *slot = Some($delta),
                        }
                    }
                }};
            }
            // Lazily get-or-create a mutable gradient buffer for `v`.
            macro_rules! buf {
                ($v:expr) => {{
                    let v: Var = $v;
                    grads[v.0].get_or_insert_with(|| {
                        let (r, c) = nodes[v.0].shape;
                        Matrix::zeros(r, c)
                    })
                }};
            }

            match &node.op {
                Op::Leaf => {
                    grads[i] = Some(g);
                    continue;
                }
                Op::Add(a, b) => {
                    acc!(*a, g.clone());
                    acc!(*b, g);
                }
                Op::Sub(a, b) => {
                    acc!(*b, g.map(|x| -x));
                    acc!(*a, g);
                }
                Op::MulElem(a, b) => {
                    if nodes[a.0].requires_grad {
                        acc!(*a, g.zip(nodes[b.0].val(), |gx, bv| gx * bv));
                    }
                    if nodes[b.0].requires_grad {
                        acc!(*b, g.zip(nodes[a.0].val(), |gx, av| gx * av));
                    }
                }
                Op::Scale(a, alpha) => {
                    let alpha = *alpha;
                    acc!(*a, g.map(|x| x * alpha));
                }
                Op::AddScalar(a, _) => {
                    acc!(*a, g);
                }
                Op::AddBias(a, bias) => {
                    if nodes[bias.0].requires_grad {
                        let mut gb = Matrix::zeros(1, g.cols());
                        for r in 0..g.rows() {
                            for (o, &x) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                                *o += x;
                            }
                        }
                        acc!(*bias, gb);
                    }
                    acc!(*a, g);
                }
                Op::MatMul(a, b) => {
                    if nodes[a.0].requires_grad {
                        acc!(*a, g.matmul_nt(nodes[b.0].val()));
                    }
                    if nodes[b.0].requires_grad {
                        acc!(*b, nodes[a.0].val().matmul_tn(&g));
                    }
                }
                Op::MatMulLeakyRelu { a, b, slope } => {
                    // LeakyReLU mask from the output's sign (see
                    // `Tape::matmul_leaky_relu`), then the MatMul backward
                    // on that gradient, as the unfused sweep runs them.
                    let s = *slope;
                    let gz = g.zip(out, |gx, y| if y > 0.0 { gx } else { s * gx });
                    if nodes[a.0].requires_grad {
                        acc!(*a, gz.matmul_nt(nodes[b.0].val()));
                    }
                    if nodes[b.0].requires_grad {
                        acc!(*b, nodes[a.0].val().matmul_tn(&gz));
                    }
                }
                Op::LeakyReluMatMul { a, b, slope } => {
                    // The unfused sweep's order: MatMul's backward (the
                    // `b` side, then the activation's gradient), then
                    // LeakyRelu's mask on it; the activation is rebuilt
                    // from `a` (see `Tape::leaky_relu_matmul`).
                    let (s, av) = (*slope, nodes[a.0].val());
                    if nodes[b.0].requires_grad {
                        acc!(*b, leaky_relu(av, s).matmul_tn(&g));
                    }
                    if nodes[a.0].requires_grad {
                        let gact = g.matmul_nt(nodes[b.0].val());
                        acc!(*a, gact.zip(av, |gx, x| if x > 0.0 { gx } else { s * gx }));
                    }
                }
                Op::Transpose(a) => {
                    acc!(*a, g.transpose());
                }
                Op::Relu(a) => {
                    acc!(
                        *a,
                        g.zip(nodes[a.0].val(), |gx, x| if x > 0.0 { gx } else { 0.0 })
                    );
                }
                Op::LeakyRelu(a, slope) => {
                    let s = *slope;
                    acc!(
                        *a,
                        g.zip(nodes[a.0].val(), |gx, x| if x > 0.0 { gx } else { s * gx })
                    );
                }
                Op::Sigmoid(a) => {
                    acc!(*a, g.zip(out, |gx, y| gx * y * (1.0 - y)));
                }
                Op::Tanh(a) => {
                    acc!(*a, g.zip(out, |gx, y| gx * (1.0 - y * y)));
                }
                Op::SoftmaxRows(a) => {
                    let mut gx = Matrix::zeros(out.rows(), out.cols());
                    for r in 0..out.rows() {
                        let y = out.row(r);
                        let gr = g.row(r);
                        let dot: f64 = y.iter().zip(gr).map(|(&yv, &gv)| yv * gv).sum();
                        for (o, (&yv, &gv)) in gx.row_mut(r).iter_mut().zip(y.iter().zip(gr)) {
                            *o = yv * (gv - dot);
                        }
                    }
                    acc!(*a, gx);
                }
                Op::LogSoftmaxRows(a) => {
                    // d/dx = g - softmax(x) * rowsum(g); softmax(x) = exp(out)
                    let mut gx = Matrix::zeros(out.rows(), out.cols());
                    for r in 0..out.rows() {
                        let gr = g.row(r);
                        let gsum: f64 = gr.iter().sum();
                        for ((o, &lp), &gv) in gx.row_mut(r).iter_mut().zip(out.row(r)).zip(gr) {
                            *o = gv - lp.exp() * gsum;
                        }
                    }
                    acc!(*a, gx);
                }
                Op::Spmm { csr, values, dense } => {
                    let x = nodes[dense.0].val();
                    if nodes[values.0].requires_grad {
                        acc!(*values, csr.spmm_grad_values(&g, x));
                    }
                    if nodes[dense.0].requires_grad {
                        let vals = nodes[values.0].val();
                        // gX = Aᵀ g — under `parallel`, `spmm_t` builds the
                        // transpose cache on the shared `Rc<Csr>` the first
                        // time and reuses it on every later epoch.
                        acc!(*dense, csr.spmm_t(vals.data(), &g));
                    }
                }
                Op::SpmmBiasRelu {
                    csr,
                    values,
                    dense,
                    bias,
                } => {
                    // ReLU mask from the fused output itself: for finite
                    // pre-activations z, `out = max(z + b, 0) > 0` holds
                    // exactly where `z + b > 0`, so no cached
                    // pre-activation is needed. The three gradient
                    // kernels below are the same ones the unfused
                    // relu → add_bias → spmm sweep runs, in the same
                    // order, keeping fused backward bitwise identical.
                    let gz = g.zip(out, |gx, y| if y > 0.0 { gx } else { 0.0 });
                    if nodes[bias.0].requires_grad {
                        let mut gb = Matrix::zeros(1, gz.cols());
                        for r in 0..gz.rows() {
                            for (o, &x) in gb.row_mut(0).iter_mut().zip(gz.row(r)) {
                                *o += x;
                            }
                        }
                        acc!(*bias, gb);
                    }
                    let x = nodes[dense.0].val();
                    if nodes[values.0].requires_grad {
                        acc!(*values, csr.spmm_grad_values(&gz, x));
                    }
                    if nodes[dense.0].requires_grad {
                        let vals = nodes[values.0].val();
                        acc!(*dense, csr.spmm_t(vals.data(), &gz));
                    }
                }
                Op::SpmmT { csr, values, dense } => {
                    let x = nodes[dense.0].val();
                    if nodes[values.0].requires_grad {
                        // out[c,:] += v_k x[r,:]  =>  dv_k = g[c,:].x[r,:]
                        acc!(*values, csr.spmm_t_grad_values(&g, x));
                    }
                    if nodes[dense.0].requires_grad {
                        let vals = nodes[values.0].val();
                        // gX = A g
                        acc!(*dense, csr.spmm(vals.data(), &g));
                    }
                }
                Op::GatherRows { src, idx } => {
                    let gsrc = buf!(*src);
                    for (r, &i_src) in idx.iter().enumerate() {
                        let grow = g.row(r);
                        for (o, &x) in gsrc.row_mut(i_src).iter_mut().zip(grow) {
                            *o += x;
                        }
                    }
                }
                Op::SegmentSum { src, seg, .. } => {
                    let gsrc = buf!(*src);
                    for (r, &s) in seg.iter().enumerate() {
                        let grow = g.row(s);
                        for (o, &x) in gsrc.row_mut(r).iter_mut().zip(grow) {
                            *o += x;
                        }
                    }
                }
                Op::SegmentSoftmax { scores, seg, n_seg } => {
                    // gx_e = y_e (g_e - Σ_{e' in seg} y_e' g_e')
                    let mut dots = vec![0.0f64; *n_seg];
                    for (e, &s) in seg.iter().enumerate() {
                        dots[s] += out[(e, 0)] * g[(e, 0)];
                    }
                    let mut gx = Matrix::zeros(out.rows(), 1);
                    for (e, &s) in seg.iter().enumerate() {
                        gx[(e, 0)] = out[(e, 0)] * (g[(e, 0)] - dots[s]);
                    }
                    acc!(*scores, gx);
                }
                Op::PairDot { h, src, dst } => {
                    // The unfused chain row_dot(gather(h, src), gather(h, dst))
                    // swept the `dst` gather before the `src` gather, each
                    // adding into h's buffer in ascending pair order: row
                    // `dst_p` gets `g_p · h[src_p]`, then row `src_p` gets
                    // `g_p · h[dst_p]`. Two passes in that order keep the bits.
                    let hv = nodes[h.0].val();
                    let gh = buf!(*h);
                    for (to, from) in [(dst, src), (src, dst)] {
                        for (p, (&t, &f)) in to.iter().zip(from.iter()).enumerate() {
                            let gp = g[(p, 0)];
                            for (o, &x) in gh.row_mut(t).iter_mut().zip(hv.row(f)) {
                                *o += gp * x;
                            }
                        }
                    }
                }
                Op::MulCol { a, col } => {
                    let (av, cv) = (nodes[a.0].val(), nodes[col.0].val());
                    if nodes[a.0].requires_grad {
                        let mut ga = Matrix::zeros(av.rows(), av.cols());
                        for r in 0..av.rows() {
                            let c = cv[(r, 0)];
                            for (o, &x) in ga.row_mut(r).iter_mut().zip(g.row(r)) {
                                *o = c * x;
                            }
                        }
                        acc!(*a, ga);
                    }
                    if nodes[col.0].requires_grad {
                        let mut gc = Matrix::zeros(cv.rows(), 1);
                        for r in 0..av.rows() {
                            gc[(r, 0)] =
                                g.row(r).iter().zip(av.row(r)).map(|(&gx, &x)| gx * x).sum();
                        }
                        acc!(*col, gc);
                    }
                }
                Op::AddWeightedCols {
                    base,
                    parts,
                    weights,
                } => {
                    // The unfused chain's sweep, last part first: part k's
                    // MulCol gives `parts[k]` its gradient and its SliceCols
                    // adds column k of β's (zeros elsewhere) into β's
                    // buffer; the first Add hands `g` to `base` just before
                    // part 0's turn.
                    let wv = nodes[weights.0].val();
                    for (k, &p) in parts.iter().enumerate().rev() {
                        if k == 0 {
                            acc!(*base, g.clone());
                        }
                        if nodes[p.0].requires_grad {
                            let mut gp = Matrix::zeros(g.rows(), g.cols());
                            for r in 0..g.rows() {
                                let c = wv[(r, k)];
                                for (o, &x) in gp.row_mut(r).iter_mut().zip(g.row(r)) {
                                    *o = c * x;
                                }
                            }
                            acc!(p, gp);
                        }
                        if nodes[weights.0].requires_grad {
                            let pv = nodes[p.0].val();
                            let mut gw = Matrix::zeros(wv.rows(), wv.cols());
                            for r in 0..g.rows() {
                                gw[(r, k)] =
                                    g.row(r).iter().zip(pv.row(r)).map(|(&gx, &x)| gx * x).sum();
                            }
                            acc!(*weights, gw);
                        }
                    }
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for v in parts {
                        let w = nodes[v.0].shape.1;
                        if nodes[v.0].requires_grad {
                            let part = Matrix::from_fn(g.rows(), w, |r, c| g[(r, off + c)]);
                            acc!(*v, part);
                        }
                        off += w;
                    }
                }
                Op::SliceCols { src, start, end } => {
                    let (rows, cols) = nodes[src.0].shape;
                    let mut gs = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        for c in *start..*end {
                            gs[(r, c)] = g[(r, c - start)];
                        }
                    }
                    acc!(*src, gs);
                }
                Op::SumAll(a) => {
                    let gs = g.scalar();
                    let (r, c) = nodes[a.0].shape;
                    acc!(*a, Matrix::full(r, c, gs));
                }
                Op::MeanAll(a) => {
                    let (r, c) = nodes[a.0].shape;
                    let gs = g.scalar() / (r * c) as f64;
                    acc!(*a, Matrix::full(r, c, gs));
                }
                Op::MeanRows(a) => {
                    let (r, c) = nodes[a.0].shape;
                    let inv = 1.0 / r as f64;
                    acc!(*a, Matrix::from_fn(r, c, |_, j| g[(0, j)] * inv));
                }
                Op::SumRows(a) => {
                    let (r, c) = nodes[a.0].shape;
                    acc!(*a, Matrix::from_fn(r, c, |_, j| g[(0, j)]));
                }
                Op::MaxRows { src, argmax } => {
                    let (r, c) = nodes[src.0].shape;
                    let mut gs = Matrix::zeros(r, c);
                    for (j, &arg) in argmax.iter().enumerate() {
                        gs[(arg, j)] = g[(0, j)];
                    }
                    acc!(*src, gs);
                }
                Op::NllLoss {
                    logp,
                    targets,
                    nodes: node_set,
                } => {
                    let gs = g.scalar() / node_set.len() as f64;
                    let (r, c) = nodes[logp.0].shape;
                    let mut gl = Matrix::zeros(r, c);
                    for &row in node_set.iter() {
                        gl[(row, targets[row])] -= gs;
                    }
                    acc!(*logp, gl);
                }
                Op::BcePairs {
                    h,
                    pairs,
                    labels,
                    cache,
                } => {
                    let hv = nodes[h.0].val();
                    let gs = g.scalar() / pairs.len() as f64;
                    let mut gh = Matrix::zeros(hv.rows(), hv.cols());
                    for ((&(pi, pj), &y), &z) in
                        pairs.iter().zip(labels.iter()).zip(cache.logits.iter())
                    {
                        let dz = (sigmoid(z) - y) * gs;
                        for (o, &x) in gh.row_mut(pi).iter_mut().zip(hv.row(pj)) {
                            *o += dz * x;
                        }
                        for (o, &x) in gh.row_mut(pj).iter_mut().zip(hv.row(pi)) {
                            *o += dz * x;
                        }
                    }
                    acc!(*h, gh);
                }
                Op::StudentTKl {
                    h,
                    egos,
                    cache,
                    target,
                } => {
                    let gs = g.scalar() / nodes[h.0].shape.0 as f64;
                    acc!(
                        *h,
                        student_t_kl_grad(nodes[h.0].val(), egos, cache, target.as_deref(), gs)
                    );
                }
                Op::Exp(a) => {
                    // d exp(x) = exp(x) dx; out already holds exp(x)
                    acc!(*a, g.zip(out, |gx, y| gx * y));
                }
                Op::Ln(a) => {
                    acc!(*a, g.zip(nodes[a.0].val(), |gx, x| gx / x));
                }
                Op::ColNormalize { src, inv_std } => {
                    // y = (x - mu) * inv_std; with batch statistics:
                    // dx_ij = inv_std_j * (g_ij - mean_i(g_.j) - y_ij * mean_i(g_.j * y_.j))
                    let (n, d) = out.shape();
                    let mut g_mean = vec![0.0f64; d];
                    let mut gy_mean = vec![0.0f64; d];
                    for i in 0..n {
                        for j in 0..d {
                            g_mean[j] += g[(i, j)];
                            gy_mean[j] += g[(i, j)] * out[(i, j)];
                        }
                    }
                    for j in 0..d {
                        g_mean[j] /= n as f64;
                        gy_mean[j] /= n as f64;
                    }
                    let gx = Matrix::from_fn(n, d, |i, j| {
                        inv_std[j] * (g[(i, j)] - g_mean[j] - out[(i, j)] * gy_mean[j])
                    });
                    acc!(*src, gx);
                }
                Op::Reshape { src, .. } => {
                    let (r, c) = nodes[src.0].shape;
                    acc!(*src, Matrix::from_vec(r, c, g.data().to_vec()));
                }
                Op::Dropout { src, mask } => {
                    let mut gsrc = g.clone();
                    for (o, &m) in gsrc.data_mut().iter_mut().zip(mask.iter()) {
                        *o *= m;
                    }
                    acc!(*src, gsrc);
                }
            }
            // Intermediate gradients are dropped once consumed to bound memory.
        }
        self.sweep_past(&mut nodes, &segments, &mut live_seg, 0, loss);
        debug_assert!(
            nodes.iter().enumerate().all(|(i, n)| if i <= loss.0 {
                matches!(n.op, Op::Leaf)
            } else {
                n.value.is_some() || segment_containing(&segments, i).is_some()
            }),
            "the sweep releases every non-leaf node up to the loss; above it, \
             every dropped value belongs to a segment"
        );
        debug_assert_eq!(
            self.live_bytes.get(),
            nodes.iter().map(Node::held_bytes).sum::<usize>(),
            "live bytes are exactly the values and payloads left on the tape"
        );
        Ok(Gradients { grads })
    }

    /// Release what the cursor has just moved below, node `passed`: the
    /// node itself unless a segment still holds it, then every segment
    /// starting at or above it — its interior re-dropped, and its nodes up
    /// to `loss` released together. `live_seg` counts the segments not yet
    /// passed; the nodes of those it leaves all lie below `passed`.
    fn sweep_past(
        &self,
        nodes: &mut [Node],
        segments: &[Segment],
        live_seg: &mut usize,
        passed: usize,
        loss: Var,
    ) {
        let in_segment = *live_seg > 0 && passed < segments[*live_seg - 1].end;
        if passed <= loss.0 && !in_segment {
            self.sub_live_bytes(nodes[passed].release());
        }
        while *live_seg > 0 && segments[*live_seg - 1].start >= passed {
            let seg = &segments[*live_seg - 1];
            self.redrop_segment(nodes, seg);
            let upto = seg.end.min(loss.0 + 1);
            for node in nodes.get_mut(seg.start..upto).unwrap_or_default() {
                self.sub_live_bytes(node.release());
            }
            *live_seg -= 1;
        }
    }
}

/// `dL/dh` of the Student-t KL loss with `P` detached, scaled by `gs`
/// (the upstream gradient over `n`, the loss being a mean over nodes).
///
/// Rows of `Q` and `P` are streamed from the cached
/// [`KlStats`](crate::ops::KlStats), never stored. Each element of the
/// result accumulates in the (j, c, k) order of the plain triple loop
/// (see [`kl_grad_body`]).
fn student_t_kl_grad(
    hv: &Matrix,
    egos: &[usize],
    cache: &KlCache,
    target: Option<&Matrix>,
    gs: f64,
) -> Matrix {
    mg_runtime::timed("student_t_kl_grad", || {
        let mut gh = Matrix::zeros(hv.rows(), hv.cols());
        kl_grad(Isa::detect(), hv, egos, cache, target, gs, &mut gh);
        gh
    })
}

/// [`student_t_kl_grad`] into the zeroed `gh`.
///
/// A row `j` that is not an ego takes only its own `+=` terms, in
/// ascending `c`, and gives one `-=` term to each ego row. So when no
/// ego repeats, up to four consecutive non-ego rows run as one pass
/// ([`kl_grad_rows`]): `c` outer, the rows in order inside, so every ego
/// row still takes its terms in ascending `j`, and each ego row is
/// loaded and stored once per pass instead of once per row. Ego rows,
/// which also take `-=` terms from themselves and from every other row,
/// run one at a time on the scalar path ([`kl_grad_ego_row`]); when an
/// ego repeats, every row runs alone.
#[inline(always)]
fn kl_grad_body(
    hv: &Matrix,
    egos: &[usize],
    cache: &KlCache,
    target: Option<&Matrix>,
    gs: f64,
    gh: &mut Matrix,
) {
    let n = hv.rows();
    let m = egos.len();
    let mut is_ego = vec![false; n];
    let mut repeats = false;
    for &e in egos {
        repeats |= std::mem::replace(&mut is_ego[e], true);
    }
    let (mut q, mut self_p) = (vec![0.0f64; m], vec![0.0f64; m]);
    // coefficients of up to four rows, `coefs[c * 4 + r]`
    let mut coefs = vec![None; 4 * m];
    let mut j = 0;
    while j < n {
        let rows = if is_ego[j] || repeats {
            1
        } else {
            is_ego[j..n.min(j + 4)]
                .iter()
                .position(|&e| e)
                .unwrap_or(n.min(j + 4) - j)
        };
        for r in 0..rows {
            let p = cache
                .stats
                .rows(&cache.t, j + r, target, &mut q, &mut self_p);
            let t_row_sum = cache.stats.row_sum(j + r);
            for (c, slot) in coefs.iter_mut().skip(r).step_by(4).enumerate() {
                // dL/dt_jc with P detached:
                //   (1/T_j) (1 - p/q) -- scaled by gs (mean over n)
                let qv = q[c];
                *slot = (qv > 0.0).then(|| {
                    let dl_dt = gs * (1.0 - p[c] / qv) / t_row_sum;
                    let tv = cache.t[(j + r, c)];
                    dl_dt * (-tv * tv) * 2.0
                });
            }
        }
        match rows {
            _ if is_ego[j] => kl_grad_ego_row(hv, egos, j, &coefs, gh),
            4 => kl_grad_rows::<4>(hv, egos, j, &coefs, gh),
            3 => kl_grad_rows::<3>(hv, egos, j, &coefs, gh),
            2 => kl_grad_rows::<2>(hv, egos, j, &coefs, gh),
            _ => kl_grad_rows::<1>(hv, egos, j, &coefs, gh),
        }
        j += rows;
    }
}

dispatched!(kl_grad => kl_grad_body(
    hv: &Matrix,
    egos: &[usize],
    cache: &KlCache,
    target: Option<&Matrix>,
    gs: f64,
    gh: &mut Matrix,
));

/// Ego row `j`'s terms, `coefs[c * 4]` for ego `c` (`None` skips it), in
/// ascending `c`: rows `j` and `e` are updated as two disjoint slices,
/// and the `e == j` terms keep the scalar loop so
/// `gh_j += c·0; gh_j -= c·0` runs in its original order.
#[inline(always)]
fn kl_grad_ego_row(hv: &Matrix, egos: &[usize], j: usize, coefs: &[Option<f64>], gh: &mut Matrix) {
    let d = hv.cols();
    for (&e, coef) in egos.iter().zip(coefs.iter().step_by(4)) {
        let Some(coef) = *coef else { continue };
        let rows = [j * d..(j + 1) * d, e * d..(e + 1) * d];
        if let Ok([gj, ge]) = gh.data_mut().get_disjoint_mut(rows) {
            kl_term(coef, hv.row(j), hv.row(e), gj, ge);
        } else {
            // e == j
            for k in 0..d {
                let diff = hv[(j, k)] - hv[(e, k)];
                gh[(j, k)] += coef * diff;
                gh[(e, k)] -= coef * diff;
            }
        }
    }
}

/// The terms of the `R` non-ego rows `j..j + R`, with `coefs[c * 4 + r]`
/// for row `j + r` and ego `c` (`None` skips the term): for each ego in
/// ascending `c`, then each `k`, the rows' `+=` terms and the ego row's
/// `-=` terms in ascending row order, the ego element held in a register
/// across the rows. Each element takes the same terms in the same order
/// as `R` one-row passes.
#[inline(always)]
fn kl_grad_rows<const R: usize>(
    hv: &Matrix,
    egos: &[usize],
    j: usize,
    coefs: &[Option<f64>],
    gh: &mut Matrix,
) {
    let d = hv.cols();
    let h: [&[f64]; R] = std::array::from_fn(|r| &hv.row(j + r)[..d]);
    for (&e, cs) in egos.iter().zip(coefs.chunks_exact(4)) {
        let he = &hv.row(e)[..d];
        let slices = [j * d..(j + R) * d, e * d..(e + 1) * d];
        let [block, ge] = gh
            .data_mut()
            .get_disjoint_mut(slices)
            .expect("a pass holds no ego row");
        let ge = &mut ge[..d];
        let mut block = block.chunks_exact_mut(d);
        let g: [&mut [f64]; R] = std::array::from_fn(|_| block.next().unwrap());
        if cs[..R].iter().all(Option::is_some) {
            let cs: [f64; R] = std::array::from_fn(|r| cs[r].unwrap());
            for k in 0..d {
                let b = he[k];
                let mut oe = ge[k];
                for r in 0..R {
                    let diff = h[r][k] - b;
                    g[r][k] += cs[r] * diff;
                    oe -= cs[r] * diff;
                }
                ge[k] = oe;
            }
        } else {
            for ((&hj, gj), coef) in h.iter().zip(g).zip(cs) {
                if let Some(coef) = *coef {
                    kl_term(coef, hj, he, gj, ge);
                }
            }
        }
    }
}

/// One (j, c) term over `k`: `g_j += coef·(h_j - h_e)` and
/// `g_e -= coef·(h_j - h_e)`. Separate slice arguments tell the compiler
/// the rows do not overlap, so the loop vectorizes without alias checks.
#[inline(always)]
fn kl_term(coef: f64, hj: &[f64], he: &[f64], gj: &mut [f64], ge: &mut [f64]) {
    for (((oj, oe), &a), &b) in gj.iter_mut().zip(ge).zip(hj).zip(he) {
        let diff = a - b;
        *oj += coef * diff;
        *oe -= coef * diff;
    }
}

/// Numerically stable softmax re-export used by the backward pass tests.
#[allow(dead_code)]
pub(crate) fn softmax_reference(m: &Matrix) -> Matrix {
    softmax_rows(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use std::rc::Rc;

    /// `loss = sum(tanh(spmm(x) · w))`, then one node recorded after it:
    /// `(tape, w, interiors, loss, after, csr)`.
    fn swept_once() -> (Tape, Var, [Var; 2], Var, Var, Rc<Csr>) {
        let tape = Tape::new();
        let csr = Rc::new(Csr::from_coo(2, 2, &[(0, 1), (1, 0)]));
        let vals = tape.constant(Matrix::from_vec(1, 2, vec![0.5, -1.0]));
        let x = tape.constant(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let w = tape.leaf(Matrix::from_vec(2, 1, vec![0.3, -0.2]), true);
        let ax = tape.spmm(csr.clone(), vals, x);
        let t = tape.tanh(tape.matmul(ax, w));
        let loss = tape.sum_all(t);
        let after = tape.scale(t, 2.0);
        (tape, w, [ax, t], loss, after, csr)
    }

    #[test]
    fn sweep_releases_values_and_payloads_below_the_loss() {
        let (tape, w, interiors, loss, after, csr) = swept_once();
        assert_eq!(Rc::strong_count(&csr), 2, "the spmm op holds the pattern");
        let grads = tape.backward(loss);
        assert!(grads.get(w).is_some());
        for v in interiors.into_iter().chain([loss]) {
            assert!(!tape.is_materialized(v));
        }
        assert_eq!(Rc::strong_count(&csr), 1, "the op payload was dropped");
        // the leaves (2 + 4 + 2 values) and the node after the loss stay
        assert!(tape.is_materialized(w) && tape.is_materialized(after));
        assert_eq!(tape.live_tape_bytes(), (8 + 2) * 8);
        assert_eq!(tape.value(after).data().len(), 2);
    }

    #[test]
    #[should_panic(expected = "released by backward")]
    fn reading_a_released_value_panics_naming_backward() {
        let (tape, _, [_, t], loss, _, _) = swept_once();
        let _ = tape.backward(loss);
        let _ = tape.value_cloned(t);
    }

    #[test]
    fn a_second_sweep_is_invalid_input() {
        let (tape, _, _, loss, _, _) = swept_once();
        let _ = tape.backward(loss);
        let err = tape.try_backward(loss).err().expect("second sweep refused");
        assert!(
            matches!(&err, MgError::InvalidInput { detail } if detail.contains("already swept")),
            "{err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "already swept")]
    fn a_second_backward_panics() {
        let (tape, _, _, loss, _, _) = swept_once();
        let _ = tape.backward(loss);
        let _ = tape.backward(loss);
    }

    /// A segment's top nodes that backward never visits (no gradient
    /// reaches them) are passed before the segment is first replayed,
    /// from below them: the sweep must keep segment nodes until it is
    /// below the segment's start, or that replay would meet released ops.
    #[test]
    fn a_segment_is_released_only_below_its_start() {
        let run = |ckpt: bool| {
            let tape = Tape::new();
            let x = tape.leaf(Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]), true);
            let c = tape.constant(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
            let scope = ckpt.then(|| tape.begin_checkpoint());
            let a = tape.tanh(x);
            let b = tape.mul_elem(a, a);
            let _unused = tape.sigmoid(tape.scale(a, 3.0));
            let _constant = tape.tanh(c);
            if let Some(scope) = scope {
                tape.end_checkpoint(scope, &[b]);
            }
            let loss = tape.sum_all(b);
            let g = tape.backward(loss).get(x).unwrap().clone();
            (g, tape.live_tape_bytes())
        };
        assert_eq!(run(true), run(false));
    }

    /// A segment holding the loss itself: its nodes up to the loss are
    /// released with it, and its kept output after the loss survives.
    #[test]
    fn a_segment_straddling_the_loss_keeps_what_follows_it() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]), true);
        let scope = tape.begin_checkpoint();
        let a = tape.tanh(x);
        let b = tape.mul_elem(a, a);
        let loss = tape.sum_all(b);
        let c = tape.relu(a);
        tape.end_checkpoint(scope, &[loss, c]);
        let want = {
            let tape = Tape::new();
            let x = tape.leaf(Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]), true);
            let a = tape.tanh(x);
            let loss = tape.sum_all(tape.mul_elem(a, a));
            tape.backward(loss).get(x).unwrap().clone()
        };
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap(), &want);
        for v in [a, b, loss] {
            assert!(!tape.is_materialized(v));
        }
        assert!(tape.is_materialized(c));
        assert_eq!(tape.live_tape_bytes(), 2 * 3 * 8, "x and c");
    }
}

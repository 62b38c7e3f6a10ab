//! Forward op constructors on [`Tape`] and the shared op evaluator.
//!
//! Every constructor validates shapes and builds whatever payload the op
//! needs (dropout masks, argmax rows, cached logits/kernels), then
//! records the op; the actual value is computed by [`eval_op`] — the
//! *same* function checkpoint replay calls in `backward`. Sharing one
//! evaluator is what makes recompute-on-backward bitwise identical to
//! the retaining tape by construction: replay runs the same code on the
//! same inputs, and every data-dependent or stochastic choice is frozen
//! into the payload at record time.
//!
//! Shape assertions live in [`eval_op`] so shape bugs fail loudly at the
//! call site (and again, identically, on replay), not three ops later.

use std::ops::Range;
use std::rc::Rc;

use crate::csr::Csr;
use crate::matrix::Matrix;
use crate::par;
use crate::tape::{BceCache, KlCache, Node, Op, Tape, Var};
use crate::tile::{dispatched, fill, squared_diff, ByDepth, ByRow, Isa};

impl Tape {
    /// Evaluate `op` against the current tape and record the result.
    fn record(&self, op: Op, requires_grad: bool) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            eval_op(&nodes, &op)
        };
        self.push(value, op, requires_grad)
    }

    /// Elementwise sum `a + b`.
    pub fn add(&self, a: Var, b: Var) -> Var {
        self.record(Op::Add(a, b), self.rg2(a, b))
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        self.record(Op::Sub(a, b), self.rg2(a, b))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul_elem(&self, a: Var, b: Var) -> Var {
        self.record(Op::MulElem(a, b), self.rg2(a, b))
    }

    /// Multiply by a compile-time constant scalar.
    pub fn scale(&self, a: Var, alpha: f64) -> Var {
        self.record(Op::Scale(a, alpha), self.rg(a))
    }

    /// Add a constant scalar to every element.
    pub fn add_scalar(&self, a: Var, c: f64) -> Var {
        self.record(Op::AddScalar(a, c), self.rg(a))
    }

    /// Broadcast-add a `1 x d` bias row to every row of `a (n x d)`.
    pub fn add_bias(&self, a: Var, bias: Var) -> Var {
        self.record(Op::AddBias(a, bias), self.rg2(a, bias))
    }

    /// Dense matrix product.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        self.record(Op::MatMul(a, b), self.rg2(a, b))
    }

    /// Fused `leaky_relu(a * b, slope)`: the product goes through the
    /// same [`Matrix::matmul`] dispatch and the activation applies the
    /// same per-element expression as the unfused
    /// `leaky_relu(matmul(a, b))` chain, and the backward runs the same
    /// gradient kernels in the same order, so fusing is bitwise
    /// invisible. Only the activated output stays on the tape.
    ///
    /// # Panics
    /// Panics if `slope < 0`: the backward reads the activation's sign
    /// from the output, which a negative slope would flip.
    pub fn matmul_leaky_relu(&self, a: Var, b: Var, slope: f64) -> Var {
        assert!(slope >= 0.0, "matmul_leaky_relu: slope must be >= 0");
        self.record(Op::MatMulLeakyRelu { a, b, slope }, self.rg2(a, b))
    }

    /// Fused `leaky_relu(a, slope) * b`, the mirror of
    /// [`Tape::matmul_leaky_relu`]: the activation applies the same
    /// per-element expression and the product goes through the same
    /// [`Matrix::matmul`] dispatch as the unfused
    /// `matmul(leaky_relu(a, slope), b)` chain, and the backward runs the
    /// same gradient kernels in the same order, so fusing is bitwise
    /// invisible. Only the product stays on the tape; the activated `a`
    /// (for an attention's one-column projection, `d` times larger) is
    /// rebuilt wherever it is read.
    pub fn leaky_relu_matmul(&self, a: Var, b: Var, slope: f64) -> Var {
        self.record(Op::LeakyReluMatMul { a, b, slope }, self.rg2(a, b))
    }

    /// Materialised transpose.
    pub fn transpose(&self, a: Var) -> Var {
        self.record(Op::Transpose(a), self.rg(a))
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        self.record(Op::Relu(a), self.rg(a))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&self, a: Var, slope: f64) -> Var {
        self.record(Op::LeakyRelu(a, slope), self.rg(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        self.record(Op::Sigmoid(a), self.rg(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        self.record(Op::Tanh(a), self.rg(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self, a: Var) -> Var {
        self.record(Op::SoftmaxRows(a), self.rg(a))
    }

    /// Row-wise log-softmax (numerically stable).
    pub fn log_softmax_rows(&self, a: Var) -> Var {
        self.record(Op::LogSoftmaxRows(a), self.rg(a))
    }

    /// Sparse-dense product `csr(values) * dense`.
    ///
    /// `values` must be a `1 x nnz` variable; gradients reach both the
    /// sparse values and the dense operand.
    pub fn spmm(&self, csr: Rc<Csr>, values: Var, dense: Var) -> Var {
        let rg = self.rg2(values, dense);
        self.record(Op::Spmm { csr, values, dense }, rg)
    }

    /// Fused `relu(csr(values) * dense + bias)` — the GCN layer's
    /// spmm → add_bias → relu chain as a single kernel, skipping the two
    /// intermediate tape nodes. Element-for-element the forward applies
    /// the same operations in the same order as the unfused chain, and
    /// the backward composes the same three gradient kernels, so fusing
    /// is bitwise invisible to training traces. `bias` must be `1 x d`.
    pub fn spmm_bias_relu(&self, csr: Rc<Csr>, values: Var, dense: Var, bias: Var) -> Var {
        let rg = self.rg3(values, dense, bias);
        self.record(
            Op::SpmmBiasRelu {
                csr,
                values,
                dense,
                bias,
            },
            rg,
        )
    }

    /// Sparse-dense product with the structural transpose: `csr(values)ᵀ * dense`.
    pub fn spmm_t(&self, csr: Rc<Csr>, values: Var, dense: Var) -> Var {
        let rg = self.rg2(values, dense);
        self.record(Op::SpmmT { csr, values, dense }, rg)
    }

    /// Select rows by index (with repetition allowed).
    pub fn gather_rows(&self, src: Var, idx: Rc<Vec<usize>>) -> Var {
        self.record(Op::GatherRows { src, idx }, self.rg(src))
    }

    /// Sum rows of `src` into `n_seg` buckets given per-row segment ids.
    pub fn segment_sum(&self, src: Var, seg: Rc<Vec<usize>>, n_seg: usize) -> Var {
        self.record(Op::SegmentSum { src, seg, n_seg }, self.rg(src))
    }

    /// Softmax over entries sharing a segment id. `scores` is `n_e x 1`.
    ///
    /// Segments need not be contiguous. Empty segments are fine.
    pub fn segment_softmax(&self, scores: Var, seg: Rc<Vec<usize>>, n_seg: usize) -> Var {
        let rg = self.rg(scores);
        self.record(Op::SegmentSoftmax { scores, seg, n_seg }, rg)
    }

    /// Per-pair dot product `out[p] = h[src[p],:] . h[dst[p],:]`, yielding
    /// `P x 1`. Equal, to the bit and in every gradient, to
    /// `row_dot(gather_rows(h, src), gather_rows(h, dst))`, without the
    /// two `P x d` gathered copies on the tape.
    pub fn pair_dot(&self, h: Var, src: Rc<Vec<usize>>, dst: Rc<Vec<usize>>) -> Var {
        self.record(Op::PairDot { h, src, dst }, self.rg(h))
    }

    /// Scale row `i` of `a` by `col[i]` (`col` is `n x 1`).
    pub fn mul_col(&self, a: Var, col: Var) -> Var {
        self.record(Op::MulCol { a, col }, self.rg2(a, col))
    }

    /// Fused `base + Σ_k mul_col(parts[k], slice_cols(weights, k, k + 1))`,
    /// summed left to right — AdamGNN's flyback aggregation (Eq. 4), with
    /// `weights` the `n x K` attention β. Forward and backward are bitwise
    /// the unfused chain's: each element adds the same products in the same
    /// order, and the backward accumulates into each input in the order the
    /// chain's sweep would, column slices of β's gradient included. Only the
    /// sum stays on the tape.
    pub fn add_weighted_cols(&self, base: Var, parts: &[Var], weights: Var) -> Var {
        assert!(!parts.is_empty(), "add_weighted_cols: no parts");
        let rg = self.rg2(base, weights) || parts.iter().any(|&p| self.rg(p));
        let parts = parts.to_vec();
        self.record(
            Op::AddWeightedCols {
                base,
                parts,
                weights,
            },
            rg,
        )
    }

    /// Concatenate matrices along columns (all must share row count).
    pub fn concat_cols(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: no inputs");
        let rg = parts.iter().any(|&v| self.rg(v));
        self.record(Op::ConcatCols(parts.to_vec()), rg)
    }

    /// Take the column slice `[start, end)`.
    pub fn slice_cols(&self, src: Var, start: usize, end: usize) -> Var {
        self.record(Op::SliceCols { src, start, end }, self.rg(src))
    }

    /// Sum of all elements, as a `1 x 1` matrix.
    pub fn sum_all(&self, a: Var) -> Var {
        self.record(Op::SumAll(a), self.rg(a))
    }

    /// Mean of all elements, as a `1 x 1` matrix.
    pub fn mean_all(&self, a: Var) -> Var {
        self.record(Op::MeanAll(a), self.rg(a))
    }

    /// Column-wise mean over rows: `n x d -> 1 x d`.
    pub fn mean_rows(&self, a: Var) -> Var {
        self.record(Op::MeanRows(a), self.rg(a))
    }

    /// Column-wise sum over rows: `n x d -> 1 x d`.
    pub fn sum_rows(&self, a: Var) -> Var {
        self.record(Op::SumRows(a), self.rg(a))
    }

    /// Column-wise max over rows: `n x d -> 1 x d` (subgradient to argmax row).
    pub fn max_rows(&self, a: Var) -> Var {
        let argmax = {
            let nodes = self.nodes.borrow();
            let av = nodes[a.0].val();
            assert!(av.rows() > 0, "max_rows of empty matrix");
            let mut best = vec![f64::NEG_INFINITY; av.cols()];
            let mut argmax = vec![0usize; av.cols()];
            for i in 0..av.rows() {
                for (j, &x) in av.row(i).iter().enumerate() {
                    if x > best[j] {
                        best[j] = x;
                        argmax[j] = i;
                    }
                }
            }
            argmax
        };
        self.record(
            Op::MaxRows {
                src: a,
                argmax: Rc::new(argmax),
            },
            self.rg(a),
        )
    }

    /// Mean negative log-likelihood over the node subset `nodes`:
    /// `-(1/|nodes|) Σ_{i∈nodes} logp[i, targets[i]]`.
    ///
    /// `targets` is indexed by absolute row, so it must cover every row
    /// mentioned in `nodes`.
    pub fn nll_loss(&self, logp: Var, targets: Rc<Vec<usize>>, nodes: Rc<Vec<usize>>) -> Var {
        let rg = self.rg(logp);
        self.record(
            Op::NllLoss {
                logp,
                targets,
                nodes,
            },
            rg,
        )
    }

    /// Mean BCE-with-logits over inner-product pair scores
    /// `z_k = h[i_k,:] . h[j_k,:]` with binary labels.
    ///
    /// This implements both the link-prediction decoder and AdamGNN's
    /// negative-sampled reconstruction loss (Eq. 6).
    pub fn bce_pairs(&self, h: Var, pairs: Rc<Vec<(usize, usize)>>, labels: Rc<Vec<f64>>) -> Var {
        assert_eq!(pairs.len(), labels.len(), "bce_pairs: length mismatch");
        assert!(!pairs.is_empty(), "bce_pairs: empty pair set");
        let logits = {
            let nodes = self.nodes.borrow();
            let hv = nodes[h.0].val();
            pairs
                .iter()
                .map(|&(i, j)| hv.row_dot(i, hv, j))
                .collect::<Vec<f64>>()
        };
        let rg = self.rg(h);
        self.record(
            Op::BcePairs {
                h,
                pairs,
                labels,
                cache: Rc::new(BceCache { logits }),
            },
            rg,
        )
    }

    /// DEC-style Student-t KL clustering loss (AdamGNN Eq. 5), mean over
    /// nodes. `egos` are the row indices acting as cluster centres; the
    /// target distribution `P` is treated as constant (standard DEC).
    pub fn student_t_kl(&self, h: Var, egos: Rc<Vec<usize>>) -> Var {
        self.student_t_kl_inner(h, egos, None)
    }

    /// [`Tape::student_t_kl`] with an explicit constant target `P`
    /// instead of the self-derived one.
    ///
    /// The production loss computes `P` from the current `Q` but treats
    /// it as constant in backward (standard DEC), so the analytic
    /// gradient is the gradient of the *P-frozen* objective. A numeric
    /// gradient check must difference that same function: this entry
    /// point lets verification pin `P` at the reference parameters (see
    /// [`student_t_target`]).
    pub fn student_t_kl_with_target(
        &self,
        h: Var,
        egos: Rc<Vec<usize>>,
        target: Rc<Matrix>,
    ) -> Var {
        self.student_t_kl_inner(h, egos, Some(target))
    }

    fn student_t_kl_inner(&self, h: Var, egos: Rc<Vec<usize>>, target: Option<Rc<Matrix>>) -> Var {
        assert!(!egos.is_empty(), "student_t_kl: no egos");
        let t = {
            let nodes = self.nodes.borrow();
            student_t_kernel(nodes[h.0].val(), &egos)
        };
        let stats = KlStats::new(&t);
        let rg = self.rg(h);
        self.record(
            Op::StudentTKl {
                h,
                egos,
                cache: Rc::new(KlCache { t, stats }),
                target,
            },
            rg,
        )
    }

    /// Inverted dropout with keep probability `1 - p`. The mask is drawn
    /// once at forward time from `rng` and replayed in backward (and by
    /// checkpoint recomputation — replay never touches the RNG).
    pub fn dropout(&self, src: Var, p: f64, rng: &mut impl rand::RngExt) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout: p must be in [0,1)");
        if p == 0.0 {
            return src;
        }
        let keep = 1.0 - p;
        let mask: Vec<f64> = {
            let len = self.nodes.borrow()[src.0].val().len();
            (0..len)
                .map(|_| {
                    if rng.random::<f64>() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        self.record(
            Op::Dropout {
                src,
                mask: Rc::new(mask),
            },
            self.rg(src),
        )
    }

    /// Row-major reshape to `rows x cols` (element count must match).
    pub fn reshape(&self, src: Var, rows: usize, cols: usize) -> Var {
        self.record(Op::Reshape { src, rows, cols }, self.rg(src))
    }

    /// Elementwise exponential.
    pub fn exp(&self, a: Var) -> Var {
        self.record(Op::Exp(a), self.rg(a))
    }

    /// Elementwise natural logarithm.
    ///
    /// # Panics
    /// Panics (via the non-finite tape check) if any input is <= 0.
    pub fn ln(&self, a: Var) -> Var {
        self.record(Op::Ln(a), self.rg(a))
    }

    /// Per-column standardisation ("graph norm"): every column is shifted
    /// to zero mean and scaled to unit variance over the rows. The
    /// normalisation GIN stacks need in place of batch norm; statistics
    /// are per-call (per graph), so eval needs no running averages.
    pub fn col_normalize(&self, src: Var) -> Var {
        let eps = 1e-5;
        let inv_std = {
            let nodes = self.nodes.borrow();
            let sv = nodes[src.0].val();
            let (n, d) = sv.shape();
            assert!(n > 0, "col_normalize of empty matrix");
            let mean = col_means(sv);
            let mut var = vec![0.0f64; d];
            for i in 0..n {
                for ((v, &x), &m) in var.iter_mut().zip(sv.row(i)).zip(&mean) {
                    *v += (x - m) * (x - m);
                }
            }
            var.iter()
                .map(|&v| 1.0 / (v / n as f64 + eps).sqrt())
                .collect::<Vec<f64>>()
        };
        self.record(
            Op::ColNormalize {
                src,
                inv_std: Rc::new(inv_std),
            },
            self.rg(src),
        )
    }

    /// Convenience: mean cross-entropy from raw logits over a node subset.
    pub fn cross_entropy(
        &self,
        logits: Var,
        targets: Rc<Vec<usize>>,
        nodes: Rc<Vec<usize>>,
    ) -> Var {
        let logp = self.log_softmax_rows(logits);
        self.nll_loss(logp, targets, nodes)
    }
}

/// Evaluate `op` from node values and its payload — the single forward
/// evaluator, used both when an op is first recorded and when checkpoint
/// replay re-materialises a dropped value. Every input it touches must be
/// materialised; leaves cannot be evaluated (they hold data, not ops).
pub(crate) fn eval_op(nodes: &[Node], op: &Op) -> Matrix {
    let v = |x: Var| nodes[x.0].val();
    match op {
        Op::Leaf => unreachable!("leaves hold data and are never replayed"),
        Op::Add(a, b) => v(*a).zip(v(*b), |x, y| x + y),
        Op::Sub(a, b) => v(*a).zip(v(*b), |x, y| x - y),
        Op::MulElem(a, b) => v(*a).zip(v(*b), |x, y| x * y),
        Op::Scale(a, alpha) => {
            let alpha = *alpha;
            v(*a).map(|x| x * alpha)
        }
        Op::AddScalar(a, c) => {
            let c = *c;
            v(*a).map(|x| x + c)
        }
        Op::AddBias(a, bias) => {
            let (av, bv) = (v(*a), v(*bias));
            assert_eq!(bv.rows(), 1, "add_bias: bias must be 1 x d");
            assert_eq!(av.cols(), bv.cols(), "add_bias: width mismatch");
            let brow = bv.row(0).to_vec();
            Matrix::from_fn(av.rows(), av.cols(), |i, j| av[(i, j)] + brow[j])
        }
        Op::MatMul(a, b) => v(*a).matmul(v(*b)),
        Op::MatMulLeakyRelu { a, b, slope } => {
            let s = *slope;
            let mut out = v(*a).matmul(v(*b));
            for x in out.data_mut() {
                *x = if *x > 0.0 { *x } else { s * *x };
            }
            out
        }
        Op::LeakyReluMatMul { a, b, slope } => leaky_relu(v(*a), *slope).matmul(v(*b)),
        Op::Transpose(a) => v(*a).transpose(),
        Op::Relu(a) => v(*a).map(|x| x.max(0.0)),
        Op::LeakyRelu(a, slope) => leaky_relu(v(*a), *slope),
        Op::Sigmoid(a) => v(*a).map(sigmoid),
        Op::Tanh(a) => v(*a).map(f64::tanh),
        Op::SoftmaxRows(a) => softmax_rows(v(*a)),
        Op::LogSoftmaxRows(a) => {
            let av = v(*a);
            let mut out = Matrix::zeros(av.rows(), av.cols());
            for i in 0..av.rows() {
                let row = av.row(i);
                let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let lse = mx + row.iter().map(|&x| (x - mx).exp()).sum::<f64>().ln();
                for (o, &x) in out.row_mut(i).iter_mut().zip(row) {
                    *o = x - lse;
                }
            }
            out
        }
        Op::Spmm { csr, values, dense } => {
            let vv = v(*values);
            assert_eq!(vv.shape(), (1, csr.nnz()), "spmm: values must be 1 x nnz");
            csr.spmm(vv.data(), v(*dense))
        }
        Op::SpmmT { csr, values, dense } => {
            let vv = v(*values);
            assert_eq!(vv.shape(), (1, csr.nnz()), "spmm_t: values must be 1 x nnz");
            csr.spmm_t(vv.data(), v(*dense))
        }
        Op::SpmmBiasRelu {
            csr,
            values,
            dense,
            bias,
        } => {
            let (vv, bv) = (v(*values), v(*bias));
            assert_eq!(
                vv.shape(),
                (1, csr.nnz()),
                "spmm_bias_relu: values must be 1 x nnz"
            );
            assert_eq!(bv.rows(), 1, "spmm_bias_relu: bias must be 1 x d");
            csr.spmm_bias_relu(vv.data(), v(*dense), bv.row(0))
        }
        Op::GatherRows { src, idx } => {
            let sv = v(*src);
            let mut out = Matrix::zeros(idx.len(), sv.cols());
            for (r, &i) in idx.iter().enumerate() {
                assert!(i < sv.rows(), "gather_rows: index {i} out of range");
                out.row_mut(r).copy_from_slice(sv.row(i));
            }
            out
        }
        Op::SegmentSum { src, seg, n_seg } => {
            let sv = v(*src);
            assert_eq!(sv.rows(), seg.len(), "segment_sum: length mismatch");
            let mut out = Matrix::zeros(*n_seg, sv.cols());
            for (r, &s) in seg.iter().enumerate() {
                assert!(s < *n_seg, "segment_sum: segment {s} out of range");
                let src_row = sv.row(r);
                for (o, &x) in out.row_mut(s).iter_mut().zip(src_row) {
                    *o += x;
                }
            }
            out
        }
        Op::SegmentSoftmax { scores, seg, n_seg } => {
            let sv = v(*scores);
            assert_eq!(sv.cols(), 1, "segment_softmax: scores must be n x 1");
            assert_eq!(sv.rows(), seg.len(), "segment_softmax: length mismatch");
            segment_softmax(sv.data(), seg, *n_seg)
        }
        Op::PairDot { h, src, dst } => {
            let hv = v(*h);
            assert_eq!(src.len(), dst.len(), "pair_dot: length mismatch");
            Matrix::from_fn(src.len(), 1, |p, _| hv.row_dot(src[p], hv, dst[p]))
        }
        Op::MulCol { a, col } => {
            let (av, cv) = (v(*a), v(*col));
            assert_eq!(cv.cols(), 1, "mul_col: col must be n x 1");
            assert_eq!(av.rows(), cv.rows(), "mul_col: height mismatch");
            Matrix::from_fn(av.rows(), av.cols(), |i, j| av[(i, j)] * cv[(i, 0)])
        }
        Op::AddWeightedCols {
            base,
            parts,
            weights,
        } => {
            let (mut out, wv) = (v(*base).clone(), v(*weights));
            assert_eq!(
                wv.shape(),
                (out.rows(), parts.len()),
                "add_weighted_cols: weights must be n x parts"
            );
            for (k, &p) in parts.iter().enumerate() {
                let pv = v(p);
                assert_eq!(pv.shape(), out.shape(), "add_weighted_cols: part shape");
                for i in 0..out.rows() {
                    let c = wv[(i, k)];
                    for (o, &x) in out.row_mut(i).iter_mut().zip(pv.row(i)) {
                        *o += x * c;
                    }
                }
            }
            out
        }
        Op::ConcatCols(parts) => {
            let rows = v(parts[0]).rows();
            let total: usize = parts.iter().map(|&p| v(p).cols()).sum();
            let mut out = Matrix::zeros(rows, total);
            let mut off = 0;
            for &p in parts {
                let pv = v(p);
                assert_eq!(pv.rows(), rows, "concat_cols: row mismatch");
                for i in 0..rows {
                    out.row_mut(i)[off..off + pv.cols()].copy_from_slice(pv.row(i));
                }
                off += pv.cols();
            }
            out
        }
        Op::SliceCols { src, start, end } => {
            let sv = v(*src);
            assert!(*start < *end && *end <= sv.cols(), "slice_cols: bad range");
            Matrix::from_fn(sv.rows(), end - start, |i, j| sv[(i, start + j)])
        }
        Op::SumAll(a) => Matrix::from_vec(1, 1, vec![v(*a).sum()]),
        Op::MeanAll(a) => {
            let av = v(*a);
            Matrix::from_vec(1, 1, vec![av.sum() / av.len() as f64])
        }
        Op::MeanRows(a) => {
            let av = v(*a);
            assert!(av.rows() > 0, "mean_rows of empty matrix");
            let mut out = Matrix::zeros(1, av.cols());
            for i in 0..av.rows() {
                for (o, &x) in out.row_mut(0).iter_mut().zip(av.row(i)) {
                    *o += x;
                }
            }
            let n = av.rows() as f64;
            for o in out.data_mut() {
                *o /= n;
            }
            out
        }
        Op::SumRows(a) => {
            let av = v(*a);
            let mut out = Matrix::zeros(1, av.cols());
            for i in 0..av.rows() {
                for (o, &x) in out.row_mut(0).iter_mut().zip(av.row(i)) {
                    *o += x;
                }
            }
            out
        }
        Op::MaxRows { src, argmax } => {
            // The recorded argmax rows pin the exact forward maxima, so
            // replay is a gather, not a re-scan.
            let sv = v(*src);
            Matrix::from_fn(1, sv.cols(), |_, j| sv[(argmax[j], j)])
        }
        Op::NllLoss {
            logp,
            targets,
            nodes: node_set,
        } => {
            let lv = v(*logp);
            assert!(!node_set.is_empty(), "nll_loss: empty node set");
            let mut acc = 0.0;
            for &i in node_set.iter() {
                let t = targets[i];
                assert!(t < lv.cols(), "nll_loss: target {t} out of range");
                acc -= lv[(i, t)];
            }
            Matrix::from_vec(1, 1, vec![acc / node_set.len() as f64])
        }
        Op::BcePairs {
            pairs,
            labels,
            cache,
            ..
        } => {
            // The cached logits are authoritative: they were computed
            // from `h` at record time and pin the exact pair scores.
            let mut acc = 0.0;
            for (&z, &y) in cache.logits.iter().zip(labels.iter()) {
                // numerically stable BCE-with-logits
                acc += z.max(0.0) - z * y + (-z.abs()).exp().ln_1p();
            }
            Matrix::from_vec(1, 1, vec![acc / pairs.len() as f64])
        }
        Op::StudentTKl { cache, target, .. } => {
            let (t, stats) = (&cache.t, &cache.stats);
            let (n, m) = t.shape();
            if let Some(p) = target {
                assert_eq!(p.shape(), (n, m), "student_t_kl: target shape mismatch");
            }
            let (mut q, mut self_p) = (vec![0.0f64; m], vec![0.0f64; m]);
            let mut loss = 0.0;
            for j in 0..n {
                let p = stats.rows(t, j, target.as_deref(), &mut q, &mut self_p);
                for (&pj, &qj) in p.iter().zip(&q) {
                    if pj > 0.0 {
                        loss += pj * (pj / qj).ln();
                    }
                }
            }
            Matrix::from_vec(1, 1, vec![loss / n as f64])
        }
        Op::Dropout { src, mask } => {
            let mut out = v(*src).clone();
            for (o, &m) in out.data_mut().iter_mut().zip(mask.iter()) {
                *o *= m;
            }
            out
        }
        Op::Reshape { src, rows, cols } => {
            let sv = v(*src);
            assert_eq!(sv.len(), rows * cols, "reshape: element count mismatch");
            Matrix::from_vec(*rows, *cols, sv.data().to_vec())
        }
        Op::ColNormalize { src, inv_std } => {
            // Means are recomputed with the identical loop order; the
            // stored `inv_std` pins the variance side, so the output is
            // bit-for-bit the forward value.
            let sv = v(*src);
            let mean = col_means(sv);
            Matrix::from_fn(sv.rows(), sv.cols(), |i, j| {
                (sv[(i, j)] - mean[j]) * inv_std[j]
            })
        }
        Op::Exp(a) => v(*a).map(f64::exp),
        Op::Ln(a) => v(*a).map(f64::ln),
    }
}

/// Per-column means accumulated in row-major order (shared between
/// `col_normalize`'s variance pass and [`eval_op`]'s replay so both
/// produce identical bits).
fn col_means(m: &Matrix) -> Vec<f64> {
    let (n, d) = m.shape();
    let mut mean = vec![0.0f64; d];
    for i in 0..n {
        for (acc, &x) in mean.iter_mut().zip(m.row(i)) {
            *acc += x;
        }
    }
    for acc in &mut mean {
        *acc /= n as f64;
    }
    mean
}

/// The Student-t kernel `t[j, c] = (1 + ||h_j - h_{ego_c}||^2)^{-1}`.
///
/// The ego rows are copied once into a k-major `d x m` matrix, so a
/// register tile (see [`crate::tile`]) holds one ego per vector lane and
/// four rows `h_j` per pass. Each squared distance still accumulates over
/// `k` in ascending order from `0.0`, exactly as a one-ego loop does, so
/// every entry keeps its bits.
pub(crate) fn student_t_kernel(h: &Matrix, egos: &[usize]) -> Matrix {
    mg_runtime::timed("student_t_kernel", || {
        let (n, d, m) = (h.rows(), h.cols(), egos.len());
        let ego_cols = Matrix::from_fn(d, m, |k, c| h[(egos[c], k)]);
        let isa = Isa::detect();
        let mut t = Matrix::zeros(n, m);
        let min_rows = par::matmul_chunk_rows(d * m);
        par::for_each_row_block(t.data_mut(), n, m, min_rows, |range, block| {
            student_t_rows(isa, h, &ego_cols, range, block)
        });
        t
    })
}

/// Rows `range` of the Student-t kernel into `block`, from `h` and the
/// k-major ego copy `ego_cols`.
#[inline(always)]
fn student_t_rows_body(h: &Matrix, ego_cols: &Matrix, range: Range<usize>, block: &mut [f64]) {
    let lhs = ByRow {
        data: h.data(),
        stride: h.cols(),
    };
    let rhs = ByDepth {
        data: ego_cols.data(),
        stride: ego_cols.cols(),
    };
    let m = ego_cols.cols();
    fill::<4, 8>(&lhs, &rhs, h.cols(), range, m, block, squared_diff);
    for o in block {
        *o = 1.0 / (1.0 + *o);
    }
}

dispatched!(student_t_rows => student_t_rows_body(
    h: &Matrix,
    ego_cols: &Matrix,
    range: Range<usize>,
    block: &mut [f64],
));

/// Elementwise leaky ReLU: `x` where `x > 0`, else `slope * x`.
pub(crate) fn leaky_relu(m: &Matrix, slope: f64) -> Matrix {
    m.map(|x| if x > 0.0 { x } else { slope * x })
}

/// Logistic sigmoid with clamping against overflow.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Row-wise softmax of a dense matrix (shared by op and tests).
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for i in 0..m.rows() {
        let row = m.row(i);
        let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for (o, &x) in out.row_mut(i).iter_mut().zip(row) {
            *o = (x - mx).exp();
            sum += *o;
        }
        for o in out.row_mut(i) {
            *o /= sum;
        }
    }
    out
}

/// Segment softmax over a flat score vector (shared by op and backward).
pub(crate) fn segment_softmax(scores: &[f64], seg: &[usize], n_seg: usize) -> Matrix {
    let mut maxes = vec![f64::NEG_INFINITY; n_seg];
    for (&s, &x) in seg.iter().zip(scores) {
        if x > maxes[s] {
            maxes[s] = x;
        }
    }
    let mut sums = vec![0.0f64; n_seg];
    let mut out = Matrix::zeros(scores.len(), 1);
    for (r, (&s, &x)) in seg.iter().zip(scores).enumerate() {
        let e = (x - maxes[s]).exp();
        out[(r, 0)] = e;
        sums[s] += e;
    }
    for (r, &s) in seg.iter().enumerate() {
        out[(r, 0)] /= sums[s];
    }
    out
}

/// The DEC target distribution `P` for embedding `h` and centres `egos`,
/// derived exactly as [`Tape::student_t_kl`] derives it internally.
///
/// Verification records this at a reference parameter point and feeds it
/// to [`Tape::student_t_kl_with_target`] so central differences measure
/// the same P-frozen objective the backward pass differentiates.
pub fn student_t_target(h: &Matrix, egos: &[usize]) -> Matrix {
    let t = student_t_kernel(h, egos);
    let stats = KlStats::new(&t);
    let mut q = vec![0.0f64; egos.len()];
    let mut p = Matrix::zeros(t.rows(), t.cols());
    for j in 0..t.rows() {
        stats.q_row(&t, j, &mut q);
        stats.p_row(&q, p.row_mut(j));
    }
    p
}

/// The O(n + m) state from which rows of the DEC soft assignment `Q` and
/// target `P` are rebuilt on demand from the Student-t kernel `t`
/// (`n x m`): the row sums of `t` and the soft cluster frequencies
/// `g_c = Σ_j q_jc`.
///
/// Streaming the rows instead of holding `Q` and `P` keeps two `n x m`
/// matrices out of the forward and backward passes (see DESIGN.md). Each
/// row is rebuilt with the same expressions in the same order a dense
/// build would use, so every value keeps its bits.
pub(crate) struct KlStats {
    row_sum: Vec<f64>,
    g: Vec<f64>,
}

impl KlStats {
    pub(crate) fn new(t: &Matrix) -> Self {
        let row_sum: Vec<f64> = (0..t.rows()).map(|j| t.row(j).iter().sum()).collect();
        let mut g = vec![0.0f64; t.cols()];
        for (j, &s) in row_sum.iter().enumerate() {
            for (gc, &tv) in g.iter_mut().zip(t.row(j)) {
                *gc += tv / s;
            }
        }
        KlStats { row_sum, g }
    }

    /// Number of `f64`s held.
    pub(crate) fn len(&self) -> usize {
        self.row_sum.len() + self.g.len()
    }

    /// `Σ_c t_jc`.
    pub(crate) fn row_sum(&self, j: usize) -> f64 {
        self.row_sum[j]
    }

    /// Row `j` of `Q` (`q_jc = t_jc / Σ_c t_jc`) into `q`.
    pub(crate) fn q_row(&self, t: &Matrix, j: usize, q: &mut [f64]) {
        let s = self.row_sum[j];
        for (qc, &tv) in q.iter_mut().zip(t.row(j)) {
            *qc = tv / s;
        }
    }

    /// Row `j` of `Q` into `q`, and the row of `P` the loss uses: row
    /// `j` of `target` when given, else the self-target rebuilt into
    /// `self_p`.
    pub(crate) fn rows<'a>(
        &self,
        t: &Matrix,
        j: usize,
        target: Option<&'a Matrix>,
        q: &mut [f64],
        self_p: &'a mut [f64],
    ) -> &'a [f64] {
        self.q_row(t, j, q);
        match target {
            Some(p) => p.row(j),
            None => {
                self.p_row(q, self_p);
                self_p
            }
        }
    }

    /// The row of `P` (`p_c ∝ q_c² / g_c`) for the `Q` row `q`, into `p`.
    pub(crate) fn p_row(&self, q: &[f64], p: &mut [f64]) {
        let mut denom = 0.0;
        for (&qc, &gc) in q.iter().zip(&self.g) {
            denom += qc * qc / gc;
        }
        for ((pc, &qc), &gc) in p.iter_mut().zip(q).zip(&self.g) {
            *pc = (qc * qc / gc) / denom;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn add_and_sub_values() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(1, 2, vec![1., 2.]), true);
        let b = tape.leaf(Matrix::from_vec(1, 2, vec![10., 20.]), true);
        assert_eq!(tape.value(tape.add(a, b)).data(), &[11., 22.]);
        assert_eq!(tape.value(tape.sub(b, a)).data(), &[9., 18.]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = softmax_rows(&m);
        for i in 0..2 {
            let sum: f64 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(1, 3, vec![0.5, 1.5, -0.5]), false);
        let ls = tape.log_softmax_rows(a);
        let s = tape.softmax_rows(a);
        for j in 0..3 {
            assert!((tape.value(ls)[(0, j)].exp() - tape.value(s)[(0, j)]).abs() < 1e-12);
        }
    }

    #[test]
    fn segment_softmax_normalises_per_segment() {
        let out = segment_softmax(&[1.0, 2.0, 3.0, 4.0], &[0, 0, 1, 1], 2);
        assert!((out[(0, 0)] + out[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((out[(2, 0)] + out[(3, 0)] - 1.0).abs() < 1e-12);
        assert!(out[(1, 0)] > out[(0, 0)]);
    }

    #[test]
    fn segment_softmax_singleton_is_one() {
        let out = segment_softmax(&[5.0], &[0], 1);
        assert!((out[(0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gather_rows_values() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]), false);
        let g = tape.gather_rows(a, Rc::new(vec![2, 0, 2]));
        assert_eq!(tape.value(g).data(), &[5., 6., 1., 2., 5., 6.]);
    }

    #[test]
    fn segment_sum_values() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(3, 2, vec![1., 1., 2., 2., 3., 3.]), false);
        let s = tape.segment_sum(a, Rc::new(vec![1, 0, 1]), 2);
        assert_eq!(tape.value(s).data(), &[2., 2., 4., 4.]);
    }

    #[test]
    fn max_rows_takes_columnwise_max() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(2, 2, vec![1., 9., 5., 2.]), false);
        let m = tape.max_rows(a);
        assert_eq!(tape.value(m).data(), &[5., 9.]);
    }

    #[test]
    fn nll_loss_value() {
        let tape = Tape::new();
        let logits = tape.leaf(Matrix::from_vec(2, 2, vec![10.0, 0.0, 0.0, 10.0]), false);
        let loss = tape.cross_entropy(logits, Rc::new(vec![0, 1]), Rc::new(vec![0, 1]));
        assert!(tape.value(loss).scalar() < 1e-3);
    }

    #[test]
    fn bce_pairs_confident_correct_is_small() {
        let tape = Tape::new();
        // rows engineered so that pair (0,1) has large positive dot, (0,2) negative
        let h = tape.leaf(Matrix::from_vec(3, 2, vec![3., 0., 3., 0., -3., 0.]), false);
        let loss = tape.bce_pairs(h, Rc::new(vec![(0, 1), (0, 2)]), Rc::new(vec![1.0, 0.0]));
        assert!(tape.value(loss).scalar() < 1e-3);
    }

    #[test]
    fn kl_rows_are_distributions() {
        let t = Matrix::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.5, 0.5]);
        let stats = KlStats::new(&t);
        let (mut q, mut p) = ([0.0; 2], [0.0; 2]);
        for j in 0..3 {
            stats.q_row(&t, j, &mut q);
            stats.p_row(&q, &mut p);
            assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            // P sharpens Q: the dominant entry grows
            if j == 0 {
                assert!(p[0] > q[0]);
            }
        }
    }

    #[test]
    fn student_t_kl_is_nonnegative() {
        let tape = Tape::new();
        let h = tape.leaf(
            Matrix::from_vec(4, 2, vec![0., 0., 0.1, 0., 5., 5., 5.1, 5.]),
            true,
        );
        let loss = tape.student_t_kl(h, Rc::new(vec![0, 2]));
        assert!(tape.value(loss).scalar() >= 0.0);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let tape = Tape::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = tape.leaf(Matrix::from_vec(1, 2, vec![1., 2.]), true);
        let d = tape.dropout(a, 0.0, &mut rng);
        assert_eq!(d, a);
    }

    #[test]
    fn dropout_scales_kept_entries() {
        let tape = Tape::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = tape.leaf(Matrix::full(1, 1000, 1.0), true);
        let d = tape.dropout(a, 0.5, &mut rng);
        let v = tape.value(d);
        // kept entries are scaled to 2.0; roughly half survive
        let kept = v.data().iter().filter(|&&x| x > 0.0).count();
        assert!(v
            .data()
            .iter()
            .all(|&x| x == 0.0 || (x - 2.0).abs() < 1e-12));
        assert!(kept > 350 && kept < 650, "kept = {kept}");
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(2, 1, vec![1., 2.]), false);
        let b = tape.leaf(Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]), false);
        let c = tape.concat_cols(&[a, b]);
        assert_eq!(tape.value(c).data(), &[1., 3., 4., 2., 5., 6.]);
        let s = tape.slice_cols(c, 1, 3);
        assert_eq!(tape.value(s).data(), &[3., 4., 5., 6.]);
    }
}

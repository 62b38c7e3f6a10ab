//! The AdamGNN model: primary GCN, adaptive multi-grained pooling,
//! unpooling chains and flyback aggregation (paper Sections 3.1-3.4,
//! Algorithm 1).

use crate::fitness::{AttentionParams, ATT_SLOPE};
use crate::pooling::{PoolState, PoolingKind, PoolingOp};
use crate::structure::add_unit_diag;
use mg_graph::{NormAdj, Topology};
use mg_nn::{Activation, GcnLayer, GraphCtx};
use mg_tensor::{Binding, Csr, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// Hyper-parameters of AdamGNN.
#[derive(Clone, Copy, Debug)]
pub struct AdamGnnConfig {
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden width (embedding width of every level).
    pub hidden: usize,
    /// Number of granularity levels `K`.
    pub levels: usize,
    /// Ego-network radius `λ`.
    pub lambda: usize,
    /// Enable the flyback aggregator (Table 5 ablates this).
    pub flyback: bool,
    /// Dropout on the primary node representation during training.
    pub dropout: f64,
    /// Include Eq. 2's linearity term `f^c = sigmoid(h_jᵀ h_i)` in the
    /// fitness (ablation knob; the paper always keeps it on).
    pub linearity: bool,
    /// Which pooling operator coarsens each level (see
    /// [`crate::pooling`]). Fixed at model construction: the operator
    /// owns parameters.
    pub pooling: PoolingKind,
}

impl AdamGnnConfig {
    /// Paper-style defaults for a given input width.
    pub fn new(in_dim: usize, hidden: usize, levels: usize) -> Self {
        AdamGnnConfig {
            in_dim,
            hidden,
            levels,
            lambda: 1,
            flyback: true,
            dropout: 0.5,
            linearity: true,
            pooling: PoolingKind::AdamGnn,
        }
    }
}

/// One pooled level retained for inspection and unpooling.
pub struct LevelState {
    /// Hyper-node formation structure.
    pub s_csr: Rc<Csr>,
    /// Tape variable holding `S_k`'s values (gradients reach φ).
    pub s_vals: Var,
    /// Selected egos, in the previous level's node indexing.
    pub egos: Vec<usize>,
    /// Hyper-graph size after this level.
    pub size: usize,
    /// Anchor of each coarse column in the previous level's indexing:
    /// the ego for ego columns, the node itself for retained columns.
    pub col_base: Vec<usize>,
}

/// The discrete and detached pieces of one pooling level, captured on a
/// reference forward so a verification re-run can hold them fixed.
///
/// Ego selection is piecewise-constant in the parameters and the
/// hyper-adjacency normalisation `Â_k` is deliberately detached from the
/// tape, so the gradient the optimiser uses is the gradient *at fixed
/// structure*. Central-difference gradient checking must difference that
/// same fixed-structure function — re-selecting egos or re-normalising
/// `Â_k` under a perturbed parameter would measure paths the backward
/// pass (correctly) never propagates through.
#[derive(Clone)]
pub struct FrozenLevel {
    /// Selected egos, in the previous level's node indexing.
    pub egos: Vec<usize>,
    /// Normalised hyper-graph adjacency fed to the level GCN.
    pub norm: NormAdj,
    /// Topology the next level pools.
    pub next_topo: Rc<Topology>,
}

/// Per-level [`FrozenLevel`]s from one reference forward pass.
#[derive(Clone, Default)]
pub struct FrozenStructure {
    pub levels: Vec<FrozenLevel>,
}

/// Everything a task head needs from one AdamGNN forward pass.
pub struct AdamGnnOutput {
    /// Final node representations `H = H_0 + Σ β_k Ĥ_k` (n x hidden).
    pub h: Var,
    /// Primary representations `H_0`.
    pub h0: Var,
    /// Unpooled per-level messages `Ĥ_k`, original-graph indexing.
    pub unpooled: Vec<Var>,
    /// Flyback attention `β` per node per level (n x K), when flyback ran.
    pub beta: Option<Var>,
    /// Level-1 egos (original node ids) — the cluster centres of the KL
    /// self-optimisation loss (Eq. 5).
    pub egos_l1: Rc<Vec<usize>>,
    /// Per-level metadata.
    pub levels: Vec<LevelState>,
    /// Operator-specific auxiliary loss (summed over levels), e.g.
    /// SpaPool's assignment entropy. `None` for the default operator, so
    /// the pre-trait loss compositions are unchanged.
    pub aux: Option<Var>,
}

/// Adaptive Multi-grained Graph Neural Network.
pub struct AdamGnn {
    cfg: AdamGnnConfig,
    /// Primary GCN layer (Eq. 1) — one layer, as in the paper.
    gcn0: GcnLayer,
    /// One GCN per granularity level, run on the coarsened graph.
    level_gcns: Vec<GcnLayer>,
    /// The pooling operator coarsening each level (see
    /// [`crate::pooling`]); AdamGNN's fitness/ego-network pooling by
    /// default.
    pool: PoolingOp,
    /// Flyback attention (Eq. 4).
    fly: AttentionParams,
}

impl AdamGnn {
    /// Create the model, registering all parameters in `store`.
    pub fn new(store: &mut ParamStore, cfg: AdamGnnConfig, rng: &mut StdRng) -> Self {
        assert!(cfg.levels >= 1, "AdamGNN needs at least one level");
        assert!(cfg.lambda >= 1, "lambda must be >= 1");
        let gcn0 = GcnLayer::new(
            store,
            "adam.gcn0",
            cfg.in_dim,
            cfg.hidden,
            Activation::Relu,
            rng,
        );
        let level_gcns = (0..cfg.levels)
            .map(|k| {
                GcnLayer::new(
                    store,
                    &format!("adam.gcn{}", k + 1),
                    cfg.hidden,
                    cfg.hidden,
                    Activation::Relu,
                    rng,
                )
            })
            .collect();
        // Registration order matters for seeded init: the operator's
        // parameters (for the default operator: adam.fit then adam.init)
        // come between the level GCNs and adam.fly, exactly as the
        // pre-trait constructor registered them.
        let pool = PoolingOp::build(store, &cfg, rng);
        AdamGnn {
            cfg,
            gcn0,
            level_gcns,
            pool,
            fly: AttentionParams::new(store, "adam.fly", cfg.hidden, rng),
        }
    }

    /// Model configuration (with the pooling override already resolved).
    pub fn cfg(&self) -> &AdamGnnConfig {
        &self.cfg
    }

    /// The live pooling operator.
    pub fn pooling(&self) -> &PoolingOp {
        &self.pool
    }

    /// Full forward pass over one graph.
    pub fn forward(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        train: bool,
        rng: &mut StdRng,
    ) -> AdamGnnOutput {
        self.forward_inner(tape, bind, ctx, train, rng, None).0
    }

    /// Forward pass that also captures the discrete/detached structure
    /// for later frozen replays (see [`FrozenStructure`]).
    pub fn forward_recorded(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        train: bool,
        rng: &mut StdRng,
    ) -> (AdamGnnOutput, FrozenStructure) {
        self.forward_inner(tape, bind, ctx, train, rng, None)
    }

    /// Eval-mode forward with the pooling structure pinned to a prior
    /// recording: egos are not re-selected and `Â_k` is not re-normalised,
    /// so the scalar losses built on top are exactly the fixed-structure
    /// function whose gradient the backward pass computes.
    pub fn forward_frozen(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        frozen: &FrozenStructure,
    ) -> AdamGnnOutput {
        // Eval mode draws nothing; the stream only satisfies signatures.
        let mut rng = StdRng::seed_from_u64(0);
        self.forward_inner(tape, bind, ctx, false, &mut rng, Some(frozen))
            .0
    }

    fn forward_inner(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        train: bool,
        rng: &mut StdRng,
        frozen: Option<&FrozenStructure>,
    ) -> (AdamGnnOutput, FrozenStructure) {
        // Recompute-on-backward for the big forward blocks. Every scope
        // closes before any early stop, so no abort paths are needed;
        // checkpointing never changes the values or gradients, only when
        // interior buffers are resident (see crate::overrides). A frozen
        // binding always scopes: its grad-free scopes free their
        // interiors at close and never replay (see mg_tensor::checkpoint).
        let ckpt = crate::overrides::ckpt_tape() || !bind.requires_grad(tape);
        // ---- primary node representation (Eq. 1) ----
        let mut h0 = self.gcn0.forward_features(tape, bind, ctx);
        if train && self.cfg.dropout > 0.0 {
            h0 = tape.dropout(h0, self.cfg.dropout, rng);
        }

        // ---- multi-grained structure construction, one trait call per
        // level (see crate::pooling for the operator contract) ----
        let mut state = PoolState {
            topo: ctx.graph.clone(),
            weighted: {
                let (csr, vals) = add_unit_diag(ctx.unit.csr.as_ref(), &ctx.unit.values);
                (Rc::new(csr), vals)
            },
            h_prev: h0,
            s_chain: Vec::new(),
        };
        let mut unpooled: Vec<Var> = Vec::new();
        let mut levels: Vec<LevelState> = Vec::new();
        let mut egos_l1: Rc<Vec<usize>> = Rc::new(Vec::new());
        let mut aux: Option<Var> = None;
        let mut recorded = FrozenStructure::default();
        let op = self.pool.as_dyn();

        for (k, level_gcn) in self.level_gcns.iter().enumerate() {
            if let Some(fs) = frozen {
                if k >= fs.levels.len() {
                    break; // the reference run stopped pooling here
                }
            }
            if state.topo.num_edges() == 0 {
                break; // nothing left to pool
            }
            let frozen_level = frozen.map(|fs| &fs.levels[k]);
            let Some(out) = op.pool_level(tape, bind, k, level_gcn, &mut state, ckpt, frozen_level)
            else {
                break; // the operator could not pool this level
            };
            if k == 0 {
                egos_l1 = Rc::new(out.level.egos.clone());
            }
            if let Some(a) = out.aux {
                aux = Some(match aux {
                    Some(acc) => tape.add(acc, a),
                    None => a,
                });
            }
            unpooled.push(out.unpooled);
            levels.push(out.level);
            recorded.levels.push(out.frozen);
        }

        // ---- flyback aggregation (Eq. 4) ----
        let (h, beta) = if self.cfg.flyback && !unpooled.is_empty() {
            let fly_scope = ckpt.then(|| tape.begin_checkpoint());
            // W applies to the *message* side only, per Eq. 4
            let rhs = tape.leaky_relu_matmul(h0, bind.var(self.fly.a_rhs), ATT_SLOPE);
            let mut scores = Vec::with_capacity(unpooled.len());
            for &up in &unpooled {
                let lhs = tape.matmul_leaky_relu(up, bind.var(self.fly.w), ATT_SLOPE);
                let e = tape.add(tape.matmul(lhs, bind.var(self.fly.a_lhs)), rhs);
                scores.push(e);
            }
            let stacked = tape.concat_cols(&scores); // n x K
            let beta = tape.softmax_rows(stacked);
            let h = tape.add_weighted_cols(h0, &unpooled, beta);
            if let Some(scope) = fly_scope {
                tape.end_checkpoint(scope, &[h, beta]);
            }
            (h, Some(beta))
        } else {
            (h0, None)
        };

        (
            AdamGnnOutput {
                h,
                h0,
                unpooled,
                beta,
                egos_l1,
                levels,
                aux,
            },
            recorded,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_nn::testkit::{seeds, two_community_ctx};
    use mg_tensor::Matrix;
    use rand::SeedableRng;

    /// The default operator's concrete parameters (fitness + init
    /// attention), for gradient-reachability assertions.
    fn adam_pooling(model: &AdamGnn) -> &crate::pooling::AdamGnnPooling {
        match model.pooling() {
            PoolingOp::AdamGnn(p) => p,
            _ => panic!("default operator expected"),
        }
    }

    fn small_model(levels: usize, flyback: bool) -> (ParamStore, AdamGnn) {
        let mut store = ParamStore::new();
        let mut cfg = AdamGnnConfig::new(8, 12, levels);
        cfg.flyback = flyback;
        cfg.dropout = 0.0;
        let model = AdamGnn::new(&mut store, cfg, &mut seeds::model_init_alt());
        (store, model)
    }

    #[test]
    fn forward_shapes_and_levels() {
        let (ctx, _) = two_community_ctx();
        let (store, model) = small_model(2, true);
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let out = model.forward(&tape, &bind, &ctx, false, &mut seeds::forward_rng());
        assert_eq!(tape.shape(out.h), (8, 12));
        assert_eq!(tape.shape(out.h0), (8, 12));
        assert!(!out.unpooled.is_empty(), "at least one level must pool");
        for &up in &out.unpooled {
            assert_eq!(
                tape.shape(up),
                (8, 12),
                "unpooled must be original-graph sized"
            );
        }
        assert!(!out.egos_l1.is_empty());
    }

    #[test]
    fn pooling_shrinks_each_level() {
        let (ctx, _) = two_community_ctx();
        let (store, model) = small_model(3, true);
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let out = model.forward(&tape, &bind, &ctx, false, &mut seeds::forward_rng());
        let mut prev = ctx.n();
        for level in &out.levels {
            assert!(level.size <= prev, "levels must not grow");
            prev = level.size;
        }
    }

    #[test]
    fn beta_rows_are_distributions() {
        let (ctx, _) = two_community_ctx();
        let (store, model) = small_model(2, true);
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let out = model.forward(&tape, &bind, &ctx, false, &mut seeds::forward_rng());
        let beta = out.beta.expect("flyback enabled");
        let bv = tape.value(beta);
        assert_eq!(bv.rows(), 8);
        assert_eq!(bv.cols(), out.unpooled.len());
        for i in 0..bv.rows() {
            let sum: f64 = bv.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn no_flyback_returns_h0() {
        let (ctx, _) = two_community_ctx();
        let (store, model) = small_model(2, false);
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let out = model.forward(&tape, &bind, &ctx, false, &mut seeds::forward_rng());
        assert!(out.beta.is_none());
        assert_eq!(out.h, out.h0);
        // multi-grained structure is still built (used by GC readouts)
        assert!(!out.unpooled.is_empty());
    }

    #[test]
    fn gradients_reach_all_attention_params() {
        let (ctx, _) = two_community_ctx();
        let (store, model) = small_model(2, true);
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let out = model.forward(&tape, &bind, &ctx, true, &mut seeds::forward_rng());
        let loss = tape.mean_all(tape.mul_elem(out.h, out.h));
        let grads = tape.backward(loss);
        let pool = adam_pooling(&model);
        for p in [
            pool.fit.w,
            pool.fit.a_lhs,
            pool.fit.a_rhs,
            pool.init_att.w,
            model.fly.w,
            model.fly.a_lhs,
            model.fly.a_rhs,
        ] {
            assert!(
                grads.get(bind.var(p)).is_some(),
                "no gradient for {}",
                store.name(p)
            );
        }
    }

    #[test]
    fn forward_is_deterministic_in_eval_mode() {
        let (ctx, _) = two_community_ctx();
        let (store, model) = small_model(2, true);
        let run = |seed: u64| {
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let out = model.forward(&tape, &bind, &ctx, false, &mut StdRng::seed_from_u64(seed));
            tape.value_cloned(out.h)
        };
        assert_eq!(run(1), run(99));
    }

    #[test]
    fn checkpointed_forward_backward_is_bitwise_identical() {
        let (ctx, _) = two_community_ctx();
        let (store, model) = small_model(2, true);
        let run = |on: bool| {
            crate::overrides::with_ckpt_tape(on, || {
                let tape = Tape::new();
                let bind = store.bind(&tape);
                let out = model.forward(&tape, &bind, &ctx, true, &mut seeds::forward_rng());
                let loss = tape.mean_all(tape.mul_elem(out.h, out.h));
                let (loss_value, h) = (tape.value_cloned(loss), tape.value_cloned(out.h));
                let grads = tape.backward(loss);
                let gbits: Vec<Matrix> = store
                    .param_ids()
                    .into_iter()
                    .filter_map(|p| grads.get(bind.var(p)).cloned())
                    .collect();
                (loss_value, h, gbits, tape.peak_tape_bytes())
            })
        };
        let (loss_r, h_r, grads_r, peak_r) = run(false);
        let (loss_c, h_c, grads_c, peak_c) = run(true);
        assert_eq!(loss_r, loss_c, "loss must be bitwise identical");
        assert_eq!(h_r, h_c, "representations must be bitwise identical");
        assert_eq!(grads_r.len(), grads_c.len());
        for (gr, gc) in grads_r.iter().zip(&grads_c) {
            assert_eq!(gr, gc, "gradients must be bitwise identical");
        }
        assert!(
            peak_c < peak_r,
            "checkpointing must lower the tape high-water mark ({peak_c} >= {peak_r})"
        );
    }

    fn rival_model(kind: PoolingKind, levels: usize) -> (ParamStore, AdamGnn) {
        let mut store = ParamStore::new();
        let mut cfg = AdamGnnConfig::new(8, 12, levels);
        cfg.dropout = 0.0;
        cfg.pooling = kind;
        let model = AdamGnn::new(&mut store, cfg, &mut seeds::model_init_alt());
        (store, model)
    }

    #[test]
    fn rival_operators_forward_and_backward() {
        let (ctx, _) = two_community_ctx();
        for kind in [PoolingKind::Asap, PoolingKind::SpaPool] {
            let (store, model) = rival_model(kind, 2);
            assert_eq!(model.pooling().kind(), kind);
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let out = model.forward(&tape, &bind, &ctx, false, &mut seeds::forward_rng());
            assert_eq!(tape.shape(out.h), (8, 12), "{kind:?}");
            assert!(!out.unpooled.is_empty(), "{kind:?} must pool");
            for &up in &out.unpooled {
                assert_eq!(tape.shape(up), (8, 12), "{kind:?} unpooled shape");
            }
            let mut prev = ctx.n();
            for level in &out.levels {
                assert!(level.size <= prev, "{kind:?} levels must not grow");
                assert_eq!(level.egos.len(), level.col_base.len().min(level.egos.len()));
                prev = level.size;
            }
            match kind {
                PoolingKind::SpaPool => assert!(out.aux.is_some(), "SpaPool has entropy aux"),
                _ => assert!(out.aux.is_none(), "{kind:?} has no aux"),
            }
            let mut loss = tape.mean_all(tape.mul_elem(out.h, out.h));
            if let Some(aux) = out.aux {
                loss = tape.add(loss, aux);
            }
            assert!(
                tape.value(loss).scalar().is_finite(),
                "{kind:?} loss finite"
            );
            let grads = tape.backward(loss);
            for p in store.param_ids() {
                assert!(
                    grads.get(bind.var(p)).is_some(),
                    "{kind:?}: no gradient for {}",
                    store.name(p)
                );
            }
        }
    }

    #[test]
    fn every_operator_frozen_replay_is_bitwise_identical() {
        let (ctx, _) = two_community_ctx();
        for kind in PoolingKind::ALL {
            let (store, model) = rival_model(kind, 2);
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let (out, fs) =
                model.forward_recorded(&tape, &bind, &ctx, false, &mut seeds::forward_rng());
            assert_eq!(fs.levels.len(), out.levels.len());
            let tape2 = Tape::new();
            let bind2 = store.bind(&tape2);
            let out2 = model.forward_frozen(&tape2, &bind2, &ctx, &fs);
            assert_eq!(
                tape.value_cloned(out.h),
                tape2.value_cloned(out2.h),
                "{kind:?}: frozen replay must reproduce the recording"
            );
            assert_eq!(out2.levels.len(), out.levels.len(), "{kind:?}");
            for (a, b) in out.levels.iter().zip(&out2.levels) {
                assert_eq!(a.egos, b.egos, "{kind:?}: frozen egos pinned");
            }
        }
    }

    #[test]
    fn rival_operators_respect_checkpoint_scopes() {
        let (ctx, _) = two_community_ctx();
        for kind in [PoolingKind::Asap, PoolingKind::SpaPool] {
            let (store, model) = rival_model(kind, 2);
            let run = |on: bool| {
                crate::overrides::with_ckpt_tape(on, || {
                    let tape = Tape::new();
                    let bind = store.bind(&tape);
                    let out = model.forward(&tape, &bind, &ctx, false, &mut seeds::forward_rng());
                    let mut loss = tape.mean_all(tape.mul_elem(out.h, out.h));
                    if let Some(aux) = out.aux {
                        loss = tape.add(loss, aux);
                    }
                    let loss_value = tape.value_cloned(loss);
                    let grads = tape.backward(loss);
                    let gbits: Vec<Matrix> = store
                        .param_ids()
                        .into_iter()
                        .filter_map(|p| grads.get(bind.var(p)).cloned())
                        .collect();
                    (loss_value, gbits, tape.peak_tape_bytes())
                })
            };
            let (loss_r, grads_r, peak_r) = run(false);
            let (loss_c, grads_c, peak_c) = run(true);
            assert_eq!(loss_r, loss_c, "{kind:?}: loss bitwise identical");
            assert_eq!(grads_r, grads_c, "{kind:?}: gradients bitwise identical");
            assert!(
                peak_c < peak_r,
                "{kind:?}: checkpointing must lower the high-water mark ({peak_c} >= {peak_r})"
            );
        }
    }

    #[test]
    fn s_values_receive_gradients() {
        // gradients must reach φ through the unpooling chain (S values)
        let (ctx, _) = two_community_ctx();
        let (store, model) = small_model(1, true);
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let out = model.forward(&tape, &bind, &ctx, false, &mut seeds::forward_rng());
        let loss = tape.mean_all(tape.mul_elem(out.h, out.h));
        let grads = tape.backward(loss);
        // the fitness attention params feed φ feed S feed Ĥ feed loss
        let g = grads
            .get(bind.var(adam_pooling(&model).fit.a_lhs))
            .expect("fitness grad");
        assert!(g.max_abs() > 0.0, "fitness gradient must be non-zero");
    }
}

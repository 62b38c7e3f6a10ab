//! The pooling-operator seam: everything one coarsening level does —
//! score, select, assemble `S_k`, pool features, coarsen the topology,
//! run the level GCN and unpool — behind one [`Pooling`] trait.
//!
//! The paper's Table 4 compares AdamGNN against rival hierarchical
//! pooling methods; reproducing that comparison needs a seam between
//! "the AdamGNN model" (primary GCN, flyback, losses) and "a pooling
//! operator" (how one level coarsens). [`AdamGnnPooling`] is the
//! fitness→ego-select→pool path moved verbatim out of
//! `AdamGnn::forward_inner` — the default operator's tape-op sequence is
//! unchanged, which is what keeps the checked-in golden traces
//! byte-identical. [`AsapPooling`] and [`SpaPoolPooling`] are the two
//! rivals whose mechanics map onto the existing tape ops.
//!
//! Every implementor honours the frozen-structure contract of
//! [`FrozenLevel`]: discrete selections (egos / anchors) and the
//! detached coarsened adjacency are pinned on frozen replays, while the
//! differentiable pieces (attention weights, soft assignments, gates)
//! recompute — so the frozen objective is exactly the fixed-structure
//! function whose gradient the backward pass computes, and
//! central-difference gradient checking stays valid for every operator.

use crate::fitness::{pair_fitness_with, with_unit_row, AttentionParams, EgoPairs, ATT_SLOPE};
use crate::model::{AdamGnnConfig, FrozenLevel, LevelState};
use crate::structure::{
    add_unit_diag, build_s_plan, ego_fitness, select_egos, topology_of, ValueSource,
};
use mg_graph::{gcn_norm_weighted, NormAdj, Topology};
use mg_nn::GcnLayer;
use mg_tensor::{Binding, Csr, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use std::rc::Rc;

/// Weight of SpaPool's assignment-entropy auxiliary loss.
const SPAPOOL_ENTROPY_WEIGHT: f64 = 0.01;

/// Which pooling operator coarsens each level. Typed — set only through
/// `TrainConfig` and `AdamGnnConfig`, and recorded in the checkpoint
/// config section.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolingKind {
    /// AdamGNN's adaptive fitness/ego-network pooling (Eqs. 2-3).
    #[default]
    AdamGnn,
    /// ASAP: intra-cluster attention + LEConv-scored cluster selection.
    Asap,
    /// SpaPool: differentiable soft partition assignment onto anchors.
    SpaPool,
}

impl PoolingKind {
    /// Every operator, in discriminant order (benchmark matrix order).
    pub const ALL: [PoolingKind; 3] = [
        PoolingKind::AdamGnn,
        PoolingKind::Asap,
        PoolingKind::SpaPool,
    ];

    /// Stable lowercase name (trace tag, bench rows, checkpoint config).
    pub fn name(self) -> &'static str {
        match self {
            PoolingKind::AdamGnn => "adamgnn",
            PoolingKind::Asap => "asap",
            PoolingKind::SpaPool => "spapool",
        }
    }

    /// Stable wire discriminant for the checkpoint config section.
    pub fn discriminant(self) -> u8 {
        match self {
            PoolingKind::AdamGnn => 0,
            PoolingKind::Asap => 1,
            PoolingKind::SpaPool => 2,
        }
    }

    /// Inverse of [`PoolingKind::discriminant`].
    pub fn from_discriminant(d: u8) -> Option<PoolingKind> {
        match d {
            0 => Some(PoolingKind::AdamGnn),
            1 => Some(PoolingKind::Asap),
            2 => Some(PoolingKind::SpaPool),
            _ => None,
        }
    }
}

/// Mutable per-forward state threaded through the pooling loop. The
/// operator advances `topo`/`h_prev` (and, off the frozen path,
/// `weighted`) when a level succeeds; `s_chain` accumulates the `S`
/// factors the unpool chain multiplies through.
pub struct PoolState {
    /// Topology the current level pools.
    pub topo: Rc<Topology>,
    /// Weighted `Â` of the current level (values detached from the tape).
    /// Frozen replays never touch it: the coarsened adjacency they need
    /// is pinned in [`FrozenLevel`].
    pub weighted: (Rc<Csr>, Vec<f64>),
    /// Node embeddings entering the level.
    pub h_prev: Var,
    /// `S_1 .. S_k` so far, for the unpool chain (Section 3.3).
    pub s_chain: Vec<(Rc<Csr>, Var)>,
}

/// Everything one successful pooling level hands back to the model.
pub struct PoolLevelOutput {
    /// Per-level metadata (exposed via `AdamGnnOutput::levels`).
    pub level: LevelState,
    /// The discrete/detached pieces to pin for frozen replays.
    pub frozen: FrozenLevel,
    /// `Ĥ_k` unpooled to the original graph's indexing.
    pub unpooled: Var,
    /// Operator-specific auxiliary loss term (e.g. SpaPool's assignment
    /// entropy); `None` for operators without one.
    pub aux: Option<Var>,
}

/// One hierarchical pooling operator: everything between "embeddings and
/// topology in" and "pooled level out".
///
/// Contract:
/// * Return `None` (before recording any tape op that later levels might
///   observe gradients through) when the level cannot pool — the model
///   stops pooling there, exactly like the inline `break`s did.
/// * On success, advance `state` (`topo`, `h_prev`, push onto `s_chain`;
///   `weighted` only off the frozen path) and return the level.
/// * When `frozen` is `Some`, pin every discrete/detached piece to it:
///   reuse its egos instead of re-selecting, its `norm`/`next_topo`
///   instead of re-coarsening. Differentiable pieces must recompute.
/// * When `ckpt` is true (a checkpointed training tape, or any forward
///   over a frozen binding), wrap the big forward blocks in tape
///   checkpoint scopes; any value read across a scope boundary must be
///   in the keep list, and host-side reads of detached scores must
///   happen before the scope ends.
pub trait Pooling {
    /// Which [`PoolingKind`] this operator implements.
    fn kind(&self) -> PoolingKind;

    /// Run one coarsening level. See the trait docs for the contract.
    #[allow(clippy::too_many_arguments)]
    fn pool_level(
        &self,
        tape: &Tape,
        bind: &Binding,
        k: usize,
        level_gcn: &GcnLayer,
        state: &mut PoolState,
        ckpt: bool,
        frozen: Option<&FrozenLevel>,
    ) -> Option<PoolLevelOutput>;
}

/// The detached coarsening every operator shares:
/// `A_k = S_kᵀ Â_{k-1} S_k` via two spgemms, then the next level's
/// normalisation, topology and weighted `Â_k` (all off-tape — the
/// gradient the optimiser uses is the gradient at fixed structure).
pub fn coarsen_adjacency(
    tape: &Tape,
    s_csr: &Rc<Csr>,
    s_vals: Var,
    weighted: &mut (Rc<Csr>, Vec<f64>),
) -> (NormAdj, Rc<Topology>) {
    let s_vals_data: Vec<f64> = tape.value(s_vals).data().to_vec();
    // Take the transpose from `s_csr` (the Rc instance the tape ops
    // hold): transpose_struct warms the lazy transpose cache, and
    // warming the shared instance lets every spmm_t in this level's
    // backward pass reuse it.
    let (st_csr, perm) = s_csr.transpose_struct();
    let st_vals: Vec<f64> = perm.iter().map(|&p| s_vals_data[p]).collect();
    let (tmp_csr, tmp_vals) = st_csr.spgemm(&st_vals, &weighted.0, &weighted.1);
    let (ak_csr, ak_vals) = tmp_csr.spgemm(&tmp_vals, s_csr.as_ref(), &s_vals_data);
    let next_topo = Rc::new(topology_of(&ak_csr));
    let norm = gcn_norm_weighted(&ak_csr, &ak_vals);
    let (next_w_csr, next_w_vals) = add_unit_diag(&ak_csr, &ak_vals);
    *weighted = (Rc::new(next_w_csr), next_w_vals);
    (norm, next_topo)
}

/// The shared tail of every operator's level: GCN on the coarsened
/// graph, extend the unpool chain, and multiply `Ĥ_k` back to the
/// original indexing.
fn level_gcn_and_unpool(
    tape: &Tape,
    bind: &Binding,
    level_gcn: &GcnLayer,
    norm: &NormAdj,
    x_next: Var,
    (s_csr, s_vals): (&Rc<Csr>, Var),
    state: &mut PoolState,
) -> (Var, Var) {
    let adj_vals = tape.constant(Matrix::from_vec(1, norm.values.len(), norm.values.clone()));
    let h_k = level_gcn.forward_adj(tape, bind, norm.csr.clone(), adj_vals, x_next);
    state.s_chain.push((s_csr.clone(), s_vals));
    let mut up = h_k;
    for (csr, vals) in state.s_chain.iter().rev() {
        up = tape.spmm(csr.clone(), *vals, up);
    }
    (h_k, up)
}

/// Dispatch enum over the shipped operators. An enum (not `Box<dyn>`)
/// keeps `AdamGnn` free of heap indirection and lets tests and ablations
/// reach the concrete operator's parameters.
pub enum PoolingOp {
    AdamGnn(AdamGnnPooling),
    Asap(AsapPooling),
    SpaPool(SpaPoolPooling),
}

impl PoolingOp {
    /// Build the operator `cfg.pooling` selects, registering its
    /// parameters in `store`.
    pub fn build(store: &mut ParamStore, cfg: &AdamGnnConfig, rng: &mut StdRng) -> PoolingOp {
        match cfg.pooling {
            PoolingKind::AdamGnn => PoolingOp::AdamGnn(AdamGnnPooling::new(store, *cfg, rng)),
            PoolingKind::Asap => PoolingOp::Asap(AsapPooling::new(store, cfg.hidden, rng)),
            PoolingKind::SpaPool => PoolingOp::SpaPool(SpaPoolPooling::new(store, cfg.hidden, rng)),
        }
    }

    /// The operator as its trait object.
    pub fn as_dyn(&self) -> &dyn Pooling {
        match self {
            PoolingOp::AdamGnn(p) => p,
            PoolingOp::Asap(p) => p,
            PoolingOp::SpaPool(p) => p,
        }
    }

    /// Which [`PoolingKind`] is live.
    pub fn kind(&self) -> PoolingKind {
        self.as_dyn().kind()
    }
}

// ---------------------------------------------------------------------
// AdamGNN (the paper's operator, extracted verbatim from forward_inner)
// ---------------------------------------------------------------------

/// AdamGNN's adaptive pooling: per-pair fitness φ (Eq. 2), strict-local-
/// maximum ego selection, weighted hyper-node formation matrix `S_k`,
/// and attention-initialised hyper-node features (Eq. 3).
pub struct AdamGnnPooling {
    cfg: AdamGnnConfig,
    /// Fitness attention (Eq. 2).
    pub fit: AttentionParams,
    /// Hyper-node feature-initialisation attention (Eq. 3).
    pub init_att: AttentionParams,
}

impl AdamGnnPooling {
    /// Registers `adam.fit` then `adam.init` — the same order (and so
    /// the same RNG draws) as the pre-trait model constructor.
    pub fn new(store: &mut ParamStore, cfg: AdamGnnConfig, rng: &mut StdRng) -> Self {
        AdamGnnPooling {
            cfg,
            fit: AttentionParams::new(store, "adam.fit", cfg.hidden, rng),
            init_att: AttentionParams::new(store, "adam.init", cfg.hidden, rng),
        }
    }

    /// Hyper-node feature initialisation (Eq. 3): ego representation plus
    /// the attention-weighted members' representations.
    fn hyper_features(
        &self,
        tape: &Tape,
        bind: &Binding,
        plan: &crate::structure::SPlan,
        phi: Var,
        h_prev: Var,
    ) -> Var {
        let m = plan.m();
        let base = tape.gather_rows(h_prev, Rc::new(plan.col_base.clone()));
        if plan.member_pairs.is_empty() {
            return base;
        }
        let members: Rc<Vec<usize>> =
            Rc::new(plan.member_pairs.iter().map(|&(j, _, _)| j).collect());
        let ego_cols: Rc<Vec<usize>> =
            Rc::new(plan.member_pairs.iter().map(|&(_, c, _)| c).collect());
        let pair_ks: Rc<Vec<usize>> =
            Rc::new(plan.member_pairs.iter().map(|&(_, _, k)| k).collect());
        let ego_nodes: Rc<Vec<usize>> = Rc::new(
            plan.member_pairs
                .iter()
                .map(|&(_, c, _)| plan.col_base[c])
                .collect(),
        );

        let h_mem = tape.gather_rows(h_prev, members);
        let phi_sel = tape.gather_rows(phi, pair_ks);
        // score = a₁ᵀ σ(W (φ_ij h_j)) + a₂ᵀ σ(h_i)
        let scaled = tape.mul_col(h_mem, phi_sel);
        let u = tape.matmul_leaky_relu(scaled, bind.var(self.init_att.w), ATT_SLOPE);
        let s_lhs = tape.matmul(u, bind.var(self.init_att.a_lhs));
        let rhs_nodes = tape.leaky_relu_matmul(h_prev, bind.var(self.init_att.a_rhs), ATT_SLOPE);
        let s_rhs = tape.gather_rows(rhs_nodes, ego_nodes);
        let e = tape.add(s_lhs, s_rhs);
        let alpha = tape.segment_softmax(e, ego_cols.clone(), m);
        let weighted = tape.mul_col(h_mem, alpha);
        let contrib = tape.segment_sum(weighted, ego_cols, m);
        tape.add(base, contrib)
    }
}

impl Pooling for AdamGnnPooling {
    fn kind(&self) -> PoolingKind {
        PoolingKind::AdamGnn
    }

    fn pool_level(
        &self,
        tape: &Tape,
        bind: &Binding,
        _k: usize,
        level_gcn: &GcnLayer,
        state: &mut PoolState,
        ckpt: bool,
        frozen: Option<&FrozenLevel>,
    ) -> Option<PoolLevelOutput> {
        let topo = state.topo.clone();
        let n_prev = topo.n();
        let pairs = EgoPairs::build(&topo, self.cfg.lambda);
        if pairs.is_empty() {
            return None;
        }
        // per-pair fitness φ (differentiable); its attention
        // intermediates (per-pair gathers of h) dominate the level's
        // tape footprint, so they recompute on backward.
        let fit_scope = ckpt.then(|| tape.begin_checkpoint());
        let phi = pair_fitness_with(
            tape,
            bind,
            &self.fit,
            &pairs,
            state.h_prev,
            n_prev,
            self.cfg.linearity,
        );
        if let Some(scope) = fit_scope {
            tape.end_checkpoint(scope, &[phi]);
        }
        let phi_data: Vec<f64> = tape.value(phi).data().to_vec();
        // adaptive ego selection (discrete; pinned on frozen replays)
        let egos = match frozen {
            Some(fl) => fl.egos.clone(),
            None => {
                let ego_phi = ego_fitness(&pairs, &phi_data, n_prev);
                select_egos(&topo, &ego_phi)
            }
        };
        if egos.is_empty() {
            return None; // all-tied fitness: no strict local maximum
        }
        let plan = build_s_plan(&topo, &pairs, &phi_data, self.cfg.lambda, &egos);
        // pooling block: S_k assembly, hyper features, the level GCN
        // and the unpool chain. Only its three outputs stay resident.
        let pool_scope = ckpt.then(|| tape.begin_checkpoint());
        // S_k values on the tape: φ entries + constant ones
        let phi_ext = with_unit_row(tape, phi);
        let gather_idx: Vec<usize> = plan
            .sources
            .iter()
            .map(|s| match s {
                ValueSource::Pair(p) => *p,
                ValueSource::One => pairs.len(),
            })
            .collect();
        let s_col = tape.gather_rows(phi_ext, Rc::new(gather_idx));
        let s_vals = tape.reshape(s_col, 1, plan.csr.nnz());
        let s_csr = Rc::new(plan.csr.clone());

        // hyper-node features (Eq. 3)
        let x_next = self.hyper_features(tape, bind, &plan, phi, state.h_prev);

        // hyper-graph connectivity A_k = S_kᵀ Â_{k-1} S_k (detached;
        // pinned on frozen replays)
        let (norm, next_topo) = match frozen {
            Some(fl) => (fl.norm.clone(), fl.next_topo.clone()),
            None => coarsen_adjacency(tape, &s_csr, s_vals, &mut state.weighted),
        };

        // GCN on the hyper-graph, then unpool (Section 3.3)
        let (h_k, up) = level_gcn_and_unpool(
            tape,
            bind,
            level_gcn,
            &norm,
            x_next,
            (&s_csr, s_vals),
            state,
        );
        if let Some(scope) = pool_scope {
            tape.end_checkpoint(scope, &[s_vals, h_k, up]);
        }

        let level = LevelState {
            s_csr,
            s_vals,
            egos: egos.clone(),
            size: plan.m(),
            col_base: plan.col_base.clone(),
        };
        let frozen_level = FrozenLevel {
            egos,
            norm,
            next_topo: next_topo.clone(),
        };
        state.topo = next_topo;
        state.h_prev = h_k;
        Some(PoolLevelOutput {
            level,
            frozen: frozen_level,
            unpooled: up,
            aux: None,
        })
    }
}

// ---------------------------------------------------------------------
// ASAP (Ranjan et al., AAAI'20)
// ---------------------------------------------------------------------

/// ASAP: every node centres a 1-hop cluster whose representation is an
/// intra-cluster attention over the members (Master2Token); clusters are
/// scored by LEConv and the top half survive. Cluster membership weights
/// times the survivor's gate become `S_k`'s entries.
///
/// Frozen-structure obligations: the top-half selection is discrete and
/// pinned via [`FrozenLevel::egos`]; LEConv runs on `A + I` with unit
/// weights derived from the (pinned) topology, so a frozen replay
/// rebuilds exactly the adjacency the recording used while the attention
/// and gates recompute differentiably.
pub struct AsapPooling {
    /// Intra-cluster attention (Master2Token-style).
    pub att: AttentionParams,
    /// LEConv weights: `score = deg ⊙ (xW₁) − Â(xW₂) + xW₃`.
    pub le1: ParamId,
    pub le2: ParamId,
    pub le3: ParamId,
}

impl AsapPooling {
    /// Registers `asap.att.{w,a_lhs,a_rhs}` then `asap.le{1,2,3}`.
    pub fn new(store: &mut ParamStore, hidden: usize, rng: &mut StdRng) -> Self {
        AsapPooling {
            att: AttentionParams::new(store, "asap.att", hidden, rng),
            le1: store.add("asap.le1", Matrix::glorot(hidden, 1, rng)),
            le2: store.add("asap.le2", Matrix::glorot(hidden, 1, rng)),
            le3: store.add("asap.le3", Matrix::glorot(hidden, 1, rng)),
        }
    }
}

impl Pooling for AsapPooling {
    fn kind(&self) -> PoolingKind {
        PoolingKind::Asap
    }

    fn pool_level(
        &self,
        tape: &Tape,
        bind: &Binding,
        _k: usize,
        level_gcn: &GcnLayer,
        state: &mut PoolState,
        ckpt: bool,
        frozen: Option<&FrozenLevel>,
    ) -> Option<PoolLevelOutput> {
        let topo = state.topo.clone();
        let n_prev = topo.n();
        // cluster membership: node i's cluster is {i} ∪ N(i); pairs are
        // (member, centre), grouped contiguously per centre.
        let mut members_raw: Vec<usize> = Vec::new();
        let mut centers_raw: Vec<usize> = Vec::new();
        let mut first_pair: Vec<usize> = Vec::with_capacity(n_prev + 1);
        for i in 0..n_prev {
            first_pair.push(members_raw.len());
            members_raw.push(i);
            centers_raw.push(i);
            for j in topo.neighbors(i) {
                members_raw.push(j);
                centers_raw.push(i);
            }
        }
        first_pair.push(members_raw.len());
        if members_raw.is_empty() {
            return None;
        }
        let members = Rc::new(members_raw);
        let centers = Rc::new(centers_raw);

        // intra-cluster attention → cluster representations x_all
        let att_scope = ckpt.then(|| tape.begin_checkpoint());
        let h_mem = tape.gather_rows(state.h_prev, members.clone());
        let u = tape.matmul_leaky_relu(h_mem, bind.var(self.att.w), ATT_SLOPE);
        let e_lhs = tape.matmul(u, bind.var(self.att.a_lhs));
        let rhs_nodes = tape.leaky_relu_matmul(state.h_prev, bind.var(self.att.a_rhs), ATT_SLOPE);
        let e_rhs = tape.gather_rows(rhs_nodes, centers.clone());
        let e = tape.add(e_lhs, e_rhs);
        let alpha = tape.segment_softmax(e, centers.clone(), n_prev);
        let x_all = tape.segment_sum(tape.mul_col(h_mem, alpha), centers.clone(), n_prev);

        // LEConv cluster fitness on A + I with unit weights — derived
        // from the pinned topology so frozen replays rebuild it exactly.
        let unit = vec![1.0; topo.adj().nnz()];
        let (a_csr, a_vals) = add_unit_diag(topo.adj(), &unit);
        let a_csr = Rc::new(a_csr);
        let a_const = tape.constant(Matrix::from_vec(1, a_vals.len(), a_vals));
        let deg = tape.constant(Matrix::from_vec(
            n_prev,
            1,
            (0..n_prev).map(|i| (topo.degree(i) + 1) as f64).collect(),
        ));
        let t1 = tape.mul_col(tape.matmul(x_all, bind.var(self.le1)), deg);
        let t2 = tape.spmm(a_csr, a_const, tape.matmul(x_all, bind.var(self.le2)));
        let t3 = tape.matmul(x_all, bind.var(self.le3));
        let score = tape.add(tape.sub(t1, t2), t3);
        let gate = tape.sigmoid(score);
        // host read before the scope closes (detached: selection only)
        let score_data: Vec<f64> = tape.value(score).data().to_vec();
        if let Some(scope) = att_scope {
            tape.end_checkpoint(scope, &[alpha, x_all, gate]);
        }

        // top-⌈n/2⌉ clusters by score (discrete; pinned on frozen replays)
        let egos: Vec<usize> = match frozen {
            Some(fl) => fl.egos.clone(),
            None => {
                let keep = n_prev.div_ceil(2);
                let mut idx: Vec<usize> = (0..n_prev).collect();
                idx.sort_by(|&a, &b| score_data[b].total_cmp(&score_data[a]).then(a.cmp(&b)));
                let mut sel: Vec<usize> = idx.into_iter().take(keep).collect();
                sel.sort_unstable();
                sel
            }
        };
        if egos.is_empty() {
            return None;
        }
        let m = egos.len();

        // S_k: column c holds cluster egos[c]'s membership weights
        // α_(j,ego) · gate_ego
        let mut entries: Vec<(u32, u32)> = Vec::new();
        let mut pair_of: std::collections::HashMap<(u32, u32), usize> =
            std::collections::HashMap::new();
        for (c, &ego) in egos.iter().enumerate() {
            for p in first_pair[ego]..first_pair[ego + 1] {
                let r = members[p];
                entries.push((r as u32, c as u32));
                pair_of.insert((r as u32, c as u32), p);
            }
        }
        let s_csr = Rc::new(Csr::from_coo(n_prev, m, &entries));

        let pool_scope = ckpt.then(|| tape.begin_checkpoint());
        let order: Vec<usize> = s_csr
            .iter()
            .map(|(r, c, _)| pair_of[&(r as u32, c as u32)])
            .collect();
        let gate_idx: Vec<usize> = s_csr.iter().map(|(_, c, _)| egos[c]).collect();
        let a_sel = tape.gather_rows(alpha, Rc::new(order));
        let g_sel = tape.gather_rows(gate, Rc::new(gate_idx));
        let s_col = tape.mul_elem(a_sel, g_sel);
        let s_vals = tape.reshape(s_col, 1, s_csr.nnz());

        // surviving clusters' representations, gated
        let egos_rc = Rc::new(egos.clone());
        let x_next = tape.mul_col(
            tape.gather_rows(x_all, egos_rc.clone()),
            tape.gather_rows(gate, egos_rc),
        );

        let (norm, next_topo) = match frozen {
            Some(fl) => (fl.norm.clone(), fl.next_topo.clone()),
            None => coarsen_adjacency(tape, &s_csr, s_vals, &mut state.weighted),
        };
        let (h_k, up) = level_gcn_and_unpool(
            tape,
            bind,
            level_gcn,
            &norm,
            x_next,
            (&s_csr, s_vals),
            state,
        );
        if let Some(scope) = pool_scope {
            tape.end_checkpoint(scope, &[s_vals, h_k, up]);
        }

        let level = LevelState {
            s_csr,
            s_vals,
            egos: egos.clone(),
            size: m,
            col_base: egos.clone(),
        };
        let frozen_level = FrozenLevel {
            egos,
            norm,
            next_topo: next_topo.clone(),
        };
        state.topo = next_topo;
        state.h_prev = h_k;
        Some(PoolLevelOutput {
            level,
            frozen: frozen_level,
            unpooled: up,
            aux: None,
        })
    }
}

// ---------------------------------------------------------------------
// SpaPool (soft partition assignment onto anchor nodes)
// ---------------------------------------------------------------------

/// SpaPool: score-selected anchor nodes become the coarse vertices and
/// every node is softly assigned to all anchors through a scaled
/// query/key softmax — a dense differentiable `S_k` (DiffPool-style but
/// with data-dependent anchors instead of a fixed cluster count).
///
/// Frozen-structure obligations: the anchor set is discrete and pinned
/// via [`FrozenLevel::egos`]; the soft assignment, anchor gates and the
/// assignment-entropy auxiliary loss recompute differentiably.
pub struct SpaPoolPooling {
    /// Query projection.
    pub wq: ParamId,
    /// Key projection.
    pub wk: ParamId,
    /// Anchor score vector.
    pub score: ParamId,
    hidden: usize,
}

impl SpaPoolPooling {
    /// Registers `spapool.wq`, `spapool.wk`, `spapool.score`.
    pub fn new(store: &mut ParamStore, hidden: usize, rng: &mut StdRng) -> Self {
        SpaPoolPooling {
            wq: store.add("spapool.wq", Matrix::glorot(hidden, hidden, rng)),
            wk: store.add("spapool.wk", Matrix::glorot(hidden, hidden, rng)),
            score: store.add("spapool.score", Matrix::glorot(hidden, 1, rng)),
            hidden,
        }
    }
}

impl Pooling for SpaPoolPooling {
    fn kind(&self) -> PoolingKind {
        PoolingKind::SpaPool
    }

    fn pool_level(
        &self,
        tape: &Tape,
        bind: &Binding,
        _k: usize,
        level_gcn: &GcnLayer,
        state: &mut PoolState,
        ckpt: bool,
        frozen: Option<&FrozenLevel>,
    ) -> Option<PoolLevelOutput> {
        let n_prev = state.topo.n();
        if n_prev == 0 {
            return None;
        }
        let scope = ckpt.then(|| tape.begin_checkpoint());
        let score = tape.matmul(state.h_prev, bind.var(self.score)); // n x 1
                                                                     // host read before the scope closes (detached: selection only)
        let score_data: Vec<f64> = tape.value(score).data().to_vec();
        // top-⌈n/2⌉ anchors (discrete; pinned on frozen replays)
        let egos: Vec<usize> = match frozen {
            Some(fl) => fl.egos.clone(),
            None => {
                let keep = n_prev.div_ceil(2);
                let mut idx: Vec<usize> = (0..n_prev).collect();
                idx.sort_by(|&a, &b| score_data[b].total_cmp(&score_data[a]).then(a.cmp(&b)));
                let mut sel: Vec<usize> = idx.into_iter().take(keep).collect();
                sel.sort_unstable();
                sel
            }
        };
        if egos.is_empty() {
            return None;
        }
        let m = egos.len();
        let egos_rc = Rc::new(egos.clone());

        // soft assignment S = softmax(Q K_anchorᵀ / √d)  (n x m)
        let q = tape.matmul(state.h_prev, bind.var(self.wq));
        let k_all = tape.matmul(state.h_prev, bind.var(self.wk));
        let k_sel = tape.gather_rows(k_all, egos_rc.clone());
        let logits = tape.matmul(q, tape.transpose(k_sel));
        let scaled = tape.scale(logits, 1.0 / (self.hidden as f64).sqrt());
        let s_soft = tape.softmax_rows(scaled);
        // assignment-entropy auxiliary loss: mean(p ln p) is ≤ 0, so the
        // negative scale adds +H(S)·w to the objective, sharpening the
        // partition; ε guards ln(0).
        let plogp = tape.mul_elem(s_soft, tape.ln(tape.add_scalar(s_soft, 1e-12)));
        let aux = tape.scale(tape.mean_all(plogp), -SPAPOOL_ENTROPY_WEIGHT);

        // dense-pattern CSR: values are s_soft row-major, which is
        // exactly the CSR storage order of the full n x m pattern.
        let mut entries: Vec<(u32, u32)> = Vec::with_capacity(n_prev * m);
        for r in 0..n_prev {
            for c in 0..m {
                entries.push((r as u32, c as u32));
            }
        }
        let s_csr = Rc::new(Csr::from_coo(n_prev, m, &entries));
        let s_vals = tape.reshape(s_soft, 1, n_prev * m);

        // pooled features: SᵀH, gated by the anchors' scores
        let gates = tape.sigmoid(tape.gather_rows(score, egos_rc));
        let x_next = tape.mul_col(tape.spmm_t(s_csr.clone(), s_vals, state.h_prev), gates);

        let (norm, next_topo) = match frozen {
            Some(fl) => (fl.norm.clone(), fl.next_topo.clone()),
            None => coarsen_adjacency(tape, &s_csr, s_vals, &mut state.weighted),
        };
        let (h_k, up) = level_gcn_and_unpool(
            tape,
            bind,
            level_gcn,
            &norm,
            x_next,
            (&s_csr, s_vals),
            state,
        );
        if let Some(scope) = scope {
            tape.end_checkpoint(scope, &[s_vals, h_k, up, aux]);
        }

        let level = LevelState {
            s_csr,
            s_vals,
            egos: egos.clone(),
            size: m,
            col_base: egos.clone(),
        };
        let frozen_level = FrozenLevel {
            egos,
            norm,
            next_topo: next_topo.clone(),
        };
        state.topo = next_topo;
        state.h_prev = h_k;
        Some(PoolLevelOutput {
            level,
            frozen: frozen_level,
            unpooled: up,
            aux: Some(aux),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_discriminants_roundtrip() {
        for kind in PoolingKind::ALL {
            assert_eq!(
                PoolingKind::from_discriminant(kind.discriminant()),
                Some(kind)
            );
        }
        assert_eq!(PoolingKind::from_discriminant(250), None);
        assert_eq!(PoolingKind::default(), PoolingKind::AdamGnn);
    }

    #[test]
    fn build_selects_the_configured_operator() {
        use rand::SeedableRng;
        for kind in PoolingKind::ALL {
            let mut store = ParamStore::new();
            let mut cfg = AdamGnnConfig::new(4, 8, 1);
            cfg.pooling = kind;
            let op = PoolingOp::build(&mut store, &cfg, &mut StdRng::seed_from_u64(7));
            assert_eq!(op.kind(), kind);
        }
    }

    #[test]
    fn operator_parameters_are_namespaced() {
        use rand::SeedableRng;
        let mut store = ParamStore::new();
        let mut cfg = AdamGnnConfig::new(4, 8, 1);
        cfg.pooling = PoolingKind::Asap;
        let _ = PoolingOp::build(&mut store, &cfg, &mut StdRng::seed_from_u64(7));
        let names: Vec<String> = store
            .param_ids()
            .into_iter()
            .map(|p| store.name(p).to_string())
            .collect();
        assert!(names.iter().all(|n| n.starts_with("asap.")), "{names:?}");
    }
}

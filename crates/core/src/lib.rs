//! # adamgnn-core
//!
//! AdamGNN — Adaptive Multi-grained Graph Neural Networks (Zhong, Li,
//! Pang; the system behind the ICDE'24 extended abstract "Multi-Grained
//! Semantics-Aware Graph Neural Networks").
//!
//! The model unifies node-level and graph-level representation learning:
//!
//! 1. a primary GCN produces node representations (Eq. 1);
//! 2. **adaptive graph pooling** scores every (member, ego) pair with a
//!    fitness `φ` (Eq. 2), selects ego-networks whose mean fitness is a
//!    strict local maximum (no top-k ratio hyper-parameter), and builds a
//!    weighted hyper-node formation matrix `S_k`;
//! 3. hyper-node features are initialised by self-attention (Eq. 3) and a
//!    GCN runs on the coarsened graph `A_k = S_kᵀ Â S_k`;
//! 4. **graph unpooling** restores each level's semantics to the original
//!    nodes through the `S` chain;
//! 5. the **flyback aggregator** (Eq. 4) attends over levels to produce
//!    the final multi-grained node representations;
//! 6. training adds a DEC-style KL self-optimisation loss (Eq. 5) and a
//!    reconstruction loss (Eq. 6): `L = L_task + γ L_KL + δ L_R`.
//!
//! See `DESIGN.md` at the repository root for the substrate inventory and
//! `EXPERIMENTS.md` for the reproduced evaluation.

pub mod decompose;
pub mod explain;
pub mod faults;
pub mod fitness;
pub mod gc;
pub mod loss;
pub mod model;
pub mod overrides;
pub mod pooling;
pub mod structure;

pub use decompose::{
    decomposed_loss, decomposed_loss_frozen, record_loss_freeze, LossBreakdown, LossFreeze,
};
pub use explain::{LevelExplanation, NodeExplanation};
pub use fitness::{pair_fitness, pair_fitness_with, AttentionParams, EgoPairs};
pub use gc::{AdamGnnGc, AdamGnnNode};
pub use loss::{
    kl_loss, kl_loss_with_target, reconstruction_loss, reconstruction_loss_planned, total_loss,
    LossWeights, ReconPlan,
};
pub use model::{AdamGnn, AdamGnnConfig, AdamGnnOutput, FrozenLevel, FrozenStructure, LevelState};
pub use overrides::{ckpt_tape_or, with_ckpt_tape};
pub use pooling::{
    coarsen_adjacency, AdamGnnPooling, AsapPooling, PoolLevelOutput, PoolState, Pooling,
    PoolingKind, PoolingOp, SpaPoolPooling,
};
pub use structure::{build_s_plan, ego_fitness, select_egos, SPlan, ValueSource};

//! mg-verify: the verification harness for the AdamGNN reproduction.
//!
//! Four pillars, each with its machinery here and its tests at the repo
//! root (`tests/verify_*.rs`):
//!
//! 1. **Model-level gradient audit** ([`gradaudit`]) — the whole
//!    objective (task + γ·L_KL + δ·L_R) as one scalar function of all
//!    parameters, central-differenced on a sampled subset, plus a
//!    decomposition-consistency check that catches coherent bugs (e.g. a
//!    sign flip) gradcheck alone cannot see.
//! 2. **Metamorphic invariants** ([`metamorphic`]) — node-id permutation
//!    must permute embeddings and leave every loss term and readout
//!    stable; unpooling must route rows back to their owners.
//! 3. **Golden-trace regression** ([`golden`]) — seeded training runs
//!    pinned as checked-in per-epoch traces with IEEE-754 bits;
//!    `MG_UPDATE_GOLDENS=1` regenerates, failures print a unified diff.
//! 4. **Differential serial-vs-parallel fuzzing** ([`fuzz`]) — the same
//!    seeded runs must be bit-identical across the serial build and
//!    every parallel pool width.

pub mod fuzz;
pub mod golden;
pub mod gradaudit;
pub mod metamorphic;

#[cfg(feature = "parallel")]
pub use fuzz::with_threads;
pub use fuzz::{
    assert_traces_bitwise, goldens_dir, graph_cls_run, link_pred_run, node_cls_run,
    node_clustering_run, sampled_link_pred_run, sampled_node_cls_run, streamed_run, verify_cfg,
};
pub use golden::{check_against_file, unified_diff, Compare, Golden};
pub use gradaudit::{audit_node_model, AuditConfig, AuditReport};
pub use metamorphic::{
    induced_coarse_perm, invert, map_ids, max_row_mapped_diff, permute_rows, permute_topology,
    pooling_structures_match, random_permutation,
};

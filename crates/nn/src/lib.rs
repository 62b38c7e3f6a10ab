//! # mg-nn
//!
//! GNN layers, baseline encoders and pooling operators used as competing
//! methods in the AdamGNN evaluation.

pub mod ctx;
pub mod encoders;
pub mod gc;
pub mod layers;
pub mod pool;
pub mod readout;
pub mod testkit;

pub use ctx::GraphCtx;
pub use encoders::{GatNet, GcnNet, GinNet, NodeEncoder, SageNet};
pub use gc::{GcOutput, GinGc, GraphClassifier};
pub use layers::{Activation, GatLayer, GcnLayer, GinLayer, Mlp, SageLayer};
pub use pool::{
    dense_adj, top_ratio_indices, topk_coverage, DenseFlavor, DensePoolGc, GraphUNet, SortPoolGc,
    ThreeWlGc, TopKFlavor, TopKGc,
};
pub use readout::Readout;

//! # mg-eval
//!
//! Training, metrics and experiment harness for the AdamGNN
//! reproduction: node classification, link prediction, node clustering
//! and graph classification behind one training loop with
//! best-validation selection, plus text-table rendering for the paper's
//! result tables.

pub mod clustering;
pub mod graph_tasks;
pub mod infer;
pub mod metrics;
pub mod minibatch;
pub mod models;
pub mod node_tasks;
pub mod session;
pub mod tables;
mod telemetry;
pub mod trace;
mod trainer;

pub use clustering::{bce_pair_batch, kmeans, nmi};
pub use graph_tasks::build_contexts;
pub use infer::FrozenModel;
pub use metrics::{accuracy, mean_std, pair_scores, roc_auc};
pub use minibatch::{sampled_epochs_streamed, MinibatchConfig, StreamedEpoch};
pub use models::{AnyNodeModel, GraphModelKind, NodeModelKind};
pub use node_tasks::TrainConfig;
pub use session::{RunOutcome, SessionInput, SessionKind, TrainSession};
pub use tables::{auc, pct, TextTable};
pub use trace::{TraceRow, TrainTrace};

//! Pillar 3: golden-trace regression.
//!
//! One seeded training run per task family and batch source (full-batch,
//! sampled, streamed), each pinned as a checked-in per-epoch trace or
//! summary under `tests/goldens/`. The comparison is bitwise —
//! the IEEE-754 bits in the golden are authoritative — so any change to
//! the numerics, however small, surfaces here with a unified diff of the
//! stored trace. Intentional changes are accepted by regenerating:
//!
//! ```text
//! MG_UPDATE_GOLDENS=1 cargo test --test verify_goldens
//! ```
//!
//! The parallel build runs these same tests: PR 1's kernel determinism
//! means every pool width must reproduce the serial traces bit for bit
//! (the differential fuzzer sweeps pool widths explicitly).

use mg_verify::{
    check_against_file, goldens_dir, graph_cls_run, link_pred_run, node_cls_run,
    node_clustering_run, sampled_link_pred_run, sampled_node_cls_run, streamed_run, Compare,
    Golden,
};

fn check(actual: Golden) {
    let path = goldens_dir().join(format!("{}.json", actual.name));
    if let Err(e) = check_against_file(&path, &actual, Compare::Bitwise) {
        panic!("{e}");
    }
}

#[test]
fn node_classification_trace_matches_golden() {
    check(node_cls_run(0));
}

#[test]
fn link_prediction_trace_matches_golden() {
    check(link_pred_run(0));
}

#[test]
fn graph_classification_trace_matches_golden() {
    check(graph_cls_run(0));
}

#[test]
fn sampled_node_classification_trace_matches_golden() {
    check(sampled_node_cls_run(0));
}

#[test]
fn sampled_link_prediction_trace_matches_golden() {
    check(sampled_link_pred_run(0));
}

#[test]
fn node_clustering_trace_matches_golden() {
    check(node_clustering_run(0));
}

#[test]
fn streamed_summary_matches_golden() {
    check(streamed_run(0));
}

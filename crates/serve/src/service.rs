//! The model-side executor: one frozen forward per flush, answered by
//! pure gathers.
//!
//! [`ModelService`] owns the (non-`Send`) [`FrozenModel`] and its
//! serving [`GraphCtx`]; it lives on the flusher thread. A flush of any
//! composition — node lookups and link scorings interleaved — costs one
//! deterministic forward; each request is then answered from the same
//! output matrix through the `FrozenModel::*_from` batch entry points.
//! Because the forward does not depend on the requests and the gathers
//! are per-request, the response to a request is bitwise identical
//! whether it was flushed alone or with arbitrary companions — the
//! determinism claim the e2e suite verifies over real sockets.

use crate::api::{ApiRequest, ApiResponse, LinksResponse, NodesResponse};
use crate::error::ServeError;
use mg_eval::FrozenModel;
use mg_nn::GraphCtx;
use mg_tensor::{Matrix, MgError};
use std::time::Instant;

/// A frozen model bound to the graph it serves.
pub struct ModelService {
    model: FrozenModel,
    ctx: GraphCtx,
}

impl ModelService {
    /// Bind `model` to `ctx`, validating up front that the pairing can
    /// serve node outputs at all (feature width, task kind) — a broken
    /// pairing must fail at startup, not on the first request.
    pub fn new(model: FrozenModel, ctx: GraphCtx) -> Result<ModelService, MgError> {
        model.node_outputs(&ctx)?;
        Ok(ModelService { model, ctx })
    }

    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// Nodes in the serving graph.
    pub fn n_nodes(&self) -> usize {
        self.ctx.graph.n()
    }

    /// One full deterministic forward over the serving graph.
    pub fn forward(&self) -> Result<Matrix, MgError> {
        self.model.node_outputs(&self.ctx)
    }

    /// Execute one flush: a single forward, then per-request gathers.
    /// Returns one result per request (in order) and the forward's wall
    /// time in ns. A request that fails (out-of-range id) fails alone
    /// and completely; its companions are unaffected.
    pub fn execute(&self, reqs: Vec<ApiRequest>) -> (Vec<Result<ApiResponse, ServeError>>, u64) {
        let timer = Instant::now();
        let h = match self.forward() {
            Ok(h) => h,
            Err(e) => {
                // forward failure poisons the whole flush — but typed,
                // per request, with no partial bodies
                let e: ServeError = e.into();
                let n = reqs.len();
                return (vec![Err(e); n], timer.elapsed().as_nanos() as u64);
            }
        };
        let forward_ns = timer.elapsed().as_nanos() as u64;
        let results = reqs
            .into_iter()
            .map(|req| Self::answer_from(&h, req))
            .collect();
        (results, forward_ns)
    }

    /// Sequential reference path: execute one request as a batch of one.
    /// The socket-level e2e test takes its reference answers from this,
    /// and a traced perfbench `serve_cora` run times it as
    /// `serve.handle_one`.
    pub fn handle_one(&self, req: ApiRequest) -> Result<ApiResponse, ServeError> {
        let (mut results, _) = self.execute(vec![req]);
        results.pop().expect("execute answers every request")
    }

    /// Answer one request from a computed output matrix (pure gather).
    fn answer_from(h: &Matrix, req: ApiRequest) -> Result<ApiResponse, ServeError> {
        match req {
            ApiRequest::Nodes(r) => {
                let embeddings = FrozenModel::embeddings_from(h, &r.ids)?;
                let labels = FrozenModel::labels_from(h, &r.ids)?;
                Ok(ApiResponse::Nodes(NodesResponse { embeddings, labels }))
            }
            ApiRequest::Links(r) => {
                let scores = FrozenModel::link_scores_from(h, &r.pairs)?;
                Ok(ApiResponse::Links(LinksResponse { scores }))
            }
        }
    }
}

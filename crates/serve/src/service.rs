//! The model-side executor: one frozen forward at load, then pure
//! gathers for every request.
//!
//! [`ModelService`] owns the (non-`Send`) [`FrozenModel`] and its
//! serving [`GraphCtx`]; it lives on the flusher thread. The frozen
//! outputs depend only on the graph and the trained parameters, so
//! [`ModelService::new`] computes them once and keeps the matrix as the
//! table every request is answered from, through the
//! `FrozenModel::*_from` gathers. Because the table does not depend on
//! the requests and the gathers are per-request, the response to a
//! request is bitwise identical whether it was flushed alone or with
//! arbitrary companions — the determinism claim the e2e suite verifies
//! over real sockets.

use crate::api::{ApiRequest, ApiResponse, LinksResponse, NodesResponse};
use crate::error::ServeError;
use mg_eval::FrozenModel;
use mg_nn::GraphCtx;
use mg_tensor::{Matrix, MgError};
use std::time::Instant;

/// A frozen model bound to the graph it serves, with the output table
/// every request is answered from.
pub struct ModelService {
    model: FrozenModel,
    ctx: GraphCtx,
    table: Matrix,
}

impl ModelService {
    /// Bind `model` to `ctx` and compute the output table. A pairing
    /// that cannot serve node outputs (feature width, task kind) fails
    /// here, at startup, not on the first request.
    pub fn new(model: FrozenModel, ctx: GraphCtx) -> Result<ModelService, MgError> {
        let table = model.node_outputs(&ctx)?;
        Ok(ModelService { model, ctx, table })
    }

    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// Nodes in the serving graph.
    pub fn n_nodes(&self) -> usize {
        self.ctx.graph.n()
    }

    /// One fresh full deterministic forward over the serving graph;
    /// bitwise equal to the table the service answers from.
    pub fn forward(&self) -> Result<Matrix, MgError> {
        self.model.node_outputs(&self.ctx)
    }

    /// Execute one flush: per-request gathers from the table. Returns
    /// one result per request (in order) and the flush's wall time in
    /// ns. A request that fails (out-of-range id) fails alone and
    /// completely; its companions are unaffected.
    pub fn execute(&self, reqs: Vec<ApiRequest>) -> (Vec<Result<ApiResponse, ServeError>>, u64) {
        let timer = Instant::now();
        let results = reqs.into_iter().map(|req| self.handle_one(req)).collect();
        (results, timer.elapsed().as_nanos() as u64)
    }

    /// Answer one request from the table (pure gather). The socket-level
    /// e2e test takes its reference answers from this, and a traced
    /// perfbench `serve_cora` run times it as `serve.handle_one`.
    pub fn handle_one(&self, req: ApiRequest) -> Result<ApiResponse, ServeError> {
        let h = &self.table;
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

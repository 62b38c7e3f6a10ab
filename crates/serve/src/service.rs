//! The model side: one frozen forward at load, then a pure gather per
//! request.
//!
//! [`ModelService`] owns the (non-`Send`) [`FrozenModel`] and its
//! serving [`GraphCtx`]. The frozen outputs depend only on the graph and
//! the trained parameters, so [`ModelService::new`] computes them once
//! and keeps the matrix as the table every request is answered from.
//! That load-time forward runs on a frozen binding, so its tape frees
//! each checkpoint scope's interiors as the scope closes and peaks at
//! the kept values (parameters, per-level outputs, `h`, `β`, logits)
//! plus one scope; the tape itself is dropped once the table is copied
//! out, leaving only the `n x out_dim` table resident.
//! [`gather`] is the one answer path: the server's connection workers
//! call it on the table they share, and [`ModelService::handle_one`]
//! calls it on its own. Because the table does not depend on any request
//! and a gather reads nothing else, a request's response is bitwise
//! identical however many requests run beside it — the determinism claim
//! the e2e suite verifies over real sockets.

use crate::api::{ApiRequest, ApiResponse, LinksResponse, NodesResponse};
use crate::error::ServeError;
use mg_eval::FrozenModel;
use mg_nn::GraphCtx;
use mg_tensor::{Matrix, MgError};

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

    /// Give up the model and its graph, keeping only the (`Send`) table.
    pub(crate) fn into_table(self) -> Matrix {
        self.table
    }

    /// Answer one request from the table. The socket-level e2e test
    /// takes its reference answers from this, and a traced perfbench
    /// `serve_cora` run times it as `serve.handle_one`.
    pub fn handle_one(&self, req: ApiRequest) -> Result<ApiResponse, ServeError> {
        gather(&self.table, req)
    }
}

/// Answer one request by pure gathers from the output table `h`. An
/// out-of-range id fails the whole request; there are no partial
/// results.
pub(crate) fn gather(h: &Matrix, req: ApiRequest) -> Result<ApiResponse, ServeError> {
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

//! mg-serve: a concurrent online inference service over a frozen
//! AdamGNN checkpoint.
//!
//! The server loads one [`mg_eval::FrozenModel`] at startup and exposes
//! it over hand-rolled HTTP/1.1 on `std::net` (no external deps):
//!
//! * `POST /v1/nodes` — `{"ids": [..]}` → embeddings + argmax labels
//! * `POST /v1/links` — `{"pairs": [[u,v], ..]}` → link scores
//! * `GET /healthz` — model/dataset/task identity
//! * `GET /statsz` — request counters, in-flight depth, pool facts
//!
//! The one frozen forward runs at load, and its output table is kept
//! for the server's lifetime ([`service`]). Each connection worker
//! answers its requests with pure gathers from that table, so responses
//! are bitwise identical however requests interleave. Every rejection
//! path is typed ([`error`]) and every request emits one mg-obs `serve`
//! trace record.
//!
//! See `DESIGN.md` ("mg-serve") for the threading model and the
//! determinism argument in full.

pub mod api;
pub mod error;
pub mod http;
pub mod server;
pub mod service;

pub use api::{ApiRequest, ApiResponse, LinksRequest, LinksResponse, NodesRequest, NodesResponse};
pub use error::ServeError;
pub use http::HttpClient;
pub use server::{ServeConfig, Server};
pub use service::ModelService;

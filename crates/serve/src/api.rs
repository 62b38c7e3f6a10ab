//! The wire types of the inference API, shared by mg-serve's HTTP
//! endpoints and every client of them (the e2e tests and perfbench's
//! `serve_cora` load generator) so the two sides cannot drift.
//!
//! Encoding uses mg-obs's JSON helpers: floats render as Rust's shortest
//! round-tripping decimal, so an `f64` survives encode → decode with its
//! exact bit pattern — the property the concurrent-equals-sequential
//! bitwise guarantee is stated in terms of.

use crate::error::ServeError;
use mg_obs::json::{number, string};
use mg_obs::Json;

/// `POST /v1/nodes` body: node ids to embed and classify.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodesRequest {
    pub ids: Vec<usize>,
}

/// `POST /v1/nodes` response: one embedding row and one argmax label per
/// requested id, in request order.
#[derive(Clone, Debug, PartialEq)]
pub struct NodesResponse {
    pub embeddings: Vec<Vec<f64>>,
    pub labels: Vec<usize>,
}

/// `POST /v1/links` body: node pairs to score.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinksRequest {
    pub pairs: Vec<(usize, usize)>,
}

/// `POST /v1/links` response: `sigma(h_u . h_v)` per pair, in request
/// order.
#[derive(Clone, Debug, PartialEq)]
pub struct LinksResponse {
    pub scores: Vec<f64>,
}

/// One parsed API request, as the answer path sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiRequest {
    Nodes(NodesRequest),
    Links(LinksRequest),
}

/// One API answer, as the answer path produces it.
#[derive(Clone, Debug, PartialEq)]
pub enum ApiResponse {
    Nodes(NodesResponse),
    Links(LinksResponse),
}

impl ApiRequest {
    /// Items (ids or pairs) this request asks about.
    pub fn items(&self) -> usize {
        match self {
            ApiRequest::Nodes(r) => r.ids.len(),
            ApiRequest::Links(r) => r.pairs.len(),
        }
    }
}

/// A JSON number that must be a non-negative integer (a node id).
fn as_index(v: &Json, what: &str) -> Result<usize, ServeError> {
    let x = v.as_f64().ok_or_else(|| ServeError::BadRequest {
        detail: format!("{what} must be a number"),
    })?;
    if x.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&x) {
        return Err(ServeError::BadRequest {
            detail: format!("{what} must be a non-negative integer, got {x}"),
        });
    }
    Ok(x as usize)
}

fn parse_body(body: &str) -> Result<Json, ServeError> {
    Json::parse(body).map_err(|e| ServeError::BadRequest {
        detail: format!("body is not valid JSON: {e}"),
    })
}

fn items_array<'j>(v: &'j Json, key: &str, max_items: usize) -> Result<&'j [Json], ServeError> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::BadRequest {
            detail: format!("body must be an object with an array field {key:?}"),
        })?;
    if arr.len() > max_items {
        return Err(ServeError::Invalid {
            detail: format!(
                "{} items exceed the per-request cap of {max_items}",
                arr.len()
            ),
        });
    }
    Ok(arr)
}

impl NodesRequest {
    /// Decode a `/v1/nodes` body, rejecting anything but
    /// `{"ids": [int, ...]}` with at most `max_items` ids.
    pub fn from_json(body: &str, max_items: usize) -> Result<NodesRequest, ServeError> {
        let v = parse_body(body)?;
        let ids = items_array(&v, "ids", max_items)?
            .iter()
            .map(|x| as_index(x, "node id"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(NodesRequest { ids })
    }

    pub fn to_json(&self) -> String {
        let ids: Vec<String> = self.ids.iter().map(|i| i.to_string()).collect();
        format!("{{\"ids\": [{}]}}", ids.join(", "))
    }
}

impl NodesResponse {
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .embeddings
            .iter()
            .map(|row| {
                let xs: Vec<String> = row.iter().map(|&x| number(x)).collect();
                format!("[{}]", xs.join(", "))
            })
            .collect();
        let labels: Vec<String> = self.labels.iter().map(|l| l.to_string()).collect();
        format!(
            "{{\"n\": {}, \"embeddings\": [{}], \"labels\": [{}]}}",
            self.embeddings.len(),
            rows.join(", "),
            labels.join(", ")
        )
    }

    /// Decode a `/v1/nodes` response body (clients, benches, tests).
    pub fn from_json(body: &str) -> Result<NodesResponse, ServeError> {
        let v = parse_body(body)?;
        let embeddings = v
            .get("embeddings")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeError::BadRequest {
                detail: "response lacks \"embeddings\"".into(),
            })?
            .iter()
            .map(|row| {
                row.as_arr()
                    .ok_or_else(|| ServeError::BadRequest {
                        detail: "embedding row is not an array".into(),
                    })?
                    .iter()
                    .map(|x| {
                        x.as_f64().ok_or_else(|| ServeError::BadRequest {
                            detail: "embedding entry is not a number".into(),
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let labels = v
            .get("labels")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeError::BadRequest {
                detail: "response lacks \"labels\"".into(),
            })?
            .iter()
            .map(|x| as_index(x, "label"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(NodesResponse { embeddings, labels })
    }
}

impl LinksRequest {
    /// Decode a `/v1/links` body, rejecting anything but
    /// `{"pairs": [[int, int], ...]}` with at most `max_items` pairs.
    pub fn from_json(body: &str, max_items: usize) -> Result<LinksRequest, ServeError> {
        let v = parse_body(body)?;
        let pairs = items_array(&v, "pairs", max_items)?
            .iter()
            .map(|p| {
                let p =
                    p.as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| ServeError::BadRequest {
                            detail: "each pair must be a two-element array".into(),
                        })?;
                Ok((as_index(&p[0], "node id")?, as_index(&p[1], "node id")?))
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        Ok(LinksRequest { pairs })
    }

    pub fn to_json(&self) -> String {
        let pairs: Vec<String> = self
            .pairs
            .iter()
            .map(|(u, v)| format!("[{u}, {v}]"))
            .collect();
        format!("{{\"pairs\": [{}]}}", pairs.join(", "))
    }
}

impl LinksResponse {
    pub fn to_json(&self) -> String {
        let xs: Vec<String> = self.scores.iter().map(|&x| number(x)).collect();
        format!(
            "{{\"n\": {}, \"scores\": [{}]}}",
            self.scores.len(),
            xs.join(", ")
        )
    }

    /// Decode a `/v1/links` response body (clients, benches, tests).
    pub fn from_json(body: &str) -> Result<LinksResponse, ServeError> {
        let v = parse_body(body)?;
        let scores = v
            .get("scores")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeError::BadRequest {
                detail: "response lacks \"scores\"".into(),
            })?
            .iter()
            .map(|x| {
                x.as_f64().ok_or_else(|| ServeError::BadRequest {
                    detail: "score is not a number".into(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LinksResponse { scores })
    }
}

impl ApiResponse {
    /// The JSON body this response serializes to.
    pub fn to_json(&self) -> String {
        match self {
            ApiResponse::Nodes(r) => r.to_json(),
            ApiResponse::Links(r) => r.to_json(),
        }
    }
}

/// A health/identity document for `GET /healthz`.
pub fn healthz_body(model: &str, dataset: &str, task: &str, n_nodes: usize) -> String {
    format!(
        "{{\"status\": \"ok\", \"model\": {}, \"dataset\": {}, \"task\": {}, \"n_nodes\": {}}}",
        string(model),
        string(dataset),
        string(task),
        n_nodes
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_request_roundtrips() {
        let req = NodesRequest { ids: vec![0, 7, 3] };
        let back = NodesRequest::from_json(&req.to_json(), 16).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn links_request_roundtrips() {
        let req = LinksRequest {
            pairs: vec![(0, 1), (5, 2)],
        };
        let back = LinksRequest::from_json(&req.to_json(), 16).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn responses_roundtrip_bitwise() {
        // values chosen to stress shortest-round-trip float printing
        let resp = NodesResponse {
            embeddings: vec![
                vec![0.1 + 0.2, -0.0, 1e-300],
                vec![f64::MIN_POSITIVE, 3.5, 2.0],
            ],
            labels: vec![4, 0],
        };
        let back = NodesResponse::from_json(&resp.to_json()).unwrap();
        for (a, b) in resp
            .embeddings
            .iter()
            .flatten()
            .zip(back.embeddings.iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.labels, resp.labels);
        let resp = LinksResponse {
            scores: vec![0.5, 1.0 / 3.0],
        };
        let back = LinksResponse::from_json(&resp.to_json()).unwrap();
        for (a, b) in resp.scores.iter().zip(&back.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn malformed_bodies_reject_typed() {
        for bad in [
            "",                   // empty
            "not json",           // unparseable
            "{\"ids\": 3}",       // wrong type
            "{\"pairs\": [[0]]}", // arity
            "{\"ids\": [1.5]}",   // non-integer id
            "{\"ids\": [-1]}",    // negative id
            "{}",                 // missing field
        ] {
            let n = NodesRequest::from_json(bad, 16);
            let l = LinksRequest::from_json(bad, 16);
            assert!(n.is_err() && l.is_err(), "accepted {bad:?}");
        }
        // over-large requests are a distinct, typed rejection
        let huge = NodesRequest { ids: vec![1; 17] }.to_json();
        match NodesRequest::from_json(&huge, 16) {
            Err(ServeError::Invalid { .. }) => {}
            other => panic!("cap must reject as invalid_input, got {other:?}"),
        }
    }
}

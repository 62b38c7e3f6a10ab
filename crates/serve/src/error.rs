//! Typed request-rejection errors and their HTTP renderings.
//!
//! mg-serve is fail-closed: every way a request can be unacceptable —
//! unreadable HTTP, malformed JSON, out-of-range ids, an over-large
//! payload, a server at capacity — maps to exactly one [`ServeError`] variant,
//! which in turn fixes the HTTP status, a stable machine-readable `code`
//! and a structured JSON error body. A rejected request never receives
//! partial results, and model-side [`MgError`]s surface through the same
//! funnel instead of panicking a worker.

use mg_obs::json::string;
use mg_tensor::MgError;

/// Why a request was rejected (or, for [`ServeError::Internal`], why the
/// server could not answer it).
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The HTTP request or its JSON body never parsed.
    BadRequest { detail: String },
    /// The body parsed but asks for something the model cannot do:
    /// out-of-range node ids, too many items.
    Invalid { detail: String },
    /// Body larger than the configured cap; rejected before reading it.
    PayloadTooLarge { limit: usize, got: usize },
    /// No route at this path.
    NotFound { path: String },
    /// The path exists but not for this method.
    MethodNotAllowed { method: String },
    /// `max_queue` requests are already being answered — explicit
    /// backpressure instead of unbounded buffering.
    Overloaded { depth: usize },
    /// Answering the request panicked; details are server-side state,
    /// not caller input.
    Internal { detail: String },
}

impl ServeError {
    /// The HTTP status this rejection answers with.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest { .. } | ServeError::Invalid { .. } => 400,
            ServeError::NotFound { .. } => 404,
            ServeError::MethodNotAllowed { .. } => 405,
            ServeError::PayloadTooLarge { .. } => 413,
            ServeError::Overloaded { .. } => 503,
            ServeError::Internal { .. } => 500,
        }
    }

    /// Stable machine-readable discriminant for the error body.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::Invalid { .. } => "invalid_input",
            ServeError::PayloadTooLarge { .. } => "payload_too_large",
            ServeError::NotFound { .. } => "not_found",
            ServeError::MethodNotAllowed { .. } => "method_not_allowed",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Internal { .. } => "internal",
        }
    }

    /// Human-readable detail line.
    pub fn detail(&self) -> String {
        match self {
            ServeError::BadRequest { detail }
            | ServeError::Invalid { detail }
            | ServeError::Internal { detail } => detail.clone(),
            ServeError::PayloadTooLarge { limit, got } => {
                format!("body of {got} bytes exceeds the {limit}-byte cap")
            }
            ServeError::NotFound { path } => format!("no route at {path}"),
            ServeError::MethodNotAllowed { method } => {
                format!("method {method} not allowed on this route")
            }
            ServeError::Overloaded { depth } => {
                format!("{depth} requests already in flight; retry later")
            }
        }
    }

    /// The structured JSON error body.
    pub fn body(&self) -> String {
        format!(
            "{{\"error\": {}, \"detail\": {}}}",
            string(self.code()),
            string(&self.detail())
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code(), self.detail())
    }
}

impl std::error::Error for ServeError {}

impl From<MgError> for ServeError {
    fn from(e: MgError) -> ServeError {
        match e {
            MgError::InvalidInput { detail } => ServeError::Invalid { detail },
            other => ServeError::Internal {
                detail: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_obs::Json;

    #[test]
    fn every_variant_has_status_code_and_valid_body() {
        let all = [
            ServeError::BadRequest { detail: "x".into() },
            ServeError::Invalid { detail: "x".into() },
            ServeError::PayloadTooLarge { limit: 10, got: 20 },
            ServeError::NotFound {
                path: "/nope".into(),
            },
            ServeError::MethodNotAllowed {
                method: "PUT".into(),
            },
            ServeError::Overloaded { depth: 8 },
            ServeError::Internal { detail: "x".into() },
        ];
        for e in all {
            assert!((400..=599).contains(&e.status()), "{e}");
            let v = Json::parse(&e.body()).expect("body is valid JSON");
            assert_eq!(v.get("error").unwrap().as_str(), Some(e.code()));
            assert!(v.get("detail").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn mg_errors_map_to_typed_rejections() {
        let e: ServeError = MgError::InvalidInput {
            detail: "id".into(),
        }
        .into();
        assert_eq!(e.status(), 400);
        // a model/graph mismatch fails `Server::start`; at request time
        // it could only be a server fault
        let e: ServeError = MgError::Mismatch {
            detail: "job".into(),
        }
        .into();
        assert_eq!(e.status(), 500);
        let e: ServeError = MgError::BadMagic { found: *b"ELF\x7f" }.into();
        assert_eq!(e.status(), 500);
    }
}

//! A deliberately minimal HTTP/1.1 implementation over `std::net`.
//!
//! Scope: exactly what the inference endpoints need — request line,
//! headers, `Content-Length` bodies, keep-alive, and fixed-length JSON
//! responses. No chunked encoding, no TLS, no compression; anything
//! outside that scope is a typed 400. Limits are enforced *while*
//! reading (line length, header count, body cap), so a hostile peer
//! cannot balloon memory before validation runs.

use crate::error::ServeError;
use std::io::{BufRead, Read, Write};

/// Longest accepted request/header line, bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 100;
/// Cap on the *total* bytes of all header lines in one request. Without
/// it a client could stream `MAX_HEADERS` lines of `MAX_LINE` bytes each
/// (~800 KiB) per request, or restart the count on keep-alive forever.
const MAX_HEADER_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    pub body: String,
    /// Whether the connection should serve another request after this
    /// one (HTTP/1.1 default unless `Connection: close`).
    pub keep_alive: bool,
}

/// Read one CRLF- (or LF-) terminated line, capped at [`MAX_LINE`].
/// `Ok(None)` is clean EOF before any byte of the line.
fn read_line(r: &mut impl BufRead) -> Result<Option<String>, ServeError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(ServeError::BadRequest {
                    detail: "connection closed mid-line".into(),
                });
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| ServeError::BadRequest {
                            detail: "request line is not UTF-8".into(),
                        });
                }
                if line.len() >= MAX_LINE {
                    return Err(ServeError::BadRequest {
                        detail: format!("header line exceeds {MAX_LINE} bytes"),
                    });
                }
                line.push(byte[0]);
            }
            Err(e)
                if line.is_empty()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                // idle timeout between requests: close, don't 400
                return Ok(None);
            }
            Err(e) => {
                return Err(ServeError::BadRequest {
                    detail: format!("read failed: {e}"),
                })
            }
        }
    }
}

/// Read and validate one request. `Ok(None)` means the client closed
/// the connection cleanly between requests (normal keep-alive end).
pub fn read_request(
    r: &mut impl BufRead,
    max_body: usize,
) -> Result<Option<HttpRequest>, ServeError> {
    let Some(request_line) = read_line(r)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => {
            return Err(ServeError::BadRequest {
                detail: format!("malformed request line {request_line:?}"),
            })
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::BadRequest {
            detail: format!("unsupported protocol {version:?}"),
        });
    }
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length: usize = 0;
    let mut header_bytes: usize = 0;
    for n in 0.. {
        if n >= MAX_HEADERS {
            return Err(ServeError::BadRequest {
                detail: format!("more than {MAX_HEADERS} headers"),
            });
        }
        let line = read_line(r)?.ok_or_else(|| ServeError::BadRequest {
            detail: "connection closed inside headers".into(),
        })?;
        if line.is_empty() {
            break;
        }
        // +2 for the CRLF stripped by read_line; fail closed once the
        // running total passes the cap, before parsing the line
        header_bytes += line.len() + 2;
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ServeError::PayloadTooLarge {
                limit: MAX_HEADER_BYTES,
                got: header_bytes,
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServeError::BadRequest {
                detail: format!("malformed header {line:?}"),
            });
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| ServeError::BadRequest {
                    detail: format!("unreadable Content-Length {value:?}"),
                })?;
                // reject before reading a byte of an over-large body
                if content_length > max_body {
                    return Err(ServeError::PayloadTooLarge {
                        limit: max_body,
                        got: content_length,
                    });
                }
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
            "transfer-encoding" => {
                return Err(ServeError::BadRequest {
                    detail: "chunked bodies are not supported; send Content-Length".into(),
                });
            }
            _ => {}
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)
        .map_err(|e| ServeError::BadRequest {
            detail: format!("body shorter than Content-Length: {e}"),
        })?;
    let body = String::from_utf8(body).map_err(|_| ServeError::BadRequest {
        detail: "body is not UTF-8".into(),
    })?;
    Ok(Some(HttpRequest {
        method,
        path,
        body,
        keep_alive,
    }))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// Write one fixed-length JSON response.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        body
    )?;
    w.flush()
}

/// A keep-alive client connection for tests and benches: issues
/// requests sequentially over one TCP stream and parses the fixed-length
/// responses the server writes.
pub struct HttpClient {
    stream: std::io::BufReader<std::net::TcpStream>,
}

impl HttpClient {
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<HttpClient> {
        let stream = std::net::TcpStream::connect(addr)?;
        Ok(HttpClient {
            stream: std::io::BufReader::new(stream),
        })
    }

    /// Send one request and read the response: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let body = body.unwrap_or("");
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.get_mut().write_all(msg.as_bytes())?;
        self.read_response()
    }

    /// Send raw bytes (malformed-request tests) and read the response.
    pub fn request_raw(&mut self, raw: &[u8]) -> std::io::Result<(u16, String)> {
        self.stream.get_mut().write_all(raw)?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut status_line = String::new();
        self.stream.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("bad status line {status_line:?}")))?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.stream.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.stream.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("body not UTF-8"))?;
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str, max_body: usize) -> Result<Option<HttpRequest>, ServeError> {
        read_request(&mut Cursor::new(raw.as_bytes()), max_body)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /v1/nodes HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"ids\":[0]}",
            1024,
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/nodes");
        assert_eq!(req.body, "{\"ids\":[0]}");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 64)
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET /healthz HTTP/1.0\r\n\r\n", 64).unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn eof_before_any_request_is_clean() {
        assert_eq!(parse("", 64).unwrap(), None);
    }

    #[test]
    fn malformed_requests_reject_typed() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab", // truncated body
        ] {
            match parse(raw, 1024) {
                Err(ServeError::BadRequest { .. }) => {}
                other => panic!("{raw:?} must be a BadRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_bodies_reject_before_reading() {
        match parse("POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n", 10) {
            Err(ServeError::PayloadTooLarge {
                limit: 10,
                got: 100,
            }) => {}
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
    }

    /// Yields a request line followed by header lines forever — a
    /// hostile client that never sends the blank line.
    struct EndlessHeaders {
        pos: usize,
        prefix: Vec<u8>,
        line: Vec<u8>,
    }

    impl Read for EndlessHeaders {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            for b in buf.iter_mut() {
                *b = if self.pos < self.prefix.len() {
                    let x = self.prefix[self.pos];
                    self.pos += 1;
                    x
                } else {
                    let off = (self.pos - self.prefix.len()) % self.line.len();
                    self.pos += 1;
                    self.line[off]
                };
            }
            Ok(buf.len())
        }
    }

    #[test]
    fn endless_header_stream_rejects_at_byte_cap() {
        let mut r = std::io::BufReader::new(EndlessHeaders {
            pos: 0,
            prefix: b"GET /healthz HTTP/1.1\r\n".to_vec(),
            line: format!("X-Pad: {}\r\n", "a".repeat(500)).into_bytes(),
        });
        match read_request(&mut r, 1024) {
            Err(ServeError::PayloadTooLarge { limit, got }) => {
                assert_eq!(limit, 8 * 1024);
                // rejected within one line of the cap, not megabytes later
                assert!(got <= 8 * 1024 + 512, "got = {got}");
            }
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn header_bytes_under_cap_still_parse() {
        // ~60 headers of ~100 bytes ≈ 6 KiB < 8 KiB, but > MAX default line
        let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..58 {
            raw.push_str(&format!("X-Filler-{i:03}: {}\r\n", "v".repeat(80)));
        }
        raw.push_str("\r\n");
        let req = parse(&raw, 64).unwrap().unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn response_writer_emits_parseable_http() {
        let mut buf = Vec::new();
        write_response(&mut buf, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }
}

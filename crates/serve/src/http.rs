//! Minimal HTTP/1.1 request parsing and response writing over
//! `std::net::TcpStream` — the wire code of the server runtime
//! ([`crate::server`]), so of the query API and of the federation front
//! alike: `GET` requests with query strings and `POST` requests with a
//! `Content-Length` body, head and body sizes bounded
//! ([`MAX_HEAD_BYTES`], [`MAX_BODY_BYTES`]), `Connection: close`
//! semantics (one request per connection keeps the worker pool and the
//! shutdown path simple). Socket timeouts are the caller's: the parser
//! honors whatever the stream carries.

use crate::api::HttpResponse;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body — sized for `POST /admin/ingest`,
/// whose body is a JSON-encoded micro-batch delta.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a header (names are lowercased during parsing).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Canonical cache key: path plus sorted query pairs, so equivalent
    /// requests written in different parameter orders share an entry.
    pub fn cache_key(&self) -> String {
        let mut pairs: Vec<&(String, String)> = self.query.iter().collect();
        pairs.sort();
        let mut out = self.path.clone();
        for (k, v) in pairs {
            out.push('\u{1}');
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out
    }
}

/// Why a request could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or encoding.
    Malformed(String),
    /// Head or body exceeded the configured bound.
    TooLarge,
    /// The peer closed or timed out before a full request arrived.
    Disconnected,
}

/// Read and parse one request from the stream. Honors the stream's
/// configured read timeout: a slow-loris peer surfaces as
/// [`HttpError::Disconnected`] when the socket timer fires.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            if pos > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge);
            }
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES + 3 {
            return Err(HttpError::TooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(HttpError::Disconnected),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version {version:?}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(HttpError::Disconnected),
        }
    }
    body.truncate(content_length);

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)?;
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k)?, percent_decode(v)?));
        }
    }

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Decode `%XX` escapes and `+` (as space).
fn percent_decode(s: &str) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| HttpError::Malformed("truncated % escape".into()))?;
                let hex = std::str::from_utf8(hex)
                    .map_err(|_| HttpError::Malformed("bad % escape".into()))?;
                let b = u8::from_str_radix(hex, 16)
                    .map_err(|_| HttpError::Malformed(format!("bad %{hex} escape")))?;
                out.push(b);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::Malformed("decoded bytes not UTF-8".into()))
}

/// Canonical reason phrase for the statuses this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response — status, content type, extra headers
/// (`X-Request-Id`, `Retry-After`, …), body — and flush. `Connection:
/// close` is always sent: the server serves one request per connection.
/// Header values must not contain CR/LF — anything after one is dropped
/// rather than injected.
pub fn write_response(stream: &mut TcpStream, resp: &HttpResponse) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.headers {
        let name = name.split(['\r', '\n']).next().unwrap_or_default();
        let value = value.split(['\r', '\n']).next().unwrap_or_default();
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Feed raw bytes through a real socket pair and parse.
    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        read_request(&mut server_side)
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse_raw(b"GET /cell?cell=a,b&level=loc0%2Fdur0 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/cell");
        assert_eq!(req.param("cell"), Some("a,b"));
        assert_eq!(req.param("level"), Some("loc0/dur0"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn cache_key_is_order_insensitive() {
        let a = parse_raw(b"GET /x?b=2&a=1 HTTP/1.1\r\n\r\n").unwrap();
        let b = parse_raw(b"GET /x?a=1&b=2 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            parse_raw(b"NONSENSE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"GET /x SPDY/3\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"GET /x?a=%zz HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert_eq!(parse_raw(b"GET /inco"), Err(HttpError::Disconnected));
    }

    #[test]
    fn reads_body_by_content_length() {
        let req = parse_raw(b"POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello trailing-ignored")
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn oversized_head_rejected() {
        let mut raw = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse_raw(&raw), Err(HttpError::TooLarge));
    }
}

//! Minimal HTTP/1.1 request parsing and response writing — the wire
//! code of the server runtime ([`crate::server`]), so of the query API
//! and of the federation front alike: `GET` requests with query strings
//! and `POST` requests with a `Content-Length` body, head and body sizes
//! bounded ([`MAX_HEAD_BYTES`], [`MAX_BODY_BYTES`]).
//!
//! Connections persist (RFC 9112 §9.3). A connection carries a **carry
//! buffer**: [`read_request`] consumes exactly one request from its
//! front, and whatever was read past that request's `Content-Length`
//! stays there for the next call — a second pipelined request is never
//! thrown away and never glued to the first. Every response states
//! whether the server keeps the socket (`Connection: keep-alive`) or
//! closes it (`Connection: close`); [`read_request`] reports what the
//! client asked for, the runtime decides.
//!
//! Because a mis-framed body would desynchronise every later request on
//! the socket, a request whose length cannot be known for certain —
//! `Transfer-Encoding`, several `Content-Length`s, a `Content-Length`
//! that is not plain digits — is rejected, not guessed at
//! ([`content_length`], the rule the federation front also reads shard
//! responses by). Socket timeouts are the caller's: the parser honors
//! whatever the stream carries.

use crate::api::HttpResponse;
use std::fmt::Write as _;
use std::io::{Read, Write};

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body — sized for `POST /admin/ingest`,
/// whose body is a JSON-encoded micro-batch delta.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Most connections a server holds open between requests. One more and
/// the longest-idle one is closed, which an HTTP/1.1 client must
/// tolerate at any time anyway. Half of the usual 1024 soft limit on
/// file descriptors, so that idle clients cannot starve `accept`.
pub const MAX_IDLE_CONNECTIONS: usize = 512;

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

/// One request off the front of a buffer, or how much buffer it needs.
enum Parsed {
    Complete {
        request: Request,
        /// The client allows the connection to persist.
        keep_alive: bool,
        /// Bytes of the buffer the request occupied.
        used: usize,
    },
    /// The buffer must grow to at least `need` bytes before another look
    /// can tell more.
    Partial { need: usize },
}

/// Read one request: parse it off the front of `carry` (the bytes this
/// connection has read and not yet consumed), reading from `stream` only
/// while the request is incomplete. On success the request's own bytes
/// are consumed and anything behind them stays in `carry` for the next
/// call; the flag says whether the client allows the connection to
/// persist (HTTP/1.1 without `Connection: close`, or HTTP/1.0 with
/// `Connection: keep-alive`).
///
/// Honors the stream's configured read timeout: a slow-loris peer
/// surfaces as [`HttpError::Disconnected`] when the socket timer fires.
/// After any error the stream position is unknown and the connection
/// must be closed.
pub fn read_request(
    stream: &mut impl Read,
    carry: &mut Vec<u8>,
) -> Result<(Request, bool), HttpError> {
    loop {
        match parse(carry)? {
            Parsed::Complete {
                request,
                keep_alive,
                used,
            } => {
                carry.drain(..used);
                return Ok((request, keep_alive));
            }
            Parsed::Partial { need } => {
                while carry.len() < need {
                    fill(stream, carry, need)?;
                }
            }
        }
    }
}

/// Would [`read_request`] return without touching the socket? True when
/// a pipelined request (or a rejection) is already decided by `carry`.
pub fn request_buffered(carry: &[u8]) -> bool {
    !matches!(parse(carry), Ok(Parsed::Partial { .. }))
}

/// One `read` onto the end of `carry`, sized by what is still missing.
fn fill(stream: &mut impl Read, carry: &mut Vec<u8>, need: usize) -> Result<(), HttpError> {
    let have = carry.len();
    carry.resize(have + (need - have).clamp(1024, 64 * 1024), 0);
    let n = stream.read(&mut carry[have..]).unwrap_or(0);
    carry.truncate(have + n);
    if n == 0 {
        return Err(HttpError::Disconnected);
    }
    Ok(())
}

fn parse(buf: &[u8]) -> Result<Parsed, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES + 3 {
            return Err(HttpError::TooLarge);
        }
        return Ok(Parsed::Partial {
            need: buf.len() + 1,
        });
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge);
    }
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

    let content_length =
        content_length(headers.iter().map(|(k, v)| (k.as_str(), v.as_str())))?.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let used = head_end + 4 + content_length;
    if buf.len() < used {
        return Ok(Parsed::Partial { need: used });
    }

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

    // `close` wins over `keep-alive`; HTTP/1.1 persists unless told
    // otherwise, HTTP/1.0 only when asked to.
    let asks = |wanted: &str| {
        headers
            .iter()
            .filter(|(k, _)| k == "connection")
            .flat_map(|(_, v)| v.split(','))
            .any(|token| token.trim().eq_ignore_ascii_case(wanted))
    };
    let keep_alive = !asks("close") && (version == "HTTP/1.1" || asks("keep-alive"));

    Ok(Parsed::Complete {
        request: Request {
            method: method.to_string(),
            path,
            query,
            headers,
            body: buf[head_end + 4..used].to_vec(),
        },
        keep_alive,
        used,
    })
}

/// The body length a head's `(name, value)` header fields declare —
/// `None` when they declare none — or a refusal, when it cannot be known
/// for certain. Names match in any case; values are trimmed. On a
/// persistent connection a wrong guess hands body bytes to the parser as
/// the next message (request smuggling), so requests and the federation
/// front's shard responses are framed by this one rule.
pub fn content_length<'h>(
    headers: impl IntoIterator<Item = (&'h str, &'h str)>,
) -> Result<Option<usize>, HttpError> {
    let mut declared = None;
    for (name, value) in headers {
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed(
                "transfer-encoding is not supported".into(),
            ));
        }
        if name.eq_ignore_ascii_case("content-length") && declared.replace(value.trim()).is_some() {
            return Err(HttpError::Malformed("more than one content-length".into()));
        }
    }
    let Some(value) = declared else {
        return Ok(None);
    };
    // `str::parse` alone would accept a leading `+`.
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed(format!(
            "bad content-length {value:?}"
        )));
    }
    // All digits and still unparseable: more than a `usize` holds.
    value.parse().map(Some).map_err(|_| HttpError::TooLarge)
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

/// Write a complete response — status, content type, the connection's
/// fate, extra headers (`X-Request-Id`, `Retry-After`, …), body — in
/// one `write`: a head and a body written apart meet Nagle's algorithm
/// and the peer's delayed ACK on a reused connection. `keep_alive` must
/// say what the caller then does with the socket. Header values must
/// not contain CR/LF — anything after one is dropped rather than
/// injected.
pub fn write_response(
    stream: &mut impl Write,
    resp: &HttpResponse,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out = String::with_capacity(256 + resp.body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    );
    out.push_str(if keep_alive {
        "Connection: keep-alive\r\n"
    } else {
        "Connection: close\r\n"
    });
    for (name, value) in &resp.headers {
        let name = name.split(['\r', '\n']).next().unwrap_or_default();
        let value = value.split(['\r', '\n']).next().unwrap_or_default();
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(&resp.body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A peer whose bytes arrive in exactly the given chunks, then EOF.
    struct Chunked<'a> {
        bytes: &'a [u8],
        chunks: std::vec::IntoIter<usize>,
    }

    impl<'a> Chunked<'a> {
        fn new(bytes: &'a [u8], chunks: Vec<usize>) -> Self {
            Chunked {
                bytes,
                chunks: chunks.into_iter(),
            }
        }
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            // Past the listed chunks the rest arrives byte by byte.
            let chunk = self.chunks.next().unwrap_or(1).max(1);
            let n = chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Parse the first request of a stream that then ends.
    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Chunked::new(raw, vec![raw.len()]), &mut Vec::new()).map(|(req, _)| req)
    }

    fn keeps_alive(raw: &[u8]) -> bool {
        read_request(&mut Chunked::new(raw, vec![raw.len()]), &mut Vec::new())
            .expect("parses")
            .1
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
    fn bytes_past_content_length_belong_to_the_next_request() {
        let raw = b"POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /next HTTP/1.1\r\n\r\n";
        let mut stream = Chunked::new(raw, vec![raw.len()]);
        let mut carry = Vec::new();
        let (first, _) = read_request(&mut stream, &mut carry).unwrap();
        assert_eq!(first.body, b"hello");
        assert!(request_buffered(&carry), "the GET is already in the carry");
        let (second, _) = read_request(&mut stream, &mut carry).unwrap();
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/next")
        );
        assert!(carry.is_empty() && !request_buffered(&carry));
    }

    #[test]
    fn unframeable_requests_are_rejected() {
        for head in [
            "Transfer-Encoding: chunked",
            "Content-Length: 5\r\nTransfer-Encoding: chunked",
            "Content-Length: 5\r\nContent-Length: 5",
            "Content-Length: +5",
            "Content-Length: 5, 5",
            "Content-Length: 5x",
            "Content-Length: -1",
            "Content-Length:",
        ] {
            let raw = format!("POST /q HTTP/1.1\r\n{head}\r\n\r\nhello");
            assert!(
                matches!(parse_raw(raw.as_bytes()), Err(HttpError::Malformed(_))),
                "{head:?} must not be guessed at"
            );
        }
        let huge = format!("POST /q HTTP/1.1\r\nContent-Length: {}0\r\n\r\n", u64::MAX);
        assert_eq!(parse_raw(huge.as_bytes()), Err(HttpError::TooLarge));
    }

    #[test]
    fn connection_header_and_version_decide_persistence() {
        assert!(keeps_alive(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!keeps_alive(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!keeps_alive(
            b"GET / HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n"
        ));
        assert!(!keeps_alive(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(keeps_alive(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        ));
    }

    #[test]
    fn oversized_head_rejected() {
        let mut raw = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse_raw(&raw), Err(HttpError::TooLarge));
    }

    #[test]
    fn response_is_one_write_and_names_the_connections_fate() {
        /// Counts `write` calls.
        struct Sink(Vec<u8>, usize);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.extend_from_slice(buf);
                self.1 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut resp = HttpResponse::json(200, "{}".into());
        resp.headers.push(("X-A".into(), "v\r\nInjected: 1".into()));
        for (keep_alive, want) in [
            (true, "Connection: keep-alive"),
            (false, "Connection: close"),
        ] {
            let mut sink = Sink(Vec::new(), 0);
            write_response(&mut sink, &resp, keep_alive).unwrap();
            let text = String::from_utf8(sink.0).unwrap();
            assert_eq!(sink.1, 1, "head and body leave in one write");
            assert!(text.contains(want), "{text}");
            assert!(
                text.contains("X-A: v\r\n") && !text.contains("Injected"),
                "{text}"
            );
            assert!(text.ends_with("\r\n\r\n{}"), "{text}");
        }
    }

    /// `(is_post, query value, body length)` → raw bytes and the request
    /// they must parse to.
    fn wire(spec: &(bool, u32, usize), i: usize) -> (Vec<u8>, Request) {
        let &(is_post, value, body_len) = spec;
        // A body that reads like request heads.
        const NOISE: &[u8] = b"GET /x HTTP/1.1\r\n\r\nContent-Length: 9\r\n";
        let body: Vec<u8> = if is_post {
            (0..body_len)
                .map(|b| NOISE[(b + i) % NOISE.len()])
                .collect()
        } else {
            Vec::new()
        };
        let mut raw = if is_post {
            format!(
                "POST /admin/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
        } else {
            format!("GET /cell?cell=a%2C{value}&n={i} HTTP/1.1\r\nHost: t\r\n\r\n")
        }
        .into_bytes();
        raw.extend_from_slice(&body);
        let request = Request {
            method: if is_post { "POST" } else { "GET" }.into(),
            path: if is_post { "/admin/ingest" } else { "/cell" }.into(),
            query: if is_post {
                Vec::new()
            } else {
                vec![
                    ("cell".into(), format!("a,{value}")),
                    ("n".into(), i.to_string()),
                ]
            },
            headers: std::iter::once(("host".to_string(), "t".to_string()))
                .chain(is_post.then(|| ("content-length".to_string(), body.len().to_string())))
                .collect(),
            body,
        };
        (raw, request)
    }

    /// Every request `read_request` yields before the stream runs dry.
    fn drain(stream: &mut impl Read) -> (Vec<Request>, HttpError) {
        let mut carry = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_request(stream, &mut carry) {
                Ok((req, _)) => out.push(req),
                Err(e) => return (out, e),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Up to four requests back to back parse to the same requests
        /// however the bytes are cut into reads — bodies made of bytes
        /// that look like request heads included.
        #[test]
        fn framing_is_chunking_independent(
            specs in prop::collection::vec((0u8..2, 0u32..1000, 0usize..4096), 1..=4),
            chunks in prop::collection::vec(1usize..700, 0..40),
        ) {
            let specs: Vec<(bool, u32, usize)> =
                specs.into_iter().map(|(p, v, n)| (p == 1, v, n)).collect();
            let (mut raw, mut want) = (Vec::new(), Vec::new());
            for (i, spec) in specs.iter().enumerate() {
                let (bytes, request) = wire(spec, i);
                raw.extend_from_slice(&bytes);
                want.push(request);
            }
            let (got, end) = drain(&mut Chunked::new(&raw, chunks));
            prop_assert_eq!(got, want);
            prop_assert_eq!(end, HttpError::Disconnected);
        }

        /// A stream cut at any byte yields the requests that were
        /// complete before the cut, then `Disconnected` — never a panic,
        /// never a request assembled across the cut.
        #[test]
        fn truncation_yields_the_complete_prefix(
            specs in prop::collection::vec((0u8..2, 0u32..1000, 0usize..300), 1..=4),
            chunk in 1usize..200,
        ) {
            let specs: Vec<(bool, u32, usize)> =
                specs.into_iter().map(|(p, v, n)| (p == 1, v, n)).collect();
            let (mut raw, mut want, mut ends) = (Vec::new(), Vec::new(), Vec::new());
            for (i, spec) in specs.iter().enumerate() {
                let (bytes, request) = wire(spec, i);
                raw.extend_from_slice(&bytes);
                want.push(request);
                ends.push(raw.len());
            }
            for cut in 0..=raw.len() {
                let complete = ends.iter().filter(|&&e| e <= cut).count();
                let (got, end) = drain(&mut Chunked::new(&raw[..cut], vec![chunk; cut / chunk + 1]));
                prop_assert_eq!(&got[..], &want[..complete], "cut at {}", cut);
                prop_assert_eq!(end, HttpError::Disconnected, "cut at {}", cut);
            }
        }
    }
}

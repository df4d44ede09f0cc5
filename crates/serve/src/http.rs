//! The HTTP/1.1 wire code of both tiers: the server runtime
//! ([`crate::server`]) reads requests, and the federation front reads its
//! shards' responses, through one incremental [`Framer`] by one rule
//! (RFC 9112, [`Framer::head`]): a head ends within [`MAX_HEAD_BYTES`],
//! blank line included; the start line names `HTTP/1.x`; every header
//! line has a colon; and a connection persists by §9.3. A body whose
//! length cannot be known for certain — `Transfer-Encoding`, several
//! `Content-Length`s, one that is not plain digits — is refused, not
//! guessed at: a wrong guess would desynchronise every later message on
//! a persistent connection.
//!
//! A connection's framer owns its **carry buffer**: the bytes read and
//! not yet consumed, and how far they were scanned for a head's end, so
//! each byte is scanned once. [`read_request`] consumes exactly one
//! request from its front; bytes read past it stay for the next call — a
//! pipelined request is never thrown away and never glued to the first.
//! It reports whether the client lets the connection persist; the runtime
//! decides, and every response says which (`Connection: keep-alive` or
//! `close`). Socket timeouts are the caller's. The target's encoder for
//! the front's hop to a shard, [`rebuild_target`], lives next to its
//! decoder.

use crate::api::HttpResponse;
use std::fmt::Write as _;
use std::io::{self, Read, Write};

/// Largest accepted head (start line, header lines and the blank line
/// that ends them), in either direction.
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

/// Why a message could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed start line, header, framing or encoding.
    Malformed(String),
    /// The head did not end within [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body is over [`MAX_BODY_BYTES`], or over what a
    /// `usize` holds.
    BodyTooLarge,
    /// The peer closed or timed out before a full request arrived.
    Disconnected,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(detail) => f.write_str(detail),
            HttpError::HeadTooLarge => write!(f, "head over {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge => f.write_str("body too large"),
            HttpError::Disconnected => f.write_str("connection closed"),
        }
    }
}

/// Which start line a [`Framer`] reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Start {
    /// `method SP target SP version`: the framer reads requests.
    Request,
    /// `version SP status [SP reason]`: the framer reads responses.
    Status,
}

/// A head at the front of a [`Framer`]'s buffer, checked.
#[derive(Debug)]
pub struct Head<'a> {
    /// The start line's three fields in wire order: method, target and
    /// version for a request; version, status and reason phrase (maybe
    /// empty) for a response.
    pub start: [&'a str; 3],
    /// The header lines.
    lines: &'a str,
    /// Bytes of the head, blank line included: where the body starts.
    pub len: usize,
    /// The body length the header fields declare, if any.
    pub content_length: Option<usize>,
    /// The sender allows the connection to persist (RFC 9112 §9.3).
    pub keep_alive: bool,
    /// What the buffer holds past the head: the body or its start, and
    /// whatever follows it.
    pub rest: &'a [u8],
}

impl<'a> Head<'a> {
    /// The header fields as `(name, value)`, both trimmed, names as sent.
    fn fields(&self) -> impl Iterator<Item = (&'a str, &'a str)> + Clone {
        (self.lines.split("\r\n"))
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name.trim(), value.trim()))
    }
}

/// The incremental reader of one connection's messages, requests or
/// responses: its carry buffer, and how far that buffer was scanned for
/// the end of the head at its front.
#[derive(Debug)]
pub struct Framer {
    start: Start,
    buf: Vec<u8>,
    /// How much of `buf` was scanned for the end of the head without a
    /// find.
    scanned: usize,
    /// The head at the front of `buf`, once found: its length and the
    /// body length it declares.
    found: Option<(usize, Option<usize>)>,
}

impl Framer {
    pub fn new(start: Start) -> Framer {
        Framer {
            start,
            buf: Vec::new(),
            scanned: 0,
            found: None,
        }
    }

    /// Bytes held: read and not yet consumed.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One `read` from `stream` onto the end of the buffer, sized by what
    /// the message still needs plus a byte, so that bytes past it that
    /// have already arrived are seen — 1 to 64 KiB, so that a small
    /// message costs one small buffer — and, while no head is found, no
    /// further than [`MAX_HEAD_BYTES`]: a peer that dribbles an endless
    /// head costs that much memory, no more. `Ok(0)` is the end of the
    /// stream.
    pub fn read_from(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        let have = self.buf.len();
        let (need, room) = match self.found {
            Some((len, body)) => (len.saturating_add(body.unwrap_or(0)), usize::MAX),
            None => (0, MAX_HEAD_BYTES.saturating_sub(have)),
        };
        let want = (need.saturating_sub(have) + 1)
            .clamp(1024, 64 * 1024)
            .min(room);
        self.buf.resize(have + want, 0);
        let read = stream.read(&mut self.buf[have..]);
        self.buf.truncate(have + read.as_ref().map_or(0, |&n| n));
        read
    }

    /// The head at the front of the buffer, checked, once it is whole:
    /// `None` while its blank line has not arrived. Only bytes read since
    /// the last look are scanned for that line.
    pub fn head(&mut self) -> Result<Option<Head<'_>>, HttpError> {
        let len = match self.found {
            Some((len, _)) => len,
            None => {
                let end = self.buf.len().min(MAX_HEAD_BYTES);
                // The blank line may straddle the previous read's end.
                let from = self.scanned.saturating_sub(3);
                match self.buf[from..end]
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                {
                    Some(pos) => from + pos + 4,
                    None if end == MAX_HEAD_BYTES => return Err(HttpError::HeadTooLarge),
                    None => {
                        self.scanned = end;
                        return Ok(None);
                    }
                }
            }
        };
        let head = check_head(&self.buf, len, self.start)?;
        self.found = Some((len, head.content_length));
        Ok(Some(head))
    }

    /// Drop the first `n` bytes: a message that was read whole.
    fn consume(&mut self, n: usize) {
        self.buf.drain(..n);
        self.scanned = 0;
        self.found = None;
    }
}

/// The head that is `buf[..len]`, blank line included, split and checked.
fn check_head(buf: &[u8], len: usize, kind: Start) -> Result<Head<'_>, HttpError> {
    let text = std::str::from_utf8(&buf[..len - 4])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let (line, lines) = text.split_once("\r\n").unwrap_or((text, ""));
    let mut parts = line.splitn(3, ' ');
    let start = [(); 3].map(|()| parts.next().unwrap_or_default());
    let version = start[if kind == Start::Request { 2 } else { 0 }];
    // `HTTP/1.` and one digit: so a request line with a fourth field
    // has no version.
    let minor = version.strip_prefix("HTTP/1.").unwrap_or_default();
    if !(minor.len() == 1 && minor.as_bytes()[0].is_ascii_digit())
        || kind == Start::Request && start[..2].contains(&"")
    {
        return Err(HttpError::Malformed(format!("bad start line {line:?}")));
    }
    // One pass over the fields. A body length in doubt is refused: on a
    // persistent connection a wrong guess hands body bytes to the reader
    // as the next message (request smuggling).
    let (mut declared, mut close, mut keep_alive) = (None, false, false);
    for line in lines.split("\r\n").filter(|line| !line.is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header {line:?}")));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed(
                "transfer-encoding is not supported".into(),
            ));
        }
        if name.eq_ignore_ascii_case("content-length") && declared.replace(value).is_some() {
            return Err(HttpError::Malformed("more than one content-length".into()));
        }
        if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',').map(str::trim) {
                close |= token.eq_ignore_ascii_case("close");
                keep_alive |= token.eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    Ok(Head {
        start,
        lines,
        len,
        content_length: declared.map(content_length).transpose()?,
        // `close` wins over `keep-alive`; HTTP/1.1 persists unless told
        // otherwise, HTTP/1.0 only when asked to.
        keep_alive: !close && (version == "HTTP/1.1" || keep_alive),
        rest: &buf[len..],
    })
}

/// A `Content-Length` value: plain digits, or a refusal.
fn content_length(value: &str) -> Result<usize, HttpError> {
    // `str::parse` alone would accept a leading `+`.
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed(format!(
            "bad content-length {value:?}"
        )));
    }
    // All digits and still unparseable: more than a `usize` holds.
    value.parse().map_err(|_| HttpError::BodyTooLarge)
}

/// Read one request: take it off the front of `conn` (the bytes this
/// connection has read and not yet consumed), reading from `stream` only
/// while the request is incomplete. On success the request's own bytes
/// are consumed and anything behind them stays in `conn` for the next
/// call; the flag says whether the client allows the connection to
/// persist. A request without `Content-Length` has no body.
///
/// Honors the stream's configured read timeout: a slow-loris peer
/// surfaces as [`HttpError::Disconnected`] when the socket timer fires.
/// After any error the stream position is unknown and the connection
/// must be closed.
pub fn read_request(
    stream: &mut impl Read,
    conn: &mut Framer,
) -> Result<(Request, bool), HttpError> {
    loop {
        if let Some(head) = conn.head()? {
            let body_len = body_len(&head)?;
            if head.rest.len() >= body_len {
                let request = parse_request(&head, &head.rest[..body_len])?;
                let (used, keep_alive) = (head.len + body_len, head.keep_alive);
                conn.consume(used);
                return Ok((request, keep_alive));
            }
        }
        match conn.read_from(stream) {
            Ok(1..) => {}
            _ => return Err(HttpError::Disconnected),
        }
    }
}

/// Would [`read_request`] return without touching the socket? True when
/// a pipelined request (or a rejection) is already decided by `conn`.
pub fn request_buffered(conn: &mut Framer) -> bool {
    match conn.head() {
        Ok(Some(head)) => body_len(&head).map_or(true, |n| head.rest.len() >= n),
        Ok(None) => false,
        Err(_) => true,
    }
}

/// A request body's length: as declared, 0 when not, refused over the
/// cap.
fn body_len(head: &Head) -> Result<usize, HttpError> {
    match head.content_length.unwrap_or(0) {
        n if n > MAX_BODY_BYTES => Err(HttpError::BodyTooLarge),
        n => Ok(n),
    }
}

/// The request a checked head and its body make: target decoded, header
/// names lowercased.
fn parse_request(head: &Head, body: &[u8]) -> Result<Request, HttpError> {
    let [method, target, _] = head.start;
    let (raw_path, raw_query) = target.split_once('?').unwrap_or((target, ""));
    let mut query = Vec::new();
    for pair in raw_query.split('&').filter(|pair| !pair.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(Request {
        method: method.to_string(),
        path: percent_decode(raw_path)?,
        query,
        headers: head
            .fields()
            .map(|(name, value)| (name.to_ascii_lowercase(), value.to_string()))
            .collect(),
        body: body.to_vec(),
    })
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

/// The request's path and query, encoded for the front's hop to a
/// shard. `percent_decode` decoded `%XX` and `+`; this escapes every
/// byte that is not printable ASCII (so a decoded CR LF cannot split the
/// request line, and a UTF-8 name crosses the hop as its own bytes) and
/// the query delimiters.
pub fn rebuild_target(req: &Request) -> String {
    let mut target = req.path.clone();
    for (i, (k, v)) in req.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        encode_component(&mut target, k);
        target.push('=');
        encode_component(&mut target, v);
    }
    target
}

fn encode_component(out: &mut String, s: &str) {
    for b in s.bytes() {
        if b.is_ascii_graphic() && !matches!(b, b'%' | b'&' | b'=' | b'#' | b'+' | b'?') {
            out.push(char::from(b));
        } else {
            let _ = write!(out, "%{b:02X}");
        }
    }
}

/// Canonical reason phrase for the statuses this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
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
        read_request(&mut Chunked::new(raw, vec![raw.len()]), &mut requests()).map(|(req, _)| req)
    }

    fn requests() -> Framer {
        Framer::new(Start::Request)
    }

    fn keeps_alive(raw: &[u8]) -> bool {
        read_request(&mut Chunked::new(raw, vec![raw.len()]), &mut requests())
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
        let mut carry = requests();
        let (first, _) = read_request(&mut stream, &mut carry).unwrap();
        assert_eq!(first.body, b"hello");
        assert!(
            request_buffered(&mut carry),
            "the GET is already in the carry"
        );
        let (second, _) = read_request(&mut stream, &mut carry).unwrap();
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/next")
        );
        assert!(carry.is_empty() && !request_buffered(&mut carry));
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
        assert_eq!(parse_raw(huge.as_bytes()), Err(HttpError::BodyTooLarge));
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
        assert_eq!(parse_raw(&raw), Err(HttpError::HeadTooLarge));
    }

    /// The head cap counts the blank line, in both directions: a head of
    /// exactly [`MAX_HEAD_BYTES`] is read, one byte more is refused, and
    /// the framer holds no more than the cap while it looks.
    #[test]
    fn the_head_cap_counts_the_blank_line_in_both_directions() {
        for (start, line) in [
            (Start::Request, "GET /x HTTP/1.1"),
            (Start::Status, "HTTP/1.1 200 OK"),
        ] {
            for (len, fits) in [(MAX_HEAD_BYTES, true), (MAX_HEAD_BYTES + 1, false)] {
                let pad = len - line.len() - "\r\nX-Pad: \r\n\r\n".len();
                let head = format!("{line}\r\nX-Pad: {}\r\n\r\n", "a".repeat(pad));
                assert_eq!(head.len(), len);
                let mut framer = Framer::new(start);
                let mut stream = Chunked::new(head.as_bytes(), Vec::new());
                let outcome = loop {
                    assert!(framer.len() <= MAX_HEAD_BYTES, "{start:?} {len}");
                    match framer.head() {
                        Ok(Some(head)) => break Ok(head.len),
                        Ok(None) => {
                            let read = framer.read_from(&mut stream);
                            assert!(read.is_ok_and(|n| n > 0), "{start:?} {len}: ran dry");
                        }
                        Err(e) => break Err(e),
                    }
                };
                let want = if fits {
                    Ok(len)
                } else {
                    Err(HttpError::HeadTooLarge)
                };
                assert_eq!(outcome, want, "{start:?} {len}");
            }
        }
    }

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn rebuilds_targets_with_escapes() {
        let req = get("/cell", &[("cell", "a b,*"), ("level", "loc0/dur0")]);
        assert_eq!(rebuild_target(&req), "/cell?cell=a%20b,*&level=loc0/dur0");
        let req = get("/cell", &[("cell", "é\r\nX: y")]);
        assert_eq!(rebuild_target(&req), "/cell?cell=%C3%A9%0D%0AX:%20y");
    }

    /// A character the old hop mangled (CR, LF, NUL, space, a query
    /// delimiter, a non-ASCII name) half the time, any scalar value else.
    fn any_char() -> impl Strategy<Value = char> {
        const TRICKY: &[char] = &[
            '\r', '\n', '\0', ' ', '%', '&', '=', '#', '+', '?', 'é', '日', '🦀', '\u{7f}', 'a',
            ',', '*', '/',
        ];
        (0u8..2, 0u32..0x11_0000).prop_map(|(pick, code)| match pick {
            0 => TRICKY[code as usize % TRICKY.len()],
            _ => char::from_u32(code).unwrap_or('\u{FFFD}'),
        })
    }

    fn any_text() -> impl Strategy<Value = String> {
        prop::collection::vec(any_char(), 0..8).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// What the front sends a shard parses, on the shard, back to the
        /// query the client sent the front.
        #[test]
        fn rebuilt_targets_parse_back_to_the_same_query(
            query in prop::collection::vec((any_text(), any_text()), 0..5)
        ) {
            let mut req = get("/cell", &[]);
            req.query = query;
            let wire = format!("GET {} HTTP/1.1\r\nHost: shard\r\n\r\n", rebuild_target(&req));
            match read_request(&mut wire.as_bytes(), &mut requests()) {
                Ok((back, _)) => {
                    prop_assert_eq!(&back.path, &req.path);
                    prop_assert_eq!(&back.query, &req.query);
                }
                Err(e) => prop_assert!(false, "{e:?} for {:?}", req.query),
            }
        }
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
        let mut carry = requests();
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

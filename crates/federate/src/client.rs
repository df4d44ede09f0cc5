//! A minimal HTTP/1.1 client for shard fan-out and delta shipping.
//!
//! Speaks the dialect the serving layer's hand-rolled server speaks:
//! persistent connections, every response framed by `Content-Length`,
//! JSON bodies. Every response is read through one incremental
//! `ResponseParser`: it is fed bytes as they arrive, scans only the
//! ones that are new for the end of the head, and refuses a head longer
//! than [`MAX_HEAD_BYTES`] — a peer that dribbles an endless head costs
//! at most that much memory, not a socket timeout's worth. Two call
//! shapes:
//!
//! * `Attempt` — one `GET` under a hard time budget that never blocks:
//!   connect (non-blocking, `EINPROGRESS` then writable then
//!   [`TcpStream::take_error`]) → send → read → done, advanced by
//!   `Attempt::step` whenever `poll(2)` says its socket is ready or its
//!   budget runs out. The front's request coordinator drives its shard
//!   attempts this way, all in one `poll` (`crate::replica`). The attempt
//!   rides a connection from the replica's [`Pool`] when one is idle
//!   there, and hands its socket back for the pool only after reading its
//!   whole response. A server may close an idle connection at any time,
//!   so a request whose *reused* connection turns out closed (EOF, reset,
//!   aborted, broken pipe) before the first response byte is resent once
//!   on a fresh one (a `GET` is idempotent, RFC 9110 §9.2.2), and only
//!   that attempt's outcome is the caller's: a stale pooled connection is
//!   not a replica failure. A timeout is one — it is not resent.
//! * [`http_post`] — blocking, with a timeout on every socket operation
//!   plus **retry-with-backoff on connection refused**, always on a fresh
//!   connection that is closed afterwards. Used by the delta shipper
//!   (`flowcube ingest --follow --post`), where the server restarting
//!   mid-stream is routine and a refused connect is worth waiting out —
//!   and where nothing may ever be resent once bytes have left: an ingest
//!   is not idempotent.
//!
//! Failpoints `federate.client.connect` and `federate.client.read` let
//! the fault-injection suites simulate refused connects and torn reads
//! (the latter right after the request is sent) without real network
//! chaos.

use crate::error::FederateError;
use flowcube_hier::fx::splitmix64;
use flowcube_serve::http::{self, MAX_HEAD_BYTES};
use flowcube_serve::server::sys::{self, PollFd};
use flowcube_testkit::{fail_point, Fault};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timeout and retry policy for [`http_post`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Budget for each attempt's connect, and the socket read/write
    /// timeouts once connected.
    pub timeout: Duration,
    /// Extra attempts after the first when the connect is refused.
    pub retries: u32,
    /// Base for the retry backoff: the `n`-th retry sleeps a uniformly
    /// random ("full jitter") duration in `[0, backoff * 2^n]`, so a
    /// fleet of shippers restarted together does not reconnect in
    /// lockstep.
    pub backoff: Duration,
    /// Seed for the jitter RNG. `None` (production) seeds from clock
    /// entropy; tests pin a seed to make the sleep schedule
    /// reproducible.
    pub jitter_seed: Option<u64>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timeout: Duration::from_secs(5),
            retries: 3,
            backoff: Duration::from_millis(100),
            jitter_seed: None,
        }
    }
}

fn entropy_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 20))
        .unwrap_or(0);
    // Mix in an ASLR-dependent address so two shippers started in the
    // same nanosecond still diverge.
    nanos ^ (&nanos as *const u64 as u64)
}

/// The full-jitter backoff schedule for `retries` sleeps: sleep `n`
/// (0-based) is uniform in `[0, backoff * 2^n]`. Pure given a seed —
/// `client_faults.rs` pins `jitter_seed` and asserts against exactly
/// this function.
pub fn backoff_schedule(cfg: &ClientConfig, retries: u32) -> Vec<Duration> {
    let mut state = cfg.jitter_seed.unwrap_or_else(entropy_seed);
    let mut base = cfg.backoff;
    let mut out = Vec::with_capacity(retries as usize);
    for _ in 0..retries {
        let cap = base.as_nanos().min(u64::MAX as u128) as u64;
        let sleep_ns = if cap == 0 {
            0
        } else {
            let draw = splitmix64(state);
            // SplitMix64's stream step: the next state is one golden
            // gamma on.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            draw % (cap + 1)
        };
        out.push(Duration::from_nanos(sleep_ns));
        base = base.saturating_mul(2);
    }
    out
}

/// Idle connections to one replica, most recently used on top. Owned by
/// that replica's runtime state — not process-global — because tests and
/// benchmarks run several fronts and shards in one process.
#[derive(Default)]
pub struct Pool {
    idle: Mutex<Vec<(TcpStream, Instant)>>,
}

impl Pool {
    /// Most idle connections kept per replica: a front has at most
    /// `workers × (1 + hedge)` attempts in flight against one.
    pub const CAPACITY: usize = 8;
    /// A connection idle for longer is not reused: just under the 5 s a
    /// `flowcube serve` shard lets a connection idle (the default
    /// `ServerConfig::read_timeout`, which the CLI has no flag for). A
    /// shard with a shorter budget costs a stale resend, no more.
    pub const MAX_IDLE: Duration = Duration::from_secs(4);

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(TcpStream, Instant)>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The most recently used connection, if it is still fresh; anything
    /// older than it is staler still, and is dropped with it.
    pub(crate) fn take(&self) -> Option<TcpStream> {
        let mut idle = self.lock();
        let (stream, since) = idle.pop()?;
        if since.elapsed() > Self::MAX_IDLE {
            idle.clear();
            return None;
        }
        Some(stream)
    }

    pub(crate) fn put(&self, stream: TcpStream) {
        let mut idle = self.lock();
        if idle.len() < Self::CAPACITY {
            idle.push((stream, Instant::now()));
        }
    }

    /// Close every idle connection (the replica's breaker opened).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Idle connections held right now.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How one attempt failed.
enum AttemptError {
    /// At connect: nothing was sent — safe to retry.
    Refused(String),
    /// On a reused connection, closed before the first byte of a
    /// response: the server had closed it while it idled, and did not
    /// process the request (or, for an idempotent request, may as well
    /// not have).
    Stale(String),
    /// Later: the request may have been processed — not retried.
    Other(String),
}

impl AttemptError {
    fn into_detail(self) -> String {
        match self {
            AttemptError::Refused(m) | AttemptError::Stale(m) | AttemptError::Other(m) => m,
        }
    }
}

/// The connect failpoint: an injected refusal.
fn injected_refusal() -> Option<AttemptError> {
    match fail_point("federate.client.connect") {
        Some(Fault::Error(msg)) => Some(AttemptError::Refused(format!("injected: {msg}"))),
        _ => None,
    }
}

/// The read failpoint, evaluated once the request is sent: an injected
/// error, or a torn read — what arrived is no response.
fn injected_read_fault(peer: &dyn std::fmt::Display) -> Option<AttemptError> {
    match fail_point("federate.client.read")? {
        Fault::Error(msg) => Some(AttemptError::Other(format!("injected: {msg}"))),
        Fault::ShortRead(_) => Some(AttemptError::Other(format!(
            "malformed response from {peer}"
        ))),
    }
}

/// A connect failure: refused (or timed out) is retryable by
/// [`http_post`], anything else is not.
fn connect_error(peer: &dyn std::fmt::Display, e: &std::io::Error) -> AttemptError {
    let msg = format!("connect {peer}: {e}");
    match e.kind() {
        ErrorKind::ConnectionRefused | ErrorKind::TimedOut => AttemptError::Refused(msg),
        _ => AttemptError::Other(msg),
    }
}

/// One response off the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) body: String,
    /// The whole response was read, framed by `Content-Length`, and the
    /// server said it keeps the connection: the socket can carry another
    /// request.
    pub(crate) reusable: bool,
}

/// Bytes that are no HTTP response: what is wrong with them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Malformed(pub(crate) &'static str);

impl std::fmt::Display for Malformed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed response: {}", self.0)
    }
}

/// Where a [`ResponseParser`] stands after a feed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Parsed {
    /// More bytes are needed.
    Incomplete,
    /// One whole response, framed by its `Content-Length`.
    Done(Response),
}

/// The parsed head of a response.
struct Head {
    status: u16,
    body_start: usize,
    content_length: Option<usize>,
    keep_alive: bool,
}

/// An incremental reader of one response: fed bytes as they arrive, it
/// finds the end of the head by scanning only what is new, holds at most
/// [`MAX_HEAD_BYTES`] before the head is complete, then reads the body by
/// `Content-Length` (or, without one, until the peer closes:
/// [`ResponseParser::finish`]).
#[derive(Default)]
pub(crate) struct ResponseParser {
    buf: Vec<u8>,
    /// How much of `buf` was scanned for the head's end without a find.
    scanned: usize,
    head: Option<Head>,
}

impl ResponseParser {
    pub(crate) fn new() -> ResponseParser {
        ResponseParser::default()
    }

    /// Whether any byte of a response has arrived.
    pub(crate) fn received(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Take the next bytes off the wire.
    pub(crate) fn feed(&mut self, mut bytes: &[u8]) -> Result<Parsed, Malformed> {
        if self.head.is_none() {
            // The head, its blank line included, must fit the cap: take
            // no more than the room left under it.
            let take = bytes.len().min(MAX_HEAD_BYTES - self.buf.len());
            self.buf.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            // The blank line may straddle the previous feed's end.
            let from = self.scanned.saturating_sub(3);
            match self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                Some(pos) => self.head = Some(parse_head(&self.buf[..from + pos])?),
                None if self.buf.len() >= MAX_HEAD_BYTES => {
                    return Err(Malformed("head over the size cap"));
                }
                None => {
                    self.scanned = self.buf.len();
                    return Ok(Parsed::Incomplete);
                }
            }
        }
        self.buf.extend_from_slice(bytes);
        let Some(head) = &self.head else {
            return Ok(Parsed::Incomplete);
        };
        let Some(len) = head.content_length else {
            return Ok(Parsed::Incomplete);
        };
        // `parse_head` checked that this does not overflow.
        let total = head.body_start.saturating_add(len);
        if self.buf.len() < total {
            return Ok(Parsed::Incomplete);
        }
        // Exactly one response was asked for: bytes past it mean the
        // stream is not where this client thinks it is.
        let exact = self.buf.len() == total;
        self.buf.truncate(total);
        let reusable = exact && head.keep_alive;
        self.response(reusable).map(Parsed::Done)
    }

    /// The peer closed the connection: the response it framed so, or
    /// `None` when what arrived is cut short.
    pub(crate) fn finish(&mut self) -> Result<Option<Response>, Malformed> {
        match &self.head {
            Some(head) if head.content_length.is_none() => self.response(false).map(Some),
            _ => Ok(None),
        }
    }

    fn response(&mut self, reusable: bool) -> Result<Response, Malformed> {
        let (status, body_start) = match &self.head {
            Some(head) => (head.status, head.body_start),
            None => return Err(Malformed("no head")),
        };
        let body = String::from_utf8(self.buf.split_off(body_start))
            .map_err(|_| Malformed("body is not UTF-8"))?;
        Ok(Response {
            status,
            body,
            reusable,
        })
    }
}

/// Parse a response head: the bytes before its blank line.
fn parse_head(head: &[u8]) -> Result<Head, Malformed> {
    let body_start = head.len() + 4;
    let head = std::str::from_utf8(head).map_err(|_| Malformed("head is not UTF-8"))?;
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or(Malformed("no status"))?;
    let mut fields = lines.filter_map(|line| line.split_once(':'));
    // The server's framing rule: a response whose length is in doubt
    // would leave a pooled socket out of step for the next request.
    let content_length = http::content_length(fields.clone().map(|(k, v)| (k.trim(), v)))
        .map_err(|_| Malformed("bad framing"))?;
    if let Some(len) = content_length {
        body_start
            .checked_add(len)
            .ok_or(Malformed("bad framing"))?;
    }
    let keep_alive = fields
        .rfind(|(name, _)| name.eq_ignore_ascii_case("connection"))
        .is_some_and(|(_, value)| value.trim().eq_ignore_ascii_case("keep-alive"));
    Ok(Head {
        status,
        body_start,
        content_length,
        keep_alive,
    })
}

/// What one socket read hands the parser at most.
const READ_CHUNK: usize = 16 * 1024;

/// What an attempt is waiting for.
enum Stage {
    /// The non-blocking connect to finish: the socket turns writable.
    Connecting,
    /// The request to go out; this much of it has.
    Sending(usize),
    /// The response to come in.
    Reading,
    /// Nothing: it failed before its socket could be waited on.
    Failed(Option<AttemptError>),
}

/// An answer: status, body, and the socket when it can carry another
/// request.
pub(crate) type Answer = (u16, String, Option<TcpStream>);

/// One `GET` exchange that never blocks: connect → send → read → done.
/// [`Attempt::pollfd`] says what to wait for, [`Attempt::deadline`] when
/// the attempt's budget runs out, and [`Attempt::step`] advances it as
/// far as its socket allows without waiting.
pub(crate) struct Attempt {
    peer: SocketAddr,
    request: String,
    budget: Duration,
    /// When the budget runs out: the attempt then fails, a timeout.
    deadline: Instant,
    stream: Option<TcpStream>,
    /// The stream came from the pool (and has not been replaced by a
    /// fresh one after going stale).
    reused: bool,
    stage: Stage,
    parser: ResponseParser,
}

impl Attempt {
    /// Start sending `request` to `peer` under `budget`: on `reused`, a
    /// non-blocking socket from the replica's pool, or on a connection
    /// this call begins without blocking. The request goes out at once
    /// when the socket can take it.
    pub(crate) fn start(
        peer: SocketAddr,
        request: String,
        budget: Duration,
        reused: Option<TcpStream>,
    ) -> Attempt {
        let now = Instant::now();
        let mut attempt = Attempt {
            peer,
            request,
            budget,
            deadline: now + budget,
            reused: reused.is_some(),
            stream: reused,
            stage: Stage::Sending(0),
            parser: ResponseParser::new(),
        };
        if attempt.stream.is_none() {
            attempt.connect(attempt.deadline);
        }
        if let Err(e) = attempt.advance_or_resend(0, now) {
            // Over before it began: due at its first step.
            attempt.stream = None;
            attempt.stage = Stage::Failed(Some(e));
            attempt.deadline = now;
        }
        attempt
    }

    /// Begin a fresh connection, due by `deadline`.
    fn connect(&mut self, deadline: Instant) {
        self.deadline = deadline;
        self.reused = false;
        self.parser = ResponseParser::new();
        self.stream = None;
        if let Some(refused) = injected_refusal() {
            self.stage = Stage::Failed(Some(refused));
            return;
        }
        self.stage = match sys::connect_nonblocking(&self.peer) {
            Ok((stream, connected)) => {
                let _ = stream.set_nodelay(true);
                self.stream = Some(stream);
                if connected {
                    Stage::Sending(0)
                } else {
                    Stage::Connecting
                }
            }
            Err(e) => Stage::Failed(Some(connect_error(&self.peer, &e))),
        };
    }

    /// What to `poll` this attempt's socket for: a `struct pollfd` whose
    /// descriptor is negative (which `poll` skips) when there is none.
    pub(crate) fn pollfd(&self) -> PollFd {
        let events = match self.stage {
            Stage::Connecting | Stage::Sending(_) => sys::POLLOUT,
            Stage::Reading => sys::POLLIN,
            Stage::Failed(_) => 0,
        };
        PollFd {
            fd: match (&self.stream, events) {
                (Some(stream), 1..) => stream.as_raw_fd(),
                _ => -1,
            },
            events,
            revents: 0,
        }
    }

    /// When the attempt must be stepped even if its socket stays quiet:
    /// its budget's end, or its start when it failed there.
    pub(crate) fn deadline(&self) -> Instant {
        self.deadline
    }

    /// Advance as far as the socket allows without blocking; `revents`
    /// is what `poll` reported for [`Attempt::pollfd`] (0 when it was not
    /// polled, or not ready). `Some` once the attempt is over: an answer,
    /// or why there is none.
    pub(crate) fn step(&mut self, revents: i16, now: Instant) -> Option<Result<Answer, String>> {
        match self.advance_or_resend(revents, now) {
            Ok(Some(answer)) => Some(Ok(answer)),
            Ok(None) if now >= self.deadline => Some(Err(self.timed_out())),
            Ok(None) => None,
            Err(e) => Some(Err(e.into_detail())),
        }
    }

    /// [`Attempt::advance`], and a stale pooled connection resent once,
    /// on a fresh connection with a fresh budget: only the resend's
    /// outcome is the caller's.
    fn advance_or_resend(
        &mut self,
        revents: i16,
        now: Instant,
    ) -> Result<Option<Answer>, AttemptError> {
        match self.advance(revents) {
            Err(AttemptError::Stale(_)) => {
                flowcube_obs::counter_add("federate.client.pool.stale", 1);
                self.connect(now + self.budget);
                self.advance(0)
            }
            outcome => outcome,
        }
    }

    fn timed_out(&self) -> String {
        let what = match self.stage {
            Stage::Connecting => "connect",
            Stage::Sending(_) => "send to",
            _ => "read from",
        };
        format!("{what} {}: timed out after {:?}", self.peer, self.budget)
    }

    /// Until a response byte arrives, a reused connection found closed —
    /// EOF, reset, aborted, broken pipe — was closed by the server while
    /// it idled. Anything else, a timeout above all, is the replica's.
    fn early(&self, kind: ErrorKind, msg: String) -> AttemptError {
        let closed = matches!(
            kind,
            ErrorKind::UnexpectedEof
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::BrokenPipe
        );
        if self.reused && closed && !self.parser.received() {
            AttemptError::Stale(msg)
        } else {
            AttemptError::Other(msg)
        }
    }

    /// Connect once `poll` says the handshake ended, send whatever the
    /// socket takes, and read once `poll` says the answer is arriving.
    fn advance(&mut self, revents: i16) -> Result<Option<Answer>, AttemptError> {
        let peer = self.peer;
        let Some(stream) = &mut self.stream else {
            return Err(match &mut self.stage {
                Stage::Failed(e) => e.take(),
                _ => None,
            }
            .unwrap_or_else(|| AttemptError::Other(format!("{peer}: no connection"))));
        };
        if let Stage::Connecting = self.stage {
            if revents == 0 {
                return Ok(None);
            }
            match stream.take_error() {
                Ok(None) => self.stage = Stage::Sending(0),
                Ok(Some(e)) | Err(e) => return Err(connect_error(&peer, &e)),
            }
        }
        if let Stage::Sending(mut sent) = self.stage {
            while sent < self.request.len() {
                match stream.write(&self.request.as_bytes()[sent..]) {
                    Ok(n) => sent += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        self.stage = Stage::Sending(sent);
                        return Ok(None);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(self.early(e.kind(), format!("send to {peer}: {e}"))),
                }
            }
            if let Some(fault) = injected_read_fault(&peer) {
                return Err(fault);
            }
            // The answer cannot be there yet: wait for it in `poll`.
            self.stage = Stage::Reading;
            return Ok(None);
        }
        if revents == 0 {
            return Ok(None);
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(stream) = &mut self.stream else {
                return Ok(None);
            };
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return match self.parser.finish() {
                        Ok(Some(response)) => Ok(Some((response.status, response.body, None))),
                        Ok(None) => Err(self.early(
                            ErrorKind::UnexpectedEof,
                            format!("read from {peer}: connection closed mid-response"),
                        )),
                        Err(e) => Err(AttemptError::Other(format!("read from {peer}: {e}"))),
                    };
                }
                Ok(n) => match self.parser.feed(&chunk[..n]) {
                    Ok(Parsed::Incomplete) => {}
                    Ok(Parsed::Done(response)) => {
                        let socket = if response.reusable {
                            self.stream.take()
                        } else {
                            None
                        };
                        return Ok(Some((response.status, response.body, socket)));
                    }
                    Err(e) => return Err(AttemptError::Other(format!("read from {peer}: {e}"))),
                },
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(self.early(e.kind(), format!("read from {peer}: {e}"))),
            }
        }
    }
}

/// A blocking connect for [`http_post`], bounded by `timeout`.
fn connect_blocking(host: &str, timeout: Duration) -> Result<TcpStream, AttemptError> {
    if let Some(refused) = injected_refusal() {
        return Err(refused);
    }
    let addr = host
        .to_socket_addrs()
        .map_err(|e| AttemptError::Other(format!("resolve {host}: {e}")))?
        .next()
        .ok_or_else(|| AttemptError::Other(format!("resolve {host}: no address")))?;
    let stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| connect_error(&host, &e))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// One blocking request/response exchange on a fresh connection, every
/// socket operation bounded by `timeout`.
fn exchange_blocking(
    host: &str,
    request: &str,
    timeout: Duration,
) -> Result<Response, AttemptError> {
    let mut stream = connect_blocking(host, timeout)?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let other =
        |what: &str, e: &dyn std::fmt::Display| AttemptError::Other(format!("{what} {host}: {e}"));
    stream
        .write_all(request.as_bytes())
        .map_err(|e| other("send to", &e))?;
    if let Some(fault) = injected_read_fault(&host) {
        return Err(fault);
    }
    let mut parser = ResponseParser::new();
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(other("read from", &e)),
        };
        if n == 0 {
            return match parser.finish() {
                Ok(Some(response)) => Ok(response),
                Ok(None) => Err(other("read from", &"connection closed mid-response")),
                Err(e) => Err(other("read from", &e)),
            };
        }
        match parser.feed(&chunk[..n]) {
            Ok(Parsed::Incomplete) => {}
            Ok(Parsed::Done(response)) => return Ok(response),
            Err(e) => return Err(other("read from", &e)),
        }
    }
}

/// Split `http://host:port/path` into `(host:port, /path)`.
pub fn parse_url(url: &str) -> Result<(&str, String), FederateError> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| FederateError::Config {
            detail: format!("{url:?}: only http:// URLs are supported"),
        })?;
    Ok(match rest.split_once('/') {
        Some((h, p)) => (h, format!("/{p}")),
        None => (rest, "/".to_string()),
    })
}

/// `POST` a JSON body to `url` on a fresh connection that is closed
/// afterwards, honoring `cfg.timeout` on every socket operation and
/// retrying with full-jitter exponential backoff
/// ([`backoff_schedule`]) when the connect is **refused** (server
/// restarting, not yet listening). Failures after bytes were sent are
/// never retried: the request may have been applied, and deltas must
/// not be double-ingested.
pub fn http_post(
    url: &str,
    body: &str,
    cfg: &ClientConfig,
) -> Result<(u16, String), FederateError> {
    let (host, path) = parse_url(url)?;
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let sleeps = backoff_schedule(cfg, cfg.retries);
    let mut attempt = 0u32;
    loop {
        match exchange_blocking(host, &request, cfg.timeout) {
            Ok(Response { status, body, .. }) => {
                if attempt > 0 {
                    flowcube_obs::counter_add("federate.client.post_recovered", 1);
                }
                return Ok((status, body));
            }
            Err(AttemptError::Refused(_)) if attempt < cfg.retries => {
                flowcube_obs::counter_add("federate.client.post_retries", 1);
                std::thread::sleep(sleeps[attempt as usize]);
                attempt += 1;
            }
            Err(e) => {
                return Err(FederateError::Io {
                    detail: e.into_detail(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_schedule_is_deterministic_under_a_pinned_seed() {
        let cfg = ClientConfig {
            backoff: Duration::from_millis(20),
            jitter_seed: Some(7),
            ..ClientConfig::default()
        };
        let a = backoff_schedule(&cfg, 4);
        let b = backoff_schedule(&cfg, 4);
        assert_eq!(a, b, "same seed, same schedule");
        // Full jitter: sleep n is bounded by backoff * 2^n.
        for (n, sleep) in a.iter().enumerate() {
            let cap = Duration::from_millis(20 * (1 << n));
            assert!(*sleep <= cap, "sleep {n} = {sleep:?} over cap {cap:?}");
        }
        let other = backoff_schedule(
            &ClientConfig {
                jitter_seed: Some(8),
                ..cfg
            },
            4,
        );
        assert_ne!(a, other, "different seeds diverge");
    }

    #[test]
    fn unseeded_schedules_diverge() {
        let cfg = ClientConfig {
            backoff: Duration::from_millis(500),
            ..ClientConfig::default()
        };
        // Two entropy-seeded schedules agreeing on all 8 sleeps is
        // astronomically unlikely.
        assert_ne!(backoff_schedule(&cfg, 8), backoff_schedule(&cfg, 8));
    }

    /// Feed `chunks` in turn; at their end the peer closes.
    fn parse_chunks<'a>(
        chunks: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<Option<Response>, Malformed> {
        let mut parser = ResponseParser::new();
        for chunk in chunks {
            if let Parsed::Done(response) = parser.feed(chunk)? {
                return Ok(Some(response));
            }
        }
        parser.finish()
    }

    /// A response the shard could send: framed by `Content-Length` or by
    /// close, keep-alive or not, with header names in any case.
    fn any_response() -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        (
            0usize..3,
            prop::collection::vec(0x20u8..0x7f, 0..300),
            (0u8..2, 0u8..2, 0u8..2),
        )
            .prop_map(|(status, body, (framed, keep_alive, upper))| {
                let status = [200, 404, 503][status];
                let body = String::from_utf8(body).unwrap_or_default();
                let (framed, keep_alive, upper) = (framed == 1, keep_alive == 1, upper == 1);
                let mut head = format!("HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n");
                if framed {
                    let name = if upper {
                        "CONTENT-LENGTH"
                    } else {
                        "content-length"
                    };
                    head.push_str(&format!("{name}: {}\r\n", body.len()));
                }
                let connection = if keep_alive { "keep-alive" } else { "close" };
                head.push_str(&format!("Connection: {connection}\r\n\r\n{body}"));
                head.into_bytes()
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Fed in pieces cut at any offsets, a response parses to what
        /// it parses to whole.
        #[test]
        fn a_response_split_anywhere_parses_like_the_whole(
            wire in any_response(),
            cuts in proptest::prelude::prop::collection::vec(0usize..400, 0..8),
        ) {
            let whole = parse_chunks([wire.as_slice()]);
            proptest::prop_assert!(matches!(whole, Ok(Some(_))), "{whole:?}");
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(wire.len())).collect();
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([wire.len()]) {
                pieces.push(&wire[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(parse_chunks(pieces), whole);
        }
    }

    #[test]
    fn framing_decides_reuse() {
        let keep = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
        let done = parse_chunks([&keep[..]]).expect("parses").expect("whole");
        assert_eq!(
            (done.status, done.body.as_str(), done.reusable),
            (200, "{}", true)
        );
        let close = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        assert!(!parse_chunks([&close[..]]).unwrap().unwrap().reusable);
        // Bytes past the framed body: the stream is not where it should
        // be, so the socket carries nothing more.
        let extra = [&keep[..], b"!"].concat();
        let done = parse_chunks([&extra[..]]).unwrap().unwrap();
        assert_eq!((done.body.as_str(), done.reusable), ("{}", false));
        // A body cut short by the peer's close is no response.
        let cut = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}";
        assert_eq!(parse_chunks([&cut[..]]), Ok(None));
        let bad = b"HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\n";
        assert!(parse_chunks([&bad[..]]).is_err());
    }

    /// A head whose body length is in doubt is refused, as the server
    /// refuses such a request, rather than read by a guess.
    #[test]
    fn unframeable_responses_are_malformed() {
        for head in [
            "Content-Length: +5",
            "Content-Length: 5\r\nContent-Length: 5",
            "Transfer-Encoding: chunked\r\nContent-Length: 5",
        ] {
            let wire = format!("HTTP/1.1 200 OK\r\n{head}\r\nConnection: keep-alive\r\n\r\nhello");
            assert_eq!(
                parse_chunks([wire.as_bytes()]),
                Err(Malformed("bad framing")),
                "{head:?}"
            );
        }
    }

    /// A head that never ends: fed a byte at a time or in large pieces,
    /// the parser holds no more than the cap and then refuses it.
    #[test]
    fn an_endless_head_is_malformed_at_the_cap() {
        for piece in [1usize, 1000, 5000, MAX_HEAD_BYTES + 7] {
            let mut parser = ResponseParser::new();
            parser.feed(b"HTTP/1.1 200 OK\r\n").expect("a status line");
            let filler = vec![b'a'; piece];
            let err = loop {
                match parser.feed(&filler) {
                    Ok(Parsed::Incomplete) => {
                        assert!(parser.buf.len() <= MAX_HEAD_BYTES, "{}", parser.buf.len());
                    }
                    Ok(Parsed::Done(r)) => panic!("an endless head parsed: {r:?}"),
                    Err(e) => break e,
                }
            };
            assert_eq!(
                err,
                Malformed("head over the size cap"),
                "pieces of {piece}"
            );
            assert!(parser.buf.len() <= MAX_HEAD_BYTES);
        }
    }

    /// A scripted peer that answers with a head that never ends: it
    /// writes until the client hangs up.
    fn endless_head_peer() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            for _ in 0..2 {
                let Ok((mut conn, _)) = listener.accept() else {
                    return;
                };
                let mut request = [0u8; 1024];
                let _ = conn.read(&mut request);
                let _ = conn.write_all(b"HTTP/1.1 200 OK\r\n");
                let line = b"X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
                while conn.write_all(line).is_ok() {}
            }
        });
        (addr, peer)
    }

    #[test]
    fn an_endless_head_fails_the_attempt_and_the_post_as_malformed() {
        let (addr, peer) = endless_head_peer();
        let request = format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n");
        let mut attempt = Attempt::start(addr, request, Duration::from_secs(10), None);
        let outcome = loop {
            let mut fd = [attempt.pollfd()];
            sys::poll_fds(&mut fd, Some(Duration::from_millis(100))).expect("poll");
            let outcome = attempt.step(fd[0].revents, Instant::now());
            assert!(attempt.parser.buf.len() <= MAX_HEAD_BYTES);
            if let Some(outcome) = outcome {
                break outcome;
            }
        };
        match outcome {
            Err(detail) => assert!(detail.contains("malformed"), "{detail}"),
            Ok((status, ..)) => panic!("an endless head answered {status}"),
        }
        drop(attempt);

        let cfg = ClientConfig {
            timeout: Duration::from_secs(10),
            retries: 0,
            ..ClientConfig::default()
        };
        let err = http_post(&format!("http://{addr}/admin/ingest"), "{}", &cfg)
            .expect_err("an endless head is no response");
        assert!(err.to_string().contains("malformed"), "{err}");
        peer.join().expect("scripted peer");
    }

    #[test]
    fn parses_urls() {
        let (host, path) = parse_url("http://127.0.0.1:7070/admin/ingest").unwrap();
        assert_eq!(host, "127.0.0.1:7070");
        assert_eq!(path, "/admin/ingest");
        let (host, path) = parse_url("http://10.0.0.1:80").unwrap();
        assert_eq!(host, "10.0.0.1:80");
        assert_eq!(path, "/");
        assert!(matches!(
            parse_url("https://secure"),
            Err(FederateError::Config { .. })
        ));
    }
}

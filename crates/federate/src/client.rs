//! A minimal HTTP/1.1 client for shard fan-out and delta shipping.
//!
//! Speaks the dialect the serving layer's hand-rolled server speaks:
//! persistent connections, every response framed by `Content-Length`,
//! JSON bodies. Every response is read by the server's own incremental
//! framer ([`flowcube_serve::http::Framer`]), so a response head is held
//! to the rules a request head is: the one head cap (a peer that
//! dribbles an endless head costs at most that much memory, not a socket
//! timeout's worth), `HTTP/1.x`, a colon on every header line, the one
//! `Content-Length` rule, and RFC 9112's connection rule. A response
//! without `Content-Length` is framed by the peer's close. Two call
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
use flowcube_serve::http::{Framer, HttpError, Start};
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
    /// The whole response was read, framed by `Content-Length`, nothing
    /// past it arrived, and the server keeps the connection: the socket
    /// can carry another request.
    pub(crate) reusable: bool,
}

/// The response in `framer` (one of [`Start::Status`]), once what was
/// read holds it whole; `closed` says the peer has closed, which ends a
/// body not framed by `Content-Length`.
fn response(framer: &mut Framer, closed: bool) -> Result<Option<Response>, HttpError> {
    let Some(head) = framer.head()? else {
        return Ok(None);
    };
    let status = (head.start[1].parse())
        .map_err(|_| HttpError::Malformed(format!("bad status {:?}", head.start[1])))?;
    // Exactly one response was asked for: bytes past it mean the stream
    // is not where this client thinks it is.
    let (body, reusable) = match head.content_length {
        Some(len) if head.rest.len() >= len => {
            (&head.rest[..len], head.rest.len() == len && head.keep_alive)
        }
        None if closed => (head.rest, false),
        _ => return Ok(None),
    };
    let body =
        std::str::from_utf8(body).map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?;
    Ok(Some(Response {
        status,
        body: body.to_owned(),
        reusable,
    }))
}

/// Read `stream` until the response is whole, or `Ok(None)` when the
/// socket has nothing more for now (a non-blocking one would block, a
/// blocking one's timer fired). `reused` says the socket came from a
/// pool: closed before any response byte, it is stale.
fn read_response(
    framer: &mut Framer,
    stream: &mut impl Read,
    peer: &dyn std::fmt::Display,
    reused: bool,
) -> Result<Option<Response>, AttemptError> {
    loop {
        let (kind, msg) = match framer.read_from(stream) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => (e.kind(), format!("read from {peer}: {e}")),
            Ok(n) => match response(framer, n == 0) {
                Ok(None) if n > 0 => continue,
                Ok(None) => (
                    ErrorKind::UnexpectedEof,
                    format!("read from {peer}: connection closed mid-response"),
                ),
                done => {
                    return done.map_err(|e| {
                        AttemptError::Other(format!("read from {peer}: malformed response: {e}"))
                    })
                }
            },
        };
        return Err(early(reused && framer.is_empty(), kind, msg));
    }
}

/// A reused connection found closed — EOF, reset, aborted, broken pipe
/// — before any response byte arrived (`unanswered_reuse`) was closed by
/// the server while it idled. Anything else, a timeout above all, is the
/// replica's.
fn early(unanswered_reuse: bool, kind: ErrorKind, msg: String) -> AttemptError {
    let closed = matches!(
        kind,
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
    );
    if unanswered_reuse && closed {
        AttemptError::Stale(msg)
    } else {
        AttemptError::Other(msg)
    }
}

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
    /// The response as it arrives.
    framer: Framer,
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
            framer: Framer::new(Start::Status),
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
        self.framer = Framer::new(Start::Status);
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
                    Err(e) => {
                        let msg = format!("send to {peer}: {e}");
                        return Err(early(self.reused, e.kind(), msg));
                    }
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
        let Some(stream) = &mut self.stream else {
            return Ok(None);
        };
        let Some(response) = read_response(&mut self.framer, stream, &peer, self.reused)? else {
            return Ok(None);
        };
        let socket = if response.reusable {
            self.stream.take()
        } else {
            None
        };
        Ok(Some((response.status, response.body, socket)))
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
    read_response(&mut Framer::new(Start::Status), &mut stream, &host, false)?
        .ok_or_else(|| other("read from", &"timed out"))
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
    use flowcube_serve::http::MAX_HEAD_BYTES;
    use flowcube_testkit::http::hostile_requests;

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

    /// Read `bytes` into `framer` as a socket would hand them over: the
    /// response once it is whole.
    fn feed(framer: &mut Framer, mut bytes: &[u8]) -> Result<Option<Response>, HttpError> {
        while !bytes.is_empty() {
            let read = framer.read_from(&mut bytes);
            assert!(read.is_ok_and(|n| n > 0), "a slice reads");
            if let Some(response) = response(framer, false)? {
                return Ok(Some(response));
            }
        }
        Ok(None)
    }

    /// Feed `chunks` in turn; at their end the peer closes.
    fn parse_chunks<'a>(
        chunks: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<Option<Response>, HttpError> {
        let mut framer = Framer::new(Start::Status);
        for chunk in chunks {
            if let Some(response) = feed(&mut framer, chunk)? {
                return Ok(Some(response));
            }
        }
        response(&mut framer, true)
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
        // Also past a body longer than the first read.
        let long = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n{}!",
            "x".repeat(5000)
        );
        let done = parse_chunks([long.as_bytes()]).unwrap().unwrap();
        assert_eq!((done.body.len(), done.reusable), (5000, false));
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
            assert!(
                matches!(
                    parse_chunks([wire.as_bytes()]),
                    Err(HttpError::Malformed(_))
                ),
                "{head:?}"
            );
        }
    }

    /// A head that never ends: fed a byte at a time or in large pieces,
    /// the framer holds no more than the cap and then refuses it.
    #[test]
    fn an_endless_head_is_malformed_at_the_cap() {
        for piece in [1usize, 1000, 5000, MAX_HEAD_BYTES + 7] {
            let mut framer = Framer::new(Start::Status);
            feed(&mut framer, b"HTTP/1.1 200 OK\r\n").expect("a status line");
            let filler = vec![b'a'; piece];
            let err = loop {
                match feed(&mut framer, &filler) {
                    Ok(None) => {
                        assert!(framer.len() <= MAX_HEAD_BYTES, "{}", framer.len());
                    }
                    Ok(Some(r)) => panic!("an endless head parsed: {r:?}"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err, HttpError::HeadTooLarge, "pieces of {piece}");
            assert!(framer.len() <= MAX_HEAD_BYTES);
        }
    }

    /// The rows of the server's hostile-request table whose framing is
    /// in doubt, and its oversized head, sent as response heads: each is
    /// refused, and the framer never holds more than the head cap.
    #[test]
    fn hostile_framing_is_refused_in_a_response() {
        let mut refused = 0;
        for (raw, status) in hostile_requests() {
            let text = String::from_utf8_lossy(&raw);
            let framing = text.contains("Content-Length") || text.contains("Transfer-Encoding");
            if !(status == 431 || status == 400 && framing) {
                continue;
            }
            let fields = &raw[raw.windows(2).position(|w| w == b"\r\n").expect("a line")..];
            let wire = [&b"HTTP/1.1 200 OK"[..], fields].concat();
            let mut framer = Framer::new(Start::Status);
            let outcome = feed(&mut framer, &wire).and_then(|done| match done {
                Some(response) => Ok(Some(response)),
                None => response(&mut framer, true),
            });
            assert!(outcome.is_err(), "{text:?} read as {outcome:?}");
            assert!(framer.len() <= MAX_HEAD_BYTES, "{text:?}");
            refused += 1;
        }
        assert_eq!(
            refused, 6,
            "transfer-encoding, four bad lengths, one long head"
        );
    }

    /// A response's socket is reused by the server's connection rule
    /// (RFC 9112 §9.3), as a request's is kept.
    #[test]
    fn the_connection_rule_is_the_servers() {
        for (head, reusable) in [
            ("HTTP/1.1 200 OK", true),
            ("HTTP/1.1 200 OK\r\nConnection: keep-alive", true),
            ("HTTP/1.1 200 OK\r\nConnection: keep-alive, close", false),
            ("HTTP/1.1 200 OK\r\nConnection: close", false),
            ("HTTP/1.0 200 OK", false),
            ("HTTP/1.0 200 OK\r\nConnection: Keep-Alive", true),
        ] {
            let wire = format!("{head}\r\nContent-Length: 2\r\n\r\n{{}}");
            let done = parse_chunks([wire.as_bytes()])
                .expect("parses")
                .expect("whole");
            assert_eq!(done.reusable, reusable, "{head:?}");
        }
        for line in ["HTTP/2 200 OK", "SPDY/3 200 OK", "HTTP/1.1 OK"] {
            let wire = format!("{line}\r\nContent-Length: 2\r\n\r\n{{}}");
            assert!(
                matches!(
                    parse_chunks([wire.as_bytes()]),
                    Err(HttpError::Malformed(_))
                ),
                "{line:?}"
            );
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
            assert!(attempt.framer.len() <= MAX_HEAD_BYTES);
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

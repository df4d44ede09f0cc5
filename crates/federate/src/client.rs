//! A minimal HTTP/1.1 client for shard fan-out and delta shipping.
//!
//! Speaks the dialect the serving layer's hand-rolled server speaks:
//! persistent connections, every response framed by `Content-Length`,
//! JSON bodies. Two call shapes:
//!
//! * [`http_get`] — one attempt under a hard time budget, on a
//!   connection drawn from the replica's [`Pool`] when one is idle
//!   there. Used by the scatter-gather front tier, where the remaining
//!   request deadline is the budget and a retry would only burn it. The
//!   socket goes back to the pool only after its whole response was
//!   read. A server may close an idle connection at any time, so a
//!   request whose *reused* connection turns out closed (EOF, reset,
//!   aborted, broken pipe) before the first response byte is resent once
//!   on a fresh one (a `GET` is idempotent, RFC 9110 §9.2.2), and only
//!   that attempt's outcome is the caller's: a stale pooled connection is
//!   not a replica failure. A timeout is one — it is not resent.
//! * [`http_post`] — timeout plus **retry-with-backoff on connection
//!   refused**, always on a fresh connection that is closed afterwards.
//!   Used by the delta shipper (`flowcube ingest --follow --post`),
//!   where the server restarting mid-stream is routine and a refused
//!   connect is worth waiting out — and where nothing may ever be resent
//!   once bytes have left: an ingest is not idempotent.
//!
//! Failpoints `federate.client.connect` and `federate.client.read` let
//! the fault-injection suite simulate refused connects and torn reads
//! without real network chaos.

use crate::error::FederateError;
use flowcube_hier::fx::splitmix64;
use flowcube_testkit::{fail_point, Fault};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
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
    fn take(&self) -> Option<TcpStream> {
        let mut idle = self.lock();
        let (stream, since) = idle.pop()?;
        if since.elapsed() > Self::MAX_IDLE {
            idle.clear();
            return None;
        }
        Some(stream)
    }

    fn put(&self, stream: TcpStream) {
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

fn connect(host: &str, timeout: Duration) -> Result<TcpStream, AttemptError> {
    if let Some(Fault::Error(msg)) = fail_point("federate.client.connect") {
        return Err(AttemptError::Refused(format!("injected: {msg}")));
    }
    let addr = host
        .to_socket_addrs()
        .map_err(|e| AttemptError::Other(format!("resolve {host}: {e}")))?
        .next()
        .ok_or_else(|| AttemptError::Other(format!("resolve {host}: no address")))?;
    let stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| {
        let msg = format!("connect {host}: {e}");
        match e.kind() {
            std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::TimedOut => {
                AttemptError::Refused(msg)
            }
            _ => AttemptError::Other(msg),
        }
    })?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// One response off the wire.
struct Response {
    status: u16,
    body: String,
    /// The whole response was read, framed by `Content-Length`, and the
    /// server said it keeps the connection: the socket can carry another
    /// request.
    reusable: bool,
}

/// One request/response exchange on `reused`, or on a fresh connection.
/// Returns the answer and, when the socket can carry another request,
/// the socket.
fn exchange(
    host: &str,
    request: &str,
    timeout: Duration,
    reused: Option<TcpStream>,
) -> Result<(u16, String, Option<TcpStream>), AttemptError> {
    let was_reused = reused.is_some();
    let mut stream = match reused {
        Some(stream) => stream,
        None => connect(host, timeout)?,
    };
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    // Until a response byte arrives, a reused connection found closed —
    // EOF, reset, aborted, broken pipe — was closed by the server while
    // it idled. Anything else, a timeout above all, is the replica's.
    let early = |kind: std::io::ErrorKind, msg: String| {
        use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
        if was_reused
            && matches!(
                kind,
                UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe
            )
        {
            AttemptError::Stale(msg)
        } else {
            AttemptError::Other(msg)
        }
    };
    stream
        .write_all(request.as_bytes())
        .map_err(|e| early(e.kind(), format!("send to {host}: {e}")))?;
    match fail_point("federate.client.read") {
        Some(Fault::Error(msg)) => {
            return Err(AttemptError::Other(format!("injected: {msg}")));
        }
        // A torn read: what arrived is no response.
        Some(Fault::ShortRead(_)) => {
            return Err(AttemptError::Other(format!(
                "malformed response from {host}"
            )));
        }
        None => {}
    }
    let mut received = false;
    let response = read_response(&mut stream, &mut received).map_err(|e| {
        let msg = format!("read from {host}: {e}");
        if received {
            AttemptError::Other(msg)
        } else {
            early(e.kind(), msg)
        }
    })?;
    Ok((
        response.status,
        response.body,
        response.reusable.then_some(stream),
    ))
}

/// Read one response: the head, then `Content-Length` bytes of body — or,
/// without a `Content-Length`, everything until the peer closes. Sets
/// `received` once a first byte has arrived.
fn read_response(stream: &mut TcpStream, received: &mut bool) -> std::io::Result<Response> {
    let malformed = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let eof = || std::io::Error::from(std::io::ErrorKind::UnexpectedEof);
    let mut raw: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut more = |raw: &mut Vec<u8>| -> std::io::Result<usize> {
        let n = stream.read(&mut chunk)?;
        raw.extend_from_slice(&chunk[..n]);
        *received |= n > 0;
        Ok(n)
    };
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if more(&mut raw)? == 0 {
            return Err(eof());
        }
    };
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| malformed())?;
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(malformed)?;
    let (mut content_length, mut keep_alive) = (None, false);
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.trim().parse::<usize>().map_err(|_| malformed())?);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
        }
    }
    let body_start = head_end + 4;
    let framed = match content_length {
        Some(len) => {
            let total = body_start.checked_add(len).ok_or_else(malformed)?;
            while raw.len() < total {
                if more(&mut raw)? == 0 {
                    return Err(eof());
                }
            }
            // Exactly one response was asked for: bytes past it mean the
            // stream is not where this client thinks it is.
            let exact = raw.len() == total;
            raw.truncate(total);
            exact
        }
        None => {
            while more(&mut raw)? > 0 {}
            false
        }
    };
    let body = String::from_utf8(raw.split_off(body_start)).map_err(|_| malformed())?;
    Ok(Response {
        status,
        body,
        reusable: framed && keep_alive,
    })
}

/// `GET http://{host}{target}` with a hard per-attempt budget and no
/// retries — the front tier's fan-out primitive. `target` is the path
/// plus query, e.g. `/rollup?cell=*&dim=0`. With a `pool`, the request
/// rides an idle connection from it when there is one and the socket
/// returns there afterwards; without, the connection is fresh and is
/// dropped — what a health probe wants, whose point is that the replica
/// accepts connections.
pub fn http_get(
    host: &str,
    target: &str,
    timeout: Duration,
    pool: Option<&Pool>,
) -> Result<(u16, String), String> {
    let request = format!("GET {target} HTTP/1.1\r\nHost: {host}\r\n\r\n");
    let reused = pool.and_then(Pool::take);
    if pool.is_some() {
        let series = match reused {
            Some(_) => "federate.client.pool.hit",
            None => "federate.client.pool.miss",
        };
        flowcube_obs::counter_add(series, 1);
    }
    let outcome = match exchange(host, &request, timeout, reused) {
        Err(AttemptError::Stale(_)) => {
            flowcube_obs::counter_add("federate.client.pool.stale", 1);
            exchange(host, &request, timeout, None)
        }
        outcome => outcome,
    };
    match outcome {
        Ok((status, body, socket)) => {
            if let (Some(pool), Some(socket)) = (pool, socket) {
                pool.put(socket);
            }
            Ok((status, body))
        }
        Err(AttemptError::Refused(m) | AttemptError::Stale(m) | AttemptError::Other(m)) => Err(m),
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
        match exchange(host, &request, cfg.timeout, None) {
            Ok((status, body, _)) => {
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
            Err(
                AttemptError::Refused(detail)
                | AttemptError::Stale(detail)
                | AttemptError::Other(detail),
            ) => {
                return Err(FederateError::Io { detail });
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

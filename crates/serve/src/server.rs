//! The server runtime: a hand-rolled HTTP/1.1 listener over
//! `std::net::TcpListener` that hosts a [`Service`] — the query API
//! ([`AppState`]) or the federation front.
//!
//! A service is what differs between the tiers and nothing else: its
//! [`Scope`] (the name that prefixes the runtime's metric series, and
//! the path → endpoint-tag table), its route function, a crash hook, an
//! optional access log and an optional `SIGHUP` hook. Everything below
//! is the runtime's and is the same for every service.
//!
//! Threading model:
//!
//! * one **acceptor** thread owns the listener and every connection
//!   that is between requests. It waits in one `poll(2)` on the
//!   listener, on a wake channel and on all parked connections, and
//!   pushes what becomes ready — a fresh connection, or a parked one
//!   whose next request has started to arrive — onto a bounded queue;
//! * `workers` **worker** threads pop connections, parse one request
//!   (on a fresh connection after applying the socket timeouts and
//!   `TCP_NODELAY`), answer it through [`crate::api::handle_request`]
//!   (the request envelope around the service's route), and then either
//!   close the connection or hand it back to the acceptor to be parked.
//!   A request already waiting in the connection's carry buffer
//!   (pipelining) is answered first. **A connection between requests
//!   occupies no worker**: a worker never blocks in `read` on an idle
//!   socket, so two workers serve any number of persistent clients;
//! * when the queue is full the acceptor answers `429 Too Many
//!   Requests` inline and drops the connection — load shedding at the
//!   door instead of unbounded buffering — whether the connection was
//!   fresh or parked.
//!
//! Connection life cycle: accepted → queued → served → parked → queued
//! → served → … → closed. The acceptor owns a socket while it is parked,
//! the queue while it is queued, one worker while it is served. A
//! response says `Connection: keep-alive` exactly when the connection is
//! parked afterwards, and `Connection: close` when it is not: the client
//! asked for `Connection: close` (or spoke HTTP/1.0 without
//! `Connection: keep-alive`), the request could not be parsed (the
//! stream position is unknown), the write failed, the server is
//! shutting down, or the connection was shed. A parked connection that
//! stays silent for [`ServerConfig::read_timeout`] is closed, and at
//! most [`MAX_IDLE_CONNECTIONS`] are parked — one more closes the
//! longest-idle one. The idle watcher is `poll(2)`: the runtime needs a
//! unix target.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] (or `SIGINT`/
//! `SIGTERM` via [`ServerHandle::wait_for_signals`]) flips a flag; the
//! acceptor (unblocked through its wake channel) drops every parked
//! connection and exits, the workers (polling the queue with a short
//! wait timeout) answer what is in flight with `Connection: close` and
//! drain.
//!
//! Fault tolerance:
//!
//! * workers run under a **supervisor** thread: a worker that panics is
//!   joined, counted (`{scope}.worker.crashes`, surfaced on `/healthz`),
//!   and respawned, so one poisonous request cannot shrink the pool;
//!   past [`ServerConfig::degraded_after`] crashes the query API's
//!   `/healthz` reports `degraded`;
//! * [`ServerConfig::request_deadline`] bounds each request
//!   cooperatively — blown deadlines answer `503`;
//! * `SIGHUP` (or `POST /admin/reload`) hot-reloads the query API's
//!   backing snapshot: the replacement is fully validated before the
//!   cube is swapped, and any validation failure leaves the old cube
//!   serving.

use crate::access::AccessLog;
use crate::api::{error_response, handle_request, AppState, HttpResponse, RequestCtx};
use crate::cache::ResponseCache;
use crate::error::ApiError;
use crate::http::{
    read_request, request_buffered, write_response, HttpError, Request, MAX_IDLE_CONNECTIONS,
};
use flowcube_obs::flight::{self, FlightKind};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One HTTP tier hosted on the runtime.
pub trait Service: Send + Sync + 'static {
    /// The tier's name, series names and endpoint tags.
    fn scope(&self) -> &Scope;

    /// Answer one parsed request. Runs inside the request envelope
    /// ([`crate::api::handle_request`]), which has already answered the
    /// built-in `/metrics` and `/debug/flight`; `trace` is the numeric
    /// request id flight events carry.
    fn route(&self, req: &Request, ctx: &RequestCtx, trace: u64) -> HttpResponse;

    /// The supervisor joined a worker that had panicked.
    fn worker_crashed(&self);

    /// Where the envelope logs each request, if anywhere.
    fn access_log(&self) -> Option<&AccessLog> {
        None
    }

    /// `SIGHUP` arrived while [`ServerHandle::wait_for_signals`] waited.
    fn on_sighup(&self) {}
}

/// One routable path of a service: its metric tag, its flight label and
/// the names of its series.
pub struct Endpoint {
    path: &'static str,
    pub tag: &'static str,
    pub label: u16,
    /// `{scope}.requests.{tag}`.
    pub(crate) requests: String,
    /// `{scope}.latency_us.{tag}`.
    pub(crate) latency_us: String,
    /// `{scope}.request.latency_us{endpoint=tag,status=class}`, indexed
    /// like [`crate::api::STATUS_CLASSES`].
    pub(crate) request_latency_us: [String; 6],
}

impl Endpoint {
    fn new(scope: &str, path: &'static str, tag: &'static str) -> Endpoint {
        let family = format!("{scope}.request.latency_us");
        Endpoint {
            path,
            tag,
            label: flight::intern(tag),
            requests: format!("{scope}.requests.{tag}"),
            latency_us: format!("{scope}.latency_us.{tag}"),
            request_latency_us: crate::api::STATUS_CLASSES.map(|class| {
                flowcube_obs::labeled(&family, &[("endpoint", tag), ("status", class)])
            }),
        }
    }
}

/// A service's name and everything derived from it, built once so that
/// neither the runtime nor the envelope formats a series name per
/// request.
pub struct Scope {
    /// `"serve"` / `"federate"`: prefixes every series below, the
    /// runtime's thread names and the worker failpoint, so two tiers in
    /// one process (a front and its shards, in tests and benchmarks)
    /// never write each other's series.
    pub name: &'static str,
    endpoints: Vec<Endpoint>,
    /// The `"other"` tag every unlisted path gets.
    other: Endpoint,
    pub(crate) requests_total: String,
    pub(crate) latency_us: String,
    pub(crate) queue_wait_us: String,
    /// `{name}.responses.Nxx`, indexed like [`crate::api::STATUS_CLASSES`].
    pub(crate) responses: [String; 6],
    queue_depth: String,
    shed: String,
    worker_crashes: String,
    malformed: String,
    /// A peer vanished mid-request — not one that closed an idle
    /// connection.
    disconnected: String,
    started: String,
    connections_accepted: String,
    /// Requests served on a connection that had already served one.
    connections_reused: String,
    /// Connections parked between requests right now (gauge).
    connections_idle: String,
    /// Parked connections the server closed: idle timeout or cap.
    connections_idle_closed: String,
    /// Failpoint evaluated by a worker that has claimed a connection.
    worker_request: String,
}

impl Scope {
    /// `endpoints` maps each path the service routes to its metric tag;
    /// the built-in routes bring their own.
    pub fn new(name: &'static str, endpoints: &[(&'static str, &'static str)]) -> Scope {
        let series = |suffix: &str| format!("{name}.{suffix}");
        Scope {
            name,
            endpoints: endpoints
                .iter()
                .chain(crate::api::BUILTIN_ENDPOINTS)
                .map(|&(path, tag)| Endpoint::new(name, path, tag))
                .collect(),
            other: Endpoint::new(name, "", "other"),
            requests_total: series("requests.total"),
            latency_us: series("latency_us"),
            queue_wait_us: series("queue.wait_us"),
            responses: crate::api::STATUS_CLASSES
                .map(|class| series(&format!("responses.{class}"))),
            queue_depth: series("queue.depth"),
            shed: series("shed"),
            worker_crashes: series("worker.crashes"),
            malformed: series("malformed"),
            disconnected: series("disconnected"),
            started: series("started"),
            connections_accepted: series("connections.accepted"),
            connections_reused: series("connections.reused"),
            connections_idle: series("connections.idle"),
            connections_idle_closed: series("connections.idle_closed"),
            worker_request: series("worker.request"),
        }
    }

    /// The endpoint a request path belongs to.
    pub fn endpoint(&self, path: &str) -> &Endpoint {
        self.endpoints
            .iter()
            .find(|e| e.path == path)
            .unwrap_or(&self.other)
    }
}

/// Server tunables; `Default` is sized for tests and small deployments.
/// The runtime ([`host`]) reads `addr`, `workers`, `queue_depth`, the two
/// socket timeouts and `request_deadline`; the rest configure the query
/// API ([`serve`]).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads answering requests.
    pub workers: usize,
    /// Accepted-but-unserved connections held before shedding begins.
    pub queue_depth: usize,
    /// Response cache capacity (entries); 0 disables caching.
    pub cache_capacity: usize,
    /// Per-connection socket read timeout — and how long a connection
    /// may idle between requests before the server closes it.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Cooperative per-request deadline; `None` disables. A request that
    /// outlives it answers `503` instead of a result.
    pub request_deadline: Option<Duration>,
    /// Worker crashes after which `/healthz` reports `degraded`
    /// (`0` disables).
    pub degraded_after: u64,
    /// Structured JSON access log destination: `-` for stdout, any other
    /// value appends to that file; `None` disables request logging.
    pub access_log: Option<String>,
    /// Requests slower than this (milliseconds) log with the flight
    /// recorder window attached; `None` disables slow dumps.
    pub slow_request_ms: Option<u64>,
    /// Auto-compact the delta sidecar once it exceeds this many bytes;
    /// `None` disables size-triggered compaction.
    pub compact_after_bytes: Option<u64>,
    /// Auto-compact once deltas have been pending this many seconds;
    /// `None` disables age-triggered compaction.
    pub compact_after_secs: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            cache_capacity: 256,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            request_deadline: None,
            degraded_after: 8,
            access_log: None,
            slow_request_ms: None,
            compact_after_bytes: None,
            compact_after_secs: None,
        }
    }
}

/// A client connection, as it travels between the acceptor, the queue
/// and the workers.
struct Conn {
    stream: TcpStream,
    /// Bytes read past the last answered request: the start of the next.
    carry: Vec<u8>,
    /// Requests answered on this connection so far.
    served: u64,
}

/// The bounded hand-off between the acceptor and the workers.
/// (std `Mutex`/`Condvar` — the vendored `parking_lot` has no condvar;
/// poisoning is recovered because a panicking worker must not wedge the
/// accept path.)
struct ConnQueue {
    /// Each connection carries the instant a worker could first have
    /// taken it — accepted, or seen readable while parked — so the worker
    /// that picks it up can report how long it waited.
    queue: std::sync::Mutex<VecDeque<(Conn, Instant)>>,
    ready: std::sync::Condvar,
    depth: usize,
    /// The `{scope}.queue.depth` gauge.
    gauge: String,
}

impl ConnQueue {
    fn new(depth: usize, gauge: String) -> Self {
        ConnQueue {
            queue: std::sync::Mutex::new(VecDeque::new()),
            ready: std::sync::Condvar::new(),
            depth: depth.max(1),
            gauge,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<(Conn, Instant)>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue if there is room; a full queue hands the connection back
    /// so the caller can shed it.
    fn push(&self, conn: Conn, ready_at: Instant) -> Result<(), Conn> {
        let mut q = self.lock();
        if q.len() >= self.depth {
            return Err(conn);
        }
        q.push_back((conn, ready_at));
        flowcube_obs::gauge_set(&self.gauge, q.len() as f64);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop with a bounded wait so workers can observe shutdown. Returns
    /// the connection and the microseconds it sat queued.
    fn pop(&self, wait: Duration) -> Option<(Conn, u64)> {
        let mut q = self.lock();
        if q.is_empty() {
            let (guard, _timeout) = self
                .ready
                .wait_timeout(q, wait)
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
        let item = q.pop_front();
        if item.is_some() {
            flowcube_obs::gauge_set(&self.gauge, q.len() as f64);
        }
        drop(q);
        item.map(|(conn, ready_at)| (conn, ready_at.elapsed().as_micros() as u64))
    }
}

/// The way back to the acceptor: answered connections for it to park,
/// and the wake channel that interrupts its `poll`.
struct Handback {
    returned: std::sync::Mutex<Vec<Conn>>,
    /// Write end of the wake channel; the acceptor polls the other end.
    wake: UnixStream,
}

impl Handback {
    fn park(&self, conn: Conn) {
        self.returned
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(conn);
        self.wake();
    }

    /// Non-blocking: a full channel already holds a wake-up.
    fn wake(&self) {
        let _ = (&self.wake).write(&[1]);
    }

    fn take(&self) -> Vec<Conn> {
        std::mem::take(&mut *self.returned.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle<S = AppState> {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    state: Arc<S>,
    handback: Arc<Handback>,
    threads: Vec<JoinHandle<()>>,
}

impl<S: Service> ServerHandle<S> {
    /// The actual bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted service (for the query API: health, cache, live cube).
    pub fn state(&self) -> Arc<S> {
        self.state.clone()
    }

    /// Request a graceful stop; returns immediately. The wake channel
    /// unblocks the acceptor so it observes the flag without waiting for
    /// real traffic.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.handback.wake();
    }

    /// Wait for the acceptor, supervisor, and all workers to exit.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Block until `SIGINT`/`SIGTERM` (or a prior [`shutdown`] call),
    /// then stop the server and join its threads. A `SIGHUP` received
    /// while waiting goes to [`Service::on_sighup`] — the query API
    /// hot-reloads its snapshot ([`AppState::reload`]) — instead of
    /// stopping.
    ///
    /// [`shutdown`]: ServerHandle::shutdown
    pub fn wait_for_signals(self) {
        #[cfg(unix)]
        sig::install();
        while !self.stop.load(Ordering::SeqCst) && !SIGNAL_RECEIVED.load(Ordering::SeqCst) {
            if RELOAD_REQUESTED.swap(false, Ordering::SeqCst) {
                self.state.on_sighup();
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        self.shutdown();
        self.join();
    }
}

/// Start the query API over `state` per `config`. Returns once the
/// listener is bound and the worker pool is running.
pub fn serve(mut state: AppState, config: ServerConfig) -> io::Result<ServerHandle> {
    if state.access.is_none() {
        if let Some(spec) = &config.access_log {
            state.access = Some(AccessLog::open(spec, config.slow_request_ms)?);
        }
    }
    state.health.set_degraded_after(config.degraded_after);
    state.set_compact_policy(config.compact_after_bytes, config.compact_after_secs);
    host(state, &config)
}

/// Host `service` on a listener per `config`'s runtime fields. Returns
/// once the listener is bound and the worker pool is running.
pub fn host<S: Service>(service: S, config: &ServerConfig) -> io::Result<ServerHandle<S>> {
    host_capped(service, config, MAX_IDLE_CONNECTIONS)
}

/// [`host`], parking at most `idle_cap` connections.
fn host_capped<S: Service>(
    service: S,
    config: &ServerConfig,
    idle_cap: usize,
) -> io::Result<ServerHandle<S>> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // `poll` says when `accept` will not block; should the peer have
    // reset by then, a blocking accept would stall every parked
    // connection behind it.
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;

    // The flight recorder runs for the life of the server: it is the
    // always-on black box that slow-request and 5xx access-log entries
    // dump, and `/debug/flight` exposes.
    flight::enable();

    let stop = Arc::new(AtomicBool::new(false));
    let state = Arc::new(service);
    let scope = state.scope();
    let queue = Arc::new(ConnQueue::new(
        config.queue_depth,
        scope.queue_depth.clone(),
    ));
    let handback = Arc::new(Handback {
        returned: std::sync::Mutex::new(Vec::new()),
        wake: wake_tx,
    });
    let mut threads = Vec::with_capacity(2);

    // Acceptor.
    {
        let acceptor = Acceptor {
            listener,
            wake: wake_rx,
            service: state.clone(),
            queue: queue.clone(),
            handback: handback.clone(),
            stop: stop.clone(),
            idle_timeout: config.read_timeout,
            idle_cap,
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("{}-accept", scope.name))
                .spawn(move || acceptor.run())?,
        );
    }

    // Supervisor — spawns the workers and respawns any that panic.
    {
        let pool = WorkerPool {
            service: state.clone(),
            queue,
            handback: handback.clone(),
            stop: stop.clone(),
            config: config.clone(),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("{}-supervisor", scope.name))
                .spawn(move || supervisor_loop(pool))?,
        );
    }

    flowcube_obs::counter_add(&scope.started, 1);
    Ok(ServerHandle {
        addr,
        stop,
        state,
        handback,
        threads,
    })
}

/// Convenience: build the [`AppState`] and start serving.
pub fn serve_cube(cube: crate::api::ServedCube, config: ServerConfig) -> io::Result<ServerHandle> {
    let cache = ResponseCache::new(config.cache_capacity);
    serve(AppState::new(cube, cache), config)
}

/// The acceptor thread's state: the listener, the wake channel, and the
/// parked connections it alone owns.
struct Acceptor<S> {
    listener: TcpListener,
    /// Read end of the wake channel.
    wake: UnixStream,
    service: Arc<S>,
    queue: Arc<ConnQueue>,
    handback: Arc<Handback>,
    stop: Arc<AtomicBool>,
    /// How long a parked connection may stay silent.
    idle_timeout: Duration,
    /// Most connections parked at once.
    idle_cap: usize,
}

impl<S: Service> Acceptor<S> {
    fn run(self) {
        let scope = self.service.scope();
        // Each parked connection with the instant it was parked.
        let mut parked: Vec<(Conn, Instant)> = Vec::new();
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut idle_reported = 0;
        loop {
            fds.clear();
            fds.push(sys::PollFd::readable(&self.listener));
            fds.push(sys::PollFd::readable(&self.wake));
            fds.extend(parked.iter().map(|(c, _)| sys::PollFd::readable(&c.stream)));
            let next_expiry = parked.iter().map(|&(_, since)| since).min();
            let timeout = next_expiry
                .map(|since| (since + self.idle_timeout).saturating_duration_since(Instant::now()));
            if !sys::wait(&mut fds, timeout) {
                // Interrupted by a signal, as a rule. Nothing is known to
                // be ready; do not spin should the error persist.
                std::thread::sleep(Duration::from_millis(1));
                fds.iter_mut().for_each(|fd| fd.revents = 0);
            }
            if self.stop.load(Ordering::SeqCst) {
                return; // closes the listener and every parked connection
            }
            let now = Instant::now();

            // Parked connections with something to read go back to the
            // workers (downwards, so `swap_remove` keeps `fds` aligned);
            // silent ones past the idle budget are closed.
            for i in (0..parked.len()).rev() {
                if fds[2 + i].revents != 0 {
                    let (conn, _) = parked.swap_remove(i);
                    self.enqueue(conn, now);
                } else if now.saturating_duration_since(parked[i].1) >= self.idle_timeout {
                    // Counted before the close, which the peer can see.
                    flowcube_obs::counter_add(&scope.connections_idle_closed, 1);
                    parked.swap_remove(i);
                }
            }

            if fds[1].revents != 0 {
                let mut drain = [0u8; 64];
                let _ = (&self.wake).read(&mut drain);
                for conn in self.handback.take() {
                    if parked.len() >= self.idle_cap {
                        let longest_idle = (0..parked.len()).min_by_key(|&i| parked[i].1);
                        if let Some(i) = longest_idle {
                            parked.swap_remove(i);
                            flowcube_obs::counter_add(&scope.connections_idle_closed, 1);
                        }
                    }
                    parked.push((conn, now));
                }
            }

            if fds[0].revents != 0 {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        flowcube_obs::counter_add(&scope.connections_accepted, 1);
                        let conn = Conn {
                            stream,
                            carry: Vec::new(),
                            served: 0,
                        };
                        self.enqueue(conn, now);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    // Out of descriptors, most likely: the listener stays
                    // readable, so back off instead of spinning.
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }

            if parked.len() != idle_reported {
                idle_reported = parked.len();
                flowcube_obs::gauge_set(&scope.connections_idle, idle_reported as f64);
            }
        }
    }

    /// Queue a connection a worker can serve now; shed it when the queue
    /// is full, telling the client when to come back.
    fn enqueue(&self, conn: Conn, ready_at: Instant) {
        if let Err(mut shed) = self.queue.push(conn, ready_at) {
            flowcube_obs::counter_add(&self.service.scope().shed, 1);
            flight::record(FlightKind::Shed, 0, 0, 429, 0);
            let _ = shed.stream.set_nonblocking(false);
            let _ = shed
                .stream
                .set_write_timeout(Some(Duration::from_millis(500)));
            let _ = write_response(
                &mut shed.stream,
                &error_response(&ApiError::Overloaded),
                false,
            );
        }
    }
}

/// What every worker of one server shares.
struct WorkerPool<S> {
    service: Arc<S>,
    queue: Arc<ConnQueue>,
    handback: Arc<Handback>,
    stop: Arc<AtomicBool>,
    config: ServerConfig,
}

/// Keep the worker pool at full strength: spawn the workers, poll for
/// finished handles, and respawn any that exited by panic. A crash is
/// counted in `{scope}.worker.crashes` and handed to
/// [`Service::worker_crashed`] (each tier's `/healthz` surfaces the
/// total). Workers that return normally (shutdown) are simply reaped.
fn supervisor_loop<S: Service>(pool: WorkerPool<S>) {
    let pool = Arc::new(pool);
    let scope = pool.service.scope();
    let spawn_worker = |slot: usize, generation: u64| -> Option<JoinHandle<()>> {
        let pool = pool.clone();
        std::thread::Builder::new()
            .name(format!("{}-worker-{slot}.{generation}", scope.name))
            .spawn(move || worker_loop(&pool))
            .ok()
    };
    let workers = pool.config.workers.max(1);
    let mut generation = 0u64;
    let mut handles: Vec<Option<JoinHandle<()>>> =
        (0..workers).map(|slot| spawn_worker(slot, 0)).collect();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let stopping = pool.stop.load(Ordering::SeqCst);
        for (slot, entry) in handles.iter_mut().enumerate() {
            // Only reap handles that actually finished — `take` on a
            // live worker would detach it from supervision.
            if !matches!(entry, Some(h) if h.is_finished()) {
                continue;
            }
            if let Some(handle) = entry.take() {
                let crashed = handle.join().is_err();
                if crashed {
                    flowcube_obs::counter_add(&scope.worker_crashes, 1);
                    pool.service.worker_crashed();
                    if !stopping {
                        generation += 1;
                        *entry = spawn_worker(slot, generation);
                    }
                }
                // A clean return means shutdown: leave the slot empty.
            }
        }
        if stopping {
            for handle in handles.iter_mut().filter_map(Option::take) {
                let _ = handle.join();
            }
            return;
        }
    }
}

fn worker_loop<S: Service>(pool: &WorkerPool<S>) {
    let (service, config) = (&*pool.service, &pool.config);
    let scope = service.scope();
    let rejected = |e: ApiError| {
        flowcube_obs::counter_add(&scope.malformed, 1);
        error_response(&e)
    };
    loop {
        let Some((mut conn, mut queue_wait_us)) = pool.queue.pop(Duration::from_millis(100)) else {
            if pool.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        // Fault injection: kill this worker after it claimed a
        // connection — the harshest spot, since the stream dies with it.
        // The supervisor respawns the pool slot. The site carries the
        // scope's name, so arming one tier's never kills another's
        // workers in the same process.
        flowcube_testkit::fail_point_unit(&scope.worker_request);
        if conn.served == 0 {
            // Some platforms hand the listener's non-blocking mode down.
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_read_timeout(Some(config.read_timeout));
            let _ = conn.stream.set_write_timeout(Some(config.write_timeout));
            let _ = conn.stream.set_nodelay(true);
        }
        // Answer the request that made the connection ready, and any
        // pipelined behind it; then park the connection or drop it.
        loop {
            let (resp, keep_alive) = match read_request(&mut conn.stream, &mut conn.carry) {
                Ok((req, client_keeps_alive)) => {
                    let mut ctx = match config.request_deadline {
                        Some(timeout) => RequestCtx::with_timeout(timeout),
                        None => RequestCtx::default(),
                    };
                    ctx.queue_wait_us = queue_wait_us;
                    if conn.served > 0 {
                        flowcube_obs::counter_add(&scope.connections_reused, 1);
                    }
                    let resp = handle_request(service, &req, &ctx);
                    let stopping = pool.stop.load(Ordering::SeqCst);
                    (resp, client_keeps_alive && !stopping)
                }
                Err(HttpError::Disconnected) => {
                    // A peer that closes a connection it was not using
                    // has not vanished mid-request.
                    let was_idle = conn.served > 0 && conn.carry.is_empty();
                    if !was_idle {
                        flowcube_obs::counter_add(&scope.disconnected, 1);
                    }
                    break;
                }
                Err(HttpError::Malformed(detail)) => (rejected(ApiError::Malformed(detail)), false),
                Err(HttpError::TooLarge) => (rejected(ApiError::TooLarge), false),
            };
            if write_response(&mut conn.stream, &resp, keep_alive).is_err() || !keep_alive {
                break;
            }
            conn.served += 1;
            if !request_buffered(&conn.carry) {
                pool.handback.park(conn);
                break;
            }
            queue_wait_us = 0;
        }
    }
}

// ---- signals ------------------------------------------------------------
// `SIGINT`/`SIGTERM` (stop) and `SIGHUP` (reload) handlers flip these
// process-wide flags; `ServerHandle::wait_for_signals` polls them.

static SIGNAL_RECEIVED: AtomicBool = AtomicBool::new(false);
static RELOAD_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::{RELOAD_REQUESTED, SIGNAL_RECEIVED};
    use std::sync::atomic::Ordering;

    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SIGNAL_RECEIVED.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_reload(_signum: i32) {
        RELOAD_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // std already links libc on unix; `signal(2)` with a flag-setting
        // handler is the only async-signal-safe thing we need.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGHUP, on_reload as *const () as usize);
        }
    }
}

// ---- poll(2) ------------------------------------------------------------
// The acceptor's one blocking call: wait until the listener, the wake
// channel or a parked connection has something to read.

mod sys {
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        /// What `poll` found: non-zero when the descriptor is readable,
        /// at end of stream, or in error.
        pub revents: i16,
    }

    impl PollFd {
        pub fn readable(source: &impl AsRawFd) -> PollFd {
            PollFd {
                fd: source.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            }
        }
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    /// Block until a descriptor is ready or `timeout` passes (`None`: no
    /// limit). `false` when the call failed — `EINTR`, as a rule — and
    /// `revents` holds nothing.
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> bool {
        // Rounded up, so that a wait for an expiry does not return just
        // short of it and spin.
        let millis = timeout.map_or(-1, |t| {
            i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
        });
        // SAFETY: pointer and length describe one live, exclusively
        // borrowed slice of `#[repr(C)]` structs laid out as `struct
        // pollfd`; `poll` writes only their `revents` and keeps no
        // pointer past its return. std already links libc on unix.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, millis) >= 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_testkit::http::Persistent;

    /// A service that answers everything with `{}`.
    struct Null(Scope);

    impl Service for Null {
        fn scope(&self) -> &Scope {
            &self.0
        }

        fn route(&self, _req: &Request, _ctx: &RequestCtx, _trace: u64) -> HttpResponse {
            HttpResponse::json(200, "{}".into())
        }

        fn worker_crashed(&self) {}
    }

    /// With room to park two connections, parking a third closes the one
    /// that has idled longest and no other.
    #[test]
    fn at_the_idle_cap_the_longest_idle_connection_is_closed() {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = host_capped(Null(Scope::new("idlecap", &[])), &config, 2).unwrap();
        let mut clients: Vec<Persistent> = (0..3).map(|_| Persistent::new(server.addr())).collect();
        // Served in order, a pause apart: client 0 idles longest.
        for client in &mut clients {
            assert_eq!(client.get("/x").expect("answered").0, 200);
            std::thread::sleep(Duration::from_millis(30));
        }
        assert!(
            clients[0].closed_by_server(Duration::from_secs(2)),
            "the longest-idle connection makes room"
        );
        for client in &mut clients[1..] {
            assert!(!client.closed_by_server(Duration::from_millis(50)));
            assert_eq!(client.get("/x").expect("answered").0, 200);
            assert_eq!(client.connects, 1, "the younger two are kept");
        }
        server.shutdown();
        server.join();
    }
}

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
//! * one **acceptor** thread pulls connections off the listener and
//!   pushes them onto a bounded queue;
//! * `workers` **worker** threads pop connections, apply socket
//!   read/write timeouts, parse one request, answer it through
//!   [`crate::api::handle_request`] (the request envelope around the
//!   service's route), and close;
//! * when the queue is full the acceptor answers `429 Too Many
//!   Requests` inline and drops the connection — load shedding at the
//!   door instead of unbounded buffering.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] (or `SIGINT`/
//! `SIGTERM` via [`ServerHandle::wait_for_signals`]) flips a flag; the
//! acceptor (unblocked by a wake-up connection) and the workers
//! (polling the queue with a short wait timeout) notice it and drain.
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
use crate::http::{read_request, write_response, HttpError, Request};
use flowcube_obs::flight::{self, FlightKind};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
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

/// A service's name and everything derived from it, built once so that
/// neither the runtime nor the envelope formats a series name per
/// request.
pub struct Scope {
    /// `"serve"` / `"federate"`: prefixes every series below, the
    /// runtime's thread names and the worker failpoint, so two tiers in
    /// one process (a front and its shards, in tests and benchmarks)
    /// never write each other's series.
    pub name: &'static str,
    /// `(path, endpoint tag, flight label)` per routable path.
    endpoints: Vec<(&'static str, &'static str, u16)>,
    /// Flight label of the `"other"` tag every unlisted path gets.
    other: u16,
    pub(crate) requests_total: String,
    pub(crate) latency_us: String,
    pub(crate) request_latency_us: String,
    pub(crate) queue_wait_us: String,
    /// `{name}.responses.Nxx`, indexed like [`crate::api::STATUS_CLASSES`].
    pub(crate) responses: [String; 6],
    queue_depth: String,
    shed: String,
    worker_crashes: String,
    malformed: String,
    disconnected: String,
    started: String,
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
                .map(|&(path, tag)| (path, tag, flight::intern(tag)))
                .collect(),
            other: flight::intern("other"),
            requests_total: series("requests.total"),
            latency_us: series("latency_us"),
            request_latency_us: series("request.latency_us"),
            queue_wait_us: series("queue.wait_us"),
            responses: crate::api::STATUS_CLASSES
                .map(|class| series(&format!("responses.{class}"))),
            queue_depth: series("queue.depth"),
            shed: series("shed"),
            worker_crashes: series("worker.crashes"),
            malformed: series("malformed"),
            disconnected: series("disconnected"),
            started: series("started"),
            worker_request: series("worker.request"),
        }
    }

    /// The metric tag and flight label of a request path.
    pub fn endpoint(&self, path: &str) -> (&'static str, u16) {
        self.endpoints
            .iter()
            .find(|(p, _, _)| *p == path)
            .map_or(("other", self.other), |&(_, tag, label)| (tag, label))
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
    /// Per-connection socket read timeout.
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

/// The bounded hand-off between the acceptor and the workers.
/// (std `Mutex`/`Condvar` — the vendored `parking_lot` has no condvar;
/// poisoning is recovered because a panicking worker must not wedge the
/// accept path.)
struct ConnQueue {
    /// Each connection carries its enqueue instant so the worker that
    /// picks it up can report how long it waited.
    queue: std::sync::Mutex<VecDeque<(TcpStream, Instant)>>,
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

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<(TcpStream, Instant)>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue if there is room; a full queue hands the stream back so
    /// the caller can shed it.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.lock();
        if q.len() >= self.depth {
            return Err(stream);
        }
        q.push_back((stream, Instant::now()));
        flowcube_obs::gauge_set(&self.gauge, q.len() as f64);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop with a bounded wait so workers can observe shutdown. Returns
    /// the stream and the microseconds it sat queued.
    fn pop(&self, wait: Duration) -> Option<(TcpStream, u64)> {
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
        item.map(|(stream, enqueued)| (stream, enqueued.elapsed().as_micros() as u64))
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle<S = AppState> {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    state: Arc<S>,
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

    /// Request a graceful stop; returns immediately. A wake-up
    /// connection unblocks the acceptor so it observes the flag without
    /// waiting for real traffic.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
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
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

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
    let mut threads = Vec::with_capacity(2);

    // Acceptor.
    {
        let (state, queue, stop) = (state.clone(), queue.clone(), stop.clone());
        threads.push(
            std::thread::Builder::new()
                .name(format!("{}-accept", scope.name))
                .spawn(move || acceptor_loop(listener, state, queue, stop))?,
        );
    }

    // Supervisor — spawns the workers and respawns any that panic.
    {
        let (state, stop, config) = (state.clone(), stop.clone(), config.clone());
        threads.push(
            std::thread::Builder::new()
                .name(format!("{}-supervisor", scope.name))
                .spawn(move || supervisor_loop(state, queue, stop, config))?,
        );
    }

    flowcube_obs::counter_add(&scope.started, 1);
    Ok(ServerHandle {
        addr,
        stop,
        state,
        threads,
    })
}

/// Convenience: build the [`AppState`] and start serving.
pub fn serve_cube(cube: crate::api::ServedCube, config: ServerConfig) -> io::Result<ServerHandle> {
    let cache = ResponseCache::new(config.cache_capacity);
    serve(AppState::new(cube, cache), config)
}

fn acceptor_loop<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
    queue: Arc<ConnQueue>,
    stop: Arc<AtomicBool>,
) {
    // Blocking accept: zero added latency on the hot path. `shutdown`
    // unblocks it with a wake-up connection.
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stop.load(Ordering::SeqCst) {
                    return; // the wake-up connection (or late traffic)
                }
                if let Err(mut shed) = queue.push(stream) {
                    // Queue full: shed at the door, telling the client
                    // when to come back.
                    flowcube_obs::counter_add(&service.scope().shed, 1);
                    flight::record(FlightKind::Shed, 0, 0, 429, 0);
                    let _ = shed.set_write_timeout(Some(Duration::from_millis(500)));
                    let _ = write_response(&mut shed, &error_response(&ApiError::Overloaded));
                }
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Keep the worker pool at full strength: spawn the workers, poll for
/// finished handles, and respawn any that exited by panic. A crash is
/// counted in `{scope}.worker.crashes` and handed to
/// [`Service::worker_crashed`] (each tier's `/healthz` surfaces the
/// total). Workers that return normally (shutdown) are simply reaped.
fn supervisor_loop<S: Service>(
    service: Arc<S>,
    queue: Arc<ConnQueue>,
    stop: Arc<AtomicBool>,
    config: ServerConfig,
) {
    let scope = service.scope();
    let spawn_worker = |slot: usize, generation: u64| -> Option<JoinHandle<()>> {
        let service = service.clone();
        let queue = queue.clone();
        let stop = stop.clone();
        let config = config.clone();
        std::thread::Builder::new()
            .name(format!("{}-worker-{slot}.{generation}", scope.name))
            .spawn(move || worker_loop(service, queue, stop, config))
            .ok()
    };
    let workers = config.workers.max(1);
    let mut generation = 0u64;
    let mut pool: Vec<Option<JoinHandle<()>>> =
        (0..workers).map(|slot| spawn_worker(slot, 0)).collect();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let stopping = stop.load(Ordering::SeqCst);
        for (slot, entry) in pool.iter_mut().enumerate() {
            // Only reap handles that actually finished — `take` on a
            // live worker would detach it from supervision.
            if !matches!(entry, Some(h) if h.is_finished()) {
                continue;
            }
            if let Some(handle) = entry.take() {
                let crashed = handle.join().is_err();
                if crashed {
                    flowcube_obs::counter_add(&scope.worker_crashes, 1);
                    service.worker_crashed();
                    if !stopping {
                        generation += 1;
                        *entry = spawn_worker(slot, generation);
                    }
                }
                // A clean return means shutdown: leave the slot empty.
            }
        }
        if stopping {
            for handle in pool.iter_mut().filter_map(Option::take) {
                let _ = handle.join();
            }
            return;
        }
    }
}

fn worker_loop<S: Service>(
    service: Arc<S>,
    queue: Arc<ConnQueue>,
    stop: Arc<AtomicBool>,
    config: ServerConfig,
) {
    let scope = service.scope();
    let rejected = |e: ApiError| {
        flowcube_obs::counter_add(&scope.malformed, 1);
        error_response(&e)
    };
    loop {
        let Some((mut stream, queue_wait_us)) = queue.pop(Duration::from_millis(100)) else {
            if stop.load(Ordering::SeqCst) {
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
        let _ = stream.set_read_timeout(Some(config.read_timeout));
        let _ = stream.set_write_timeout(Some(config.write_timeout));
        let resp = match read_request(&mut stream) {
            Ok(req) => {
                let mut ctx = match config.request_deadline {
                    Some(timeout) => RequestCtx::with_timeout(timeout),
                    None => RequestCtx::default(),
                };
                ctx.queue_wait_us = queue_wait_us;
                handle_request(&*service, &req, &ctx)
            }
            Err(HttpError::Disconnected) => {
                flowcube_obs::counter_add(&scope.disconnected, 1);
                continue;
            }
            Err(HttpError::Malformed(detail)) => rejected(ApiError::Malformed(detail)),
            Err(HttpError::TooLarge) => rejected(ApiError::TooLarge),
        };
        let _ = write_response(&mut stream, &resp);
        // Connection: close — drop the stream.
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

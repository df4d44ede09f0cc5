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
//! Threading model — one Linux `epoll(7)` readiness set per server owns
//! every connection that is between requests:
//!
//! * one **acceptor** thread keeps the door. It accepts, puts each fresh
//!   connection on a bounded queue and rings the set's doorbell (an
//!   `eventfd`); when the queue is full it answers `429 Too Many
//!   Requests` inline and drops the connection — load shedding at the
//!   door instead of unbounded buffering. It also closes parked
//!   connections that idle past the read timeout. Nothing else wakes it;
//! * `workers` **worker** threads wait on the set itself. The worker the
//!   kernel wakes takes what is ready — the doorbell (it pops a fresh
//!   connection and applies the socket timeouts and `TCP_NODELAY`) or a
//!   parked connection whose next request has started to arrive — parses
//!   one request, answers it through [`crate::api::handle_request`] (the
//!   request envelope around the service's route), answers any request
//!   already waiting in the connection's carry buffer (pipelining), and
//!   then closes the connection or parks it again: one `epoll_ctl`
//!   re-arms it. **A connection between requests occupies no worker**: a
//!   worker never blocks in `read` on an idle socket, so two workers
//!   serve any number of persistent clients.
//!
//! Connection life cycle: accepted → queued → served → parked → served
//! → … → closed. The queue owns a socket while it is queued, one worker
//! while it is served, the set's slot table while it is parked; a
//! parked connection that turns readable goes from the kernel straight
//! to the worker it wakes, so it waits in the kernel's ready list, never
//! in the queue, and is never shed. A response says `Connection:
//! keep-alive` exactly when the connection is parked afterwards, and
//! `Connection: close` when it is not: the client asked for `Connection:
//! close` (or spoke HTTP/1.0 without `Connection: keep-alive`), the
//! request could not be parsed (the stream position is unknown), the
//! write failed, the server is shutting down, or the connection was
//! shed. A parked connection that stays silent for
//! [`ServerConfig::read_timeout`] is closed, and at most
//! [`MAX_IDLE_CONNECTIONS`] are parked — parking one more closes the
//! longest-idle one. The runtime waits on `epoll`: it needs Linux.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] (or `SIGINT`/
//! `SIGTERM` via [`ServerHandle::wait_for_signals`]) flips a flag and
//! wakes the acceptor and the workers through their `eventfd`s; the
//! acceptor closes every parked connection and exits, the workers answer
//! what is in flight with `Connection: close` and drain.
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
use crate::error::ApiError;
use crate::http::{
    read_request, request_buffered, write_response, Framer, HttpError, Request, Start,
    MAX_IDLE_CONNECTIONS,
};
use flowcube_obs::flight::{self, FlightKind};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// Returns from the acceptor's wait: accepts, idle sweeps, shutdown.
    acceptor_wakeups: String,
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
            acceptor_wakeups: series("acceptor.wakeups"),
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

/// A client connection, as it travels between the queue, the workers
/// and the readiness set.
struct Conn {
    stream: TcpStream,
    /// Bytes read past the last answered request: the start of the next.
    carry: Framer,
    /// Requests answered on this connection so far.
    served: u64,
    /// Registered in the readiness set: parking it again re-arms it.
    registered: bool,
}

/// The bounded queue of fresh connections, between the acceptor and the
/// workers. (Poisoning is recovered because a panicking worker must not
/// wedge the accept path.)
struct ConnQueue {
    /// Each connection carries the instant it was accepted, so the
    /// worker that picks it up can report how long it waited.
    queue: Mutex<VecDeque<(Conn, Instant)>>,
    depth: usize,
    /// The `{scope}.queue.depth` gauge.
    gauge: String,
}

impl ConnQueue {
    fn new(depth: usize, gauge: String) -> Self {
        ConnQueue {
            queue: Mutex::new(VecDeque::new()),
            depth: depth.max(1),
            gauge,
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<(Conn, Instant)>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue if there is room; a full queue hands the connection back
    /// so the caller can shed it.
    fn push(&self, conn: Conn, accepted: Instant) -> Result<(), Conn> {
        let mut q = self.lock();
        if q.len() >= self.depth {
            return Err(conn);
        }
        q.push_back((conn, accepted));
        flowcube_obs::gauge_set(&self.gauge, q.len() as f64);
        Ok(())
    }

    /// The oldest connection and the microseconds it sat queued.
    fn pop(&self) -> Option<(Conn, u64)> {
        let mut q = self.lock();
        let (conn, accepted) = q.pop_front()?;
        flowcube_obs::gauge_set(&self.gauge, q.len() as f64);
        Some((conn, accepted.elapsed().as_micros() as u64))
    }
}

/// The doorbell's token in the workers' set; a parked connection's is
/// its slot index in the low half and the slot's generation in the high
/// half, and no slot index reaches `u32::MAX`.
const DOORBELL: u64 = u64::MAX;
/// The tokens of the acceptor's set.
const LISTENER: u64 = 0;
const ACCEPTOR_WAKE: u64 = 1;

/// The readiness set the workers wait on, and the slot table that owns
/// the parked connections. Each parked socket is armed `EPOLLIN |
/// EPOLLRDHUP | EPOLLONESHOT`, so its readiness reaches exactly one
/// worker and disarms it; that worker re-arms it when it parks the
/// connection again. A slot's generation moves on each time the slot is
/// reused, so an event for a connection the idle sweep has already
/// closed names a stale token and is ignored.
struct Parking {
    epoll: sys::Epoll,
    /// Rung once per queued fresh connection; in the set, level-triggered.
    doorbell: sys::EventFd,
    slots: Mutex<Slots>,
    /// Most connections parked at once.
    cap: usize,
    /// The `{scope}.connections.idle` gauge.
    idle: String,
    /// The `{scope}.connections.idle_closed` counter.
    idle_closed: String,
}

#[derive(Default)]
struct Slots {
    /// Generation and, while parked, the connection and when it parked.
    entries: Vec<(u32, Option<(Conn, Instant)>)>,
    free: Vec<usize>,
    parked: usize,
    /// Set at shutdown: nothing parks any more.
    closed: bool,
}

impl Slots {
    fn remove(&mut self, index: usize) -> Option<Conn> {
        let (conn, _) = self.entries[index].1.take()?;
        self.free.push(index);
        self.parked -= 1;
        Some(conn)
    }
}

impl Parking {
    fn new(cap: usize, scope: &Scope) -> io::Result<Parking> {
        let parking = Parking {
            epoll: sys::Epoll::new()?,
            doorbell: sys::EventFd::new()?,
            slots: Mutex::new(Slots::default()),
            cap: cap.max(1),
            idle: scope.connections_idle.clone(),
            idle_closed: scope.connections_idle_closed.clone(),
        };
        parking
            .epoll
            .add(&parking.doorbell, sys::EPOLLIN, DOORBELL)?;
        Ok(parking)
    }

    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Park `conn` until its next request starts to arrive. Parking one
    /// more than the cap closes the longest-idle connection first.
    fn park(&self, mut conn: Conn) {
        let mut slots = self.lock();
        if slots.closed {
            return;
        }
        if slots.parked >= self.cap {
            let longest_idle = (0..slots.entries.len())
                .filter_map(|i| Some((i, slots.entries[i].1.as_ref()?.1)))
                .min_by_key(|&(_, since)| since);
            if let Some((i, _)) = longest_idle {
                // Counted before the close, which the peer can see.
                flowcube_obs::counter_add(&self.idle_closed, 1);
                slots.remove(i);
            }
        }
        let index = slots.free.pop().unwrap_or_else(|| {
            slots.entries.push((0, None));
            slots.entries.len() - 1
        });
        let generation = slots.entries[index].0.wrapping_add(1);
        let token = (u64::from(generation) << 32) | index as u64;
        let interest = sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLONESHOT;
        let armed = if conn.registered {
            self.epoll.modify(&conn.stream, interest, token)
        } else {
            self.epoll.add(&conn.stream, interest, token)
        };
        if armed.is_err() {
            // Nothing would ever wake for it: close it.
            slots.free.push(index);
            return;
        }
        conn.registered = true;
        // In the table before the lock is released, so the worker the
        // event wakes finds it.
        slots.entries[index] = (generation, Some((conn, Instant::now())));
        slots.parked += 1;
        flowcube_obs::gauge_set(&self.idle, slots.parked as f64);
    }

    /// Take the parked connection `token` names; `None` when its slot has
    /// moved on (the sweep closed it first).
    fn take(&self, token: u64) -> Option<Conn> {
        let (index, generation) = ((token & u64::from(u32::MAX)) as usize, (token >> 32) as u32);
        let mut slots = self.lock();
        if slots.entries.get(index)?.0 != generation {
            return None;
        }
        let conn = slots.remove(index)?;
        flowcube_obs::gauge_set(&self.idle, slots.parked as f64);
        Some(conn)
    }

    /// Close every connection parked for `idle` or longer; returns when
    /// the next of the others expires.
    fn sweep(&self, now: Instant, idle: Duration) -> Option<Instant> {
        let mut slots = self.lock();
        let mut next = None::<Instant>;
        for i in 0..slots.entries.len() {
            let Some((_, since)) = slots.entries[i].1 else {
                continue;
            };
            if now.saturating_duration_since(since) >= idle {
                flowcube_obs::counter_add(&self.idle_closed, 1);
                slots.remove(i);
            } else {
                next = Some(next.map_or(since, |n| n.min(since)));
            }
        }
        flowcube_obs::gauge_set(&self.idle, slots.parked as f64);
        next.map(|since| since + idle)
    }

    /// Close every parked connection, and park none from now on.
    fn close_all(&self) {
        let mut slots = self.lock();
        slots.closed = true;
        slots.entries.clear();
        slots.free.clear();
        slots.parked = 0;
        flowcube_obs::gauge_set(&self.idle, 0.0);
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle<S = AppState> {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    state: Arc<S>,
    /// Wakes the acceptor.
    door_wake: Arc<sys::EventFd>,
    parking: Arc<Parking>,
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

    /// Request a graceful stop; returns immediately. The acceptor and
    /// the idle workers are woken, so they observe the flag without
    /// waiting for real traffic.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.door_wake.post(1);
        // Enough rings for every worker; each takes one and sees the flag.
        self.parking.doorbell.post(1 << 20);
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
    // `epoll` says when `accept` will not block; should the peer have
    // reset by then, a blocking accept would stall the door.
    listener.set_nonblocking(true)?;
    let door = sys::Epoll::new()?;
    let door_wake = Arc::new(sys::EventFd::new()?);
    door.add(&listener, sys::EPOLLIN, LISTENER)?;
    door.add(&*door_wake, sys::EPOLLIN, ACCEPTOR_WAKE)?;

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
    let parking = Arc::new(Parking::new(idle_cap, scope)?);
    let mut threads = Vec::with_capacity(2);

    // Acceptor.
    {
        let acceptor = Acceptor {
            listener,
            door,
            service: state.clone(),
            queue: queue.clone(),
            parking: parking.clone(),
            stop: stop.clone(),
            idle_timeout: config.read_timeout,
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
            parking: parking.clone(),
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
        door_wake,
        parking,
        threads,
    })
}

/// Convenience: build the [`AppState`] and start serving.
pub fn serve_cube(cube: crate::api::ServedCube, config: ServerConfig) -> io::Result<ServerHandle> {
    serve(AppState::new(cube, config.cache_capacity), config)
}

/// The acceptor thread's state: the listener and its own readiness set
/// — the listener and the wake `eventfd` — apart from the workers'.
struct Acceptor<S> {
    listener: TcpListener,
    door: sys::Epoll,
    service: Arc<S>,
    queue: Arc<ConnQueue>,
    parking: Arc<Parking>,
    stop: Arc<AtomicBool>,
    /// How long a parked connection may stay silent.
    idle_timeout: Duration,
}

impl<S: Service> Acceptor<S> {
    fn run(self) {
        let scope = self.service.scope();
        // No parked connection expires before this: one parked after the
        // last sweep expires a whole idle budget after it.
        let mut next_sweep = Instant::now() + self.idle_timeout;
        loop {
            let timeout = next_sweep.saturating_duration_since(Instant::now());
            let ready = self.door.wait(Some(timeout));
            flowcube_obs::counter_add(&scope.acceptor_wakeups, 1);
            if self.stop.load(Ordering::SeqCst) {
                self.parking.close_all();
                return; // closes the listener
            }
            match ready {
                Ok(Some(LISTENER)) => self.accept_all(),
                Ok(_) => {}
                // Interrupted by a signal, as a rule. Do not spin should
                // the error persist.
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
            let now = Instant::now();
            if now >= next_sweep {
                next_sweep = self
                    .parking
                    .sweep(now, self.idle_timeout)
                    .unwrap_or(now + self.idle_timeout);
            }
        }
    }

    /// Accept until the backlog is empty, queueing each connection.
    fn accept_all(&self) {
        let scope = self.service.scope();
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    flowcube_obs::counter_add(&scope.connections_accepted, 1);
                    let conn = Conn {
                        stream,
                        carry: Framer::new(Start::Request),
                        served: 0,
                        registered: false,
                    };
                    self.enqueue(conn, Instant::now());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Out of descriptors, most likely: the listener stays
                // readable, so back off instead of spinning.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(20));
                    return;
                }
            }
        }
    }

    /// Queue a fresh connection and ring for a worker; shed it when the
    /// queue is full, telling the client when to come back.
    fn enqueue(&self, conn: Conn, accepted: Instant) {
        match self.queue.push(conn, accepted) {
            Ok(()) => self.parking.doorbell.post(1),
            Err(mut shed) => {
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
}

/// What every worker of one server shares.
struct WorkerPool<S> {
    service: Arc<S>,
    queue: Arc<ConnQueue>,
    parking: Arc<Parking>,
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
    while !pool.stop.load(Ordering::SeqCst) {
        // A bounded wait, so that a worker observes shutdown even if it
        // missed its ring.
        match pool.parking.epoll.wait(Some(Duration::from_millis(100))) {
            Ok(Some(DOORBELL)) => {
                // Another worker may have answered the same ring.
                if !pool.parking.doorbell.take() {
                    continue;
                }
                if let Some((conn, waited_us)) = pool.queue.pop() {
                    serve_connection(pool, conn, Some(waited_us));
                }
            }
            Ok(Some(token)) => {
                if let Some(conn) = pool.parking.take(token) {
                    serve_connection(pool, conn, None);
                }
            }
            // Timed out, or interrupted by a signal.
            Ok(None) | Err(_) => {}
        }
    }
}

/// Answer the request that made `conn` ready, and any pipelined behind
/// it; then park the connection or drop it. `queue_wait_us` is how long
/// a fresh connection sat queued; a parked one waited in the kernel,
/// where the runtime does not see it.
fn serve_connection<S: Service>(
    pool: &WorkerPool<S>,
    mut conn: Conn,
    mut queue_wait_us: Option<u64>,
) {
    let (service, config) = (&*pool.service, &pool.config);
    let scope = service.scope();
    let rejected = |e: ApiError| {
        flowcube_obs::counter_add(&scope.malformed, 1);
        error_response(&e)
    };
    // Fault injection: kill this worker after it claimed a connection —
    // the harshest spot, since the stream dies with it. The supervisor
    // respawns the pool slot. The site carries the scope's name, so
    // arming one tier's never kills another's workers in the same
    // process.
    flowcube_testkit::fail_point_unit(&scope.worker_request);
    if conn.served == 0 {
        // Some platforms hand the listener's non-blocking mode down.
        let _ = conn.stream.set_nonblocking(false);
        let _ = conn.stream.set_read_timeout(Some(config.read_timeout));
        let _ = conn.stream.set_write_timeout(Some(config.write_timeout));
        let _ = conn.stream.set_nodelay(true);
    }
    loop {
        let (resp, keep_alive) = match read_request(&mut conn.stream, &mut conn.carry) {
            Ok((req, client_keeps_alive)) => {
                let mut ctx = match config.request_deadline {
                    Some(timeout) => RequestCtx::with_timeout(timeout),
                    None => RequestCtx::default(),
                };
                ctx.queue_wait_us = queue_wait_us.take();
                if conn.served > 0 {
                    flowcube_obs::counter_add(&scope.connections_reused, 1);
                }
                let resp = handle_request(service, &req, &ctx);
                let stopping = pool.stop.load(Ordering::SeqCst);
                (resp, client_keeps_alive && !stopping)
            }
            Err(HttpError::Disconnected) => {
                // A peer that closes a connection it was not using has
                // not vanished mid-request.
                let was_idle = conn.served > 0 && conn.carry.is_empty();
                if !was_idle {
                    flowcube_obs::counter_add(&scope.disconnected, 1);
                }
                return;
            }
            Err(HttpError::Malformed(detail)) => (rejected(ApiError::Malformed(detail)), false),
            Err(HttpError::HeadTooLarge) => (rejected(ApiError::HeadTooLarge), false),
            Err(HttpError::BodyTooLarge) => (rejected(ApiError::BodyTooLarge), false),
        };
        if write_response(&mut conn.stream, &resp, keep_alive).is_err() || !keep_alive {
            return;
        }
        conn.served += 1;
        if !request_buffered(&mut conn.carry) {
            pool.parking.park(conn);
            return;
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

// ---- epoll(7), poll(2) ----------------------------------------------------
// The runtime's one blocking wait: the acceptor on its listener and wake
// `eventfd`, the workers on the doorbell and every parked connection.
// The federation front's request coordinator waits on `poll(2)` over its
// shard attempts' sockets, which it connects without blocking.

#[cfg(not(target_os = "linux"))]
compile_error!("the server runtime waits on epoll(7), which only Linux has");

/// The few Linux calls std does not wrap, for the runtime and for the
/// federation front's non-blocking shard attempts.
pub mod sys {
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, RawFd};
    use std::time::Duration;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_MOD: i32 = 3;
    /// `O_CLOEXEC`, as `EPOLL_CLOEXEC` and `EFD_CLOEXEC`.
    const CLOEXEC: i32 = 0o2_000_000;
    /// `O_NONBLOCK`, as `EFD_NONBLOCK`.
    const NONBLOCK: i32 = 0o4_000;
    const EFD_SEMAPHORE: i32 = 1;

    /// `struct epoll_event`, which the kernel packs on x86-64.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    /// `errno` of a non-blocking `connect` that has begun.
    const EINPROGRESS: i32 = 115;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// `struct sockaddr_in`: port and address in network byte order.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }

    /// `struct sockaddr_in6`.
    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port: [u8; 2],
        flowinfo: [u8; 4],
        addr: [u8; 16],
        scope_id: u32,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
    }

    /// A wait of `timeout` in whole milliseconds, rounded up so that a
    /// wait for an expiry does not return just short of it and spin;
    /// `None` is no limit.
    fn millis(timeout: Option<Duration>) -> i32 {
        timeout.map_or(-1, |t| {
            i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
        })
    }

    /// Block until one of `fds` is ready or `timeout` passes; how many
    /// are ready (their `revents` say how). `EINTR` counts as none ready.
    pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        // SAFETY: `fds` is a live array of `fds.len()` `struct pollfd`s
        // that the kernel writes `revents` of during the call only.
        match unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as std::ffi::c_ulong,
                millis(timeout),
            )
        } {
            n if n >= 0 => Ok(n as usize),
            _ => match io::Error::last_os_error() {
                e if e.kind() == io::ErrorKind::Interrupted => Ok(0),
                e => Err(e),
            },
        }
    }

    /// Start a TCP connect to `addr` without blocking: the stream, and
    /// whether it is connected already. One that is not becomes writable
    /// (`POLLOUT`) once the handshake ends, and then
    /// [`TcpStream::take_error`] says whether it failed. The stream is
    /// non-blocking.
    pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<(TcpStream, bool)> {
        let family = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        // SAFETY: no pointers, and a new descriptor on success.
        let fd = unsafe { socket(family, SOCK_STREAM | NONBLOCK | CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `socket` just handed over the one owner of `fd`; the
        // stream closes it on every path from here.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        let port = addr.port().to_be_bytes();
        // SAFETY (both arms): the address is a live, fully initialized
        // `struct sockaddr_in{,6}` of the length passed, which the
        // kernel only reads during the call.
        let rc = match addr {
            SocketAddr::V4(v4) => {
                let raw = SockAddrIn {
                    family: AF_INET as u16,
                    port,
                    addr: v4.ip().octets(),
                    zero: [0; 8],
                };
                let len = std::mem::size_of::<SockAddrIn>() as u32;
                unsafe { connect(fd, (&raw as *const SockAddrIn).cast(), len) }
            }
            SocketAddr::V6(v6) => {
                let raw = SockAddrIn6 {
                    family: AF_INET6 as u16,
                    port,
                    flowinfo: v6.flowinfo().to_be_bytes(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                let len = std::mem::size_of::<SockAddrIn6>() as u32;
                unsafe { connect(fd, (&raw as *const SockAddrIn6).cast(), len) }
            }
        };
        if rc == 0 {
            return Ok((stream, true));
        }
        match io::Error::last_os_error() {
            e if e.raw_os_error() == Some(EINPROGRESS) => Ok((stream, false)),
            e => Err(e),
        }
    }

    /// A descriptor a call just returned, owned; or the call's error.
    ///
    /// # Safety
    ///
    /// `fd` is the return value of a call that, on success, hands over
    /// a new descriptor nothing else owns.
    unsafe fn owned(fd: i32) -> io::Result<File> {
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the caller hands over the one owner of `fd`.
        Ok(unsafe { File::from_raw_fd(fd as RawFd) })
    }

    /// An `epoll` instance; each registration carries a `u64` token.
    pub struct Epoll(File);

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: no pointers, and a new descriptor on success;
            // std already links libc on Linux.
            unsafe { owned(epoll_create1(CLOEXEC)) }.map(Epoll)
        }

        pub fn add(&self, source: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, source.as_raw_fd(), events, token)
        }

        /// Change a registration — for a one-shot one, re-arm it.
        pub fn modify(&self, source: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, source.as_raw_fd(), events, token)
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `event` is a live `struct epoll_event` the kernel
            // only reads during the call.
            match unsafe { epoll_ctl(self.0.as_raw_fd(), op, fd, &mut event) } {
                0 => Ok(()),
                _ => Err(io::Error::last_os_error()),
            }
        }

        /// Block until one registration is ready or `timeout` passes
        /// (`None`: no limit); the ready one's token, `None` on timeout.
        /// `EINTR` is an error.
        pub fn wait(&self, timeout: Option<Duration>) -> io::Result<Option<u64>> {
            let mut event = EpollEvent { events: 0, data: 0 };
            // SAFETY: room for exactly the one event `maxevents` allows;
            // the kernel keeps no pointer past the call.
            match unsafe { epoll_wait(self.0.as_raw_fd(), &mut event, 1, millis(timeout)) } {
                n if n < 0 => Err(io::Error::last_os_error()),
                0 => Ok(None),
                _ => Ok(Some(event.data)),
            }
        }
    }

    /// A non-blocking `eventfd` in semaphore mode: readable while its
    /// count is above zero, and each read takes one.
    pub struct EventFd(File);

    impl EventFd {
        pub fn new() -> io::Result<EventFd> {
            // SAFETY: no pointers, and a new descriptor on success.
            unsafe { owned(eventfd(0, CLOEXEC | NONBLOCK | EFD_SEMAPHORE)) }.map(EventFd)
        }

        pub fn post(&self, n: u64) {
            // Fails only when the count would overflow: still readable.
            let _ = (&self.0).write_all(&n.to_ne_bytes());
        }

        /// Take one from the count; `false` when it was zero.
        pub fn take(&self) -> bool {
            let mut count = [0u8; 8];
            (&self.0).read_exact(&mut count).is_ok()
        }
    }

    impl AsRawFd for EventFd {
        fn as_raw_fd(&self) -> RawFd {
            self.0.as_raw_fd()
        }
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

    /// Connect without blocking, then wait for the handshake in `poll`:
    /// the socket turns writable with no error, over IPv4 and (where the
    /// host has it) IPv6; a closed port is refused, at once or through
    /// `take_error` once the socket turns ready.
    #[test]
    fn nonblocking_connects_finish_in_poll() {
        let wait_writable = |stream: &TcpStream| {
            let mut fd = [sys::PollFd {
                fd: std::os::fd::AsRawFd::as_raw_fd(stream),
                events: sys::POLLOUT,
                revents: 0,
            }];
            let ready = sys::poll_fds(&mut fd, Some(Duration::from_secs(5))).expect("poll");
            assert_eq!(ready, 1, "the handshake ended within the wait");
            stream.take_error().expect("SO_ERROR")
        };
        for bind in ["127.0.0.1:0", "[::1]:0"] {
            let Ok(listener) = TcpListener::bind(bind) else {
                continue; // no IPv6 loopback here
            };
            let addr = listener.local_addr().unwrap();
            let (stream, connected) = sys::connect_nonblocking(&addr).expect("connect starts");
            if !connected {
                assert!(wait_writable(&stream).is_none(), "{bind}: connected");
            }
            assert_eq!(stream.peer_addr().unwrap(), addr);
            listener.accept().expect("the listener sees the connection");
        }
        let closed = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let refusal = match sys::connect_nonblocking(&closed) {
            Err(e) => e,
            Ok((stream, false)) => wait_writable(&stream).expect("the connect failed"),
            Ok((_, true)) => panic!("connected to a closed port"),
        };
        assert_eq!(refusal.kind(), io::ErrorKind::ConnectionRefused);
    }
}

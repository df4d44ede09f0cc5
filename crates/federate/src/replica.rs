//! Replica sets per shard: health-weighted selection, hedged requests,
//! and per-request retry budgets for the scatter-gather front tier.
//!
//! Each shard of the federation is served by a **replica set** — one or
//! more `serve` backends holding the same shard cube, written on the CLI
//! as `--backends "a:1|a:2,b:1|b:2"` (`,` separates shards, `|` separates
//! replicas). A shard's fan-out leg (`Leg`) then becomes a small state
//! machine, stepped by the request's one coordinator (the front worker
//! running `front::scatter_gather`) as attempts end and timers fire:
//!
//! 1. **Select** a replica by health-weighted round-robin: breaker-open
//!    replicas are skipped outright ([`crate::health`]), replicas with a
//!    failure streak rank behind clean ones, and a rotating cursor
//!    spreads load across the healthy remainder.
//! 2. **Hedge**: if the primary attempt has not answered after the hedge
//!    threshold — by default the shard's recent p95 latency from a
//!    streaming window estimator, clamped into sane bounds — a second
//!    request is fired at the next replica. First *answer* wins; the
//!    loser is abandoned — it runs on, bounded by its socket budget, and
//!    its outcome reaches no leg — and counted under
//!    `federate.replica.abandoned`. Its socket re-enters the replica's
//!    pool only if it went on to read its whole response.
//! 3. **Retry** transport failures (refused, timeout, torn read) against
//!    the remaining replicas — but every hedge and every retry first
//!    draws a token from the request's [`RetryBudget`], so a brownout
//!    can at worst double the request's backend load, never storm it.
//!
//! Attempts ride persistent connections: each replica owns a small pool
//! of idle ones ([`client::Pool`]), emptied when its breaker opens. A
//! pooled connection the replica had already closed costs one resend on
//! a fresh connection inside [`client::Attempt`]; only that attempt's
//! outcome reaches the breaker, the retry budget and the metrics below.
//! Half-open probes never use the pool.
//!
//! The coordinator owns its attempts' sockets. Each attempt is a
//! non-blocking [`client::Attempt`] wrapped in a `Flight` (which replica,
//! which leg, what its end records), and one `poll(2)` over the request's
//! few sockets waits for whichever comes first: a socket ready, the
//! earliest hedge instant, an attempt's socket budget, or the request's
//! deadline. A healthy read makes no thread hand-off at all. Attempts
//! still in flight when the request answers — hedge losers, attempts past
//! the deadline — and half-open probes go to one lazily started
//! process-wide thread that runs the same attempt loop (`drive`) and records
//! health, latency and pooling exactly as the coordinator would
//! (`federate.attempts.handed_off` counts the data attempts handed over).
//!
//! Metrics are labeled `shard=K replica=R` (R = replica index within the
//! set): `federate.replica.{selected,hedged,hedge_won,retried,
//! breaker_open,abandoned}`. Flight events `Hedge` / `BreakerOpen` /
//! `BreakerClose` carry the same coordinates.

use crate::client::{self, Attempt};
use crate::error::FederateError;
use crate::health::{Availability, BreakerConfig, BreakerState, ReplicaHealth};
use flowcube_obs::flight::{self, FlightKind};
use flowcube_serve::server::sys::{self, EventFd, PollFd};
use flowcube_testkit::{Deferred, Fault};
use std::net::{SocketAddr, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The replicas serving one shard. Order is the operator's preference
/// order only in the sense that the round-robin cursor starts from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaSet {
    pub replicas: Vec<String>,
}

impl ReplicaSet {
    /// A single-replica set (the pre-replica shard map shape).
    pub fn single(addr: impl Into<String>) -> ReplicaSet {
        ReplicaSet {
            replicas: vec![addr.into()],
        }
    }

    /// All replicas of one shard: `"a:1|a:2"`. Empty entries rejected.
    pub fn parse(spec: &str) -> Result<ReplicaSet, FederateError> {
        let replicas: Vec<String> = spec
            .split('|')
            .map(|s| s.trim().trim_start_matches("http://").to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if replicas.is_empty() {
            return Err(FederateError::ReplicaSpec {
                detail: format!("shard entry {spec:?} names no replica"),
            });
        }
        Ok(ReplicaSet { replicas })
    }
}

/// Parse a full `--backends` shard map: `,` between shards, `|` between
/// replicas of one shard. `"a:1|a:2,b:1"` → shard 0 has two replicas,
/// shard 1 has one.
pub fn parse_backend_spec(spec: &str) -> Result<Vec<ReplicaSet>, FederateError> {
    let sets: Vec<ReplicaSet> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(ReplicaSet::parse)
        .collect::<Result<_, _>>()?;
    if sets.is_empty() {
        return Err(FederateError::ReplicaSpec {
            detail: "backend spec names no shard".into(),
        });
    }
    Ok(sets)
}

/// When to fire the hedged second request.
#[derive(Clone, Debug)]
pub enum HedgePolicy {
    /// Hedge after the shard's recent p95 latency (the streaming window
    /// estimator), clamped to `[1ms, shard_timeout/2]`; before the
    /// window has enough samples, after `shard_timeout/2`.
    Adaptive,
    /// Hedge after a fixed delay.
    Fixed(Duration),
    /// Never hedge (retries on failure still apply).
    Off,
}

/// Per-request token pool that hedges and retries both draw from. One
/// budget is shared across all shards of a fan-out, so a brownout that
/// degrades every shard at once cannot multiply the request's load
/// unboundedly.
pub struct RetryBudget {
    tokens: AtomicU32,
}

impl RetryBudget {
    pub fn new(tokens: u32) -> RetryBudget {
        RetryBudget {
            tokens: AtomicU32::new(tokens),
        }
    }

    /// Take one token; `false` means the budget is exhausted and the
    /// caller must not send the extra request.
    pub fn try_take(&self) -> bool {
        self.tokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| t.checked_sub(1))
            .is_ok()
    }

    pub fn remaining(&self) -> u32 {
        self.tokens.load(Ordering::Relaxed)
    }
}

/// Streaming latency window: the last [`LatencyWindow::CAPACITY`]
/// successful attempt latencies for one shard, quantile-queried to set
/// the adaptive hedge threshold. A fixed ring + select-on-query is exact
/// over the window and costs nothing on the record path but a short
/// mutex hold; a query holds the lock only to copy the ring onto its
/// stack.
pub struct LatencyWindow {
    /// The ring, how many of its slots hold samples, and the slot the
    /// next sample overwrites once it is full.
    samples: Mutex<([u64; Self::CAPACITY], usize, usize)>,
}

impl LatencyWindow {
    pub const CAPACITY: usize = 64;
    /// Samples required before the adaptive policy trusts the window.
    pub const WARMUP: usize = 16;

    pub fn new() -> LatencyWindow {
        LatencyWindow {
            samples: Mutex::new(([0; Self::CAPACITY], 0, 0)),
        }
    }

    pub fn observe_us(&self, us: u64) {
        let mut guard = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        let (ring, len, next) = &mut *guard;
        if *len < Self::CAPACITY {
            ring[*len] = us;
            *len += 1;
        } else {
            ring[*next] = us;
            *next = (*next + 1) % Self::CAPACITY;
        }
    }

    pub fn len(&self) -> usize {
        self.samples.lock().unwrap_or_else(|e| e.into_inner()).1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact quantile over the current window; `None` until any sample.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        self.quantile_after_us(1, q)
    }

    /// [`Self::quantile_us`], but `None` until the window holds `min`
    /// samples: one lock for the hedge's warm-up check and its quantile.
    pub fn quantile_after_us(&self, min: usize, q: f64) -> Option<u64> {
        let (mut ring, len, _) = *self.samples.lock().unwrap_or_else(|e| e.into_inner());
        if len < min.max(1) {
            return None;
        }
        let window = &mut ring[..len];
        let idx = ((len - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(*window.select_nth_unstable(idx).1)
    }
}

impl Default for LatencyWindow {
    fn default() -> Self {
        LatencyWindow::new()
    }
}

/// The metric series of one replica, named once: `shard=K replica=R`.
struct ReplicaSeries {
    selected: String,
    hedged: String,
    hedge_won: String,
    retried: String,
    breaker_open: String,
    breaker_close: String,
}

impl ReplicaSeries {
    fn new(shard: u32, replica: usize) -> ReplicaSeries {
        let (shard, replica) = (shard.to_string(), replica.to_string());
        let name = |series: &str| {
            flowcube_obs::labeled(series, &[("shard", &shard), ("replica", &replica)])
        };
        ReplicaSeries {
            selected: name("federate.replica.selected"),
            hedged: name("federate.replica.hedged"),
            hedge_won: name("federate.replica.hedge_won"),
            retried: name("federate.replica.retried"),
            breaker_open: name("federate.replica.breaker_open"),
            breaker_close: name("federate.replica.breaker_close"),
        }
    }
}

/// A replica's shared runtime state: its address, its breaker, and the
/// idle connections to it.
pub struct ReplicaState {
    pub addr: String,
    pub health: ReplicaHealth,
    pub pool: client::Pool,
    series: ReplicaSeries,
    /// Failpoint sites: tests arm `federate.replica.s{shard}.r{idx}`
    /// with `delay(ms)` (slow replica), `return` (refused), etc.; the
    /// probe path is `federate.replica.probe.s{shard}.r{idx}`.
    data_failpoint: String,
    probe_failpoint: String,
    /// `addr` resolved, once: later connects make no lookup.
    resolved: OnceLock<SocketAddr>,
}

impl ReplicaState {
    fn socket_addr(&self) -> Result<SocketAddr, String> {
        if let Some(addr) = self.resolved.get() {
            return Ok(*addr);
        }
        let addr = self
            .addr
            .to_socket_addrs()
            .map_err(|e| format!("resolve {}: {e}", self.addr))?
            .next()
            .ok_or_else(|| format!("resolve {}: no address", self.addr))?;
        Ok(*self.resolved.get_or_init(|| addr))
    }
}

/// One shard's serving-side runtime: the replica set, its breakers, the
/// round-robin cursor, and the latency window feeding the hedge
/// threshold. Shared (`Arc`) between front workers, attempts, and health
/// probes.
pub struct ShardRuntime {
    pub shard: u32,
    pub replicas: Vec<Arc<ReplicaState>>,
    breaker: BreakerConfig,
    cursor: AtomicUsize,
    pub latency: LatencyWindow,
    /// `federate.replica.abandoned` and `federate.shard.{latency_us,
    /// errors}`, labeled `shard=K`.
    abandoned_series: String,
    latency_series: String,
    errors_series: String,
}

/// A shard leg's final outcome, consumed by the front tier's gather.
pub enum ShardOutcome {
    Answered { status: u16, body: String },
    Failed { detail: String },
}

/// What an attempt is for, and so what its end records and where its
/// outcome goes.
#[derive(Clone, Copy)]
enum Role {
    /// A data attempt of the leg of shard `leg`; `hedge` when it is the
    /// hedged second request.
    Data { leg: usize, hedge: bool },
    /// A half-open `/healthz` probe.
    Probe,
}

/// How far an attempt has come.
enum Run {
    /// An armed `delay` failpoint holds its send back until then, on the
    /// loop's timer; the socket budget starts when it ends.
    Held(Instant, Duration, String),
    Going(Attempt),
    /// An injected fault: it ends at its first step.
    Failed(String),
}

/// One attempt in flight: a replica's [`Attempt`] (or its stand-in while
/// a failpoint holds or fails it), and what its end must record.
pub(crate) struct Flight {
    rt: Arc<ShardRuntime>,
    replica: usize,
    role: Role,
    started: Instant,
    run: Run,
}

impl Flight {
    /// Launch an attempt at `replica` of `rt`: evaluate its failpoint,
    /// then start sending `request` under `budget`.
    fn launch(
        rt: &Arc<ShardRuntime>,
        replica: usize,
        role: Role,
        request: String,
        budget: Duration,
    ) -> Flight {
        let state = &rt.replicas[replica];
        let started = Instant::now();
        let site = match role {
            Role::Data { .. } => &state.data_failpoint,
            Role::Probe => &state.probe_failpoint,
        };
        let injected = flowcube_testkit::any_armed()
            .then(|| flowcube_testkit::fail_point_deferred(site))
            .flatten();
        let mut flight = Flight {
            rt: Arc::clone(rt),
            replica,
            role,
            started,
            run: Run::Failed(String::new()),
        };
        flight.run = match injected {
            None => flight.open(request, budget),
            Some(Deferred::Delay(d)) => Run::Held(started + d, budget, request),
            Some(Deferred::Fault(Fault::Error(msg))) => Run::Failed(format!("injected: {msg}")),
            Some(Deferred::Fault(Fault::ShortRead(n))) => {
                Run::Failed(format!("injected short read of {n} bytes"))
            }
        };
        flight
    }

    /// Start sending: on a pooled connection when the replica has one
    /// idle (data attempts only), else on a fresh one.
    fn open(&self, request: String, budget: Duration) -> Run {
        let state = &self.rt.replicas[self.replica];
        let peer = match state.socket_addr() {
            Ok(peer) => peer,
            Err(detail) => return Run::Failed(detail),
        };
        let reused = match self.role {
            Role::Data { .. } => {
                let reused = state.pool.take();
                let series = match reused {
                    Some(_) => "federate.client.pool.hit",
                    None => "federate.client.pool.miss",
                };
                flowcube_obs::counter_add(series, 1);
                reused
            }
            Role::Probe => None,
        };
        Run::Going(Attempt::start(peer, request, budget, reused))
    }

    fn pollfd(&self) -> PollFd {
        match &self.run {
            Run::Going(attempt) => attempt.pollfd(),
            _ => PollFd {
                fd: -1,
                events: 0,
                revents: 0,
            },
        }
    }

    /// When the flight must be stepped even if its socket stays quiet.
    fn due(&self) -> Instant {
        match &self.run {
            Run::Held(until, ..) => *until,
            Run::Going(attempt) => attempt.deadline(),
            Run::Failed(_) => self.started,
        }
    }

    fn step(&mut self, revents: i16, now: Instant) -> Option<Result<client::Answer, String>> {
        match &mut self.run {
            Run::Held(until, ..) if now < *until => None,
            Run::Held(_, budget, request) => {
                let (request, budget) = (std::mem::take(request), *budget);
                self.run = self.open(request, budget);
                self.step(0, now)
            }
            Run::Going(attempt) => attempt.step(revents, now),
            Run::Failed(detail) => Some(Err(std::mem::take(detail))),
        }
    }

    /// The attempt ended: record its health, latency and socket into the
    /// shared runtime, and hand back where its outcome goes.
    fn finish(self, outcome: Result<client::Answer, String>) -> (Role, usize, Outcome) {
        let (rt, replica) = (&self.rt, self.replica);
        let state = &rt.replicas[replica];
        let outcome = outcome.map(|(status, body, socket)| {
            if let (Role::Data { .. }, Some(socket)) = (self.role, socket) {
                state.pool.put(socket);
            }
            (status, body)
        });
        match self.role {
            Role::Data { .. } => match &outcome {
                Ok(_) => {
                    state.health.record_success();
                    rt.latency.observe_us(
                        self.started.elapsed().as_micros().min(u64::MAX as u128) as u64,
                    );
                }
                Err(_) => {
                    if state.health.record_failure(&rt.breaker, Instant::now()) {
                        // The breaker opened: the replica's idle
                        // connections are not to be trusted either.
                        state.pool.clear();
                        flowcube_obs::counter_add(&state.series.breaker_open, 1);
                        flight::record(
                            FlightKind::BreakerOpen,
                            0,
                            flight::intern("replica"),
                            0,
                            ((rt.shard as u64) << 32) | replica as u64,
                        );
                    }
                }
            },
            Role::Probe => {
                if matches!(outcome, Ok((200, _))) {
                    if state.health.probe_succeeded() {
                        flowcube_obs::counter_add(&state.series.breaker_close, 1);
                        flight::record(
                            FlightKind::BreakerClose,
                            0,
                            flight::intern("replica"),
                            0,
                            ((rt.shard as u64) << 32) | replica as u64,
                        );
                    }
                } else {
                    state.health.probe_failed(Instant::now());
                }
            }
        }
        (self.role, replica, outcome)
    }
}

/// An attempt's outcome as a leg sees it: status and body, or why not.
type Outcome = Result<(u16, String), String>;

/// The one attempt loop. Waits in `poll(2)` until a flight's socket is
/// ready, a flight is due (its held send or its socket budget), `bell`
/// rings or `wake` passes; then steps every flight that is ready or due.
/// Flights that end are removed, [`Flight::finish`]ed, and pushed onto
/// `ended`. Returns whether `bell` rang.
fn drive(
    flights: &mut Vec<Flight>,
    fds: &mut Vec<PollFd>,
    bell: Option<&EventFd>,
    wake: Option<Instant>,
    ended: &mut Vec<(Role, usize, Outcome)>,
) -> bool {
    fds.clear();
    let mut due = wake;
    for flight in flights.iter() {
        fds.push(flight.pollfd());
        due = Some(due.map_or(flight.due(), |d| d.min(flight.due())));
    }
    if let Some(bell) = bell {
        fds.push(PollFd {
            fd: bell.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
    }
    let timeout = due.map(|d| d.saturating_duration_since(Instant::now()));
    // A failed wait steps only the flights that are due; their budgets
    // and the caller's `wake` still bound the loop.
    let _ = sys::poll_fds(fds, timeout);
    let now = Instant::now();
    // Back to front, so that a removal moves only a flight already seen.
    for i in (0..flights.len()).rev() {
        let revents = fds[i].revents;
        if revents == 0 && flights[i].due() > now {
            continue;
        }
        if let Some(outcome) = flights[i].step(revents, now) {
            ended.push(flights.swap_remove(i).finish(outcome));
        }
    }
    bell.is_some() && fds.last().is_some_and(|fd| fd.revents != 0)
}

/// The process-wide thread that finishes what a request left in flight
/// and runs half-open probes, on the same attempt loop as the coordinators.
struct Background {
    queue: Mutex<Vec<Flight>>,
    bell: EventFd,
}

/// Started by the first hand-off; it runs for the life of the process.
static BACKGROUND: OnceLock<Option<&'static Background>> = OnceLock::new();

/// Flights handed to the background thread that have not ended yet.
static IN_BACKGROUND: AtomicUsize = AtomicUsize::new(0);

/// Attempts and probes the background thread is still driving, in every
/// front of the process: abandoned hedge losers, attempts past their
/// request's deadline, half-open probes. For inspection — a suite that
/// reads process-global metrics waits for 0 before it starts.
pub fn attempts_in_background() -> usize {
    IN_BACKGROUND.load(Ordering::Relaxed)
}

impl Background {
    /// Give `flights` to the background thread, starting it if this is
    /// the first hand-off. If it cannot be started, the flights are
    /// dropped — their sockets close — and record nothing.
    fn adopt(flights: impl IntoIterator<Item = Flight>) {
        let background = BACKGROUND.get_or_init(|| {
            let background: &'static Background = Box::leak(Box::new(Background {
                queue: Mutex::new(Vec::new()),
                bell: EventFd::new().ok()?,
            }));
            std::thread::Builder::new()
                .name("federate-attempts".into())
                .spawn(move || background.run())
                .ok()
                .map(|_| background)
        });
        if let Some(background) = background {
            let mut queue = background.queue.lock().unwrap_or_else(|e| e.into_inner());
            let before = queue.len();
            queue.extend(flights);
            IN_BACKGROUND.fetch_add(queue.len() - before, Ordering::Relaxed);
            drop(queue);
            background.bell.post(1);
        }
    }

    fn run(&self) {
        let (mut flights, mut fds, mut ended) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            flights.append(&mut self.queue.lock().unwrap_or_else(|e| e.into_inner()));
            // A flight that panics is lost; the thread lives on for the
            // others.
            let rang = panic::catch_unwind(AssertUnwindSafe(|| {
                drive(&mut flights, &mut fds, Some(&self.bell), None, &mut ended)
            }))
            .unwrap_or(false);
            // Nothing waits for these outcomes: `finish` recorded them.
            IN_BACKGROUND.fetch_sub(ended.len(), Ordering::Relaxed);
            ended.clear();
            if rang {
                while self.bell.take() {}
            }
        }
    }
}

/// What every leg of one fan-out shares: the backend target, the request
/// id it forwards, the request's deadline and retry budget, and its
/// attempts in flight.
pub(crate) struct Fanout<'a> {
    pub(crate) target: &'a str,
    /// Sent as `X-Request-Id` on every data attempt, so each shard's
    /// flight ring names the request by the id its client sees.
    pub(crate) request_id: &'a str,
    pub(crate) deadline: Instant,
    pub(crate) shard_timeout: Duration,
    pub(crate) hedge: &'a HedgePolicy,
    /// Shared across every leg: hedges and retries all draw from it.
    pub(crate) budget: RetryBudget,
    pub(crate) trace: u64,
    /// The attempts in flight; empty when the fan-out starts.
    pub(crate) flights: Vec<Flight>,
}

impl Fanout<'_> {
    /// One attempt's socket budget: the shard timeout, capped by what is
    /// left of the request, so an abandoned attempt cannot outlive the
    /// request by more than the shard timeout.
    fn attempt_budget(&self, now: Instant) -> Duration {
        self.shard_timeout
            .min(self.deadline.saturating_duration_since(now))
            .max(Duration::from_millis(1))
    }

    /// Run one leg per shard to its outcome, from this thread: the
    /// request's coordinator. Attempts still in flight once every leg has
    /// settled go to the background thread.
    pub(crate) fn scatter(mut self, shards: &[Arc<ShardRuntime>]) -> Vec<ShardOutcome> {
        let mut legs: Vec<Leg> = shards.iter().map(|rt| rt.leg(&mut self)).collect();
        let (mut fds, mut ended) = (Vec::new(), Vec::new());
        while legs.iter().any(Leg::is_pending) {
            let wake = legs
                .iter()
                .filter_map(Leg::hedge_at)
                .fold(self.deadline, Instant::min);
            drive(&mut self.flights, &mut fds, None, Some(wake), &mut ended);
            for (role, replica, outcome) in ended.drain(..) {
                if let Role::Data { leg, hedge } = role {
                    legs[leg].on_end(replica, hedge, outcome, &mut self);
                }
            }
            let now = Instant::now();
            for leg in &mut legs {
                leg.on_timer(now, &mut self);
            }
        }
        if !self.flights.is_empty() {
            let handed = self.flights.len() as u64;
            flowcube_obs::counter_add("federate.attempts.handed_off", handed);
            Background::adopt(self.flights.drain(..));
        }
        legs.into_iter().map(Leg::into_outcome).collect()
    }
}

/// One shard's leg of a fan-out: selection, hedging and budgeted
/// retries, stepped by the request's coordinator as its attempts end and
/// timers fire. The first answer wins; a leg hedges only while just its
/// primary is in flight; a retry opens its own hedge window.
pub(crate) struct Leg {
    rt: Arc<ShardRuntime>,
    /// Replicas not yet tried, in plan order.
    order: std::vec::IntoIter<usize>,
    in_flight: u32,
    hedge_delay: Option<Duration>,
    /// When to hedge the attempt in flight; `None` once it has hedged,
    /// or when hedging is off.
    hedge_at: Option<Instant>,
    last_error: String,
    started: Instant,
    outcome: Option<ShardOutcome>,
}

impl ShardRuntime {
    pub fn new(shard: u32, set: &ReplicaSet, breaker: BreakerConfig) -> ShardRuntime {
        let labeled =
            |series: &str| flowcube_obs::labeled(series, &[("shard", &shard.to_string())]);
        ShardRuntime {
            shard,
            replicas: set
                .replicas
                .iter()
                .enumerate()
                .map(|(idx, addr)| {
                    Arc::new(ReplicaState {
                        addr: addr.clone(),
                        health: ReplicaHealth::default(),
                        pool: client::Pool::default(),
                        series: ReplicaSeries::new(shard, idx),
                        data_failpoint: format!("federate.replica.s{shard}.r{idx}"),
                        probe_failpoint: format!("federate.replica.probe.s{shard}.r{idx}"),
                        resolved: OnceLock::new(),
                    })
                })
                .collect(),
            breaker,
            cursor: AtomicUsize::new(0),
            latency: LatencyWindow::new(),
            abandoned_series: labeled("federate.replica.abandoned"),
            latency_series: labeled("federate.shard.latency_us"),
            errors_series: labeled("federate.shard.errors"),
        }
    }

    /// Replica states for the front's `/healthz`.
    pub fn states(&self) -> Vec<(String, BreakerState, u32)> {
        self.replicas
            .iter()
            .map(|r| {
                (
                    r.addr.clone(),
                    r.health.state(),
                    r.health.consecutive_failures(),
                )
            })
            .collect()
    }

    /// Health-weighted round-robin: rotate the cursor over the set, keep
    /// breaker-closed replicas (clean streaks ahead of dirty ones, both
    /// in rotation order), start at most one `/healthz` probe for an
    /// open-past-cooldown replica, and — only when *every* replica is
    /// open — fall back to the full rotation so the shard degrades to
    /// the old "try it and time out" behavior rather than giving up
    /// unprobed.
    fn plan(self: &Arc<Self>) -> Vec<usize> {
        let n = self.replicas.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % n.max(1);
        let now = Instant::now();
        let mut clean: Vec<usize> = Vec::with_capacity(n);
        let mut dirty: Vec<usize> = Vec::new();
        let mut rotation: Vec<usize> = Vec::with_capacity(n);
        for i in 0..n {
            let idx = (start + i) % n;
            rotation.push(idx);
            match self.replicas[idx].health.availability(&self.breaker, now) {
                Availability::Ready {
                    consecutive_failures: 0,
                } => clean.push(idx),
                Availability::Ready { .. } => dirty.push(idx),
                Availability::Probe => self.start_probe(idx),
                Availability::Skip => {}
            }
        }
        clean.extend(dirty);
        if clean.is_empty() {
            rotation
        } else {
            clean
        }
    }

    /// Start the half-open `/healthz` probe on the background thread.
    /// The breaker is already HalfOpen (the [`Availability::Probe`]
    /// caller owns it); close/reopen happens when the probe ends.
    fn start_probe(self: &Arc<Self>, idx: usize) {
        // On a fresh connection, without a request id: what a probe
        // tests is that the replica accepts connections.
        let request = format!(
            "GET /healthz HTTP/1.1\r\nHost: {}\r\n\r\n",
            self.replicas[idx].addr
        );
        let probe = Flight::launch(self, idx, Role::Probe, request, self.breaker.probe_timeout);
        Background::adopt([probe]);
    }

    /// The hedge threshold for one attempt, or `None` when hedging is
    /// off for this request.
    fn hedge_delay(&self, policy: &HedgePolicy, shard_timeout: Duration) -> Option<Duration> {
        match policy {
            HedgePolicy::Off => None,
            HedgePolicy::Fixed(d) => Some(*d),
            HedgePolicy::Adaptive => {
                let half = (shard_timeout / 2).max(Duration::from_millis(1));
                match self.latency.quantile_after_us(LatencyWindow::WARMUP, 0.95) {
                    None => Some(half),
                    Some(p95) => {
                        Some(Duration::from_micros(p95).clamp(Duration::from_millis(1), half))
                    }
                }
            }
        }
    }

    /// Launch one data attempt of this shard's leg into `fan`'s flights.
    /// Its end records health + latency into the shared runtime even if
    /// its leg has settled (an abandoned hedge loser still updates the
    /// breaker), on the coordinator or, once the request has answered,
    /// on the background thread.
    fn launch(self: &Arc<Self>, replica: usize, hedge: bool, fan: &mut Fanout) {
        let state = &self.replicas[replica];
        flowcube_obs::counter_add(&state.series.selected, 1);
        let request = format!(
            "GET {} HTTP/1.1\r\nHost: {}\r\nX-Request-Id: {}\r\n\r\n",
            fan.target, state.addr, fan.request_id
        );
        let role = Role::Data {
            leg: self.shard as usize,
            hedge,
        };
        let budget = fan.attempt_budget(Instant::now());
        fan.flights
            .push(Flight::launch(self, replica, role, request, budget));
    }

    /// Start this shard's leg of `fan`: plan the replica order and launch
    /// the primary attempt.
    fn leg(self: &Arc<Self>, fan: &mut Fanout) -> Leg {
        let started = Instant::now();
        let mut leg = Leg {
            rt: Arc::clone(self),
            order: self.plan().into_iter(),
            in_flight: 0,
            hedge_delay: self.hedge_delay(fan.hedge, fan.shard_timeout),
            hedge_at: None,
            last_error: String::from("no attempt completed"),
            started,
            outcome: None,
        };
        match leg.order.next() {
            Some(first) => leg.attempt(first, started, fan),
            None => leg.resolve(
                ShardOutcome::Failed {
                    detail: format!("shard {}: no replica available", self.shard),
                },
                fan,
            ),
        }
        leg
    }
}

impl Leg {
    /// The instant this leg wants the coordinator back for its hedge, if
    /// one is pending.
    fn hedge_at(&self) -> Option<Instant> {
        self.hedge_at
    }

    fn is_pending(&self) -> bool {
        self.outcome.is_none()
    }

    /// The leg's outcome; a leg still pending has failed.
    fn into_outcome(self) -> ShardOutcome {
        self.outcome.unwrap_or(ShardOutcome::Failed {
            detail: self.last_error,
        })
    }

    /// Launch a primary or a retry: one attempt in flight, with a hedge
    /// window of its own.
    fn attempt(&mut self, replica: usize, now: Instant, fan: &mut Fanout) {
        self.rt.launch(replica, false, fan);
        self.in_flight = 1;
        self.hedge_at = self.hedge_delay.map(|d| now + d);
    }

    /// An attempt of this leg at `replica` ended. The outcomes of a
    /// settled leg's attempts are its abandoned hedge losers', and are
    /// dropped.
    fn on_end(&mut self, replica: usize, hedge: bool, outcome: Outcome, fan: &mut Fanout) {
        if self.outcome.is_some() {
            return;
        }
        self.in_flight -= 1;
        match outcome {
            Ok((status, body)) => {
                if hedge {
                    let won = &self.rt.replicas[replica].series.hedge_won;
                    flowcube_obs::counter_add(won, 1);
                }
                if self.in_flight > 0 {
                    // The slower half of the hedge pair is abandoned: it
                    // finishes its read on the coordinator or the
                    // background thread, and its outcome is dropped.
                    flowcube_obs::counter_add(&self.rt.abandoned_series, self.in_flight as u64);
                }
                self.resolve(ShardOutcome::Answered { status, body }, fan);
            }
            Err(detail) => {
                self.last_error = detail;
                if self.in_flight > 0 {
                    return; // the hedge partner may still win
                }
                match self.order.next() {
                    Some(next) if fan.budget.try_take() => {
                        flowcube_obs::counter_add(&self.rt.replicas[next].series.retried, 1);
                        self.attempt(next, Instant::now(), fan);
                    }
                    _ => {
                        let detail = std::mem::take(&mut self.last_error);
                        self.resolve(ShardOutcome::Failed { detail }, fan);
                    }
                }
            }
        }
    }

    /// The coordinator woke at `now`: fail the leg if
    /// the request's deadline has passed, else hedge if the hedge is due.
    fn on_timer(&mut self, now: Instant, fan: &mut Fanout) {
        if self.outcome.is_some() {
            return;
        }
        if now >= fan.deadline {
            let detail = format!(
                "shard {}: deadline exceeded with {} attempt(s) in flight ({})",
                self.rt.shard, self.in_flight, self.last_error
            );
            self.resolve(ShardOutcome::Failed { detail }, fan);
            return;
        }
        if self.hedge_at.is_none_or(|at| now < at) {
            return;
        }
        self.hedge_at = None;
        // Hedge only if a distinct replica remains and the request still
        // has budget; an exhausted budget suppresses the hedge entirely.
        if let Some(next) = self.order.next() {
            if fan.budget.try_take() {
                flowcube_obs::counter_add(&self.rt.replicas[next].series.hedged, 1);
                flight::record(
                    FlightKind::Hedge,
                    fan.trace,
                    flight::intern("replica"),
                    0,
                    ((self.rt.shard as u64) << 32) | next as u64,
                );
                self.rt.launch(next, true, fan);
                self.in_flight += 1;
            }
        }
    }

    /// Settle the leg, and record its latency, and a failure's error
    /// count and `ShardTimeout` flight event.
    fn resolve(&mut self, outcome: ShardOutcome, fan: &Fanout) {
        self.hedge_at = None;
        flowcube_obs::histogram_record(
            &self.rt.latency_series,
            self.started.elapsed().as_micros() as f64,
        );
        if let ShardOutcome::Failed { .. } = outcome {
            flowcube_obs::counter_add(&self.rt.errors_series, 1);
            flight::record(
                FlightKind::ShardTimeout,
                fan.trace,
                flight::intern("scatter"),
                0,
                self.rt.shard as u64,
            );
        }
        self.outcome = Some(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_replica_sets() {
        let sets = parse_backend_spec("a:1|a:2, b:1 | b:2 |b:3 ,c:1").expect("parses");
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].replicas, vec!["a:1", "a:2"]);
        assert_eq!(sets[1].replicas, vec!["b:1", "b:2", "b:3"]);
        assert_eq!(sets[2].replicas, vec!["c:1"]);
    }

    #[test]
    fn strips_http_scheme_per_replica() {
        let sets = parse_backend_spec("http://a:1|http://a:2").expect("parses");
        assert_eq!(sets[0].replicas, vec!["a:1", "a:2"]);
    }

    #[test]
    fn rejects_empty_specs() {
        assert!(matches!(
            parse_backend_spec(""),
            Err(FederateError::ReplicaSpec { .. })
        ));
        assert!(matches!(
            parse_backend_spec("a:1,|"),
            Err(FederateError::ReplicaSpec { .. })
        ));
    }

    #[test]
    fn retry_budget_exhausts() {
        let b = RetryBudget::new(2);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take());
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn latency_window_quantiles_over_ring() {
        let w = LatencyWindow::new();
        assert_eq!(w.quantile_us(0.95), None);
        for us in 1..=100u64 {
            w.observe_us(us);
        }
        // Only the last CAPACITY samples (37..=100) survive.
        assert_eq!(w.len(), LatencyWindow::CAPACITY);
        let p95 = w.quantile_us(0.95).unwrap();
        assert!((95..=100).contains(&p95), "p95 over the window, got {p95}");
        assert!(w.quantile_us(0.0).unwrap() >= 37);
    }

    /// The quantile the window computed before it selected in place: a
    /// clone of the samples, sorted.
    fn sorted_quantile(window: &[u64], q: f64) -> u64 {
        let mut sorted = window.to_vec();
        sorted.sort_unstable();
        sorted[((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Below the warm-up, at a full window and after the ring wraps,
        /// the selected quantile is exactly the sorted one, and the
        /// warm-up gate opens at `WARMUP` samples.
        #[test]
        fn latency_window_selects_the_sorted_quantile(
            samples in proptest::prelude::prop::collection::vec(0u64..5_000, 0..200),
            q in 0.0f64..1.0,
        ) {
            let w = LatencyWindow::new();
            for &us in &samples {
                w.observe_us(us);
            }
            let kept = &samples[samples.len().saturating_sub(LatencyWindow::CAPACITY)..];
            proptest::prop_assert_eq!(w.len(), kept.len());
            for q in [q, 0.0, 0.95, 1.0] {
                let want = (!kept.is_empty()).then(|| sorted_quantile(kept, q));
                proptest::prop_assert_eq!(w.quantile_us(q), want);
                let warm = (kept.len() >= LatencyWindow::WARMUP).then_some(want).flatten();
                proptest::prop_assert_eq!(
                    w.quantile_after_us(LatencyWindow::WARMUP, q),
                    warm
                );
            }
        }
    }

    #[test]
    fn plan_rotates_and_demotes_dirty_replicas() {
        let set = ReplicaSet::parse("a|b|c").unwrap();
        let rt = Arc::new(ShardRuntime::new(0, &set, BreakerConfig::default()));
        let first = rt.plan();
        let second = rt.plan();
        assert_eq!(first.len(), 3);
        assert_ne!(first[0], second[0], "cursor rotates the leading replica");
        // One failure (below threshold) demotes a replica to the back.
        rt.replicas[0]
            .health
            .record_failure(&BreakerConfig::default(), Instant::now());
        for _ in 0..3 {
            let plan = rt.plan();
            assert_eq!(plan.len(), 3);
            assert_eq!(plan[2], 0, "dirty replica ranks last: {plan:?}");
        }
    }

    #[test]
    fn plan_skips_open_breakers_and_falls_back_when_all_open() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(60),
            probe_timeout: Duration::from_millis(10),
        };
        let set = ReplicaSet::parse("a|b").unwrap();
        let rt = Arc::new(ShardRuntime::new(0, &set, cfg.clone()));
        rt.replicas[0].health.record_failure(&cfg, Instant::now());
        assert_eq!(rt.replicas[0].health.state(), BreakerState::Open);
        for _ in 0..4 {
            assert_eq!(rt.plan(), vec![1], "open replica is skipped");
        }
        rt.replicas[1].health.record_failure(&cfg, Instant::now());
        let plan = rt.plan();
        assert_eq!(plan.len(), 2, "all-open falls back to full rotation");
    }

    #[test]
    fn adaptive_hedge_warms_up_then_tracks_p95() {
        let set = ReplicaSet::parse("a|b").unwrap();
        let rt = Arc::new(ShardRuntime::new(0, &set, BreakerConfig::default()));
        let timeout = Duration::from_millis(800);
        assert_eq!(
            rt.hedge_delay(&HedgePolicy::Adaptive, timeout),
            Some(Duration::from_millis(400)),
            "cold window hedges at shard_timeout/2"
        );
        for _ in 0..LatencyWindow::WARMUP {
            rt.latency.observe_us(2_000);
        }
        assert_eq!(
            rt.hedge_delay(&HedgePolicy::Adaptive, timeout),
            Some(Duration::from_millis(2)),
            "warm window hedges at p95"
        );
        assert_eq!(
            rt.hedge_delay(&HedgePolicy::Fixed(Duration::from_millis(7)), timeout),
            Some(Duration::from_millis(7))
        );
        assert_eq!(rt.hedge_delay(&HedgePolicy::Off, timeout), None);
    }
}

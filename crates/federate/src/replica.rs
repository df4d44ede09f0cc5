//! Replica sets per shard: health-weighted selection, hedged requests,
//! and per-request retry budgets for the scatter-gather front tier.
//!
//! Each shard of the federation is served by a **replica set** — one or
//! more `serve` backends holding the same shard cube, written on the CLI
//! as `--backends "a:1|a:2,b:1|b:2"` (`,` separates shards, `|` separates
//! replicas). A shard's fan-out leg (`Leg`) then becomes a small state
//! machine, stepped by the request's one coordinator (the front worker
//! running `front::scatter_gather`) as attempt reports and timers arrive:
//!
//! 1. **Select** a replica by health-weighted round-robin: breaker-open
//!    replicas are skipped outright ([`crate::health`]), replicas with a
//!    failure streak rank behind clean ones, and a rotating cursor
//!    spreads load across the healthy remainder.
//! 2. **Hedge**: if the primary attempt has not answered after the hedge
//!    threshold — by default the shard's recent p95 latency from a
//!    streaming window estimator, clamped into sane bounds — a second
//!    request is fired at the next replica. First *answer* wins; the
//!    loser is abandoned — it runs on, bounded by its socket timeout,
//!    and its report is dropped — and counted under
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
//! a fresh connection inside [`client::http_get`]; only that attempt's
//! outcome reaches the breaker, the retry budget and the metrics below.
//! Half-open probes never use the pool.
//!
//! Attempts and probes run on a process-wide cached pool of worker
//! threads: a job goes to a parked worker when one is idle, and to a
//! newly spawned one otherwise — never behind a busy worker, so a hedge
//! starts while its primary is still blocked in its socket. A worker
//! parks after each job and exits after ten seconds without one; a warm
//! front spawns none (`federate.attempt_workers.spawned` counts them).
//!
//! Metrics are labeled `shard=K replica=R` (R = replica index within the
//! set): `federate.replica.{selected,hedged,hedge_won,retried,
//! breaker_open,abandoned}`. Flight events `Hedge` / `BreakerOpen` /
//! `BreakerClose` carry the same coordinates.

use crate::client;
use crate::error::FederateError;
use crate::health::{Availability, BreakerConfig, BreakerState, ReplicaHealth};
use flowcube_obs::flight::{self, FlightKind};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

/// What one attempt reports back to its request's coordinator.
pub(crate) struct AttemptReport {
    /// The shard the attempt belongs to: the index of its leg.
    pub(crate) shard: usize,
    replica: usize,
    hedge: bool,
    outcome: Result<(u16, String), String>,
}

/// A shard leg's final outcome, consumed by the front tier's gather.
pub enum ShardOutcome {
    Answered { status: u16, body: String },
    Failed { detail: String },
}

/// Workers that run attempts and probes, shared by every front in the
/// process.
static ATTEMPT_WORKERS: Workers = Workers::new(Workers::IDLE);

/// A cached pool of detached worker threads. [`Workers::run`] hands a job
/// to a parked worker when one is idle and spawns a worker otherwise, so
/// a job never waits behind a busy one: a hedge starts while its primary
/// is still blocked in its socket. A worker parks after each job and
/// exits once it has been idle for the pool's idle period.
struct Workers {
    queue: Mutex<Queue>,
    wake: Condvar,
    idle_for: Duration,
}

type Job = Box<dyn FnOnce() + Send>;

struct Queue {
    /// Jobs handed to parked workers and not yet picked up.
    jobs: VecDeque<Job>,
    /// Parked workers that no queued job is meant for: parked workers
    /// minus `jobs.len()`, never negative, so every queued job has a
    /// parked worker to take it.
    idle: usize,
}

impl Workers {
    /// Longer than any gap between attempts of a front under load, so a
    /// steady front never lets a worker go.
    const IDLE: Duration = Duration::from_secs(10);

    const fn new(idle_for: Duration) -> Workers {
        Workers {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                idle: 0,
            }),
            wake: Condvar::new(),
            idle_for,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        // No job runs under the lock, and every update leaves the queue
        // consistent: a poisoned guard is still a valid one.
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn run(&'static self, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        let mut queue = self.lock();
        if queue.idle > 0 {
            queue.idle -= 1;
            queue.jobs.push_back(job);
            drop(queue);
            self.wake.notify_one();
            return;
        }
        drop(queue);
        // A worker that cannot be spawned drops its job, and with it the
        // job's report sender: the coordinator sees the attempt as lost
        // and its leg runs into the deadline, as a hung socket would.
        let spawned = std::thread::Builder::new()
            .name("federate-attempt".into())
            .spawn(move || self.work(job));
        if spawned.is_ok() {
            flowcube_obs::counter_add("federate.attempt_workers.spawned", 1);
        }
    }

    /// A worker's life: run a job, park, take the next one, until the
    /// idle period passes with nothing queued.
    fn work(&self, mut job: Job) {
        loop {
            // A panicking job takes its own report sender down with it;
            // the worker lives on for the next one.
            let _ = panic::catch_unwind(AssertUnwindSafe(job));
            let mut queue = self.lock();
            queue.idle += 1;
            let expires = Instant::now() + self.idle_for;
            job = loop {
                // A job queued just as the idle period ran out is still
                // this worker's: the queue is checked before the clock.
                if let Some(next) = queue.jobs.pop_front() {
                    break next;
                }
                let now = Instant::now();
                if now >= expires {
                    queue.idle -= 1;
                    return;
                }
                queue = self
                    .wake
                    .wait_timeout(queue, expires - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            };
        }
    }
}

/// What every leg of one fan-out shares: the backend target, the
/// request's deadline and retry budget, and the one channel all of its
/// attempts report into.
pub(crate) struct Fanout<'a> {
    pub(crate) target: Arc<str>,
    pub(crate) deadline: Instant,
    pub(crate) shard_timeout: Duration,
    pub(crate) hedge: &'a HedgePolicy,
    /// Shared across every leg: hedges and retries all draw from it.
    pub(crate) budget: RetryBudget,
    pub(crate) trace: u64,
    pub(crate) tx: mpsc::Sender<AttemptReport>,
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
}

/// One shard's leg of a fan-out: selection, hedging and budgeted
/// retries, stepped by the request's coordinator as reports and timers
/// arrive. The first answer wins; a leg hedges only while just its
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
                Availability::Probe => self.spawn_probe(idx),
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

    /// Run the half-open `/healthz` probe on an attempt worker. The
    /// breaker is already HalfOpen (the [`Availability::Probe`] caller
    /// owns it); close/reopen happens when the probe returns.
    fn spawn_probe(self: &Arc<Self>, idx: usize) {
        let rt = Arc::clone(self);
        ATTEMPT_WORKERS.run(move || {
            let replica = &rt.replicas[idx];
            let injected = flowcube_testkit::any_armed()
                .then(|| flowcube_testkit::fail_point(&replica.probe_failpoint))
                .flatten();
            let ok = match injected {
                Some(_) => false,
                // On a fresh connection: what a probe tests is that the
                // replica accepts connections.
                None => client::http_get(&replica.addr, "/healthz", rt.breaker.probe_timeout, None)
                    .is_ok_and(|(status, _)| status == 200),
            };
            if ok {
                if replica.health.probe_succeeded() {
                    flowcube_obs::counter_add(&replica.series.breaker_close, 1);
                    flight::record(
                        FlightKind::BreakerClose,
                        0,
                        flight::intern("replica"),
                        0,
                        ((rt.shard as u64) << 32) | idx as u64,
                    );
                }
            } else {
                replica.health.probe_failed(Instant::now());
            }
        });
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

    /// Launch one attempt on an attempt worker. The worker owns the
    /// socket (bounded by the attempt budget), reports health + latency
    /// into the shared runtime even if the coordinator has moved on (an
    /// abandoned hedge loser still updates the breaker), and sends its
    /// report over the fan-out's channel — into a receiver that may be
    /// gone, which is the abandonment.
    fn launch(self: &Arc<Self>, replica: usize, hedge: bool, fan: &Fanout) {
        flowcube_obs::counter_add(&self.replicas[replica].series.selected, 1);
        let rt = Arc::clone(self);
        let target = Arc::clone(&fan.target);
        let budget = fan.attempt_budget(Instant::now());
        let tx = fan.tx.clone();
        ATTEMPT_WORKERS.run(move || {
            let state = &rt.replicas[replica];
            let started = Instant::now();
            let injected = flowcube_testkit::any_armed()
                .then(|| flowcube_testkit::fail_point(&state.data_failpoint))
                .flatten();
            let outcome = match injected {
                Some(fault) => Err(match fault {
                    flowcube_testkit::Fault::Error(msg) => format!("injected: {msg}"),
                    flowcube_testkit::Fault::ShortRead(n) => {
                        format!("injected short read of {n} bytes")
                    }
                }),
                None => client::http_get(&state.addr, &target, budget, Some(&state.pool)),
            };
            match &outcome {
                Ok(_) => {
                    state.health.record_success();
                    rt.latency
                        .observe_us(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
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
            }
            let _ = tx.send(AttemptReport {
                shard: rt.shard as usize,
                replica,
                hedge,
                outcome,
            });
        });
    }

    /// Start this shard's leg of `fan`: plan the replica order and launch
    /// the primary attempt.
    pub(crate) fn leg(self: &Arc<Self>, fan: &Fanout) -> Leg {
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
    pub(crate) fn hedge_at(&self) -> Option<Instant> {
        self.hedge_at
    }

    pub(crate) fn is_pending(&self) -> bool {
        self.outcome.is_none()
    }

    /// The leg's outcome; a leg still pending has failed.
    pub(crate) fn into_outcome(self) -> ShardOutcome {
        self.outcome.unwrap_or(ShardOutcome::Failed {
            detail: self.last_error,
        })
    }

    /// Launch a primary or a retry: one attempt in flight, with a hedge
    /// window of its own.
    fn attempt(&mut self, replica: usize, now: Instant, fan: &Fanout) {
        self.rt.launch(replica, false, fan);
        self.in_flight = 1;
        self.hedge_at = self.hedge_delay.map(|d| now + d);
    }

    /// An attempt of this leg reported. Reports for a resolved leg are
    /// its abandoned hedge losers, and are dropped.
    pub(crate) fn on_report(&mut self, report: AttemptReport, fan: &Fanout) {
        if self.outcome.is_some() {
            return;
        }
        self.in_flight -= 1;
        match report.outcome {
            Ok((status, body)) => {
                if report.hedge {
                    let won = &self.rt.replicas[report.replica].series.hedge_won;
                    flowcube_obs::counter_add(won, 1);
                }
                if self.in_flight > 0 {
                    // The slower half of the hedge pair is abandoned: it
                    // finishes its read on its worker, and its report is
                    // dropped.
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

    /// The coordinator woke at `now` without a report: fail the leg if
    /// the request's deadline has passed, else hedge if the hedge is due.
    pub(crate) fn on_timer(&mut self, now: Instant, fan: &Fanout) {
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

    /// Wait, without a deadline of the code's own, until `cond` holds.
    fn until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn parked(pool: &Workers) -> usize {
        pool.lock().idle
    }

    #[test]
    fn a_blocked_job_does_not_delay_the_next_one() {
        static POOL: Workers = Workers::new(Duration::from_secs(60));
        // One parked worker, which the blocked job takes.
        POOL.run(|| {});
        until("the first worker parks", || parked(&POOL) == 1);
        // Both jobs pass the barrier only if they run at once, each on
        // its own worker.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
            POOL.run(move || {
                barrier.wait();
                let _ = tx.send(std::thread::current().id());
            });
        }
        let a = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("both jobs ran");
        let b = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("both jobs ran");
        assert_ne!(a, b, "the second job got a worker of its own");
    }

    #[test]
    fn a_job_handed_over_as_the_idle_period_ends_is_never_lost() {
        static POOL: Workers = Workers::new(Duration::from_millis(1));
        let (tx, rx) = mpsc::channel();
        for i in 0..500u64 {
            let tx = tx.clone();
            POOL.run(move || {
                let _ = tx.send(i);
            });
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)),
                Ok(i),
                "job {i} ran"
            );
            // Sweep the next hand-over across the parked worker's expiry.
            std::thread::sleep(Duration::from_micros(i % 10 * 150));
        }
        until("every worker has expired", || {
            let queue = POOL.lock();
            queue.idle == 0 && queue.jobs.is_empty()
        });
    }

    #[test]
    fn a_panicking_job_does_not_wedge_later_jobs() {
        static POOL: Workers = Workers::new(Duration::from_secs(60));
        POOL.run(|| panic!("an attempt panicked"));
        until("the panicked worker parks again", || parked(&POOL) == 1);
        let (tx, rx) = mpsc::channel();
        for i in 0..4 {
            let tx = tx.clone();
            POOL.run(move || {
                let _ = tx.send(i);
            });
        }
        let mut ran: Vec<i32> = (0..4)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("later jobs run")
            })
            .collect();
        ran.sort_unstable();
        assert_eq!(ran, [0, 1, 2, 3]);
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

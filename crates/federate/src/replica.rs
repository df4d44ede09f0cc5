//! Replica sets per shard: health-weighted selection, hedged requests,
//! and per-request retry budgets for the scatter-gather front tier.
//!
//! Each shard of the federation is served by a **replica set** — one or
//! more `serve` backends holding the same shard cube, written on the CLI
//! as `--backends "a:1|a:2,b:1|b:2"` (`,` separates shards, `|` separates
//! replicas). A shard's fan-out leg then becomes a small coordinator:
//!
//! 1. **Select** a replica by health-weighted round-robin: breaker-open
//!    replicas are skipped outright ([`crate::health`]), replicas with a
//!    failure streak rank behind clean ones, and a rotating cursor
//!    spreads load across the healthy remainder.
//! 2. **Hedge**: if the primary attempt has not answered after the hedge
//!    threshold — by default the shard's recent p95 latency from a
//!    streaming window estimator, clamped into sane bounds — a second
//!    request is fired at the next replica. First *answer* wins; the
//!    loser is abandoned (its socket timeout reaps the thread) and
//!    counted under `federate.replica.abandoned`. Its socket re-enters
//!    the replica's pool only if it went on to read its whole response.
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
//! Metrics are labeled `shard=K replica=R` (R = replica index within the
//! set): `federate.replica.{selected,hedged,hedge_won,retried,
//! breaker_open,abandoned}`. Flight events `Hedge` / `BreakerOpen` /
//! `BreakerClose` carry the same coordinates.

use crate::client;
use crate::error::FederateError;
use crate::health::{Availability, BreakerConfig, BreakerState, ReplicaHealth};
use flowcube_obs::flight::{self, FlightKind};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
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
/// the adaptive hedge threshold. A fixed ring + sort-on-query is exact
/// over the window and costs nothing on the record path but a short
/// mutex hold.
pub struct LatencyWindow {
    samples: Mutex<(Vec<u64>, usize)>,
}

impl LatencyWindow {
    pub const CAPACITY: usize = 64;
    /// Samples required before the adaptive policy trusts the window.
    pub const WARMUP: usize = 16;

    pub fn new() -> LatencyWindow {
        LatencyWindow {
            samples: Mutex::new((Vec::with_capacity(Self::CAPACITY), 0)),
        }
    }

    pub fn observe_us(&self, us: u64) {
        let mut guard = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        let (ring, next) = &mut *guard;
        if ring.len() < Self::CAPACITY {
            ring.push(us);
        } else {
            ring[*next] = us;
            *next = (*next + 1) % Self::CAPACITY;
        }
    }

    pub fn len(&self) -> usize {
        self.samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .0
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact quantile over the current window; `None` until any sample.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let guard = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        if guard.0.is_empty() {
            return None;
        }
        let mut sorted = guard.0.clone();
        drop(guard);
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[idx])
    }
}

impl Default for LatencyWindow {
    fn default() -> Self {
        LatencyWindow::new()
    }
}

/// A replica's shared runtime state: its address, its breaker, and the
/// idle connections to it.
pub struct ReplicaState {
    pub addr: String,
    pub health: ReplicaHealth,
    pub pool: client::Pool,
}

/// One shard's serving-side runtime: the replica set, its breakers, the
/// round-robin cursor, and the latency window feeding the hedge
/// threshold. Shared (`Arc`) between front workers, attempt threads, and
/// health probes.
pub struct ShardRuntime {
    pub shard: u32,
    pub replicas: Vec<Arc<ReplicaState>>,
    breaker: BreakerConfig,
    cursor: AtomicUsize,
    pub latency: LatencyWindow,
}

/// What one attempt thread reports back to its shard coordinator.
struct AttemptReport {
    replica: usize,
    hedge: bool,
    outcome: Result<(u16, String), String>,
}

/// The shard leg's final outcome, consumed by the front tier's gather.
pub enum ShardOutcome {
    Answered { status: u16, body: String },
    Failed { detail: String },
}

fn replica_metric(name: &str, shard: u32, replica: usize) -> String {
    flowcube_obs::labeled(
        name,
        &[
            ("shard", &shard.to_string()),
            ("replica", &replica.to_string()),
        ],
    )
}

/// Failpoint site name for one replica's data path; tests arm
/// `federate.replica.s{shard}.r{idx}` with `delay(ms)` (slow replica),
/// `return` (refused), etc. The probe path uses
/// `federate.replica.probe.s{shard}.r{idx}`.
fn data_failpoint(shard: u32, replica: usize) -> String {
    format!("federate.replica.s{shard}.r{replica}")
}

fn probe_failpoint(shard: u32, replica: usize) -> String {
    format!("federate.replica.probe.s{shard}.r{replica}")
}

impl ShardRuntime {
    pub fn new(shard: u32, set: &ReplicaSet, breaker: BreakerConfig) -> ShardRuntime {
        ShardRuntime {
            shard,
            replicas: set
                .replicas
                .iter()
                .map(|addr| {
                    Arc::new(ReplicaState {
                        addr: addr.clone(),
                        health: ReplicaHealth::default(),
                        pool: client::Pool::default(),
                    })
                })
                .collect(),
            breaker,
            cursor: AtomicUsize::new(0),
            latency: LatencyWindow::new(),
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
    /// in rotation order), spawn at most one `/healthz` probe for an
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

    /// Fire the half-open `/healthz` probe on a detached thread. The
    /// breaker is already HalfOpen (the [`Availability::Probe`] caller
    /// owns it); close/reopen happens when the probe returns.
    fn spawn_probe(self: &Arc<Self>, idx: usize) {
        let rt = Arc::clone(self);
        let _ = std::thread::Builder::new()
            .name(format!("federate-probe-s{}-r{idx}", self.shard))
            .spawn(move || {
                let replica = &rt.replicas[idx];
                let injected = flowcube_testkit::any_armed()
                    .then(|| flowcube_testkit::fail_point(&probe_failpoint(rt.shard, idx)))
                    .flatten();
                let ok = match injected {
                    Some(_) => false,
                    // On a fresh connection: what a probe tests is that
                    // the replica accepts connections.
                    None => {
                        client::http_get(&replica.addr, "/healthz", rt.breaker.probe_timeout, None)
                            .is_ok_and(|(status, _)| status == 200)
                    }
                };
                if ok {
                    if replica.health.probe_succeeded() {
                        flowcube_obs::counter_add(
                            &replica_metric("federate.replica.breaker_close", rt.shard, idx),
                            1,
                        );
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
                let half = shard_timeout / 2;
                if self.latency.len() < LatencyWindow::WARMUP {
                    return Some(half.max(Duration::from_millis(1)));
                }
                let p95 = Duration::from_micros(self.latency.quantile_us(0.95).unwrap_or(0));
                Some(p95.clamp(Duration::from_millis(1), half.max(Duration::from_millis(1))))
            }
        }
    }

    /// Launch one attempt on a detached thread. The thread owns its
    /// socket (bounded by `budget`), reports health + latency into the
    /// shared runtime even if the coordinator has moved on (an abandoned
    /// hedge loser still updates the breaker), and sends its report over
    /// `tx` — a send into a dropped receiver is the abandonment.
    fn launch(
        self: &Arc<Self>,
        replica: usize,
        target: &str,
        budget: Duration,
        hedge: bool,
        tx: &mpsc::Sender<AttemptReport>,
    ) {
        flowcube_obs::counter_add(
            &replica_metric("federate.replica.selected", self.shard, replica),
            1,
        );
        let rt = Arc::clone(self);
        let target = target.to_string();
        let tx = tx.clone();
        let _ = std::thread::Builder::new()
            .name(format!("federate-s{}-r{replica}", self.shard))
            .spawn(move || {
                let state = &rt.replicas[replica];
                let started = Instant::now();
                let injected = flowcube_testkit::any_armed()
                    .then(|| flowcube_testkit::fail_point(&data_failpoint(rt.shard, replica)))
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
                            flowcube_obs::counter_add(
                                &replica_metric("federate.replica.breaker_open", rt.shard, replica),
                                1,
                            );
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
                    replica,
                    hedge,
                    outcome,
                });
            });
    }

    /// One shard leg of a federated fan-out: selection, hedging, and
    /// budgeted retries, all inside `deadline`. Per-attempt sockets are
    /// capped at `shard_timeout` (and at the remaining deadline), so an
    /// abandoned attempt cannot outlive the request by more than the
    /// shard timeout.
    pub fn query(
        self: &Arc<Self>,
        target: &str,
        deadline: Instant,
        shard_timeout: Duration,
        hedge: &HedgePolicy,
        budget: &RetryBudget,
        trace: u64,
    ) -> ShardOutcome {
        let (tx, rx) = mpsc::channel();
        let mut order = self.plan().into_iter();
        let Some(first) = order.next() else {
            return ShardOutcome::Failed {
                detail: format!("shard {}: no replica available", self.shard),
            };
        };
        let attempt_budget = |now: Instant| {
            shard_timeout
                .min(deadline.saturating_duration_since(now))
                .max(Duration::from_millis(1))
        };
        self.launch(first, target, attempt_budget(Instant::now()), false, &tx);
        let mut in_flight = 1u32;
        let hedge_delay = self.hedge_delay(hedge, shard_timeout);
        let mut hedge_done = hedge_delay.is_none();
        let mut last_error = String::from("no attempt completed");
        loop {
            let now = Instant::now();
            let until_deadline = deadline.saturating_duration_since(now);
            if until_deadline.is_zero() {
                return ShardOutcome::Failed {
                    detail: format!("shard {}: timed out ({last_error})", self.shard),
                };
            }
            // While exactly the primary is in flight and a hedge is still
            // possible, wait only up to the hedge threshold.
            let hedge_wait = (!hedge_done && in_flight == 1)
                .then_some(hedge_delay)
                .flatten()
                .filter(|d| *d < until_deadline);
            let wait = hedge_wait.unwrap_or(until_deadline);
            match rx.recv_timeout(wait) {
                Ok(report) => {
                    in_flight -= 1;
                    match report.outcome {
                        Ok((status, body)) => {
                            if report.hedge {
                                flowcube_obs::counter_add(
                                    &replica_metric(
                                        "federate.replica.hedge_won",
                                        self.shard,
                                        report.replica,
                                    ),
                                    1,
                                );
                            }
                            if in_flight > 0 {
                                // The slower half of the hedge pair is
                                // abandoned: its thread will finish into a
                                // dropped receiver.
                                flowcube_obs::counter_add(
                                    &flowcube_obs::labeled(
                                        "federate.replica.abandoned",
                                        &[("shard", &self.shard.to_string())],
                                    ),
                                    in_flight as u64,
                                );
                            }
                            return ShardOutcome::Answered { status, body };
                        }
                        Err(detail) => {
                            last_error = detail;
                            if in_flight > 0 {
                                continue; // the hedge partner may still win
                            }
                            match order.next() {
                                Some(next_replica) if budget.try_take() => {
                                    flowcube_obs::counter_add(
                                        &replica_metric(
                                            "federate.replica.retried",
                                            self.shard,
                                            next_replica,
                                        ),
                                        1,
                                    );
                                    self.launch(
                                        next_replica,
                                        target,
                                        attempt_budget(Instant::now()),
                                        false,
                                        &tx,
                                    );
                                    in_flight = 1;
                                    // The retry gets its own hedge window.
                                    hedge_done = hedge_delay.is_none();
                                }
                                _ => {
                                    return ShardOutcome::Failed { detail: last_error };
                                }
                            }
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if hedge_wait.is_some() {
                        hedge_done = true;
                        // Hedge only if a distinct replica remains and the
                        // request still has budget; an exhausted budget
                        // suppresses the hedge entirely.
                        if let Some(next_replica) = order.next() {
                            if budget.try_take() {
                                flowcube_obs::counter_add(
                                    &replica_metric(
                                        "federate.replica.hedged",
                                        self.shard,
                                        next_replica,
                                    ),
                                    1,
                                );
                                flight::record(
                                    FlightKind::Hedge,
                                    trace,
                                    flight::intern("replica"),
                                    0,
                                    ((self.shard as u64) << 32) | next_replica as u64,
                                );
                                self.launch(
                                    next_replica,
                                    target,
                                    attempt_budget(Instant::now()),
                                    true,
                                    &tx,
                                );
                                in_flight += 1;
                            }
                        }
                    } else {
                        return ShardOutcome::Failed {
                            detail: format!(
                                "shard {}: deadline exceeded with {in_flight} attempt(s) in flight",
                                self.shard
                            ),
                        };
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return ShardOutcome::Failed { detail: last_error };
                }
            }
        }
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

//! Passive replica health: a consecutive-failure circuit breaker per
//! replica with half-open probing via the backend's `/healthz`.
//!
//! The breaker is a three-state machine driven entirely by traffic the
//! front tier was already sending — no background pinger while a replica
//! is healthy:
//!
//! ```text
//!            N consecutive transport failures
//!   Closed ───────────────────────────────────▶ Open
//!     ▲                                          │ cooldown elapses and a
//!     │ /healthz probe answers 200               │ request plans this shard
//!     │                                          ▼
//!     └──────────────────────────────────── HalfOpen ──▶ Open
//!                                        probe fails or times out
//! ```
//!
//! * **Closed** — the replica takes traffic. Any HTTP answer (even a
//!   5xx: the replica is up and talking) resets the failure streak; a
//!   transport failure (refused, timeout, torn read) increments it.
//! * **Open** — the replica is skipped at selection time, so a known-dead
//!   backend costs nothing instead of a connect timeout per request.
//!   Entered after [`BreakerConfig::failure_threshold`] consecutive
//!   transport failures.
//! * **HalfOpen** — the cooldown elapsed; exactly one `/healthz` probe is
//!   in flight (started by the selection path, never a data request).
//!   Success closes the breaker; failure re-opens it and restarts the
//!   cooldown clock. Query traffic keeps skipping the replica until the
//!   probe closes it — half-open admits a *probe*, not a request, so a
//!   flapping replica can never eat real queries.
//!
//! Transitions are reported by the caller as
//! `federate.replica.breaker_open` metrics and `BreakerOpen` /
//! `BreakerClose` flight events; the front's `/healthz` dumps every
//! replica's state.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker tunables; `Default` matches the CLI defaults.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive transport failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker waits before probing `/healthz`.
    pub cooldown: Duration,
    /// Socket budget for the half-open `/healthz` probe.
    pub probe_timeout: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(1),
            probe_timeout: Duration::from_millis(500),
        }
    }
}

/// Breaker state, as exposed on the front tier's `/healthz`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

impl BreakerState {
    /// Lowercase name used in `/healthz` JSON.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// What the selection path should do with a replica right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Availability {
    /// Closed: route to it (the streak, if any, ranks it).
    Ready { consecutive_failures: u32 },
    /// Open past its cooldown: the caller must spawn exactly one
    /// `/healthz` probe (the breaker is now HalfOpen) and keep skipping
    /// the replica for data traffic.
    Probe,
    /// Open inside its cooldown, or HalfOpen with the probe in flight.
    Skip,
}

struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// One replica's breaker. All methods are cheap and lock a small mutex;
/// the registry is shared across worker and attempt threads via `Arc`.
pub struct ReplicaHealth {
    inner: Mutex<Inner>,
}

impl Default for ReplicaHealth {
    fn default() -> Self {
        ReplicaHealth {
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
        }
    }
}

impl ReplicaHealth {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current state (for `/healthz` and tests).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Current consecutive transport-failure streak.
    pub fn consecutive_failures(&self) -> u32 {
        self.lock().consecutive_failures
    }

    /// Classify the replica for one selection pass. Returns
    /// [`Availability::Probe`] **at most once** per open period — the
    /// transition to HalfOpen happens here, so exactly one caller owns
    /// the probe.
    pub fn availability(&self, config: &BreakerConfig, now: Instant) -> Availability {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => Availability::Ready {
                consecutive_failures: inner.consecutive_failures,
            },
            BreakerState::HalfOpen => Availability::Skip,
            BreakerState::Open => {
                let due = inner
                    .opened_at
                    .is_none_or(|t| now.saturating_duration_since(t) >= config.cooldown);
                if due {
                    inner.state = BreakerState::HalfOpen;
                    Availability::Probe
                } else {
                    Availability::Skip
                }
            }
        }
    }

    /// An attempt reached the replica and got an HTTP answer. Clears the
    /// failure streak; a Closed breaker stays closed. (Open/HalfOpen are
    /// only closed by the probe path, so a straggling abandoned attempt
    /// cannot half-close a breaker the probe owns.)
    pub fn record_success(&self) {
        let mut inner = self.lock();
        inner.consecutive_failures = 0;
    }

    /// An attempt failed at the transport layer. Returns `true` when
    /// this failure is the one that opened the breaker (so the caller
    /// records the metric/flight event exactly once per open).
    pub fn record_failure(&self, config: &BreakerConfig, now: Instant) -> bool {
        let mut inner = self.lock();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        if inner.state == BreakerState::Closed
            && inner.consecutive_failures >= config.failure_threshold
        {
            inner.state = BreakerState::Open;
            inner.opened_at = Some(now);
            return true;
        }
        false
    }

    /// The half-open `/healthz` probe answered 200: close the breaker.
    /// Returns `true` if this call performed the close (for the
    /// `BreakerClose` flight event).
    pub fn probe_succeeded(&self) -> bool {
        let mut inner = self.lock();
        if inner.state == BreakerState::HalfOpen {
            inner.state = BreakerState::Closed;
            inner.consecutive_failures = 0;
            inner.opened_at = None;
            return true;
        }
        false
    }

    /// The half-open probe failed: re-open and restart the cooldown.
    pub fn probe_failed(&self, now: Instant) {
        let mut inner = self.lock();
        if inner.state == BreakerState::HalfOpen {
            inner.state = BreakerState::Open;
            inner.opened_at = Some(now);
        }
    }

    /// Force the breaker open as of `now` (tests and last-resort
    /// bookkeeping).
    #[cfg(test)]
    pub(crate) fn force_open(&self, now: Instant) {
        let mut inner = self.lock();
        inner.state = BreakerState::Open;
        inner.opened_at = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(50),
        }
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let h = ReplicaHealth::default();
        let now = Instant::now();
        assert!(!h.record_failure(&cfg(), now));
        assert!(!h.record_failure(&cfg(), now));
        assert_eq!(h.state(), BreakerState::Closed);
        assert!(h.record_failure(&cfg(), now), "third failure opens");
        assert_eq!(h.state(), BreakerState::Open);
        // Further failures do not re-report the open.
        assert!(!h.record_failure(&cfg(), now));
    }

    #[test]
    fn success_resets_the_streak() {
        let h = ReplicaHealth::default();
        let now = Instant::now();
        h.record_failure(&cfg(), now);
        h.record_failure(&cfg(), now);
        h.record_success();
        assert_eq!(h.consecutive_failures(), 0);
        assert!(!h.record_failure(&cfg(), now));
        assert!(!h.record_failure(&cfg(), now));
        assert_eq!(h.state(), BreakerState::Closed, "streak restarted");
    }

    #[test]
    fn open_breaker_skips_until_cooldown_then_probes_once() {
        let h = ReplicaHealth::default();
        let t0 = Instant::now();
        for _ in 0..3 {
            h.record_failure(&cfg(), t0);
        }
        assert_eq!(h.availability(&cfg(), t0), Availability::Skip);
        let later = t0 + Duration::from_millis(150);
        assert_eq!(h.availability(&cfg(), later), Availability::Probe);
        assert_eq!(h.state(), BreakerState::HalfOpen);
        // The probe is owned by the first caller; everyone else skips.
        assert_eq!(h.availability(&cfg(), later), Availability::Skip);
    }

    #[test]
    fn probe_outcome_closes_or_reopens() {
        let h = ReplicaHealth::default();
        let t0 = Instant::now();
        h.force_open(t0);
        let later = t0 + Duration::from_millis(150);
        assert_eq!(h.availability(&cfg(), later), Availability::Probe);
        h.probe_failed(later);
        assert_eq!(h.state(), BreakerState::Open);
        assert_eq!(
            h.availability(&cfg(), later),
            Availability::Skip,
            "cooldown restarted"
        );
        let much_later = later + Duration::from_millis(150);
        assert_eq!(h.availability(&cfg(), much_later), Availability::Probe);
        assert!(h.probe_succeeded());
        assert_eq!(h.state(), BreakerState::Closed);
        assert_eq!(h.consecutive_failures(), 0);
        assert!(!h.probe_succeeded(), "idempotent close reports once");
    }

    #[test]
    fn stray_success_does_not_close_an_open_breaker() {
        let h = ReplicaHealth::default();
        let t0 = Instant::now();
        h.force_open(t0);
        h.record_success();
        assert_eq!(
            h.state(),
            BreakerState::Open,
            "only the probe path closes an open breaker"
        );
    }
}

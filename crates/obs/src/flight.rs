//! The flight recorder: a lock-free, fixed-capacity ring buffer that
//! continuously records the most recent request/span events — cheap
//! enough to leave on in production even when full tracing
//! ([`crate::enable`]) is off.
//!
//! Design:
//!
//! * A static array of [`CAPACITY`] slots, each a small set of atomics.
//!   A writer claims a slot with one `fetch_add` on the global head and
//!   fills it with relaxed stores; a per-slot sequence word (seqlock
//!   protocol: odd while writing, even when done, encoding the claim
//!   index) lets readers detect and skip slots that are mid-write or
//!   were reused since the read began. No locks anywhere on the write
//!   path, so a panicking or descheduled thread can never wedge another
//!   recorder.
//! * Events carry no heap data: labels are **interned** `&'static str`s
//!   ([`intern`], done once at registration time, never on the record
//!   path), everything else is plain words. Recording is allocation-free.
//! * The recorder has its own enable flag, independent of the tracing
//!   flag: a disabled [`record`] call costs **one relaxed atomic load**
//!   (the same contract as a quiet testkit failpoint; the `exp_overhead`
//!   binary of `flowcube-bench` measures both side by side).
//!
//! [`snapshot`] decodes the surviving window (oldest → newest) for the
//! `/debug/flight` endpoint and for access-log dumps on slow or failed
//! requests.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

/// Slots in the ring; the recorder keeps the last `CAPACITY` events.
pub const CAPACITY: usize = 4096;

/// What an event records. Kept intentionally coarse: the flight recorder
/// answers "what was the server doing just now", not "trace everything".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightKind {
    /// A request was parsed and dispatch began.
    RequestStart,
    /// A request finished; `status` and `value` (latency µs) are set.
    RequestEnd,
    /// A cached response was returned.
    CacheHit,
    /// The response cache missed.
    CacheMiss,
    /// The accept queue was full and the connection was shed (429).
    Shed,
    /// A request blew its deadline (503).
    Deadline,
    /// A worker thread panicked and was respawned.
    WorkerCrash,
    /// The served cube was swapped (or an attempt to swap it failed):
    /// the label names the cause — `reload`, `ingest` or `compact` —
    /// and `status` is 0 = ok, 1 = failed.
    Reload,
    /// An uncategorized marker (generic span-style event).
    Mark,
    /// A federated front tier fanned a request out; `value` = shard count.
    Scatter,
    /// A federated fan-out gathered its responses; `value` = shards that
    /// answered in time.
    Gather,
    /// One shard of a federated fan-out timed out or failed; `value` =
    /// shard id.
    ShardTimeout,
    /// A shard leg fired a hedged second request; `value` packs
    /// `shard << 32 | replica`.
    Hedge,
    /// A replica's circuit breaker opened after consecutive transport
    /// failures; `value` packs `shard << 32 | replica`.
    BreakerOpen,
    /// A half-open `/healthz` probe succeeded and closed the breaker;
    /// `value` packs `shard << 32 | replica`.
    BreakerClose,
}

impl FlightKind {
    fn code(self) -> u64 {
        match self {
            FlightKind::RequestStart => 0,
            FlightKind::RequestEnd => 1,
            FlightKind::CacheHit => 2,
            FlightKind::CacheMiss => 3,
            FlightKind::Shed => 4,
            FlightKind::Deadline => 5,
            FlightKind::WorkerCrash => 6,
            FlightKind::Reload => 7,
            FlightKind::Mark => 8,
            FlightKind::Scatter => 9,
            FlightKind::Gather => 10,
            FlightKind::ShardTimeout => 11,
            FlightKind::Hedge => 12,
            FlightKind::BreakerOpen => 13,
            FlightKind::BreakerClose => 14,
        }
    }

    fn from_code(code: u64) -> Option<FlightKind> {
        Some(match code {
            0 => FlightKind::RequestStart,
            1 => FlightKind::RequestEnd,
            2 => FlightKind::CacheHit,
            3 => FlightKind::CacheMiss,
            4 => FlightKind::Shed,
            5 => FlightKind::Deadline,
            6 => FlightKind::WorkerCrash,
            7 => FlightKind::Reload,
            8 => FlightKind::Mark,
            9 => FlightKind::Scatter,
            10 => FlightKind::Gather,
            11 => FlightKind::ShardTimeout,
            12 => FlightKind::Hedge,
            13 => FlightKind::BreakerOpen,
            14 => FlightKind::BreakerClose,
            _ => return None,
        })
    }
}

/// A decoded flight-recorder event, as returned by [`snapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Nanoseconds since the process trace epoch (same clock as spans).
    pub ts_ns: u64,
    /// The request's trace id (0 when the event is not request-scoped).
    pub trace_id: u64,
    pub kind: FlightKind,
    /// Interned label — for request events, the endpoint tag.
    pub label: String,
    /// HTTP status (or kind-specific small code); 0 when unused.
    pub status: u16,
    /// Kind-specific magnitude — latency in µs for `RequestEnd`.
    pub value: u64,
}

/// One ring slot. `seq` is even (`2*claim+2`) when the payload is
/// consistent, odd while a writer owns it; the claim index folded into
/// it lets a reader detect a slot reused mid-read.
struct Slot {
    seq: AtomicU64,
    ts_ns: AtomicU64,
    trace_id: AtomicU64,
    /// `kind | label_id << 8 | status << 32`.
    packed: AtomicU64,
    value: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    seq: AtomicU64::new(0),
    ts_ns: AtomicU64::new(0),
    trace_id: AtomicU64::new(0),
    packed: AtomicU64::new(0),
    value: AtomicU64::new(0),
};

static RING: [Slot; CAPACITY] = [EMPTY_SLOT; CAPACITY];
/// Total events ever claimed; `HEAD % CAPACITY` is the next slot.
static HEAD: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Interned labels. Interning takes a lock but happens once per distinct
/// label (serve interns its endpoint tags at startup); the record path
/// only ever carries the returned id.
static LABELS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Intern a label, returning its stable id. Idempotent.
pub fn intern(label: &'static str) -> u16 {
    let mut labels = LABELS.lock();
    if let Some(i) = labels.iter().position(|&l| l == label) {
        return i as u16;
    }
    assert!(labels.len() < u16::MAX as usize, "label table overflow");
    labels.push(label);
    (labels.len() - 1) as u16
}

fn label_name(id: u16) -> &'static str {
    LABELS.lock().get(id as usize).copied().unwrap_or("?")
}

/// Turn the flight recorder on. Independent of [`crate::enable`]: a
/// server leaves this on even with full tracing off.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the flight recorder off (recorded events are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the recorder is on — the only cost a disabled [`record`] pays.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record one event. Disabled: one relaxed atomic load. Enabled: one
/// `fetch_add` plus a handful of relaxed stores — lock-free and
/// allocation-free, safe from any thread including panic handlers.
#[inline]
pub fn record(kind: FlightKind, trace_id: u64, label: u16, status: u16, value: u64) {
    if !is_enabled() {
        return;
    }
    record_always(kind, trace_id, label, status, value);
}

fn record_always(kind: FlightKind, trace_id: u64, label: u16, status: u16, value: u64) {
    let claim = HEAD.fetch_add(1, Ordering::Relaxed);
    let slot = &RING[(claim % CAPACITY as u64) as usize];
    // Seqlock write: odd = in progress, even = consistent. The claim
    // index in the sequence lets readers reject a slot that lapped them.
    slot.seq.store(claim * 2 + 1, Ordering::Relaxed);
    slot.ts_ns.store(crate::trace::now_ns(), Ordering::Relaxed);
    slot.trace_id.store(trace_id, Ordering::Relaxed);
    slot.packed.store(
        kind.code() | (label as u64) << 8 | (status as u64) << 32,
        Ordering::Relaxed,
    );
    slot.value.store(value, Ordering::Relaxed);
    slot.seq.store(claim * 2 + 2, Ordering::Release);
}

/// Decode the current window, oldest → newest. Slots that are mid-write
/// or were overwritten while reading are skipped, never blocked on — a
/// snapshot under heavy write load returns the events that survived.
pub fn snapshot() -> Vec<FlightEvent> {
    let head = HEAD.load(Ordering::Acquire);
    let window = head.min(CAPACITY as u64);
    let mut out = Vec::with_capacity(window as usize);
    for claim in head - window..head {
        let slot = &RING[(claim % CAPACITY as u64) as usize];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq != claim * 2 + 2 {
            continue; // empty, mid-write, or already lapped
        }
        let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
        let trace_id = slot.trace_id.load(Ordering::Relaxed);
        let packed = slot.packed.load(Ordering::Relaxed);
        let value = slot.value.load(Ordering::Relaxed);
        // Re-validate: if a writer lapped this slot while we were
        // reading, the payload words may mix two events — drop it.
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != seq {
            continue;
        }
        let Some(kind) = FlightKind::from_code(packed & 0xff) else {
            continue;
        };
        out.push(FlightEvent {
            ts_ns,
            trace_id,
            kind,
            label: label_name((packed >> 8) as u16).to_string(),
            status: (packed >> 32) as u16,
            value,
        });
    }
    out
}

/// Events ever recorded (not just those still in the window).
pub fn recorded_total() -> u64 {
    HEAD.load(Ordering::Relaxed)
}

/// Forget every recorded event (the enabled flag is untouched).
/// Concurrent recorders may repopulate slots immediately.
pub fn clear() {
    // Invalidate each slot rather than resetting HEAD: claims must stay
    // unique for the seqlock protocol, so the head only ever advances.
    for slot in RING.iter() {
        slot.seq.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring is process-global; serialize tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_clean_ring(f: impl FnOnce()) {
        let _guard = TEST_LOCK.lock();
        clear();
        enable();
        f();
        disable();
        clear();
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = TEST_LOCK.lock();
        clear();
        disable();
        let before = recorded_total();
        record(FlightKind::Mark, 1, 0, 0, 0);
        assert_eq!(recorded_total(), before);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn records_and_decodes_in_order() {
        with_clean_ring(|| {
            let label = intern("test.endpoint");
            record(FlightKind::RequestStart, 7, label, 0, 0);
            record(FlightKind::RequestEnd, 7, label, 200, 1234);
            let events = snapshot();
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].kind, FlightKind::RequestStart);
            assert_eq!(events[0].trace_id, 7);
            assert_eq!(events[0].label, "test.endpoint");
            assert_eq!(events[1].kind, FlightKind::RequestEnd);
            assert_eq!(events[1].status, 200);
            assert_eq!(events[1].value, 1234);
            assert!(events[0].ts_ns <= events[1].ts_ns);
        });
    }

    #[test]
    fn wraparound_keeps_only_the_latest_window() {
        with_clean_ring(|| {
            let label = intern("wrap");
            for i in 0..(CAPACITY as u64 + 100) {
                record(FlightKind::Mark, i, label, 0, i);
            }
            let events = snapshot();
            assert_eq!(events.len(), CAPACITY);
            // The survivors are exactly the newest CAPACITY events.
            let first = events.first().expect("non-empty").value;
            assert_eq!(first, 100);
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.value, first + i as u64, "events in claim order");
            }
        });
    }

    #[test]
    fn concurrent_writers_never_corrupt_events() {
        with_clean_ring(|| {
            let label = intern("concurrent");
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    scope.spawn(move || {
                        for i in 0..2000u64 {
                            record(FlightKind::Mark, t, label, t as u16, i);
                        }
                    });
                }
            });
            // Every surviving event must be one that was actually
            // written: trace_id/status agree and value is in range.
            let events = snapshot();
            assert!(!events.is_empty());
            for e in &events {
                assert_eq!(e.kind, FlightKind::Mark);
                assert_eq!(e.trace_id as u16, e.status, "fields from one write");
                assert!(e.value < 2000);
            }
        });
    }

    #[test]
    fn intern_is_idempotent() {
        let a = intern("same-label");
        let b = intern("same-label");
        assert_eq!(a, b);
        assert_ne!(intern("other-label"), a);
    }

    #[test]
    fn clear_empties_the_window() {
        with_clean_ring(|| {
            record(FlightKind::Mark, 1, 0, 0, 0);
            assert!(!snapshot().is_empty());
            clear();
            assert!(snapshot().is_empty());
        });
    }

    #[test]
    fn flight_event_serializes_to_json() {
        with_clean_ring(|| {
            let label = intern("json");
            record(FlightKind::RequestEnd, 9, label, 503, 42);
            let events = snapshot();
            let json = serde_json::to_string(&events).expect("serialize");
            assert!(json.contains("RequestEnd"), "{json}");
            assert!(json.contains("\"status\":503"), "{json}");
        });
    }
}

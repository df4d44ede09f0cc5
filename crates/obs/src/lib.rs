//! `flowcube-obs`: structured tracing, metrics, and profiling exporters
//! for the FlowCube build pipeline.
//!
//! The crate is a process-global recorder with three faces:
//!
//! * **Spans** — [`span!`] opens a nested region that closes when its RAII
//!   guard drops; each region becomes a begin/end pair in the trace buffer,
//!   tagged with a per-thread lane id so parallel cell materialization
//!   renders as concurrent lanes in a Chrome trace viewer.
//! * **Metrics** — named counters, gauges, and log₂ histograms in
//!   [`metrics`], frozen by [`metrics::snapshot`].
//! * **Exporters** — [`export::chrome_trace_json`] (Perfetto-loadable),
//!   [`export::metrics_json`], and [`export::tree_summary`] (human tree).
//!
//! Everything is off by default: until [`enable`] is called, recording
//! macros cost a single relaxed atomic load and span arguments are never
//! evaluated. [`Timer`] is the exception — it always measures (the build
//! pipeline needs wall-clock durations whether or not tracing is on) and
//! only *publishes* the begin/end pair when enabled.
//!
//! The [`flight`] recorder is a fourth face with its own switch: a
//! lock-free ring buffer holding the most recent request events, meant
//! to stay on in production even when span tracing is off, so the last
//! few thousand events are always reconstructible after a bad request.

pub mod export;
pub mod flight;
pub mod metrics;
pub mod rss;
pub mod trace;

pub use metrics::{
    counter_add, gauge_set, histogram_record, labeled, snapshot, BucketCount, Histogram,
    HistogramSummary, MetricsSnapshot,
};
pub use trace::{lane_count, ArgValue, Event, Phase};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn recording on for the whole process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording off (already-recorded data is kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether recording is on. This is the only cost a disabled span pays.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drop all recorded events and metrics (the enabled flag is untouched).
pub fn reset() {
    trace::clear();
    metrics::clear();
}

/// RAII guard for an open span; records the end event when dropped.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    name: Option<&'static str>,
}

impl SpanGuard {
    /// A guard that records nothing on drop (the disabled path).
    pub fn noop() -> Self {
        SpanGuard { name: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            trace::push_end(Event {
                name,
                phase: Phase::End,
                ts_ns: trace::now_ns(),
                tid: trace::lane(),
                args: Vec::new(),
            });
        }
    }
}

/// Open a span with no arguments. Prefer the [`span!`] macro, which skips
/// argument construction entirely when recording is off.
pub fn span_enter(name: &'static str) -> SpanGuard {
    span_enter_args(name, Vec::new())
}

/// Open a span with pre-built arguments.
pub fn span_enter_args(name: &'static str, args: Vec<(&'static str, ArgValue)>) -> SpanGuard {
    let recorded = is_enabled()
        && trace::push_begin(Event {
            name,
            phase: Phase::Begin,
            ts_ns: trace::now_ns(),
            tid: trace::lane(),
            args,
        });
    SpanGuard {
        name: recorded.then_some(name),
    }
}

/// Open a named span, returning its RAII guard:
///
/// ```
/// flowcube_obs::enable();
/// {
///     let _span = flowcube_obs::span!("mining.scan", k = 3usize);
///     // … work …
/// } // end event recorded here
/// ```
///
/// Argument expressions are evaluated only when recording is enabled; the
/// disabled path is one atomic load and a no-op guard.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::is_enabled() {
            $crate::span_enter($name)
        } else {
            $crate::SpanGuard::noop()
        }
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::is_enabled() {
            $crate::span_enter_args(
                $name,
                vec![$((stringify!($key), $crate::ArgValue::from($value))),+],
            )
        } else {
            $crate::SpanGuard::noop()
        }
    };
}

/// A phase timer that always measures and conditionally traces.
///
/// The build pipeline needs wall-clock durations for `BuildStats` even when
/// observability is off, so `stop` always returns the elapsed time; the
/// begin/end trace pair is only recorded when enabled.
pub struct Timer {
    name: &'static str,
    start: Instant,
    start_ns: u64,
}

impl Timer {
    pub fn start(name: &'static str) -> Timer {
        Timer {
            name,
            start: Instant::now(),
            start_ns: trace::now_ns(),
        }
    }

    /// Stop the timer, recording the span if enabled, and return the
    /// measured duration.
    pub fn stop(self) -> Duration {
        let elapsed = self.start.elapsed();
        if is_enabled() {
            trace::push_pair(
                self.name,
                self.start_ns,
                trace::now_ns(),
                trace::lane(),
                Vec::new(),
            );
        }
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// The recorder is process-global, so tests that touch it must not
    /// interleave with each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_clean_recorder(f: impl FnOnce()) {
        let _guard = TEST_LOCK.lock();
        reset();
        enable();
        f();
        disable();
        reset();
    }

    #[test]
    fn spans_nest_and_balance() {
        with_clean_recorder(|| {
            {
                let _outer = span!("outer", items = 2usize);
                {
                    let _inner = span!("inner");
                }
                let _sibling = span!("sibling", label = "x");
            }
            let events = trace::events();
            assert_eq!(events.len(), 6);
            let names: Vec<(&str, Phase)> = events.iter().map(|e| (e.name, e.phase)).collect();
            assert_eq!(
                names,
                vec![
                    ("outer", Phase::Begin),
                    ("inner", Phase::Begin),
                    ("inner", Phase::End),
                    ("sibling", Phase::Begin),
                    ("sibling", Phase::End),
                    ("outer", Phase::End),
                ]
            );
            assert_eq!(events[0].args, vec![("items", ArgValue::U64(2))]);
            // Timestamps never run backwards within one thread.
            for pair in events.windows(2) {
                assert!(pair[0].ts_ns <= pair[1].ts_ns);
            }
        });
    }

    #[test]
    fn disabled_spans_record_nothing_and_skip_args() {
        let _guard = TEST_LOCK.lock();
        reset();
        disable();
        let mut evaluated = false;
        {
            let _span = span!(
                "quiet",
                flag = {
                    evaluated = true;
                    1u64
                }
            );
        }
        assert!(!evaluated, "span args must not be evaluated while disabled");
        assert!(trace::events().is_empty());
        counter_add("quiet.counter", 5);
        assert!(snapshot().counters.is_empty());
        reset();
    }

    #[test]
    fn threads_get_distinct_balanced_lanes() {
        with_clean_recorder(|| {
            std::thread::scope(|scope| {
                for t in 0..3 {
                    scope.spawn(move || {
                        let _span = span!("worker", index = t as u64);
                        let _inner = span!("worker.step");
                    });
                }
            });
            let events = trace::events();
            assert_eq!(events.len(), 12);
            let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
            assert_eq!(tids.len(), 3, "each thread gets its own lane");
            for tid in tids {
                let mut depth = 0i32;
                for e in events.iter().filter(|e| e.tid == tid) {
                    match e.phase {
                        Phase::Begin => depth += 1,
                        Phase::End => {
                            depth -= 1;
                            assert!(depth >= 0, "end without begin on lane {tid}");
                        }
                    }
                }
                assert_eq!(depth, 0, "unbalanced lane {tid}");
            }
        });
    }

    #[test]
    fn timer_measures_even_when_disabled() {
        let _guard = TEST_LOCK.lock();
        reset();
        disable();
        let timer = Timer::start("phase");
        std::thread::sleep(Duration::from_millis(2));
        let elapsed = timer.stop();
        assert!(elapsed >= Duration::from_millis(2));
        assert!(trace::events().is_empty());

        enable();
        let timer = Timer::start("phase");
        let _ = timer.stop();
        let events = trace::events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, Phase::Begin);
        assert_eq!(events[1].phase, Phase::End);
        assert!(events[0].ts_ns <= events[1].ts_ns);
        disable();
        reset();
    }

    #[test]
    fn trace_buffer_is_bounded_and_stays_balanced() {
        with_clean_recorder(|| {
            let outer = span!("outer");
            for _ in 0..trace::MAX_EVENTS / 2 {
                let _fill = span!("fill");
            }
            // Full now: a new span and a timer pair are both refused…
            {
                let _late = span!("late");
            }
            let _ = Timer::start("late.timer").stop();
            // …but the end of the span opened before the bound lands.
            drop(outer);
            let events = trace::events();
            assert_eq!(events.len(), trace::MAX_EVENTS + 2);
            assert!(events.iter().all(|e| !e.name.starts_with("late")));
            let begins = events.iter().filter(|e| e.phase == Phase::Begin).count();
            assert_eq!(begins * 2, events.len(), "every begin has its end");
            assert_eq!(snapshot().counters.get("obs.trace.dropped"), Some(&2));
        });
    }

    #[test]
    fn histogram_percentiles_track_distribution() {
        let mut h = Histogram::default();
        for v in 1..=1000u32 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500.0);
        let s = h.summary();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        // log₂ buckets give ~2× relative error bounds.
        assert!(s.p50 >= 250.0 && s.p50 <= 1000.0, "p50 = {}", s.p50);
        assert!(s.p90 >= 450.0 && s.p90 <= 1000.0, "p90 = {}", s.p90);
        assert!(
            s.p50 <= s.p90 && s.p90 <= s.p99,
            "quantiles must be monotone"
        );
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let s = Histogram::default().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.p50, 0.0);
    }

    #[test]
    fn registry_collects_and_snapshots() {
        with_clean_recorder(|| {
            counter_add("mining.candidates", 10);
            counter_add("mining.candidates", 5);
            counter_add("zero.noop", 0);
            gauge_set("build.cells", 42.0);
            gauge_set("build.cells", 43.0);
            for ms in [1.0, 2.0, 4.0, 8.0] {
                histogram_record("cell.ms", ms);
            }
            let snap = snapshot();
            assert_eq!(snap.counters.get("mining.candidates"), Some(&15));
            assert!(!snap.counters.contains_key("zero.noop"));
            assert_eq!(snap.gauges.get("build.cells"), Some(&43.0));
            let h = snap.histograms.get("cell.ms").expect("histogram present");
            assert_eq!(h.count, 4);
            assert_eq!(h.sum, 15.0);
            #[cfg(target_os = "linux")]
            assert!(
                snap.gauges.contains_key("process.peak_rss_bytes"),
                "snapshot embeds peak RSS on linux"
            );
        });
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        with_clean_recorder(|| {
            counter_add("a.b", 7);
            gauge_set("g", 1.5);
            histogram_record("h", 3.0);
            let snap = snapshot();
            let json = serde_json::to_string_pretty(&snap).unwrap();
            let back: MetricsSnapshot =
                serde_json::from_str(&json).expect("snapshot json round-trips");
            assert_eq!(back, snap);
        });
    }
}

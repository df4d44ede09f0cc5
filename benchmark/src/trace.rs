//! The benchmark's own span recorder: one span around every call into a
//! layer's public function, kept in memory and written out at exit.
//!
//! This is separate from the product's `flowcube_obs` recorder, which
//! the serving workloads leave on because production does. Timing is
//! always taken (the metrics need it); a span is stored only while the
//! recorder is on, so an untraced run pays one relaxed load per call.

use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    id: u32,
    /// 0 = a root span.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    /// The `X-Request-Id` sent with a sampled request; 0 = none.
    request_id: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// Pin the time origin; call first thing in `main`.
pub fn init() {
    EPOCH.get_or_init(Instant::now);
}

/// Seconds since [`init`].
pub fn since_start() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn ns(at: Instant) -> u64 {
    at.duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

pub fn set_on(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn is_on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// The innermost open span of this thread, to hand to a thread it spawns.
pub fn current() -> u32 {
    CURRENT.with(Cell::get)
}

/// Make spans recorded on this thread children of `parent`.
pub fn adopt(parent: u32) {
    CURRENT.with(|c| c.set(parent));
}

fn push(span: Span) {
    SPANS.lock().expect("span buffer poisoned").push(span);
}

/// Run `f` under a span named `name`; returns its result and duration.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    if !is_on() {
        let start = Instant::now();
        let out = f();
        return (out, start.elapsed());
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    CURRENT.with(|c| c.set(parent));
    push(Span {
        name,
        id,
        parent,
        start_ns: ns(start),
        end_ns: ns(end),
        request_id: 0,
    });
    (out, end - start)
}

/// Record an already-timed leaf span (one HTTP exchange of the load
/// loop) under this thread's current span.
pub fn leaf(name: &'static str, start: Instant, end: Instant, request_id: u64) {
    if !is_on() {
        return;
    }
    push(Span {
        name,
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: current(),
        start_ns: ns(start),
        end_ns: ns(end),
        request_id,
    });
}

/// Write every recorded span as
/// `{"workload", "unit": "ns", "names": [...], "spans": [[name, id,
/// parent, start, end, request_id], ...]}` — rows, not objects, because a
/// traced window holds tens of thousands of request spans.
pub fn write(path: &Path, workload: &str) -> std::io::Result<()> {
    let spans = SPANS.lock().expect("span buffer poisoned");
    let mut names: Vec<&'static str> = Vec::new();
    let mut out = String::with_capacity(64 + spans.len() * 48);
    let mut rows = String::with_capacity(spans.len() * 48);
    for s in spans.iter() {
        let name = match names.iter().position(|n| *n == s.name) {
            Some(i) => i,
            None => {
                names.push(s.name);
                names.len() - 1
            }
        };
        if !rows.is_empty() {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n[{name},{},{},{},{},{}]",
            s.id, s.parent, s.start_ns, s.end_ns, s.request_id
        ));
    }
    out.push_str(&format!(
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"names\":["
    ));
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{n}\""));
    }
    out.push_str("],\"spans\":[");
    out.push_str(&rows);
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

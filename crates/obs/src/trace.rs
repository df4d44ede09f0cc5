//! The trace buffer: begin/end events with thread lanes.
//!
//! Recording is a single atomic load when tracing is disabled; when
//! enabled, each span pushes two events (B and E) into a global
//! mutex-protected buffer. Timestamps are nanoseconds since a process-wide
//! epoch taken at first use, so events from concurrent threads share one
//! clock and render as parallel lanes in a Chrome trace viewer.
//!
//! The buffer is bounded at [`MAX_EVENTS`]: a long-running server that
//! records spans but never exports them must not grow without limit.
//! Spans that would start past the bound are counted in
//! `obs.trace.dropped` and not recorded.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One argument attached to a span (rendered into Chrome trace `args`).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

macro_rules! arg_from {
    ($($t:ty => $variant:ident as $conv:ty),*) => {$(
        impl From<$t> for ArgValue {
            fn from(v: $t) -> Self {
                ArgValue::$variant(v as $conv)
            }
        }
    )*};
}
arg_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64
);

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Begin/end phase, matching Chrome trace-event `ph` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Begin,
    End,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    pub name: &'static str,
    pub phase: Phase,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Small dense lane id (0 = first thread that ever recorded).
    pub tid: u32,
    /// Only begin events carry arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Events the buffer admits (about 64 MB of them). The end of a span
/// whose begin was admitted is always recorded too, so the buffer can
/// overshoot by the spans open at the moment it fills, and recorded
/// spans stay balanced.
pub const MAX_EVENTS: usize = 1 << 20;

static BUFFER: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Nanoseconds since the trace epoch (monotonic, shared by all threads).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The current thread's dense lane id.
pub fn lane() -> u32 {
    LANE.with(|l| *l)
}

/// How many distinct lanes (threads) have recorded so far in this
/// process. Lane ids are assigned on a thread's first event and never
/// reused, so the count only grows — a parallel scan that actually ran
/// its workers is visible as an increase.
pub fn lane_count() -> u32 {
    NEXT_TID.load(Ordering::Relaxed)
}

/// Let `record` append a new span's events if the buffer has room;
/// otherwise count the span as dropped and return `false`.
fn admit_span(record: impl FnOnce(&mut Vec<Event>)) -> bool {
    let mut buffer = BUFFER.lock();
    let room = buffer.len() < MAX_EVENTS;
    if room {
        record(&mut buffer);
    }
    drop(buffer);
    if !room {
        crate::counter_add("obs.trace.dropped", 1);
    }
    room
}

/// Record a span's begin event, unless the buffer is full (`false`); the
/// span must then record no end either.
pub(crate) fn push_begin(event: Event) -> bool {
    admit_span(|buffer| buffer.push(event))
}

/// Record the end event of a span whose begin was admitted.
pub(crate) fn push_end(event: Event) {
    BUFFER.lock().push(event);
}

pub(crate) fn push_pair(
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    tid: u32,
    args: Vec<(&'static str, ArgValue)>,
) {
    admit_span(|buffer| {
        buffer.push(Event {
            name,
            phase: Phase::Begin,
            ts_ns: start_ns,
            tid,
            args,
        });
        buffer.push(Event {
            name,
            phase: Phase::End,
            ts_ns: end_ns,
            tid,
            args: Vec::new(),
        });
    });
}

/// Snapshot the buffer (events are in push order, not time order).
pub fn events() -> Vec<Event> {
    BUFFER.lock().clone()
}

pub(crate) fn clear() {
    BUFFER.lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_count_grows_with_recording_threads() {
        let before = lane_count();
        lane(); // this thread takes a lane
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(lane);
            }
        });
        assert!(lane_count() >= before.max(1) + 3);
        assert_eq!(lane_count(), lane_count(), "count is stable between events");
    }
}

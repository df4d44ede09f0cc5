//! Cost per call of the three always-compiled-in observation sites when
//! nobody is looking: a quiet failpoint (`flowcube_testkit::fail_point`),
//! a disabled flight `record` and a disabled `span!`. Each is meant to
//! cost one relaxed atomic load. The failpoint is the reference; CI
//! holds `disabled_vs_failpoint_ratio` (disabled flight record over the
//! failpoint) to at most 2. The enabled flight cost — claim a slot, four
//! relaxed stores, one release store — is what a serving process pays
//! per request event, printed for context.
//!
//! Usage: `exp_overhead` (no flags); prints one JSON line.

use flowcube_bench::median_secs;
use flowcube_obs::flight::{self, FlightKind};
use serde::Serialize;
use std::hint::black_box;

const BATCHES: usize = 9;
const CALLS: u32 = 100_000;

#[derive(Serialize)]
struct Overhead {
    failpoint_disabled_ns: f64,
    flight_disabled_ns: f64,
    span_disabled_ns: f64,
    flight_enabled_ns: f64,
    /// `flight_disabled_ns / failpoint_disabled_ns`.
    disabled_vs_failpoint_ratio: f64,
}

fn ns_per_call(f: impl FnMut()) -> f64 {
    median_secs(BATCHES, CALLS, f) * 1e9
}

fn main() {
    let label = flight::intern("bench");
    let record = || {
        flight::record(
            black_box(FlightKind::Mark),
            black_box(7),
            black_box(label),
            0,
            black_box(9),
        )
    };

    flowcube_testkit::reset();
    let failpoint_disabled_ns = ns_per_call(|| {
        let _ = black_box(flowcube_testkit::fail_point(black_box("bench.noop")));
    });

    flight::disable();
    let flight_disabled_ns = ns_per_call(record);

    flowcube_obs::disable();
    let mut i = 0u64;
    let span_disabled_ns = ns_per_call(|| {
        i += 1;
        let _span = flowcube_obs::span!("bench.noop", i = black_box(i));
    });

    flight::enable();
    let flight_enabled_ns = ns_per_call(record);
    flight::disable();
    flight::clear();

    let overhead = Overhead {
        failpoint_disabled_ns,
        flight_disabled_ns,
        span_disabled_ns,
        flight_enabled_ns,
        disabled_vs_failpoint_ratio: flight_disabled_ns / failpoint_disabled_ns,
    };
    println!(
        "{}",
        serde_json::to_string(&overhead).expect("serialize overhead")
    );
}

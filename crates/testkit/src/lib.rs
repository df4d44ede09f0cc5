//! `flowcube-testkit`: deterministic fault injection for testing failure
//! paths instead of hoping for them.
//!
//! A **failpoint** is a named site in production code that normally does
//! nothing. When *armed* — through the [`arm`] API in tests or through
//! the `FLOWCUBE_FAILPOINTS` environment variable at process start — the
//! site fires a configured [`FailAction`]:
//!
//! * `return` — the site surfaces a [`Fault::Error`] the caller maps
//!   into its own error type (a simulated IO/parse/validation failure);
//! * `panic` — the site panics, exercising `catch_unwind` / supervisor
//!   recovery paths;
//! * `delay(ms)` — the site sleeps, exercising deadline paths; an event
//!   loop evaluates its sites with [`fail_point_deferred`] instead, and
//!   holds the one piece of work back on a timer rather than sleeping;
//! * `short-read(n)` — the site surfaces [`Fault::ShortRead`], which IO
//!   callers interpret as "only `n` bytes exist" (truncation).
//!
//! ## Cost when disabled
//!
//! The whole crate rides on one process-global `AtomicBool`. Until the
//! first failpoint is armed, [`fail_point`] is a single relaxed atomic
//! load and an immediate return — the same budget as a disabled
//! `flowcube_obs::span!`. The `exp_overhead` binary of `flowcube-bench`
//! prices the hot path against that budget.
//!
//! ## Activation
//!
//! Tests arm points programmatically and must serialize on a lock (the
//! registry is process-global):
//!
//! ```
//! flowcube_testkit::arm_times("demo.point", 1, flowcube_testkit::FailAction::ReturnErr(None));
//! assert!(flowcube_testkit::fail_point("demo.point").is_some());
//! assert!(flowcube_testkit::fail_point("demo.point").is_none()); // exhausted
//! flowcube_testkit::reset();
//! ```
//!
//! Processes arm points at startup from the environment (the CLI calls
//! [`init_from_env`] in `main`):
//!
//! ```text
//! FLOWCUBE_FAILPOINTS='serve.worker=1*panic;snapshot.section=return(bit rot)'
//! ```
//!
//! Spec grammar: `name=action` items separated by `;` (or `,`), where
//! `action` is `return`, `return(msg)`, `panic`, `panic(msg)`,
//! `delay(ms)`, `short-read(bytes)`, or `off`, optionally prefixed with
//! a trigger budget `N*` — `2*panic` fires twice, then the point goes
//! quiet (its hit counter survives).
//!
//! ## Naming scheme
//!
//! Failpoint names are `layer.site` in the crate that hosts them:
//! `pathdb.parse.line`, `mining.chunk`, `serve.worker`, `serve.request`,
//! `snapshot.open`, `snapshot.section`. Sites are documented where they
//! live; DESIGN.md §10 carries the full catalog.
//!
//! A site may be **instance-addressed** when one code path serves many
//! peers: the federated front tier evaluates
//! `federate.replica.s{shard}.r{replica}` on each replica attempt and
//! `federate.replica.probe.s{shard}.r{replica}` on each half-open
//! health probe, so a test can make exactly replica 1 of shard 0 slow
//! (`delay(ms)`), refused (`return`), or flap its probe — the
//! replica-fault suite drives hedging, retry budgets, and breaker
//! transitions this way. Instance-addressed sites format their name at
//! evaluation time, so the host code must guard the lookup with
//! [`any_armed`] to keep the disabled path allocation-free.
//!
//! The crate also carries the integration suites' one raw HTTP client,
//! [`http`], the digest golden-file tests pin bytes with,
//! [`sha256_hex`], their one scratch-file namer, [`temp_path`], and
//! the counting allocator the allocation suites install, [`alloc`].

pub mod alloc;
pub mod http;
mod sha256;
pub use sha256::sha256_hex;

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A path in the system temp directory for a test's scratch file or
/// directory `name`, unique to this process and name: test binaries that
/// run at once never share one. Nothing is created.
pub fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("flowcube-test-{}-{name}", std::process::id()))
}

/// Environment variable read by [`init_from_env`].
pub const FAILPOINTS_ENV: &str = "FLOWCUBE_FAILPOINTS";

/// What an armed failpoint does when its site is reached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Surface [`Fault::Error`] to the caller (simulated failure). The
    /// optional message becomes the error detail.
    ReturnErr(Option<String>),
    /// Panic at the site (exercises unwind/supervisor recovery).
    Panic(Option<String>),
    /// Sleep for the given duration, then continue normally (exercises
    /// deadline/timeout paths).
    Delay(Duration),
    /// Surface [`Fault::ShortRead`] — IO sites treat the payload as the
    /// number of bytes that "exist" before truncation.
    ShortRead(usize),
    /// Explicitly disarmed: fires nothing and counts nothing. Parsed
    /// from `off`; useful to pin a point quiet in an env spec.
    Off,
}

/// The consequence a caller must handle after [`fail_point`] fires.
/// `Panic` and `Delay` never reach the caller — they happen inside the
/// evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Map this into the site's error type.
    Error(String),
    /// Behave as if only this many bytes were available.
    ShortRead(usize),
}

struct Entry {
    action: FailAction,
    /// `None` = unlimited; `Some(n)` = fires `n` more times.
    remaining: Option<u64>,
    /// Visits still to pass quietly before the point fires.
    skip: u64,
    hits: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<BTreeMap<String, Entry>> = Mutex::new(BTreeMap::new());

/// Evaluate a failpoint. The disabled path (nothing armed since the last
/// [`reset`]) is one relaxed atomic load.
///
/// Returns `None` when the point is quiet; `Some(fault)` when the caller
/// must simulate a failure. `Panic` actions panic here; `Delay` actions
/// sleep here and return `None`.
#[inline]
pub fn fail_point(name: &str) -> Option<Fault> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    fail_point_armed(name)
}

/// Evaluate a failpoint at a site that has no error channel (a worker
/// loop, a spawn site). `ReturnErr` and `ShortRead` escalate to panics
/// there — the site cannot surface them any other way.
#[inline]
pub fn fail_point_unit(name: &str) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if let Some(fault) = fail_point_armed(name) {
        match fault {
            Fault::Error(msg) => panic!("failpoint {name}: {msg}"),
            Fault::ShortRead(n) => panic!("failpoint {name}: short read of {n} bytes"),
        }
    }
}

/// What [`fail_point_deferred`] hands back instead of acting on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Deferred {
    /// The site must simulate this failure.
    Fault(Fault),
    /// The site must hold its work back this long — on a timer of its
    /// own, not by sleeping.
    Delay(Duration),
}

/// Evaluate a failpoint at a site that must not sleep: an event loop,
/// where a `delay(ms)` is a timer for the one piece of work the site
/// guards, not a stall of everything the loop drives. `Delay` actions
/// come back as [`Deferred::Delay`]; `Panic` actions panic here, and the
/// rest come back as [`Deferred::Fault`], as from [`fail_point`].
#[inline]
pub fn fail_point_deferred(name: &str) -> Option<Deferred> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    match fire(name)? {
        FailAction::Delay(d) => Some(Deferred::Delay(d)),
        action => act(name, action).map(Deferred::Fault),
    }
}

#[cold]
fn fail_point_armed(name: &str) -> Option<Fault> {
    act(name, fire(name)?)
}

/// Count a visit to an armed point; the action it fires, if any.
#[cold]
fn fire(name: &str) -> Option<FailAction> {
    let mut reg = REGISTRY.lock();
    let entry = reg.get_mut(name)?;
    if entry.action == FailAction::Off {
        return None;
    }
    if entry.skip > 0 {
        entry.skip -= 1;
        return None;
    }
    if let Some(remaining) = &mut entry.remaining {
        if *remaining == 0 {
            return None;
        }
        *remaining -= 1;
    }
    entry.hits += 1;
    Some(entry.action.clone())
}

/// Carry out a fired action: sleep, panic, or hand back the fault.
fn act(name: &str, action: FailAction) -> Option<Fault> {
    match action {
        FailAction::Off => None,
        FailAction::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        FailAction::Panic(msg) => match msg {
            Some(m) => panic!("failpoint {name}: {m}"),
            None => panic!("failpoint {name} fired (panic)"),
        },
        FailAction::ReturnErr(msg) => Some(Fault::Error(
            msg.unwrap_or_else(|| format!("failpoint {name} fired")),
        )),
        FailAction::ShortRead(n) => Some(Fault::ShortRead(n)),
    }
}

/// Arm `name` to fire `action` on every visit until [`disarm`]/[`reset`].
pub fn arm(name: &str, action: FailAction) {
    arm_entry(name, action, None, 0);
}

/// Arm `name` with a trigger budget: fires on the first `times` visits,
/// then goes quiet (hits keep counting the fired visits only).
pub fn arm_times(name: &str, times: u64, action: FailAction) {
    arm_entry(name, action, Some(times), 0);
}

/// Arm `name` to let its first `skip` visits pass, then fire once: a
/// fault that lands part-way through a loop of visits.
pub fn arm_after(name: &str, skip: u64, action: FailAction) {
    arm_entry(name, action, Some(1), skip);
}

fn arm_entry(name: &str, action: FailAction, remaining: Option<u64>, skip: u64) {
    let mut reg = REGISTRY.lock();
    let hits = reg.get(name).map_or(0, |e| e.hits);
    reg.insert(
        name.to_string(),
        Entry {
            action,
            remaining,
            skip,
            hits,
        },
    );
    drop(reg);
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Quiet one failpoint, preserving its hit counter.
pub fn disarm(name: &str) {
    let mut reg = REGISTRY.lock();
    if let Some(entry) = reg.get_mut(name) {
        entry.action = FailAction::Off;
        entry.remaining = None;
    }
}

/// Clear every failpoint and return the hot path to its one-atomic-load
/// disabled state.
pub fn reset() {
    let mut reg = REGISTRY.lock();
    reg.clear();
    ACTIVE.store(false, Ordering::Relaxed);
}

/// How many times `name` has fired (0 if never armed). Survives
/// [`disarm`] and exhaustion, not [`reset`].
pub fn hits(name: &str) -> u64 {
    REGISTRY.lock().get(name).map_or(0, |e| e.hits)
}

/// Whether anything has been armed since the last [`reset`].
pub fn any_armed() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Parse and arm a `name=action;name=action` spec (the
/// `FLOWCUBE_FAILPOINTS` grammar). Returns how many points were armed.
pub fn apply_spec(spec: &str) -> Result<usize, String> {
    let mut armed = 0;
    for item in spec
        .split([';', ','])
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        let (name, action_spec) = item
            .split_once('=')
            .ok_or_else(|| format!("failpoint spec {item:?}: expected name=action"))?;
        let (times, action) = parse_action(action_spec.trim())?;
        match times {
            Some(n) => arm_times(name.trim(), n, action),
            None => arm(name.trim(), action),
        }
        armed += 1;
    }
    Ok(armed)
}

/// Parse `[N*]action` into an optional trigger budget and the action.
fn parse_action(spec: &str) -> Result<(Option<u64>, FailAction), String> {
    let (times, spec) = match spec.split_once('*') {
        Some((n, rest)) => {
            let n: u64 = n
                .trim()
                .parse()
                .map_err(|_| format!("failpoint trigger count {n:?} is not a number"))?;
            (Some(n), rest.trim())
        }
        None => (None, spec),
    };
    let (verb, arg) = match spec.split_once('(') {
        Some((v, rest)) => {
            let arg = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("failpoint action {spec:?}: missing ')'"))?;
            (v.trim(), Some(arg.trim()))
        }
        None => (spec.trim(), None),
    };
    let action = match verb {
        "off" => FailAction::Off,
        "return" => FailAction::ReturnErr(arg.map(str::to_string)),
        "panic" => FailAction::Panic(arg.map(str::to_string)),
        "delay" => {
            let ms: u64 = arg
                .ok_or_else(|| "delay needs a millisecond argument: delay(ms)".to_string())?
                .parse()
                .map_err(|_| format!("delay argument {arg:?} is not a number"))?;
            FailAction::Delay(Duration::from_millis(ms))
        }
        "short-read" => {
            let n: usize = arg
                .ok_or_else(|| "short-read needs a byte argument: short-read(n)".to_string())?
                .parse()
                .map_err(|_| format!("short-read argument {arg:?} is not a number"))?;
            FailAction::ShortRead(n)
        }
        other => return Err(format!("unknown failpoint action {other:?}")),
    };
    Ok((times, action))
}

/// Arm failpoints from `FLOWCUBE_FAILPOINTS` if set. Called once at
/// process entry points (the CLI's `main`); libraries never read the
/// environment themselves, so the disabled hot path stays one atomic
/// load. Returns the number of points armed; a malformed spec is
/// reported on stderr and arms nothing further.
pub fn init_from_env() -> usize {
    match std::env::var(FAILPOINTS_ENV) {
        Ok(spec) => match apply_spec(&spec) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("warning: {FAILPOINTS_ENV}: {e}");
                0
            }
        },
        Err(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests must not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_clean_registry(f: impl FnOnce()) {
        let _guard = TEST_LOCK.lock();
        reset();
        f();
        reset();
    }

    #[test]
    fn disabled_points_are_quiet() {
        with_clean_registry(|| {
            assert!(!any_armed());
            assert_eq!(fail_point("never.armed"), None);
            fail_point_unit("never.armed");
            assert_eq!(hits("never.armed"), 0);
        });
    }

    #[test]
    fn return_action_surfaces_fault_and_counts() {
        with_clean_registry(|| {
            arm(
                "io.read",
                FailAction::ReturnErr(Some("disk on fire".into())),
            );
            assert_eq!(
                fail_point("io.read"),
                Some(Fault::Error("disk on fire".into()))
            );
            assert_eq!(
                fail_point("io.read"),
                Some(Fault::Error("disk on fire".into()))
            );
            assert_eq!(hits("io.read"), 2);
            // Other names stay quiet even while the registry is active.
            assert_eq!(fail_point("io.write"), None);
        });
    }

    #[test]
    fn trigger_budget_exhausts_then_goes_quiet() {
        with_clean_registry(|| {
            arm_times("flaky", 2, FailAction::ReturnErr(None));
            assert!(fail_point("flaky").is_some());
            assert!(fail_point("flaky").is_some());
            assert!(fail_point("flaky").is_none());
            assert_eq!(hits("flaky"), 2, "exhausted visits do not count as hits");
        });
    }

    #[test]
    fn arm_after_passes_the_first_visits_then_fires_once() {
        with_clean_registry(|| {
            arm_after("late", 2, FailAction::ReturnErr(None));
            assert!(fail_point("late").is_none());
            assert!(fail_point("late").is_none());
            assert!(fail_point("late").is_some());
            assert!(fail_point("late").is_none());
            assert_eq!(hits("late"), 1);
        });
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        with_clean_registry(|| {
            arm_times("boom", 1, FailAction::Panic(None));
            let err = std::panic::catch_unwind(|| fail_point("boom")).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("boom"), "panic message names the point: {msg}");
            // Budget spent inside the caught panic: the point is quiet now.
            assert_eq!(fail_point("boom"), None);
        });
    }

    #[test]
    fn unit_sites_escalate_return_to_panic() {
        with_clean_registry(|| {
            arm_times(
                "unit.site",
                1,
                FailAction::ReturnErr(Some("no channel".into())),
            );
            let err = std::panic::catch_unwind(|| fail_point_unit("unit.site")).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("no channel"), "got {msg}");
        });
    }

    #[test]
    fn delay_sleeps_then_continues() {
        with_clean_registry(|| {
            arm("slow", FailAction::Delay(Duration::from_millis(15)));
            let start = std::time::Instant::now();
            assert_eq!(fail_point("slow"), None);
            assert!(start.elapsed() >= Duration::from_millis(15));
        });
    }

    #[test]
    fn deferred_evaluation_hands_the_delay_back_without_sleeping() {
        with_clean_registry(|| {
            assert_eq!(fail_point_deferred("timer"), None, "nothing armed");
            arm_times("timer", 1, FailAction::Delay(Duration::from_secs(30)));
            let start = std::time::Instant::now();
            assert_eq!(
                fail_point_deferred("timer"),
                Some(Deferred::Delay(Duration::from_secs(30)))
            );
            assert!(start.elapsed() < Duration::from_secs(5), "it did not sleep");
            assert_eq!(fail_point_deferred("timer"), None, "budget spent");
            assert_eq!(hits("timer"), 1);
            arm("torn", FailAction::ShortRead(3));
            assert_eq!(
                fail_point_deferred("torn"),
                Some(Deferred::Fault(Fault::ShortRead(3)))
            );
        });
    }

    #[test]
    fn disarm_quiets_but_keeps_hits() {
        with_clean_registry(|| {
            arm("p", FailAction::ShortRead(7));
            assert_eq!(fail_point("p"), Some(Fault::ShortRead(7)));
            disarm("p");
            assert_eq!(fail_point("p"), None);
            assert_eq!(hits("p"), 1);
        });
    }

    #[test]
    fn spec_grammar_round_trips() {
        with_clean_registry(|| {
            let armed =
                apply_spec("a=return; b = 2*panic(oops) ; c=delay(5), d=short-read(16); e=off")
                    .expect("valid spec");
            assert_eq!(armed, 5);
            assert_eq!(
                fail_point("a"),
                Some(Fault::Error("failpoint a fired".into()))
            );
            assert_eq!(fail_point("d"), Some(Fault::ShortRead(16)));
            assert_eq!(fail_point("e"), None, "off is armed-but-quiet");
            let reg = REGISTRY.lock();
            let b = reg.get("b").expect("b armed");
            assert_eq!(b.action, FailAction::Panic(Some("oops".into())));
            assert_eq!(b.remaining, Some(2));
        });
    }

    #[test]
    fn spec_errors_are_typed_messages() {
        with_clean_registry(|| {
            assert!(apply_spec("no-equals").is_err());
            assert!(apply_spec("a=explode").is_err());
            assert!(apply_spec("a=delay").is_err());
            assert!(apply_spec("a=delay(xx)").is_err());
            assert!(apply_spec("a=x*panic").is_err());
            assert!(apply_spec("a=panic(unclosed").is_err());
            assert!(apply_spec("").is_ok_and(|n| n == 0));
        });
    }
}

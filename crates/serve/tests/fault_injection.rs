//! Fault-injection integration tests for the serving layer.
//!
//! These arm process-global failpoints (and in one case corrupt a
//! snapshot file on disk), so they are **gated**: they no-op unless
//! `FLOWCUBE_FAULT_TESTS=1` is set, and the CI job that sets it runs
//! them with `--test-threads=1` because the failpoint registry is
//! shared across the whole process.

use flowcube_fixtures::{cube_server, server, small_cube, stop, TempSnapshot};
use flowcube_serve::{write_snapshot, ServedCube, ServerConfig, Snapshot};
use flowcube_testkit::http::{get, get_ok, ok, raw_roundtrip, request, Persistent};
use flowcube_testkit::{temp_path, FailAction};
use std::time::{Duration, Instant};

/// Whether the fault tests run; when they do, every failpoint starts
/// disarmed.
fn gated() -> bool {
    let on = std::env::var("FLOWCUBE_FAULT_TESTS").as_deref() == Ok("1");
    match on {
        true => flowcube_testkit::reset(),
        false => eprintln!("skipped: set FLOWCUBE_FAULT_TESTS=1 to run fault-injection tests"),
    }
    on
}

/// The `summary` field of a `/stats` body: identifies *which* cube is
/// serving without the resident-cuboid counts that legitimately change
/// as lazy hydration proceeds.
fn stats_summary(addr: std::net::SocketAddr) -> String {
    let body = get_ok(addr, "/stats");
    let start = body.find("\"summary\":").expect("stats has summary");
    body[start..]
        .split(",\"build\"")
        .next()
        .unwrap_or(&body)
        .to_string()
}

/// A worker that panics mid-request is joined by the supervisor, counted
/// in `/healthz`, and replaced — the server keeps answering.
#[test]
fn worker_panic_is_counted_and_respawned() {
    if !gated() {
        return;
    }
    let cube = small_cube(11, 8).cube;
    let handle = cube_server(
        &cube,
        ServerConfig {
            workers: 2,
            degraded_after: 0,
            ..Default::default()
        },
    );
    let addr = handle.addr();
    get_ok(addr, "/healthz");

    // Exactly one request panics its worker; the client sees a hangup.
    flowcube_testkit::arm_times("serve.worker.request", 1, FailAction::Panic(None));
    let raw = raw_roundtrip(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(raw.is_empty(), "panicked worker must not answer: {raw:?}");

    // The supervisor notices within its poll interval and respawns.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let crashes = handle.state().health.worker_crashes();
        if crashes >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "crash never recorded");
        std::thread::sleep(Duration::from_millis(10));
    }
    let body = get_ok(addr, "/healthz");
    assert!(body.contains("\"worker_crashes\":1"), "got {body:?}");
    assert!(body.contains("\"ok\":true"), "got {body:?}");

    // With a threshold of 1 the same count reads as degraded.
    handle.state().health.set_degraded_after(1);
    let body = get_ok(addr, "/healthz");
    assert!(body.contains("\"status\":\"degraded\""), "got {body:?}");
    assert!(body.contains("\"ok\":false"), "got {body:?}");

    // And the pool still has live workers serving real queries.
    get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");

    flowcube_testkit::reset();
    handle.stop();
}

/// A worker that panics loses only the connection it was serving: a
/// client parked meanwhile keeps its connection, and its next request
/// is answered on it.
#[test]
fn worker_crash_loses_only_the_connection_it_was_serving() {
    if !gated() {
        return;
    }
    let cube = small_cube(11, 8).cube;
    let handle = cube_server(
        &cube,
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let addr = handle.addr();
    let mut parked = Persistent::new(addr);
    assert_eq!(parked.get("/healthz").expect("answered").0, 200);

    flowcube_testkit::arm_times("serve.worker.request", 1, FailAction::Panic(None));
    let raw = raw_roundtrip(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(raw.is_empty(), "panicked worker must not answer: {raw:?}");
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.state().health.worker_crashes() < 1 {
        assert!(Instant::now() < deadline, "crash never recorded");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.state().health.worker_crashes(), 1);

    let (status, _, body) = parked
        .get("/cell?cell=*,*&level=loc0/dur0")
        .expect("answered");
    assert_eq!(status, 200, "got {body:?}");
    assert_eq!(
        parked.connects, 1,
        "the parked connection survived the crash"
    );

    flowcube_testkit::reset();
    handle.stop();
}

/// A request that outlives `request_deadline` answers 503, and the
/// slowdown of one request does not poison the next.
#[test]
fn deadline_exceeded_returns_503() {
    if !gated() {
        return;
    }
    let cube = small_cube(12, 8).cube;
    let handle = cube_server(
        &cube,
        ServerConfig {
            workers: 2,
            request_deadline: Some(Duration::from_millis(40)),
            ..Default::default()
        },
    );
    let addr = handle.addr();

    flowcube_testkit::arm_times(
        "serve.request",
        1,
        FailAction::Delay(Duration::from_millis(120)),
    );
    let (status, _, body) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 503, "got {body:?}");
    assert!(body.contains("deadline"), "got {body:?}");

    get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");

    flowcube_testkit::reset();
    handle.stop();
}

/// `POST /admin/reload` swaps in the snapshot newly written at the same
/// path; a corrupt replacement is rejected and the old cube keeps
/// serving (rollback is the default, not an action).
#[test]
fn reload_swaps_and_corruption_rolls_back() {
    if !gated() {
        return;
    }
    let path = TempSnapshot::new("reload.snap");
    let v1 = small_cube(21, 8).cube;
    write_snapshot(&v1, &path).expect("write v1");
    let handle = server(
        ServedCube::from_snapshot(Snapshot::open(&path).expect("open")),
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let addr = handle.addr();
    let stats_v1 = stats_summary(addr);

    // Replace the file with a different cube and reload: stats change.
    let v2 = small_cube(22, 4).cube;
    write_snapshot(&v2, &path).expect("write v2");
    let body = ok(addr, "POST", "/admin/reload", "");
    assert!(body.contains("\"reloaded\":true"), "got {body:?}");
    let stats_v2 = stats_summary(addr);
    assert_ne!(stats_v1, stats_v2, "reload must swap the served cube");

    // Replace the file with a truncated copy — via rename, as an atomic
    // deploy would, so the live snapshot's open descriptor still sees
    // the old inode. The reload is rejected and every query keeps
    // answering from the v2 cube.
    let bytes = std::fs::read(&path).expect("read snapshot");
    let staged = temp_path("reload-staged.snap");
    std::fs::write(&staged, &bytes[..bytes.len() / 2]).expect("truncate");
    std::fs::rename(&staged, &path).expect("rename corrupt over live");
    let (status, _, body) = request(addr, "POST", "/admin/reload", &[], "");
    assert!((400..=599).contains(&status), "got {status} {body:?}");
    assert_eq!(
        stats_v2,
        stats_summary(addr),
        "failed reload must not change state"
    );
    get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");

    // Same rollback when the *open* itself fails via failpoint (the file
    // on disk is valid again): the live server never sees the fault.
    let staged = temp_path("reload-staged.snap");
    std::fs::write(&staged, &bytes).expect("restore");
    std::fs::rename(&staged, &path).expect("rename restore over live");
    flowcube_testkit::arm_times(
        "serve.snapshot.open",
        1,
        FailAction::ReturnErr(Some("injected open failure".into())),
    );
    let (status, _, body) = request(addr, "POST", "/admin/reload", &[], "");
    assert!((400..=599).contains(&status), "got {status} {body:?}");
    assert_eq!(stats_v2, stats_summary(addr));

    // With the failpoint drained, the very same request now succeeds.
    ok(addr, "POST", "/admin/reload", "");

    flowcube_testkit::reset();
    stop(handle);
}

/// A short read while decoding a section surfaces as a checksum error to
/// the requester of that cuboid — and only that request; the server and
/// other sections stay healthy.
#[test]
fn section_short_read_does_not_poison_server() {
    if !gated() {
        return;
    }
    let path = TempSnapshot::new("short-read.snap");
    let cube = small_cube(23, 8).cube;
    write_snapshot(&cube, &path).expect("write");
    let handle = server(
        ServedCube::from_snapshot(Snapshot::open(&path).expect("open")),
        ServerConfig {
            workers: 2,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let addr = handle.addr();

    flowcube_testkit::arm_times("serve.snapshot.section", 1, FailAction::ShortRead(4));
    let (status, _, body) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert!((400..=599).contains(&status), "got {status} {body:?}");

    // The failpoint is drained; the identical request succeeds now.
    get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");

    flowcube_testkit::reset();
    stop(handle);
}

//! Fault-injection integration tests for the serving layer.
//!
//! These arm process-global failpoints (and in one case corrupt a
//! snapshot file on disk), so they are **gated**: they no-op unless
//! `FLOWCUBE_FAULT_TESTS=1` is set, and the CI job that sets it runs
//! them with `--test-threads=1` because the failpoint registry is
//! shared across the whole process.

use flowcube_core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, GeneratorConfig};
use flowcube_hier::PathLatticeSpec;
use flowcube_serve::{
    serve_cube, write_snapshot, ServedCube, ServerConfig, ServerHandle, Snapshot,
};
use flowcube_testkit::http::{get, raw_roundtrip, request, Persistent};
use flowcube_testkit::{temp_path, FailAction};
use std::time::{Duration, Instant};

fn gated() -> bool {
    if std::env::var("FLOWCUBE_FAULT_TESTS").as_deref() == Ok("1") {
        true
    } else {
        eprintln!("skipped: set FLOWCUBE_FAULT_TESTS=1 to run fault-injection tests");
        false
    }
}

fn start(served: ServedCube, config: ServerConfig) -> ServerHandle {
    serve_cube(served, config).expect("server starts")
}

/// The `summary` field of a `/stats` body: identifies *which* cube is
/// serving without the resident-cuboid counts that legitimately change
/// as lazy hydration proceeds.
fn stats_summary(addr: std::net::SocketAddr) -> String {
    let (status, _, body) = get(addr, "/stats", &[]);
    assert_eq!(status, 200, "got {body:?}");
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
    flowcube_testkit::reset();
    let db = generate(&GeneratorConfig::small(120, 11)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let cube = FlowCube::build(
        &db,
        spec,
        FlowCubeParams::new(8).with_threads(1),
        ItemPlan::All,
    );
    let handle = start(
        ServedCube::from_cube(&cube).expect("encode image"),
        ServerConfig {
            workers: 2,
            degraded_after: 0,
            ..Default::default()
        },
    );
    let addr = handle.addr();
    let (status, _, _) = get(addr, "/healthz", &[]);
    assert_eq!(status, 200);

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
    let (status, _, body) = get(addr, "/healthz", &[]);
    assert_eq!(status, 200);
    assert!(body.contains("\"worker_crashes\":1"), "got {body:?}");
    assert!(body.contains("\"ok\":true"), "got {body:?}");

    // With a threshold of 1 the same count reads as degraded.
    handle.state().health.set_degraded_after(1);
    let (status, _, body) = get(addr, "/healthz", &[]);
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"degraded\""), "got {body:?}");
    assert!(body.contains("\"ok\":false"), "got {body:?}");

    // And the pool still has live workers serving real queries.
    let (status, _, body) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 200, "got {body:?}");

    flowcube_testkit::reset();
    handle.shutdown();
    handle.join();
}

/// A worker that panics loses only the connection it was serving: a
/// client parked meanwhile keeps its connection, and its next request
/// is answered on it.
#[test]
fn worker_crash_loses_only_the_connection_it_was_serving() {
    if !gated() {
        return;
    }
    flowcube_testkit::reset();
    let db = generate(&GeneratorConfig::small(120, 11)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let cube = FlowCube::build(
        &db,
        spec,
        FlowCubeParams::new(8).with_threads(1),
        ItemPlan::All,
    );
    let handle = start(
        ServedCube::from_cube(&cube).expect("encode image"),
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
    handle.shutdown();
    handle.join();
}

/// A request that outlives `request_deadline` answers 503, and the
/// slowdown of one request does not poison the next.
#[test]
fn deadline_exceeded_returns_503() {
    if !gated() {
        return;
    }
    flowcube_testkit::reset();
    let db = generate(&GeneratorConfig::small(120, 12)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let cube = FlowCube::build(
        &db,
        spec,
        FlowCubeParams::new(8).with_threads(1),
        ItemPlan::All,
    );
    let handle = start(
        ServedCube::from_cube(&cube).expect("encode image"),
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

    let (status, _, _) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 200);

    flowcube_testkit::reset();
    handle.shutdown();
    handle.join();
}

/// `POST /admin/reload` swaps in the snapshot newly written at the same
/// path; a corrupt replacement is rejected and the old cube keeps
/// serving (rollback is the default, not an action).
#[test]
fn reload_swaps_and_corruption_rolls_back() {
    if !gated() {
        return;
    }
    flowcube_testkit::reset();
    let path = temp_path("reload.snap");
    let db = generate(&GeneratorConfig::small(120, 21)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let v1 = FlowCube::build(
        &db,
        spec,
        FlowCubeParams::new(8).with_threads(1),
        ItemPlan::All,
    );
    write_snapshot(&v1, &path).expect("write v1");
    let handle = start(
        ServedCube::from_snapshot(Snapshot::open(&path).expect("open")),
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let addr = handle.addr();
    let stats_v1 = stats_summary(addr);

    // Replace the file with a different cube and reload: stats change.
    let db = generate(&GeneratorConfig::small(120, 22)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let v2 = FlowCube::build(
        &db,
        spec,
        FlowCubeParams::new(4).with_threads(1),
        ItemPlan::All,
    );
    write_snapshot(&v2, &path).expect("write v2");
    let (status, _, body) = request(addr, "POST", "/admin/reload", &[], "");
    assert_eq!(status, 200, "got {body:?}");
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
    let (status, _, _) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 200);

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
    let (status, _, body) = request(addr, "POST", "/admin/reload", &[], "");
    assert_eq!(status, 200, "got {body:?}");

    flowcube_testkit::reset();
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_file(&path);
}

/// A short read while decoding a section surfaces as a checksum error to
/// the requester of that cuboid — and only that request; the server and
/// other sections stay healthy.
#[test]
fn section_short_read_does_not_poison_server() {
    if !gated() {
        return;
    }
    flowcube_testkit::reset();
    let path = temp_path("short-read.snap");
    let db = generate(&GeneratorConfig::small(120, 23)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let cube = FlowCube::build(
        &db,
        spec,
        FlowCubeParams::new(8).with_threads(1),
        ItemPlan::All,
    );
    write_snapshot(&cube, &path).expect("write");
    let handle = start(
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
    let (status, _, body) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 200, "got {body:?}");

    flowcube_testkit::reset();
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_file(&path);
}

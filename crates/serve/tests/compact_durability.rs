//! Durability tests for delta-sidecar compaction (DESIGN.md §13).
//!
//! The marker-file protocol claims a crash at *any* point of a
//! compaction loses no ingested path: either the old snapshot + full
//! sidecar pair survives untouched, or the new snapshot is live and
//! recovery finishes the sidecar trim. These tests drive both crash
//! windows with the `serve.compact.{pre,post}_rename` failpoints and
//! restart-from-disk after each, plus the happy paths over HTTP
//! (`POST /admin/compact`) and the size-triggered automatic fold. A
//! restart is what the server runs — [`ServedCube::open`] — and cubes
//! are compared by what they answer for every cell of every cuboid.
//!
//! The failpoint registry is process-global, so the tests that arm it
//! serialize on a mutex instead of relying on `--test-threads=1`.

use flowcube_core::{CubeDelta, FlowCube};
use flowcube_fixtures::{
    ingest, serial, served_file, server, stop, Lattice, Scenario, TempSnapshot,
};
use flowcube_hier::ItemLattice;
use flowcube_pathdb::PathDatabase;
use flowcube_serve::{
    append_delta, compact, deltalog_path, read_deltas, write_snapshot, Recovery, ServedCube,
    ServerConfig, ServerHandle, Snapshot,
};
use flowcube_testkit::http::{ok, request};
use flowcube_testkit::FailAction;
use std::net::SocketAddr;
use std::sync::Mutex;

/// Serializes every test that compacts: the failpoint registry is shared
/// across the threads of this test binary, so a crash armed by one test
/// would otherwise fire inside another's fold.
static FAILPOINTS: Mutex<()> = Mutex::new(());

/// A stream of 80 base paths and ten-path batches, cubed at the leaf
/// path level (`l0`) and at location groups (`l1`), exceptions off.
fn stream(seed: u64, min_support: u64) -> Scenario {
    Scenario {
        lattice: Lattice::leaf_and_group(),
        exceptions: false,
        ..Scenario::small(seed, min_support)
    }
}

/// A snapshot built over a base batch, and one delta per later batch.
/// The snapshot and every compaction artifact around it are removed
/// when the fixture drops.
struct Fixture {
    cube: FlowCube,
    deltas: Vec<CubeDelta>,
    path: TempSnapshot,
}

impl Fixture {
    fn new(name: &str, stream: &Scenario, base: &PathDatabase, batches: &[PathDatabase]) -> Self {
        let cube = stream.cube_of(base);
        let deltas = batches.iter().map(|b| stream.delta(b)).collect();
        let path = TempSnapshot::new(name);
        write_snapshot(&cube, &path).unwrap();
        Fixture { cube, deltas, path }
    }

    fn generated(name: &str, seed: u64, batches: usize, min_support: u64) -> Self {
        let stream = stream(seed, min_support);
        let (base, batches) = stream.base_and_batches(80, batches);
        Self::new(name, &stream, &base, &batches)
    }

    fn serve(&self, config: ServerConfig) -> ServerHandle {
        let served = ServedCube::from_snapshot(Snapshot::open(&self.path).unwrap());
        server(served, config)
    }

    fn append_all(&self) {
        for delta in &self.deltas {
            append_delta(&deltalog_path(&self.path), delta).unwrap();
        }
    }

    fn sidecar_deltas(&self) -> usize {
        read_deltas(&deltalog_path(&self.path)).unwrap().len()
    }

    /// What a restart answers: the server's one open — recovery,
    /// snapshot, sidecar replay — then every cell of every cuboid.
    fn reconstruct(&self) -> Vec<String> {
        let (served, _) = ServedCube::open(&self.path).expect("snapshot and sidecar open");
        answers(served)
    }

    /// A restart answers what the base cube with every delta applied
    /// answers — the whole stream, exactly, at δ = 1. Once the sidecar is
    /// empty the snapshot alone is that cube: it must hold the reference
    /// entry for entry — supports, every node's counts and duration
    /// distributions, exceptions — and count its cells.
    fn assert_restart_is_reference(&self) {
        let mut reference = self.cube.clone();
        for delta in &self.deltas {
            reference.apply_delta(delta).unwrap();
        }
        let (_snapshot, served) = served_file(&reference);
        assert_eq!(self.reconstruct(), answers(served));
        if self.sidecar_deltas() > 0 {
            return;
        }
        let snapshot = Snapshot::open(&self.path).unwrap();
        let compacted = ServedCube::from_snapshot(snapshot).folded_cube().unwrap();
        compacted
            .ensure_same(&reference)
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(
            compacted.stats().cells_materialized,
            reference.stats().cells_materialized
        );
    }
}

/// Every cell of every cuboid as the server at `addr` answers it: one
/// `/dice` per (item level, path level) listing the cuboid's cells with
/// support, node and exception counts, then `/paths/topk` of each cell.
fn answers_at(addr: SocketAddr, shell: &FlowCube) -> Vec<String> {
    let schema = shell.schema();
    let lattice = ItemLattice::new(schema.dims().iter().map(|h| h.max_level()).collect());
    let get = |target: String| {
        let body = ok(addr, "GET", &target, "");
        format!("{target} → {body}")
    };
    let mut out = Vec::new();
    for level in shell.spec().levels() {
        for item_level in lattice.iter_top_down() {
            let at: Vec<String> = item_level.0.iter().map(u8::to_string).collect();
            let dice = get(format!("/dice?at={}&level={}", at.join(","), level.name));
            let body = serde_json::parse_value_str(dice.split_once(" → ").unwrap().1).unwrap();
            for cell in body.get("cells").and_then(|c| c.as_array()).unwrap() {
                let key = cell.get("cell").and_then(|c| c.as_str()).unwrap();
                let key = key.trim_matches(['(', ')']).replace(", ", ",");
                out.push(get(format!(
                    "/paths/topk?cell={key}&level={}&k=1000",
                    level.name
                )));
            }
            out.push(dice);
        }
    }
    out
}

/// [`answers_at`] of a cube served on its own server.
fn answers(served: ServedCube) -> Vec<String> {
    let shell = served.shell().clone();
    let handle = server(served, ServerConfig::default());
    let out = answers_at(handle.addr(), &shell);
    stop(handle);
    out
}

/// `POST /admin/compact` folds the sidecar into the snapshot while the
/// server keeps answering, and a restart from the compacted snapshot
/// needs no replay to give the same answers — at δ = 1, where the fold
/// is exact, and at δ = 2, where it must cut once, as the overlay does.
#[test]
fn admin_compact_folds_sidecar_over_http() {
    let _guard = serial(&FAILPOINTS);
    for min_support in [1, 2] {
        let f = Fixture::generated(&format!("http-{min_support}.snap"), 101, 2, min_support);
        let handle = f.serve(ServerConfig::default());
        let addr = handle.addr();
        for delta in &f.deltas {
            ingest(addr, delta);
        }
        let before = answers_at(addr, &f.cube);
        assert_eq!(f.sidecar_deltas(), 2);

        let resp = ok(addr, "POST", "/admin/compact", "");
        assert!(resp.contains("\"compacted\":true"), "got {resp:?}");
        assert!(resp.contains("\"folded_deltas\":2"), "got {resp:?}");
        assert!(resp.contains("\"remaining_deltas\":0"), "got {resp:?}");

        // The sidecar is now empty, and answers did not change.
        assert_eq!(f.sidecar_deltas(), 0);
        assert_eq!(answers_at(addr, &f.cube), before, "δ = {min_support}");
        let (_, _, stats) = request(addr, "GET", "/stats", &[], "");
        assert!(stats.contains("\"pending_deltas\":0"), "got {stats:?}");

        // A second compact is a no-op, not an error.
        let resp = ok(addr, "POST", "/admin/compact", "");
        assert!(resp.contains("\"compacted\":false"), "got {resp:?}");
        stop(handle);

        // Restart: the snapshot alone now carries the folded deltas.
        assert_eq!(f.reconstruct(), before, "δ = {min_support}");
        if min_support == 1 {
            f.assert_restart_is_reference();
        }
    }
}

/// At δ = 2, a cell the base lacks and each of two deltas brings one
/// path to is served with support 2 — the overlay cuts once, over the
/// summed supports — and compaction writes it, so it still answers
/// after `/admin/compact` and after a restart. Every cell of every path
/// level answers the same at all three points.
#[test]
fn compaction_keeps_a_cell_only_the_deltas_lift_over_min_support() {
    let _guard = serial(&FAILPOINTS);
    let stream = stream(131, 2);
    let (db, _) = stream.base_and_batches(80, 4);
    // A dimension-0 leaf value carried by at least two paths: the base
    // gets none of them, each delta exactly one.
    let records = db.records();
    let v = (records.iter().map(|r| r.dims[0]))
        .find(|&v| records.iter().filter(|r| r.dims[0] == v).count() >= 2)
        .expect("some leaf value repeats");
    let (late, early): (Vec<_>, Vec<_>) = records.iter().cloned().partition(|r| r.dims[0] == v);
    let part = |records: Vec<_>| PathDatabase::from_records(db.schema().clone(), records).unwrap();
    let batches = [part(vec![late[0].clone()]), part(vec![late[1].clone()])];
    let f = Fixture::new("lifted.snap", &stream, &part(early), &batches);

    let handle = f.serve(ServerConfig::default());
    let addr = handle.addr();
    for delta in &f.deltas {
        ingest(addr, delta);
    }
    let cell = format!("/cell?cell={},*&level=l0", db.schema().dim(0).name_of(v));
    let (_, _, lifted) = request(addr, "GET", &cell, &[], "");
    assert!(lifted.contains("\"exact\":true"), "got {lifted:?}");
    assert!(lifted.contains("\"support\":2"), "got {lifted:?}");
    let before = answers_at(addr, &f.cube);

    ok(addr, "POST", "/admin/compact", "");
    assert_eq!(request(addr, "GET", &cell, &[], "").2, lifted);
    assert_eq!(answers_at(addr, &f.cube), before, "after /admin/compact");
    stop(handle);
    assert_eq!(f.reconstruct(), before, "after a restart");
}

/// A compaction that fails between its rename and its trim leaves the
/// folded snapshot next to an untrimmed sidecar. The server keeps
/// serving what it served, an ingest meanwhile does not reopen the
/// pair, and `/admin/reload` resolves the marker before it opens: the
/// apex counts every acknowledged path exactly once.
#[test]
fn reload_after_a_failed_compaction_counts_each_path_once() {
    let _guard = serial(&FAILPOINTS);
    flowcube_testkit::reset();
    let f = Fixture::generated("failed-fold.snap", 127, 3, 1);
    let handle = f.serve(ServerConfig::default());
    let addr = handle.addr();
    ingest(addr, &f.deltas[0]);
    ingest(addr, &f.deltas[1]);

    flowcube_testkit::arm_times(
        "serve.compact.post_rename",
        1,
        FailAction::ReturnErr(Some("fold failed after rename".into())),
    );
    let (status, _, resp) = request(addr, "POST", "/admin/compact", &[], "");
    flowcube_testkit::reset();
    assert_ne!(status, 200, "got {resp:?}");

    let apex_support = || {
        let body = ok(addr, "GET", "/cell?cell=*,*&level=l0", "");
        let body = serde_json::parse_value_str(&body).unwrap();
        body.get("support").and_then(|s| s.as_u64()).unwrap()
    };
    // The base's 80 paths plus the first `n` deltas'.
    let acked = |n: usize| 80 + f.deltas[..n].iter().map(|d| d.paths).sum::<u64>();
    assert_eq!(
        apex_support(),
        acked(2),
        "the failed fold changed nothing served"
    );
    ingest(addr, &f.deltas[2]);
    assert_eq!(apex_support(), acked(3), "ingest after the failed fold");

    let resp = ok(addr, "POST", "/admin/reload", "");
    assert!(resp.contains("\"deltas\":1"), "got {resp:?}");
    assert_eq!(apex_support(), acked(3), "reload after the failed fold");
    stop(handle);
}

/// `--compact-after-bytes`: once the sidecar outgrows the threshold, the
/// next accepted ingest folds it automatically.
#[test]
fn auto_compaction_triggers_on_sidecar_size() {
    let _guard = serial(&FAILPOINTS);
    let f = Fixture::generated("auto.snap", 103, 1, 1);
    let handle = f.serve(ServerConfig {
        compact_after_bytes: Some(1), // any non-empty sidecar folds
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    ingest(addr, &f.deltas[0]);

    // The ingest response reports the pre-compaction overlay; the
    // sidecar itself was folded right after.
    assert_eq!(
        f.sidecar_deltas(),
        0,
        "size-triggered auto-compaction must fold the sidecar"
    );
    let (_, _, stats) = request(addr, "GET", "/stats", &[], "");
    assert!(stats.contains("\"pending_deltas\":0"), "got {stats:?}");
    stop(handle);
    f.assert_restart_is_reference();
}

/// Crash window 1: the process dies after writing the marker but before
/// the snapshot rename. The old snapshot + full sidecar are untouched;
/// recovery discards the half-done job and a restart replays everything.
#[test]
fn crash_before_rename_loses_nothing() {
    let _guard = serial(&FAILPOINTS);
    flowcube_testkit::reset();
    let f = Fixture::generated("pre-rename.snap", 107, 3, 1);
    let snapshot_bytes_before = std::fs::read(&f.path).unwrap();
    f.append_all();

    flowcube_testkit::arm_times(
        "serve.compact.pre_rename",
        1,
        FailAction::ReturnErr(Some("crash before rename".into())),
    );
    let err = compact(&f.path).expect_err("injected crash must surface");
    assert!(err.to_string().contains("crash before rename"), "{err}");
    assert_eq!(flowcube_testkit::hits("serve.compact.pre_rename"), 1);
    flowcube_testkit::reset();

    // The live pair is untouched; the marker and temp snapshot linger.
    assert_eq!(std::fs::read(&f.path).unwrap(), snapshot_bytes_before);
    assert_eq!(f.sidecar_deltas(), 3);

    // Restart: recovery discards the attempt, replay reconstructs all.
    assert_eq!(
        flowcube_serve::recover(&f.path).unwrap(),
        Recovery::Discarded
    );
    assert_eq!(
        flowcube_serve::recover(&f.path).unwrap(),
        Recovery::Clean,
        "recovery is idempotent"
    );
    f.assert_restart_is_reference();

    // And a re-run of the compaction (no crash this time) completes.
    assert_eq!(compact(&f.path).unwrap().folded_deltas, 3);
    assert_eq!(f.sidecar_deltas(), 0);
    f.assert_restart_is_reference();
}

/// Crash window 2: the process dies after the snapshot rename but before
/// the sidecar trim. The new snapshot is live; recovery finishes the
/// trim and a restart does not double-apply the folded deltas.
#[test]
fn crash_after_rename_finishes_trim() {
    let _guard = serial(&FAILPOINTS);
    flowcube_testkit::reset();
    let f = Fixture::generated("post-rename.snap", 109, 2, 1);
    f.append_all();

    flowcube_testkit::arm_times(
        "serve.compact.post_rename",
        1,
        FailAction::ReturnErr(Some("crash after rename".into())),
    );
    let err = compact(&f.path).expect_err("injected crash must surface");
    assert!(err.to_string().contains("crash after rename"), "{err}");
    flowcube_testkit::reset();

    // The new snapshot is live but the sidecar still holds the folded
    // records — exactly the torn state recovery must finish.
    assert_eq!(f.sidecar_deltas(), 2);
    assert_eq!(
        flowcube_serve::recover(&f.path).unwrap(),
        Recovery::FinishedTrim
    );
    assert_eq!(
        f.sidecar_deltas(),
        0,
        "recovery must trim the folded prefix"
    );
    assert_eq!(
        flowcube_serve::recover(&f.path).unwrap(),
        Recovery::Clean,
        "recovery is idempotent"
    );
    f.assert_restart_is_reference();
}

/// A delta appended after the fold boundary survives both the trim and
/// a crash-recovery trim: compaction only ever cuts the exact prefix it
/// folded.
#[test]
fn tail_appended_mid_compaction_survives() {
    let _guard = serial(&FAILPOINTS);
    let f = Fixture::generated("tail.snap", 113, 3, 1);
    let sidecar = deltalog_path(&f.path);
    append_delta(&sidecar, &f.deltas[0]).unwrap();
    append_delta(&sidecar, &f.deltas[1]).unwrap();

    // Fold the first two; a third lands before the next compaction.
    assert_eq!(compact(&f.path).unwrap().folded_deltas, 2);
    append_delta(&sidecar, &f.deltas[2]).unwrap();
    assert_eq!(f.sidecar_deltas(), 1);
    f.assert_restart_is_reference();

    let report = compact(&f.path).unwrap();
    assert_eq!(report.folded_deltas, 1);
    assert_eq!(report.remaining_deltas, 0);
    f.assert_restart_is_reference();
}

//! Durability tests for delta-sidecar compaction (DESIGN.md §13).
//!
//! The marker-file protocol claims a crash at *any* point of a
//! compaction loses no ingested path: either the old snapshot + full
//! sidecar pair survives untouched, or the new snapshot is live and
//! recovery finishes the sidecar trim. These tests drive both crash
//! windows with the `serve.compact.{pre,post}_rename` failpoints and
//! restart-from-disk after each, plus the happy paths over HTTP
//! (`POST /admin/compact`) and the size-triggered automatic fold.
//!
//! The failpoint registry is process-global, so the tests that arm it
//! serialize on a mutex instead of relying on `--test-threads=1`.

use flowcube_core::{CubeDelta, FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, DimShape, GeneratorConfig};
use flowcube_hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube_pathdb::PathDatabase;
use flowcube_serve::{
    append_delta, compact, deltalog_path, read_deltas, serve_cube, write_snapshot, Recovery,
    ServedCube, ServerConfig, ServerHandle, Snapshot,
};
use flowcube_testkit::http::request;
use flowcube_testkit::FailAction;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Serializes every test that compacts: the failpoint registry is shared
/// across the threads of this test binary, so a crash armed by one test
/// would otherwise fire inside another's fold.
static FAILPOINTS: Mutex<()> = Mutex::new(());

fn lock_failpoints() -> MutexGuard<'static, ()> {
    FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner())
}

fn base_and_batches(seed: u64, batches: usize) -> (PathDatabase, Vec<PathDatabase>) {
    let config = GeneratorConfig {
        num_paths: 80 + batches * 10,
        dims: vec![DimShape::new(vec![2, 3], 0.7); 2],
        num_sequences: 5,
        seed,
        ..Default::default()
    };
    let db = generate(&config).db;
    let records = db.records();
    let base = PathDatabase::from_records(db.schema().clone(), records[..80].to_vec()).unwrap();
    let tail: Vec<PathDatabase> = records[80..]
        .chunks(10)
        .map(|c| PathDatabase::from_records(db.schema().clone(), c.to_vec()).unwrap())
        .collect();
    (base, tail)
}

fn spec_for(db: &PathDatabase) -> PathLatticeSpec {
    let loc = db.schema().locations();
    PathLatticeSpec::new(vec![PathLevel::new(
        "fine",
        LocationCut::uniform_level(loc, loc.max_level()),
        DurationLevel::Raw,
    )])
}

fn params() -> FlowCubeParams {
    FlowCubeParams::new(1).with_exceptions(false)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("flowcube-compact-{}-{name}", std::process::id()))
}

/// Remove the snapshot and every compaction artifact around it.
fn clean(path: &Path) {
    for suffix in ["", ".deltas", ".compact", ".compact-tmp", ".compact.tmp"] {
        let mut name = path.file_name().unwrap().to_os_string();
        name.push(suffix);
        let _ = std::fs::remove_file(path.with_file_name(name));
    }
}

/// Every cell of the cube as a sorted, canonical `(address, json)` list.
fn canonical_cells(cube: &FlowCube) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (ck, cuboid) in cube.cuboids() {
        for (cell, entry) in cuboid.iter() {
            out.push((
                format!("{ck:?}/{cell:?}"),
                serde_json::to_string(entry).unwrap(),
            ));
        }
    }
    out.sort();
    out
}

/// What a restart reconstructs from disk: open the snapshot, load the
/// cube eagerly, replay whatever the sidecar still holds.
fn reconstruct(path: &Path) -> FlowCube {
    let snapshot = Snapshot::open(path).expect("snapshot opens after recovery");
    let mut cube = snapshot.load_cube().expect("snapshot loads");
    for delta in read_deltas(&deltalog_path(path)).expect("sidecar reads") {
        cube.apply_delta(&delta).expect("replay applies");
    }
    cube
}

fn start(served: ServedCube, config: ServerConfig) -> ServerHandle {
    serve_cube(served, config).expect("server starts")
}

/// `POST /admin/compact` folds the sidecar into the snapshot while the
/// server keeps answering, and a restart from the compacted snapshot
/// needs no replay to give the same answers.
#[test]
fn admin_compact_folds_sidecar_over_http() {
    let _guard = lock_failpoints();
    let (base, batches) = base_and_batches(101, 2);
    let spec = spec_for(&base);
    let cube = FlowCube::build(&base, spec.clone(), params(), ItemPlan::All);
    let path = tmp("http.snap");
    clean(&path);
    write_snapshot(&cube, &path).unwrap();

    let handle = start(
        ServedCube::from_snapshot(Snapshot::open(&path).unwrap()),
        ServerConfig::default(),
    );
    let addr = handle.addr();

    for batch in &batches {
        let delta = CubeDelta::compute(batch, &spec, &params(), &ItemPlan::All);
        let (status, _, resp) = request(
            addr,
            "POST",
            "/admin/ingest",
            &[],
            &serde_json::to_string(&delta).unwrap(),
        );
        assert_eq!(status, 200, "got {resp:?}");
    }
    let (status, _, cell_before) = request(addr, "GET", "/cell?cell=*,*&level=fine", &[], "");
    assert_eq!(status, 200);
    assert_eq!(read_deltas(&deltalog_path(&path)).unwrap().len(), 2);

    let (status, _, resp) = request(addr, "POST", "/admin/compact", &[], "");
    assert_eq!(status, 200, "got {resp:?}");
    assert!(resp.contains("\"compacted\":true"), "got {resp:?}");
    assert!(resp.contains("\"folded_deltas\":2"), "got {resp:?}");
    assert!(resp.contains("\"remaining_deltas\":0"), "got {resp:?}");

    // The sidecar is now empty, and answers did not change.
    assert_eq!(read_deltas(&deltalog_path(&path)).unwrap().len(), 0);
    let (status, _, cell_after) = request(addr, "GET", "/cell?cell=*,*&level=fine", &[], "");
    assert_eq!(status, 200);
    assert_eq!(
        cell_before, cell_after,
        "compaction must not change answers"
    );
    let (_, _, stats) = request(addr, "GET", "/stats", &[], "");
    assert!(stats.contains("\"pending_deltas\":0"), "got {stats:?}");

    // A second compact is a no-op, not an error.
    let (status, _, resp) = request(addr, "POST", "/admin/compact", &[], "");
    assert_eq!(status, 200);
    assert!(resp.contains("\"compacted\":false"), "got {resp:?}");

    handle.shutdown();
    handle.join();

    // Restart: the snapshot alone now carries the folded deltas.
    let mut reference = cube.clone();
    for batch in &batches {
        let delta = CubeDelta::compute(batch, &spec, &params(), &ItemPlan::All);
        reference.apply_delta(&delta).unwrap();
    }
    assert_eq!(
        canonical_cells(&reconstruct(&path)),
        canonical_cells(&reference)
    );
    clean(&path);
}

/// `--compact-after-bytes`: once the sidecar outgrows the threshold, the
/// next accepted ingest folds it automatically.
#[test]
fn auto_compaction_triggers_on_sidecar_size() {
    let _guard = lock_failpoints();
    let (base, batches) = base_and_batches(103, 2);
    let spec = spec_for(&base);
    let cube = FlowCube::build(&base, spec.clone(), params(), ItemPlan::All);
    let path = tmp("auto.snap");
    clean(&path);
    write_snapshot(&cube, &path).unwrap();

    let handle = start(
        ServedCube::from_snapshot(Snapshot::open(&path).unwrap()),
        ServerConfig {
            compact_after_bytes: Some(1), // any non-empty sidecar folds
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let delta = CubeDelta::compute(&batches[0], &spec, &params(), &ItemPlan::All);
    let (status, _, resp) = request(
        addr,
        "POST",
        "/admin/ingest",
        &[],
        &serde_json::to_string(&delta).unwrap(),
    );
    assert_eq!(status, 200, "got {resp:?}");

    // The ingest response reports the pre-compaction overlay; the
    // sidecar itself was folded right after.
    assert_eq!(
        read_deltas(&deltalog_path(&path)).unwrap().len(),
        0,
        "size-triggered auto-compaction must fold the sidecar"
    );
    let (_, _, stats) = request(addr, "GET", "/stats", &[], "");
    assert!(stats.contains("\"pending_deltas\":0"), "got {stats:?}");
    let (status, _, _) = request(addr, "GET", "/cell?cell=*,*&level=fine", &[], "");
    assert_eq!(status, 200);

    handle.shutdown();
    handle.join();

    let mut reference = cube.clone();
    reference.apply_delta(&delta).unwrap();
    assert_eq!(
        canonical_cells(&reconstruct(&path)),
        canonical_cells(&reference)
    );
    clean(&path);
}

/// Crash window 1: the process dies after writing the marker but before
/// the snapshot rename. The old snapshot + full sidecar are untouched;
/// recovery discards the half-done job and a restart replays everything.
#[test]
fn crash_before_rename_loses_nothing() {
    let _guard = lock_failpoints();
    flowcube_testkit::reset();

    let (base, batches) = base_and_batches(107, 3);
    let spec = spec_for(&base);
    let cube = FlowCube::build(&base, spec.clone(), params(), ItemPlan::All);
    let path = tmp("pre-rename.snap");
    clean(&path);
    write_snapshot(&cube, &path).unwrap();
    let snapshot_bytes_before = std::fs::read(&path).unwrap();

    let mut reference = cube.clone();
    for batch in &batches {
        let delta = CubeDelta::compute(batch, &spec, &params(), &ItemPlan::All);
        append_delta(&deltalog_path(&path), &delta).unwrap();
        reference.apply_delta(&delta).unwrap();
    }

    flowcube_testkit::arm_times(
        "serve.compact.pre_rename",
        1,
        FailAction::ReturnErr(Some("crash before rename".into())),
    );
    let err = compact(&path).expect_err("injected crash must surface");
    assert!(err.to_string().contains("crash before rename"), "{err}");
    assert_eq!(flowcube_testkit::hits("serve.compact.pre_rename"), 1);
    flowcube_testkit::reset();

    // The live pair is untouched; the marker and temp snapshot linger.
    assert_eq!(std::fs::read(&path).unwrap(), snapshot_bytes_before);
    assert_eq!(read_deltas(&deltalog_path(&path)).unwrap().len(), 3);

    // Restart: recovery discards the attempt, replay reconstructs all.
    assert_eq!(flowcube_serve::recover(&path).unwrap(), Recovery::Discarded);
    assert_eq!(
        flowcube_serve::recover(&path).unwrap(),
        Recovery::Clean,
        "recovery is idempotent"
    );
    assert_eq!(
        canonical_cells(&reconstruct(&path)),
        canonical_cells(&reference)
    );

    // And a re-run of the compaction (no crash this time) completes.
    let report = compact(&path).unwrap();
    assert_eq!(report.folded_deltas, 3);
    assert_eq!(read_deltas(&deltalog_path(&path)).unwrap().len(), 0);
    assert_eq!(
        canonical_cells(&reconstruct(&path)),
        canonical_cells(&reference)
    );
    clean(&path);
}

/// Crash window 2: the process dies after the snapshot rename but before
/// the sidecar trim. The new snapshot is live; recovery finishes the
/// trim and a restart does not double-apply the folded deltas.
#[test]
fn crash_after_rename_finishes_trim() {
    let _guard = lock_failpoints();
    flowcube_testkit::reset();

    let (base, batches) = base_and_batches(109, 2);
    let spec = spec_for(&base);
    let cube = FlowCube::build(&base, spec.clone(), params(), ItemPlan::All);
    let path = tmp("post-rename.snap");
    clean(&path);
    write_snapshot(&cube, &path).unwrap();

    let mut reference = cube.clone();
    for batch in &batches {
        let delta = CubeDelta::compute(batch, &spec, &params(), &ItemPlan::All);
        append_delta(&deltalog_path(&path), &delta).unwrap();
        reference.apply_delta(&delta).unwrap();
    }

    flowcube_testkit::arm_times(
        "serve.compact.post_rename",
        1,
        FailAction::ReturnErr(Some("crash after rename".into())),
    );
    let err = compact(&path).expect_err("injected crash must surface");
    assert!(err.to_string().contains("crash after rename"), "{err}");
    flowcube_testkit::reset();

    // The new snapshot is live but the sidecar still holds the folded
    // records — exactly the torn state recovery must finish.
    assert_eq!(read_deltas(&deltalog_path(&path)).unwrap().len(), 2);
    assert_eq!(
        flowcube_serve::recover(&path).unwrap(),
        Recovery::FinishedTrim
    );
    assert_eq!(
        read_deltas(&deltalog_path(&path)).unwrap().len(),
        0,
        "recovery must trim the folded prefix"
    );
    assert_eq!(
        flowcube_serve::recover(&path).unwrap(),
        Recovery::Clean,
        "recovery is idempotent"
    );
    assert_eq!(
        canonical_cells(&reconstruct(&path)),
        canonical_cells(&reference)
    );
    clean(&path);
}

/// A delta appended after the fold boundary survives both the trim and
/// a crash-recovery trim: compaction only ever cuts the exact prefix it
/// folded.
#[test]
fn tail_appended_mid_compaction_survives() {
    let _guard = lock_failpoints();
    let (base, batches) = base_and_batches(113, 3);
    let spec = spec_for(&base);
    let cube = FlowCube::build(&base, spec.clone(), params(), ItemPlan::All);
    let path = tmp("tail.snap");
    clean(&path);
    write_snapshot(&cube, &path).unwrap();

    let deltas: Vec<CubeDelta> = batches
        .iter()
        .map(|b| CubeDelta::compute(b, &spec, &params(), &ItemPlan::All))
        .collect();
    append_delta(&deltalog_path(&path), &deltas[0]).unwrap();
    append_delta(&deltalog_path(&path), &deltas[1]).unwrap();

    // Fold the first two; a third lands before the next compaction.
    let report = compact(&path).unwrap();
    assert_eq!(report.folded_deltas, 2);
    append_delta(&deltalog_path(&path), &deltas[2]).unwrap();
    assert_eq!(read_deltas(&deltalog_path(&path)).unwrap().len(), 1);

    let mut reference = cube.clone();
    for delta in &deltas {
        reference.apply_delta(delta).unwrap();
    }
    assert_eq!(
        canonical_cells(&reconstruct(&path)),
        canonical_cells(&reference)
    );

    let report = compact(&path).unwrap();
    assert_eq!(report.folded_deltas, 1);
    assert_eq!(report.remaining_deltas, 0);
    assert_eq!(
        canonical_cells(&reconstruct(&path)),
        canonical_cells(&reference)
    );
    clean(&path);
}

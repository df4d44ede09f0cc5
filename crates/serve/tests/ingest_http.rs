//! End-to-end `POST /admin/ingest`: live delta ingestion over HTTP for
//! a snapshot file and for an in-memory image, with the availability
//! guarantee the design demands — the server keeps answering queries
//! while deltas land, and a restart from the same snapshot replays the
//! sidecar. Delta-patched cuboids are served from re-encoded sections:
//! names the snapshot never interned, and cuboids that fall below δ, are
//! covered here.

use flowcube_core::{CubeDelta, FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, GeneratorConfig};
use flowcube_hier::PathLatticeSpec;
use flowcube_pathdb::PathDatabase;
use flowcube_serve::{
    deltalog_path, read_deltas, serve_cube, write_snapshot, ServedCube, ServerConfig, ServerHandle,
    Snapshot,
};
use flowcube_testkit::http::{get, request};
use flowcube_testkit::temp_path;
use std::time::Duration;

/// A generated db split into a base (first 100 paths) and a stream tail
/// (the rest) that arrives later as micro-batch deltas.
fn base_and_batches(seed: u64, batches: usize) -> (PathDatabase, Vec<PathDatabase>) {
    let db = generate(&GeneratorConfig::small(100 + batches * 10, seed)).db;
    let records = db.records();
    let base = PathDatabase::from_records(db.schema().clone(), records[..100].to_vec()).unwrap();
    let tail: Vec<PathDatabase> = records[100..]
        .chunks(10)
        .map(|c| PathDatabase::from_records(db.schema().clone(), c.to_vec()).unwrap())
        .collect();
    (base, tail)
}

fn params() -> FlowCubeParams {
    FlowCubeParams::new(4).with_exceptions(false)
}

fn start(served: ServedCube) -> ServerHandle {
    serve_cube(
        served,
        ServerConfig {
            workers: 2,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ..Default::default()
        },
    )
    .expect("server starts")
}

/// In-memory image: the delta joins the overlay exactly as it would
/// over a file, minus the sidecar — queries answer before, after, and
/// with the merged counts; malformed and mismatched deltas are rejected
/// without hurting the server.
#[test]
fn in_memory_ingest_applies_and_rejects_bad_deltas() {
    let (base, batches) = base_and_batches(31, 2);
    let spec = PathLatticeSpec::paper(base.schema().locations(), 1);
    let cube = FlowCube::build(&base, spec.clone(), params(), ItemPlan::All);
    let handle = start(ServedCube::from_cube(&cube).expect("encode image"));
    let addr = handle.addr();

    let (status, _, stats_before) = get(addr, "/stats", &[]);
    assert_eq!(status, 200);
    assert!(stats_before.contains("\"pending_deltas\":0"));

    let delta = CubeDelta::compute(&batches[0], &spec, &params(), &ItemPlan::All);
    let body = serde_json::to_string(&delta).unwrap();
    let (status, _, resp) = request(addr, "POST", "/admin/ingest", &[], &body);
    assert_eq!(status, 200, "got {resp:?}");
    assert!(resp.contains("\"ingested\":true"), "got {resp:?}");
    assert!(resp.contains("\"mode\":\"in-memory\""), "got {resp:?}");
    assert!(resp.contains("\"paths\":10"), "got {resp:?}");
    assert!(resp.contains("\"pending_deltas\":1"), "got {resp:?}");

    // Queries still answer, with the merged counts.
    let (status, _, apex) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 200);
    assert!(apex.contains("\"support\":110"), "got {apex:?}");

    // The delta is pending in the overlay, like a sidecar delta — the
    // only difference from a file-backed cube is that it is not durable.
    let (status, _, stats_after) = get(addr, "/stats", &[]);
    assert_eq!(status, 200);
    assert!(
        stats_after.contains("\"snapshot_backed\":false"),
        "got {stats_after:?}"
    );
    assert!(
        stats_after.contains("\"pending_deltas\":1"),
        "got {stats_after:?}"
    );
    assert!(
        stats_after.contains("\"pending_delta_paths\":10"),
        "got {stats_after:?}"
    );

    // Malformed JSON → 400; a delta with a foreign fingerprint → 409.
    let (status, _, _) = request(addr, "POST", "/admin/ingest", &[], "{not json");
    assert_eq!(status, 400);
    let mut foreign = CubeDelta::compute(&batches[1], &spec, &params(), &ItemPlan::All);
    foreign.path_levels = vec!["coarse".into()];
    let body = serde_json::to_string(&foreign).unwrap();
    let (status, _, resp) = request(addr, "POST", "/admin/ingest", &[], &body);
    assert_eq!(status, 409, "got {resp:?}");

    // Neither rejection changed the served cube.
    let (status, _, stats_final) = get(addr, "/stats", &[]);
    assert_eq!(status, 200);
    assert_eq!(stats_after, stats_final);

    handle.shutdown();
    handle.join();
}

/// Snapshot backing: an accepted delta lands in the `<snapshot>.deltas`
/// sidecar, is overlaid lazily on queries, survives `POST /admin/reload`,
/// and is replayed by a fresh process opening the same snapshot. A
/// rejected delta leaves the sidecar untouched.
#[test]
fn snapshot_ingest_is_durable_across_reload_and_restart() {
    let (base, batches) = base_and_batches(47, 3);
    let spec = PathLatticeSpec::paper(base.schema().locations(), 1);
    let cube = FlowCube::build(&base, spec.clone(), params(), ItemPlan::All);
    let path = temp_path("durable.snap");
    let sidecar = deltalog_path(&path);
    let _ = std::fs::remove_file(&sidecar);
    write_snapshot(&cube, &path).expect("write snapshot");

    let handle = start(ServedCube::from_snapshot(Snapshot::open(&path).unwrap()));
    let addr = handle.addr();

    // Hydrate a cell from the snapshot, then ingest two deltas.
    let (status, _, cell_before) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 200);
    for (i, batch) in batches[..2].iter().enumerate() {
        let delta = CubeDelta::compute(batch, &spec, &params(), &ItemPlan::All);
        let body = serde_json::to_string(&delta).unwrap();
        let (status, _, resp) = request(addr, "POST", "/admin/ingest", &[], &body);
        assert_eq!(status, 200, "delta {i}: got {resp:?}");
        assert!(resp.contains("\"mode\":\"sidecar\""), "got {resp:?}");
        assert!(
            resp.contains(&format!("\"pending_deltas\":{}", i + 1)),
            "got {resp:?}"
        );
    }
    assert_eq!(
        read_deltas(&sidecar).unwrap().len(),
        2,
        "sidecar holds both"
    );

    // The apex cell now includes the deltas' paths: support grew.
    let (status, _, cell_after) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 200);
    assert_ne!(cell_before, cell_after, "overlay must change the apex cell");
    let (status, _, stats) = get(addr, "/stats", &[]);
    assert_eq!(status, 200);
    assert!(stats.contains("\"pending_deltas\":2"), "got {stats:?}");
    assert!(
        stats.contains("\"pending_delta_paths\":20"),
        "got {stats:?}"
    );

    // A rejected delta must not grow the sidecar.
    let mut foreign = CubeDelta::compute(&batches[2], &spec, &params(), &ItemPlan::All);
    foreign.dims = vec!["bogus".into()];
    let body = serde_json::to_string(&foreign).unwrap();
    let (status, _, _) = request(addr, "POST", "/admin/ingest", &[], &body);
    assert_eq!(status, 409);
    assert_eq!(read_deltas(&sidecar).unwrap().len(), 2);

    // Hot reload replays the sidecar on top of the re-opened snapshot.
    let (status, _, resp) = request(addr, "POST", "/admin/reload", &[], "");
    assert_eq!(status, 200, "got {resp:?}");
    assert!(resp.contains("\"deltas\":2"), "got {resp:?}");
    let (status, _, cell_reloaded) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 200);
    assert_eq!(cell_after, cell_reloaded, "reload must not lose deltas");

    handle.shutdown();
    handle.join();

    // A fresh process (the CLI's startup): the one open replays the
    // sidecar — same answers as the live server gave.
    let handle = start(ServedCube::open(&path).unwrap().0);
    let addr = handle.addr();
    let (status, _, cell_restarted) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 200);
    assert_eq!(
        cell_after, cell_restarted,
        "restart must replay the sidecar"
    );

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&sidecar);
}

/// Availability: queries from a concurrent client never see an error
/// while a stream of deltas is being ingested — the swap is atomic.
#[test]
fn queries_keep_answering_during_ingest() {
    let (base, batches) = base_and_batches(59, 3);
    let spec = PathLatticeSpec::paper(base.schema().locations(), 1);
    let cube = FlowCube::build(&base, spec.clone(), params(), ItemPlan::All);
    let path = temp_path("live.snap");
    let sidecar = deltalog_path(&path);
    let _ = std::fs::remove_file(&sidecar);
    write_snapshot(&cube, &path).expect("write snapshot");

    let handle = start(ServedCube::from_snapshot(Snapshot::open(&path).unwrap()));
    let addr = handle.addr();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut queries = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let (status, _, body) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
                assert_eq!(status, 200, "mid-ingest query failed: {body:?}");
                queries += 1;
            }
            queries
        })
    };

    for batch in &batches {
        let delta = CubeDelta::compute(batch, &spec, &params(), &ItemPlan::All);
        let body = serde_json::to_string(&delta).unwrap();
        let (status, _, resp) = request(addr, "POST", "/admin/ingest", &[], &body);
        assert_eq!(status, 200, "got {resp:?}");
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let queries = reader.join().expect("reader thread");
    assert!(queries > 0, "the reader must have overlapped the ingests");

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&sidecar);
}

/// A delta may bring a dimension value and a location the snapshot's
/// string table never interned. The patched cuboid is re-encoded with a
/// table of its own, so the new names are served — `/cell` support, a
/// `/drilldown` row, `/paths/topk` — byte for byte as a batch rebuild
/// over the union serves them (δ = 1, where the merge is exact). Same
/// from a file and from an image.
#[test]
fn delta_with_names_the_snapshot_never_interned_is_served() {
    let (db, _) = base_and_batches(83, 4);
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let params = FlowCubeParams::new(1).with_exceptions(false);
    // Everything carrying leaf value `v` in dimension 0, or visiting
    // location `l`, arrives later as the delta.
    let probe = &db.records()[0];
    let (v, l) = (probe.dims[0], probe.stages[0].loc);
    let (late, early): (Vec<_>, Vec<_>) = db
        .records()
        .iter()
        .cloned()
        .partition(|r| r.dims[0] == v || r.stages.iter().any(|s| s.loc == l));
    assert!(!early.is_empty(), "the base must keep some records");
    let base = PathDatabase::from_records(db.schema().clone(), early).unwrap();
    let batch = PathDatabase::from_records(db.schema().clone(), late).unwrap();
    let cube = FlowCube::build(&base, spec.clone(), params.clone(), ItemPlan::All);
    let delta = CubeDelta::compute(&batch, &spec, &params, &ItemPlan::All);
    let body = serde_json::to_string(&delta).unwrap();

    let dim0 = db.schema().dim(0);
    let (v_name, parent) = (dim0.name_of(v), dim0.name_of(dim0.parent_of(v)));
    let l_name = db.schema().locations().name_of(l);
    let targets = [
        format!("/cell?cell={v_name},*&level=loc0/dur0"),
        format!("/drilldown?cell={parent},*&dim=0&level=loc0/dur0"),
        "/paths/topk?cell=*,*&level=loc0/dur0&k=1000".to_string(),
    ];
    // The reference: the union, batch-built and served unpatched.
    let full = FlowCube::build(&db, spec, params, ItemPlan::All);
    let reference = start(ServedCube::from_cube(&full).expect("encode image"));
    // Status and body: the headers carry a per-request id.
    let answer = |addr, t: &String| {
        let (status, _, body) = get(addr, t, &[]);
        (status, body)
    };
    let want = targets.each_ref().map(|t| answer(reference.addr(), t));
    assert!(want[0].1.contains("\"exact\":true"), "got {want:?}");
    assert!(want[1].1.contains(v_name), "got {want:?}");
    assert!(want[2].1.contains(l_name), "got {want:?}");
    reference.shutdown();
    reference.join();

    let path = temp_path("new-names.snap");
    let sidecar = deltalog_path(&path);
    let _ = std::fs::remove_file(&sidecar);
    write_snapshot(&cube, &path).expect("write snapshot");
    let sources = [
        ServedCube::from_snapshot(Snapshot::open(&path).unwrap()),
        ServedCube::from_cube(&cube).expect("encode image"),
    ];
    for served in sources {
        let handle = start(served);
        let addr = handle.addr();
        // Before the delta the value has no cell of its own.
        let (status, _, cell) = get(addr, &targets[0], &[]);
        assert_eq!(status, 200);
        assert!(cell.contains("\"exact\":false"), "got {cell:?}");

        let (status, _, resp) = request(addr, "POST", "/admin/ingest", &[], &body);
        assert_eq!(status, 200, "got {resp:?}");
        assert_eq!(targets.each_ref().map(|t| answer(addr, t)), want);

        handle.shutdown();
        handle.join();
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&sidecar);
}

/// The overlay re-enforces the cube's iceberg δ: a patched cuboid whose
/// cells all stay below it is not served at all, and queries into it fall
/// back to the nearest materialized ancestor.
#[test]
fn patched_cuboid_below_min_support_disappears() {
    let (base, batches) = base_and_batches(97, 1);
    let spec = PathLatticeSpec::paper(base.schema().locations(), 1);
    // δ = |base|: only the apex cell of the base reaches it.
    let params = FlowCubeParams::new(100).with_exceptions(false);
    let cube = FlowCube::build(&base, spec.clone(), params.clone(), ItemPlan::All);
    assert_eq!(cube.num_cuboids(), 1, "apex cuboid only");
    let handle = start(ServedCube::from_cube(&cube).expect("encode image"));
    let addr = handle.addr();

    let delta = CubeDelta::compute(&batches[0], &spec, &params, &ItemPlan::All);
    assert!(delta.cuboids.len() > 1, "the delta patches finer cuboids");
    let body = serde_json::to_string(&delta).unwrap();
    let (status, _, resp) = request(addr, "POST", "/admin/ingest", &[], &body);
    assert_eq!(status, 200, "got {resp:?}");

    // Every cell the delta brings to item level (1, 0) has ≤ 10 paths.
    let (status, _, dice) = get(addr, "/dice?at=1,0&level=loc0/dur0", &[]);
    assert_eq!(status, 200);
    assert_eq!(dice, "{\"count\":0,\"cells\":[]}");
    let value = base
        .schema()
        .dim(0)
        .name_of(batches[0].records()[0].dims[0]);
    let (status, _, cell) = get(addr, &format!("/cell?cell={value},*&level=loc0/dur0"), &[]);
    assert_eq!(status, 200, "got {cell:?}");
    assert!(cell.contains("\"exact\":false"), "got {cell:?}");
    assert!(cell.contains("\"source_cell\":\"(*, *)\""), "got {cell:?}");
    assert!(cell.contains("\"support\":110"), "got {cell:?}");

    // The lookup probed (1, 0), empty after the overlay, then the apex:
    // only the apex holds cells.
    let (status, _, stats) = get(addr, "/stats", &[]);
    assert_eq!(status, 200);
    assert!(stats.contains("\"resident_cuboids\":1"), "got {stats:?}");
    assert!(stats.contains("\"resident_cells\":1"), "got {stats:?}");

    handle.shutdown();
    handle.join();
}

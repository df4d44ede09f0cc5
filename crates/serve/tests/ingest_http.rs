//! End-to-end `POST /admin/ingest`: live delta ingestion over HTTP into
//! a served snapshot file, with the availability guarantee the design
//! demands — the server keeps answering queries while deltas land, and
//! a restart from the same snapshot replays the sidecar. Delta-patched cuboids are served from re-encoded sections:
//! names the snapshot never interned, and cuboids that fall below δ, are
//! covered here.

use flowcube_fixtures::{ingest, serial, served_file, server, stop, Scenario};
use flowcube_pathdb::PathDatabase;
use flowcube_serve::{deltalog_path, read_deltas, ServedCube, ServerConfig, ServerHandle};
use flowcube_testkit::http::{get, get_ok, ok, request};
use flowcube_testkit::FailAction;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A stream of ten-path micro-batches after a base, cubed at the leaf
/// path level with exceptions off (the serving tier's ingest is
/// algebraic only).
fn stream(seed: u64, min_support: u64) -> Scenario {
    Scenario {
        exceptions: false,
        ..Scenario::small(seed, min_support)
    }
}

fn start(served: ServedCube) -> ServerHandle {
    let config = ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..Default::default()
    };
    server(served, config)
}

/// Held by the tests that ask cacheable endpoints, so the one that arms
/// the process-global `serve.cache.insert` failpoint holds back its own
/// request and no other.
static CACHE_INSERT: Mutex<()> = Mutex::new(());

/// An accepted delta lands in the `<snapshot>.deltas` sidecar, is
/// overlaid lazily on queries, survives `POST /admin/reload`, and is
/// replayed by a fresh process opening the same snapshot. Malformed and
/// mismatched deltas are rejected without touching the sidecar or the
/// served cube.
#[test]
fn snapshot_ingest_is_durable_across_reload_and_restart() {
    let stream = stream(47, 4);
    let (base, batches) = stream.base_and_batches(100, 3);
    let cube = stream.cube_of(&base);
    let (path, served) = served_file(&cube);
    let sidecar = deltalog_path(&path);
    let handle = start(served);
    let addr = handle.addr();

    let stats_before = get_ok(addr, "/stats");
    assert!(stats_before.contains("\"pending_deltas\":0"));
    assert!(
        stats_before.contains("\"snapshot_backed\":true"),
        "got {stats_before:?}"
    );

    // Hydrate a cell from the snapshot, then ingest two deltas.
    let cell_before = get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");
    for (i, batch) in batches[..2].iter().enumerate() {
        let resp = ingest(addr, &stream.delta(batch));
        assert!(resp.contains("\"ingested\":true"), "got {resp:?}");
        assert!(resp.contains("\"mode\":\"sidecar\""), "got {resp:?}");
        assert!(resp.contains("\"paths\":10"), "got {resp:?}");
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
    let cell_after = get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");
    assert_ne!(cell_before, cell_after, "overlay must change the apex cell");
    assert!(cell_after.contains("\"support\":120"), "got {cell_after:?}");
    let stats = get_ok(addr, "/stats");
    assert!(stats.contains("\"snapshot_backed\":true"), "got {stats:?}");
    assert!(stats.contains("\"pending_deltas\":2"), "got {stats:?}");
    assert!(
        stats.contains("\"pending_delta_paths\":20"),
        "got {stats:?}"
    );

    // Malformed JSON → 400; a delta with a foreign fingerprint → 409.
    // Neither grows the sidecar or changes the served cube.
    let (status, _, _) = request(addr, "POST", "/admin/ingest", &[], "{not json");
    assert_eq!(status, 400);
    let mut foreign_dims = stream.delta(&batches[2]);
    foreign_dims.dims = vec!["bogus".into()];
    let mut foreign_levels = stream.delta(&batches[2]);
    foreign_levels.path_levels = vec!["coarse".into()];
    for foreign in [foreign_dims, foreign_levels] {
        let body = serde_json::to_string(&foreign).unwrap();
        let (status, _, resp) = request(addr, "POST", "/admin/ingest", &[], &body);
        assert_eq!(status, 409, "got {resp:?}");
    }
    assert_eq!(read_deltas(&sidecar).unwrap().len(), 2);
    assert_eq!(stats, get_ok(addr, "/stats"));

    // Hot reload replays the sidecar on top of the re-opened snapshot.
    let resp = ok(addr, "POST", "/admin/reload", "");
    assert!(resp.contains("\"deltas\":2"), "got {resp:?}");
    let cell_reloaded = get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");
    assert_eq!(cell_after, cell_reloaded, "reload must not lose deltas");

    stop(handle);

    // A fresh process (the CLI's startup): the one open replays the
    // sidecar — same answers as the live server gave.
    let handle = start(ServedCube::open(&path).unwrap().0);
    let addr = handle.addr();
    let cell_restarted = get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");
    assert_eq!(
        cell_after, cell_restarted,
        "restart must replay the sidecar"
    );

    stop(handle);
}

/// Availability: queries from a concurrent client never see an error
/// while a stream of deltas is being ingested — the swap is atomic.
#[test]
fn queries_keep_answering_during_ingest() {
    let stream = stream(59, 4);
    let (base, batches) = stream.base_and_batches(100, 3);
    let cube = stream.cube_of(&base);
    let (_snapshot, served) = served_file(&cube);
    let handle = start(served);
    let addr = handle.addr();

    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut queries = 0u32;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");
                queries += 1;
            }
            queries
        })
    };

    for batch in &batches {
        ingest(addr, &stream.delta(batch));
    }

    done.store(true, std::sync::atomic::Ordering::Relaxed);
    let queries = reader.join().expect("reader thread");
    assert!(queries > 0, "the reader must have overlapped the ingests");

    stop(handle);
}

/// A delta may bring a dimension value and a location the snapshot's
/// string table never interned. The patched cuboid is re-encoded with a
/// table of its own, so the new names are served — `/cell` support, a
/// `/drilldown` row, `/paths/topk` — byte for byte as a batch rebuild
/// over the union serves them (δ = 1, where the merge is exact).
#[test]
fn delta_with_names_the_snapshot_never_interned_is_served() {
    let _cache = serial(&CACHE_INSERT);
    let stream = stream(83, 1);
    let (db, _) = stream.base_and_batches(100, 4);
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
    let cube = stream.cube_of(&base);
    let delta = stream.delta(&batch);

    let dim0 = db.schema().dim(0);
    let (v_name, parent) = (dim0.name_of(v), dim0.name_of(dim0.parent_of(v)));
    let l_name = db.schema().locations().name_of(l);
    let targets = [
        format!("/cell?cell={v_name},*&level=loc0/dur0"),
        format!("/drilldown?cell={parent},*&dim=0&level=loc0/dur0"),
        "/paths/topk?cell=*,*&level=loc0/dur0&k=1000".to_string(),
    ];
    // The reference: the union, batch-built and served unpatched.
    let full = stream.cube_of(&db);
    let (_full_snapshot, served_full) = served_file(&full);
    let reference = start(served_full);
    // Status and body: the headers carry a per-request id.
    let answer = |addr, t: &String| {
        let (status, _, body) = get(addr, t, &[]);
        (status, body)
    };
    let want = targets.each_ref().map(|t| answer(reference.addr(), t));
    assert!(want[0].1.contains("\"exact\":true"), "got {want:?}");
    assert!(want[1].1.contains(v_name), "got {want:?}");
    assert!(want[2].1.contains(l_name), "got {want:?}");
    stop(reference);

    let (_snapshot, served) = served_file(&cube);
    let handle = start(served);
    let addr = handle.addr();
    // Before the delta the value has no cell of its own.
    let cell = get_ok(addr, &targets[0]);
    assert!(cell.contains("\"exact\":false"), "got {cell:?}");

    ingest(addr, &delta);
    assert_eq!(targets.each_ref().map(|t| answer(addr, t)), want);

    stop(handle);
}

/// The overlay re-enforces the cube's iceberg δ: a patched cuboid whose
/// cells all stay below it is not served at all, and queries into it fall
/// back to the nearest materialized ancestor.
#[test]
fn patched_cuboid_below_min_support_disappears() {
    // δ = |base|: only the apex cell of the base reaches it.
    let stream = stream(97, 100);
    let (base, batches) = stream.base_and_batches(100, 1);
    let cube = stream.cube_of(&base);
    assert_eq!(cube.num_cuboids(), 1, "apex cuboid only");
    let (_snapshot, served) = served_file(&cube);
    let handle = start(served);
    let addr = handle.addr();

    let delta = stream.delta(&batches[0]);
    assert!(delta.cuboids.len() > 1, "the delta patches finer cuboids");
    ingest(addr, &delta);

    // Every cell the delta brings to item level (1, 0) has ≤ 10 paths.
    let dice = get_ok(addr, "/dice?at=1,0&level=loc0/dur0");
    assert_eq!(dice, "{\"count\":0,\"cells\":[]}");
    let value = base
        .schema()
        .dim(0)
        .name_of(batches[0].records()[0].dims[0]);
    let cell = get_ok(addr, &format!("/cell?cell={value},*&level=loc0/dur0"));
    assert!(cell.contains("\"exact\":false"), "got {cell:?}");
    assert!(cell.contains("\"source_cell\":\"(*, *)\""), "got {cell:?}");
    assert!(cell.contains("\"support\":110"), "got {cell:?}");

    // The lookup probed (1, 0), empty after the overlay, then the apex:
    // only the apex holds cells.
    let stats = get_ok(addr, "/stats");
    assert!(stats.contains("\"resident_cuboids\":1"), "got {stats:?}");
    assert!(stats.contains("\"resident_cells\":1"), "got {stats:?}");

    stop(handle);
}

/// A read renders its body from the cube it took, and caches it there.
/// Here the body is held back from the cache (`serve.cache.insert`)
/// until an ingest has swapped the cube and been acked: the held body
/// goes to its reader, and stays with the old cube, so the next read
/// shows the acked paths.
#[test]
fn a_body_rendered_before_an_ingest_is_not_served_after_it() {
    let _cache = serial(&CACHE_INSERT);
    let stream = stream(61, 4);
    let (base, batches) = stream.base_and_batches(100, 1);
    let cube = stream.cube_of(&base);
    let (_snapshot, served) = served_file(&cube);
    let handle = start(served);
    let addr = handle.addr();
    let target = "/paths/topk?cell=*,*&level=loc0/dur0&k=3";

    flowcube_testkit::arm_times(
        "serve.cache.insert",
        1,
        FailAction::Delay(Duration::from_secs(1)),
    );
    let reader = std::thread::spawn(move || get(addr, target, &[]));
    let deadline = Instant::now() + Duration::from_secs(10);
    while flowcube_testkit::hits("serve.cache.insert") == 0 {
        assert!(
            Instant::now() < deadline,
            "the read never reached the cache"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The read has rendered; its body waits outside the cache.
    ingest(addr, &stream.delta(&batches[0]));
    let (status, _, held) = reader.join().expect("reader thread");
    assert_eq!(status, 200, "got {held:?}");
    assert!(held.contains("\"support\":100"), "rendered before: {held}");
    flowcube_testkit::reset();

    let after = get_ok(addr, target);
    assert!(
        after.contains("\"support\":110"),
        "read after the ack: {after}"
    );

    stop(handle);
}

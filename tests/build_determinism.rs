//! The build is a pure function of (database, spec, params, plan): the
//! snapshot of a fixed-seed cube is pinned by digest, and the thread
//! count, a retried chunk and the materialization plan change nothing.
//!
//! The chunk failpoints are process-global, so every test in this binary
//! takes [`serial`] first.

use flowcube::datagen::{generate, DimShape, GeneratorConfig};
use flowcube::hier::{ItemLevel, PathLatticeSpec};
use flowcube::testkit::{self, sha256_hex, FailAction};
use flowcube::{FlowCube, FlowCubeParams, ItemPlan, PathDatabase};
use std::sync::Mutex;

use flowcube_fixtures::{serial, snapshot_bytes};

static SERIAL: Mutex<()> = Mutex::new(());

/// The paper's four path levels over a small generated database: two
/// location cuts, durations as recorded and `*`.
fn fixture() -> (PathDatabase, PathLatticeSpec) {
    let config = GeneratorConfig {
        num_paths: 1_500,
        dims: vec![DimShape::new(vec![2, 3], 0.7); 3],
        num_sequences: 8,
        path_len: (3, 6),
        max_duration: 5,
        seed: 16,
        ..Default::default()
    };
    let db = generate(&config).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
    (db, spec)
}

fn params(threads: usize) -> FlowCubeParams {
    FlowCubeParams::new(30)
        .with_redundancy(0.05)
        .with_threads(threads)
        .with_parallel_cutoff(2)
}

/// `cube` under params that send the snapshot writer to `threads`
/// workers: the same cuboids, as a build at that thread count leaves
/// them.
fn with_writer_threads(cube: &FlowCube, threads: usize) -> FlowCube {
    let mut out = FlowCube::from_parts(
        cube.schema().clone(),
        cube.spec().clone(),
        cube.params().clone().with_threads(threads),
        cube.stats().clone(),
    );
    for (key, cuboid) in cube.cuboids() {
        out.insert_cuboid(key.clone(), cuboid.clone());
    }
    out
}

/// Digest of the fixture's snapshot, taken at commit 422c79e (the parent
/// of the borrowed top-down materialization) before any build code
/// changed. A change that moves it changed *what* the build computes.
const GOLDEN_SHA256: &str = "6bc25b3e837538442553a417d04b7a1a81ae09021bd2e92b2f00b5e16dda5a67";

#[test]
fn golden_snapshot_digest() {
    let _guard = serial(&SERIAL);
    let (db, spec) = fixture();
    let cube = FlowCube::build(&db, spec, params(1), ItemPlan::All);
    assert!(cube.total_cells() > 100, "fixture must not be trivial");
    assert!(cube.stats().cells_pruned_redundant > 0);
    assert!(cube
        .cuboids()
        .any(|(_, c)| c.iter().any(|(_, e)| !e.exceptions.is_empty())));
    assert_eq!(sha256_hex(&snapshot_bytes(&cube)), GOLDEN_SHA256);
    // The writer encodes and checksums sections on the cube's own thread
    // policy; none of that reaches the file.
    for threads in [2, 3, 7] {
        let bytes = snapshot_bytes(&with_writer_threads(&cube, threads));
        assert_eq!(
            sha256_hex(&bytes),
            GOLDEN_SHA256,
            "writer threads={threads}"
        );
    }
    // One writer chunk panics once: it is re-encoded serially, in place.
    testkit::arm_times("mining.chunk", 1, FailAction::Panic(None));
    let healed = snapshot_bytes(&with_writer_threads(&cube, 2));
    let fired = testkit::hits("mining.chunk");
    testkit::reset();
    assert_eq!(fired, 1, "the fault must land in the writer");
    assert_eq!(sha256_hex(&healed), GOLDEN_SHA256);
}

/// The build itself at any thread count, and with one BUC subtree, one
/// dictionary walk, one count chunk, one redundancy chunk or one mining
/// counting chunk panicking once (recomputed serially), lands on the
/// golden digest — exceptions on, τ set, every phase running.
#[test]
fn golden_digest_holds_at_any_build_thread_count_and_after_a_retried_chunk() {
    let _guard = serial(&SERIAL);
    let (db, spec) = fixture();
    let build = |threads| FlowCube::build(&db, spec.clone(), params(threads), ItemPlan::All);
    for threads in [1, 2, 3, 7] {
        let bytes = snapshot_bytes(&build(threads));
        assert_eq!(sha256_hex(&bytes), GOLDEN_SHA256, "build threads={threads}");
    }
    // At 2 threads and cutoff 2, BUC's level-1 subtrees (two per
    // dimension) and the two walked levels each go to two workers.
    for phase in [
        "mining.buc.chunk",
        "build.dictionary.chunk",
        "build.materialize.chunk",
        "build.redundancy.chunk",
    ] {
        testkit::arm_times(phase, 1, FailAction::Panic(None));
        let healed = build(2);
        let fired = testkit::hits(phase);
        testkit::reset();
        assert_eq!(fired, 1, "the fault must land in {phase}");
        assert_eq!(healed.stats().chunk_retries, 1, "{phase}");
        let bytes = snapshot_bytes(&healed);
        assert_eq!(sha256_hex(&bytes), GOLDEN_SHA256, "{phase}");
    }
    // One mining counting chunk — a candidate range on the tid rows —
    // panics once. Mining's retries are counted by the obs counter, not in
    // `BuildStats`.
    testkit::arm_times("mining.scan.chunk", 1, FailAction::Panic(None));
    let healed = build(2);
    let fired = testkit::hits("mining.scan.chunk");
    testkit::reset();
    assert_eq!(fired, 1, "the fault must land in a counting pass");
    let bytes = snapshot_bytes(&healed);
    assert_eq!(sha256_hex(&bytes), GOLDEN_SHA256, "mining.scan.chunk");
}

#[test]
fn thread_count_and_chunk_retry_leave_the_bytes_alone() {
    let _guard = serial(&SERIAL);
    let (db, spec) = fixture();
    let build = |threads| FlowCube::build(&db, spec.clone(), params(threads), ItemPlan::All);
    let serial_bytes = snapshot_bytes(&build(1));
    for threads in [2, 3, 7] {
        let cube = build(threads);
        assert_eq!(cube.stats().chunk_retries, 0);
        assert!(
            snapshot_bytes(&cube) == serial_bytes,
            "threads={threads} changed the snapshot"
        );
    }
    // One worker panics once, somewhere in the build: the chunk is
    // recomputed serially and the cube is the same cube. Exceptions are
    // off so the only chunked phases are the build's own.
    let quiet = |threads| {
        FlowCube::build(
            &db,
            spec.clone(),
            params(threads).with_exceptions(false),
            ItemPlan::All,
        )
    };
    let clean = snapshot_bytes(&quiet(2));
    testkit::arm_times("mining.chunk", 1, FailAction::Panic(None));
    let healed = quiet(2);
    testkit::reset();
    assert_eq!(healed.stats().chunk_retries, 1);
    assert!(snapshot_bytes(&healed) == clean);
}

/// A plan that leaves a level's item-lattice parents out materializes
/// exactly the cells the full plan does at that level: BUC descends
/// through the levels a plan drops, the plan only filters what it emits.
#[test]
fn plans_without_parents_match_the_full_plan() {
    let _guard = serial(&SERIAL);
    let (db, spec) = fixture();
    let unpruned = |plan| {
        let mut p = params(2);
        p.redundancy_tau = None;
        FlowCube::build(&db, spec.clone(), p, plan)
    };
    let full = unpruned(ItemPlan::All);
    let plans = [
        ItemPlan::Selected(vec![ItemLevel(vec![2, 1, 0]), ItemLevel(vec![1, 1, 1])]),
        ItemPlan::Selected(vec![ItemLevel(vec![1, 0, 0]), ItemLevel(vec![2, 0, 0])]),
        ItemPlan::Selected(vec![
            ItemLevel(vec![1, 0, 0]),
            ItemLevel(vec![2, 2, 1]),
            ItemLevel(vec![2, 1, 0]),
        ]),
    ];
    for plan in plans {
        let partial = unpruned(plan.clone());
        assert!(partial.num_cuboids() > 0);
        let diff = partial.compare(&full).expect("same schema and spec");
        assert!(
            diff.left_only.is_empty() && diff.changed.is_empty(),
            "{}",
            diff.render(&partial, 8)
        );
        for (ck, _) in &diff.right_only {
            assert!(
                !plan.includes(&ck.item_level),
                "{}",
                diff.render(&partial, 8)
            );
        }
        for (ck, _) in partial.cuboids() {
            assert!(plan.includes(&ck.item_level));
        }
    }
}

//! Differential harness for incremental flowcube maintenance
//! (DESIGN.md §12).
//!
//! The contract under test, from the paper's two lemmas:
//!
//! * **Lemma 4.2 (algebraic counts)** — at δ = 1, building a cube from a
//!   base batch and then applying `CubeDelta`s for the remaining batches
//!   produces a cube *byte-identical* (snapshot bytes, after stats
//!   normalization) to rebuilding from the whole stream at once, for any
//!   split of the stream into micro-batches.
//! * **Lemma 4.3 (holistic exceptions)** — applying a delta clears the
//!   touched cells' exceptions, and re-mining exactly those dirty cells
//!   against the full path database reproduces the batch-built
//!   exceptions.
//!
//! At δ > 1 a maintained `FlowCube` is lossy by design (each apply cuts
//! at δ, forgetting early sub-threshold contributions), so the tests
//! assert the documented weaker contract:
//! the iceberg invariant always holds and the maintained cube is a
//! subset of the batch rebuild.

use flowcube::core::{BuildStats, CellKey, CubeDelta, CuboidKey};
use flowcube::datagen::generate;
use flowcube::hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube::{FlowCube, FlowCubeParams, ItemPlan, PathDatabase};
use proptest::prelude::*;

mod common;
use common::{short_paths, snapshot_bytes};

/// Split `db` into `k` contiguous non-empty micro-batches.
fn split_db(db: &PathDatabase, k: usize) -> Vec<PathDatabase> {
    let records = db.records();
    let k = k.min(records.len()).max(1);
    let per = records.len().div_ceil(k);
    records
        .chunks(per)
        .map(|chunk| {
            PathDatabase::from_records(db.schema().clone(), chunk.to_vec())
                .expect("chunk of a valid db is valid")
        })
        .collect()
}

/// Build the cube incrementally: batch-build over the first micro-batch,
/// then `CubeDelta::compute` + `apply_delta` for each later batch.
/// Returns the cube plus every dirty cell reported along the way.
fn incremental_cube(
    batches: &[PathDatabase],
    spec: &PathLatticeSpec,
    params: &FlowCubeParams,
) -> (FlowCube, Vec<(CuboidKey, Vec<CellKey>)>) {
    let mut cube = FlowCube::build(&batches[0], spec.clone(), params.clone(), ItemPlan::All);
    let mut dirty = Vec::new();
    for batch in &batches[1..] {
        let delta = CubeDelta::compute(batch, spec, params, &ItemPlan::All);
        let report = cube.apply_delta(&delta).expect("same schema and spec");
        dirty.extend(report.dirty);
    }
    (cube, dirty)
}

/// Snapshot bytes with the build-history stats zeroed.
///
/// `write_snapshot` already canonicalizes params and zeroes the
/// delta-application counters, but it deliberately keeps the mining
/// counters — and an incremental cube's mining counters only cover its
/// base batch. Byte-identity is a claim about the cube's *content*, so
/// both sides are rebuilt around `BuildStats::default()` first.
fn normalized_snapshot_bytes(cube: &FlowCube) -> Vec<u8> {
    let mut shell = FlowCube::from_parts(
        cube.schema().clone(),
        cube.spec().clone(),
        cube.params().clone(),
        BuildStats::default(),
    );
    for (key, cuboid) in cube.cuboids() {
        shell.insert_cuboid(key.clone(), cuboid.clone());
    }
    snapshot_bytes(&shell)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The tentpole property (Lemma 4.2): at δ = 1 with exceptions off,
    /// incremental apply over ANY split of the stream equals the batch
    /// rebuild — cell for cell, and byte for byte in snapshot form.
    #[test]
    fn delta_apply_equals_batch_rebuild(
        paths in 20usize..70,
        seed in 0u64..1000,
        k in 2usize..6,
    ) {
        let db = generate(&short_paths(paths, seed)).db;
        let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
        let params = FlowCubeParams::new(1).with_exceptions(false);
        let batches = split_db(&db, k);

        let (incr, _) = incremental_cube(&batches, &spec, &params);
        let batch = FlowCube::build(&db, spec.clone(), params.clone(), ItemPlan::All);

        incr.ensure_same(&batch)?;
        prop_assert_eq!(
            normalized_snapshot_bytes(&incr),
            normalized_snapshot_bytes(&batch),
            "snapshot bytes diverged at paths={} seed={} k={}", paths, seed, k
        );
    }

    /// Lemma 4.3: re-mining exactly the dirty cells against the full
    /// path database reproduces the batch-built exceptions, cell for
    /// cell — untouched cells keep their base exceptions and still
    /// agree, because their path multiset never changed.
    #[test]
    fn dirty_remine_reproduces_batch_exceptions(
        paths in 20usize..50,
        seed in 0u64..1000,
        k in 2usize..4,
    ) {
        let db = generate(&short_paths(paths, seed)).db;
        let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
        let params = FlowCubeParams::new(1); // exceptions on by default
        let batches = split_db(&db, k);

        let (mut incr, dirty) = incremental_cube(&batches, &spec, &params);
        incr.remine_exceptions(&db, &dirty).expect("same schema");
        let batch = FlowCube::build(&db, spec.clone(), params.clone(), ItemPlan::All);

        incr.ensure_same(&batch)?;
    }

    /// δ > 1: the iceberg is re-enforced after every apply (no cell ever
    /// sits below δ), and the maintained cube is a subset of the batch
    /// rebuild with never-larger supports — the documented lossiness.
    #[test]
    fn iceberg_reenforced_and_subset_of_batch_at_higher_delta(
        paths in 30usize..70,
        seed in 0u64..1000,
        k in 2usize..5,
    ) {
        let db = generate(&short_paths(paths, seed)).db;
        let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
        let params = FlowCubeParams::new(3).with_exceptions(false);
        let batches = split_db(&db, k);

        let (incr, _) = incremental_cube(&batches, &spec, &params);
        let batch = FlowCube::build(&db, spec.clone(), params.clone(), ItemPlan::All);

        for (ck, cuboid) in incr.cuboids() {
            for (cell, entry) in cuboid.iter() {
                prop_assert!(
                    entry.support >= 3,
                    "cell {:?}/{:?} survived below δ with support {}",
                    ck, cell, entry.support
                );
            }
        }
        let diff = incr.compare(&batch).expect("same schema and spec");
        prop_assert!(diff.left_only.is_empty(), "{}", diff.render(&incr, 8));
        for cell in &diff.changed {
            prop_assert!(
                cell.support.0 <= cell.support.1,
                "maintained cell has more support than the batch's: {}",
                diff.render(&incr, 8)
            );
        }
    }
}

/// An empty micro-batch is a representable no-op: the delta carries zero
/// paths and zero cells, and applying it changes nothing.
#[test]
fn empty_batch_delta_is_a_noop() {
    let db = generate(&short_paths(24, 7)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
    let params = FlowCubeParams::new(1).with_exceptions(false);
    let mut cube = FlowCube::build(&db, spec.clone(), params.clone(), ItemPlan::All);
    let before = cube.clone();

    let empty = PathDatabase::from_records(db.schema().clone(), Vec::new())
        .expect("an empty path database is valid");
    let delta = CubeDelta::compute(&empty, &spec, &params, &ItemPlan::All);
    assert_eq!(delta.paths, 0);
    assert_eq!(delta.total_cells(), 0);

    let report = cube.apply_delta(&delta).expect("fingerprint matches");
    assert_eq!(report.merged_cells, 0);
    assert_eq!(report.pruned_cells, 0);
    assert!(report.dirty.is_empty());
    cube.ensure_same(&before).unwrap_or_else(|d| panic!("{d}"));
    // The apply is still recorded — maintenance history is honest even
    // for no-ops (and snapshot writing zeroes it back out).
    assert_eq!(cube.stats().deltas_applied, 1);
    assert_eq!(cube.stats().delta_paths, 0);
}

/// A delta computed against a different schema or path spec is rejected
/// before it can corrupt the cube.
#[test]
fn mismatched_delta_is_rejected() {
    let db = generate(&short_paths(24, 11)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
    let params = FlowCubeParams::new(1).with_exceptions(false);
    let mut cube = FlowCube::build(&db, spec.clone(), params.clone(), ItemPlan::All);
    let before = cube.clone();

    // Same db, different path-level names → different fingerprint.
    let loc = db.schema().locations();
    let other_spec = PathLatticeSpec::new(vec![PathLevel::new(
        "coarse",
        LocationCut::uniform_level(loc, loc.max_level()),
        DurationLevel::Any,
    )]);
    let delta = CubeDelta::compute(&db, &other_spec, &params, &ItemPlan::All);
    assert!(delta.validate_against(&cube).is_err());
    assert!(cube.apply_delta(&delta).is_err());
    // A rejected delta must not touch the cube.
    cube.ensure_same(&before).unwrap_or_else(|d| panic!("{d}"));
}

/// `merge_partitions` combines build statistics honestly: counters add,
/// `cells_materialized` is recomputed from the merged cube, and the
/// iceberg is re-enforced on the union.
#[test]
fn merge_from_combines_stats_and_reenforces_iceberg() {
    let db = generate(&short_paths(48, 3)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
    let params = FlowCubeParams::new(2).with_exceptions(false);
    let halves = split_db(&db, 2);

    let left = FlowCube::build(&halves[0], spec.clone(), params.clone(), ItemPlan::All);
    let right = FlowCube::build(&halves[1], spec.clone(), params.clone(), ItemPlan::All);
    let (lf, rf) = (left.stats().frequent_cells, right.stats().frequent_cells);
    let (ls, rs) = (left.stats().mining.scans, right.stats().mining.scans);

    let merged = FlowCube::merge_partitions(&[left, right], params).expect("same schema and spec");

    // Counters describe the total work across both constructions…
    assert_eq!(merged.stats().frequent_cells, lf + rf);
    assert_eq!(merged.stats().mining.scans, ls + rs);
    // …while the materialized-cell count describes the merged cube, not
    // the sum of the halves (shared cells must not be double-counted).
    assert_eq!(merged.stats().cells_materialized, merged.total_cells());

    for (ck, cuboid) in merged.cuboids() {
        for (cell, entry) in cuboid.iter() {
            assert!(
                entry.support >= 2,
                "merged cell {ck:?}/{cell:?} sits below δ at {}",
                entry.support
            );
        }
    }
}

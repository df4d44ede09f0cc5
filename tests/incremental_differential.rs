//! Incremental flowcube maintenance off its exact contract
//! (DESIGN.md §12).
//!
//! At δ = 1, incremental apply and dirty-cell re-mining equal the
//! definitional cube, and so the batch rebuild: the first two properties
//! run those rows of the one table (`common::table`). At δ > 1 a
//! maintained `FlowCube` is lossy by design (each apply cuts at δ,
//! forgetting early sub-threshold contributions), so this suite asserts
//! the documented weaker contract — the iceberg invariant always holds
//! and the maintained cube is a subset of the batch rebuild — plus the
//! edges of the delta API: empty batches, mismatched deltas, and how a
//! partition merge combines build statistics.

use flowcube::core::CubeDelta;
use flowcube::datagen::generate;
use flowcube::hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube::{FlowCube, FlowCubeParams, ItemPlan, PathDatabase};
use proptest::prelude::*;

mod common;
use common::scenario::{Scenario, Scenarios};
use common::table::Case;
use common::{short_paths, split_db};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Lemma 4.2: at δ = 1 with exceptions off, incremental apply over
    /// any split of the stream equals the batch rebuild, cell for cell
    /// and byte for byte.
    #[test]
    fn delta_apply_equals_batch_rebuild(
        scenario in Scenarios.prop_map(|s| Scenario {
            min_support: 1,
            tau: None,
            exceptions: false,
            ..s
        }),
    ) {
        let case = Case::new(&scenario);
        case.build()?;
        case.incremental()?;
    }

    /// Lemma 4.3: re-mining exactly the dirty cells against the full
    /// path database reproduces the batch-built exceptions, cell for
    /// cell.
    #[test]
    fn dirty_remine_reproduces_batch_exceptions(
        scenario in Scenarios.prop_map(|s| Scenario {
            min_support: 1,
            tau: None,
            exceptions: true,
            ..s
        }),
    ) {
        let case = Case::new(&scenario);
        case.build()?;
        case.incremental()?;
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

        let mut incr = FlowCube::build(&batches[0], spec.clone(), params.clone(), ItemPlan::All);
        for batch in &batches[1..] {
            let delta = CubeDelta::compute(batch, &spec, &params, &ItemPlan::All);
            incr.apply_delta(&delta).expect("same schema and spec");
        }
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

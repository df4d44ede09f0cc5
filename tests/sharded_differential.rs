//! The sharded build pipeline (DESIGN.md §13) against the single-node
//! build, as rows of the one table (`common::table`): both snapshot to
//! the reference cube's bytes, so to each other's.
//!
//! The contract, from the paper's Lemma 4.2: flowgraph counts are
//! algebraic over a partition of the path database, so per-shard partial
//! cubes at δ = 1, merged — deferred iceberg enforcement, redundancy
//! pruning, then holistic exception re-mining (Lemma 4.3) against the
//! full database — give the single-node cube for any shard count and
//! any build parameters.

use flowcube::federate::{build_shard_part, merge_shard_parts, partial_params};
use flowcube::federate::{shard_db, FederateError, ShardPart};
use flowcube::{FlowCubeParams, PathLatticeSpec};
use proptest::prelude::*;

mod common;
use common::scenario::{Scenario, Scenarios};
use common::short_paths;
use common::table::Case;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shard counts 2, 3, 7 and 97, any δ, exceptions on or off.
    #[test]
    fn sharded_build_is_byte_identical_to_single_node(
        scenario in Scenarios.prop_map(|s| Scenario { plan: None, ..s }),
    ) {
        let case = Case::new(&scenario);
        case.build()?;
        case.sharded()?;
    }

    /// Redundancy pruning (holistic, Definition 4.4) composes with the
    /// sharded pipeline: pruning after the merge, or after an unpruned
    /// single-node build, equals pruning inside the build.
    #[test]
    fn sharded_build_with_redundancy_pruning_matches(
        scenario in Scenarios.prop_map(|s| Scenario { plan: None, tau: s.tau.or(Some(0.5)), ..s }),
    ) {
        let case = Case::new(&scenario);
        case.build()?;
        case.sharded()?;
        case.prune_after()?;
    }
}

/// Shard counts far above the path count leave most shards empty; the
/// pipeline must treat an empty shard as a legal zero, not an error:
/// Table 1's eight paths over 97 shards.
#[test]
fn empty_shards_merge_cleanly() {
    let scenario = Scenario::paper_table1(1, 97);
    Case::new(&scenario)
        .sharded()
        .unwrap_or_else(|e| panic!("{e}"));
}

/// The merge validates its inputs: a missing shard, a duplicate shard,
/// parts from different shard counts, or parts whose path counts do not
/// add up to the database must be rejected with a typed error, never
/// silently merged into an undercounted cube.
#[test]
fn merge_rejects_inconsistent_part_sets() {
    let db = flowcube::datagen::generate(&short_paths(30, 9)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
    let params = FlowCubeParams::new(1);
    let part = |shards, k| build_shard_part(&db, spec.clone(), &params, shards, k).unwrap();
    let parts: Vec<ShardPart> = (0..3).map(|k| part(3, k)).collect();
    let mut short = parts[2].clone();
    short.map.paths += 1;
    for (set, count_mismatch) in [
        // Missing shard 2.
        (parts[..2].to_vec(), false),
        // Duplicate shard 0.
        (
            vec![parts[0].clone(), parts[0].clone(), parts[1].clone()],
            false,
        ),
        // A part built against a different shard count.
        (vec![parts[0].clone(), parts[1].clone(), part(2, 0)], true),
        // One path too many.
        (vec![parts[0].clone(), parts[1].clone(), short], false),
    ] {
        match merge_shard_parts(&set, Some(&db), &params) {
            Err(FederateError::ShardCountMismatch { .. }) if count_mismatch => {}
            Err(FederateError::PartMismatch { .. }) if !count_mismatch => {}
            other => panic!("expected a typed rejection, got {:?}", other.err()),
        }
    }
    // Partial params really are the δ = 1 exception-free shape.
    let p = partial_params(&params);
    assert!(p.min_support == 1 && !p.mine_exceptions);
    // And shard_db partitions exhaustively.
    let total: usize = (0..3).map(|k| shard_db(&db, 3, k).unwrap().len()).sum();
    assert_eq!(total, db.len());
}

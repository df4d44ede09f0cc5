//! Differential harness for the sharded build pipeline (DESIGN.md §13).
//!
//! The contract, from the paper's Lemma 4.2: flowgraph counts are
//! **algebraic** over a partition of the path database, so building
//! per-shard partial cubes at δ = 1 and merging them — deferred iceberg
//! enforcement, then holistic exception re-mining (Lemma 4.3) against
//! the full database, then redundancy pruning, in batch-pipeline
//! order — produces a cube *byte-identical in snapshot form* to the
//! single-node build, for any shard count and any build parameters.
//!
//! Byte-identity here is unconditional (unlike the incremental harness,
//! which must zero mining stats first): `write_snapshot` canonicalizes
//! build-history counters, and the sharded pipeline reproduces content
//! exactly.

use flowcube::datagen::generate;
use flowcube::federate::{build_sharded, merge_shard_parts, shard_db, ShardPart};
use flowcube::hier::PathLatticeSpec;
use flowcube::{FlowCube, FlowCubeParams, ItemPlan};
use proptest::prelude::*;

mod common;
use common::{short_paths, snapshot_bytes};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole property: for shard counts 2, 3, and 7 and any
    /// iceberg threshold, the sharded build snapshots byte-identically
    /// to the single-node build — exceptions mined and all.
    #[test]
    fn sharded_build_is_byte_identical_to_single_node(
        paths in 20usize..70,
        seed in 0u64..1000,
        shard_idx in 0usize..3,
        delta in 1u64..4,
    ) {
        let shards = [2u32, 3, 7][shard_idx];
        let db = generate(&short_paths(paths, seed)).db;
        let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
        let params = FlowCubeParams::new(delta);

        let sharded = build_sharded(&db, spec.clone(), &params, shards)
            .expect("sharded build succeeds");
        let single = FlowCube::build(&db, spec, params, ItemPlan::All);

        sharded.ensure_same(&single)?;
        prop_assert_eq!(
            snapshot_bytes(&sharded),
            snapshot_bytes(&single),
            "snapshot bytes diverged at paths={} seed={} shards={} delta={}",
            paths, seed, shards, delta
        );
    }

    /// Redundancy pruning (holistic, Definition 4.4) composes with the
    /// sharded pipeline: pruning after the merge equals pruning inside
    /// the single-node build.
    #[test]
    fn sharded_build_with_redundancy_pruning_matches(
        paths in 20usize..50,
        seed in 0u64..1000,
        shards in 2u32..4,
    ) {
        let db = generate(&short_paths(paths, seed)).db;
        let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
        let mut params = FlowCubeParams::new(1);
        params.redundancy_tau = Some(0.5);

        let sharded = build_sharded(&db, spec.clone(), &params, shards)
            .expect("sharded build succeeds");
        let single = FlowCube::build(&db, spec, params, ItemPlan::All);

        sharded.ensure_same(&single)?;
        prop_assert_eq!(
            snapshot_bytes(&sharded),
            snapshot_bytes(&single),
            "pruned snapshots diverged at paths={} seed={} shards={}",
            paths, seed, shards
        );
    }
}

/// Shard counts far above the path count leave some shards empty; the
/// pipeline must treat an empty shard as a legal zero, not an error.
#[test]
fn empty_shards_merge_cleanly() {
    let db = generate(&short_paths(8, 5)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
    let params = FlowCubeParams::new(1);
    let sharded = build_sharded(&db, spec.clone(), &params, 97).expect("97-way shard of 8 paths");
    let single = FlowCube::build(&db, spec, params, ItemPlan::All);
    sharded
        .ensure_same(&single)
        .unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(snapshot_bytes(&sharded), snapshot_bytes(&single));
}

/// The merge validates its inputs: a missing shard, a duplicate shard,
/// or parts from different shard counts must be rejected with a typed
/// error, never silently merged into an undercounted cube.
#[test]
fn merge_rejects_inconsistent_part_sets() {
    use flowcube::federate::{build_shard_part, partial_params, FederateError};

    let db = generate(&short_paths(30, 9)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
    let params = FlowCubeParams::new(1);
    let parts: Vec<ShardPart> = (0..3)
        .map(|k| build_shard_part(&db, spec.clone(), &params, 3, k).unwrap())
        .collect();

    // Missing shard 2.
    let err = merge_shard_parts(&parts[..2], Some(&db), &params).unwrap_err();
    assert!(matches!(err, FederateError::PartMismatch { .. }), "{err:?}");

    // Duplicate shard 0.
    let dup = vec![parts[0].clone(), parts[0].clone(), parts[1].clone()];
    let err = merge_shard_parts(&dup, Some(&db), &params).unwrap_err();
    assert!(matches!(err, FederateError::PartMismatch { .. }), "{err:?}");

    // A part built against a different shard count.
    let foreign = build_shard_part(&db, spec.clone(), &params, 2, 0).unwrap();
    let mixed = vec![parts[0].clone(), parts[1].clone(), foreign];
    let err = merge_shard_parts(&mixed, Some(&db), &params).unwrap_err();
    assert!(
        matches!(err, FederateError::ShardCountMismatch { .. }),
        "{err:?}"
    );

    // Sanity: partial params really are the δ=1 exception-free shape.
    let p = partial_params(&params);
    assert_eq!(p.min_support, 1);
    assert!(!p.mine_exceptions);

    // And shard_db partitions exhaustively.
    let total: usize = (0..3).map(|k| shard_db(&db, 3, k).unwrap().len()).sum();
    assert_eq!(total, db.len());
}

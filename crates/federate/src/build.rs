//! Sharded construction: per-shard partial builds and the exact merge.
//!
//! The recipe that makes a sharded build **byte-identical** to the
//! single-node build (proved by the differential proptest suite):
//!
//! 1. Each shard builds its partial cube at **δ = 1, no exceptions, no
//!    redundancy pruning** — flowgraph counts are algebraic (Lemma 4.2)
//!    so partial counts merge exactly, but the iceberg condition, the
//!    exception measure, and the redundancy test (Lemma 4.3 / Definition
//!    4.4) are holistic: a shard cannot apply them locally without
//!    losing cells that are only frequent (or only redundant) in the
//!    union.
//! 2. [`merge_shard_parts`] validates the shard map (same shard count
//!    everywhere, every id `0..shards` present exactly once, path counts
//!    adding up to the full database), merges counts with one δ cut over
//!    the summed supports ([`FlowCube::merge_partitions`]), then runs the
//!    two holistic phases over the merged cube in the batch pipeline's
//!    order: Definition 4.4 first, then exceptions — re-mined against the
//!    full path database — for the cells that survive it.

use crate::error::FederateError;
use crate::shard::{shard_db, ShardMap, ShardPart};
/// The partial-build parameters for one shard: counts only, every
/// holistic phase deferred to the merge.
pub use flowcube_core::partial_params;
use flowcube_core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube_hier::PathLatticeSpec;
use flowcube_pathdb::PathDatabase;

/// Build shard `shard_id` of a `shards`-way partition of `db`: filter
/// the paths by EPC hash and run a partial (δ = 1, exception-free,
/// unpruned) build over them.
pub fn build_shard_part(
    db: &PathDatabase,
    spec: PathLatticeSpec,
    params: &FlowCubeParams,
    shards: u32,
    shard_id: u32,
) -> Result<ShardPart, FederateError> {
    let shard = shard_db(db, shards, shard_id)?;
    let cube = FlowCube::build(&shard, spec, partial_params(params), ItemPlan::All);
    Ok(ShardPart {
        map: ShardMap {
            shards,
            shard_id,
            paths: shard.len() as u64,
        },
        cube,
    })
}

/// Merge shard partials into the cube the single-node build would have
/// produced. `db` is the **full** path database; it is required whenever
/// `params.mine_exceptions` is set (exceptions are holistic and must be
/// re-mined from all paths) and, when given, also validates that the
/// parts' path counts add up.
pub fn merge_shard_parts(
    parts: &[ShardPart],
    db: Option<&PathDatabase>,
    params: &FlowCubeParams,
) -> Result<FlowCube, FederateError> {
    let first = parts.first().ok_or_else(|| FederateError::PartMismatch {
        detail: "no shard parts to merge".into(),
    })?;
    let shards = first.map.shards;
    if shards == 0 {
        return Err(FederateError::PartMismatch {
            detail: "shard part declares 0 total shards".into(),
        });
    }
    for part in parts {
        if part.map.shards != shards {
            return Err(FederateError::ShardCountMismatch {
                expected: shards,
                actual: part.map.shards,
            });
        }
    }
    let mut ids: Vec<u32> = parts.iter().map(|p| p.map.shard_id).collect();
    ids.sort_unstable();
    let expected: Vec<u32> = (0..shards).collect();
    if ids != expected {
        return Err(FederateError::PartMismatch {
            detail: format!("need every shard of 0..{shards} exactly once, got ids {ids:?}"),
        });
    }
    if let Some(db) = db {
        let total: u64 = parts.iter().map(|p| p.map.paths).sum();
        if total != db.len() as u64 {
            return Err(FederateError::PartMismatch {
                detail: format!(
                    "parts cover {total} paths but the database has {}",
                    db.len()
                ),
            });
        }
    }

    let mut merged = FlowCube::merge_partitions(parts.iter().map(|p| &p.cube), params.clone())?;

    // Holistic phases, in batch-pipeline order: redundancy first, then
    // exceptions for the stored cells only.
    if let Some(tau) = params.redundancy_tau {
        merged.prune_redundant(tau);
    }
    if params.mine_exceptions {
        let db = db.ok_or_else(|| FederateError::Config {
            detail: "exception mining requires the full path database (--db)".into(),
        })?;
        let stored = merged.all_cells();
        merged.remine_exceptions(db, &stored)?;
    }
    Ok(merged)
}

/// Single-process sharded build: partition, build every shard, merge —
/// what the differential tests compare against `FlowCube::build`. The
/// CLI has no such mode: `flowcube build --shards N` needs `--shard-id`
/// and writes one part, and `flowcube merge` combines the part files.
pub fn build_sharded(
    db: &PathDatabase,
    spec: PathLatticeSpec,
    params: &FlowCubeParams,
    shards: u32,
) -> Result<FlowCube, FederateError> {
    let parts: Vec<ShardPart> = (0..shards)
        .map(|k| build_shard_part(db, spec.clone(), params, shards, k))
        .collect::<Result<_, _>>()?;
    merge_shard_parts(&parts, Some(db), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_pathdb::samples;

    /// A part file gives back the shard map and the cube it was written
    /// from — an empty shard's too — and CRC-checks the map like every
    /// section; a plain cube snapshot is not a part.
    #[test]
    fn part_files_round_trip_the_map_and_the_cube() {
        use flowcube_serve::{write_snapshot, Snapshot, SnapshotError};
        let db = samples::paper_table1();
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        let params = FlowCubeParams::new(2);
        let empty = (0..97)
            .find(|&k| shard_db(&db, 97, k).unwrap().is_empty())
            .expect("97 shards over 8 paths leave one empty");
        let path = flowcube_testkit::temp_path;
        let (file, a, b) = (path("part.snap"), path("part-a.snap"), path("part-b.snap"));
        for (shards, shard_id) in [(2, 0), (2, 1), (97, empty)] {
            let part = build_shard_part(&db, spec.clone(), &params, shards, shard_id).unwrap();
            part.write(&file).unwrap();
            Snapshot::open(&file).unwrap().verify_all().unwrap();
            let back = ShardPart::open(&file).unwrap();
            assert_eq!(back.map, part.map);
            // The cube is the one written: it snapshots to the same bytes.
            write_snapshot(&part.cube, &a).unwrap();
            write_snapshot(&back.cube, &b).unwrap();
            assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
            assert!(matches!(
                ShardPart::open(&a),
                Err(SnapshotError::MissingSection { kind: "shard" })
            ));

            let mut bytes = std::fs::read(&file).unwrap();
            let at = bytes.windows(10).position(|w| w == b"\"shard_id\"");
            bytes[at.expect("the shard section") + 1] = b'S';
            std::fs::write(&file, bytes).unwrap();
            for result in [
                Snapshot::open(&file).unwrap().verify_all(),
                ShardPart::open(&file).map(drop),
            ] {
                match result {
                    Err(SnapshotError::ChecksumMismatch { section }) => {
                        assert_eq!(section, "shard")
                    }
                    other => panic!("expected a checksum mismatch, got {other:?}"),
                }
            }
        }
        for f in [&file, &a, &b] {
            let _ = std::fs::remove_file(f);
        }
    }
}

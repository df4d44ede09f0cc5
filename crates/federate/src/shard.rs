//! The partition function and the shard part file.
//!
//! Paths are routed to shards by a mixed hash of the record id (the
//! EPC): `shard_of(epc, N)`. The hash is a fixed function — the same EPC
//! lands on the same shard on every machine, every build, every
//! process — because the shard map is part of the system's contract: a
//! front tier and a build farm that disagree on placement would silently
//! misroute queries.

use crate::error::FederateError;
use flowcube_core::FlowCube;
use flowcube_hier::fx::splitmix64;
use flowcube_pathdb::PathDatabase;
use flowcube_serve::{write_snapshot_with, ServedCube, SnapshotError, SnapshotInfo};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Kind of the snapshot section that holds a part file's [`ShardMap`].
const KIND_SHARD: &str = "shard";

/// Which of `shards` partitions an EPC belongs to. EPCs are often
/// sequential; [`splitmix64`] spreads them evenly across shards instead
/// of striping.
pub fn shard_of(epc: u64, shards: u32) -> u32 {
    debug_assert!(shards > 0);
    (splitmix64(epc) % shards.max(1) as u64) as u32
}

/// The records of `db` that hash to `shard_id` — same schema, a subset
/// of the paths. An empty subset is legal (a small database may leave a
/// shard with nothing) and builds an empty partial cube.
pub fn shard_db(
    db: &PathDatabase,
    shards: u32,
    shard_id: u32,
) -> Result<PathDatabase, FederateError> {
    if shards == 0 {
        return Err(FederateError::Config {
            detail: "--shards must be at least 1".into(),
        });
    }
    if shard_id >= shards {
        return Err(FederateError::ShardCountMismatch {
            expected: shards,
            actual: shard_id,
        });
    }
    let records: Vec<_> = db
        .records()
        .iter()
        .filter(|r| shard_of(r.id, shards) == shard_id)
        .cloned()
        .collect();
    PathDatabase::from_records(db.schema().clone(), records).map_err(|e| FederateError::Config {
        detail: e.to_string(),
    })
}

/// Where a shard part sits in its partition — what the merge step
/// validates a part set against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    /// Total shards in the partition this part belongs to.
    pub shards: u32,
    /// This part's shard id, in `0..shards`.
    pub shard_id: u32,
    /// Paths that hashed to this shard (may be 0).
    pub paths: u64,
}

/// One shard's partial build: the δ = 1, exception-free, unpruned cube
/// over the shard's paths, plus its [`ShardMap`]. On disk a part is a
/// snapshot of its cube — the file a federation backend serves — whose
/// one extra `shard` section holds the map. The map never enters the
/// cube itself: a merged cube must snapshot byte-identically to a
/// single-node build, so it cannot carry any trace of how it was
/// constructed.
#[derive(Clone, Debug)]
pub struct ShardPart {
    pub map: ShardMap,
    /// The partial cube (δ = 1, `mine_exceptions = false`,
    /// `redundancy_tau = None`).
    pub cube: FlowCube,
}

impl ShardPart {
    /// Write the part file: [`flowcube_serve::write_snapshot`]'s bytes
    /// for the cube plus the `shard` section.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<SnapshotInfo, SnapshotError> {
        write_snapshot_with(&self.cube, (KIND_SHARD, &self.map), path)
    }

    /// Open a part file the way `serve` opens it ([`ServedCube::open`],
    /// sidecar deltas included) and decode its cube
    /// ([`ServedCube::folded_cube`]). A snapshot without a `shard`
    /// section is [`SnapshotError::MissingSection`].
    pub fn open(path: impl AsRef<Path>) -> Result<ShardPart, SnapshotError> {
        let (served, _) = ServedCube::open(path.as_ref())?;
        Ok(ShardPart {
            map: served.snapshot().section(KIND_SHARD)?,
            cube: served.folded_cube()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for epc in 0..1000u64 {
            let s = shard_of(epc, 7);
            assert!(s < 7);
            assert_eq!(s, shard_of(epc, 7), "same epc, same shard");
        }
    }

    /// Placement is part of the contract between the build farm and the
    /// front tier: these assignments must never change.
    #[test]
    fn shard_of_is_pinned() {
        let first_twelve = |shards| {
            (0..12u64)
                .map(|epc| shard_of(epc, shards))
                .collect::<Vec<_>>()
        };
        assert_eq!(first_twelve(2), [1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]);
        assert_eq!(first_twelve(3), [1, 2, 1, 0, 1, 2, 2, 0, 1, 1, 1, 0]);
        assert_eq!(first_twelve(7), [2, 2, 4, 2, 6, 3, 3, 2, 4, 2, 1, 1]);
        for (epc, pinned) in [
            (u64::MAX, [0, 1, 32]),
            (1_000_003, [0, 4, 36]),
            (0xdead_beef, [1, 2, 27]),
        ] {
            assert_eq!(
                [2, 5, 64].map(|shards| shard_of(epc, shards)),
                pinned,
                "epc {epc}"
            );
        }
    }

    #[test]
    fn shard_of_spreads_sequential_epcs() {
        // Sequential EPCs must not stripe: every shard of a small count
        // sees a reasonable fraction of 10k consecutive ids.
        let shards = 4u32;
        let mut counts = vec![0usize; shards as usize];
        for epc in 0..10_000u64 {
            counts[shard_of(epc, shards) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (1_500..=3_500).contains(&c),
                "shard {i} got {c} of 10000 — partition badly skewed"
            );
        }
    }

    #[test]
    fn shard_db_validates_ids() {
        let db = flowcube_pathdb::samples::paper_table1();
        assert!(matches!(
            shard_db(&db, 2, 2),
            Err(FederateError::ShardCountMismatch {
                expected: 2,
                actual: 2
            })
        ));
        assert!(matches!(
            shard_db(&db, 0, 0),
            Err(FederateError::Config { .. })
        ));
        let total: usize = (0..3).map(|k| shard_db(&db, 3, k).unwrap().len()).sum();
        assert_eq!(total, db.len(), "partition is exhaustive and disjoint");
    }
}

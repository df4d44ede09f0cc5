//! Helpers shared by the root suites.

// Each suite compiles this module and uses part of it.
#![allow(dead_code)]

pub mod reference;
pub mod scenario;
pub mod table;

use flowcube::datagen::GeneratorConfig;
use flowcube::hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube::serve::write_snapshot;
use flowcube::testkit::temp_path;
use flowcube::{FlowCube, PathDatabase};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The differential suites' database: [`GeneratorConfig::small`] with
/// three to five stages per path and durations up to 4.
pub fn short_paths(num_paths: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        path_len: (3, 5),
        max_duration: 4,
        ..GeneratorConfig::small(num_paths, seed)
    }
}

/// Two path levels, the second coarser on both axes: leaf locations with
/// durations as recorded, and location groups with durations at `*`.
pub fn two_level_spec(db: &PathDatabase) -> PathLatticeSpec {
    let loc = db.schema().locations();
    PathLatticeSpec::new(vec![
        PathLevel::new(
            "leaf",
            LocationCut::uniform_level(loc, loc.max_level()),
            DurationLevel::Raw,
        ),
        PathLevel::new(
            "group",
            LocationCut::uniform_level(loc, loc.max_level().saturating_sub(1).max(1)),
            DurationLevel::Any,
        ),
    ])
}

/// Split `db` into `k` contiguous non-empty micro-batches.
pub fn split_db(db: &PathDatabase, k: usize) -> Vec<PathDatabase> {
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

/// A temp file path unique to this call: `name` plus a counter.
pub fn temp_file(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    temp_path(&format!("{}-{name}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// The bytes `write_snapshot` writes for `cube`, read back from a temp
/// file unique to this call.
pub fn snapshot_bytes(cube: &FlowCube) -> Vec<u8> {
    let path = temp_file("bytes.snap");
    write_snapshot(cube, &path).expect("snapshot writes");
    let bytes = std::fs::read(&path).expect("snapshot reads back");
    let _ = std::fs::remove_file(&path);
    bytes
}

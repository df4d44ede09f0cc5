//! Helpers shared by the root suites.

// Each suite compiles this module and uses part of it.
#![allow(dead_code)]

use flowcube::datagen::GeneratorConfig;
use flowcube::hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube::serve::write_snapshot;
use flowcube::testkit::temp_path;
use flowcube::{FlowCube, PathDatabase};
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

/// The bytes `write_snapshot` writes for `cube`, read back from a temp
/// file unique to this call.
pub fn snapshot_bytes(cube: &FlowCube) -> Vec<u8> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = temp_path(&format!(
        "bytes-{}.snap",
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    write_snapshot(cube, &path).expect("snapshot writes");
    let bytes = std::fs::read(&path).expect("snapshot reads back");
    let _ = std::fs::remove_file(&path);
    bytes
}

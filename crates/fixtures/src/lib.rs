//! `flowcube-fixtures`: what the test suites share, so that "a small
//! cube to test against" exists once.
//!
//! - [`small_cube`] and [`Scenario::small`]: the cube a suite builds
//!   when it needs *a* cube, with its database, lattice and parameters;
//! - [`reference`](mod@reference), [`scenario`], [`table`]: the one table — every
//!   pipeline that builds a flowcube answers what the paper's
//!   definitions answer (`tests/pipelines.rs` runs it);
//! - [`servers`]: a server over a cube, an N-shard × R-replica
//!   federation, and the request builders of in-process suites.
//!
//! A suite calls `FlowCube::build` itself only when the build is its
//! subject (`cube_tests`, `build_determinism`, `build_derivations`,
//! `obs_trace`). The pinned fixtures — the golden digest, the mining
//! crate's pinned stats, Table 1 — stay with their suites.
//!
//! The crates this one depends on take it as a dev-dependency. Their
//! integration suites then link one copy of the crate under test, so a
//! `ServedCube` made here is the suite's own type. Lib unit tests
//! (`#[cfg(test)]`) are compiled apart from that copy and cannot use it.

pub mod reference;
pub mod scenario;
pub mod servers;
pub mod table;

pub use scenario::{Lattice, Scenario, Small};
pub use servers::{
    cell_spec, counter, cube_server, federation, front_over, gauge, get_request, ingest, parse,
    served_file, server, server_at, shard_counts, shard_cube, shutdown_all, stop, CubeServer,
};

use flowcube_core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, GeneratorConfig};
use flowcube_hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube_pathdb::PathDatabase;
use flowcube_serve::write_snapshot;
use flowcube_testkit::temp_path;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Hold `lock` for the rest of the test: the tests that share a
/// process-global (failpoints, metrics, an environment variable) run one
/// at a time. A test that failed holding it does not stop the others.
pub fn serial(lock: &'static Mutex<()>) -> MutexGuard<'static, ()> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// The small cube of [`Scenario::small`]: 120 paths of
/// [`GeneratorConfig::small`], the paper's leaf path level, exceptions
/// on, built at δ = `min_support`.
pub fn small_cube(seed: u64, min_support: u64) -> Small {
    Scenario::small(seed, min_support).build()
}

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

/// A scratch snapshot path unique to this value. It and every sibling
/// the serve crate writes beside it — named `<snapshot>.<suffix>`: the
/// delta sidecar, compaction's marker and temp files, the writer's temp
/// file — are removed when it is made and when it drops.
pub struct TempSnapshot(PathBuf);

impl TempSnapshot {
    pub fn new(name: &str) -> Self {
        let snapshot = TempSnapshot(temp_file(name));
        snapshot.remove();
        snapshot
    }

    /// A scratch file that holds `bytes`.
    pub fn holding(name: &str, bytes: &[u8]) -> Self {
        let file = TempSnapshot::new(name);
        std::fs::write(&file, bytes).expect("scratch file writes");
        file
    }

    fn remove(&self) {
        let _ = std::fs::remove_file(&self.0);
        let (Some(dir), Some(name)) = (self.0.parent(), self.0.file_name()) else {
            return;
        };
        let mut prefix = name.to_os_string();
        prefix.push(".");
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            if entry
                .file_name()
                .as_encoded_bytes()
                .starts_with(prefix.as_encoded_bytes())
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

impl Drop for TempSnapshot {
    fn drop(&mut self) {
        self.remove();
    }
}

impl Deref for TempSnapshot {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempSnapshot {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

/// The bytes `write_snapshot` writes for `cube`.
pub fn snapshot_bytes(cube: &FlowCube) -> Vec<u8> {
    let path = TempSnapshot::new("bytes.snap");
    write_snapshot(cube, &path).expect("snapshot writes");
    std::fs::read(&path).expect("snapshot reads back")
}

/// The cube the checked-in format-1 file (`golden_v1_path`) was
/// written from. The file is frozen: nothing writes format 1 any more.
pub fn golden_v1_cube() -> FlowCube {
    let db = generate(&GeneratorConfig::small(30, 1)).db;
    let loc = db.schema().locations();
    let fine = LocationCut::uniform_level(loc, loc.max_level());
    // Hand-built, not `paper(_, 2)`: the file stores these level names.
    let spec = PathLatticeSpec::new(vec![
        PathLevel::new("fine", fine.clone(), DurationLevel::Raw),
        PathLevel::new("fine/any", fine, DurationLevel::Any),
    ]);
    let params = FlowCubeParams::new(4).with_threads(1);
    FlowCube::build(&db, spec, params, ItemPlan::All)
}

/// The checked-in format-1 snapshot.
pub fn golden_v1_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../serve/tests/fixtures/golden_v1.snap")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dropping a `TempSnapshot` removes every `<snapshot>.<suffix>`
    /// sibling — a trim's `.deltas.tmp` and a writer's `.write-tmp.<pid>`
    /// among them — and leaves a file that only shares its name's start.
    #[test]
    fn a_temp_snapshot_removes_every_sibling() {
        let snapshot = TempSnapshot::new("siblings.snap");
        let beside = |suffix: &str| {
            let mut name = snapshot.as_os_str().to_os_string();
            name.push(suffix);
            PathBuf::from(name)
        };
        let siblings = ["", ".deltas", ".deltas.tmp", ".compact.tmp", ".write-tmp.7"].map(beside);
        let stranger = beside("-other");
        for file in siblings.iter().chain([&stranger]) {
            std::fs::write(file, b"x").expect("scratch file writes");
        }
        drop(snapshot);
        for file in &siblings {
            assert!(!file.exists(), "{} is left", file.display());
        }
        assert!(stranger.exists(), "a file that is no sibling went");
        std::fs::remove_file(&stranger).expect("stranger removes");
    }
}

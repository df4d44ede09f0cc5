//! Helpers shared by the root differential suites.

// Each suite compiles this module and uses part of it.
#![allow(dead_code)]

use flowcube::datagen::{generate, DimShape, GeneratorConfig};
use flowcube::hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube::serve::write_snapshot;
use flowcube::{FlowCube, PathDatabase};
use std::sync::atomic::{AtomicU64, Ordering};

/// A generated path database with a two-level path lattice: two small
/// dimensions and five location sequences, so a proptest case builds in
/// milliseconds.
pub fn gen_db(paths: usize, seed: u64) -> (PathDatabase, PathLatticeSpec) {
    let config = GeneratorConfig {
        num_paths: paths,
        dims: vec![DimShape::new(vec![2, 3], 0.7); 2],
        num_sequences: 5,
        path_len: (3, 5),
        max_duration: 4,
        seed,
        ..Default::default()
    };
    let db = generate(&config).db;
    let loc = db.schema().locations();
    let fine = LocationCut::uniform_level(loc, loc.max_level());
    let spec = PathLatticeSpec::new(vec![
        PathLevel::new("fine", fine.clone(), DurationLevel::Raw),
        PathLevel::new("fine/any", fine, DurationLevel::Any),
    ]);
    (db, spec)
}

/// The bytes `write_snapshot` writes for `cube`, read back from a temp
/// file unique to this call.
pub fn snapshot_bytes(cube: &FlowCube) -> Vec<u8> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "flowcube-test-{}-{}.snap",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    write_snapshot(cube, &path).expect("snapshot writes");
    let bytes = std::fs::read(&path).expect("snapshot reads back");
    let _ = std::fs::remove_file(&path);
    bytes
}

//! Helpers shared by the root differential suites.

use flowcube::datagen::{generate, DimShape, GeneratorConfig};
use flowcube::hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube::PathDatabase;

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

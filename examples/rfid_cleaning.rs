//! End-to-end pipeline from raw RFID readings (paper §2): a simulated
//! `(EPC, location, time)` stream is cleaned into stays, converted to a
//! path database, and cubed.
//!
//! ```sh
//! cargo run --example rfid_cleaning
//! ```

use flowcube::core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube::datagen::{generate, to_readings, GeneratorConfig};
use flowcube::hier::PathLatticeSpec;
use flowcube::pathdb::{clean_readings, stays_to_record, CleanerConfig, PathDatabase};

fn main() {
    // Simulate a reader deployment: each generated path is exploded into
    // entry/exit readings per location.
    let config = GeneratorConfig {
        num_paths: 2_000,
        seed: 99,
        ..Default::default()
    };
    let generated = generate(&config);
    let readings = to_readings(&generated.db);
    println!(
        "raw stream: {} readings for {} items",
        readings.len(),
        generated.db.len()
    );

    // Clean: group by EPC, sort by time, collapse stays.
    let cleaner = CleanerConfig::default();
    let cleaned = clean_readings(readings, &cleaner);
    println!("cleaned into {} item trajectories", cleaned.len());

    // Re-attach item dimensions (in a real deployment these come from a
    // product master keyed by EPC) and rebuild the path database.
    let mut db = PathDatabase::new(generated.db.schema().clone());
    for (epc, stays) in &cleaned {
        let dims = generated
            .db
            .records()
            .iter()
            .find(|r| r.id == *epc)
            .expect("EPC in master data")
            .dims
            .clone();
        db.push(stays_to_record(*epc, dims, stays, &cleaner))
            .expect("cleaned record is valid");
    }
    println!("path database rebuilt: {} records", db.len());

    // Sanity: cleaning is lossless for this reader model.
    let matches = db
        .records()
        .iter()
        .zip(generated.db.records())
        .filter(|(a, b)| a.stages == b.stages)
        .count();
    println!("stage-exact reconstructions: {matches}/{}", db.len());

    // Cube the reconstruction.
    let cube = FlowCube::build(
        &db,
        PathLatticeSpec::paper(db.schema().locations(), 1),
        FlowCubeParams::new(40).with_exceptions(false),
        ItemPlan::All,
    );
    println!(
        "cube: {} cuboids, {} cells [{}]",
        cube.num_cuboids(),
        cube.total_cells(),
        cube.stats().summary()
    );
}

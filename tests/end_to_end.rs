//! Workspace-level integration: the full pipeline from raw RFID readings
//! to a queried flowcube, and the cube's laws on fixed databases. The
//! laws are the ones the table's rows check (`common::table`).

use flowcube::core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube::datagen::{generate, to_readings, GeneratorConfig};
use flowcube::hier::{ConceptId, ItemLevel};
use flowcube::pathdb::{clean_readings, stays_to_record, CleanerConfig, PathDatabase};

mod common;
use common::table::{node_conservation, roll_up_laws};
use common::two_level_spec;

fn pipeline_db(num_paths: usize, seed: u64) -> PathDatabase {
    let config = GeneratorConfig {
        num_paths,
        seed,
        ..Default::default()
    };
    let generated = generate(&config);
    // Through the cleaner and back.
    let readings = to_readings(&generated.db);
    let cleaned = clean_readings(readings, &CleanerConfig::default());
    let mut db = PathDatabase::new(generated.db.schema().clone());
    for (epc, stays) in &cleaned {
        let dims = generated
            .db
            .records()
            .iter()
            .find(|r| r.id == *epc)
            .unwrap()
            .dims
            .clone();
        db.push(stays_to_record(
            *epc,
            dims,
            stays,
            &CleanerConfig::default(),
        ))
        .unwrap();
    }
    db
}

#[test]
fn readings_to_cube_pipeline() {
    let db = pipeline_db(500, 17);
    let spec = two_level_spec(&db);
    let cube = FlowCube::build(
        &db,
        spec,
        FlowCubeParams::new(25).with_exceptions(false),
        ItemPlan::All,
    );
    assert!(cube.total_cells() > 0);
    // Apex cell at each path level covers all records.
    let apex_key = vec![ConceptId::ROOT; db.schema().num_dims()];
    for pl in 0..cube.spec().len() as u16 {
        let apex = cube.cell(&apex_key, pl).expect("apex");
        assert_eq!(apex.support, db.len() as u64);
    }
}

/// The cube over `config`'s database at δ = 1, exceptions off, every
/// item level.
fn cube_at_delta_1(config: &GeneratorConfig) -> (PathDatabase, FlowCube) {
    let db = generate(config).db;
    let params = FlowCubeParams::new(1).with_exceptions(false);
    let cube = FlowCube::build(&db, two_level_spec(&db), params, ItemPlan::All);
    (db, cube)
}

/// Node-local invariants of every materialized flowgraph, on a cube of
/// cleaned readings: child counts plus terminations equal the node
/// count, duration observations equal it, transition probabilities sum
/// to 1.
#[test]
fn flowgraph_conservation_invariants() {
    let db = pipeline_db(400, 23);
    let params = FlowCubeParams::new(10).with_exceptions(false);
    let cube = FlowCube::build(&db, two_level_spec(&db), params, ItemPlan::All);
    let checked = node_conservation(&cube).unwrap_or_else(|e| panic!("{e}"));
    assert!(checked > 100);
}

/// Lemma 4.2 at cube granularity (δ = 1, so nothing is iceberg-pruned):
/// the apex graph is the merge of a full level-1 partition of each
/// dimension, and its support their sum. The table's roll-up laws row
/// checks every parent, on generated scenarios.
#[test]
fn parent_graph_is_merge_of_children() {
    let config = GeneratorConfig {
        num_paths: 300,
        seed: 31,
        ..Default::default()
    };
    let (_, cube) = cube_at_delta_1(&config);
    let apex = |level: &ItemLevel| level.0.iter().all(|&l| l == 0);
    roll_up_laws(&cube, apex).unwrap_or_else(|e| panic!("{e}"));
}

/// At δ = 1 the cells of every cuboid partition the database.
#[test]
fn cuboid_partitions_database() {
    let config = GeneratorConfig {
        num_paths: 250,
        seed: 41,
        ..Default::default()
    };
    let (db, cube) = cube_at_delta_1(&config);
    for (ck, cuboid) in cube.cuboids() {
        let total: u64 = cuboid.iter().map(|(_, e)| e.support).sum();
        assert_eq!(total, db.len() as u64, "{ck:?}");
    }
}

/// The facade crate re-exports work end to end.
#[test]
fn facade_reexports() {
    let db = flowcube::pathdb::samples::paper_table1();
    let spec = flowcube::PathLatticeSpec::paper(db.schema().locations(), 1);
    let cube = flowcube::FlowCube::build(
        &db,
        spec,
        flowcube::FlowCubeParams::new(2),
        flowcube::ItemPlan::All,
    );
    assert!(cube.total_cells() > 0);
}

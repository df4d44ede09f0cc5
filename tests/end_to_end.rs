//! Workspace-level integration: the full pipeline from raw RFID readings
//! to a queried flowcube, plus cross-crate invariants.

use flowcube::core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube::datagen::{generate, to_readings, GeneratorConfig};
use flowcube::hier::{ConceptId, ItemLevel};
use flowcube::pathdb::{clean_readings, stays_to_record, CleanerConfig, PathDatabase};

mod common;
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

/// Node-local invariants of every materialized flowgraph: child counts
/// plus terminations equal the node count; duration observations equal
/// the node count; transition probabilities sum to 1.
#[test]
fn flowgraph_conservation_invariants() {
    let db = pipeline_db(400, 23);
    let spec = two_level_spec(&db);
    let cube = FlowCube::build(
        &db,
        spec,
        FlowCubeParams::new(10).with_exceptions(false),
        ItemPlan::All,
    );
    let mut checked = 0;
    for (_, cuboid) in cube.cuboids() {
        for (_, entry) in cuboid.iter() {
            let g = &entry.graph;
            for n in g.node_ids() {
                let children_sum: u64 = g.children(n).iter().map(|&c| g.count(c)).sum();
                assert_eq!(
                    children_sum + g.terminate_count(n),
                    g.count(n),
                    "flow conservation"
                );
                if n != flowcube::flowgraph::NodeId::ROOT {
                    assert_eq!(g.durations(n).total(), g.count(n));
                }
                if g.count(n) > 0 {
                    let p: f64 = g.transitions(n).probabilities().map(|(_, p)| p).sum();
                    assert!((p - 1.0).abs() < 1e-9);
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 100);
}

/// Lemma 4.2 at cube granularity: the apex flowgraph equals the merge of
/// a full level-1 partition of one dimension (δ = 1 so nothing is
/// iceberg-pruned).
#[test]
fn parent_graph_is_merge_of_children() {
    let config = GeneratorConfig {
        num_paths: 300,
        seed: 31,
        ..Default::default()
    };
    let db = generate(&config).db;
    let spec = two_level_spec(&db);
    let cube = FlowCube::build(
        &db,
        spec,
        FlowCubeParams::new(1).with_exceptions(false),
        ItemPlan::All,
    );
    let dims = db.schema().num_dims();
    let apex_key = vec![ConceptId::ROOT; dims];
    let apex = cube.cell(&apex_key, 0).unwrap();

    // Merge the (v, *, …, *) cells over all level-1 values of dim 0.
    let mut merged = flowcube::FlowGraph::new();
    let level = ItemLevel(
        std::iter::once(1)
            .chain(std::iter::repeat_n(0, dims - 1))
            .collect(),
    );
    let cuboid = cube.cuboid(&level, 0).expect("level-1 cuboid");
    let mut total = 0;
    for (_, entry) in cuboid.iter() {
        merged.merge(&entry.graph);
        total += entry.support;
    }
    assert_eq!(total, apex.support);
    let diff = flowcube::flowgraph::diff(&merged, &apex.graph);
    assert!(
        diff.is_empty(),
        "{}",
        diff.render(db.schema().locations(), 8)
    );
}

/// Cell supports within one cuboid partition the database when the item
/// level fully specifies every dimension at level 1 and δ = 1.
#[test]
fn cuboid_partitions_database() {
    let config = GeneratorConfig {
        num_paths: 250,
        seed: 41,
        ..Default::default()
    };
    let db = generate(&config).db;
    let spec = two_level_spec(&db);
    let cube = FlowCube::build(
        &db,
        spec,
        FlowCubeParams::new(1).with_exceptions(false),
        ItemPlan::All,
    );
    let dims = db.schema().num_dims();
    let level = ItemLevel(vec![1; dims]);
    let cuboid = cube.cuboid(&level, 0).expect("all-dims level-1 cuboid");
    let total: u64 = cuboid.iter().map(|(_, e)| e.support).sum();
    assert_eq!(total, db.len() as u64);
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

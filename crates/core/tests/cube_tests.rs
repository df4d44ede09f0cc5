//! End-to-end tests of flowcube construction and navigation on the
//! paper's running example and on synthetic data.

use flowcube_core::{
    display_key, CellEntry, CellKey, Cuboid, CuboidKey, FlowCube, FlowCubeParams, ItemPlan,
};
use flowcube_datagen::{generate, GeneratorConfig};
use flowcube_flowgraph::{FlowGraph, NodeId, NodeSpec};
use flowcube_hier::{ConceptId, DurationLevel, ItemLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube_pathdb::samples;

fn paper_cube(min_support: u64) -> (flowcube_pathdb::PathDatabase, FlowCube) {
    let db = samples::paper_table1();
    let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
    let cube = FlowCube::build(&db, spec, FlowCubeParams::new(min_support), ItemPlan::All);
    (db, cube)
}

#[test]
fn apex_cell_covers_everything() {
    let (db, cube) = paper_cube(2);
    let key = vec![ConceptId::ROOT, ConceptId::ROOT];
    let entry = cube.cell(&key, 0).expect("apex cell");
    assert_eq!(entry.support, db.len() as u64);
    assert_eq!(entry.graph.total_paths(), 8);
}

/// Figure 4: the flowgraph for cell (outerwear, nike) summarizes paths
/// 4, 5, 6 — factory → truck → {shelf → checkout, warehouse}.
#[test]
fn figure4_outerwear_nike_cell() {
    let (db, cube) = paper_cube(2);
    let schema = db.schema();
    let entry = cube
        .cell_by_names(&[Some("outerwear"), Some("nike")], "loc0/dur0")
        .expect("(outerwear, nike) cell");
    assert_eq!(entry.support, 3);
    let loc = schema.locations();
    let f = loc.id_of("factory").unwrap();
    let t = loc.id_of("truck").unwrap();
    let s = loc.id_of("shelf").unwrap();
    let w = loc.id_of("warehouse").unwrap();
    let g = &entry.graph;
    let ft = g.node_by_prefix(&[f, t]).expect("factory→truck branch");
    assert_eq!(g.count(ft), 3);
    let trans = g.transitions(ft);
    assert!((trans.probability(Some(s)) - 2.0 / 3.0).abs() < 1e-9);
    assert!((trans.probability(Some(w)) - 1.0 / 3.0).abs() < 1e-9);
    // no dist_center branch in this cell
    let d = loc.id_of("dist_center").unwrap();
    assert!(g.node_by_prefix(&[f, d]).is_none());
}

#[test]
fn lookup_falls_back_to_ancestors() {
    let (db, cube) = paper_cube(2);
    let schema = db.schema();
    let shirt = schema.dim(0).id_of("shirt").unwrap();
    let nike = schema.dim(1).id_of("nike").unwrap();
    // (shirt, nike) was iceberg-pruned; lookup walks to a parent.
    let lk = cube.lookup(&[shirt, nike], 0).expect("ancestor fallback");
    assert!(!lk.exact);
    // the parent is (outerwear, nike) (support 3 ≥ 2)
    assert_eq!(
        flowcube_core::display_key(lk.source_key, schema),
        "(outerwear, nike)"
    );
    // exact lookups report exact
    let tennis = schema.dim(0).id_of("tennis").unwrap();
    let lk = cube.lookup(&[tennis, nike], 0).expect("tennis nike");
    assert!(lk.exact);
}

#[test]
fn roll_up_and_drill_down_navigate_lattice() {
    let (db, cube) = paper_cube(2);
    let schema = db.schema();
    let tennis = schema.dim(0).id_of("tennis").unwrap();
    let nike = schema.dim(1).id_of("nike").unwrap();
    let key = vec![tennis, nike];
    // roll up product: tennis → shoes
    let (parent_key, parent) = cube.roll_up(&key, 0, 0).expect("roll-up");
    assert_eq!(schema.dim(0).name_of(parent_key[0]), "shoes");
    assert_eq!(parent.support, 3); // shoes+nike = records 1,2,3
                                   // drill shoes back down: tennis (support 2); sandals pruned (1 path)
    let children = cube.drill_down(&parent_key, 0, 0);
    assert_eq!(children.len(), 1);
    assert_eq!(schema.dim(0).name_of(children[0].0[0]), "tennis");
    // rolling up a * dimension is None
    let apex = vec![ConceptId::ROOT, ConceptId::ROOT];
    assert!(cube.roll_up(&apex, 0, 0).is_none());
}

#[test]
fn slice_and_dice() {
    let (db, cube) = paper_cube(2);
    let schema = db.schema();
    let nike = schema.dim(1).id_of("nike").unwrap();
    let level = ItemLevel(vec![2, 2]); // (type, brand)
    let sliced = cube.slice(&level, 0, 1, nike);
    // (shoes, nike) and (outerwear, nike)
    assert_eq!(sliced.len(), 2);
    let diced = cube.dice(&level, 0, |k| k[1] == nike);
    assert_eq!(diced.len(), 2);
    let all = cube.dice(&level, 0, |_| true);
    assert!(all.len() >= 2);
}

#[test]
fn build_threads_policy_controls_materialization() {
    // The paper cube has 4 path levels × a handful of cells — enough
    // work items to clear the default cutoff of 8, so an explicit
    // request is honored; a raised cutoff forces it back to serial.
    let db = samples::paper_table1();
    let cube = FlowCube::build(
        &db,
        PathLatticeSpec::paper(db.schema().locations(), 4),
        FlowCubeParams::new(2).with_threads(2),
        ItemPlan::All,
    );
    assert_eq!(cube.stats().threads_used, 2);
    let serial = FlowCube::build(
        &db,
        PathLatticeSpec::paper(db.schema().locations(), 4),
        FlowCubeParams::new(2)
            .with_threads(2)
            .with_parallel_cutoff(10_000),
        ItemPlan::All,
    );
    assert_eq!(serial.stats().threads_used, 1);
    cube.ensure_same(&serial).unwrap_or_else(|d| panic!("{d}"));
}

#[test]
fn plan_restricts_materialized_levels() {
    let db = samples::paper_table1();
    let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
    let observation = ItemLevel(vec![2, 2]);
    let minimum = ItemLevel(vec![1, 1]);
    let plan = ItemPlan::Layers {
        minimum: minimum.clone(),
        observation: observation.clone(),
        popular: vec![],
    };
    let cube = FlowCube::build(&db, spec, FlowCubeParams::new(2), plan);
    for (ck, _) in cube.cuboids() {
        assert!(
            ck.item_level == observation || ck.item_level == minimum,
            "unexpected level {:?}",
            ck.item_level
        );
    }
    assert!(cube.cuboid(&observation, 0).is_some());
}

#[test]
fn redundancy_pruning_drops_lookalike_children() {
    // Synthetic data where children mirror their parents' flow behavior:
    // most specialized cells should be pruned as redundant.
    let config = GeneratorConfig {
        num_paths: 400,
        num_sequences: 5,
        seed: 3,
        ..Default::default()
    };
    let out = generate(&config);
    let loc = out.db.schema().locations();
    let spec = PathLatticeSpec::new(vec![PathLevel::new(
        "leaf/*",
        LocationCut::uniform_level(loc, 2),
        DurationLevel::Any,
    )]);
    let full = FlowCube::build(
        &out.db,
        spec.clone(),
        FlowCubeParams::new(20).with_exceptions(false),
        ItemPlan::All,
    );
    let pruned = FlowCube::build(
        &out.db,
        spec,
        FlowCubeParams::new(20)
            .with_exceptions(false)
            .with_redundancy(0.5),
        ItemPlan::All,
    );
    assert!(pruned.total_cells() < full.total_cells());
    assert_eq!(
        pruned.total_cells() + pruned.stats().cells_pruned_redundant,
        full.total_cells()
    );
    // The apex cuboid survives (no parents → never redundant).
    let apex = ItemLevel::top(out.db.schema().num_dims());
    assert!(pruned.cuboid(&apex, 0).is_some());
    // Pruned cells remain answerable through ancestors.
    let (key, _) = full
        .cuboids()
        .flat_map(|(_, c)| c.iter())
        .next()
        .map(|(k, e)| (k.clone(), e.support))
        .unwrap();
    assert!(pruned.lookup(&key, 0).is_some());
}

#[test]
fn exceptions_survive_cube_construction() {
    // Engineered database: in cell (tennis, nike), duration 9 at the
    // factory flips the next location.
    use flowcube_pathdb::{PathDatabase, PathRecord, Stage};
    let schema = samples::paper_schema();
    let l = |n: &str| schema.locations().id_of(n).unwrap();
    let tennis = schema.dim(0).id_of("tennis").unwrap();
    let nike = schema.dim(1).id_of("nike").unwrap();
    let mut db = PathDatabase::new(schema.clone());
    for i in 0..6 {
        db.push(PathRecord::new(
            i,
            vec![tennis, nike],
            vec![Stage::new(l("factory"), 1), Stage::new(l("shelf"), 1)],
        ))
        .unwrap();
    }
    for i in 6..12 {
        db.push(PathRecord::new(
            i,
            vec![tennis, nike],
            vec![Stage::new(l("factory"), 9), Stage::new(l("warehouse"), 1)],
        ))
        .unwrap();
    }
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let mut params = FlowCubeParams::new(4);
    params.exception_deviation = 0.3;
    let cube = FlowCube::build(&db, spec, params, ItemPlan::All);
    let entry = cube
        .cell_by_names(&[Some("tennis"), Some("nike")], "loc0/dur0")
        .unwrap();
    assert!(
        !entry.exceptions.is_empty(),
        "expected a transition exception given (factory,9)"
    );
    let has_factory_condition = entry
        .exceptions
        .iter()
        .any(|e| e.condition.len() == 1 && e.deviation >= 0.3 && e.support >= 4);
    assert!(has_factory_condition);
}

#[test]
fn describe_and_name_helpers() {
    let (_, cube) = paper_cube(2);
    assert!(cube.path_level_id("loc0/dur0").is_some());
    assert!(cube.path_level_id("nope").is_none());
    let key = cube
        .key_from_names(&[Some("tennis"), Some("nike")])
        .unwrap();
    let desc = cube.describe_cell(&key, 0);
    assert!(desc.contains("tennis"), "{desc}");
    assert!(desc.contains("paths"), "{desc}");
    let missing = cube.key_from_names(&[Some("shirt"), Some("nike")]).unwrap();
    assert!(cube.describe_cell(&missing, 0).contains("not materialized"));
    assert!(cube.key_from_names(&[Some("tennis")]).is_none());
    assert!(cube.key_from_names(&[Some("mars"), None]).is_none());
}

#[test]
fn merge_rejects_incompatible_cubes() {
    let (_, a) = paper_cube(2);
    // Different spec length.
    let db = samples::paper_table1();
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let b = FlowCube::build(&db, spec, FlowCubeParams::new(2), ItemPlan::All);
    // A comparison refuses the pair with the merge's own error.
    let refused = a.compare(&b).unwrap_err();
    match FlowCube::merge_partitions(&[a, b], FlowCubeParams::new(2)) {
        Err(e @ flowcube_core::CoreError::PathSpecMismatch { .. }) => assert_eq!(e, refused),
        other => panic!("expected PathSpecMismatch, got {other:?}"),
    }
}

/// `from_parts` + `insert_cuboid` reassemble a cube that answers the
/// same queries as the original (the snapshot loader's contract).
#[test]
fn from_parts_reassembles_cube() {
    let (_, cube) = paper_cube(2);
    let mut shell = FlowCube::from_parts(
        cube.schema().clone(),
        cube.spec().clone(),
        cube.params().clone(),
        cube.stats().clone(),
    );
    assert_eq!(shell.num_cuboids(), 0);
    for (ck, cuboid) in cube.cuboids() {
        assert!(!shell.has_cuboid(ck));
        shell.insert_cuboid(ck.clone(), cuboid.clone());
        assert!(shell.has_cuboid(ck));
    }
    assert_eq!(shell.num_cuboids(), cube.num_cuboids());
    assert_eq!(shell.total_cells(), cube.total_cells());
    // Name-based lookup works without an explicit rebuild_indexes call.
    let a = cube
        .cell_by_names(&[Some("outerwear"), Some("nike")], "loc0/dur0")
        .unwrap();
    let b = shell
        .cell_by_names(&[Some("outerwear"), Some("nike")], "loc0/dur0")
        .unwrap();
    assert_eq!(a.support, b.support);
    // Typed resolution helpers.
    let pl = shell.require_path_level("loc0/dur0").unwrap();
    assert_eq!(pl, cube.path_level_id("loc0/dur0").unwrap());
    match shell.require_path_level("nope") {
        Err(flowcube_core::CoreError::UnknownPathLevel { name }) => assert_eq!(name, "nope"),
        other => panic!("expected UnknownPathLevel, got {other:?}"),
    }
    assert!(shell.require_key("outerwear,nike").is_ok());
    assert!(matches!(
        shell.require_key("martian,nike"),
        Err(flowcube_core::CoreError::UnresolvedCell { .. })
    ));
}

#[test]
fn prediction_through_cell_entry() {
    let (db, cube) = paper_cube(2);
    let schema = db.schema();
    let loc = schema.locations();
    let apex = vec![ConceptId::ROOT, ConceptId::ROOT];
    let cell = cube.cell(&apex, 0).unwrap();
    // After factory with any duration: dist_center 5/8, truck 3/8.
    let observed = [flowcube_pathdb::AggStage {
        loc: loc.id_of("factory").unwrap(),
        dur: None,
    }];
    let dist = cell.predict_next(&observed).unwrap();
    let dc = loc.id_of("dist_center").unwrap();
    assert!((dist.probability(Some(dc)) - 5.0 / 8.0).abs() < 1e-9);
    // Unknown location prefix → None.
    let bogus = [flowcube_pathdb::AggStage {
        loc: loc.id_of("checkout").unwrap(),
        dur: None,
    }];
    assert!(cell.predict_next(&bogus).is_none());
}

#[test]
fn stats_are_populated() {
    let (_, cube) = paper_cube(2);
    let s = cube.stats();
    assert!(s.frequent_cells > 0);
    assert!(s.cells_materialized > 0);
    assert!(s.mining.total_frequent() > 0);
    assert!(s.summary().contains("cells="));
}

/// `g` with node `bump`'s count one higher and `total_paths` paths.
fn rebuilt(g: &FlowGraph, bump: Option<NodeId>, total_paths: u64) -> FlowGraph {
    let nodes = (g.node_ids())
        .map(|n| NodeSpec {
            loc: g.location(n),
            parent: g.parent(n),
            children: g.children(n).to_vec(),
            count: g.count(n) + u64::from(Some(n) == bump),
            terminate: g.terminate_count(n),
            durations: g.durations(n).iter().collect(),
        })
        .collect();
    FlowGraph::from_nodes(nodes, total_paths).unwrap()
}

/// `compare` names exactly the cell a perturbation touched: one node
/// count, one exception, one missing cell, one path total, one
/// redundancy mark.
#[test]
fn compare_names_exactly_the_perturbed_cell() {
    let config = GeneratorConfig {
        num_paths: 300,
        seed: 11,
        ..Default::default()
    };
    let db = generate(&config).db;
    let cube = FlowCube::build(
        &db,
        PathLatticeSpec::paper(db.schema().locations(), 4),
        FlowCubeParams::new(10),
        ItemPlan::All,
    );
    assert!(cube.compare(&cube).unwrap().is_empty());
    // `f` edits one cuboid of a copy of the cube.
    let compare_edited = |ck: &CuboidKey, f: &dyn Fn(&mut Cuboid)| {
        let mut copy = cube.clone();
        let mut cuboid = cube.cuboid(&ck.item_level, ck.path_level).unwrap().clone();
        f(&mut cuboid);
        copy.insert_cuboid(ck.clone(), cuboid);
        copy.compare(&cube).unwrap()
    };
    // `f` edits one cell; the comparison names that cell and no other.
    let changed = |ck: &CuboidKey, key: &CellKey, f: &dyn Fn(&mut CellEntry)| {
        let diff = compare_edited(ck, &|c| f(c.cells.get_mut(key).unwrap()));
        let rendered = diff.render(&cube, 8);
        assert!(rendered.contains(&display_key(key, cube.schema())));
        assert!(diff.left_only.is_empty() && diff.right_only.is_empty());
        assert_eq!(diff.changed.len(), 1, "{rendered}");
        let cell = diff.changed.into_iter().next().unwrap();
        assert_eq!((&cell.cuboid, &cell.key), (ck, key));
        cell
    };
    let cells: Vec<(CuboidKey, CellKey)> = (cube.all_cells().into_iter())
        .flat_map(|(ck, keys)| keys.into_iter().map(move |k| (ck.clone(), k)))
        .collect();

    // One node's count: the node and its parent (whose transitions count
    // the node) are the nodes named.
    let (ck, key) = &cells[cells.len() / 2];
    let graph = &cube.cell(key, ck.path_level).unwrap().graph;
    let node = NodeId((graph.len() - 1) as u32);
    let cell = changed(ck, key, &|e| {
        e.graph = rebuilt(&e.graph, Some(node), e.graph.total_paths());
    });
    assert_eq!(cell.support.0, cell.support.1);
    assert!(!cell.exceptions_differ);
    let mut named: Vec<_> = cell.graph.deltas.iter().map(|d| d.prefix.clone()).collect();
    named.sort();
    let mut want = [graph.prefix_of(node), graph.prefix_of(graph.parent(node))];
    want.sort();
    assert_eq!(named, want);

    // One exception dropped.
    let (ck, key) = (cells.iter())
        .find(|(ck, key)| !cube.cell(key, ck.path_level).unwrap().exceptions.is_empty())
        .expect("the cube has an exception");
    let cell = changed(ck, key, &|e| {
        e.exceptions.pop();
    });
    assert!(cell.exceptions_differ && cell.graph.is_empty());

    // One path total: every node agrees, the root is named.
    let (ck, key) = &cells[cells.len() - 1];
    let cell = changed(ck, key, &|e| {
        e.graph = rebuilt(&e.graph, None, e.graph.total_paths() + 1);
    });
    assert_eq!(cell.graph.deltas.len(), 1);
    assert!(cell.graph.deltas[0].prefix.is_empty());

    // One redundancy mark flipped.
    let (ck, key) = &cells[1];
    let cell = changed(ck, key, &|e| e.redundant = !e.redundant);
    assert_ne!(cell.redundant.0, cell.redundant.1);
    assert!(!cell.exceptions_differ && cell.graph.is_empty());

    // One cell missing on the left.
    let (ck, key) = &cells[0];
    let diff = compare_edited(ck, &|c| assert!(c.cells.remove(key).is_some()));
    assert!(diff.left_only.is_empty() && diff.changed.is_empty());
    assert_eq!(diff.right_only, vec![(ck.clone(), key.clone())]);
}

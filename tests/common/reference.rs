//! The flowcube as the paper defines it, computed the slow, obvious way:
//! the oracle every pipeline in `tests/pipelines.rs` must equal.
//!
//! Each step is one definition, applied to whole path lists:
//!
//! - the cells are one group-by per item level (Gray et al., *Data
//!   Cube*), kept at δ paths or more (the iceberg condition);
//! - a cell's measure at a path level is the flowgraph of its own paths
//!   aggregated to that level, walked and canonicalized (Definition 3.1);
//! - with τ set, a (cell, level) goes when it has a parent cell at the
//!   same path level and lies within τ of every one, judged against the
//!   parents' unpruned graphs (Definition 4.4);
//! - with exceptions on, the survivors carry the exceptions mined from
//!   their paths (Lemma 4.3).
//!
//! Nothing here calls the build, BUC, the mining crate or the build's
//! counting tables: a bug there cannot hide in the oracle.

use flowcube::core::{aggregate_key, BuildStats, CellEntry, CellKey, Cuboid, CuboidKey};
use flowcube::flowgraph::{is_redundant, mine_exceptions, ExceptionParams, KlSimilarity};
use flowcube::hier::ItemLattice;
use flowcube::pathdb::{aggregate_stages, AggStage};
use flowcube::{FlowCube, FlowCubeParams, FlowGraph, ItemPlan, PathDatabase, PathLatticeSpec};
use std::collections::BTreeMap;

/// The cube `FlowCube::build(db, spec, params, plan)` must build. Its
/// stats hold the (cell, level) pairs materialized and those pruned.
pub fn reference_cube(
    db: &PathDatabase,
    spec: &PathLatticeSpec,
    params: &FlowCubeParams,
    plan: &ItemPlan,
) -> FlowCube {
    let schema = db.schema();
    // Every (cell, path level): its paths at the level and their graph.
    let mut measures = BTreeMap::new();
    let item_levels = ItemLattice::new(schema.max_item_levels()).iter_top_down();
    for item_level in item_levels.into_iter().filter(|level| plan.includes(level)) {
        let mut groups: BTreeMap<CellKey, Vec<_>> = BTreeMap::new();
        for record in db.records() {
            let key = aggregate_key(&record.dims, &item_level, schema);
            groups.entry(key).or_default().push(record);
        }
        groups.retain(|_, records| records.len() as u64 >= params.min_support);
        for (key, records) in &groups {
            for path_level in spec.ids() {
                let level = spec.level(path_level);
                let paths: Vec<Vec<AggStage>> = (records.iter())
                    .map(|r| aggregate_stages(&r.stages, level, params.merge).expect("cut covers"))
                    .collect();
                let mut graph = FlowGraph::build(paths.iter().map(Vec::as_slice));
                graph.canonicalize();
                let ck = CuboidKey {
                    item_level: item_level.clone(),
                    path_level,
                };
                measures.insert((ck, key.clone()), (paths, graph));
            }
        }
    }

    let exception_params = ExceptionParams {
        min_support: params.min_support,
        min_deviation: params.exception_deviation,
    };
    let mut cuboids: BTreeMap<CuboidKey, Cuboid> = BTreeMap::new();
    let mut pruned = 0;
    for ((ck, key), (paths, graph)) in &measures {
        let parents: Vec<&FlowGraph> = (ck.item_level.parents().into_iter())
            .filter_map(|item_level| {
                let parent_key = aggregate_key(key, &item_level, schema);
                let parent = CuboidKey {
                    item_level,
                    path_level: ck.path_level,
                };
                Some(&measures.get(&(parent, parent_key))?.1)
            })
            .collect();
        let metric = KlSimilarity::default();
        if (params.redundancy_tau).is_some_and(|tau| is_redundant(graph, &parents, &metric, tau)) {
            pruned += 1;
            continue;
        }
        let exceptions = match params.mine_exceptions {
            true => mine_exceptions(graph, paths, &exception_params),
            false => Vec::new(),
        };
        let entry = CellEntry {
            support: paths.len() as u64,
            graph: graph.clone(),
            exceptions,
            redundant: false,
        };
        (cuboids.entry(ck.clone()).or_default().cells).insert(key.clone(), entry);
    }

    // Every cell counts at every path level, stored or pruned.
    let stats = BuildStats {
        cells_materialized: measures.len(),
        cells_pruned_redundant: pruned,
        ..BuildStats::default()
    };
    let mut cube = FlowCube::from_parts(schema.clone(), spec.clone(), params.clone(), stats);
    for (ck, cuboid) in cuboids {
        cube.insert_cuboid(ck, cuboid);
    }
    cube
}

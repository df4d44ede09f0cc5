//! Whatever order a spec lists its duration levels in, and whether a
//! level's counts were taken from the path dictionary or rolled up from
//! a finer level on the same location cut, every materialized cell holds
//! the graph of Definition 3.1: its own paths, aggregated at its own path
//! level, walked and canonicalized — and the exceptions mined from
//! exactly those paths, whether they were mined before redundancy
//! pruning or, as the build does, only for the cells that survive it.
//! The cells the build stores are the ones Definition 4.4, applied to
//! those graphs with `is_redundant` and the KL metric, keeps.

use flowcube::core::aggregate_key;
use flowcube::datagen::{generate, DimShape, GeneratorConfig};
use flowcube::flowgraph::{is_redundant, mine_exceptions, ExceptionParams, KlSimilarity};
use flowcube::hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube::pathdb::{aggregate_stages, AggStage, MergePolicy};
use flowcube::{FlowCube, FlowCubeParams, FlowGraph, ItemPlan};
use proptest::prelude::*;

/// `Bucket(3)` refines neither `Bucket(2)` nor `Bucket(4)`, so a spec
/// holding it next to them has levels on one cut that must each be
/// walked; `Raw` refines all, `Any` none.
const DURATIONS: [DurationLevel; 5] = [
    DurationLevel::Raw,
    DurationLevel::Bucket(2),
    DurationLevel::Bucket(3),
    DurationLevel::Bucket(4),
    DurationLevel::Any,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_cell_holds_its_walked_graph(
        seed in 0u64..10_000,
        // (duration level, coarse cut?) per path level, in spec order.
        picks in prop::collection::vec((0usize..DURATIONS.len(), 0u8..2), 2..=5),
        merge in 0usize..3,
        exceptions in 0u8..2,
        tau in 0usize..3,
    ) {
        let config = GeneratorConfig {
            num_paths: 200,
            dims: vec![DimShape::new(vec![2, 2], 0.7); 2],
            num_sequences: 4,
            path_len: (2, 5),
            max_duration: 9,
            seed,
            ..Default::default()
        };
        let db = generate(&config).db;
        let loc = db.schema().locations();
        // A spec lists a path level once; `a_repeated_level_is_rejected`
        // below holds the other case.
        let mut distinct = Vec::new();
        for pick in picks {
            if !distinct.contains(&pick) {
                distinct.push(pick);
            }
        }
        let levels: Vec<PathLevel> = distinct
            .iter()
            .enumerate()
            .map(|(i, &(d, coarse))| {
                let cut = LocationCut::uniform_level(loc, loc.max_level() - coarse);
                PathLevel::new(format!("l{i}"), cut, DURATIONS[d])
            })
            .collect();
        let spec = PathLatticeSpec::new(levels);
        let mut params = FlowCubeParams::new(4)
            .with_exceptions(exceptions == 1)
            .with_threads(2)
            .with_parallel_cutoff(2);
        params.merge = [MergePolicy::Sum, MergePolicy::Max, MergePolicy::First][merge];
        params.redundancy_tau = [None, Some(0.05), Some(0.3)][tau];
        let cube = FlowCube::build(&db, spec.clone(), params.clone(), ItemPlan::All);
        prop_assert!(cube.total_cells() > 0);

        if let Some(tau) = params.redundancy_tau {
            let mut unpruned = params.clone();
            unpruned.redundancy_tau = None;
            let mut exceptions_first = FlowCube::build(&db, spec.clone(), unpruned, ItemPlan::All);

            // Definition 4.4 on the graphs themselves: the build, which
            // decides on counts, stores exactly the cells it keeps.
            let metric = KlSimilarity::default();
            let mut kept = Vec::new();
            let mut redundant = 0;
            for (ck, keys) in exceptions_first.all_cells() {
                let cuboid = exceptions_first.cuboid(&ck.item_level, ck.path_level).unwrap();
                let mut keys_kept = Vec::new();
                for key in keys {
                    let parents: Vec<&FlowGraph> = (ck.item_level.parents().into_iter())
                        .filter_map(|level| {
                            let parent_key = aggregate_key(&key, &level, db.schema());
                            let parent = exceptions_first.cuboid(&level, ck.path_level)?;
                            Some(&parent.get(&parent_key)?.graph)
                        })
                        .collect();
                    if is_redundant(&cuboid.get(&key).unwrap().graph, &parents, &metric, tau) {
                        redundant += 1;
                    } else {
                        keys_kept.push(key);
                    }
                }
                if !keys_kept.is_empty() {
                    kept.push((ck, keys_kept));
                }
            }
            prop_assert_eq!(redundant, cube.stats().cells_pruned_redundant);
            prop_assert_eq!(&kept, &cube.all_cells());

            // Definition 4.4 reads flowgraphs only, so attaching exceptions
            // to every cell and pruning afterwards — the federated merge's
            // order — stores the same cells with the same exceptions.
            let dropped = exceptions_first.prune_redundant(tau);
            prop_assert_eq!(dropped, cube.stats().cells_pruned_redundant);
            exceptions_first.ensure_same(&cube)?;
        }

        let exc_params = ExceptionParams {
            min_support: params.min_support,
            min_deviation: params.exception_deviation,
        };
        for (ck, cuboid) in cube.cuboids() {
            let level = spec.level(ck.path_level);
            for (key, entry) in cuboid.iter() {
                let paths: Vec<Vec<AggStage>> = db
                    .records()
                    .iter()
                    .filter(|r| &aggregate_key(&r.dims, &ck.item_level, db.schema()) == key)
                    .map(|r| aggregate_stages(&r.stages, level, params.merge).unwrap())
                    .collect();
                prop_assert_eq!(entry.support, paths.len() as u64);
                let mut walked = FlowGraph::build(paths.iter().map(Vec::as_slice));
                walked.canonicalize();
                prop_assert_eq!(
                    serde_json::to_string(&entry.graph).unwrap(),
                    serde_json::to_string(&walked).unwrap(),
                    "{:?} {:?} at {}", ck, key, level
                );
                if params.mine_exceptions {
                    prop_assert_eq!(
                        &entry.exceptions,
                        &mine_exceptions(&walked, &paths, &exc_params),
                        "{:?} {:?} at {}", ck, key, level
                    );
                }
            }
        }
    }
}

/// Two entries with one cut and one duration level are one path level,
/// whatever they are called: the spec is refused where it is built, not
/// deep inside mining (where it used to overflow the stack).
#[test]
fn a_repeated_level_is_rejected() {
    let db = generate(&GeneratorConfig {
        num_paths: 20,
        ..Default::default()
    })
    .db;
    let loc = db.schema().locations();
    let level = |name: &str, duration| {
        let cut = LocationCut::uniform_level(loc, loc.max_level());
        PathLevel::new(name, cut, duration)
    };
    let repeated = || {
        vec![
            level("l0", DurationLevel::Raw),
            level("l1", DurationLevel::Any),
            level("l2", DurationLevel::Raw),
        ]
    };
    let err = PathLatticeSpec::try_new(repeated()).unwrap_err();
    assert_eq!((err.first, err.second), (0, 2));
    assert_eq!(
        (err.first_name.as_str(), err.second_name.as_str()),
        ("l0", "l2")
    );
    // `new` keeps its signature and panics with the same message.
    let panic = std::panic::catch_unwind(|| PathLatticeSpec::new(repeated())).unwrap_err();
    assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
}

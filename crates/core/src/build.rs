//! Flowcube construction pipeline (paper §5): mine the frequent path
//! segments, take the iceberg cells and their tid lists from one BUC
//! pass, materialize a flowgraph per frequent cell and path level, prune
//! redundant cells, then attach exceptions to the cells that are stored.
//!
//! Materialization costs one borrowed walk of a cell's paths per
//! location cut: work items borrow BUC's tid lists, the finest duration
//! level on each cut is walked and the coarser ones are rolled up from
//! its graph.

use crate::cell::{aggregate_key, level_of_key, CellEntry, CellKey, Cuboid, CuboidKey};
use crate::params::{Algorithm, FlowCubeParams, ItemPlan};
use crate::stats::BuildStats;
use flowcube_flowgraph::{
    exceptions_from_segments, is_redundant, Exception, ExceptionParams, FlowGraph, KlSimilarity,
    Segment,
};
use flowcube_hier::{ConceptId, FxHashMap, ItemLevel, PathLatticeSpec, PathLevelId, Schema};
use flowcube_mining::parallel::{balanced_chunks, run_chunks_counted};
use flowcube_mining::{
    buc_iceberg, mine, mine_cubing, CubingConfig, FrequentItemsets, ItemKind, SharedConfig,
    TransactionDb,
};
use flowcube_obs::Timer;
use flowcube_pathdb::{aggregate_stages, AggStage, PathDatabase};

/// Everything produced by the build, consumed by [`crate::FlowCube`].
pub(crate) struct BuildOutput {
    pub cuboids: FxHashMap<CuboidKey, Cuboid>,
    pub stats: BuildStats,
}

/// A unit of materialization work: one frequent cell on one location
/// cut — the walked path level plus every level rolled up from it.
struct WorkItem<'a> {
    cell_idx: usize,
    walked: PathLevelId,
    tids: &'a [u32],
}

/// A frequent path segment as mining found it: `(location prefix,
/// concrete duration)` per constrained stage, not yet on any graph.
type MinedSegment = Vec<(Vec<ConceptId>, u32)>;

/// The frequent segments of each cell, one map per path level (indexed
/// by [`PathLevelId`]) — all the build reads from the mining output.
type CellSegments = Vec<FxHashMap<CellKey, Vec<MinedSegment>>>;

pub(crate) fn build(
    db: &PathDatabase,
    spec: PathLatticeSpec,
    params: &FlowCubeParams,
    plan: &ItemPlan,
) -> BuildOutput {
    let _build_span = flowcube_obs::span!(
        "build",
        paths = db.len(),
        min_support = params.min_support,
        threads = params.threads as u64,
    );
    let mut stats = BuildStats::default();
    let schema = db.schema();

    // ---- Phase 1: frequent path segments.
    //
    // Exceptions are the only part of the measure that needs frequent
    // *path segments* (Lemma 4.3, holistic); the iceberg cells and the
    // duration/transition distributions are algebraic. So with
    // `mine_exceptions == false` frequent-pattern mining is skipped
    // entirely — which also keeps `min_support = 1` builds (full, no
    // iceberg) tractable, where itemset mining would enumerate every
    // subset of every transaction.
    let mined = params
        .mine_exceptions
        .then(|| run_mining(db, &spec, params, &mut stats));

    let prepare_timer = Timer::start("build.prepare");
    let segments: CellSegments = match mined {
        // The transactions and the itemsets are the build's largest
        // allocations and nothing later needs them (or the dictionary):
        // both die with this arm, before BUC allocates its tid lists.
        Some((tx, mined)) => segments_by_cell(&tx, &mined, plan),
        None => vec![FxHashMap::default(); spec.len()],
    };

    // ---- Phase 2: the iceberg cells with their tid lists, from one BUC
    // pass — the group-by is algebraic (Gray et al.), BUC partitions each
    // cell's tid list out of its parent's as it descends, and the delta
    // and merge pipelines take their cells from the same pass.
    let (buc_cells, _) = buc_iceberg(db, params.min_support);
    let (cells, tids): (Vec<(ItemLevel, CellKey)>, Vec<Vec<u32>>) = buc_cells
        .into_iter()
        .filter_map(|cell| {
            let key: CellKey = (cell.values.iter())
                .map(|v| v.unwrap_or(ConceptId::ROOT))
                .collect();
            let level = level_of_key(&key, schema);
            plan.includes(&level).then_some(((level, key), cell.tids))
        })
        .unzip();
    stats.frequent_cells = cells.len();

    // ---- Phase 3: aggregate every path once per path level that is
    // walked or has segments to check (exceptions are path-driven,
    // Lemma 4.3); a rolled-up level without segments needs no paths.
    let sources = walk_sources(&spec);
    let agg_paths: Vec<Vec<Vec<AggStage>>> = spec
        .ids()
        .map(|lvl| {
            if sources[lvl as usize] != lvl && segments[lvl as usize].is_empty() {
                return Vec::new();
            }
            let level = spec.level(lvl);
            db.records()
                .iter()
                .map(|r| {
                    aggregate_stages(&r.stages, level, params.merge)
                        .expect("db locations are covered by every cut")
                })
                .collect()
        })
        .collect();
    stats.prepare_time = prepare_timer.stop();

    // ---- Phase 4: materialize one flowgraph per (cell, path level).
    let materialize_timer = Timer::start("build.materialize");
    let mut work: Vec<WorkItem<'_>> = Vec::new();
    for (i, cell_tids) in tids.iter().enumerate() {
        for walked in spec.ids().filter(|&l| sources[l as usize] == l) {
            work.push(WorkItem {
                cell_idx: i,
                walked,
                tids: cell_tids,
            });
        }
    }

    let materialize = |w: &WorkItem<'_>| -> Vec<(usize, PathLevelId, CellEntry)> {
        // The walked level first, then the levels rolled up from it.
        let levels = std::iter::once(w.walked).chain(
            spec.ids()
                .filter(|&l| l != w.walked && sources[l as usize] == w.walked),
        );
        let mut out: Vec<(usize, PathLevelId, CellEntry)> = Vec::new();
        for lvl in levels {
            let cell_timer = Timer::start("build.cell");
            let graph = match out.first() {
                None => {
                    let agg = &agg_paths[lvl as usize];
                    let mut graph =
                        FlowGraph::build(w.tids.iter().map(|&t| agg[t as usize].as_slice()));
                    // Canonical node order (pre-order DFS, children by
                    // location): the same cell content yields the same
                    // node table whether it was batch-built here or
                    // assembled by delta merges, making the two
                    // byte-comparable. Must happen *before* segments are
                    // translated onto node ids.
                    graph.canonicalize();
                    graph
                }
                Some((_, _, walked)) => walked.graph.with_durations_at(spec.level(lvl).duration),
            };
            out.push((
                w.cell_idx,
                lvl,
                CellEntry {
                    support: w.tids.len() as u64,
                    graph,
                    exceptions: Vec::new(),
                    redundant: false,
                },
            ));
            let elapsed = cell_timer.stop();
            flowcube_obs::histogram_record(
                "build.cell_materialize_us",
                elapsed.as_secs_f64() * 1e6,
            );
        }
        out
    };

    // One threads policy with mining (`FlowCubeParams::threads_for`).
    // Cells cost their path count and arrive roughly largest first, so
    // workers claim small chunks as they go; results come back in work
    // order either way, so the cube is identical at any thread count.
    let threads = params.threads_for(work.len());
    stats.threads_used = threads;
    let report = run_chunks_counted(
        "build.materialize.chunk",
        work.len(),
        balanced_chunks(work.len()),
        threads,
        |range| {
            work[range]
                .iter()
                .flat_map(&materialize)
                .collect::<Vec<_>>()
        },
    );
    stats.chunk_retries = report.retried_chunks;

    let mut cuboids: FxHashMap<CuboidKey, Cuboid> = FxHashMap::default();
    for (cell_idx, path_level, entry) in report.results.into_iter().flatten() {
        let (item_level, key) = &cells[cell_idx];
        let ck = CuboidKey {
            item_level: item_level.clone(),
            path_level,
        };
        cuboids
            .entry(ck)
            .or_default()
            .cells
            .insert(key.clone(), entry);
    }
    stats.cells_materialized = cuboids.values().map(|c| c.len()).sum();
    stats.materialize_time = materialize_timer.stop();

    // ---- Phase 5: non-redundancy pruning (Definition 4.4), which
    // compares flowgraphs only.
    let redundancy_timer = Timer::start("build.redundancy");
    if let Some(tau) = params.redundancy_tau {
        prune_redundant(&mut cuboids, schema, tau, params, &mut stats);
    }
    stats.redundancy_time = redundancy_timer.stop();

    // ---- Phase 6: exceptions — the holistic part of the measure — for
    // the cells that survived, counted as materialization time.
    let exceptions_timer = Timer::start("build.exceptions");
    attach_exceptions(
        &mut cuboids,
        &cells,
        &tids,
        &segments,
        &agg_paths,
        params,
        &mut stats,
    );
    stats.materialize_time += exceptions_timer.stop();

    if flowcube_obs::is_enabled() {
        flowcube_obs::gauge_set("build.frequent_cells", stats.frequent_cells as f64);
        flowcube_obs::gauge_set("build.cells_materialized", stats.cells_materialized as f64);
        flowcube_obs::gauge_set(
            "build.cells_pruned_redundant",
            stats.cells_pruned_redundant as f64,
        );
    }

    BuildOutput { cuboids, stats }
}

/// Phase 1 with exceptions on: encode the database and mine it.
fn run_mining(
    db: &PathDatabase,
    spec: &PathLatticeSpec,
    params: &FlowCubeParams,
    stats: &mut BuildStats,
) -> (TransactionDb, FrequentItemsets) {
    let timer = Timer::start("build.encode");
    let tx = TransactionDb::encode(db, spec.clone(), params.merge);
    stats.encode_time = timer.stop();
    let timer = Timer::start("build.mine");
    let shared = |config: SharedConfig| mine(&tx, &config.with_threads(params.threads));
    let (mined, algo_prefix): (FrequentItemsets, &str) = match params.algorithm {
        // Shared mines only the family `segments_by_cell` reads; what the
        // paper's four rules find beyond it was never used here.
        Algorithm::Shared => (
            shared(SharedConfig::cube_family(params.min_support)),
            "mining.shared",
        ),
        Algorithm::Basic => (
            shared(SharedConfig::basic(params.min_support)),
            "mining.basic",
        ),
        Algorithm::Cubing => (
            mine_cubing(
                db,
                &tx,
                &CubingConfig::new(params.min_support).with_threads(params.threads),
            ),
            "mining.cubing",
        ),
    };
    stats.mining = mined.stats.clone();
    stats.mining_time = timer.stop();
    mined.stats.publish(algo_prefix);
    (tx, mined)
}

/// The frequent segments of the plan's cells: every frequent itemset
/// that is a cell's dimension items plus concrete-duration stage items of
/// one path level, decoded to `(location prefix, duration)` constraints
/// and filed under that level and the cell's key. Itemsets of any other
/// shape — which only `Basic` and `Cubing` still report — are skipped.
fn segments_by_cell(tx: &TransactionDb, mined: &FrequentItemsets, plan: &ItemPlan) -> CellSegments {
    let (dict, schema) = (tx.dict(), tx.schema());
    let mut segments: CellSegments = vec![FxHashMap::default(); tx.spec().len()];
    'itemsets: for (itemset, _support) in &mined.itemsets {
        let mut key: CellKey = vec![ConceptId::ROOT; schema.num_dims()];
        let mut stages: MinedSegment = Vec::new();
        let mut level: Option<PathLevelId> = None;
        for &it in itemset.iter() {
            match dict.kind(it) {
                ItemKind::Dim { dim, concept } => {
                    // An item next to its ancestor names no cell.
                    if key[dim as usize] != ConceptId::ROOT {
                        continue 'itemsets;
                    }
                    key[dim as usize] = concept;
                }
                ItemKind::Stage {
                    level: l,
                    prefix,
                    dur,
                } => {
                    // Passage-only items add nothing; mixed-level
                    // segments apply at neither level exactly.
                    let Some(dur) = dur.filter(|_| level.is_none_or(|prev| prev == l)) else {
                        continue 'itemsets;
                    };
                    level = Some(l);
                    stages.push((dict.prefixes().sequence(prefix), dur));
                }
            }
        }
        let Some(l) = level else {
            continue; // a frequent cell: BUC finds those
        };
        if plan.includes(&level_of_key(&key, schema)) {
            // Root-to-leaf: a constraint's depth is its prefix length.
            stages.sort_by_key(|(prefix, _)| prefix.len());
            segments[l as usize].entry(key).or_default().push(stages);
        }
    }
    segments
}

/// Mine the exceptions of every stored (cell, path level) that has
/// frequent segments, from the cell's own paths at that level
/// (Lemma 4.3), and attach them.
fn attach_exceptions(
    cuboids: &mut FxHashMap<CuboidKey, Cuboid>,
    cells: &[(ItemLevel, CellKey)],
    tids: &[Vec<u32>],
    segments: &CellSegments,
    agg_paths: &[Vec<Vec<AggStage>>],
    params: &FlowCubeParams,
    stats: &mut BuildStats,
) {
    let mut pending: Vec<(usize, CuboidKey, &[MinedSegment])> = Vec::new();
    for (lvl, by_cell) in segments.iter().enumerate() {
        if by_cell.is_empty() {
            continue;
        }
        for (i, (item_level, key)) in cells.iter().enumerate() {
            let Some(mined) = by_cell.get(key) else {
                continue;
            };
            let ck = CuboidKey {
                item_level: item_level.clone(),
                path_level: lvl as PathLevelId,
            };
            if cuboids.get(&ck).is_some_and(|c| c.get(key).is_some()) {
                pending.push((i, ck, mined));
            }
        }
    }

    let exc_params = ExceptionParams {
        min_support: params.min_support,
        min_deviation: params.exception_deviation,
    };
    let mine_cell = |(i, ck, mined): &(usize, CuboidKey, &[MinedSegment])| -> Vec<Exception> {
        let graph = &cuboids[ck].cells[&cells[*i].1].graph;
        // The cell's frequent segments, translated onto the graph's nodes.
        let segs: Vec<Segment> = mined
            .iter()
            .filter_map(|constraints| {
                // `constraints` is sorted root-to-leaf.
                constraints
                    .iter()
                    .map(|(prefix, dur)| Some((graph.node_by_prefix(prefix)?, *dur)))
                    .collect()
            })
            .collect();
        let agg = &agg_paths[ck.path_level as usize];
        let paths: Vec<&[AggStage]> = (tids[*i].iter())
            .map(|&t| agg[t as usize].as_slice())
            .collect();
        exceptions_from_segments(graph, &paths, &segs, &exc_params)
    };
    // Few items, each a cell large enough to have frequent segments:
    // workers claim them one at a time.
    let report = run_chunks_counted(
        "build.exceptions.chunk",
        pending.len(),
        pending.len(),
        params.threads_for(pending.len()),
        |range| pending[range].iter().map(&mine_cell).collect::<Vec<_>>(),
    );
    stats.chunk_retries += report.retried_chunks;
    let found: Vec<Vec<Exception>> = report.results.into_iter().flatten().collect();
    for ((i, ck, _), exceptions) in pending.into_iter().zip(found) {
        let entry = (cuboids.get_mut(&ck))
            .and_then(|cuboid| cuboid.cells.get_mut(&cells[i].1))
            .expect("pending lists stored cells only");
        entry.exceptions = exceptions;
    }
}

/// For every path level, the level its flowgraphs come from: itself when
/// it is walked, else the finest duration level on the same location cut
/// (first in spec order among equals), of which it is a duration roll-up
/// ([`FlowGraph::with_durations_at`]; the merge policy is the build's,
/// hence the same). Levels on one cut whose durations do not refine one
/// another — `Bucket(2)` and `Bucket(3)` — are each walked.
fn walk_sources(spec: &PathLatticeSpec) -> Vec<PathLevelId> {
    spec.ids()
        .map(|l| {
            let mut source = l;
            for w in spec.ids() {
                let (cand, cur) = (spec.level(w), spec.level(source));
                let refines = cur.duration.is_coarser_or_equal(cand.duration);
                let equal = refines && cand.duration.is_coarser_or_equal(cur.duration);
                if cand.cut == cur.cut && refines && (!equal || w < source) {
                    source = w;
                }
            }
            source
        })
        .collect()
}

/// Mark and drop cells similar to all their item-lattice parents at the
/// same path level. The one redundancy pass: the batch build and the
/// federated merge (`FlowCube::prune_redundant`) both end here.
pub(crate) fn prune_redundant(
    cuboids: &mut FxHashMap<CuboidKey, Cuboid>,
    schema: &Schema,
    tau: f64,
    params: &FlowCubeParams,
    stats: &mut BuildStats,
) {
    let metric = KlSimilarity::default();
    // Decide first (against the *unpruned* cube: Definition 4.4 compares
    // to the parents' flowgraphs, which exist whether or not a parent is
    // itself redundant), then drop. Deciding only reads, so it runs in
    // chunks like materialization does.
    let candidates: Vec<(&CuboidKey, &CellKey, &CellEntry)> = cuboids
        .iter()
        .flat_map(|(ck, cuboid)| cuboid.iter().map(move |(key, entry)| (ck, key, entry)))
        .collect();
    let redundant = |&(ck, key, entry): &(&CuboidKey, &CellKey, &CellEntry)| {
        let parents: Vec<&FlowGraph> = (ck.item_level.parents().into_iter())
            .filter_map(|parent_level| {
                let parent_key = aggregate_key(key, &parent_level, schema);
                let parent_ck = CuboidKey {
                    item_level: parent_level,
                    path_level: ck.path_level,
                };
                Some(&cuboids.get(&parent_ck)?.get(&parent_key)?.graph)
            })
            .collect();
        is_redundant(&entry.graph, &parents, &metric, tau)
    };
    let report = run_chunks_counted(
        "build.redundancy.chunk",
        candidates.len(),
        balanced_chunks(candidates.len()),
        params.threads_for(candidates.len()),
        |range| {
            candidates[range]
                .iter()
                .filter(|c| redundant(c))
                .map(|&(ck, key, _)| (ck.clone(), key.clone()))
                .collect::<Vec<_>>()
        },
    );
    stats.chunk_retries += report.retried_chunks;
    let to_drop: Vec<(CuboidKey, CellKey)> = report.results.into_iter().flatten().collect();
    stats.cells_pruned_redundant = to_drop.len();
    for (ck, key) in to_drop {
        if let Some(cuboid) = cuboids.get_mut(&ck) {
            cuboid.cells.remove(&key);
        }
    }
    cuboids.retain(|_, c| !c.is_empty());
}

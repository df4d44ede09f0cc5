//! Flowcube construction pipeline (paper §5): mine frequent cells and
//! path segments, materialize a flowgraph per frequent cell and path
//! level, attach exceptions, then prune redundant cells.
//!
//! Materialization costs one borrowed walk of a cell's paths per
//! location cut: tid lists are filtered top-down from the smallest
//! parent's, work items borrow them, the finest duration level on each
//! cut is walked and the coarser ones are rolled up from its graph.

use crate::cell::{aggregate_key, level_of_key, CellEntry, CellKey, Cuboid, CuboidKey};
use crate::params::{Algorithm, FlowCubeParams, ItemPlan};
use crate::stats::BuildStats;
use flowcube_flowgraph::{
    exceptions_from_segments, is_redundant, ExceptionParams, FlowGraph, KlSimilarity, Segment,
};
use flowcube_hier::{ConceptId, FxHashMap, ItemLevel, PathLatticeSpec, PathLevelId, Schema};
use flowcube_mining::parallel::{balanced_chunks, run_chunks_counted};
use flowcube_mining::{
    mine, mine_cubing, CubingConfig, FrequentItemsets, ItemId, ItemKind, SharedConfig,
    TransactionDb,
};
use flowcube_obs::Timer;
use flowcube_pathdb::{aggregate_stages, AggStage, PathDatabase};
use std::collections::BTreeMap;

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

/// The frequent segments of each `(cell index, path level)`.
type CellSegments = FxHashMap<(usize, PathLevelId), Vec<MinedSegment>>;

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

    // ---- Phase 1: find frequent cells (and, when exceptions are on,
    // frequent path segments).
    //
    // Exceptions are the only part of the measure that needs frequent
    // *path segments* (Lemma 4.3); the duration/transition distributions
    // are algebraic. So with `mine_exceptions == false` we skip
    // frequent-pattern mining entirely and compute the iceberg cells with
    // a plain BUC pass — this also makes `min_support = 1` builds (full,
    // no iceberg) tractable, where itemset mining would enumerate every
    // subset of every transaction.
    let mined = params
        .mine_exceptions
        .then(|| run_mining(db, &spec, params, &mut stats));

    let prepare_timer = Timer::start("build.prepare");
    let (cells, tids, segments) = match mined {
        Some((tx, mined)) => {
            let (cells, segments) = cells_and_segments(&tx, &mined, db, params, plan);
            // Only those two are used from here on; the transactions and
            // the itemsets are the build's largest allocations.
            drop((tx, mined));
            let tids = derive_tids(db, &cells);
            (cells, tids, segments)
        }
        None => {
            // BUC directly yields cells with their tid lists.
            let (buc_cells, _) = flowcube_mining::buc_iceberg(db, params.min_support);
            let listed = buc_cells.into_iter().filter_map(|cell| {
                let key: CellKey = (cell.values.iter())
                    .map(|v| v.unwrap_or(ConceptId::ROOT))
                    .collect();
                let level = level_of_key(&key, schema);
                plan.includes(&level).then_some(((level, key), cell.tids))
            });
            let (cells, tids) = listed.unzip();
            (cells, tids, CellSegments::default())
        }
    };
    stats.frequent_cells = cells.len();

    // ---- Phase 5: aggregate every path once per path level that is
    // walked or has segments to check (exceptions are path-driven,
    // Lemma 4.3); a rolled-up level without segments needs no paths.
    let sources = walk_sources(&spec);
    let agg_paths: Vec<Vec<Vec<AggStage>>> = spec
        .ids()
        .map(|lvl| {
            if sources[lvl as usize] != lvl && !segments.keys().any(|&(_, l)| l == lvl) {
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

    // ---- Phase 6: materialize one flowgraph per (cell, path level).
    let materialize_timer = Timer::start("build.materialize");
    let apex_included = plan.includes(&ItemLevel::top(schema.num_dims()));
    let mut work: Vec<WorkItem<'_>> = Vec::new();
    for (i, (_, key)) in cells.iter().enumerate() {
        if key.iter().all(|&c| c == ConceptId::ROOT) && !apex_included {
            continue;
        }
        if (tids[i].len() as u64) < params.min_support {
            continue; // plan-filtered parents may fall below δ — skip
        }
        for walked in spec.ids().filter(|&l| sources[l as usize] == l) {
            work.push(WorkItem {
                cell_idx: i,
                walked,
                tids: &tids[i],
            });
        }
    }

    let exc_params = ExceptionParams {
        min_support: params.min_support,
        min_deviation: params.exception_deviation,
    };
    let materialize = |w: &WorkItem<'_>| -> Vec<(usize, PathLevelId, CellEntry)> {
        // The walked level first, then the levels rolled up from it.
        let levels = std::iter::once(w.walked).chain(
            spec.ids()
                .filter(|&l| l != w.walked && sources[l as usize] == w.walked),
        );
        let mut out: Vec<(usize, PathLevelId, CellEntry)> = Vec::new();
        for lvl in levels {
            let cell_timer = Timer::start("build.cell");
            let agg = &agg_paths[lvl as usize];
            let paths = || w.tids.iter().map(|&t| agg[t as usize].as_slice());
            let graph = match out.first() {
                None => {
                    let mut graph = FlowGraph::build(paths());
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
            // Reuse the shared mining output: the cell's frequent segments
            // at this path level, translated onto the graph's nodes.
            let exceptions = match segments.get(&(w.cell_idx, lvl)) {
                None => Vec::new(),
                Some(mined) => {
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
                    let paths: Vec<&[AggStage]> = paths().collect();
                    exceptions_from_segments(&graph, &paths, &segs, &exc_params)
                }
            };
            out.push((
                w.cell_idx,
                lvl,
                CellEntry {
                    support: w.tids.len() as u64,
                    graph,
                    exceptions,
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
    let mut results: Vec<(usize, PathLevelId, CellEntry)> =
        report.results.into_iter().flatten().collect();
    // Cells insert into the cuboid maps in (cell, path level) order
    // whichever level of a cut was the walked one.
    results.sort_by_key(|&(cell_idx, lvl, _)| (cell_idx, lvl));

    let mut cuboids: FxHashMap<CuboidKey, Cuboid> = FxHashMap::default();
    for (cell_idx, path_level, entry) in results {
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

    // ---- Phase 7: non-redundancy pruning (Definition 4.4).
    let redundancy_timer = Timer::start("build.redundancy");
    if let Some(tau) = params.redundancy_tau {
        prune_redundant(&mut cuboids, schema, tau, params, &mut stats);
    }
    stats.redundancy_time = redundancy_timer.stop();

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
        Algorithm::Shared => (
            shared(SharedConfig::shared(params.min_support)),
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

/// Split the frequent itemsets into the plan's frequent cells and, per
/// `(cell, path level)`, the concrete-duration stage segments.
fn cells_and_segments(
    tx: &TransactionDb,
    mined: &FrequentItemsets,
    db: &PathDatabase,
    params: &FlowCubeParams,
    plan: &ItemPlan,
) -> (Vec<(ItemLevel, CellKey)>, CellSegments) {
    let schema = db.schema();
    let dict = tx.dict();
    let mut cells: Vec<(ItemLevel, CellKey)> = Vec::new();
    let mut cell_of_items: FxHashMap<Vec<ItemId>, usize> = FxHashMap::default();
    // The apex cell (all *) is implicit in the mining output.
    if db.len() as u64 >= params.min_support {
        cell_of_items.insert(Vec::new(), cells.len());
        cells.push((
            ItemLevel::top(schema.num_dims()),
            vec![ConceptId::ROOT; schema.num_dims()],
        ));
    }
    for (items, _support) in mined.frequent_cells(tx) {
        let mut key = vec![ConceptId::ROOT; schema.num_dims()];
        for &it in &items {
            let ItemKind::Dim { dim, concept } = dict.kind(it) else {
                unreachable!("frequent_cells returns dim items only");
            };
            key[dim as usize] = concept;
        }
        let level = level_of_key(&key, schema);
        if plan.includes(&level) {
            cell_of_items.insert(items, cells.len());
            cells.push((level, key));
        }
    }

    // ---- Phase 2: segments per (cell, path level) for exception mining.
    // One pass over all frequent itemsets: split into (dim part, per-level
    // concrete-duration stage segment).
    let mut segments = CellSegments::default();
    for (itemset, _support) in &mined.itemsets {
        let mut dims: Vec<ItemId> = Vec::new();
        let mut stages: MinedSegment = Vec::new();
        let mut level: Option<PathLevelId> = None;
        let mut uniform = true;
        for &it in itemset.iter() {
            match dict.kind(it) {
                ItemKind::Dim { .. } => dims.push(it),
                ItemKind::Stage {
                    level: l,
                    prefix,
                    dur,
                } => {
                    // Passage-only items add nothing; mixed-level
                    // segments apply at neither level exactly.
                    let Some(dur) = dur.filter(|_| level.is_none_or(|prev| prev == l)) else {
                        uniform = false;
                        break;
                    };
                    level = Some(l);
                    stages.push((dict.prefixes().sequence(prefix), dur));
                }
            }
        }
        if let (true, Some(l), Some(&cell)) = (uniform, level, cell_of_items.get(&dims)) {
            // Root-to-leaf: a constraint's depth is its prefix length.
            stages.sort_by_key(|(prefix, _)| prefix.len());
            segments.entry((cell, l)).or_default().push(stages);
        }
    }
    (cells, segments)
}

/// Tid lists of the mined cells, top-down: item level by item level in
/// depth order, a cell's paths are those of its smallest listed parent
/// that also match the cell on the one dimension the parent leaves
/// coarser (Gray et al.'s smallest-parent rule; Apriori makes every
/// parent of a frequent cell frequent). Cells the [`ItemPlan`] left
/// without a listed parent — and the apex — are filled by one database
/// scan per such item level.
fn derive_tids(db: &PathDatabase, cells: &[(ItemLevel, CellKey)]) -> Vec<Vec<u32>> {
    let schema = db.schema();
    let records = db.records();
    let index: FxHashMap<&[ConceptId], usize> = cells
        .iter()
        .enumerate()
        .map(|(i, (_, key))| (key.as_slice(), i))
        .collect();
    let mut by_level: BTreeMap<(usize, &ItemLevel), Vec<usize>> = BTreeMap::new();
    for (i, (level, _)) in cells.iter().enumerate() {
        let depth = level.0.iter().map(|&l| l as usize).sum();
        by_level.entry((depth, level)).or_default().push(i);
    }

    let mut tids: Vec<Vec<u32>> = vec![Vec::new(); cells.len()];
    let mut probe: CellKey = Vec::new();
    for ((_, level), members) in by_level {
        let mut orphans: FxHashMap<&[ConceptId], usize> = FxHashMap::default();
        for i in members {
            let key = &cells[i].1;
            // (parent cell, refined dimension) with the shortest tid list.
            let mut parent: Option<(usize, usize)> = None;
            for d in (0..key.len()).filter(|&d| level.0[d] > 0) {
                probe.clone_from(key);
                probe[d] = schema.dim(d as u8).parent_of(key[d]);
                if let Some(&p) = index.get(probe.as_slice()) {
                    if parent.is_none_or(|(best, _)| tids[p].len() < tids[best].len()) {
                        parent = Some((p, d));
                    }
                }
            }
            let Some((p, d)) = parent else {
                orphans.insert(key, i);
                continue;
            };
            let hierarchy = schema.dim(d as u8);
            tids[i] = (tids[p].iter().copied())
                .filter(|&t| {
                    hierarchy.ancestor_at_level(records[t as usize].dims[d], level.0[d]) == key[d]
                })
                .collect();
        }
        if orphans.is_empty() {
            continue;
        }
        for (t, record) in records.iter().enumerate() {
            probe.clear();
            probe.extend(
                (record.dims.iter().zip(&level.0).enumerate())
                    .map(|(d, (&c, &l))| schema.dim(d as u8).ancestor_at_level(c, l)),
            );
            if let Some(&i) = orphans.get(probe.as_slice()) {
                tids[i].push(t as u32);
            }
        }
    }
    tids
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

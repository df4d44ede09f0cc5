//! Flowcube construction pipeline (paper §5): mine the frequent path
//! segments, take the iceberg cells and their tid lists from one BUC
//! pass, count every cell over its path levels' apex node tables, decide
//! redundancy on the counts, write a flowgraph for each cell that is
//! stored, then attach exceptions to those.
//!
//! Counting costs one borrowed pass over a cell's paths per location cut:
//! work items borrow BUC's tid lists, the finest duration level on each
//! cut is counted from the path dictionary and the coarser ones are
//! rolled up from its counts (`crate::counts`).

use crate::cell::{aggregate_key, level_of_key, CellEntry, CellKey, Cuboid, CuboidKey};
use crate::counts::{self, CodeTable, Counts, PathDictionary, Scratch};
use crate::params::{Algorithm, FlowCubeParams, ItemPlan};
use crate::stats::BuildStats;
use flowcube_flowgraph::{
    exceptions_from_segments, mine_exceptions, Exception, ExceptionParams, FlowGraph, Segment,
};
use flowcube_hier::{
    ConceptId, DurationLevel, FxHashMap, FxHashSet, ItemLevel, PathLatticeSpec, PathLevelId,
};
use flowcube_mining::parallel::{balanced_chunks, run_chunks_counted};
use flowcube_mining::{
    buc_iceberg, mine, mine_cubing, CubingConfig, FrequentItemsets, ItemKind, SharedConfig,
    TransactionDb,
};
use flowcube_obs::Timer;
use flowcube_pathdb::{AggStage, PathDatabase};

/// Everything produced by the build, consumed by [`crate::FlowCube`].
pub(crate) struct BuildOutput {
    pub cuboids: FxHashMap<CuboidKey, Cuboid>,
    pub stats: BuildStats,
}

/// A unit of counting work: one frequent cell on one location cut — the
/// walked path level plus every level rolled up from it.
struct WorkItem<'a> {
    cell_idx: usize,
    walked: PathLevelId,
    tids: &'a [u32],
}

/// What counting a (cell, path level) leaves behind: its counts while
/// Definition 4.4 may still drop it, its flowgraph at once when it
/// cannot (τ unset).
enum Measure {
    Counts(Counts),
    Graph(FlowGraph),
}

/// Each path level's codes: a walked level's dictionary, or for a level
/// rolled up from one ([`walk_sources`]) its table and the map onto it.
struct Levels {
    sources: Vec<PathLevelId>,
    durations: Vec<DurationLevel>,
    dicts: Vec<Option<PathDictionary>>,
    rolled: Vec<Option<(CodeTable, Vec<u32>)>>,
}

impl Levels {
    /// Walk every walked level, one chunk each (`build.dictionary.chunk`);
    /// also returns the chunks retried.
    fn new(db: &PathDatabase, spec: &PathLatticeSpec, params: &FlowCubeParams) -> (Self, usize) {
        let sources = walk_sources(spec);
        let walked: Vec<PathLevelId> = spec.ids().filter(|&l| sources[l as usize] == l).collect();
        // A walk reads every record: the cutoff counts records walked.
        let report = run_chunks_counted(
            "build.dictionary.chunk",
            walked.len(),
            walked.len(),
            params.threads_for(walked.len() * db.len()),
            |range| {
                (walked[range].iter())
                    .map(|&l| PathDictionary::walk(db, spec.level(l), params.merge))
                    .collect::<Vec<_>>()
            },
        );
        let mut dicts: Vec<Option<PathDictionary>> = spec.ids().map(|_| None).collect();
        for (&l, dict) in walked.iter().zip(report.results.into_iter().flatten()) {
            dicts[l as usize] = Some(dict);
        }
        let rolled = spec
            .ids()
            .map(|l| {
                let source = dicts[sources[l as usize] as usize].as_ref();
                (sources[l as usize] != l).then(|| {
                    (source.expect("a level rolls up from a walked one").table())
                        .rolled_up(spec.level(l).duration)
                })
            })
            .collect();
        let levels = Levels {
            sources,
            durations: spec.levels().iter().map(|level| level.duration).collect(),
            dicts,
            rolled,
        };
        (levels, report.retried_chunks)
    }

    /// The dictionary level `l` is counted from.
    fn dict(&self, l: PathLevelId) -> &PathDictionary {
        let source = self.sources[l as usize] as usize;
        self.dicts[source].as_ref().expect("sources are walked")
    }

    fn table(&self, l: PathLevelId) -> &CodeTable {
        match &self.rolled[l as usize] {
            Some((table, _)) => table,
            None => self.dict(l).table(),
        }
    }

    /// The levels rolled up from walked level `w`, with their code maps.
    fn rolled_from(&self, w: PathLevelId) -> impl Iterator<Item = (PathLevelId, &[u32])> {
        (self.rolled.iter().enumerate()).filter_map(move |(l, rolled)| {
            let (_, map) = rolled.as_ref()?;
            (self.sources[l] == w).then_some((l as PathLevelId, map.as_slice()))
        })
    }

    /// The duration level a dictionary path is rolled to for level `l`
    /// (`None` at a walked level).
    fn roll(&self, l: PathLevelId) -> Option<DurationLevel> {
        (self.sources[l as usize] != l).then_some(self.durations[l as usize])
    }
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
    // and merge pipelines take their cells from the same pass. BUC emits
    // the plan's levels only and skips the subtrees below none of them.
    let plan_levels = plan.levels();
    let (buc_cells, buc_stats) = {
        let _span = flowcube_obs::span!("build.buc");
        buc_iceberg(db, params.min_support, plan_levels.as_deref(), |subtrees| {
            params.threads_for(subtrees)
        })
    };
    stats.chunk_retries += buc_stats.chunk_retries as usize;
    flowcube_obs::counter_add("build.buc.partitions", buc_stats.partitions_examined);
    flowcube_obs::counter_add("build.buc.tid_entries", buc_stats.tidlist_items);
    let (cells, tids): (Vec<(ItemLevel, CellKey)>, Vec<Vec<u32>>) = buc_cells
        .into_iter()
        .map(|cell| {
            let key: CellKey = (cell.values.iter())
                .map(|v| v.unwrap_or(ConceptId::ROOT))
                .collect();
            ((level_of_key(&key, schema), key), cell.tids)
        })
        .unzip();
    stats.frequent_cells = cells.len();

    // ---- Phase 3: the path dictionary — one walk of the records per
    // walked path level, the walks side by side, numbers the apex node
    // table of its cut and gives each tid its code list; a level rolled
    // up from it maps the codes.
    let (levels, retries) = Levels::new(db, &spec, params);
    stats.chunk_retries += retries;
    stats.prepare_time = prepare_timer.stop();
    flowcube_obs::rss::record_hwm("build.prepare");

    // ---- Phase 4: count every cell at every path level, one work item
    // per (cell, location cut).
    let materialize_timer = Timer::start("build.materialize");
    let mut work: Vec<WorkItem<'_>> = Vec::new();
    for (i, cell_tids) in tids.iter().enumerate() {
        for walked in spec.ids().filter(|&l| levels.roll(l).is_none()) {
            work.push(WorkItem {
                cell_idx: i,
                walked,
                tids: cell_tids,
            });
        }
    }
    let tau = params.redundancy_tau;
    let scratch_len = (spec.ids())
        .map(|l| levels.table(l).len())
        .max()
        .unwrap_or(0);
    let count = |w: &WorkItem<'_>, scratch: &mut Scratch| -> Vec<(PathLevelId, Counts)> {
        let cell_timer = Timer::start("build.cell");
        let walked = levels.dict(w.walked).count(w.tids, scratch);
        let rolled: Vec<(PathLevelId, Counts)> = (levels.rolled_from(w.walked))
            .map(|(l, map)| (l, walked.rolled_up(map)))
            .collect();
        let elapsed = cell_timer.stop();
        flowcube_obs::histogram_record("build.cell_materialize_us", elapsed.as_secs_f64() * 1e6);
        std::iter::once((w.walked, walked)).chain(rolled).collect()
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
            let mut scratch = Scratch::new(scratch_len);
            let mut out: Vec<(usize, PathLevelId, Measure)> = Vec::new();
            for w in &work[range] {
                for (l, counts) in count(w, &mut scratch) {
                    let measure = match tau {
                        Some(_) => Measure::Counts(counts),
                        None => Measure::Graph(levels.table(l).graph(&counts)),
                    };
                    out.push((w.cell_idx, l, measure));
                }
            }
            out
        },
    );
    stats.chunk_retries += report.retried_chunks;
    let num_levels = spec.len();
    stats.cells_materialized = cells.len() * num_levels;
    // Indexed by `cell * num_levels + level`.
    let mut vectors: Vec<Option<Counts>> = Vec::new();
    let mut stored: Vec<(usize, PathLevelId, FlowGraph)> = Vec::new();
    if tau.is_some() {
        vectors.resize_with(stats.cells_materialized, || None);
    }
    for (cell, l, measure) in report.results.into_iter().flatten() {
        match measure {
            Measure::Counts(c) => vectors[cell * num_levels + l as usize] = Some(c),
            Measure::Graph(g) => stored.push((cell, l, g)),
        }
    }
    let mut materialize_time = materialize_timer.stop();
    flowcube_obs::rss::record_hwm("build.materialize");

    // ---- Phase 5: non-redundancy (Definition 4.4), decided on the
    // counts against every parent's counts at the same path level.
    let redundancy_timer = Timer::start("build.redundancy");
    if let Some(tau) = tau {
        let vector = |item: usize| {
            vectors[item]
                .as_ref()
                .expect("every (cell, level) is counted")
        };
        let index: FxHashMap<&[ConceptId], usize> = (cells.iter().enumerate())
            .map(|(i, (_, key))| (key.as_slice(), i))
            .collect();
        let parents: Vec<Vec<usize>> = (cells.iter())
            .map(|(level, key)| {
                (level.parents().into_iter())
                    .filter_map(|parent| index.get(aggregate_key(key, &parent, schema).as_slice()))
                    .copied()
                    .collect()
            })
            .collect();
        let (redundant, retries) = counts::decide(vectors.len(), params, |item, tally| {
            let (i, l) = (item / num_levels, item % num_levels);
            let parent_counts = parents[i].iter().map(|&p| vector(p * num_levels + l));
            counts::is_redundant(
                levels.table(l as PathLevelId),
                vector(item),
                parent_counts,
                tau,
                tally,
            )
        });
        stats.chunk_retries += retries;
        // A cell's counts live until its fate is known.
        for (counts, redundant) in vectors.iter_mut().zip(&redundant) {
            if *redundant {
                stats.cells_pruned_redundant += 1;
                *counts = None;
            }
        }
    }
    stats.redundancy_time = redundancy_timer.stop();
    flowcube_obs::rss::record_hwm("build.redundancy");

    // ---- Phase 6: a flowgraph for each stored (cell, level) — already
    // written when τ is unset.
    if tau.is_some() {
        let graphs_timer = Timer::start("build.graphs");
        let keep: Vec<usize> = (0..vectors.len())
            .filter(|&i| vectors[i].is_some())
            .collect();
        let report = run_chunks_counted(
            "build.graphs",
            keep.len(),
            balanced_chunks(keep.len()),
            params.threads_for(keep.len()),
            |range| {
                (keep[range].iter())
                    .map(|&item| {
                        let l = (item % num_levels) as PathLevelId;
                        levels.table(l).graph(vectors[item].as_ref().expect("kept"))
                    })
                    .collect::<Vec<_>>()
            },
        );
        stats.chunk_retries += report.retried_chunks;
        drop(vectors);
        let graphs = report.results.into_iter().flatten();
        stored = (keep.iter().zip(graphs))
            .map(|(&item, g)| (item / num_levels, (item % num_levels) as PathLevelId, g))
            .collect();
        materialize_time += graphs_timer.stop();
        flowcube_obs::rss::record_hwm("build.graphs");
    }
    let graphs_built = stored.len();
    let mut cuboids: FxHashMap<CuboidKey, Cuboid> = FxHashMap::default();
    for (cell_idx, path_level, graph) in stored {
        let (item_level, key) = &cells[cell_idx];
        let ck = CuboidKey {
            item_level: item_level.clone(),
            path_level,
        };
        let entry = CellEntry {
            support: tids[cell_idx].len() as u64,
            graph,
            exceptions: Vec::new(),
            redundant: false,
        };
        cuboids
            .entry(ck)
            .or_default()
            .cells
            .insert(key.clone(), entry);
    }

    // ---- Phase 7: exceptions — the holistic part of the measure — for
    // the cells that are stored, counted as materialization time.
    let exceptions_timer = Timer::start("build.exceptions");
    let mut pending: Vec<Pending<'_>> = Vec::new();
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
                let segments = Some(mined.as_slice());
                pending.push(Pending {
                    ck,
                    key,
                    tids: &tids[i],
                    segments,
                });
            }
        }
    }
    stats.chunk_retries += attach_exceptions(&mut cuboids, &pending, &levels, params);
    stats.materialize_time = materialize_time + exceptions_timer.stop();
    flowcube_obs::rss::record_hwm("build.exceptions");

    if flowcube_obs::is_enabled() {
        flowcube_obs::gauge_set("build.frequent_cells", stats.frequent_cells as f64);
        flowcube_obs::gauge_set("build.cells_materialized", stats.cells_materialized as f64);
        flowcube_obs::gauge_set(
            "build.cells_pruned_redundant",
            stats.cells_pruned_redundant as f64,
        );
        flowcube_obs::gauge_set("build.graphs_built", graphs_built as f64);
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
    flowcube_obs::rss::record_hwm("build.encode");
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
    flowcube_obs::rss::record_hwm("build.mine");
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

/// A stored (cell, path level) whose exceptions are to be mined: its
/// address, its tids, and its frequent segments when mining found them
/// (`None`: find them in the cell's own paths).
struct Pending<'a> {
    ck: CuboidKey,
    key: &'a CellKey,
    tids: &'a [u32],
    segments: Option<&'a [MinedSegment]>,
}

/// Mine each pending cell's exceptions from its own paths at its level
/// (Lemma 4.3), read off the dictionary, and attach them. Returns the
/// chunks retried.
fn attach_exceptions(
    cuboids: &mut FxHashMap<CuboidKey, Cuboid>,
    pending: &[Pending<'_>],
    levels: &Levels,
    params: &FlowCubeParams,
) -> usize {
    let exc_params = ExceptionParams {
        min_support: params.min_support,
        min_deviation: params.exception_deviation,
    };
    let stored = &*cuboids;
    let mine_cell = |p: &Pending<'_>| -> Vec<Exception> {
        let graph = &stored[&p.ck].cells[p.key].graph;
        let (dict, roll) = (levels.dict(p.ck.path_level), levels.roll(p.ck.path_level));
        let mut stages: Vec<AggStage> = Vec::new();
        let mut ends: Vec<usize> = Vec::with_capacity(p.tids.len());
        for &t in p.tids {
            dict.stages(t, roll, &mut stages);
            ends.push(stages.len());
        }
        let mut start = 0;
        let paths: Vec<&[AggStage]> = (ends.iter())
            .map(|&end| {
                let path = &stages[start..end];
                start = end;
                path
            })
            .collect();
        let Some(mined) = p.segments else {
            return mine_exceptions(graph, &paths, &exc_params);
        };
        // The cell's frequent segments, translated onto the graph's nodes;
        // each is sorted root-to-leaf.
        let segs: Vec<Segment> = (mined.iter())
            .filter_map(|constraints| {
                (constraints.iter())
                    .map(|(prefix, dur)| Some((graph.node_by_prefix(prefix)?, *dur)))
                    .collect()
            })
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
    for (p, exceptions) in pending.iter().zip(report.results.into_iter().flatten()) {
        let entry = (cuboids.get_mut(&p.ck))
            .and_then(|cuboid| cuboid.cells.get_mut(p.key))
            .expect("pending lists stored cells only");
        entry.exceptions = exceptions;
    }
    report.retried_chunks
}

/// Re-mine the exceptions of the `dirty` cells of `cuboids` from the
/// full database `db` (Lemma 4.3), on the build's machinery: the cells'
/// tid lists from one BUC pass restricted to the dirty item levels, their
/// paths from the path dictionary, each cell mined by
/// [`attach_exceptions`]. Cells no longer stored are skipped; returns the
/// number re-mined.
pub(crate) fn remine(
    db: &PathDatabase,
    spec: &PathLatticeSpec,
    params: &FlowCubeParams,
    cuboids: &mut FxHashMap<CuboidKey, Cuboid>,
    dirty: &[(CuboidKey, Vec<CellKey>)],
) -> usize {
    let wanted: FxHashSet<&CellKey> = dirty.iter().flat_map(|(_, keys)| keys).collect();
    if wanted.is_empty() {
        return 0;
    }
    let mut dirty_levels: Vec<ItemLevel> = (dirty.iter())
        .map(|(ck, _)| ck.item_level.clone())
        .collect();
    dirty_levels.sort_unstable();
    dirty_levels.dedup();
    let (buc_cells, _) = buc_iceberg(db, params.min_support, Some(&dirty_levels), |subtrees| {
        params.threads_for(subtrees)
    });
    let tids: FxHashMap<CellKey, Vec<u32>> = (buc_cells.into_iter())
        .filter_map(|cell| {
            let key: CellKey = (cell.values.iter())
                .map(|v| v.unwrap_or(ConceptId::ROOT))
                .collect();
            wanted.contains(&key).then_some((key, cell.tids))
        })
        .collect();
    let mut pending: Vec<Pending<'_>> = (dirty.iter())
        .flat_map(|(ck, keys)| keys.iter().map(move |key| (ck, key)))
        .filter(|(ck, key)| cuboids.get(*ck).is_some_and(|c| c.get(key).is_some()))
        .map(|(ck, key)| Pending {
            ck: ck.clone(),
            key,
            tids: tids.get(key).map_or(&[], Vec::as_slice),
            segments: None,
        })
        .collect();
    pending.sort_unstable_by(|a, b| (&a.ck, a.key).cmp(&(&b.ck, b.key)));
    pending.dedup_by(|a, b| (&a.ck, a.key) == (&b.ck, b.key));
    let (levels, _) = Levels::new(db, spec, params);
    attach_exceptions(cuboids, &pending, &levels, params);
    pending.len()
}

/// For every path level, the level its counts come from: itself when it
/// is walked, else the finest duration level on the same location cut
/// (first in spec order among equals), of which it is a duration roll-up
/// (`CodeTable::rolled_up`, `FlowGraph::with_durations_at` on counts; the
/// merge policy is the build's, hence the same). Levels on one cut whose
/// durations do not refine one another — `Bucket(2)` and `Bucket(3)` —
/// are each walked.
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

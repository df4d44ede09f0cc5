//! Set-up: generate the data, run the batch pipeline (raw readings →
//! cleaned paths → cube → snapshot file), draw the request targets with
//! their oracle answers, and pre-compute the ingest bodies.
//!
//! `build_fig6` runs this in-process, because the pipeline *is* what it
//! measures. The serving workloads run it as a child process of the same
//! binary (`prepare` subcommand), so the measured process's RSS holds the
//! servers and the load generator and not a build's allocator residue.
//! Either way the same code produces the same files and the same named
//! measurements.

use crate::data::{dataset, Dataset, Workload, BATCH_PATHS, DELTA_BODIES, SHARDS};
use crate::targets::{Endpoint, Target, TargetGen};
use crate::trace::{self, timed};
use crate::util::{median, ms, peak_rss_mb, us, Rng};
use flowcube_core::{CellKey, CubeDelta, CuboidKey, FlowCube, ItemPlan};
use flowcube_datagen::{generate, to_readings};
use flowcube_federate::{build_shard_part, partial_params};
use flowcube_flowgraph::{
    mine_exceptions, top_k_paths, ExceptionParams, FlowGraph, FlowSimilarity, KlSimilarity,
};
use flowcube_hier::ConceptId;
use flowcube_mining::{mine, SharedConfig, TransactionDb};
use flowcube_pathdb::{
    aggregate_stages, clean_readings, stays_to_record, AggStage, CleanerConfig, MergePolicy,
    PathDatabase, PathRecord, RawReading,
};
use flowcube_serve::write_snapshot;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Everything set-up hands to the measured phases.
pub struct Prepared {
    /// Measurements taken during set-up, under their metric names.
    pub metrics: BTreeMap<String, f64>,
    /// One snapshot per shard (a single one outside the federation).
    pub snapshots: Vec<PathBuf>,
    pub targets: Vec<Target>,
    /// JSON `CubeDelta` bodies (`ingest_live` only).
    pub deltas: Vec<PathBuf>,
    /// Present only when set-up ran in this process.
    pub cube: Option<FlowCube>,
}

fn snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard{shard}.snap"))
}

fn delta_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("delta{i}.json"))
}

/// The timings of one pipeline pass, the whole first: they are reported
/// together, from the fastest pass.
pub const PIPELINE: [&str; 4] = [
    "build_wall_s",
    "pathdb.clean_s",
    "core.build_s",
    "serve.snapshot_write_s",
];

/// Seconds since process start at which data generation was done; the
/// rest of set-up is the measured pipeline on `build_fig6`.
pub const DATAGEN_DONE: &str = "aux.datagen_done_s";
/// Paths in the served cube before any ingest.
pub const BASE_PATHS: &str = "aux.base_paths";
/// Item dimensions of the schema.
pub const DIMS: &str = "aux.dims";

/// A seeded half of a twice-as-large generated population (see
/// `data::TOPOLOGY_SEED` for why the generator seed itself is fixed): the
/// "source of truth" database the readings are exploded from.
fn generate_source(ds: &Dataset, seed: u64, m: &mut BTreeMap<String, f64>) -> PathDatabase {
    let mut config = ds.config.clone();
    let wanted = config.num_paths;
    config.num_paths = 2 * wanted;
    let (pool, t) = timed("datagen.generate", || generate(&config).db);
    m.insert("datagen.generate_s".into(), t.as_secs_f64());

    let mut picks: Vec<usize> = (0..2 * wanted).collect();
    Rng::new(seed).shuffle(&mut picks);
    picks.truncate(wanted);
    picks.sort_unstable();
    let records: Vec<PathRecord> = picks
        .into_iter()
        .map(|i| pool.records()[i].clone())
        .collect();
    PathDatabase::from_records(pool.schema().clone(), records).expect("generated records are valid")
}

/// Raw readings → path database, the way `flowcube ingest` cleans a
/// reading log: group by EPC, collapse stays, attach the item's
/// dimension values.
fn clean(source: &PathDatabase, readings: Vec<RawReading>) -> PathDatabase {
    let config = CleanerConfig::default();
    let dims: HashMap<u64, &Vec<ConceptId>> =
        source.records().iter().map(|r| (r.id, &r.dims)).collect();
    let records: Vec<PathRecord> = clean_readings(readings, &config)
        .into_iter()
        .map(|(epc, stays)| stays_to_record(epc, dims[&epc].clone(), &stays, &config))
        .collect();
    PathDatabase::from_records(source.schema().clone(), records).expect("cleaned records are valid")
}

fn subset(db: &PathDatabase, range: std::ops::Range<usize>) -> PathDatabase {
    PathDatabase::from_records(db.schema().clone(), db.records()[range].to_vec())
        .expect("a subset of valid records is valid")
}

/// Data generation alone: the source database and its reading stream.
fn generate_data(
    ds: &Dataset,
    seed: u64,
    m: &mut BTreeMap<String, f64>,
) -> (PathDatabase, Vec<RawReading>) {
    let source = generate_source(ds, seed, m);
    let (readings, t) = timed("datagen.to_readings", || to_readings(&source));
    m.insert("datagen.to_readings_s".into(), t.as_secs_f64());
    (source, readings)
}

/// `build_fig6`'s whole set-up, for repeating it; returns the reading count.
pub fn generate_readings(workload: Workload, seed: u64) -> usize {
    generate_data(&dataset(workload), seed, &mut BTreeMap::new())
        .1
        .len()
}

/// Run set-up for `workload`, writing its files under `dir`.
pub fn run(workload: Workload, seed: u64, dir: &Path, traced: bool) -> Prepared {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let ds = dataset(workload);
    let params = ds.params();

    // ---- data -----------------------------------------------------------
    let (source, mut readings) = generate_data(&ds, seed, &mut m);
    m.insert("pathdb.readings".into(), readings.len() as f64);
    m.insert(DIMS.into(), source.schema().num_dims() as f64);
    m.insert(DATAGEN_DONE.into(), trace::since_start());

    // ---- the batch pipeline: readings → servable file(s) ---------------
    // Run `Dataset::pipeline_passes` times; the fastest pass is reported
    // and the last pass's outputs are the ones used.
    let federated = workload == Workload::Federate2x2;
    let spec = ds.spec(source.schema());
    let mut passes: Vec<[f64; 4]> = Vec::new();
    let (db, base, cubes, snapshots, bytes) = loop {
        let last = passes.len() + 1 == ds.pipeline_passes;
        let input = if last {
            std::mem::take(&mut readings)
        } else {
            readings.clone()
        };
        let pipeline_start = Instant::now();
        let (db, t_clean) = timed("pathdb.clean", || clean(&source, input));
        let base = subset(&db, 0..ds.base_paths);
        let (cubes, t_build) = timed("core.build", || -> Vec<FlowCube> {
            if federated {
                (0..SHARDS)
                    .map(|k| {
                        build_shard_part(&base, spec.clone(), &params, SHARDS, k)
                            .expect("shard ids are in range")
                            .cube
                    })
                    .collect()
            } else {
                vec![FlowCube::build(
                    &base,
                    spec.clone(),
                    params.clone(),
                    ItemPlan::All,
                )]
            }
        });
        let mut snapshots = Vec::new();
        let (bytes, t_write) = timed("serve.snapshot_write", || {
            let mut bytes = 0;
            for (k, cube) in cubes.iter().enumerate() {
                let path = snapshot_path(dir, k);
                bytes += write_snapshot(cube, &path).expect("snapshot write").bytes;
                snapshots.push(path);
            }
            bytes
        });
        let wall = pipeline_start.elapsed();
        if passes.is_empty() {
            m.insert("build_peak_rss_mb".into(), peak_rss_mb());
        }
        passes.push([wall, t_clean, t_build, t_write].map(|t| t.as_secs_f64()));
        if last {
            break (db, base, cubes, snapshots, bytes);
        }
    };
    // Interference only ever slows a pass down, so the fastest pass is the
    // one closest to the program's own cost, and its stages add up.
    let fastest = passes
        .iter()
        .min_by(|a, b| a[0].total_cmp(&b[0]))
        .expect("at least one pass");
    for (name, seconds) in PIPELINE.iter().zip(fastest) {
        m.insert(name.to_string(), *seconds);
    }
    m.insert("snapshot_mb".into(), bytes as f64 / 1e6);

    assert!(
        db.records() == source.records(),
        "cleaning the exploded readings must give back the generated paths"
    );
    let cells: usize = cubes.iter().map(FlowCube::total_cells).sum();
    m.insert("core.cells".into(), cells as f64);
    m.insert(
        "core.cuboids".into(),
        cubes.iter().map(FlowCube::num_cuboids).sum::<usize>() as f64,
    );
    m.insert(
        "core.cells_pruned_redundant".into(),
        cubes
            .iter()
            .map(|c| c.stats().cells_pruned_redundant)
            .sum::<usize>() as f64,
    );
    m.insert(
        "serve.snapshot_bytes_per_cell".into(),
        bytes as f64 / cells as f64,
    );
    m.insert(BASE_PATHS.into(), base.len() as f64);

    // ---- the oracle cube and the request targets -----------------------
    // The federation's oracle is the unsharded cube over the same paths:
    // by Lemma 4.2 the front's merged supports must equal its supports.
    let mut cubes = cubes;
    let oracle = if federated {
        FlowCube::build(&base, spec.clone(), partial_params(&params), ItemPlan::All)
    } else {
        cubes.pop().expect("one cube")
    };
    let cells: Vec<(CuboidKey, CellKey)> = TargetGen::all_cells(&oracle)
        .into_iter()
        .filter(|(ck, key)| {
            // A shard missing the cell would answer from an ancestor, so
            // the federation is only asked about cells every shard holds.
            cubes.iter().all(|shard| {
                shard
                    .cuboid(&ck.item_level, ck.path_level)
                    .is_some_and(|c| c.get(key).is_some())
            })
        })
        .collect();
    // Only the miss workload asks for cells the iceberg dropped; a
    // shard would answer those from a different ancestor than the oracle.
    let leaf_keys: Vec<CellKey> = if workload == Workload::ServeScan {
        base.records()
            .iter()
            .take(2_000)
            .map(|r| r.dims.clone())
            .collect()
    } else {
        Vec::new()
    };
    let mut gen = TargetGen::new(&oracle, cells, leaf_keys, seed);
    let mix: &[(Endpoint, usize)] = match workload {
        Workload::BuildFig6 | Workload::ServeHot => &[
            (Endpoint::Cell, 32),
            (Endpoint::Rollup, 32),
            (Endpoint::PathsTopk, 32),
            (Endpoint::Exceptions, 32),
        ],
        Workload::ServeScan => &[
            (Endpoint::Cell, 2_000),
            (Endpoint::Rollup, 1_500),
            (Endpoint::Drilldown, 2_000),
            (Endpoint::Slice, 600),
            (Endpoint::Dice, 400),
            (Endpoint::PathsTopk, 2_500),
            (Endpoint::PathsProbability, 2_000),
            (Endpoint::Exceptions, 2_500),
        ],
        Workload::Federate2x2 => &[
            (Endpoint::Cell, 26),
            (Endpoint::Rollup, 26),
            (Endpoint::Drilldown, 25),
            (Endpoint::PathsTopk, 26),
            (Endpoint::Exceptions, 25),
        ],
        Workload::IngestLive => &[
            (Endpoint::Cell, 22),
            (Endpoint::Rollup, 21),
            (Endpoint::PathsTopk, 21),
        ],
    };
    // Position is popularity rank on the skewed workloads, and the first
    // four ranks of Zipf(1) over 128 take 38 % of the requests. So the
    // endpoints are dealt through the ranks in turn, not shuffled: which
    // endpoint happens to head the ranking would otherwise move `p50_us`
    // by a sixth from seed to seed.
    let mut by_endpoint: Vec<std::vec::IntoIter<Target>> = mix
        .iter()
        .map(|&(endpoint, count)| gen.draw(endpoint, count).into_iter())
        .collect();
    let mut targets: Vec<Target> = Vec::new();
    while by_endpoint.iter().any(|list| list.len() > 0) {
        targets.extend(by_endpoint.iter_mut().filter_map(Iterator::next));
    }

    // ---- ingest bodies ---------------------------------------------------
    let mut deltas = Vec::new();
    if workload == Workload::IngestLive {
        let mut compute_ms = Vec::new();
        let mut first: Option<CubeDelta> = None;
        for i in 0..DELTA_BODIES {
            let start = ds.base_paths + i * BATCH_PATHS;
            let batch = subset(&db, start..start + BATCH_PATHS);
            let (delta, t) = timed("core.delta_compute", || {
                CubeDelta::compute(&batch, &spec, &params, &ItemPlan::All)
            });
            compute_ms.push(ms(t));
            let path = delta_path(dir, i);
            let body = serde_json::to_string(&delta).expect("delta encodes");
            std::fs::write(&path, body).expect("write delta body");
            deltas.push(path);
            first.get_or_insert(delta);
        }
        m.insert("core.delta_compute_ms".into(), median(compute_ms));
        if traced {
            let delta = first.expect("at least one batch");
            let mut live = oracle.clone();
            let apply_ms: Vec<f64> = (0..9)
                .map(|_| {
                    let (report, t) = timed("core.apply_delta", || live.apply_delta(&delta));
                    report.expect("delta matches the cube it was computed for");
                    ms(t)
                })
                .collect();
            m.insert("core.apply_delta_ms".into(), median(apply_ms));
        }
    }

    // ---- per-layer probes of the build's layers (traced runs) ----------
    if traced {
        if ds.exceptions {
            mining_probes(&base, &ds, &mut m);
        }
        flowgraph_probes(&base, &oracle, &ds, &mut m);
    }

    Prepared {
        metrics: m,
        snapshots,
        targets,
        deltas,
        cube: Some(oracle),
    }
}

/// The mining layer on its own: what `FlowCube::build` spends inside
/// `TransactionDb::encode` and `mine`, and the counters of that scan.
fn mining_probes(base: &PathDatabase, ds: &Dataset, m: &mut BTreeMap<String, f64>) {
    let spec = ds.spec(base.schema());
    let (tx, t) = timed("mining.encode", || {
        TransactionDb::encode(base, spec, MergePolicy::Sum)
    });
    m.insert("mining.encode_s".into(), t.as_secs_f64());
    let (mined, t) = timed("mining.shared", || {
        mine(&tx, &SharedConfig::shared(ds.min_support))
    });
    m.insert("mining.shared_s".into(), t.as_secs_f64());
    let s = &mined.stats;
    let pruned = s.pruned_subset + s.pruned_ancestor + s.pruned_unlinkable + s.pruned_precount;
    m.insert("mining.scans".into(), s.scans as f64);
    m.insert("mining.candidates_counted".into(), s.total_counted() as f64);
    m.insert("mining.frequent_patterns".into(), s.total_frequent() as f64);
    m.insert(
        "mining.prune_ratio".into(),
        pruned as f64 / (pruned + s.total_counted()).max(1) as f64,
    );
    let build_s = m["core.build_s"];
    m.insert(
        "core.materialize_s".into(),
        build_s - m["mining.encode_s"] - m["mining.shared_s"],
    );
}

/// The flowgraph layer on its own, over the apex cell at the finest path
/// level: build, exception mining, one KL comparison, one top-k walk.
fn flowgraph_probes(
    base: &PathDatabase,
    cube: &FlowCube,
    ds: &Dataset,
    m: &mut BTreeMap<String, f64>,
) {
    let spec = ds.spec(base.schema());
    let paths: Vec<Vec<AggStage>> = base
        .records()
        .iter()
        .map(|r| {
            aggregate_stages(&r.stages, spec.level(0), MergePolicy::Sum)
                .expect("every location is covered by the cut")
        })
        .collect();
    let (graph, t) = timed("flowgraph.build_apex", || {
        FlowGraph::build(paths.iter().map(Vec::as_slice))
    });
    m.insert("flowgraph.build_apex_ms".into(), ms(t));
    let params = ExceptionParams {
        // δ = 1 cubes (the federation's) would make every segment
        // frequent; the probe keeps the paper's 1 %.
        min_support: ds.min_support.max(base.len() as u64 / 100),
        min_deviation: ds.params().exception_deviation,
    };
    let (found, t) = timed("flowgraph.exceptions_apex", || {
        mine_exceptions(&graph, &paths, &params)
    });
    black_box(found);
    m.insert("flowgraph.exceptions_apex_ms".into(), ms(t));

    // The first materialized cell (in key order) whose roll-up parent is
    // materialized too: the pair Definition 4.4's redundancy test compares.
    let (child, parent) = cube
        .all_cells()
        .iter()
        .filter(|(ck, _)| ck.path_level == 0)
        .flat_map(|(_, keys)| keys)
        .find_map(|key| {
            let child = cube.cell(key, 0)?;
            let parent = (0..key.len()).find_map(|dim| cube.roll_up(key, dim, 0))?;
            Some((&child.graph, &parent.1.graph))
        })
        .expect("some cell has a materialized parent");
    let metric = KlSimilarity::default();
    let per_call = |f: &dyn Fn()| {
        let samples: Vec<f64> = (0..15)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..20 {
                    f();
                }
                us(start.elapsed()) / 20.0
            })
            .collect();
        median(samples)
    };
    let ((kl, topk), _) = timed("flowgraph.queries", || {
        (
            per_call(&|| {
                black_box(metric.divergence(black_box(child), black_box(parent)));
            }),
            per_call(&|| {
                black_box(top_k_paths(black_box(parent), 10));
            }),
        )
    });
    m.insert("flowgraph.kl_us".into(), kl);
    m.insert("flowgraph.topk_us".into(), topk);
}

// ---- the child-process hand-off -----------------------------------------

const MANIFEST: &str = "manifest.tsv";
const TARGETS: &str = "targets.tsv";

impl Prepared {
    /// Persist what [`Prepared::load`] needs (the snapshot and delta
    /// files are already in `dir`).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let mut manifest = String::new();
        for (name, value) in &self.metrics {
            manifest.push_str(&format!("{name}\t{value:?}\n"));
        }
        manifest.push_str(&format!("aux.snapshots\t{}\n", self.snapshots.len()));
        manifest.push_str(&format!("aux.deltas\t{}\n", self.deltas.len()));
        std::fs::write(dir.join(MANIFEST), manifest)?;
        let lines: Vec<String> = self.targets.iter().map(Target::to_line).collect();
        std::fs::write(dir.join(TARGETS), lines.join("\n"))
    }

    pub fn load(dir: &Path) -> Result<Prepared, String> {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))
        };
        let mut metrics = BTreeMap::new();
        for line in read(MANIFEST)?.lines() {
            let (name, value) = line.split_once('\t').ok_or("manifest line without a tab")?;
            let value: f64 = value.parse().map_err(|_| format!("bad value for {name}"))?;
            metrics.insert(name.to_string(), value);
        }
        let count = |metrics: &mut BTreeMap<String, f64>, name: &str| {
            metrics.remove(name).ok_or(format!("manifest lacks {name}"))
        };
        let snapshots = count(&mut metrics, "aux.snapshots")? as usize;
        let deltas = count(&mut metrics, "aux.deltas")? as usize;
        let targets = read(TARGETS)?
            .lines()
            .map(|l| Target::from_line(l).ok_or(format!("bad target line {l:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Prepared {
            metrics,
            snapshots: (0..snapshots).map(|k| snapshot_path(dir, k)).collect(),
            targets,
            deltas: (0..deltas).map(|i| delta_path(dir, i)).collect(),
            cube: None,
        })
    }
}

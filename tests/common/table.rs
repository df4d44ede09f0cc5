//! The one table: every pipeline that builds a flowcube answers what the
//! paper's definitions answer.
//!
//! Each scenario (`scenario`) builds the reference cube (`reference`),
//! then runs every row whose contract covers the scenario. A row holds
//! when its cube has the reference's cells with the reference's entries
//! (`FlowCube::ensure_same`) and, where it says so, snapshots to the
//! reference's bytes. `tests/pipelines.rs` runs the whole table; the
//! suites that own one contract call its rows, the `Case` methods.

use super::reference::reference_cube;
use super::scenario::Scenario;
use super::{snapshot_bytes, split_db, temp_file};
use flowcube::core::{aggregate_key, Algorithm, CellKey, CubeDelta};
use flowcube::federate::build_sharded;
use flowcube::flowgraph::{diff, NodeId};
use flowcube::hier::ItemLevel;
use flowcube::serve::{append_delta, compact, deltalog_path, write_snapshot, ServedCube};
use flowcube::{FlowCube, FlowCubeParams, FlowGraph, ItemPlan, PathDatabase, PathLatticeSpec};
use std::collections::HashMap;
use std::path::Path;

type Row<'s> = fn(&Case<'s>) -> Result<(), String>;

/// One scenario's inputs, its reference cube, and the build of it.
pub struct Case<'s> {
    s: &'s Scenario,
    db: PathDatabase,
    spec: PathLatticeSpec,
    params: FlowCubeParams,
    plan: ItemPlan,
    reference: FlowCube,
    reference_bytes: Vec<u8>,
    built: FlowCube,
}

/// Run every row of the table that covers `s`; a failure names each row
/// that broke, and the scenario.
pub fn run_table(s: &Scenario) -> Result<(), String> {
    let case = Case::new(s);
    let delta_1 = s.min_support == 1 && s.tau.is_none();
    // Basic and Cubing mine exceptions' segments. For suite time, δ ≥ 2
    // and at most two path levels, or Table 1's eight paths: past that,
    // duplicate paths make every subset of their items frequent, which
    // Basic (no pruning) and Cubing enumerate.
    let mining = s.exceptions && s.min_support > 1 && (s.levels() <= 2 || s.data.is_none());
    let rows: [(&str, bool, Row); 10] = [
        // The definition itself: cells, graphs, exceptions, Def 4.4.
        ("build", true, Case::build),
        // The bytes are a pure function of the inputs, not the workers.
        ("threads 1 and 4", true, Case::threads),
        ("Basic and Cubing", mining, Case::algorithms),
        // τ set: the merge's order stores what the build stores.
        ("prune after", s.tau.is_some(), Case::prune_after),
        // Lemma 4.2 over any EPC-hash partition; it takes no plan.
        ("sharded build", s.plan.is_none(), Case::sharded),
        // δ = 1 only: apply is lossy above it, DESIGN §12; τ is holistic.
        ("incremental apply", delta_1, Case::incremental),
        // The cube file, as the server opens it.
        ("snapshot file", true, Case::snapshot_file),
        // The overlay's contract is the incremental one, exceptions off.
        ("served overlay", delta_1 && !s.exceptions, Case::overlay),
        // δ = 1, τ unset, every level: a group-by of algebraic measures.
        ("roll-up laws", delta_1 && s.plan.is_none(), Case::laws),
        // Flow is conserved at every node of every stored graph.
        ("node conservation", true, Case::conservation),
    ];
    let failures: Vec<String> = (rows.into_iter())
        .filter(|&(_, covers, _)| covers)
        .filter_map(|(name, _, row)| Some(format!("row {name:?} failed: {}", row(&case).err()?)))
        .collect();
    match failures.is_empty() {
        true => Ok(()),
        false => Err(format!("{}\nin {s:?}", failures.join("\n"))),
    }
}

impl<'s> Case<'s> {
    /// Build the scenario's reference cube and the cube `FlowCube::build`
    /// builds.
    pub fn new(s: &'s Scenario) -> Self {
        let db = s.db();
        let (spec, params, plan) = (s.spec(&db), s.params(), s.item_plan(&db));
        let reference = reference_cube(&db, &spec, &params, &plan);
        let built = FlowCube::build(&db, spec.clone(), params.clone(), plan.clone());
        Case {
            s,
            reference_bytes: snapshot_bytes(&reference),
            db,
            spec,
            params,
            plan,
            reference,
            built,
        }
    }

    fn build_with(&self, db: &PathDatabase, params: FlowCubeParams) -> FlowCube {
        FlowCube::build(db, self.spec.clone(), params, self.plan.clone())
    }

    /// `cube` holds the reference's cells with the reference's entries.
    fn same(&self, cube: &FlowCube) -> Result<(), String> {
        let same = self.reference.ensure_same(cube);
        same.map_err(|d| format!("vs reference: {d}"))
    }

    /// As [`Case::same`], and `cube` snapshots to the reference's bytes
    /// and pruned as many (cell, level) pairs, which the bytes do not
    /// hold.
    fn same_bytes(&self, cube: &FlowCube) -> Result<(), String> {
        self.same(cube)?;
        if snapshot_bytes(cube) != self.reference_bytes {
            return Err("same cells, other bytes".to_string());
        }
        self.same_pruned(cube.stats().cells_pruned_redundant)
    }

    fn same_pruned(&self, pruned: usize) -> Result<(), String> {
        match self.reference.stats().cells_pruned_redundant {
            want if want == pruned => Ok(()),
            want => Err(format!(
                "{pruned} cells pruned, Definition 4.4 prunes {want}"
            )),
        }
    }

    /// The build: content, bytes and pruned count.
    pub fn build(&self) -> Result<(), String> {
        self.same_bytes(&self.built)
    }

    /// Builds at 1 and at 4 threads: content, bytes and pruned count
    /// (the build row holds the scenario's own thread count).
    pub fn threads(&self) -> Result<(), String> {
        let mut others = [1, 4].into_iter().filter(|&t| t != self.s.threads);
        others.try_for_each(|threads| {
            let cube = self.build_with(&self.db, self.params.clone().with_threads(threads));
            self.same_bytes(&cube)
                .map_err(|e| format!("{threads} threads: {e}"))
        })
    }

    /// `Algorithm::Basic` and `Cubing`: content only, since the params
    /// name the algorithm, and as many cuboids as the default build.
    pub fn algorithms(&self) -> Result<(), String> {
        [Algorithm::Basic, Algorithm::Cubing]
            .into_iter()
            .try_for_each(|algorithm| {
                let cube = self.build_with(&self.db, self.params.clone().with_algorithm(algorithm));
                let cuboids = (cube.num_cuboids(), self.built.num_cuboids());
                match self.same(&cube) {
                    Ok(()) if cuboids.0 != cuboids.1 => Err(format!(
                        "{algorithm:?}: {} cuboids, not {}",
                        cuboids.0, cuboids.1
                    )),
                    result => result.map_err(|e| format!("{algorithm:?}: {e}")),
                }
            })
    }

    /// An unpruned build, then `prune_redundant(τ)` — exceptions on every
    /// cell first, as the merge does: content and the count it returns.
    pub fn prune_after(&self) -> Result<(), String> {
        let mut unpruned = self.params.clone();
        let tau = unpruned.redundancy_tau.take().ok_or("τ is unset")?;
        let mut cube = self.build_with(&self.db, unpruned);
        let pruned = cube.prune_redundant(tau);
        self.same(&cube)?;
        self.same_pruned(pruned)
    }

    /// `build_sharded` at the scenario's shard count, empty shards
    /// included: content, bytes and pruned count.
    pub fn sharded(&self) -> Result<(), String> {
        let cube = build_sharded(&self.db, self.spec.clone(), &self.params, self.s.shards);
        self.same_bytes(&cube.map_err(|e| e.to_string())?)
    }

    /// A build over the stream's first micro-batch and a delta per later
    /// batch.
    fn base_and_deltas(&self) -> (FlowCube, Vec<CubeDelta>) {
        let batches = split_db(&self.db, self.s.batches);
        let delta = |batch| CubeDelta::compute(batch, &self.spec, &self.params, &self.plan);
        let deltas = batches[1..].iter().map(delta).collect();
        (self.build_with(&batches[0], self.params.clone()), deltas)
    }

    /// `apply_delta` over the micro-batches. Exceptions off: content and
    /// bytes. On: content after the dirty cells are re-mined (Lemma 4.3).
    pub fn incremental(&self) -> Result<(), String> {
        let (mut cube, deltas) = self.base_and_deltas();
        let mut dirty = Vec::new();
        for delta in &deltas {
            dirty.extend(cube.apply_delta(delta).map_err(|e| e.to_string())?.dirty);
        }
        if !self.s.exceptions {
            return self.same_bytes(&cube);
        }
        (cube.remine_exceptions(&self.db, &dirty)).map_err(|e| e.to_string())?;
        self.same(&cube)
    }

    /// The cube file, written, then opened and decoded as the server
    /// does: content.
    pub fn snapshot_file(&self) -> Result<(), String> {
        in_temp_file(|path| {
            write_snapshot(&self.built, path).map_err(|e| e.to_string())?;
            self.same(&served(path)?)
        })
    }

    /// A base snapshot plus a sidecar of the later batches' deltas,
    /// served, then compacted and reopened: content.
    pub fn overlay(&self) -> Result<(), String> {
        in_temp_file(|path| {
            let (base, deltas) = self.base_and_deltas();
            write_snapshot(&base, path).map_err(|e| e.to_string())?;
            for delta in &deltas {
                append_delta(&deltalog_path(path), delta).map_err(|e| e.to_string())?;
            }
            self.same(&served(path)?)
                .map_err(|e| format!("overlay: {e}"))?;
            compact(path).map_err(|e| e.to_string())?;
            self.same(&served(path)?)
                .map_err(|e| format!("compacted: {e}"))
        })
    }

    /// [`roll_up_laws`] on the build, at every parent level.
    pub fn laws(&self) -> Result<(), String> {
        roll_up_laws(&self.built, |_| true)
    }

    /// [`node_conservation`] on the build.
    pub fn conservation(&self) -> Result<(), String> {
        node_conservation(&self.built).map(drop)
    }
}

/// Run `f` on a fresh temp path, then remove every file it left there.
fn in_temp_file(f: impl FnOnce(&Path) -> Result<(), String>) -> Result<(), String> {
    let path = temp_file("pipeline.snap");
    let result = f(&path);
    for suffix in ["", ".deltas", ".compact", ".compact-tmp", ".compact.tmp"] {
        let mut name = path.as_os_str().to_os_string();
        name.push(suffix);
        let _ = std::fs::remove_file(name);
    }
    result
}

/// The cube at `path` as the server opens it: snapshot plus sidecar.
fn served(path: &Path) -> Result<FlowCube, String> {
    let opened = ServedCube::open(path).and_then(|(served, _)| served.folded_cube());
    opened.map_err(|e| e.to_string())
}

/// Over a full partition of one dimension, a parent cell's support is
/// its children's sum and its graph their merge; checked for the parents
/// at the item levels `parents` picks.
pub fn roll_up_laws(cube: &FlowCube, parents: impl Fn(&ItemLevel) -> bool) -> Result<(), String> {
    let schema = cube.schema();
    let max = schema.max_item_levels();
    for (ck, cuboid) in cube.cuboids().filter(|(ck, _)| parents(&ck.item_level)) {
        for d in (0..max.len()).filter(|&d| ck.item_level.0[d] < max[d]) {
            let mut finer = ck.item_level.clone();
            finer.0[d] += 1;
            // Each child's support and graph, folded into its parent's key.
            let mut folded: HashMap<CellKey, (u64, FlowGraph)> = HashMap::new();
            for (child_key, child) in cube
                .cuboid(&finer, ck.path_level)
                .iter()
                .flat_map(|c| c.iter())
            {
                let parent = aggregate_key(child_key, &ck.item_level, schema);
                let (support, merged) = folded
                    .entry(parent)
                    .or_insert_with(|| (0, FlowGraph::new()));
                *support += child.support;
                merged.merge(&child.graph);
            }
            for (key, entry) in cuboid.iter() {
                let (support, merged) = folded.remove(key).unwrap_or_else(|| (0, FlowGraph::new()));
                let diff = diff(&merged, &entry.graph);
                if support != entry.support || !diff.is_empty() {
                    return Err(format!(
                        "{}: its children along dimension {d} hold {support} paths; {}",
                        cube.describe_cell(key, ck.path_level),
                        diff.render(schema.locations(), 8)
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Child counts plus terminations equal a node's count, duration
/// observations equal it, and transition probabilities sum to 1. Returns
/// the number of nodes checked.
pub fn node_conservation(cube: &FlowCube) -> Result<usize, String> {
    let mut checked = 0;
    for (ck, cuboid) in cube.cuboids() {
        for (key, entry) in cuboid.iter() {
            let g = &entry.graph;
            for n in g.node_ids() {
                let children: u64 = g.children(n).iter().map(|&c| g.count(c)).sum();
                let durations = n == NodeId::ROOT || g.durations(n).total() == g.count(n);
                let p: f64 = g.transitions(n).probabilities().map(|(_, p)| p).sum();
                let transitions = g.count(n) == 0 || (p - 1.0).abs() < 1e-9;
                if children + g.terminate_count(n) != g.count(n) || !durations || !transitions {
                    let cell = cube.describe_cell(key, ck.path_level);
                    return Err(format!("{cell}: node {n:?} does not conserve flow"));
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

//! The one scenario generator: a small database, a path lattice, build
//! parameters, an item plan, and the stream split, shard count and
//! thread count the pipelines that take them run at. `tests/pipelines.rs`
//! draws them from [`Scenarios`]; a suite that needs one small cube
//! starts from [`Scenario::small`].

use super::short_paths;
use flowcube_core::{CubeDelta, FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, DimShape, GeneratorConfig};
use flowcube_hier::{
    ConceptHierarchy, ConceptId, DurationLevel, ItemLattice, LocationCut, PathLatticeSpec,
    PathLevel, Schema,
};
use flowcube_pathdb::{samples, MergePolicy, PathDatabase, PathRecord, Stage};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;

/// `Bucket(3)` refines neither `Bucket(2)` nor `Bucket(4)`, so a lattice
/// holding it next to them has levels on one cut that are each walked;
/// `Raw` refines all of them, `Any` none.
const DURATIONS: [DurationLevel; 5] = [
    DurationLevel::Raw,
    DurationLevel::Bucket(2),
    DurationLevel::Bucket(3),
    DurationLevel::Bucket(4),
    DurationLevel::Any,
];

#[derive(Clone, Debug)]
pub enum Lattice {
    /// `PathLatticeSpec::paper(n)`.
    Paper(usize),
    /// Distinct `(one level up?, duration)` levels, on the leaf cut or
    /// the cut one level up.
    Levels(Vec<(bool, DurationLevel)>),
}

impl Lattice {
    /// Leaf locations with durations as recorded, then location groups
    /// with durations at `*`.
    pub fn leaf_and_group() -> Self {
        Lattice::Levels(vec![
            (false, DurationLevel::Raw),
            (true, DurationLevel::Any),
        ])
    }
}

/// One input to every pipeline.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The generated database; `None` is the paper's Table 1.
    pub data: Option<GeneratorConfig>,
    pub lattice: Lattice,
    pub merge: MergePolicy,
    pub min_support: u64,
    pub tau: Option<f64>,
    pub exceptions: bool,
    /// `None` plans every item level; a mask keeps the levels, numbered
    /// coarsest first, whose bit is set.
    pub plan: Option<u64>,
    /// Micro-batches the incremental pipelines split the stream into.
    pub batches: usize,
    pub shards: u32,
    pub threads: usize,
}

/// A scenario's cube, with what it was built from.
pub struct Small {
    pub db: PathDatabase,
    pub spec: PathLatticeSpec,
    pub params: FlowCubeParams,
    pub cube: FlowCube,
}

impl Scenario {
    /// 120 paths of [`GeneratorConfig::small`] under the paper's leaf
    /// path level (`loc0/dur0`), exceptions on, one build thread, at δ =
    /// `min_support`: the cube most suites need. Vary it by struct
    /// update, `Scenario { lattice: Lattice::Paper(2), ..Scenario::small(3, 4) }`,
    /// and [`Scenario::paths`].
    pub fn small(seed: u64, min_support: u64) -> Self {
        Scenario {
            data: Some(GeneratorConfig::small(120, seed)),
            lattice: Lattice::Paper(1),
            merge: MergePolicy::Sum,
            min_support,
            tau: None,
            exceptions: true,
            plan: None,
            batches: 3,
            shards: 2,
            threads: 1,
        }
    }

    /// The scenario over `num_paths` generated paths.
    pub fn paths(mut self, num_paths: usize) -> Self {
        let config = self.data.as_mut().expect("a generated database");
        config.num_paths = num_paths;
        self
    }

    /// The scenario's database as a live stream: `base` paths that are
    /// there from the start, then `batches` micro-batches of ten paths
    /// each that arrive later.
    pub fn base_and_batches(
        &self,
        base: usize,
        batches: usize,
    ) -> (PathDatabase, Vec<PathDatabase>) {
        let db = self.clone().paths(base + batches * 10).db();
        let (head, tail) = db.records().split_at(base);
        let part =
            |records: &[_]| PathDatabase::from_records(db.schema().clone(), records.to_vec());
        let batches = tail.chunks(10).map(|c| part(c).unwrap()).collect();
        (part(head).unwrap(), batches)
    }

    /// The delta of `batch` under this scenario's lattice, parameters
    /// and plan: what `FlowCube::apply_delta` and `/admin/ingest` take.
    pub fn delta(&self, batch: &PathDatabase) -> CubeDelta {
        CubeDelta::compute(
            batch,
            &self.spec(batch),
            &self.params(),
            &self.item_plan(batch),
        )
    }

    /// The scenario's cube, as `FlowCube::build` builds it.
    pub fn build(&self) -> Small {
        let db = self.db();
        let cube = self.cube_of(&db);
        Small {
            spec: cube.spec().clone(),
            params: self.params(),
            db,
            cube,
        }
    }

    /// The cube `FlowCube::build` builds over `db` with this scenario's
    /// lattice, parameters and plan: a batch of the scenario's stream, a
    /// partition, or a database of cleaned readings.
    pub fn cube_of(&self, db: &PathDatabase) -> FlowCube {
        FlowCube::build(db, self.spec(db), self.params(), self.item_plan(db))
    }

    /// The paper's Table 1 under its four path levels.
    pub fn paper_table1(min_support: u64, shards: u32) -> Self {
        Scenario {
            data: None,
            lattice: Lattice::Paper(4),
            merge: MergePolicy::Sum,
            min_support,
            tau: None,
            exceptions: true,
            plan: None,
            batches: 3,
            shards,
            threads: 2,
        }
    }

    pub fn db(&self) -> PathDatabase {
        match &self.data {
            Some(config) => generate(config).db,
            None => samples::paper_table1(),
        }
    }

    pub fn levels(&self) -> usize {
        match &self.lattice {
            Lattice::Paper(n) => *n,
            Lattice::Levels(levels) => levels.len(),
        }
    }

    pub fn spec(&self, db: &PathDatabase) -> PathLatticeSpec {
        let loc = db.schema().locations();
        let Lattice::Levels(levels) = &self.lattice else {
            return PathLatticeSpec::paper(loc, self.levels());
        };
        let level = |(i, &(up, duration)): (usize, &(bool, DurationLevel))| {
            let cut = LocationCut::uniform_level(loc, loc.max_level() - u8::from(up));
            PathLevel::new(format!("l{i}"), cut, duration)
        };
        PathLatticeSpec::new(levels.iter().enumerate().map(level).collect())
    }

    /// The build parameters; phases fan out from two work items, so the
    /// thread count reaches every phase.
    pub fn params(&self) -> FlowCubeParams {
        let mut params = FlowCubeParams::new(self.min_support)
            .with_exceptions(self.exceptions)
            .with_threads(self.threads)
            .with_parallel_cutoff(2);
        params.merge = self.merge;
        params.redundancy_tau = self.tau;
        params
    }

    pub fn item_plan(&self, db: &PathDatabase) -> ItemPlan {
        let Some(mask) = self.plan else {
            return ItemPlan::All;
        };
        let levels = ItemLattice::new(db.schema().max_item_levels()).iter_top_down();
        let kept = (levels.into_iter().enumerate()).filter(|(i, _)| mask >> i & 1 == 1);
        ItemPlan::Selected(kept.map(|(_, level)| level).collect())
    }
}

/// Generated scenarios. Half build at δ = 1 and half leave τ unset, so
/// the rows whose contract needs both run on a quarter of them.
pub struct Scenarios;

impl Strategy for Scenarios {
    type Value = Scenario;

    fn gen(&self, rng: &mut TestRng) -> Scenario {
        let mut levels = Vec::new();
        let lattice = match rng.gen_bool(0.5) {
            true => {
                let want = rng.gen_range(2..=5usize);
                while levels.len() < want {
                    let level = (rng.gen_bool(0.5), pick(rng, &DURATIONS));
                    if !levels.contains(&level) {
                        levels.push(level);
                    }
                }
                Lattice::Levels(levels)
            }
            false => Lattice::Paper(rng.gen_range(1..=4usize)),
        };
        let (seed, paths) = (rng.gen_range(0..10_000u64), rng.gen_range(16..=64usize));
        // Either `short_paths`, or two `[2, 2]` dimensions with two-stage
        // paths and durations up to 9, past where `Bucket(3)` and
        // `Bucket(4)` part.
        let long = GeneratorConfig {
            dims: vec![DimShape::new(vec![2, 2], 0.7); 2],
            num_sequences: 4,
            path_len: (2, 5),
            max_duration: 9,
            ..GeneratorConfig::small(paths, seed)
        };
        Scenario {
            data: Some(match rng.gen_bool(0.5) {
                true => long,
                false => short_paths(paths, seed),
            }),
            lattice,
            merge: pick(
                rng,
                &[MergePolicy::Sum, MergePolicy::Max, MergePolicy::First],
            ),
            min_support: pick(rng, &[1, 1, 2, 4]),
            tau: pick(rng, &[None, None, Some(0.05), Some(0.3)]),
            exceptions: rng.gen_bool(0.5),
            plan: rng.gen_bool(0.5).then(|| rng.gen()),
            batches: rng.gen_range(2..=4usize),
            shards: pick(rng, &[2, 3, 7, 97]),
            threads: rng.gen_range(1..=4usize),
        }
    }
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// A small fixed schema: 2 dims (2-level and 1-level), 2 location groups
/// of 3 leaves.
pub fn small_schema() -> Schema {
    let mut d0 = ConceptHierarchy::new("d0");
    for a in 0..2 {
        for b in 0..2 {
            d0.add_path([format!("a{a}"), format!("a{a}b{b}")]).unwrap();
        }
    }
    let mut d1 = ConceptHierarchy::new("d1");
    d1.add_path(["x"]).unwrap();
    d1.add_path(["y"]).unwrap();
    let mut loc = ConceptHierarchy::new("location");
    for g in 0..2 {
        for l in 0..3 {
            loc.add_path([format!("g{g}"), format!("g{g}l{l}")])
                .unwrap();
        }
    }
    Schema::new(vec![d0, d1], loc)
}

/// Strategy: a random path database over [`small_schema`] — any leaf
/// values, one to five stages with durations 0–5 — for the properties
/// that must hold of every database, not only of generated ones.
pub fn arb_db(max_records: usize) -> impl Strategy<Value = PathDatabase> {
    let schema = small_schema();
    let leaf_ids: Vec<ConceptId> = schema.locations().leaves().collect();
    let d0_leaves: Vec<ConceptId> = schema.dim(0).leaves().collect();
    let d1_leaves: Vec<ConceptId> = schema.dim(1).leaves().collect();
    let record = (
        0..d0_leaves.len(),
        0..d1_leaves.len(),
        prop::collection::vec((0..leaf_ids.len(), 0u32..6), 1..6),
    );
    prop::collection::vec(record, 1..=max_records).prop_map(move |rows| {
        let mut db = PathDatabase::new(small_schema());
        for (i, (a, b, stages)) in rows.into_iter().enumerate() {
            let mut prev = usize::MAX;
            let stages: Vec<Stage> = stages
                .into_iter()
                .filter(|&(l, _)| {
                    let keep = l != prev;
                    prev = l;
                    keep
                })
                .map(|(l, d)| Stage::new(leaf_ids[l], d))
                .collect();
            if stages.is_empty() {
                continue;
            }
            db.push(PathRecord::new(
                i as u64,
                vec![d0_leaves[a], d1_leaves[b]],
                stages,
            ))
            .unwrap();
        }
        if db.is_empty() {
            db.push(PathRecord::new(
                999,
                vec![d0_leaves[0], d1_leaves[0]],
                vec![Stage::new(leaf_ids[0], 1)],
            ))
            .unwrap();
        }
        db
    })
}

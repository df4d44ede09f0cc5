//! The one scenario generator of `tests/pipelines.rs`: a small database,
//! a path lattice, build parameters, an item plan, and the stream split,
//! shard count and thread count the pipelines that take them run at.

use super::short_paths;
use flowcube::datagen::{generate, DimShape, GeneratorConfig};
use flowcube::hier::{DurationLevel, ItemLattice, LocationCut, PathLatticeSpec, PathLevel};
use flowcube::pathdb::{samples, MergePolicy};
use flowcube::{FlowCubeParams, ItemPlan, PathDatabase};
use proptest::strategy::Strategy;
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

impl Scenario {
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

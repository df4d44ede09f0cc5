//! The five workloads' datasets: generator configuration, path lattice
//! and build parameters. Everything the program under test sees is
//! generated here from `--seed`; sizes are fixed (see README.md for why
//! each was chosen).

use flowcube_core::FlowCubeParams;
use flowcube_datagen::{DimShape, GeneratorConfig};
use flowcube_hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel, Schema};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    BuildFig6,
    ServeHot,
    ServeScan,
    Federate2x2,
    IngestLive,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BuildFig6,
        Workload::ServeHot,
        Workload::ServeScan,
        Workload::Federate2x2,
        Workload::IngestLive,
    ];

    /// The workloads `BENCHMARK.json` lists, which the driver runs and
    /// gates. All of a workload's ten runs fall inside one of the host's
    /// minute-long episodes of interference unless a run is about 40 s
    /// long, and the driver's time limit pays for three workloads of that
    /// length. `build_fig6` carries the hot serving path too (its serving
    /// phase is the `serve_hot` mix); `serve_hot` and `ingest_live` are run
    /// by hand, or by `check_repeat.sh 10 serve_hot ingest_live`.
    pub const GATED: [Workload; 3] = [
        Workload::BuildFig6,
        Workload::ServeScan,
        Workload::Federate2x2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildFig6 => "build_fig6",
            Workload::ServeHot => "serve_hot",
            Workload::ServeScan => "serve_scan",
            Workload::Federate2x2 => "federate_2x2",
            Workload::IngestLive => "ingest_live",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Paths per ingested micro-batch.
pub const BATCH_PATHS: usize = 20;
/// Distinct pre-computed delta bodies; the writer cycles through them.
pub const DELTA_BODIES: usize = 48;
/// Shards and replicas per shard of the federation.
pub const SHARDS: u32 = 2;
pub const REPLICAS: usize = 2;
/// Sidecar size that triggers a compaction on the ingest server.
pub const COMPACT_AFTER_BYTES: u64 = 4 * 1024 * 1024;

pub struct Dataset {
    pub config: GeneratorConfig,
    /// Paths in the cube; `config.num_paths` exceeds it by the held-out
    /// ingest batches on `ingest_live`.
    pub base_paths: usize,
    pub min_support: u64,
    /// τ of Definition 4.4; `None` leaves redundancy pruning off.
    pub redundancy_tau: Option<f64>,
    pub exceptions: bool,
    /// All four paper path levels, or only the two finest-location ones.
    pub path_levels: usize,
    /// How often one set-up runs the readings → snapshot pipeline (the
    /// fastest pass is reported): more than once where a pass takes a
    /// fraction of a second. A run sets up twice, before and after its
    /// window, so every workload but `build_fig6` has at least two passes.
    pub pipeline_passes: usize,
}

/// The generator's own seed is pinned: it decides the supply-chain
/// topology (which 30 location sequences exist), and with it the mining
/// cost — 13 s to 34 s at N = 100 000 across generator seeds, a spread no
/// regression bound could absorb. `--seed` instead decides which half of
/// a twice-as-large generated population a run sees (`prepare.rs`), its
/// ingest batches, and its request sequence.
const TOPOLOGY_SEED: u64 = 42;

/// §6.1's generator defaults: 3-level hierarchies, 20 locations in 4
/// groups, 30 valid sequences, Zipf 0.8 everywhere.
fn paper_config(num_paths: usize, dims: Vec<DimShape>) -> GeneratorConfig {
    GeneratorConfig {
        num_paths,
        dims,
        location_groups: 4,
        locations_per_group: 5,
        location_skew: 0.8,
        num_sequences: 30,
        sequence_skew: 0.8,
        path_len: (3, 8),
        max_duration: 8,
        duration_skew: 1.0,
        flow_correlation: 0.0,
        exception_bias: 0.0,
        seed: TOPOLOGY_SEED,
    }
}

pub fn dataset(workload: Workload) -> Dataset {
    let dims = |d: usize| vec![DimShape::new(vec![4, 4, 6], 0.8); d];
    match workload {
        Workload::BuildFig6 => Dataset {
            config: paper_config(100_000, dims(5)),
            base_paths: 100_000,
            min_support: 1_000,
            redundancy_tau: Some(0.05),
            exceptions: true,
            path_levels: 4,
            pipeline_passes: 1,
        },
        Workload::ServeHot | Workload::ServeScan => Dataset {
            config: paper_config(10_000, dims(5)),
            base_paths: 10_000,
            min_support: 100,
            redundancy_tau: None,
            exceptions: true,
            path_levels: 4,
            pipeline_passes: 1,
        },
        Workload::Federate2x2 => Dataset {
            config: paper_config(20_000, vec![DimShape::new(vec![4, 6], 0.8); 3]),
            base_paths: 20_000,
            // Shards build with `partial_params`, which forces δ = 1.
            min_support: 1,
            redundancy_tau: None,
            exceptions: false,
            path_levels: 2,
            pipeline_passes: 1,
        },
        Workload::IngestLive => Dataset {
            config: paper_config(5_000 + DELTA_BODIES * BATCH_PATHS, dims(2)),
            base_paths: 5_000,
            min_support: 50,
            redundancy_tau: None,
            // The serving tier's ingest path is algebraic only (Lemma
            // 4.2); exceptions come back with the next mined snapshot.
            exceptions: false,
            path_levels: 4,
            pipeline_passes: 9,
        },
    }
}

impl Dataset {
    pub fn params(&self) -> FlowCubeParams {
        let mut p = FlowCubeParams::new(self.min_support).with_exceptions(self.exceptions);
        p.redundancy_tau = self.redundancy_tau;
        p
    }

    /// The paper's path abstraction levels: locations as recorded and one
    /// level up, durations as recorded and `*`.
    pub fn spec(&self, schema: &Schema) -> PathLatticeSpec {
        let loc = schema.locations();
        let fine = LocationCut::uniform_level(loc, loc.max_level());
        let coarse = LocationCut::uniform_level(loc, loc.max_level() - 1);
        let mut levels = vec![
            PathLevel::new("loc0/dur0", fine.clone(), DurationLevel::Raw),
            PathLevel::new("loc0/dur*", fine, DurationLevel::Any),
            PathLevel::new("loc1/dur0", coarse.clone(), DurationLevel::Raw),
            PathLevel::new("loc1/dur*", coarse, DurationLevel::Any),
        ];
        levels.truncate(self.path_levels);
        PathLatticeSpec::new(levels)
    }
}

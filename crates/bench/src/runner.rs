//! Timing runner: executes Shared / Cubing / Basic on one dataset and
//! collects runtimes plus mining statistics, and [`median_secs`], the
//! one repeat-and-take-the-median timer the harness binaries share.

use flowcube_datagen::{generate, GeneratorConfig};
use flowcube_hier::PathLatticeSpec;
use flowcube_mining::{mine, mine_cubing, CubingConfig, MiningStats, SharedConfig, TransactionDb};
use flowcube_obs::MetricsSnapshot;
use flowcube_pathdb::{MergePolicy, PathDatabase};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One algorithm's outcome on one dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AlgoResult {
    pub algorithm: String,
    pub seconds: f64,
    pub frequent_patterns: u64,
    pub candidates_counted: u64,
    pub stats: MiningStats,
}

/// All algorithms on one dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    pub label: String,
    pub num_paths: usize,
    pub min_support: u64,
    pub encode_seconds: f64,
    pub shared: AlgoResult,
    pub cubing: AlgoResult,
    /// `None` when Basic was skipped (candidate explosion, as in the
    /// paper where Basic could not finish several configurations).
    pub basic: Option<AlgoResult>,
    /// Frozen `flowcube-obs` metrics for the whole run (per-algorithm
    /// counters under `mining.shared.*` / `mining.cubing.*` /
    /// `mining.basic.*`); `None` when recording was disabled.
    pub metrics: Option<MetricsSnapshot>,
}

/// Time a closure through the `flowcube-obs` span API: always measured,
/// and visible as a named span in traces when recording is enabled.
fn time_it<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let timer = flowcube_obs::Timer::start(name);
    let out = f();
    (out, timer.stop().as_secs_f64())
}

/// Seconds per call of `f`: the median over `batches` batches of `iters`
/// calls each. A batch spreads one clock read over calls too short to
/// time alone; the median ignores a batch a noisy neighbour slowed.
pub fn median_secs(batches: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / f64::from(iters)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Generate a dataset from `config`, encode it once, then run the
/// algorithms with an absolute support of `support_pct · N` (min 2).
pub fn run_all(
    label: &str,
    config: &GeneratorConfig,
    support_pct: f64,
    run_basic: bool,
) -> RunResult {
    let generated = generate(config);
    run_all_on(label, &generated.db, support_pct, run_basic)
}

/// Same as [`run_all`] over an existing database.
pub fn run_all_on(label: &str, db: &PathDatabase, support_pct: f64, run_basic: bool) -> RunResult {
    let delta = ((db.len() as f64 * support_pct).ceil() as u64).max(2);
    let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
    let (tx, encode_seconds) = time_it("bench.encode", || {
        TransactionDb::encode(db, spec, MergePolicy::Sum)
    });

    let (shared_out, shared_secs) =
        time_it("bench.shared", || mine(&tx, &SharedConfig::shared(delta)));
    shared_out.stats.publish("mining.shared");
    let shared = AlgoResult {
        algorithm: "shared".into(),
        seconds: shared_secs,
        frequent_patterns: shared_out.stats.total_frequent(),
        candidates_counted: shared_out.stats.total_counted(),
        stats: shared_out.stats,
    };

    let (cubing_out, cubing_secs) = time_it("bench.cubing", || {
        mine_cubing(db, &tx, &CubingConfig::new(delta))
    });
    cubing_out.stats.publish("mining.cubing");
    let cubing = AlgoResult {
        algorithm: "cubing".into(),
        seconds: cubing_secs,
        frequent_patterns: cubing_out.stats.total_frequent(),
        candidates_counted: cubing_out.stats.total_counted(),
        stats: cubing_out.stats,
    };

    let basic = run_basic.then(|| {
        let (basic_out, basic_secs) =
            time_it("bench.basic", || mine(&tx, &SharedConfig::basic(delta)));
        basic_out.stats.publish("mining.basic");
        AlgoResult {
            algorithm: "basic".into(),
            seconds: basic_secs,
            frequent_patterns: basic_out.stats.total_frequent(),
            candidates_counted: basic_out.stats.total_counted(),
            stats: basic_out.stats,
        }
    });

    RunResult {
        label: label.to_string(),
        num_paths: db.len(),
        min_support: delta,
        encode_seconds,
        shared,
        cubing,
        basic,
        metrics: flowcube_obs::is_enabled().then(flowcube_obs::snapshot),
    }
}

/// Print a result row: label, then seconds per algorithm.
pub fn print_row(r: &RunResult) {
    let basic = r
        .basic
        .as_ref()
        .map(|b| format!("{:>9.3}", b.seconds))
        .unwrap_or_else(|| "        -".into());
    println!(
        "{:<18} N={:<8} δ={:<6} shared={:>9.3}s cubing={:>9.3}s basic={basic}s",
        r.label, r.num_paths, r.min_support, r.shared.seconds, r.cubing.seconds
    );
}

/// Print a table header for the per-figure binaries.
pub fn print_header(title: &str) {
    println!("== {title} ==");
    println!(
        "{:<18} {:<10} {:<8} {:>16} {:>16} {:>10}",
        "series", "paths", "minsup", "shared(s)", "cubing(s)", "basic(s)"
    );
}

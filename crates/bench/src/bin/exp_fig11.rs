//! Figure 11 — pruning power: candidates counted per pattern length,
//! Basic vs. Shared (paper: N = 100k, δ = 1%, d = 5; Shared stops at
//! length 8 while Basic drags ancestor-laden transactions out to
//! length 12). A second table ablates the same run: seconds and
//! candidates with each Shared pruning rule toggled on its own, the
//! build's fifth (family) rule and look-ahead on top of the paper's
//! four, and Cubing as the paper ran it beside its in-memory variants.
//!
//! Usage: `exp_fig11 [--scale 0.1]`

use flowcube_bench::experiments::{fig11_pruning, fig11_support, paper_db, ExperimentScale};
use flowcube_bench::median_secs;
use flowcube_hier::PathLatticeSpec;
use flowcube_mining::{
    mine, mine_cubing, CubingConfig, CubingIo, MiningStats, SharedConfig, TransactionDb,
};
use flowcube_pathdb::MergePolicy;

/// Timed runs per ablation row (the median is printed).
const RUNS: usize = 3;

/// Print one ablation row: median seconds and candidates counted.
fn ablation_row(name: &str, mut run: impl FnMut() -> MiningStats) {
    let mut stats = None;
    let secs = median_secs(RUNS, 1, || stats = Some(run()));
    let counted = stats.map_or(0, |s| s.total_counted());
    println!("{name:<28} {secs:>12.3} {counted:>14}");
}

fn main() {
    let db = paper_db(ExperimentScale::from_args());
    let n = db.len();
    let tx = TransactionDb::encode(
        &db,
        PathLatticeSpec::paper(db.schema().locations(), 4),
        MergePolicy::Sum,
    );
    let delta = fig11_support(n);
    fig11_pruning(&tx);

    println!();
    println!("== Pruning ablation (N = {n}, δ = 1%, median of {RUNS} runs) ==");
    println!("{:<28} {:>12} {:>14}", "variant", "seconds", "candidates");
    let without = |toggle: fn(&mut SharedConfig)| {
        let mut cfg = SharedConfig::shared(delta);
        toggle(&mut cfg);
        cfg
    };
    let shared_variants = [
        ("shared: all-prunes", SharedConfig::shared(delta)),
        ("shared: family (rule 5)", SharedConfig::cube_family(delta)),
        ("shared: no-precount", without(|c| c.precount = false)),
        (
            "shared: no-unlinkable",
            without(|c| c.prune_unlinkable = false),
        ),
        (
            "shared: no-ancestor",
            without(|c| c.prune_ancestor_pairs = false),
        ),
        ("shared: none (basic)", SharedConfig::basic(delta)),
        ("shared: lookahead", SharedConfig::shared_ahead(delta)),
    ];
    for (name, cfg) in &shared_variants {
        ablation_row(name, || mine(&tx, cfg).stats);
    }
    let cubing_variants = [
        ("cubing: spill-plain (paper)", CubingConfig::new(delta)),
        ("cubing: mem-pruned", CubingConfig::pruned_in_memory(delta)),
        (
            "cubing: mem-plain",
            CubingConfig {
                min_support: delta,
                local_pruning: false,
                io: CubingIo::InMemory,
                threads: 0,
            },
        ),
    ];
    for (name, cfg) in &cubing_variants {
        ablation_row(name, || mine_cubing(&db, &tx, cfg).stats);
    }
}

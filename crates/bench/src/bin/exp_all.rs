//! Run every experiment (Figures 6–11) at the given scale and write the
//! raw results to `bench_results.json` for the EXPERIMENTS.md ledger.
//!
//! Usage: `exp_all [--scale 0.05] [--out bench_results.json]`

use flowcube_bench::experiments::{
    fig10, fig11_pruning, fig6, fig7, fig8, fig9, paper_db, ExperimentScale,
};
use flowcube_bench::runner::RunResult;
use flowcube_hier::PathLatticeSpec;
use flowcube_mining::{MiningStats, TransactionDb};
use flowcube_pathdb::MergePolicy;
use serde::Serialize;

#[derive(Serialize)]
struct AllResults {
    scale: f64,
    fig6: Vec<RunResult>,
    fig7: Vec<RunResult>,
    fig8: Vec<RunResult>,
    fig9: Vec<RunResult>,
    fig10: Vec<RunResult>,
    fig11_shared: MiningStats,
    fig11_basic: MiningStats,
}

fn main() {
    let scale = ExperimentScale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "bench_results.json".to_string());

    let fig6 = fig6(scale);
    let db = paper_db(scale);
    let fig7 = fig7(&db);
    let fig8 = fig8(scale);
    let fig9 = fig9(scale);
    let fig10 = fig10(scale);
    let tx = TransactionDb::encode(
        &db,
        PathLatticeSpec::paper(db.schema().locations(), 4),
        MergePolicy::Sum,
    );
    let (fig11_shared, fig11_basic) = fig11_pruning(&tx);

    let all = AllResults {
        scale: scale.0,
        fig6,
        fig7,
        fig8,
        fig9,
        fig10,
        fig11_shared,
        fig11_basic,
    };
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&all).expect("serialize results"),
    )
    .expect("write results file");
    println!("\nwrote {out_path}");
}

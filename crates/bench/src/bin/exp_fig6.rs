//! Figure 6 — runtime vs. database size (paper: 100k–1M paths, δ = 1%,
//! d = 5; Basic only completed 100k and 200k before its candidate set
//! outgrew memory).
//!
//! Usage: `exp_fig6 [--scale 0.1]`

use flowcube_bench::experiments::{fig6, ExperimentScale};

fn main() {
    fig6(ExperimentScale::from_args());
}

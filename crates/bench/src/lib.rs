//! Experiment harness reproducing the paper's evaluation (§6).
//!
//! Each `exp_fig*` binary regenerates one figure: it synthesizes the
//! paper's dataset (scaled by `--scale`, default 1/10 of the paper's
//! sizes so a laptop run finishes in minutes), times the Shared, Cubing,
//! and Basic algorithms, and prints the same series the figure plots.
//! `exp_overhead` and `exp_incremental` print the two numbers CI gates
//! as one JSON line each.

pub mod experiments;
pub mod runner;

pub use experiments::ExperimentScale;
pub use runner::{median_secs, run_all, AlgoResult, RunResult};

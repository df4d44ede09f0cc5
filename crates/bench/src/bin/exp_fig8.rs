//! Figure 8 — runtime vs. number of path-independent dimensions (paper:
//! 2–10 dims, N = 100k, δ = 1%, deliberately sparse data). All three
//! algorithms stay close: sparsity lets everyone prune early.
//!
//! Usage: `exp_fig8 [--scale 0.1]`

use flowcube_bench::experiments::{fig8, ExperimentScale};

fn main() {
    fig8(ExperimentScale::from_args());
}

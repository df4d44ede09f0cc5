//! Figure 10 — runtime vs. path density (number of distinct location
//! sequences; paper sweeps roughly 10–150 on the x-axis labelled 5–50).
//! Few distinct sequences = dense paths = many frequent segments: mining
//! is most expensive there, and Shared's one-pass multi-level counting
//! pulls far ahead of Cubing's per-cell re-mining. Basic cannot run at
//! all on dense paths (candidate explosion), as in the paper.
//!
//! Usage: `exp_fig10 [--scale 0.1]`

use flowcube_bench::experiments::{fig10, ExperimentScale};

fn main() {
    fig10(ExperimentScale::from_args());
}

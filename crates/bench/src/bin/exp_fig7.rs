//! Figure 7 — runtime vs. minimum support (paper: 0.3%–2%, N = 100k,
//! d = 5). All three algorithms improve as support rises; Basic improves
//! fastest, Shared stays ahead of Cubing with a widening relative gap.
//!
//! Usage: `exp_fig7 [--scale 0.1]`

use flowcube_bench::experiments::{fig7, paper_db, ExperimentScale};

fn main() {
    fig7(&paper_db(ExperimentScale::from_args()));
}

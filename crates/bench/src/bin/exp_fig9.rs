//! Figure 9 — runtime vs. item-dimension density (paper datasets:
//! a = 2,2,5 / b = 4,4,6 / c = 5,5,10 distinct values per level;
//! N = 100k, δ = 1%, d = 5). Sparser data (more distinct values) means
//! fewer frequent cells and segments, so every algorithm gets faster.
//! Basic could not run dataset *a* in the paper (candidate explosion);
//! we skip it there too.
//!
//! Usage: `exp_fig9 [--scale 0.1]`

use flowcube_bench::experiments::{fig9, ExperimentScale};

fn main() {
    fig9(ExperimentScale::from_args());
}

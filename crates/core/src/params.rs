//! Construction parameters and materialization plans.

use flowcube_hier::ItemLevel;
use flowcube_pathdb::MergePolicy;
use serde::{Deserialize, Serialize};

/// Which mining algorithm powers flowcube construction (§5 / §6).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Algorithm {
    /// Algorithm 1 — simultaneous multi-level mining with all prunings.
    Shared,
    /// Shared with every candidate-pruning optimization disabled.
    Basic,
    /// Algorithm 2 — BUC iceberg cube + per-cell Apriori.
    Cubing,
}

/// Flowcube construction parameters (δ, ε, τ of §3–§4).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlowCubeParams {
    /// δ — minimum paths per materialized cell (iceberg condition) and
    /// minimum support for frequent path segments / exceptions.
    pub min_support: u64,
    /// ε — minimum distribution shift for an exception to be recorded.
    pub exception_deviation: f64,
    /// τ — when set, cells whose flowgraph diverges from **all** parent
    /// cells by at most τ (KL) are pruned as redundant (Definition 4.4).
    pub redundancy_tau: Option<f64>,
    /// How durations combine when consecutive stages merge under
    /// aggregation.
    pub merge: MergePolicy,
    pub algorithm: Algorithm,
    /// Mine exceptions (the holistic, expensive part of the measure).
    pub mine_exceptions: bool,
    /// Worker threads for mining scans and flowgraph materialization.
    /// `0` resolves automatically: the `FLOWCUBE_THREADS` environment
    /// variable if set, else `available_parallelism`. Output is
    /// bit-identical at any setting.
    #[serde(default)]
    pub threads: usize,
    /// Work-item count at or below which a phase runs serially regardless
    /// of `threads` (`0` = the library default,
    /// [`flowcube_mining::DEFAULT_PARALLEL_CUTOFF`]). Mining and
    /// materialization share this one policy via [`Self::threads_for`].
    #[serde(default)]
    pub parallel_cutoff: usize,
}

impl FlowCubeParams {
    pub fn new(min_support: u64) -> Self {
        FlowCubeParams {
            min_support,
            exception_deviation: 0.25,
            redundancy_tau: None,
            merge: MergePolicy::Sum,
            algorithm: Algorithm::Shared,
            mine_exceptions: true,
            threads: 0,
            parallel_cutoff: 0,
        }
    }

    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    pub fn with_redundancy(mut self, tau: f64) -> Self {
        self.redundancy_tau = Some(tau);
        self
    }

    pub fn with_exceptions(mut self, on: bool) -> Self {
        self.mine_exceptions = on;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn with_parallel_cutoff(mut self, cutoff: usize) -> Self {
        self.parallel_cutoff = cutoff;
        self
    }

    /// Worker count to actually use for a phase with `work_items` units of
    /// work — the single threads policy shared by mining and
    /// materialization.
    pub fn threads_for(&self, work_items: usize) -> usize {
        flowcube_mining::plan_threads(self.threads, work_items, self.parallel_cutoff)
    }
}

/// The parameters of a partial cube — a shard's part or an ingested
/// delta: counts only. δ is 1, exceptions and redundancy pruning are
/// off, since the iceberg cut, the exception measure (Lemma 4.3) and
/// Definition 4.4 are holistic; the cube the parts add into applies
/// them. Everything else (merge policy, algorithm, threads) is `full`'s,
/// so the partial counts are exactly the ones a full build would add.
pub fn partial_params(full: &FlowCubeParams) -> FlowCubeParams {
    let mut p = full.clone();
    p.min_support = 1;
    p.mine_exceptions = false;
    p.redundancy_tau = None;
    p
}

/// Which item-lattice levels get materialized (§5, "Partial
/// Materialization"). Han et al.'s minimum/observation-layer strategy
/// is a [`ItemPlan::Selected`] list: the minimum layer, the observation
/// layer and the popular cuboids between them.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub enum ItemPlan {
    /// Materialize every frequent cell at every item level.
    #[default]
    All,
    /// Materialize only the listed item levels.
    Selected(Vec<ItemLevel>),
}

impl ItemPlan {
    /// Does the plan materialize `level`?
    pub fn includes(&self, level: &ItemLevel) -> bool {
        match self {
            ItemPlan::All => true,
            ItemPlan::Selected(levels) => levels.contains(level),
        }
    }

    /// The levels the plan materializes; `None` for every level.
    pub(crate) fn levels(&self) -> Option<Vec<ItemLevel>> {
        match self {
            ItemPlan::All => None,
            ItemPlan::Selected(levels) => Some(levels.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let p = FlowCubeParams::new(5)
            .with_algorithm(Algorithm::Cubing)
            .with_redundancy(0.1)
            .with_exceptions(false)
            .with_threads(3)
            .with_parallel_cutoff(2);
        assert_eq!(p.min_support, 5);
        assert_eq!(p.algorithm, Algorithm::Cubing);
        assert_eq!(p.redundancy_tau, Some(0.1));
        assert!(!p.mine_exceptions);
        assert_eq!(p.threads, 3);
        assert_eq!(p.parallel_cutoff, 2);
    }

    #[test]
    fn threads_policy_shared_by_phases() {
        // Below the cutoff the phase runs serially even with an explicit
        // thread request; above it the request is honored and clamped.
        let p = FlowCubeParams::new(2).with_threads(4);
        assert_eq!(p.threads_for(8), 1, "default cutoff is 8");
        assert_eq!(p.threads_for(9), 4);
        assert_eq!(p.threads_for(3), 1);
        let p = p.with_parallel_cutoff(2);
        assert_eq!(p.threads_for(3), 3, "clamped to work items");
        assert_eq!(p.threads_for(100), 4);
        assert_eq!(p.threads_for(2), 1, "cutoff override respected");
    }

    #[test]
    fn item_plan_filters() {
        let all = ItemPlan::All;
        assert!(all.includes(&ItemLevel(vec![1, 2])));
        let sel = ItemPlan::Selected(vec![ItemLevel(vec![0, 0]), ItemLevel(vec![1, 1])]);
        assert!(sel.includes(&ItemLevel(vec![1, 1])));
        assert!(!sel.includes(&ItemLevel(vec![0, 1])));
    }
}

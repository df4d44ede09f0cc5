//! Build-time statistics: phase timings plus the mining counters.

use flowcube_mining::MiningStats;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Statistics collected during flowcube construction.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BuildStats {
    /// Counters from the frequent-pattern phase (candidates per length,
    /// prunes, scans, …).
    pub mining: MiningStats,
    /// Transforming the path database into transactions.
    pub encode_time: Duration,
    /// Frequent-pattern mining proper.
    pub mining_time: Duration,
    /// Segment decoding, the BUC pass (iceberg cells with their tid
    /// lists) and path aggregation.
    pub prepare_time: Duration,
    /// Flowgraph materialization, plus the exceptions pass that runs
    /// after redundancy pruning (`build.exceptions` in a trace).
    pub materialize_time: Duration,
    /// Non-redundancy pruning.
    pub redundancy_time: Duration,
    /// Iceberg cells at the item levels the plan keeps, apex included.
    pub frequent_cells: usize,
    /// Cells materialized across all cuboids (before redundancy pruning).
    pub cells_materialized: usize,
    /// Cells dropped as redundant.
    pub cells_pruned_redundant: usize,
    /// Worker threads the materialization phase actually ran on (after
    /// the cutoff/clamp policy of `FlowCubeParams::threads_for`).
    #[serde(default)]
    pub threads_used: usize,
    /// Build chunks (BUC subtrees, dictionary walks, materialization)
    /// whose worker panicked and were recomputed serially (see
    /// `flowcube_mining::parallel::run_chunks_counted`).
    /// Zero on a healthy build; any other value means a worker died and
    /// the build self-healed without changing its output.
    #[serde(default)]
    pub chunk_retries: usize,
    /// Micro-batch deltas merged into this cube since it was built
    /// (`FlowCube::apply_delta`). Zero for a pure batch build.
    #[serde(default)]
    pub deltas_applied: usize,
    /// Paths contributed by those deltas.
    #[serde(default)]
    pub delta_paths: u64,
}

impl BuildStats {
    /// Total wall-clock time across phases.
    pub fn total_time(&self) -> Duration {
        self.encode_time
            + self.mining_time
            + self.prepare_time
            + self.materialize_time
            + self.redundancy_time
    }

    /// Fold another build's statistics into this one, as when merging
    /// partition cubes (`FlowCube::merge_partitions`).
    ///
    /// Semantics: the result describes the **total work across both
    /// constructions** — counters and timings add (total CPU spent, not
    /// wall clock), `threads_used` takes the maximum (a capability, not a
    /// count), and `cells_materialized` is left alone because only the
    /// caller knows the merged cell count (cells present in both operands
    /// must not be double-counted; callers recompute it from the cube).
    pub fn absorb(&mut self, other: &BuildStats) {
        self.mining.absorb(&other.mining);
        self.encode_time += other.encode_time;
        self.mining_time += other.mining_time;
        self.prepare_time += other.prepare_time;
        self.materialize_time += other.materialize_time;
        self.redundancy_time += other.redundancy_time;
        self.frequent_cells += other.frequent_cells;
        self.cells_pruned_redundant += other.cells_pruned_redundant;
        self.threads_used = self.threads_used.max(other.threads_used);
        self.chunk_retries += other.chunk_retries;
        self.deltas_applied += other.deltas_applied;
        self.delta_paths += other.delta_paths;
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let deltas = if self.deltas_applied > 0 {
            format!(
                ", deltas={} (+{} paths)",
                self.deltas_applied, self.delta_paths
            )
        } else {
            String::new()
        };
        format!(
            "cells={} (pruned {} redundant), frequent patterns={}, \
             candidates counted={} in {} scans, candidates pruned \
             [subset={} ancestor={} unlinkable={} precount={} family={}], threads={}, \
             chunk retries={}{deltas}, total {:?}",
            self.cells_materialized,
            self.cells_pruned_redundant,
            self.mining.total_frequent(),
            self.mining.total_counted(),
            self.mining.scans,
            self.mining.pruned_subset,
            self.mining.pruned_ancestor,
            self.mining.pruned_unlinkable,
            self.mining.pruned_precount,
            self.mining.pruned_family,
            self.threads_used,
            self.chunk_retries,
            self.total_time(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_summary() {
        let mut s = BuildStats {
            encode_time: Duration::from_millis(5),
            mining_time: Duration::from_millis(10),
            cells_materialized: 3,
            ..Default::default()
        };
        s.mining.scans = 4;
        s.mining.pruned_subset = 2;
        s.mining.pruned_ancestor = 7;
        s.mining.pruned_unlinkable = 1;
        s.mining.pruned_precount = 9;
        s.mining.pruned_family = 6;
        s.threads_used = 2;
        s.chunk_retries = 1;
        assert_eq!(s.total_time(), Duration::from_millis(15));
        let summary = s.summary();
        assert!(summary.contains("chunk retries=1"));
        assert!(summary.contains("cells=3"));
        assert!(summary.contains("in 4 scans"));
        assert!(summary.contains("subset=2"));
        assert!(summary.contains("ancestor=7"));
        assert!(summary.contains("unlinkable=1"));
        assert!(summary.contains("precount=9"));
        assert!(summary.contains("family=6"));
        assert!(summary.contains("threads=2"));
        assert!(!summary.contains("deltas="));
        s.deltas_applied = 3;
        s.delta_paths = 40;
        assert!(s.summary().contains("deltas=3 (+40 paths)"));
    }

    #[test]
    fn absorb_combines_both_operands() {
        let mut a = BuildStats {
            encode_time: Duration::from_millis(5),
            frequent_cells: 2,
            cells_materialized: 10,
            threads_used: 2,
            chunk_retries: 1,
            ..Default::default()
        };
        a.mining.scans = 3;
        let mut b = BuildStats {
            encode_time: Duration::from_millis(7),
            frequent_cells: 4,
            cells_materialized: 99,
            threads_used: 8,
            deltas_applied: 1,
            delta_paths: 12,
            ..Default::default()
        };
        b.mining.scans = 2;
        a.absorb(&b);
        assert_eq!(a.mining.scans, 5);
        assert_eq!(a.encode_time, Duration::from_millis(12));
        assert_eq!(a.frequent_cells, 6);
        assert_eq!(a.threads_used, 8);
        assert_eq!(a.chunk_retries, 1);
        assert_eq!(a.deltas_applied, 1);
        assert_eq!(a.delta_paths, 12);
        // cells_materialized is the caller's job — untouched.
        assert_eq!(a.cells_materialized, 10);
    }
}

//! Targeted exception re-mining for incremental cube maintenance.
//!
//! Flowgraph counts are algebraic (Lemma 4.2) and merge for free, but
//! exceptions are holistic (Lemma 4.3): after a delta merge they must be
//! recomputed from the cell's full path set. This module re-mines *only
//! the dirty cells* a delta touched, in parallel, instead of re-running
//! the whole construction — the cost is proportional to the affected
//! cells' path volume, not the database.

use crate::parallel::{balanced_chunks, run_chunks_counted};
use flowcube_flowgraph::{mine_exceptions, Exception, ExceptionParams, FlowGraph};
use flowcube_pathdb::AggStage;

/// One dirty cell: its merged flowgraph plus the full set of aggregated
/// paths that flow into it (base + all deltas — exceptions are holistic,
/// so the partial path set of the delta alone is not enough). Paths are
/// borrowed: owned `Vec<AggStage>`s or `&[AggStage]` slices into a shared
/// per-level aggregation.
pub struct RemineCell<'a, P = Vec<AggStage>> {
    pub graph: &'a FlowGraph,
    pub paths: &'a [P],
}

/// Re-mine exceptions for each cell, returning one exception list per
/// input cell in order. Runs on `threads` workers with the same
/// chunking/self-healing machinery as the build's materialization phase,
/// so the output is bit-identical at any thread count.
pub fn remine_cells<P: AsRef<[AggStage]> + Sync>(
    cells: &[RemineCell<'_, P>],
    params: &ExceptionParams,
    threads: usize,
) -> Vec<Vec<Exception>> {
    if cells.is_empty() {
        return Vec::new();
    }
    let report = run_chunks_counted(
        "mining.remine.chunk",
        cells.len(),
        balanced_chunks(cells.len()),
        threads,
        |range| {
            cells[range]
                .iter()
                .map(|c| mine_exceptions(c.graph, c.paths, params))
                .collect::<Vec<_>>()
        },
    );
    flowcube_obs::counter_add("mining.remine.cells", cells.len() as u64);
    flowcube_obs::counter_add("mining.remine.chunk_retries", report.retried_chunks as u64);
    report.results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_hier::ConceptId;

    fn stage(l: u32, d: u32) -> AggStage {
        AggStage {
            loc: ConceptId(l),
            dur: Some(d),
        }
    }

    /// Re-mining a cell must reproduce exactly what a direct
    /// `mine_exceptions` call yields, at any thread count.
    #[test]
    fn remine_matches_direct_mining() {
        let mut all_paths = Vec::new();
        for _ in 0..4 {
            all_paths.push(vec![stage(1, 1), stage(2, 1)]);
        }
        for _ in 0..4 {
            all_paths.push(vec![stage(1, 9), stage(3, 1)]);
        }
        let g = FlowGraph::build(all_paths.iter().map(|p| p.as_slice()));
        let params = ExceptionParams {
            min_support: 3,
            min_deviation: 0.3,
        };
        let direct = mine_exceptions(&g, &all_paths, &params);
        assert!(!direct.is_empty());
        let cells: Vec<RemineCell> = (0..5)
            .map(|_| RemineCell {
                graph: &g,
                paths: &all_paths,
            })
            .collect();
        for threads in [1, 2, 4] {
            let mined = remine_cells(&cells, &params, threads);
            assert_eq!(mined.len(), 5);
            for m in &mined {
                assert_eq!(m, &direct);
            }
        }
        assert!(remine_cells::<Vec<AggStage>>(&[], &params, 4).is_empty());
    }
}

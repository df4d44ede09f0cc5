//! Flowgraph similarity metrics and the redundancy test (paper §4.3).
//!
//! The paper leaves the metric φ open ("one possible function is to use
//! the KL-Divergence of the probability distributions induced by two
//! flowgraphs … other metrics, based for example on PDFA distance, could
//! be used") and notes φ need not satisfy the triangle inequality. We
//! expose a [`FlowSimilarity`] trait measuring a *divergence* (0 =
//! identical), implemented by [`KlSimilarity`]: the expected per-node KL
//! divergence of the transition and duration distributions, weighted by
//! the child graph's reach probabilities. This is the standard
//! decomposition of the KL divergence between the path distributions
//! induced by two tree-structured Markov models.
//!
//! The cube build decides Definition 4.4 on count vectors instead
//! (`flowcube_core`'s counts module), summing the same terms in the same
//! order; [`KlSimilarity::divergence`] and [`is_redundant`] are the
//! definitions it is tested against.

use crate::graph::{FlowGraph, NodeId};
use serde::{Deserialize, Serialize};

/// A divergence between two flowgraphs. Implementations return `0.0` for
/// identical graphs; larger values mean less similar. Asymmetry is fine
/// (the first argument is the candidate cell, the second its parent).
pub trait FlowSimilarity {
    fn divergence(&self, child: &FlowGraph, parent: &FlowGraph) -> f64;
}

/// Reach-weighted KL divergence over the union tree.
#[derive(Copy, Clone, Debug, Serialize, Deserialize)]
pub struct KlSimilarity {
    /// Laplace smoothing pseudo-count applied to both sides.
    pub alpha: f64,
}

impl Default for KlSimilarity {
    fn default() -> Self {
        KlSimilarity { alpha: 0.5 }
    }
}

impl FlowSimilarity for KlSimilarity {
    fn divergence(&self, child: &FlowGraph, parent: &FlowGraph) -> f64 {
        let mut total = 0.0;
        for n in child.node_ids() {
            let w = child.reach_probability(n);
            if w == 0.0 {
                continue;
            }
            let prefix = child.prefix_of(n);
            match parent.node_by_prefix(&prefix) {
                Some(m) => {
                    total += w * child
                        .transitions(n)
                        .kl_divergence(&parent.transitions(m), self.alpha);
                    if n != NodeId::ROOT {
                        total += w * child
                            .durations(n)
                            .kl_divergence(parent.durations(m), self.alpha);
                    }
                }
                None => {
                    // The parent has never seen this prefix: compare
                    // against empty (uniform-after-smoothing) distributions.
                    let empty = crate::dist::CountDist::new();
                    total += w * child.transitions(n).kl_divergence(&empty, self.alpha);
                    if n != NodeId::ROOT {
                        let empty = crate::dist::CountDist::new();
                        total += w * child.durations(n).kl_divergence(&empty, self.alpha);
                    }
                }
            }
        }
        total
    }
}

/// Definition 4.4: `child` is redundant when it is similar to **every**
/// parent cell's flowgraph — i.e. the divergence stays within `tau` for
/// all of them. Cells with no parents (the apex) are never redundant.
pub fn is_redundant<M: FlowSimilarity + ?Sized>(
    child: &FlowGraph,
    parents: &[&FlowGraph],
    metric: &M,
    tau: f64,
) -> bool {
    !parents.is_empty() && parents.iter().all(|p| metric.divergence(child, p) <= tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_hier::ConceptId;
    use flowcube_pathdb::AggStage;

    fn path(locs: &[(u32, u32)]) -> Vec<AggStage> {
        locs.iter()
            .map(|&(l, d)| AggStage {
                loc: ConceptId(l),
                dur: Some(d),
            })
            .collect()
    }

    fn graph(paths: &[Vec<AggStage>]) -> FlowGraph {
        FlowGraph::build(paths.iter().map(|p| p.as_slice()))
    }

    #[test]
    fn identical_graphs_have_zero_divergence() {
        let paths = vec![path(&[(1, 2), (2, 3)]), path(&[(1, 2), (3, 1)])];
        let g = graph(&paths);
        assert!(KlSimilarity::default().divergence(&g, &g) < 1e-9);
    }

    #[test]
    fn divergence_grows_with_difference() {
        let base = graph(&[path(&[(1, 2), (2, 3)]), path(&[(1, 2), (2, 3)])]);
        let close = graph(&[
            path(&[(1, 2), (2, 3)]),
            path(&[(1, 2), (2, 3)]),
            path(&[(1, 2), (3, 3)]),
        ]);
        let far = graph(&[path(&[(9, 9), (8, 8)])]);
        let kl = KlSimilarity::default();
        let d_close = kl.divergence(&close, &base);
        let d_far = kl.divergence(&far, &base);
        assert!(d_close < d_far, "{d_close} !< {d_far}");
    }

    #[test]
    fn subset_sampled_child_is_redundant() {
        // A child whose paths are a same-distribution sample of the parent.
        let parent_paths: Vec<_> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    path(&[(1, 1), (2, 1)])
                } else {
                    path(&[(1, 1), (3, 1)])
                }
            })
            .collect();
        let parent = graph(&parent_paths);
        let child = graph(&parent_paths[..50]);
        let kl = KlSimilarity::default();
        assert!(is_redundant(&child, &[&parent], &kl, 0.05));
        // A child concentrated on one branch is NOT redundant.
        let skewed: Vec<_> = (0..50).map(|_| path(&[(1, 1), (2, 1)])).collect();
        let skewed = graph(&skewed);
        assert!(!is_redundant(&skewed, &[&parent], &kl, 0.05));
    }

    #[test]
    fn redundancy_requires_all_parents() {
        let a = graph(&[path(&[(1, 1)]), path(&[(1, 1)])]);
        let b = graph(&[path(&[(2, 1)]), path(&[(2, 1)])]);
        let child = graph(&[path(&[(1, 1)])]);
        let kl = KlSimilarity::default();
        assert!(!is_redundant(&child, &[&a, &b], &kl, 0.1));
        assert!(is_redundant(&child, &[&a], &kl, 0.1));
        // no parents → not redundant by definition
        assert!(!is_redundant(&child, &[], &kl, f64::MAX));
    }
}

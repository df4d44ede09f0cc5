//! Flowgraph exceptions (the `X` component of Definition 3.1).
//!
//! An exception records that, *given a frequent path condition* (concrete
//! durations at specific prefix nodes, e.g. "spent 5 hours at the
//! factory"), a node's duration or transition distribution deviates from
//! its unconditional distribution by more than ε, with at least δ
//! supporting paths. This is the holistic part of the measure (Lemma 4.3):
//! it requires frequent-pattern mining over the cell's paths.

use crate::dist::CountDist;
use crate::graph::{FlowGraph, NodeId};
use flowcube_hier::{ConceptId, DurValue, FxHashMap, FxHashSet};
use flowcube_pathdb::AggStage;
use serde::{Deserialize, Serialize};

/// Thresholds controlling exception mining.
#[derive(Copy, Clone, Debug, Serialize, Deserialize)]
pub struct ExceptionParams {
    /// δ — minimum number of paths satisfying the condition (and reaching
    /// the target node) for an exception to be statistically meaningful.
    pub min_support: u64,
    /// ε — minimum L∞ shift of the conditional distribution versus the
    /// node's unconditional one.
    pub min_deviation: f64,
}

impl Default for ExceptionParams {
    fn default() -> Self {
        ExceptionParams {
            min_support: 2,
            min_deviation: 0.2,
        }
    }
}

/// One concrete-duration constraint: "the path spent exactly `dur` at
/// `node`".
pub type Constraint = (NodeId, u32);

/// A frequent path segment: a set of constraints lying on one branch,
/// sorted root-to-leaf. Produced by [`mine_frequent_segments`] or supplied
/// externally (e.g. from the Shared algorithm's output).
pub type Segment = Vec<Constraint>;

/// What deviates under the condition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ExceptionDetail {
    /// The duration distribution at the target node shifts.
    Duration { observed: CountDist<DurValue> },
    /// The transition distribution (next location / terminate) shifts.
    Transition {
        observed: CountDist<Option<ConceptId>>,
    },
}

/// An exception entry of a flowgraph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Exception {
    /// The conditioning constraints (root-to-leaf order).
    pub condition: Segment,
    /// The node whose distribution deviates.
    pub node: NodeId,
    /// Number of paths satisfying the condition and reaching `node`.
    pub support: u64,
    /// Observed L∞ deviation.
    pub deviation: f64,
    pub detail: ExceptionDetail,
}

/// Map an aggregated path onto the node chain it traverses in `graph`,
/// reusing `chain`. Returns `false` when the path was not part of the
/// graph's build set.
fn node_chain(graph: &FlowGraph, path: &[AggStage], chain: &mut Vec<NodeId>) -> bool {
    chain.clear();
    let mut cur = NodeId::ROOT;
    for s in path {
        match graph.child_at(cur, s.loc) {
            Some(child) => cur = child,
            None => return false,
        }
        chain.push(cur);
    }
    true
}

/// Mine all frequent segments (Apriori over concrete-duration stage items;
/// every transaction's items already lie on one branch, so the paper's
/// "unrelated stages" pruning is implicit here).
pub fn mine_frequent_segments<P: AsRef<[AggStage]>>(
    graph: &FlowGraph,
    paths: &[P],
    min_support: u64,
) -> Vec<Segment> {
    let depth = graph.depths();
    // Build transactions: per path, its (node, concrete duration) items in
    // branch order.
    let mut transactions: Vec<Vec<Constraint>> = Vec::with_capacity(paths.len());
    let mut chain = Vec::new();
    for p in paths {
        let p = p.as_ref();
        if !node_chain(graph, p, &mut chain) {
            continue;
        }
        let items: Vec<Constraint> = chain
            .iter()
            .zip(p.iter())
            .filter_map(|(&n, s)| s.dur.map(|d| (n, d)))
            .collect();
        transactions.push(items);
    }

    let mut all: Vec<Segment> = Vec::new();
    // L1
    let mut counts: FxHashMap<Constraint, u64> = FxHashMap::default();
    for t in &transactions {
        for &it in t {
            *counts.entry(it).or_insert(0) += 1;
        }
    }
    let mut prev: Vec<Segment> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_support)
        .map(|(it, _)| vec![it])
        .collect();
    prev.sort();
    all.extend(prev.iter().cloned());

    let mut k = 2;
    while !prev.is_empty() {
        // Join step: pairs sharing the first k-2 constraints.
        let prev_set: FxHashSet<&Segment> = prev.iter().collect();
        let mut candidates: FxHashSet<Segment> = FxHashSet::default();
        for (i, a) in prev.iter().enumerate() {
            for b in prev.iter().skip(i + 1) {
                if a[..k - 2] != b[..k - 2] {
                    continue;
                }
                let (x, y) = (a[k - 2], b[k - 2]);
                if x.0 == y.0 {
                    continue; // two durations at one node can't co-occur
                }
                let mut cand = a.clone();
                cand.push(y);
                cand.sort_by_key(|&(n, d)| (depth[n.index()], n, d));
                // Prune: all (k-1)-subsets frequent.
                let mut ok = true;
                for skip in 0..cand.len() {
                    let mut sub = cand.clone();
                    sub.remove(skip);
                    if !prev_set.contains(&sub) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    candidates.insert(cand);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Count step.
        let mut counts: FxHashMap<&Segment, u64> = FxHashMap::default();
        let cand_vec: Vec<Segment> = candidates.into_iter().collect();
        let cand_index: FxHashSet<&Segment> = cand_vec.iter().collect();
        for t in &transactions {
            if t.len() < k {
                continue;
            }
            for combo in combinations(t, k) {
                if let Some(&seg) = cand_index.get(&combo) {
                    *counts.entry(seg).or_insert(0) += 1;
                }
            }
        }
        prev = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_support)
            .map(|(seg, _)| seg.clone())
            .collect();
        prev.sort();
        all.extend(prev.iter().cloned());
        k += 1;
    }
    all
}

/// All `k`-combinations of `items`, preserving order.
fn combinations(items: &[Constraint], k: usize) -> Vec<Vec<Constraint>> {
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..k).collect();
    if k > items.len() {
        return out;
    }
    loop {
        out.push(idx.iter().map(|&i| items[i]).collect());
        // advance
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + items.len() - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Check the exceptions induced by the given segments: for every segment,
/// compare the conditional distributions of every node at-or-below its
/// deepest constrained node against the unconditional ones.
///
/// One pass over `paths` serves all segments: each path is mapped onto
/// its node chain once and inserted into the conditional flowgraph of
/// every segment it satisfies. A constraint `(n, d)` can only be met by
/// the path's stage at `n`'s depth, so the test is one lookup. A cell
/// without segments costs nothing.
pub fn exceptions_from_segments<P: AsRef<[AggStage]>>(
    graph: &FlowGraph,
    paths: &[P],
    segments: &[Segment],
    params: &ExceptionParams,
) -> Vec<Exception> {
    let segments: Vec<&Segment> = segments.iter().filter(|s| !s.is_empty()).collect();
    if segments.is_empty() {
        return Vec::new();
    }
    let depth = graph.depths();
    // Supporting paths per segment: those satisfying every constraint.
    let mut conditionals: Vec<FlowGraph> = segments.iter().map(|_| FlowGraph::new()).collect();
    let mut chain = Vec::new();
    for p in paths {
        let p = p.as_ref();
        if !node_chain(graph, p, &mut chain) {
            continue;
        }
        for (segment, conditional) in segments.iter().zip(&mut conditionals) {
            let satisfied = segment.iter().all(|&(n, d)| {
                // Stage `i` of the path sits on a depth-`i + 1` node
                // (none for the root or a node foreign to `graph`).
                let i = depth
                    .get(n.index())
                    .map_or(usize::MAX, |&k| (k as usize).wrapping_sub(1));
                chain.get(i) == Some(&n) && p[i].dur == Some(d)
            });
            if satisfied {
                conditional.insert_path(p);
            }
        }
    }
    let mut out = Vec::new();
    for (&segment, conditional) in segments.iter().zip(&conditionals) {
        if conditional.total_paths() < params.min_support {
            continue;
        }
        // Deepest constrained node delimits the comparison region.
        let deepest = segment
            .iter()
            .map(|&(n, _)| n)
            .max_by_key(|&n| depth[n.index()])
            .expect("non-empty segment");
        // Walk the conditional graph; compare nodes at or below `deepest`.
        for cn in conditional.node_ids() {
            if cn == NodeId::ROOT {
                continue;
            }
            let prefix = conditional.prefix_of(cn);
            let Some(gn) = graph.node_by_prefix(&prefix) else {
                continue;
            };
            // Only nodes on/below the deepest constrained node: `deepest`
            // must be on gn's branch.
            if !graph.branch_of(gn).contains(&deepest) {
                continue;
            }
            let cond_reach = conditional.count(cn);
            if cond_reach < params.min_support {
                continue;
            }
            // Transition exception (allowed at the constrained node
            // itself: "stayed 1 hour at the truck → moves to warehouse
            // with probability 90%").
            let cond_trans = conditional.transitions(cn);
            let dev = cond_trans.max_deviation(&graph.transitions(gn));
            if dev >= params.min_deviation {
                out.push(Exception {
                    condition: segment.clone(),
                    node: gn,
                    support: cond_reach,
                    deviation: dev,
                    detail: ExceptionDetail::Transition {
                        observed: cond_trans,
                    },
                });
            }
            // Duration exception only strictly below the constraint (the
            // constrained node's own duration is fixed by the condition).
            if gn != deepest && !segment.iter().any(|&(n, _)| n == gn) {
                let cond_dur = conditional.durations(cn).clone();
                let dev = cond_dur.max_deviation(graph.durations(gn));
                if dev >= params.min_deviation {
                    out.push(Exception {
                        condition: segment.clone(),
                        node: gn,
                        support: cond_reach,
                        deviation: dev,
                        detail: ExceptionDetail::Duration { observed: cond_dur },
                    });
                }
            }
        }
    }
    // Canonical order: the list must be a pure function of the cell's
    // content, not of which miner enumerated the segments — the shared
    // batch scan and targeted re-mining (incremental maintenance) walk
    // them differently, and `predict_next` breaks ties by list position.
    out.sort_by(|a, b| {
        let rank = |d: &ExceptionDetail| match d {
            ExceptionDetail::Transition { .. } => 0u8,
            ExceptionDetail::Duration { .. } => 1,
        };
        (&a.condition, a.node, rank(&a.detail)).cmp(&(&b.condition, b.node, rank(&b.detail)))
    });
    out
}

/// Full exception mining for one cell: steps (3) of the paper's flowgraph
/// computation — mine frequent segments, then test each for deviations.
pub fn mine_exceptions<P: AsRef<[AggStage]>>(
    graph: &FlowGraph,
    paths: &[P],
    params: &ExceptionParams,
) -> Vec<Exception> {
    let segments = mine_frequent_segments(graph, paths, params.min_support);
    exceptions_from_segments(graph, paths, &segments, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_hier::{ConceptHierarchy, DurationLevel, LocationCut, PathLevel, Schema};
    use flowcube_pathdb::{aggregate_stages, MergePolicy, PathDatabase, PathRecord, Stage};

    /// A tiny schema with locations a → {b, c} patterns.
    fn tiny_schema() -> Schema {
        let mut loc = ConceptHierarchy::new("location");
        loc.add_path(["area", "a"]).unwrap();
        loc.add_path(["area", "b"]).unwrap();
        loc.add_path(["area", "c"]).unwrap();
        let mut product = ConceptHierarchy::new("product");
        product.add_path(["any", "p"]).unwrap();
        Schema::new(vec![product], loc)
    }

    /// Dataset engineered so that duration 9 at `a` flips the next hop:
    /// overall a→b 50%, a→c 50%; but given (a,9): a→c 100%.
    fn build_biased() -> (FlowGraph, Vec<Vec<AggStage>>, Schema) {
        let schema = tiny_schema();
        let l = |n: &str| schema.locations().id_of(n).unwrap();
        let p = schema.dim(0).id_of("p").unwrap();
        let mut db = PathDatabase::new(schema.clone());
        let mut id = 0;
        let mut push = |db: &mut PathDatabase, stages: Vec<Stage>| {
            id += 1;
            db.push(PathRecord::new(id, vec![p], stages)).unwrap();
        };
        // 4 paths: (a,1)(b,1) ; 4 paths: (a,9)(c,1)
        for _ in 0..4 {
            push(&mut db, vec![Stage::new(l("a"), 1), Stage::new(l("b"), 1)]);
        }
        for _ in 0..4 {
            push(&mut db, vec![Stage::new(l("a"), 9), Stage::new(l("c"), 1)]);
        }
        let level = PathLevel::new(
            "leaf",
            LocationCut::uniform_level(schema.locations(), 2),
            DurationLevel::Raw,
        );
        let paths: Vec<Vec<AggStage>> = db
            .records()
            .iter()
            .map(|r| aggregate_stages(&r.stages, &level, MergePolicy::Sum).unwrap())
            .collect();
        let g = FlowGraph::build(paths.iter().map(|v| v.as_slice()));
        (g, paths, schema)
    }

    #[test]
    fn frequent_segments_found() {
        let (g, paths, _) = build_biased();
        let segs = mine_frequent_segments(&g, &paths, 4);
        // (a,1), (a,9), (b,1), (c,1), and the pairs {(a,1),(b,1)},
        // {(a,9),(c,1)} all have support 4.
        assert_eq!(segs.iter().filter(|s| s.len() == 1).count(), 4);
        assert_eq!(segs.iter().filter(|s| s.len() == 2).count(), 2);
        // nothing at higher support
        assert!(mine_frequent_segments(&g, &paths, 9).is_empty());
    }

    #[test]
    fn transition_exception_detected() {
        let (g, paths, schema) = build_biased();
        let params = ExceptionParams {
            min_support: 3,
            min_deviation: 0.3,
        };
        let exceptions = mine_exceptions(&g, &paths, &params);
        let a = schema.locations().id_of("a").unwrap();
        let c = schema.locations().id_of("c").unwrap();
        let node_a = g.node_by_prefix(&[a]).unwrap();
        // Given (a,9): transitions shift from 50/50 to 100% c.
        let found = exceptions.iter().any(|e| {
            e.node == node_a
                && e.condition == vec![(node_a, 9)]
                && matches!(&e.detail,
                    ExceptionDetail::Transition { observed }
                        if observed.probability(Some(c)) == 1.0)
                && (e.deviation - 0.5).abs() < 1e-9
        });
        assert!(found, "expected the (a,9) → c transition exception");
    }

    #[test]
    fn no_exceptions_when_independent() {
        // Durations carry no signal: every path (a,1)(b,1).
        let schema = tiny_schema();
        let l = |n: &str| schema.locations().id_of(n).unwrap();
        let p = schema.dim(0).id_of("p").unwrap();
        let mut db = PathDatabase::new(schema.clone());
        for i in 0..8 {
            db.push(PathRecord::new(
                i,
                vec![p],
                vec![Stage::new(l("a"), 1), Stage::new(l("b"), 1)],
            ))
            .unwrap();
        }
        let level = PathLevel::new(
            "leaf",
            LocationCut::uniform_level(schema.locations(), 2),
            DurationLevel::Raw,
        );
        let paths: Vec<Vec<AggStage>> = db
            .records()
            .iter()
            .map(|r| aggregate_stages(&r.stages, &level, MergePolicy::Sum).unwrap())
            .collect();
        let g = FlowGraph::build(paths.iter().map(|v| v.as_slice()));
        let exceptions = mine_exceptions(&g, &paths, &ExceptionParams::default());
        assert!(exceptions.is_empty());
    }

    #[test]
    fn min_support_filters_conditions() {
        let (g, paths, _) = build_biased();
        // With δ = 5 no condition has enough support (each arm has 4).
        let params = ExceptionParams {
            min_support: 5,
            min_deviation: 0.1,
        };
        assert!(mine_exceptions(&g, &paths, &params).is_empty());
    }

    #[test]
    fn combinations_enumeration() {
        let items: Vec<Constraint> = vec![(NodeId(1), 1), (NodeId(2), 2), (NodeId(3), 3)];
        assert_eq!(combinations(&items, 2).len(), 3);
        assert_eq!(combinations(&items, 3).len(), 1);
        assert_eq!(combinations(&items, 4).len(), 0);
        assert_eq!(combinations(&items, 1).len(), 3);
    }

    #[test]
    fn duration_star_level_yields_no_segments() {
        let (_, paths, schema) = build_biased();
        let level = PathLevel::new(
            "star",
            LocationCut::uniform_level(schema.locations(), 2),
            DurationLevel::Any,
        );
        // Re-aggregate with * durations: no concrete items → no segments.
        let star_paths: Vec<Vec<AggStage>> = paths
            .iter()
            .map(|p| {
                p.iter()
                    .map(|s| AggStage {
                        loc: s.loc,
                        dur: None,
                    })
                    .collect()
            })
            .collect();
        let g = FlowGraph::build(star_paths.iter().map(|v| v.as_slice()));
        let segs = mine_frequent_segments(&g, &star_paths, 2);
        assert!(segs.is_empty());
        let _ = level;
    }
}

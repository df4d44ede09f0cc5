//! The two shortcuts materialization takes must be invisible:
//!
//! * a flowgraph rolled up along the duration axis
//!   ([`FlowGraph::with_durations_at`]) is byte-identical to the graph
//!   walked from the paths re-aggregated at the coarser duration level;
//! * the one-pass exception check ([`exceptions_from_segments`]) returns
//!   exactly the list — order included — of the literal definition: per
//!   segment, scan every path, look each constrained node up on the
//!   path's chain. That scan lives here, as the oracle, and nowhere else.

use flowcube_flowgraph::{
    exceptions_from_segments, mine_frequent_segments, Exception, ExceptionDetail, ExceptionParams,
    FlowGraph, NodeId, Segment,
};
use flowcube_hier::{ConceptHierarchy, DurationLevel, LocationCut, PathLevel};
use flowcube_pathdb::{aggregate_stages, AggStage, MergePolicy, Stage};
use proptest::prelude::*;

/// Two groups of two locations: the coarse cut merges consecutive stays
/// within a group, so the merge policy shows in the durations.
fn locations() -> ConceptHierarchy {
    let mut h = ConceptHierarchy::new("location");
    for (group, leaf) in [("g1", "a"), ("g1", "b"), ("g2", "c"), ("g2", "d")] {
        h.add_path([group, leaf]).unwrap();
    }
    h
}

fn raw_paths(stays: &[Vec<(u8, u32)>], h: &ConceptHierarchy) -> Vec<Vec<Stage>> {
    let leaves: Vec<_> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| h.id_of(n).unwrap())
        .collect();
    stays
        .iter()
        .map(|p| {
            p.iter()
                .map(|&(l, d)| Stage::new(leaves[l as usize], d))
                .collect()
        })
        .collect()
}

fn aggregated(raw: &[Vec<Stage>], level: &PathLevel, merge: MergePolicy) -> Vec<Vec<AggStage>> {
    raw.iter()
        .map(|p| aggregate_stages(p, level, merge).unwrap())
        .collect()
}

fn walked(paths: &[Vec<AggStage>]) -> FlowGraph {
    let mut g = FlowGraph::build(paths.iter().map(Vec::as_slice));
    g.canonicalize();
    g
}

fn bytes(g: &FlowGraph) -> String {
    serde_json::to_string(g).unwrap()
}

/// The definition, one segment at a time: the paths that satisfy every
/// constraint (found by position on the path's node chain) form the
/// conditional flowgraph, whose nodes at or below the deepest constraint
/// are compared with the unconditional ones.
fn exceptions_by_scan(
    graph: &FlowGraph,
    paths: &[Vec<AggStage>],
    segments: &[Segment],
    params: &ExceptionParams,
) -> Vec<Exception> {
    let chain_of = |p: &[AggStage]| -> Option<Vec<NodeId>> {
        let mut cur = NodeId::ROOT;
        p.iter()
            .map(|s| {
                cur = graph.child_at(cur, s.loc)?;
                Some(cur)
            })
            .collect()
    };
    let mut out = Vec::new();
    for segment in segments.iter().filter(|s| !s.is_empty()) {
        let mut conditional = FlowGraph::new();
        for p in paths {
            let Some(chain) = chain_of(p) else { continue };
            let satisfied = segment.iter().all(|&(n, d)| {
                chain
                    .iter()
                    .position(|&x| x == n)
                    .is_some_and(|i| p[i].dur == Some(d))
            });
            if satisfied {
                conditional.insert_path(p);
            }
        }
        if conditional.total_paths() < params.min_support {
            continue;
        }
        let deepest = segment
            .iter()
            .map(|&(n, _)| n)
            .max_by_key(|&n| graph.branch_of(n).len())
            .unwrap();
        for cn in conditional.node_ids().filter(|&n| n != NodeId::ROOT) {
            let Some(gn) = graph.node_by_prefix(&conditional.prefix_of(cn)) else {
                continue;
            };
            let support = conditional.count(cn);
            if !graph.branch_of(gn).contains(&deepest) || support < params.min_support {
                continue;
            }
            let observed = conditional.transitions(cn);
            let deviation = observed.max_deviation(&graph.transitions(gn));
            if deviation >= params.min_deviation {
                out.push(Exception {
                    condition: segment.clone(),
                    node: gn,
                    support,
                    deviation,
                    detail: ExceptionDetail::Transition { observed },
                });
            }
            if gn != deepest && !segment.iter().any(|&(n, _)| n == gn) {
                let observed = conditional.durations(cn).clone();
                let deviation = observed.max_deviation(graph.durations(gn));
                if deviation >= params.min_deviation {
                    out.push(Exception {
                        condition: segment.clone(),
                        node: gn,
                        support,
                        deviation,
                        detail: ExceptionDetail::Duration { observed },
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| {
        let rank = |d: &ExceptionDetail| matches!(d, ExceptionDetail::Duration { .. });
        (&a.condition, a.node, rank(&a.detail)).cmp(&(&b.condition, b.node, rank(&b.detail)))
    });
    out
}

fn arb_stays(max_paths: usize) -> impl Strategy<Value = Vec<Vec<(u8, u32)>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..4, 1u32..=9), 1..=6),
        1..=max_paths,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw ⪰ Bucket(2) ⪰ Bucket(4) ⪰ Any on one cut: every coarser level's
    /// graph is the duration roll-up of every finer level's, under each
    /// merge policy and on a cut that merges stages as on one that does
    /// not.
    #[test]
    fn duration_rollup_equals_walking_the_coarser_paths(stays in arb_stays(40)) {
        let h = locations();
        let raw = raw_paths(&stays, &h);
        let durations = [
            DurationLevel::Raw,
            DurationLevel::Bucket(2),
            DurationLevel::Bucket(4),
            DurationLevel::Any,
        ];
        for merge in [MergePolicy::Sum, MergePolicy::Max, MergePolicy::First] {
            for cut_level in [1, 2] {
                let at = |duration| {
                    let cut = LocationCut::uniform_level(&h, cut_level);
                    walked(&aggregated(&raw, &PathLevel::new("l", cut, duration), merge))
                };
                for (i, &fine) in durations.iter().enumerate() {
                    let fine_graph = at(fine);
                    for &coarse in &durations[i..] {
                        prop_assert!(coarse.is_coarser_or_equal(fine));
                        prop_assert_eq!(
                            bytes(&fine_graph.with_durations_at(coarse)),
                            bytes(&at(coarse)),
                            "{:?} from {:?}, {:?}, cut level {}", coarse, fine, merge, cut_level
                        );
                    }
                }
            }
        }
    }

    /// On random cells — the frequent segments of the cell itself plus
    /// ones no path satisfies and an empty one — the one-pass check and
    /// the per-segment scan return the same list in the same order.
    #[test]
    fn one_pass_exceptions_equal_the_per_segment_scan(
        stays in arb_stays(60),
        min_support in 1u64..4,
        deviation in 0.0f64..0.5,
    ) {
        let h = locations();
        let raw = raw_paths(&stays, &h);
        let level = PathLevel::new("l", LocationCut::uniform_level(&h, 2), DurationLevel::Bucket(3));
        let paths = aggregated(&raw, &level, MergePolicy::Sum);
        let graph = walked(&paths);
        let params = ExceptionParams { min_support, min_deviation: deviation };
        let mut segments = mine_frequent_segments(&graph, &paths, min_support);
        segments.push(Vec::new());
        segments.extend(graph.node_ids().skip(1).map(|n| vec![(n, 1_000)]));
        segments.push(vec![(NodeId::ROOT, 3)]);
        let borrowed: Vec<&[AggStage]> = paths.iter().map(Vec::as_slice).collect();
        let got = exceptions_from_segments(&graph, &borrowed, &segments, &params);
        prop_assert_eq!(&got, &exceptions_by_scan(&graph, &paths, &segments, &params));
        prop_assert_eq!(&got, &exceptions_from_segments(&graph, &paths, &segments, &params));
        prop_assert!(exceptions_from_segments(&graph, &paths, &[Vec::new()], &params).is_empty());
    }
}

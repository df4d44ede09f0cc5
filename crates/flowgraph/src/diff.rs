//! Exact comparison of two flowgraphs.
//!
//! The paper's introduction motivates queries like *"contrast path
//! durations with historic flow information for the same region in
//! 2005"*. [`diff`] aligns two flowgraphs by prefix and reports every
//! node whose counts or distributions differ, or that exists on one
//! side only. Each report carries the L∞ shift of the node's transition
//! and duration distributions and its reach on both sides, so the same
//! diff answers "are these the same graph" (is it empty) and "what moved
//! most" (its severity order).

use crate::graph::{FlowGraph, NodeId};
use flowcube_hier::{ConceptHierarchy, ConceptId};

/// Where a prefix exists.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Presence {
    Both,
    /// Only in the first ("current") graph — a new flow.
    LeftOnly,
    /// Only in the second ("historic") graph — a disappeared flow.
    RightOnly,
}

/// Change record for one path prefix.
#[derive(Clone, Debug)]
pub struct NodeDelta {
    pub prefix: Vec<ConceptId>,
    pub presence: Presence,
    /// Paths through the node on each side (0 where it is absent).
    pub count_left: u64,
    pub count_right: u64,
    /// L∞ shift of the transition distribution (0 when one side absent).
    pub transition_deviation: f64,
    /// L∞ shift of the duration distribution.
    pub duration_deviation: f64,
    /// Reach probability of the prefix on each side.
    pub reach_left: f64,
    pub reach_right: f64,
}

impl NodeDelta {
    /// Severity used for ranking: the larger deviation weighted by the
    /// larger reach (a big shift on a rare branch matters less).
    pub fn severity(&self) -> f64 {
        let dev = match self.presence {
            Presence::Both => self.transition_deviation.max(self.duration_deviation),
            _ => 1.0,
        };
        dev * self.reach_left.max(self.reach_right)
    }
}

/// The full comparison result, sorted by descending severity.
#[derive(Clone, Debug, Default)]
pub struct FlowDiff {
    pub deltas: Vec<NodeDelta>,
}

impl FlowDiff {
    /// Whether the two graphs are the same graph.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Render the `limit` most severe changes with location names, one
    /// line per node.
    pub fn render(&self, hierarchy: &ConceptHierarchy, limit: usize) -> String {
        let mut out = String::new();
        for d in self.deltas.iter().take(limit) {
            let path: Vec<&str> = d.prefix.iter().map(|&c| hierarchy.name_of(c)).collect();
            let path = if path.is_empty() {
                "(root)".to_string()
            } else {
                path.join("→")
            };
            let tag = match d.presence {
                Presence::Both => format!(
                    "count {} vs {} Δtrans={:.2} Δdur={:.2}",
                    d.count_left, d.count_right, d.transition_deviation, d.duration_deviation
                ),
                Presence::LeftOnly => "NEW".to_string(),
                Presence::RightOnly => "GONE".to_string(),
            };
            out.push_str(&format!(
                "{:<40} {} (reach {:.2} vs {:.2})\n",
                path, tag, d.reach_left, d.reach_right
            ));
        }
        out
    }
}

/// Compare `left` (current) against `right` (historic). A node is
/// reported if and only if its count, termination count, transition
/// distribution or duration distribution differs, or it exists on one
/// side only — exact, with zero tolerance. The root is also reported
/// when the two graphs' path totals differ. Equal severities keep the
/// walk's order, so the result is a function of the two graphs.
pub fn diff(left: &FlowGraph, right: &FlowGraph) -> FlowDiff {
    let mut deltas = Vec::new();
    // One prefix per entry: its node on each side, `None` where absent.
    // A worklist, not recursion: a path can be as deep as it is long.
    let mut stack = vec![(Some(NodeId::ROOT), Some(NodeId::ROOT))];
    while let Some((ln, rn)) = stack.pop() {
        deltas.extend(node_delta(left, right, ln, rn));
        for &c in ln.map_or(&[][..], |l| left.children(l)) {
            stack.push((
                Some(c),
                rn.and_then(|r| right.child_at(r, left.location(c))),
            ));
        }
        for &c in rn.map_or(&[][..], |r| right.children(r)) {
            if ln
                .and_then(|l| left.child_at(l, right.location(c)))
                .is_none()
            {
                stack.push((None, Some(c)));
            }
        }
    }
    deltas.sort_by(|a, b| b.severity().total_cmp(&a.severity()));
    FlowDiff { deltas }
}

/// The report for one prefix, if its nodes differ.
fn node_delta(
    left: &FlowGraph,
    right: &FlowGraph,
    ln: Option<NodeId>,
    rn: Option<NodeId>,
) -> Option<NodeDelta> {
    let (presence, transition_deviation, duration_deviation) = match (ln, rn) {
        (Some(l), Some(r)) => {
            let (lt, rt) = (left.transitions(l), right.transitions(r));
            let (ld, rd) = (left.durations(l), right.durations(r));
            // The root also carries the path total every reach divides by.
            let same = left.count(l) == right.count(r)
                && left.terminate_count(l) == right.terminate_count(r)
                && lt == rt
                && ld == rd
                && (l != NodeId::ROOT || left.total_paths() == right.total_paths());
            if same {
                return None;
            }
            (Presence::Both, lt.max_deviation(&rt), ld.max_deviation(rd))
        }
        (Some(_), None) => (Presence::LeftOnly, 0.0, 0.0),
        (None, Some(_)) => (Presence::RightOnly, 0.0, 0.0),
        (None, None) => return None,
    };
    let count = |g: &FlowGraph, n: Option<NodeId>| n.map_or(0, |n| g.count(n));
    let reach = |g: &FlowGraph, n: Option<NodeId>| n.map_or(0.0, |n| g.reach_probability(n));
    Some(NodeDelta {
        prefix: match (ln, rn) {
            (Some(l), _) => left.prefix_of(l),
            (None, r) => right.prefix_of(r?),
        },
        presence,
        count_left: count(left, ln),
        count_right: count(right, rn),
        transition_deviation,
        duration_deviation,
        reach_left: reach(left, ln),
        reach_right: reach(right, rn),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn identical_graphs_give_an_empty_diff() {
        let g = graph(&[path(&[(1, 2), (2, 3)]), path(&[(1, 2), (3, 1)])]);
        assert!(diff(&g, &g).is_empty());
        // Node order is layout, not content: the canonical table of the
        // same paths is the same graph.
        let mut canonical = graph(&[path(&[(1, 2), (3, 1)]), path(&[(1, 2), (2, 3)])]);
        canonical.canonicalize();
        assert!(diff(&g, &canonical).is_empty());
    }

    /// Every path doubled: every distribution has the same probabilities
    /// (no L∞ shift), but the counts differ, so every node is reported.
    #[test]
    fn doubled_paths_are_reported_with_zero_shift() {
        let paths = [path(&[(1, 2), (2, 3)]), path(&[(1, 2), (3, 1)])];
        let once = graph(&paths);
        let twice = graph(&[paths.as_slice(), paths.as_slice()].concat());
        let d = diff(&twice, &once);
        assert_eq!(d.deltas.len(), once.len(), "every node, the root too");
        for x in &d.deltas {
            assert_eq!(x.presence, Presence::Both);
            assert_eq!(x.count_left, 2 * x.count_right);
            assert_eq!(x.transition_deviation, 0.0);
            assert_eq!(x.duration_deviation, 0.0);
            assert_eq!(x.reach_left, x.reach_right);
            assert_eq!(x.severity(), 0.0);
        }
    }

    /// Same nodes, another path total: every reach differs, so the
    /// root is reported.
    #[test]
    fn a_path_total_alone_is_reported_at_the_root() {
        let g = graph(&[path(&[(1, 2), (2, 3)]), path(&[(1, 2), (3, 1)])]);
        let nodes = (0..g.len() as u32).map(NodeId).map(|n| crate::NodeSpec {
            loc: g.location(n),
            parent: g.parent(n),
            children: g.children(n).to_vec(),
            count: g.count(n),
            terminate: g.terminate_count(n),
            durations: g.durations(n).iter().collect(),
        });
        let more = FlowGraph::from_nodes(nodes.collect(), g.total_paths() + 1).unwrap();
        let d = diff(&more, &g);
        assert_eq!(d.deltas.len(), 1);
        assert!(d.deltas[0].prefix.is_empty());
        assert_eq!(d.deltas[0].presence, Presence::Both);
    }

    #[test]
    fn transition_shift_detected_and_ranked() {
        let old = graph(&[
            path(&[(1, 1), (2, 1)]),
            path(&[(1, 1), (2, 1)]),
            path(&[(1, 1), (3, 1)]),
            path(&[(1, 1), (3, 1)]),
        ]);
        let new = graph(&[
            path(&[(1, 1), (2, 1)]),
            path(&[(1, 1), (2, 1)]),
            path(&[(1, 1), (2, 1)]),
            path(&[(1, 1), (3, 1)]),
        ]);
        let d = diff(&new, &old);
        // The node "1" has the biggest shift: transitions 50/50 → 75/25.
        let top = &d.deltas[0];
        assert_eq!(top.prefix, vec![ConceptId(1)]);
        assert!((top.transition_deviation - 0.25).abs() < 1e-9);
        // Nodes 1→2 and 1→3 changed counts only; the root did not change.
        let mut prefixes: Vec<Vec<u32>> = (d.deltas.iter())
            .map(|x| x.prefix.iter().map(|c| c.0).collect())
            .collect();
        prefixes.sort();
        assert_eq!(prefixes, [vec![1], vec![1, 2], vec![1, 3]]);
    }

    /// A node on one side only is reported, and so is each node below
    /// it, on either side.
    #[test]
    fn new_and_gone_branches() {
        let old = graph(&[path(&[(1, 1), (2, 1), (4, 1)])]);
        let new = graph(&[path(&[(1, 1), (9, 1), (4, 1)])]);
        let d = diff(&new, &old);
        let with = |presence| {
            let mut p: Vec<_> = (d.deltas.iter())
                .filter(|x| x.presence == presence)
                .map(|x| x.prefix.iter().map(|c| c.0).collect::<Vec<_>>())
                .collect();
            p.sort();
            p
        };
        assert_eq!(with(Presence::LeftOnly), [vec![1, 9], vec![1, 9, 4]]);
        assert_eq!(with(Presence::RightOnly), [vec![1, 2], vec![1, 2, 4]]);
        // Node 1's transitions moved from 2 to 9.
        assert_eq!(with(Presence::Both), [vec![1]]);
    }

    #[test]
    fn duration_shift_names_its_node() {
        let mut h = ConceptHierarchy::new("location");
        let a = h.add(ConceptId::ROOT, "alpha").unwrap();
        let b = h.add(ConceptId::ROOT, "beta").unwrap();
        let old = graph(&[path(&[(a.0, 1), (b.0, 1)])]);
        let new = graph(&[path(&[(a.0, 2), (b.0, 1)])]);
        let d = diff(&new, &old);
        assert_eq!(d.deltas.len(), 1);
        assert_eq!(d.deltas[0].prefix, vec![a]);
        assert_eq!(d.deltas[0].duration_deviation, 1.0);
        let s = d.render(&h, 10);
        assert!(s.contains("alpha") && !s.contains("beta"), "{s}");
    }
}

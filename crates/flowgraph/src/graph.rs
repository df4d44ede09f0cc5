//! The flowgraph structure (paper §3, Definition 3.1).
//!
//! A flowgraph is a prefix tree over paths: every node corresponds to a
//! unique path prefix, and carries a duration distribution, transition
//! counts to its children, and a termination count. Exceptions (the `X`
//! component of Definition 3.1) live in [`crate::exception`].

use crate::dist::CountDist;
use flowcube_hier::{ConceptHierarchy, ConceptId, DurValue, DurationLevel};
use flowcube_pathdb::AggStage;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Node index within one [`FlowGraph`]. `NodeId::ROOT` is the virtual
/// start node shared by all paths.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    pub const ROOT: NodeId = NodeId(0);

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Node {
    /// Location of this node. Meaningless for the root.
    loc: ConceptId,
    parent: NodeId,
    children: Vec<NodeId>,
    /// Number of paths passing through (or ending at) this node.
    count: u64,
    /// Number of paths terminating exactly here.
    terminate: u64,
    /// Distribution of durations spent at this node.
    durations: CountDist<DurValue>,
}

/// A tree-shaped probabilistic workflow summarizing a set of paths.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlowGraph {
    nodes: Vec<Node>,
    total_paths: u64,
}

/// Everything the query algorithms ([`crate::query`]) need from a
/// flowgraph, abstracted over the storage representation. Implemented by
/// [`FlowGraph`] and by the serving layer's zero-copy columnar view, so
/// top-k / path-probability answers are computed by one shared algorithm
/// regardless of whether the graph lives in pointer-heavy nodes or in a
/// flat snapshot section.
///
/// Node ids address the same canonical pre-order table in both
/// representations (`NodeId::ROOT` is index 0; `0..len()` enumerates all
/// nodes, parents before children).
pub trait GraphRead {
    /// Total paths summarized.
    fn total_paths(&self) -> u64;
    /// Number of nodes including the root.
    fn len(&self) -> usize;
    /// Whether the graph has no nodes — never true for a well-formed
    /// graph, which always contains at least the root.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Location labelling `n` (meaningless for the root).
    fn location(&self, n: NodeId) -> ConceptId;
    /// Parent of `n` (the root is its own parent).
    fn parent(&self, n: NodeId) -> NodeId;
    /// Paths passing through `n`.
    fn count(&self, n: NodeId) -> u64;
    /// Paths terminating exactly at `n`.
    fn terminate_count(&self, n: NodeId) -> u64;
    /// The child of `n` labelled `loc`, if present.
    fn child_at(&self, n: NodeId, loc: ConceptId) -> Option<NodeId>;
    /// Probability of duration `dur` at `n` under the empirical
    /// distribution.
    fn duration_probability(&self, n: NodeId, dur: DurValue) -> f64;
    /// The transition distribution at `n`, keyed by the next location
    /// (`None` = terminate).
    fn transitions(&self, n: NodeId) -> CountDist<Option<ConceptId>>;

    /// The location sequence from the root down to `n` (exclusive of the
    /// virtual root).
    fn prefix_of(&self, n: NodeId) -> Vec<ConceptId> {
        let mut out = Vec::new();
        let mut cur = n;
        while cur != NodeId::ROOT {
            out.push(self.location(cur));
            cur = self.parent(cur);
        }
        out.reverse();
        out
    }

    /// Locate the node for a location-sequence prefix.
    fn node_by_prefix(&self, prefix: &[ConceptId]) -> Option<NodeId> {
        let mut cur = NodeId::ROOT;
        for &loc in prefix {
            cur = self.child_at(cur, loc)?;
        }
        Some(cur)
    }
}

impl GraphRead for FlowGraph {
    fn total_paths(&self) -> u64 {
        FlowGraph::total_paths(self)
    }
    fn len(&self) -> usize {
        FlowGraph::len(self)
    }
    fn location(&self, n: NodeId) -> ConceptId {
        FlowGraph::location(self, n)
    }
    fn parent(&self, n: NodeId) -> NodeId {
        FlowGraph::parent(self, n)
    }
    fn count(&self, n: NodeId) -> u64 {
        FlowGraph::count(self, n)
    }
    fn terminate_count(&self, n: NodeId) -> u64 {
        FlowGraph::terminate_count(self, n)
    }
    fn child_at(&self, n: NodeId, loc: ConceptId) -> Option<NodeId> {
        FlowGraph::child_at(self, n, loc)
    }
    fn duration_probability(&self, n: NodeId, dur: DurValue) -> f64 {
        self.durations(n).probability(dur)
    }
    fn transitions(&self, n: NodeId) -> CountDist<Option<ConceptId>> {
        FlowGraph::transitions(self, n)
    }
}

/// One node of a flowgraph in fully explicit form — the reassembly input
/// for decoders that store graphs outside [`FlowGraph`] (the columnar
/// snapshot sections) and for writers that produce a canonical table
/// directly (the cube build). Field meanings match [`FlowGraph`]'s
/// accessors.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    pub loc: ConceptId,
    pub parent: NodeId,
    pub children: Vec<NodeId>,
    pub count: u64,
    pub terminate: u64,
    /// `(duration, count)` observations: any order for
    /// [`FlowGraph::from_nodes`], which re-sorts them; ascending for
    /// [`FlowGraph::from_canonical`], which does not.
    pub durations: Vec<(DurValue, u64)>,
}

impl Default for FlowGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowGraph {
    /// An empty flowgraph (just the virtual root).
    pub fn new() -> Self {
        FlowGraph {
            nodes: vec![Node {
                loc: ConceptId::ROOT,
                parent: NodeId::ROOT,
                children: Vec::new(),
                count: 0,
                terminate: 0,
                durations: CountDist::new(),
            }],
            total_paths: 0,
        }
    }

    /// Build a flowgraph from aggregated paths (one scan — steps (1) and
    /// (2) of the paper's flowgraph computation).
    ///
    /// ```
    /// use flowcube_flowgraph::FlowGraph;
    /// use flowcube_pathdb::AggStage;
    /// use flowcube_hier::ConceptId;
    ///
    /// let path = vec![
    ///     AggStage { loc: ConceptId(1), dur: Some(4) },
    ///     AggStage { loc: ConceptId(2), dur: Some(1) },
    /// ];
    /// let g = FlowGraph::build([path.as_slice()]);
    /// assert_eq!(g.total_paths(), 1);
    /// let n = g.node_by_prefix(&[ConceptId(1)]).unwrap();
    /// assert_eq!(g.durations(n).probability(Some(4)), 1.0);
    /// ```
    pub fn build<'a>(paths: impl IntoIterator<Item = &'a [AggStage]>) -> Self {
        let mut g = FlowGraph::new();
        for p in paths {
            g.insert_path(p);
        }
        g
    }

    /// Insert one aggregated path, updating all counts along its prefix.
    pub fn insert_path(&mut self, path: &[AggStage]) {
        self.total_paths += 1;
        self.nodes[0].count += 1;
        if path.is_empty() {
            self.nodes[0].terminate += 1;
            return;
        }
        let mut cur = NodeId::ROOT;
        for stage in path {
            let child = self.child_at(cur, stage.loc).unwrap_or_else(|| {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(Node {
                    loc: stage.loc,
                    parent: cur,
                    children: Vec::new(),
                    count: 0,
                    terminate: 0,
                    durations: CountDist::new(),
                });
                let idx = cur.index();
                self.nodes[idx].children.push(id);
                id
            });
            let node = &mut self.nodes[child.index()];
            node.count += 1;
            node.durations.add(stage.dur);
            cur = child;
        }
        self.nodes[cur.index()].terminate += 1;
    }

    /// Reassemble a flowgraph from an explicit node table (root first;
    /// ids are indices into `nodes`). The inverse of walking the graph
    /// through its accessors — used by snapshot decoders to materialize
    /// a graph whose structure was stored columnar. Node order is
    /// preserved verbatim, so a canonical table round-trips
    /// byte-identically. Returns `None` when `nodes` is empty or an id
    /// (parent or child) is out of range.
    pub fn from_nodes(nodes: Vec<NodeSpec>, total_paths: u64) -> Option<Self> {
        if nodes.is_empty() {
            return None;
        }
        let n = nodes.len();
        let in_range = |id: NodeId| id.index() < n;
        let mut out = Vec::with_capacity(n);
        for spec in nodes {
            if !in_range(spec.parent) || !spec.children.iter().all(|&c| in_range(c)) {
                return None;
            }
            let mut durations = CountDist::new();
            for (d, c) in spec.durations {
                durations.add_n(d, c);
            }
            out.push(Node {
                loc: spec.loc,
                parent: spec.parent,
                children: spec.children,
                count: spec.count,
                terminate: spec.terminate,
                durations,
            });
        }
        Some(FlowGraph {
            nodes: out,
            total_paths,
        })
    }

    /// A flowgraph whose node table the caller writes node by node,
    /// already in canonical order (root first; pre-order, children by
    /// location; children lists ascending; durations ascending by key, no
    /// key twice). The table is allocated once at exactly `nodes.len()`
    /// and each node's durations become its distribution as they are
    /// ([`CountDist::from_sorted`]): no growth, no re-sort, no
    /// [`FlowGraph::canonicalize`]. Ids are trusted — the builder's
    /// counterpart of [`FlowGraph::from_nodes`], which checks them.
    pub fn from_canonical(
        nodes: impl ExactSizeIterator<Item = NodeSpec>,
        total_paths: u64,
    ) -> Self {
        let mut table = Vec::with_capacity(nodes.len());
        table.extend(nodes.map(|spec| Node {
            loc: spec.loc,
            parent: spec.parent,
            children: spec.children,
            count: spec.count,
            terminate: spec.terminate,
            durations: CountDist::from_sorted(spec.durations),
        }));
        FlowGraph {
            nodes: table,
            total_paths,
        }
    }

    /// Total paths summarized.
    pub fn total_paths(&self) -> u64 {
        self.total_paths
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.total_paths == 0
    }

    /// The child of `n` labelled `loc`, if present.
    pub fn child_at(&self, n: NodeId, loc: ConceptId) -> Option<NodeId> {
        self.nodes[n.index()]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c.index()].loc == loc)
    }

    /// Children of `n`.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()].children
    }

    /// Parent of `n` (the root is its own parent).
    pub fn parent(&self, n: NodeId) -> NodeId {
        self.nodes[n.index()].parent
    }

    /// Location labelling `n`.
    pub fn location(&self, n: NodeId) -> ConceptId {
        self.nodes[n.index()].loc
    }

    /// Paths passing through `n`.
    pub fn count(&self, n: NodeId) -> u64 {
        self.nodes[n.index()].count
    }

    /// Paths terminating at `n`.
    pub fn terminate_count(&self, n: NodeId) -> u64 {
        self.nodes[n.index()].terminate
    }

    /// Duration counts observed at `n`.
    pub fn durations(&self, n: NodeId) -> &CountDist<DurValue> {
        &self.nodes[n.index()].durations
    }

    /// The transition distribution at `n`, keyed by the next location
    /// (`None` = terminate). Derived from child counts on demand.
    pub fn transitions(&self, n: NodeId) -> CountDist<Option<ConceptId>> {
        let node = &self.nodes[n.index()];
        let mut d = CountDist::new();
        if node.terminate > 0 {
            d.add_n(None, node.terminate);
        }
        for &c in &node.children {
            let child = &self.nodes[c.index()];
            d.add_n(Some(child.loc), child.count);
        }
        d
    }

    /// Probability that a random path reaches `n`.
    pub fn reach_probability(&self, n: NodeId) -> f64 {
        if self.total_paths == 0 {
            0.0
        } else {
            self.nodes[n.index()].count as f64 / self.total_paths as f64
        }
    }

    /// Locate the node for a location-sequence prefix.
    pub fn node_by_prefix(&self, prefix: &[ConceptId]) -> Option<NodeId> {
        let mut cur = NodeId::ROOT;
        for &loc in prefix {
            cur = self.child_at(cur, loc)?;
        }
        Some(cur)
    }

    /// The location sequence from the root down to `n` (exclusive of the
    /// virtual root).
    pub fn prefix_of(&self, n: NodeId) -> Vec<ConceptId> {
        let mut out = Vec::new();
        let mut cur = n;
        while cur != NodeId::ROOT {
            out.push(self.nodes[cur.index()].loc);
            cur = self.nodes[cur.index()].parent;
        }
        out.reverse();
        out
    }

    /// The chain of nodes from the first stage down to `n` inclusive.
    pub fn branch_of(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = n;
        while cur != NodeId::ROOT {
            out.push(cur);
            cur = self.nodes[cur.index()].parent;
        }
        out.reverse();
        out
    }

    /// Depth of every node, indexed by node id: 0 for the root, `k` for
    /// the node of a `k`-stage prefix (`branch_of(n).len()` for all `n`
    /// at once). A path's `k`-th stage can only ever sit on a depth-`k`
    /// node, which turns "is `n` on this path's chain" into one lookup.
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.nodes.len()];
        let mut stack = vec![NodeId::ROOT];
        while let Some(n) = stack.pop() {
            for &c in &self.nodes[n.index()].children {
                depth[c.index()] = depth[n.index()] + 1;
                stack.push(c);
            }
        }
        depth
    }

    /// All node ids, root first, in creation order (parents precede
    /// children).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// This graph rolled up along the duration axis of the path lattice:
    /// the flowgraph of the same paths aggregated to the same location
    /// cut (and merge policy) but to the coarser duration `level`.
    ///
    /// Only duration keys move — `level.aggregate` is applied to each and
    /// equal images add (Lemma 4.2) — while nodes, counts and
    /// terminations are a function of the location sequences alone. The
    /// node table keeps its order, so the roll-up of a canonical graph is
    /// canonical, byte-identical to walking the re-aggregated paths.
    /// Requires `level` to be coarser than or equal to the level `self`
    /// was built at (`DurationLevel::is_coarser_or_equal`): bucketing is
    /// then a function of the finer bucket, and `*` stays `*`.
    pub fn with_durations_at(&self, level: DurationLevel) -> FlowGraph {
        let nodes = self
            .nodes
            .iter()
            .map(|n| Node {
                durations: (n.durations).map_keys(|dur| dur.and_then(|d| level.aggregate(d))),
                children: n.children.clone(),
                ..*n
            })
            .collect();
        FlowGraph {
            nodes,
            total_paths: self.total_paths,
        }
    }

    /// Merge `other` into `self` by summing counts on matching prefixes
    /// (Lemma 4.2: the distribution component is algebraic, so a
    /// higher-level flowgraph can be assembled from materialized
    /// lower-level ones without revisiting the path database).
    pub fn merge(&mut self, other: &FlowGraph) {
        self.total_paths += other.total_paths;
        // Explicit pre-order worklist instead of recursion: a flowgraph is
        // as deep as its longest path, and a pathological reading stream
        // (one item pinging between two antennas) produces paths far
        // deeper than the call stack tolerates.
        // Entries are `(my parent, their node)`: the matching node on our
        // side is resolved (or created) at pop time, and children are
        // pushed in reverse, so the LIFO pop sequence — and therefore the
        // node-creation order — is exactly the old recursive traversal's.
        let mut work: Vec<(NodeId, NodeId)> = vec![(NodeId::ROOT, NodeId::ROOT)];
        while let Some((my_parent, theirs)) = work.pop() {
            let mine = if theirs == NodeId::ROOT {
                NodeId::ROOT
            } else {
                let loc = other.nodes[theirs.index()].loc;
                self.child_at(my_parent, loc).unwrap_or_else(|| {
                    let id = NodeId(self.nodes.len() as u32);
                    self.nodes.push(Node {
                        loc,
                        parent: my_parent,
                        children: Vec::new(),
                        count: 0,
                        terminate: 0,
                        durations: CountDist::new(),
                    });
                    let idx = my_parent.index();
                    self.nodes[idx].children.push(id);
                    id
                })
            };
            {
                let o = &other.nodes[theirs.index()];
                let m = &mut self.nodes[mine.index()];
                m.count += o.count;
                m.terminate += o.terminate;
                m.durations.merge(&o.durations);
            }
            let kids = &other.nodes[theirs.index()].children;
            work.extend(kids.iter().rev().map(|&oc| (mine, oc)));
        }
    }

    /// Renumber nodes into the canonical order: pre-order DFS with
    /// children visited in ascending location order. Returns the
    /// old-id → new-id map so callers holding [`NodeId`]s (mined
    /// exceptions, caches) can be remapped.
    ///
    /// Two graphs summarizing the same multiset of paths — whatever
    /// insertion or merge order produced them — canonicalize to
    /// byte-identical node tables, which is what makes incremental
    /// delta application provably equal to a batch rebuild (Lemma 4.2)
    /// at the serialization level, not just semantically. Idempotent.
    pub fn canonicalize(&mut self) -> Vec<NodeId> {
        // Old ids in canonical visit order (iterative DFS; see `merge`
        // for why recursion is off the table here).
        let mut order: Vec<NodeId> = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![NodeId::ROOT];
        while let Some(n) = stack.pop() {
            order.push(n);
            let node = &self.nodes[n.index()];
            let mut kids = node.children.clone();
            kids.sort_unstable_by_key(|&c| self.nodes[c.index()].loc);
            stack.extend(kids.into_iter().rev());
        }
        let mut remap = vec![NodeId::ROOT; self.nodes.len()];
        for (new_idx, &old) in order.iter().enumerate() {
            remap[old.index()] = NodeId(new_idx as u32);
        }
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for &old in &order {
            let mut node = self.nodes[old.index()].clone();
            node.parent = remap[node.parent.index()];
            for c in &mut node.children {
                *c = remap[c.index()];
            }
            // Siblings sorted by location get consecutive DFS subtrees,
            // so sorting by new id *is* sorting by location.
            node.children.sort_unstable();
            nodes.push(node);
        }
        self.nodes = nodes;
        remap
    }

    /// Pretty-print in the style of Figure 3, resolving location names via
    /// `hierarchy`.
    pub fn render(&self, hierarchy: &ConceptHierarchy) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "flowgraph over {} paths", self.total_paths);
        self.render_node(hierarchy, NodeId::ROOT, 0, &mut out);
        out
    }

    fn render_node(&self, hierarchy: &ConceptHierarchy, n: NodeId, depth: usize, out: &mut String) {
        let node = &self.nodes[n.index()];
        if n != NodeId::ROOT {
            let indent = "  ".repeat(depth);
            let trans_p = if self.nodes[node.parent.index()].count > 0 {
                node.count as f64 / self.nodes[node.parent.index()].count as f64
            } else {
                0.0
            };
            let durs: Vec<String> = node
                .durations
                .probabilities()
                .map(|(d, p)| match d {
                    Some(v) => format!("{v}:{p:.2}"),
                    None => format!("*:{p:.2}"),
                })
                .collect();
            let term = if node.count > 0 {
                node.terminate as f64 / node.count as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{indent}{} p={trans_p:.2} dur[{}] term={term:.2}",
                hierarchy.name_of(node.loc),
                durs.join(" ")
            );
        }
        for &c in &node.children {
            self.render_node(hierarchy, c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_hier::{DurationLevel, LocationCut, PathLevel};
    use flowcube_pathdb::{aggregate_stages, samples, MergePolicy};

    /// Aggregate Table 1 at the leaf level and build the Figure 3
    /// flowgraph.
    fn figure3_graph() -> (FlowGraph, flowcube_hier::Schema) {
        let db = samples::paper_table1();
        let loc = db.schema().locations();
        let level = PathLevel::new(
            "leaf",
            LocationCut::uniform_level(loc, loc.max_level()),
            DurationLevel::Raw,
        );
        let paths: Vec<Vec<AggStage>> = db
            .records()
            .iter()
            .map(|r| aggregate_stages(&r.stages, &level, MergePolicy::Sum).unwrap())
            .collect();
        let g = FlowGraph::build(paths.iter().map(|p| p.as_slice()));
        let schema = db.into_parts().0;
        (g, schema)
    }

    #[test]
    fn figure3_factory_node_distributions() {
        let (g, schema) = figure3_graph();
        let loc = schema.locations();
        let f = loc.id_of("factory").unwrap();
        let node = g.node_by_prefix(&[f]).unwrap();
        // Paper Figure 3: factory duration 5 : 0.38, 10 : 0.62;
        // transitions dist_center 0.65 ≈ 5/8, truck 0.35 ≈ 3/8.
        assert_eq!(g.count(node), 8);
        let d = g.durations(node);
        assert!((d.probability(Some(5)) - 3.0 / 8.0).abs() < 1e-9);
        assert!((d.probability(Some(10)) - 5.0 / 8.0).abs() < 1e-9);
        let t = g.transitions(node);
        let dc = loc.id_of("dist_center").unwrap();
        let tr = loc.id_of("truck").unwrap();
        assert!((t.probability(Some(dc)) - 5.0 / 8.0).abs() < 1e-9);
        assert!((t.probability(Some(tr)) - 3.0 / 8.0).abs() < 1e-9);
        assert_eq!(t.probability(None), 0.0);
    }

    #[test]
    fn figure3_truck_to_warehouse_branch() {
        let (g, schema) = figure3_graph();
        let loc = schema.locations();
        let f = loc.id_of("factory").unwrap();
        let t = loc.id_of("truck").unwrap();
        let w = loc.id_of("warehouse").unwrap();
        let s = loc.id_of("shelf").unwrap();
        // factory → truck splits: shelf 2/3, warehouse 1/3 (records 4,5,6)
        let ft = g.node_by_prefix(&[f, t]).unwrap();
        assert_eq!(g.count(ft), 3);
        let trans = g.transitions(ft);
        assert!((trans.probability(Some(s)) - 2.0 / 3.0).abs() < 1e-9);
        assert!((trans.probability(Some(w)) - 1.0 / 3.0).abs() < 1e-9);
        // warehouse terminates
        let ftw = g.node_by_prefix(&[f, t, w]).unwrap();
        assert_eq!(g.terminate_count(ftw), 1);
        assert_eq!(g.transitions(ftw).probability(None), 1.0);
    }

    #[test]
    fn prefix_and_branch_navigation() {
        let (g, schema) = figure3_graph();
        let loc = schema.locations();
        let f = loc.id_of("factory").unwrap();
        let d = loc.id_of("dist_center").unwrap();
        let t = loc.id_of("truck").unwrap();
        let n = g.node_by_prefix(&[f, d, t]).unwrap();
        assert_eq!(g.prefix_of(n), vec![f, d, t]);
        assert_eq!(g.branch_of(n).len(), 3);
        assert!(g.node_by_prefix(&[d]).is_none());
        assert_eq!(g.node_by_prefix(&[]), Some(NodeId::ROOT));
    }

    #[test]
    fn reach_probability_sums() {
        let (g, _) = figure3_graph();
        assert_eq!(g.reach_probability(NodeId::ROOT), 1.0);
        // All level-1 children partition the paths
        let total: f64 = g
            .children(NodeId::ROOT)
            .iter()
            .map(|&c| g.reach_probability(c))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_union_build() {
        let db = samples::paper_table1();
        let loc = db.schema().locations();
        let level = PathLevel::new(
            "leaf",
            LocationCut::uniform_level(loc, loc.max_level()),
            DurationLevel::Raw,
        );
        let paths: Vec<Vec<AggStage>> = db
            .records()
            .iter()
            .map(|r| aggregate_stages(&r.stages, &level, MergePolicy::Sum).unwrap())
            .collect();
        let full = FlowGraph::build(paths.iter().map(|p| p.as_slice()));
        let mut left = FlowGraph::build(paths[..4].iter().map(|p| p.as_slice()));
        let right = FlowGraph::build(paths[4..].iter().map(|p| p.as_slice()));
        left.merge(&right);
        assert!(crate::diff(&left, &full).is_empty());
    }

    /// Regression: `merge` used to recurse once per path depth, so a
    /// ~100k-stage path (an item oscillating between two readers) blew
    /// the stack. The worklist rewrite must handle it.
    #[test]
    fn merge_survives_pathologically_deep_graphs() {
        const DEPTH: usize = 100_000;
        let deep: Vec<AggStage> = (0..DEPTH)
            .map(|i| AggStage {
                loc: ConceptId(1 + (i % 2) as u32),
                dur: Some(1),
            })
            .collect();
        let a = FlowGraph::build([deep.as_slice()]);
        let mut b = FlowGraph::build([deep.as_slice()]);
        b.merge(&a);
        assert_eq!(b.total_paths(), 2);
        assert_eq!(b.len(), DEPTH + 1);
        let tip = NodeId((DEPTH) as u32);
        assert_eq!(b.count(tip), 2);
        assert_eq!(b.terminate_count(tip), 2);
        // Merging into an empty graph exercises the node-creation arm at
        // full depth, and canonicalize must be iterative too.
        let mut c = FlowGraph::new();
        c.merge(&b);
        assert_eq!(c.len(), DEPTH + 1);
        c.canonicalize();
        assert_eq!(c.len(), DEPTH + 1);
        // `diff` walks both graphs with a worklist as well.
        assert!(crate::diff(&c, &b).is_empty());
    }

    #[test]
    fn canonicalize_is_order_independent_and_idempotent() {
        let mk = |order: &[usize]| {
            let paths: Vec<Vec<AggStage>> = order
                .iter()
                .map(|&i| {
                    vec![
                        AggStage {
                            loc: ConceptId(1 + (i % 3) as u32),
                            dur: Some(i as u32),
                        },
                        AggStage {
                            loc: ConceptId(5 - (i % 2) as u32),
                            dur: Some(1),
                        },
                    ]
                })
                .collect();
            FlowGraph::build(paths.iter().map(|p| p.as_slice()))
        };
        let mut a = mk(&[0, 1, 2, 3, 4, 5]);
        let mut b = mk(&[5, 3, 1, 4, 2, 0]);
        a.canonicalize();
        b.canonicalize();
        let enc = |g: &FlowGraph| serde_json::to_string(g).unwrap();
        assert_eq!(enc(&a), enc(&b));
        // Idempotent: a second pass is the identity remap.
        let before = enc(&a);
        let remap = a.canonicalize();
        assert_eq!(enc(&a), before);
        assert!(remap
            .iter()
            .enumerate()
            .all(|(i, &n)| n == NodeId(i as u32)));
        // The remap is usable: prefixes resolve to the remapped ids.
        let mut c = mk(&[2, 0, 1]);
        let prefixes: Vec<(Vec<ConceptId>, NodeId)> =
            c.node_ids().map(|n| (c.prefix_of(n), n)).collect();
        let remap = c.canonicalize();
        for (prefix, old) in prefixes {
            assert_eq!(c.node_by_prefix(&prefix), Some(remap[old.index()]));
        }
    }

    /// Writing a canonical graph's own table back node by node gives the
    /// same graph, byte for byte.
    #[test]
    fn from_canonical_rebuilds_a_canonical_table() {
        let (mut g, _) = figure3_graph();
        g.canonicalize();
        let nodes = (0..g.len() as u32).map(NodeId).map(|n| NodeSpec {
            loc: g.location(n),
            parent: g.parent(n),
            children: g.children(n).to_vec(),
            count: g.count(n),
            terminate: g.terminate_count(n),
            durations: g.durations(n).iter().collect(),
        });
        let rebuilt = FlowGraph::from_canonical(nodes, g.total_paths());
        let enc = |g: &FlowGraph| serde_json::to_string(g).unwrap();
        assert_eq!(enc(&rebuilt), enc(&g));
    }

    #[test]
    fn render_smoke() {
        let (g, schema) = figure3_graph();
        let s = g.render(schema.locations());
        assert!(s.contains("factory"));
        assert!(s.contains("warehouse"));
    }
}

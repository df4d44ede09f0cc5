//! Cells as counts over a cut's apex node table (DESIGN §6).
//!
//! A cell's paths are a subset of the apex's, so at one path level its
//! flowgraph is the apex graph of that level restricted to the nodes its
//! paths reach — in the same canonical order (pre-order, children by
//! location), because restricting a pre-order to an ancestor-closed set
//! of nodes keeps it a pre-order. A [`CodeTable`] numbers everything a
//! node of that apex table can count, in canonical order: per node its
//! *block* — the paths ending there, the edge into each child (by
//! location), each duration stayed there (by duration). A cell at a level
//! is then a sparse vector of code counts ([`Counts`]):
//!
//! * its flowgraph is written straight from the vector
//!   ([`CodeTable::graph`]): a block is a node, its `End` count the node's
//!   terminations, its `Enter` counts the children's counts, its `Stay`
//!   counts the duration distribution;
//! * Definition 4.4 is decided on the vectors ([`divergence`]): a block's
//!   `End`/`Enter` codes are exactly the keys of the node's transition
//!   distribution and its `Stay` codes those of its duration
//!   distribution, in the order `CountDist` keeps them, so the terms of
//!   [`KlSimilarity::divergence`] come out in its order and to the bit.
//!
//! The batch build counts vectors from a [`PathDictionary`] (one walk of
//! the records per walked path level); a coarser duration level on the
//! same cut maps codes monotonically ([`CodeTable::rolled_up`], Lemma 4.2
//! along the duration axis); and [`prune_redundant`] projects the graphs
//! of an assembled cube onto a table built from their union, so there is
//! one redundancy pass.

use crate::cell::{aggregate_key, CellKey, Cuboid, CuboidKey};
use crate::params::FlowCubeParams;
use crate::stats::BuildStats;
use flowcube_flowgraph::{FlowGraph, KlSimilarity, NodeId, NodeSpec};
use flowcube_hier::{
    ConceptId, DurValue, DurationLevel, FxHashMap, PathLevel, PathLevelId, Schema,
};
use flowcube_mining::parallel::{balanced_chunks, run_chunks_counted};
use flowcube_pathdb::{aggregate_stages, AggStage, MergePolicy, PathDatabase};
use std::collections::BTreeSet;

/// What one code counts, within the block of the node that owns it.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Code {
    /// Paths ending at the node: the `None` transition.
    End,
    /// Paths continuing into the given child node: its `Some(location)`
    /// transition, and the child's count.
    Enter(u32),
    /// Paths staying this duration at the node.
    Stay(DurValue),
}

#[derive(Clone, Debug)]
struct TableNode {
    loc: ConceptId,
    parent: u32,
    /// The `Enter` code of this node in its parent's block (0 for the
    /// root, which has none).
    enter: u32,
    /// First code of the node's block — its `End` — followed by one
    /// `Enter` per child in location order, then one `Stay` per duration
    /// in duration order.
    block: u32,
    /// First `Stay` code of the block.
    stays: u32,
}

/// The canonical node table of one path level, and the codes of its
/// blocks (module docs). Node 0 is the root.
#[derive(Clone, Debug)]
pub(crate) struct CodeTable {
    nodes: Vec<TableNode>,
    /// Per code: the node whose block holds it, and what it counts.
    codes: Vec<(u32, Code)>,
}

/// A cell at one path level: `(code, count)` ascending by code, only
/// codes its paths touch. Counts are `u32` where the build counts tids;
/// a graph projected onto a table keeps its own `u64`s.
#[derive(Clone, Debug)]
pub(crate) struct Counts<C = u32> {
    /// Paths counted — the root's reach.
    paths: u64,
    entries: Box<[(u32, C)]>,
}

/// A prefix trie in insertion order: what a [`CodeTable`] is numbered
/// from. Node 0 is the root.
struct Trie {
    nodes: Vec<TrieNode>,
}

struct TrieNode {
    loc: ConceptId,
    children: Vec<u32>,
    /// Durations stayed here, ascending, each once.
    durs: Vec<DurValue>,
}

impl Trie {
    fn new() -> Self {
        Trie {
            nodes: vec![TrieNode {
                loc: ConceptId::ROOT,
                children: Vec::new(),
                durs: Vec::new(),
            }],
        }
    }

    /// The child of `parent` at `loc`, added if new.
    fn child(&mut self, parent: u32, loc: ConceptId) -> u32 {
        let found = self.nodes[parent as usize]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c as usize].loc == loc);
        found.unwrap_or_else(|| {
            let id = self.nodes.len() as u32;
            self.nodes.push(TrieNode {
                loc,
                children: Vec::new(),
                durs: Vec::new(),
            });
            self.nodes[parent as usize].children.push(id);
            id
        })
    }

    fn stay(&mut self, node: u32, dur: DurValue) {
        let durs = &mut self.nodes[node as usize].durs;
        if let Err(i) = durs.binary_search(&dur) {
            durs.insert(i, dur);
        }
    }

    /// Number the trie canonically. Returns the table and the trie-id →
    /// table-id map.
    fn into_table(self) -> (CodeTable, Vec<u32>) {
        // Pre-order DFS, children by location — `FlowGraph::canonicalize`'s
        // order; iterative, since paths can be deeper than the stack.
        let mut order: Vec<u32> = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![0u32];
        while let Some(n) = stack.pop() {
            order.push(n);
            let mut kids = self.nodes[n as usize].children.clone();
            kids.sort_unstable_by_key(|&c| self.nodes[c as usize].loc);
            stack.extend(kids.into_iter().rev());
        }
        let mut remap = vec![0u32; self.nodes.len()];
        for (id, &n) in order.iter().enumerate() {
            remap[n as usize] = id as u32;
        }
        let mut nodes: Vec<TableNode> = order
            .iter()
            .map(|&n| TableNode {
                loc: self.nodes[n as usize].loc,
                parent: 0,
                enter: 0,
                block: 0,
                stays: 0,
            })
            .collect();
        let mut codes: Vec<(u32, Code)> = Vec::new();
        for (id, &n) in order.iter().enumerate() {
            let trie_node = &self.nodes[n as usize];
            nodes[id].block = codes.len() as u32;
            codes.push((id as u32, Code::End));
            let mut kids: Vec<u32> = trie_node
                .children
                .iter()
                .map(|&c| remap[c as usize])
                .collect();
            // Table ids of siblings follow their locations (pre-order).
            kids.sort_unstable();
            for kid in kids {
                nodes[kid as usize].parent = id as u32;
                nodes[kid as usize].enter = codes.len() as u32;
                codes.push((id as u32, Code::Enter(kid)));
            }
            nodes[id].stays = codes.len() as u32;
            codes.extend(trie_node.durs.iter().map(|&d| (id as u32, Code::Stay(d))));
        }
        (CodeTable { nodes, codes }, remap)
    }
}

impl CodeTable {
    /// Codes in the table.
    pub(crate) fn len(&self) -> usize {
        self.codes.len()
    }

    /// One past the last code of node `n`'s block.
    fn block_end(&self, n: u32) -> u32 {
        self.nodes
            .get(n as usize + 1)
            .map_or(self.codes.len() as u32, |next| next.block)
    }

    /// The `Stay` code of `dur` at node `n`.
    fn stay_code(&self, n: u32, dur: DurValue) -> u32 {
        let node = &self.nodes[n as usize];
        let stays = &self.codes[node.stays as usize..self.block_end(n) as usize];
        let i = stays
            .binary_search_by(|&(_, code)| match code {
                Code::Stay(d) => d.cmp(&dur),
                _ => unreachable!("a block's tail is its stays"),
            })
            .expect("the table holds every duration it was built from");
        node.stays + i as u32
    }

    /// The child of node `n` at `loc`.
    fn child(&self, n: u32, loc: ConceptId) -> Option<u32> {
        let node = &self.nodes[n as usize];
        let enters = &self.codes[node.block as usize + 1..node.stays as usize];
        let i = enters
            .binary_search_by_key(&loc, |&(_, code)| match code {
                Code::Enter(kid) => self.nodes[kid as usize].loc,
                _ => unreachable!("a block's middle is its enters"),
            })
            .ok()?;
        match enters[i].1 {
            Code::Enter(kid) => Some(kid),
            _ => None,
        }
    }

    /// The table of the same paths at the coarser duration `level` on the
    /// same cut — nodes untouched, each node's durations mapped through
    /// `level.aggregate` and equal images merged — and the map from this
    /// table's codes to its codes. Aggregation is monotone, so the map
    /// is too: a vector maps in one pass and stays sorted
    /// ([`Counts::rolled_up`]). `FlowGraph::with_durations_at`, on codes.
    pub(crate) fn rolled_up(&self, level: DurationLevel) -> (CodeTable, Vec<u32>) {
        let mut nodes = self.nodes.clone();
        let mut codes: Vec<(u32, Code)> = Vec::with_capacity(self.codes.len());
        let mut map: Vec<u32> = Vec::with_capacity(self.codes.len());
        for (n, node) in self.nodes.iter().enumerate() {
            let block = codes.len() as u32;
            nodes[n].block = block;
            // `End` and the `Enter`s keep their number.
            nodes[n].stays = block + (node.stays - node.block);
            for &(owner, code) in
                &self.codes[node.block as usize..self.block_end(n as u32) as usize]
            {
                let code = match code {
                    Code::Stay(d) => Code::Stay(d.and_then(|d| level.aggregate(d))),
                    Code::Enter(kid) => {
                        nodes[kid as usize].enter = codes.len() as u32;
                        code
                    }
                    Code::End => code,
                };
                if codes.last() != Some(&(owner, code)) {
                    codes.push((owner, code));
                }
                map.push(codes.len() as u32 - 1);
            }
        }
        (CodeTable { nodes, codes }, map)
    }

    /// The flowgraph of the paths `counts` counts: one node per block
    /// they touch, in table order, which is canonical. Every node a path
    /// reaches holds at least its `End` or an `Enter`, so the blocks
    /// touched are exactly the nodes reached.
    pub(crate) fn graph(&self, counts: &Counts) -> FlowGraph {
        let entries = &counts.entries[..];
        let mut reached: Vec<u32> = Vec::new();
        for &(code, _) in entries {
            let owner = self.codes[code as usize].0;
            if reached.last() != Some(&owner) {
                reached.push(owner);
            }
        }
        // A reached node's id in the cell is its rank among reached nodes.
        let id = |n: u32| NodeId(reached.binary_search(&n).expect("reached") as u32);
        let mut rest = entries;
        let nodes = reached.iter().map(|&n| {
            let node = &self.nodes[n as usize];
            let len = rest.partition_point(|&(code, _)| code < self.block_end(n));
            let (block, tail) = rest.split_at(len);
            rest = tail;
            let split = block.partition_point(|&(code, _)| code < node.stays);
            let (transitions, stays) = block.split_at(split);
            let ends = usize::from(transitions.first().is_some_and(|e| e.0 == node.block));
            let mut spec = NodeSpec {
                loc: node.loc,
                parent: id(node.parent),
                children: Vec::with_capacity(transitions.len() - ends),
                count: 0,
                terminate: 0,
                durations: Vec::with_capacity(stays.len()),
            };
            for &(code, count) in transitions {
                spec.count += u64::from(count);
                match self.codes[code as usize].1 {
                    Code::End => spec.terminate = u64::from(count),
                    Code::Enter(kid) => spec.children.push(id(kid)),
                    Code::Stay(_) => unreachable!("stays follow transitions"),
                }
            }
            for &(code, count) in stays {
                if let Code::Stay(d) = self.codes[code as usize].1 {
                    spec.durations.push((d, u64::from(count)));
                }
            }
            spec
        });
        FlowGraph::from_canonical(nodes, counts.paths)
    }
}

impl Counts {
    /// These counts on the table `map` rolls this one up to
    /// ([`CodeTable::rolled_up`]): codes mapped, equal images added. The
    /// map is monotone, so equal images are adjacent.
    pub(crate) fn rolled_up(&self, map: &[u32]) -> Counts {
        let mapped = || {
            self.entries
                .iter()
                .map(|&(code, count)| (map[code as usize], count))
        };
        let mut len = 0;
        let mut last = None;
        for (code, _) in mapped() {
            if last != Some(code) {
                len += 1;
                last = Some(code);
            }
        }
        let mut entries: Vec<(u32, u32)> = Vec::with_capacity(len);
        for (code, count) in mapped() {
            match entries.last_mut() {
                Some((last, sum)) if *last == code => *sum += count,
                _ => entries.push((code, count)),
            }
        }
        Counts {
            paths: self.paths,
            entries: entries.into_boxed_slice(),
        }
    }
}

/// Every path of a database at one walked path level, as codes of the
/// level's [`CodeTable`] — the apex graph of the level, numbered, plus
/// one code list per tid. Laid out like `TransactionDb`: one flat arena,
/// `offsets[t]..offsets[t + 1]` delimiting tid `t`'s list, which holds
/// per stage its `Stay` code — the stage's node and duration — then the
/// `End` of its last node (of the root, for an empty path). The `Enter`
/// counts follow from the `Stay`s: every path through a node stays there
/// once.
pub(crate) struct PathDictionary {
    table: CodeTable,
    offsets: Vec<u32>,
    codes: Vec<u32>,
}

/// A worker's counting buffer: one slot per code, all zero between uses,
/// and the codes the current cell touched.
pub(crate) struct Scratch {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl Scratch {
    /// A buffer for tables of up to `codes` codes.
    pub(crate) fn new(codes: usize) -> Self {
        Scratch {
            counts: vec![0; codes],
            touched: Vec::new(),
        }
    }
}

impl PathDictionary {
    /// One walk of `db`'s records, aggregated to `level` under `merge`.
    pub(crate) fn walk(db: &PathDatabase, level: &PathLevel, merge: MergePolicy) -> Self {
        let _span = flowcube_obs::span!("build.dictionary", level = level.name.as_str());
        let mut trie = Trie::new();
        // Per stage, the trie node and duration; numbered once the trie is.
        let mut stages: Vec<(u32, DurValue)> = Vec::new();
        let mut ends: Vec<usize> = Vec::with_capacity(db.len());
        for record in db.records() {
            let path = aggregate_stages(&record.stages, level, merge)
                .expect("db locations are covered by every cut");
            let mut cur = 0;
            for stage in path {
                cur = trie.child(cur, stage.loc);
                trie.stay(cur, stage.dur);
                stages.push((cur, stage.dur));
            }
            ends.push(stages.len());
        }
        let (table, remap) = trie.into_table();
        let mut offsets: Vec<u32> = Vec::with_capacity(ends.len() + 1);
        let mut codes: Vec<u32> = Vec::with_capacity(stages.len() + ends.len());
        offsets.push(0);
        let mut start = 0;
        for end in ends {
            let mut last = 0;
            for &(n, dur) in &stages[start..end] {
                last = remap[n as usize];
                codes.push(table.stay_code(last, dur));
            }
            codes.push(table.nodes[last as usize].block);
            offsets.push(u32::try_from(codes.len()).expect("fewer than 2^32 stages per level"));
            start = end;
        }
        PathDictionary {
            table,
            offsets,
            codes,
        }
    }

    pub(crate) fn table(&self) -> &CodeTable {
        &self.table
    }

    fn path(&self, tid: u32) -> &[u32] {
        &self.codes[self.offsets[tid as usize] as usize..self.offsets[tid as usize + 1] as usize]
    }

    /// The counts of the paths `tids`, counted into `scratch` — left as
    /// it was found — at a cost in the cell's own stages.
    pub(crate) fn count(&self, tids: &[u32], scratch: &mut Scratch) -> Counts {
        let Scratch { counts, touched } = scratch;
        touched.clear();
        fn add(counts: &mut [u32], touched: &mut Vec<u32>, code: u32, n: u32) {
            let slot = &mut counts[code as usize];
            if *slot == 0 {
                touched.push(code);
            }
            *slot += n;
        }
        for &t in tids {
            for &code in self.path(t) {
                add(counts, touched, code, 1);
            }
        }
        // A node's count — its `Enter` in its parent's block — is the
        // total of its stays.
        for i in 0..touched.len() {
            let code = touched[i];
            if let (owner, Code::Stay(_)) = self.table.codes[code as usize] {
                let stays = counts[code as usize];
                add(
                    counts,
                    touched,
                    self.table.nodes[owner as usize].enter,
                    stays,
                );
            }
        }
        touched.sort_unstable();
        let entries = touched
            .iter()
            .map(|&code| (code, std::mem::take(&mut counts[code as usize])))
            .collect();
        Counts {
            paths: tids.len() as u64,
            entries,
        }
    }

    /// Tid `tid`'s path as aggregated stages, appended to `out`, with its
    /// durations rolled up to `roll` when given (a level derived from
    /// this one).
    pub(crate) fn stages(&self, tid: u32, roll: Option<DurationLevel>, out: &mut Vec<AggStage>) {
        for &code in self.path(tid) {
            let (owner, code) = self.table.codes[code as usize];
            if let Code::Stay(dur) = code {
                out.push(AggStage {
                    loc: self.table.nodes[owner as usize].loc,
                    dur: roll.map_or(dur, |level| dur.and_then(|d| level.aggregate(d))),
                });
            }
        }
    }
}

/// One reach-weighted KL term's distribution pair: `p` and `q` are the
/// child's and the parent's entries of one node's transitions (or
/// durations), ascending by code. Exactly `CountDist::kl_divergence`:
/// the union of keys in key order, a code either side lacks a zero count,
/// the same totals, terms and clamp.
fn kl<C: Copy + Into<u64>, P: Copy + Into<u64>>(p: &[(u32, C)], q: &[(u32, P)], alpha: f64) -> f64 {
    let (mut keys, mut p_sum, mut q_sum) = (0usize, 0u64, 0u64);
    union(p, q, |pc, qc| {
        keys += 1;
        p_sum += pc;
        q_sum += qc;
    });
    if keys == 0 {
        return 0.0;
    }
    let k = keys as f64;
    let p_total = p_sum as f64 + alpha * k;
    let q_total = q_sum as f64 + alpha * k;
    let mut kl = 0.0;
    union(p, q, |pc, qc| {
        let p = (pc as f64 + alpha) / p_total;
        let q = (qc as f64 + alpha) / q_total;
        kl += p * (p / q).ln();
    });
    kl.max(0.0)
}

/// Visit the union of two code-sorted entry lists in code order, with
/// each side's count (0 where it lacks the code).
fn union<C: Copy + Into<u64>, P: Copy + Into<u64>>(
    p: &[(u32, C)],
    q: &[(u32, P)],
    mut f: impl FnMut(u64, u64),
) {
    let (mut i, mut j) = (0, 0);
    loop {
        match (p.get(i), q.get(j)) {
            (Some(a), Some(b)) if a.0 == b.0 => {
                f(a.1.into(), b.1.into());
                (i, j) = (i + 1, j + 1);
            }
            (Some(a), b) if b.is_none_or(|b| a.0 < b.0) => {
                f(a.1.into(), 0);
                i += 1;
            }
            (_, Some(b)) => {
                f(0, b.1.into());
                j += 1;
            }
            _ => return,
        }
    }
}

/// `KlSimilarity::default().divergence(child, parent)` on count vectors
/// of one table: per node the child reaches, in table order, the reach
/// weight times the KL of its transitions, then (below the root) of its
/// durations — the same `f64` terms added in the same order. A node or
/// key the parent lacks is a zero count, which is the arithmetic of that
/// method's `None` arm. Stops with `None` as soon as the partial sum
/// exceeds `tau`: every term is ≥ 0 and adding a non-negative float
/// never lowers a sum, so the full divergence would exceed it too.
/// `tau = f64::INFINITY` returns the full divergence.
pub(crate) fn divergence<C, P>(
    table: &CodeTable,
    child: &Counts<C>,
    parent: &Counts<P>,
    tau: f64,
) -> Option<f64>
where
    C: Copy + Into<u64>,
    P: Copy + Into<u64>,
{
    let alpha = KlSimilarity::default().alpha;
    let (mut c, mut p) = (&child.entries[..], &parent.entries[..]);
    let mut total = 0.0;
    while let Some(&(first, _)) = c.first() {
        let n = table.codes[first as usize].0;
        let node = &table.nodes[n as usize];
        let end = table.block_end(n);
        p = &p[p.partition_point(|e| e.0 < node.block)..];
        let (cb, c_rest) = c.split_at(c.partition_point(|e| e.0 < end));
        let (pb, p_rest) = p.split_at(p.partition_point(|e| e.0 < end));
        (c, p) = (c_rest, p_rest);
        let (ct, cd) = cb.split_at(cb.partition_point(|e| e.0 < node.stays));
        let (pt, pd) = pb.split_at(pb.partition_point(|e| e.0 < node.stays));
        let reach: u64 = ct.iter().map(|e| e.1.into()).sum();
        let w = if child.paths == 0 {
            0.0
        } else {
            reach as f64 / child.paths as f64
        };
        if w == 0.0 {
            continue;
        }
        total += w * kl(ct, pt, alpha);
        if n != 0 {
            total += w * kl(cd, pd, alpha);
        }
        if total > tau {
            return None;
        }
    }
    Some(total)
}

/// Work done deciding Definition 4.4: parent comparisons started, and
/// those stopped early by [`divergence`].
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Tally {
    comparisons: u64,
    early_exits: u64,
}

/// Definition 4.4 for one cell: redundant when it has a parent and lies
/// within `tau` of every parent (`flowcube_flowgraph::is_redundant` with
/// the KL metric, on counts).
pub(crate) fn is_redundant<'a, C: Copy + Into<u64> + 'a>(
    table: &CodeTable,
    child: &Counts<C>,
    parents: impl IntoIterator<Item = &'a Counts<C>>,
    tau: f64,
    tally: &mut Tally,
) -> bool {
    let mut any = false;
    for parent in parents {
        any = true;
        tally.comparisons += 1;
        match divergence(table, child, parent, tau) {
            Some(d) if d <= tau => {}
            Some(_) => return false,
            None => {
                tally.early_exits += 1;
                return false;
            }
        }
    }
    any
}

/// Decide `redundant(i)` for every `i < n` on the build's chunk runner;
/// returns the flags in index order and the chunks retried. Publishes
/// the `build.redundancy.*` counters.
pub(crate) fn decide(
    n: usize,
    params: &FlowCubeParams,
    redundant: impl Fn(usize, &mut Tally) -> bool + Sync,
) -> (Vec<bool>, usize) {
    let report = run_chunks_counted(
        "build.redundancy.chunk",
        n,
        balanced_chunks(n),
        params.threads_for(n),
        |range| {
            let mut tally = Tally::default();
            let flags: Vec<bool> = range.map(|i| redundant(i, &mut tally)).collect();
            (flags, tally)
        },
    );
    let mut flags = Vec::with_capacity(n);
    let mut tally = Tally::default();
    for (part, t) in report.results {
        flags.extend(part);
        tally.comparisons += t.comparisons;
        tally.early_exits += t.early_exits;
    }
    flowcube_obs::counter_add("build.redundancy.comparisons", tally.comparisons);
    flowcube_obs::counter_add("build.redundancy.early_exit", tally.early_exits);
    (flags, report.retried_chunks)
}

/// Visit a graph's nodes from the root, each with its parent's visit
/// result: `f(node, parent's value)` returns the node's.
fn visit(graph: &FlowGraph, mut f: impl FnMut(NodeId, u32) -> u32) {
    let mut stack = vec![(NodeId::ROOT, f(NodeId::ROOT, 0))];
    while let Some((n, at)) = stack.pop() {
        for &c in graph.children(n) {
            stack.push((c, f(c, at)));
        }
    }
}

/// A table holding every prefix and duration of `graphs`.
fn table_of<'a>(graphs: impl IntoIterator<Item = &'a FlowGraph>) -> CodeTable {
    let mut trie = Trie::new();
    for graph in graphs {
        visit(graph, |n, parent| {
            if n == NodeId::ROOT {
                return 0;
            }
            let at = trie.child(parent, graph.location(n));
            for (d, _) in graph.durations(n).iter() {
                trie.stay(at, d);
            }
            at
        });
    }
    trie.into_table().0
}

/// `graph` as counts of `table`, which must hold every prefix and
/// duration of it: terminations on `End`, each child's count on its
/// `Enter`, each duration's count on its `Stay` — every key its
/// transition and duration distributions hold, zero counts included.
fn project(table: &CodeTable, graph: &FlowGraph) -> Counts<u64> {
    let mut entries: Vec<(u32, u64)> = Vec::new();
    visit(graph, |n, parent| {
        let at = if n == NodeId::ROOT {
            0
        } else {
            table
                .child(parent, graph.location(n))
                .expect("the table holds every prefix")
        };
        if n != NodeId::ROOT {
            entries.push((table.nodes[at as usize].enter, graph.count(n)));
            entries.extend(
                graph
                    .durations(n)
                    .iter()
                    .map(|(d, c)| (table.stay_code(at, d), c)),
            );
        }
        if graph.terminate_count(n) > 0 {
            entries.push((table.nodes[at as usize].block, graph.terminate_count(n)));
        }
        at
    });
    entries.sort_unstable_by_key(|&(code, _)| code);
    // A malformed graph with two children at one location: their counts
    // add, as they do in its transition distribution.
    entries.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    Counts {
        paths: graph.total_paths(),
        entries: entries.into_boxed_slice(),
    }
}

/// Mark and drop cells similar to all their item-lattice parents at the
/// same path level (Definition 4.4), for a cube assembled from graphs —
/// the federated merge. Each path level's graphs are projected onto one
/// table built from their union and decided by the build's own routine
/// ([`is_redundant`]); parents are judged unpruned, as the definition
/// compares to their flowgraphs whether or not they are redundant.
pub(crate) fn prune_redundant(
    cuboids: &mut FxHashMap<CuboidKey, Cuboid>,
    schema: &Schema,
    tau: f64,
    params: &FlowCubeParams,
    stats: &mut BuildStats,
) {
    let (to_drop, retries) = decide_graphs(cuboids, schema, tau, params);
    stats.chunk_retries += retries;
    stats.cells_pruned_redundant = to_drop.len();
    for (ck, key) in to_drop {
        if let Some(cuboid) = cuboids.get_mut(&ck) {
            cuboid.cells.remove(&key);
        }
    }
    cuboids.retain(|_, c| !c.is_empty());
}

/// [`prune_redundant`]'s decision: the redundant cells, and the chunks
/// retried.
fn decide_graphs(
    cuboids: &FxHashMap<CuboidKey, Cuboid>,
    schema: &Schema,
    tau: f64,
    params: &FlowCubeParams,
) -> (Vec<(CuboidKey, CellKey)>, usize) {
    let cells: Vec<(&CuboidKey, &CellKey, &FlowGraph)> = cuboids
        .iter()
        .flat_map(|(ck, cuboid)| cuboid.iter().map(move |(key, e)| (ck, key, &e.graph)))
        .collect();
    let index: FxHashMap<(PathLevelId, &[ConceptId]), usize> = (cells.iter().enumerate())
        .map(|(i, &(ck, key, _))| ((ck.path_level, key.as_slice()), i))
        .collect();
    let levels: BTreeSet<PathLevelId> = cells.iter().map(|c| c.0.path_level).collect();
    let tables: FxHashMap<PathLevelId, CodeTable> = (levels.into_iter())
        .map(|level| {
            let graphs = cells.iter().filter(|c| c.0.path_level == level);
            (level, table_of(graphs.map(|c| c.2)))
        })
        .collect();
    let counts: Vec<Counts<u64>> = (cells.iter())
        .map(|&(ck, _, graph)| project(&tables[&ck.path_level], graph))
        .collect();
    let (redundant, retries) = decide(cells.len(), params, |i, tally| {
        let (ck, key, _) = cells[i];
        let parents = (ck.item_level.parents().into_iter()).filter_map(|parent_level| {
            let parent_key = aggregate_key(key, &parent_level, schema);
            index
                .get(&(ck.path_level, parent_key.as_slice()))
                .map(|&p| &counts[p])
        });
        is_redundant(&tables[&ck.path_level], &counts[i], parents, tau, tally)
    });
    let to_drop = (cells.iter().zip(&redundant))
        .filter(|(_, &r)| r)
        .map(|(&(ck, key, _), _)| (ck.clone(), key.clone()))
        .collect();
    (to_drop, retries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_datagen::{generate, DimShape, GeneratorConfig};
    use flowcube_flowgraph::FlowSimilarity;
    use flowcube_hier::LocationCut;
    use proptest::prelude::*;

    const DURATIONS: [DurationLevel; 5] = [
        DurationLevel::Raw,
        DurationLevel::Bucket(2),
        DurationLevel::Bucket(3),
        DurationLevel::Bucket(4),
        DurationLevel::Any,
    ];

    /// Definition 3.1 literally: the paths aggregated at `level`, walked,
    /// canonicalized.
    fn walked(db: &PathDatabase, level: &PathLevel, merge: MergePolicy, tids: &[u32]) -> FlowGraph {
        let paths: Vec<Vec<AggStage>> = (tids.iter())
            .map(|&t| aggregate_stages(&db.records()[t as usize].stages, level, merge).unwrap())
            .collect();
        let mut graph = FlowGraph::build(paths.iter().map(Vec::as_slice));
        graph.canonicalize();
        graph
    }

    fn json(graph: &FlowGraph) -> String {
        serde_json::to_string(graph).unwrap()
    }

    /// The counts `c` (child) and `p` (parent) on `table` are the graphs
    /// `gc` and `gp`, and decide as the graphs do.
    fn check(
        table: &CodeTable,
        (c, gc): (&Counts, &FlowGraph),
        (p, gp): (&Counts, &FlowGraph),
    ) -> Result<(), String> {
        prop_assert_eq!(json(&table.graph(c)), json(gc));
        prop_assert_eq!(json(&table.graph(p)), json(gp));
        let full = KlSimilarity::default().divergence(gc, gp);
        let bits = |d: Option<f64>| d.map(f64::to_bits);
        prop_assert_eq!(
            bits(divergence(table, c, p, f64::INFINITY)),
            Some(full.to_bits())
        );
        // The same graphs projected onto a table of their own union.
        let union = table_of([gc, gp]);
        let (pc, pp) = (project(&union, gc), project(&union, gp));
        prop_assert_eq!(
            bits(divergence(&union, &pc, &pp, f64::INFINITY)),
            Some(full.to_bits())
        );
        // Stopping early decides as the full sum does — at τ equal to the
        // divergence (the `<=` boundary) and one float either side.
        let below = f64::from_bits(full.to_bits().saturating_sub(1));
        let above = f64::from_bits(full.to_bits() + 1);
        for tau in [full, below, above, full / 2.0, 0.0] {
            let mut tally = Tally::default();
            let on_counts = is_redundant(table, c, [p], tau, &mut tally);
            prop_assert_eq!(on_counts, full <= tau, "τ = {}", tau);
            prop_assert_eq!(
                on_counts,
                flowcube_flowgraph::is_redundant(gc, &[gp], &KlSimilarity::default(), tau)
            );
            prop_assert_eq!(tally.comparisons, 1);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A cell's counts over the dictionary of its level are its walked
        /// graph, and their divergence from another cell's is
        /// `KlSimilarity::divergence`'s to the bit: for a child inside its
        /// parent, and for a child with prefixes the parent lacks.
        #[test]
        fn counts_are_the_walked_graphs_and_their_kl_divergence(
            seed in 0u64..10_000,
            coarse in 0u8..2,
            duration in 0usize..DURATIONS.len(),
            rolled in 0usize..DURATIONS.len(),
            merge in 0usize..3,
            member in prop::collection::vec(0u8..4, 60),
            spread in 1usize..8,
            inside in 0u8..2,
        ) {
            let config = GeneratorConfig {
                num_paths: member.len(),
                dims: vec![DimShape::new(vec![2], 0.7)],
                num_sequences: 5,
                path_len: (1, 6),
                max_duration: 9,
                seed,
                ..Default::default()
            };
            let db = generate(&config).db;
            let loc = db.schema().locations();
            let cut = LocationCut::uniform_level(loc, loc.max_level() - coarse);
            let level = PathLevel::new("walked", cut.clone(), DURATIONS[duration]);
            let merge = [MergePolicy::Sum, MergePolicy::Max, MergePolicy::First][merge];
            // Tid t is in the child for `member[t]` 1 or 3, in the parent
            // for 2 or 3 at every `spread`-th tid — a sparse parent lacks
            // prefixes the child has — and `inside` puts every child tid
            // in the parent.
            let (mut child, mut parent) = (Vec::new(), Vec::new());
            for (t, &m) in member.iter().enumerate() {
                if m & 1 == 1 {
                    child.push(t as u32);
                }
                if (m & 2 == 2 && t % spread == 0) || (inside == 1 && m & 1 == 1) {
                    parent.push(t as u32);
                }
            }
            let dict = PathDictionary::walk(&db, &level, merge);
            let mut scratch = Scratch::new(dict.table().len());
            let (c, p) = (dict.count(&child, &mut scratch), dict.count(&parent, &mut scratch));
            prop_assert!(scratch.counts.iter().all(|&n| n == 0), "scratch left as found");
            let (gc, gp) = (walked(&db, &level, merge, &child), walked(&db, &level, merge, &parent));
            check(dict.table(), (&c, &gc), (&p, &gp))?;

            // A coarser duration level on the cut, from the same counts.
            if DURATIONS[rolled].is_coarser_or_equal(DURATIONS[duration]) {
                let coarser = PathLevel::new("rolled", cut, DURATIONS[rolled]);
                let (table, map) = dict.table().rolled_up(DURATIONS[rolled]);
                let (gc, gp) = (walked(&db, &coarser, merge, &child), walked(&db, &coarser, merge, &parent));
                check(&table, (&c.rolled_up(&map), &gc), (&p.rolled_up(&map), &gp))?;
                // The dictionary's paths, rolled, are the coarser level's.
                let mut stages = Vec::new();
                for &t in &parent {
                    stages.clear();
                    dict.stages(t, Some(DURATIONS[rolled]), &mut stages);
                    let want = aggregate_stages(&db.records()[t as usize].stages, &coarser, merge).unwrap();
                    prop_assert_eq!(&stages, &want);
                }
            }
        }
    }
}

//! Representation-independent cube navigation.
//!
//! The OLAP operations (lookup with ancestor fallback, rollup,
//! drilldown, slice, dice) are pure functions of the *key space* — the
//! schema's hierarchies and the set of materialized cell keys — not of
//! how cells are stored. This module factors that key-space logic out of
//! [`crate::FlowCube`] so the serving layer can run the same navigation
//! over a zero-copy columnar snapshot section without materializing
//! `HashMap` cells: both paths answer identically because they *are* the
//! same code.
//!
//! Determinism note: every enumeration here returns keys in a canonical
//! order (sorted cell keys; hierarchy order for drilldown children).
//! Hash-map iteration order must never leak into query answers — the
//! differential suite compares responses byte-for-byte across storage
//! representations.

use crate::cell::{aggregate_key, aggregate_key_into, level_of_key, CellKey, Cuboid};
use flowcube_hier::{ConceptId, ItemLevel, Schema};

/// The scalar facts about one cell that every storage representation can
/// produce without decoding its flowgraph: enough to render cell rows.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CellStats {
    /// Paths aggregated in the cell.
    pub support: u64,
    /// Flowgraph nodes including the virtual root.
    pub nodes: usize,
    /// Mined exceptions.
    pub exceptions: usize,
}

/// Read-only access to one cuboid's cell set, abstracted over storage.
/// Implemented by the in-memory [`Cuboid`] and by the serving layer's
/// columnar section view.
pub trait CuboidRead {
    /// Whether a cell with `key` is materialized.
    fn contains(&self, key: &[ConceptId]) -> bool;
    /// Number of materialized cells.
    fn num_cells(&self) -> usize;
    /// Scalar stats for a cell, if materialized.
    fn stats(&self, key: &[ConceptId]) -> Option<CellStats>;
    /// All cell keys in ascending key order.
    fn keys_sorted(&self) -> Vec<CellKey>;
}

impl CuboidRead for Cuboid {
    fn contains(&self, key: &[ConceptId]) -> bool {
        self.get(key).is_some()
    }

    fn num_cells(&self) -> usize {
        self.len()
    }

    fn stats(&self, key: &[ConceptId]) -> Option<CellStats> {
        self.get(key).map(|e| CellStats {
            support: e.support,
            nodes: e.graph.len(),
            exceptions: e.exceptions.len(),
        })
    }

    fn keys_sorted(&self) -> Vec<CellKey> {
        let mut keys: Vec<CellKey> = self.iter().map(|(k, _)| k.clone()).collect();
        keys.sort_unstable();
        keys
    }
}

/// Where a point lookup found its answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Item level of the cuboid holding the answering cell.
    pub item_level: ItemLevel,
    /// Key of the answering cell (equals the query key when `exact`).
    pub key: CellKey,
    /// `true` when the exact requested cell was materialized.
    pub exact: bool,
}

/// The item levels a cuboid is stored at, in the order
/// [`lookup_route`] probes them: nearest the finest first (level sum
/// descending), ties by level vector ascending. That is the order the
/// breadth-first walk up the item lattice first reaches each level in.
pub fn walk_order(levels: impl IntoIterator<Item = ItemLevel>) -> Vec<ItemLevel> {
    let mut levels: Vec<ItemLevel> = levels.into_iter().collect();
    let sum = |l: &ItemLevel| l.0.iter().map(|&x| u32::from(x)).sum::<u32>();
    levels.sort_unstable_by(|a, b| sum(b).cmp(&sum(a)).then_with(|| a.cmp(b)));
    levels.dedup();
    levels
}

/// Point lookup with ancestor fallback — how a non-redundant / iceberg
/// cube answers queries for pruned cells. `probe` answers whether a cell
/// is materialized at `(item level, key)` under the caller's fixed path
/// level, handing back whatever the caller found there; the first
/// `Some` ends the walk.
///
/// The key's own level is probed first, so an exact hit costs one probe.
/// On a miss `stored` is asked, once, for the item levels that hold a
/// cuboid at this path level in [`walk_order`], and only those coarser
/// than the key's are probed, each at most once, with the key aggregated
/// to them. Which ancestor answers when several are materialized at the
/// same distance is part of the query contract shared by every storage
/// representation: it is the one a breadth-first walk up the lattice,
/// expanding parents in dimension order, reaches first — an ancestor's
/// key depends on its level alone, so the walk order is the order of
/// levels `walk_order` gives.
pub fn lookup_route<T, L: AsRef<[ItemLevel]>>(
    schema: &Schema,
    key: &[ConceptId],
    stored: impl FnOnce() -> L,
    mut probe: impl FnMut(&ItemLevel, &[ConceptId]) -> Option<T>,
) -> Option<(Route, T)> {
    let level = level_of_key(key, schema);
    if let Some(found) = probe(&level, key) {
        let route = Route {
            item_level: level,
            key: key.to_vec(),
            exact: true,
        };
        return Some((route, found));
    }
    let stored = stored();
    let mut ancestor_key = Vec::with_capacity(key.len());
    for ancestor in stored.as_ref().iter().filter(|l| l.is_coarser(&level)) {
        aggregate_key_into(key, ancestor, schema, &mut ancestor_key);
        if let Some(found) = probe(ancestor, &ancestor_key) {
            let route = Route {
                item_level: ancestor.clone(),
                key: ancestor_key,
                exact: false,
            };
            return Some((route, found));
        }
    }
    None
}

/// The parent cell reached by aggregating `dim` one level up, or `None`
/// when the key is already at the apex in that dimension.
pub fn rollup_target(
    schema: &Schema,
    key: &[ConceptId],
    dim: usize,
) -> Option<(ItemLevel, CellKey)> {
    let level = level_of_key(key, schema);
    if level.0[dim] == 0 {
        return None;
    }
    let mut parent_level = level.clone();
    parent_level.0[dim] -= 1;
    let parent_key = aggregate_key(key, &parent_level, schema);
    Some((parent_level, parent_key))
}

/// The candidate child cells obtained by specializing `dim` one level
/// down, in hierarchy order (callers filter by materialization). The
/// apex (`*` at level 0) drills into every level-1 concept.
pub fn drilldown_candidates(
    schema: &Schema,
    key: &[ConceptId],
    dim: usize,
) -> (ItemLevel, Vec<CellKey>) {
    let level = level_of_key(key, schema);
    let h = schema.dim(dim as u8);
    let mut child_level = level.clone();
    child_level.0[dim] += 1;
    let children = if key[dim] == ConceptId::ROOT && level.0[dim] == 0 {
        h.concepts_at_level(1).collect::<Vec<_>>()
    } else {
        h.children_of(key[dim]).to_vec()
    };
    let keys = children
        .into_iter()
        .map(|c| {
            let mut child_key = key.to_vec();
            child_key[dim] = c;
            child_key
        })
        .collect();
    (child_level, keys)
}

/// Keys of all cells whose `dim` coordinate equals `value`, ascending.
pub fn slice_keys<C: CuboidRead + ?Sized>(
    cuboid: &C,
    dim: usize,
    value: ConceptId,
) -> Vec<CellKey> {
    let mut keys = cuboid.keys_sorted();
    keys.retain(|k| k[dim] == value);
    keys
}

/// Keys of all cells satisfying an arbitrary predicate, ascending.
pub fn dice_keys<C: CuboidRead + ?Sized>(
    cuboid: &C,
    pred: impl Fn(&CellKey) -> bool,
) -> Vec<CellKey> {
    let mut keys = cuboid.keys_sorted();
    keys.retain(|k| pred(k));
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellEntry;
    use flowcube_flowgraph::FlowGraph;
    use flowcube_hier::fx::splitmix64;
    use flowcube_hier::ConceptHierarchy;
    use flowcube_pathdb::samples;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashSet};

    fn entry(support: u64) -> CellEntry {
        CellEntry {
            support,
            graph: FlowGraph::new(),
            exceptions: Vec::new(),
            redundant: false,
        }
    }

    /// The walk [`lookup_route`] replaced: breadth first up the item
    /// lattice from the key's level, expanding each level's parents in
    /// dimension order and probing every level once, stored or not.
    fn bfs_route(
        schema: &Schema,
        key: &[ConceptId],
        mut probe: impl FnMut(&ItemLevel, &[ConceptId]) -> bool,
    ) -> Option<Route> {
        let level = level_of_key(key, schema);
        let mut frontier: Vec<(ItemLevel, CellKey)> = vec![(level, key.to_vec())];
        let mut exact = true;
        let mut seen: HashSet<(ItemLevel, CellKey)> = HashSet::new();
        while !frontier.is_empty() {
            for (lvl, k) in &frontier {
                if probe(lvl, k) {
                    return Some(Route {
                        item_level: lvl.clone(),
                        key: k.clone(),
                        exact,
                    });
                }
            }
            let mut next: Vec<(ItemLevel, CellKey)> = Vec::new();
            for (lvl, k) in frontier.drain(..) {
                for parent in lvl.parents() {
                    let pk = aggregate_key(&k, &parent, schema);
                    if seen.insert((parent.clone(), pk.clone())) {
                        next.push((parent, pk));
                    }
                }
            }
            frontier = next;
            exact = false;
        }
        None
    }

    /// One hierarchy per parent vector: concept `i + 1` hangs under
    /// concept `parents[i] % (i + 1)`, so a hierarchy may be ragged.
    fn ragged_schema(parents: &[Vec<u16>]) -> Schema {
        let dims = (parents.iter().enumerate())
            .map(|(d, parents)| {
                let mut h = ConceptHierarchy::new(format!("d{d}"));
                for (i, &p) in parents.iter().enumerate() {
                    let parent = ConceptId(u32::from(p) % (i as u32 + 1));
                    h.add(parent, format!("d{d}c{}", i + 1)).unwrap();
                }
                h
            })
            .collect();
        let mut loc = ConceptHierarchy::new("location");
        loc.add_path(["g", "a"]).unwrap();
        Schema::new(dims, loc)
    }

    /// Every item level of `schema`'s lattice, in no particular order.
    fn all_levels(schema: &Schema) -> Vec<ItemLevel> {
        let mut levels = vec![Vec::new()];
        for d in 0..schema.num_dims() {
            let max = schema.dim(d as u8).max_level();
            levels = (levels.iter())
                .flat_map(|l| {
                    (0..=max).map(move |x| {
                        let mut l = l.clone();
                        l.push(x);
                        l
                    })
                })
                .collect();
        }
        levels.into_iter().map(ItemLevel).collect()
    }

    /// The probes of the new walk and of the breadth-first oracle over
    /// `stored`, with `answers` deciding which stored probes succeed.
    #[allow(clippy::type_complexity)]
    fn both_walks(
        schema: &Schema,
        key: &[ConceptId],
        stored: &BTreeSet<ItemLevel>,
        answers: impl Fn(&ItemLevel) -> bool,
    ) -> (
        (Option<Route>, Vec<ItemLevel>),
        (Option<Route>, Vec<ItemLevel>),
    ) {
        let hit = |level: &ItemLevel| stored.contains(level) && answers(level);
        let mut walked = Vec::new();
        let route = lookup_route(
            schema,
            key,
            || walk_order(stored.iter().cloned()),
            |level, _| {
                walked.push(level.clone());
                hit(level).then_some(())
            },
        )
        .map(|(route, ())| route);
        let mut oracle_walked = Vec::new();
        let oracle = bfs_route(schema, key, |level, _| {
            oracle_walked.push(level.clone());
            hit(level)
        });
        ((route, walked), (oracle, oracle_walked))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stored-level walk answers as the breadth-first walk does
        /// and probes the stored levels in the same order: over ragged
        /// hierarchies, one to six dimensions, random sets of stored
        /// levels and random probe answers.
        #[test]
        fn the_walk_probes_stored_levels_in_breadth_first_order(
            parents in prop::collection::vec(prop::collection::vec(0u16..8, 1..5), 1..7),
            seed in 0u64..u64::MAX,
            stored_per_8 in 1u64..8,
            answer_per_8 in 0u64..8,
        ) {
            let schema = ragged_schema(&parents);
            let mut rng = seed;
            let mut next = || {
                rng = splitmix64(rng);
                rng
            };
            let key: CellKey = (0..schema.num_dims())
                .map(|d| ConceptId((next() % schema.dim(d as u8).len() as u64) as u32))
                .collect();
            let stored: BTreeSet<ItemLevel> = (all_levels(&schema).into_iter())
                .filter(|_| next() % 8 < stored_per_8)
                .collect();
            let salt = next();
            let answers = |level: &ItemLevel| {
                let h = level.0.iter().fold(salt, |h, &x| splitmix64(h ^ u64::from(x)));
                h % 8 < answer_per_8
            };
            let ((route, walked), (oracle, oracle_walked)) =
                both_walks(&schema, &key, &stored, answers);
            prop_assert_eq!(&route, &oracle, "key {:?}", key);
            let on_stored = |probes: Vec<ItemLevel>| -> Vec<ItemLevel> {
                probes.into_iter().filter(|l| stored.contains(l)).collect()
            };
            prop_assert_eq!(on_stored(walked), on_stored(oracle_walked), "key {:?}", key);
        }
    }

    /// A leaf key of four three-level dimensions that no stored level
    /// answers: the breadth-first walk probes all 4⁴ = 256 lattice
    /// levels; the stored-level walk probes the key's own level, then
    /// each stored ancestor once, and nothing else.
    #[test]
    fn a_leaf_walk_probes_each_stored_ancestor_once() {
        let schema = ragged_schema(&vec![vec![0, 1, 2]; 4]);
        assert!((0..4).all(|d| schema.dim(d).max_level() == 3));
        let leaf: CellKey = vec![ConceptId(3); 4];
        let own = level_of_key(&leaf, &schema);
        assert_eq!(own, ItemLevel(vec![3; 4]));
        let stored: BTreeSet<ItemLevel> = (all_levels(&schema).into_iter())
            .filter(|l| l.0.iter().map(|&x| x as usize).sum::<usize>() % 3 == 1)
            .collect();
        let ((route, walked), (oracle, oracle_walked)) =
            both_walks(&schema, &leaf, &stored, |_| false);
        assert_eq!((route, oracle), (None, None));
        assert_eq!(oracle_walked.len(), 256);
        let ancestors: Vec<ItemLevel> = (walk_order(stored.iter().cloned()).into_iter())
            .filter(|l| l.is_coarser(&own))
            .collect();
        assert_eq!(walked[0], own);
        assert_eq!(walked[1..], ancestors[..]);
        assert_eq!(walked.len(), 1 + stored.len());
        // With the apex answering, both walks end there.
        let mut with_apex = stored.clone();
        with_apex.insert(ItemLevel::top(4));
        let ((route, _), (oracle, _)) =
            both_walks(&schema, &leaf, &with_apex, |l| *l == ItemLevel::top(4));
        assert_eq!(route, oracle);
        assert_eq!(
            route.expect("the apex answers").key,
            vec![ConceptId::ROOT; 4]
        );
    }

    #[test]
    fn slice_and_dice_are_sorted() {
        let schema = samples::paper_schema();
        let tennis = schema.dim(0).id_of("tennis").unwrap();
        let sandals = schema.dim(0).id_of("sandals").unwrap();
        let nike = schema.dim(1).id_of("nike").unwrap();
        let mut cuboid = Cuboid::default();
        // Insert in descending order; reads must come back ascending.
        let mut keys = vec![vec![tennis, nike], vec![sandals, nike]];
        keys.sort_unstable();
        keys.reverse();
        for k in &keys {
            cuboid.cells.insert(k.clone(), entry(1));
        }
        let got = slice_keys(&cuboid, 1, nike);
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(dice_keys(&cuboid, |_| true), want);
        assert_eq!(cuboid.stats(&want[0]).unwrap().support, 1);
    }
}

//! BUC-style bottom-up computation of the iceberg cube on the
//! path-independent dimensions (the first half of the paper's Cubing
//! baseline, Algorithm 2).
//!
//! The cube is walked from high abstraction levels to low ones — both
//! across dimensions and *within* each dimension's concept hierarchy — so
//! that Apriori-style pruning applies: an infrequent cell has no frequent
//! specialization. The measure of each cell is its transaction-id list,
//! exactly as Algorithm 2 prescribes (and exactly the I/O weakness the
//! paper attributes to this baseline).

use crate::item::{ItemDictionary, ItemId};
use crate::parallel::run_chunks_counted;
use flowcube_hier::{ConceptId, ItemLevel, Schema};
use flowcube_pathdb::PathDatabase;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One cell of the iceberg cube: a concept (at any hierarchy level) per
/// dimension, `None` meaning `*`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IcebergCell {
    pub values: Vec<Option<ConceptId>>,
    /// Transaction indexes (positions in the path database) aggregated in
    /// this cell.
    pub tids: Vec<u32>,
}

impl IcebergCell {
    pub fn count(&self) -> u64 {
        self.tids.len() as u64
    }

    /// The cell's dimension items in the mining dictionary (sorted); the
    /// apex cell maps to the empty set.
    pub fn dim_items(&self, dict: &ItemDictionary) -> Option<Vec<ItemId>> {
        let mut items = Vec::new();
        for (d, v) in self.values.iter().enumerate() {
            if let Some(c) = v {
                items.push(dict.lookup(crate::item::ItemKind::Dim {
                    dim: d as u8,
                    concept: *c,
                })?);
            }
        }
        items.sort_unstable();
        Some(items)
    }
}

/// Counters for the BUC pass.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucStats {
    /// Cells that met the iceberg condition.
    pub cells: u64,
    /// Candidate partitions examined (including infrequent ones).
    pub partitions_examined: u64,
    /// Total tid-list entries materialized across all output cells — the
    /// paper's I/O-cost proxy ("these lists were much larger than the
    /// path database itself").
    pub tidlist_items: u64,
    /// Subtree chunks whose worker panicked and were recomputed serially.
    pub chunk_retries: u64,
}

/// Compute the iceberg cells of `db`'s item dimensions with at least
/// `min_support` paths. Every combination of hierarchy levels is covered;
/// the apex (all-`*`) cell comes first, then each dimension's subtrees in
/// ascending concept order, each cell before its specializations.
///
/// `levels` (`None`: every level) lists the item levels whose cells are
/// emitted; a subtree under which no listed level lies is not partitioned
/// at all. The cells are then exactly the unrestricted run's cells at the
/// listed levels, in the same order.
///
/// Each (dimension, level-1 concept) group is an independent subtree;
/// the subtrees run on `threads(subtrees)` workers, one subtree per chunk
/// (`mining.buc.chunk`), and are concatenated in order, so the output is
/// the serial one at any thread count.
pub fn buc_iceberg(
    db: &PathDatabase,
    min_support: u64,
    levels: Option<&[ItemLevel]>,
    threads: impl Fn(usize) -> usize,
) -> (Vec<IcebergCell>, BucStats) {
    let n = db.len();
    if (n as u64) < min_support {
        return (Vec::new(), BucStats::default());
    }
    let columns = Columns::new(db);
    let walk = || Walk::new(&columns, db.schema(), min_support, levels);
    let all: Vec<u32> = (0..n as u32).collect();

    // Every tid partitioned once per dimension at level 1; each kept
    // group roots a subtree.
    let mut top = walk();
    let splits: Vec<Partition> = (0..db.schema().num_dims())
        .filter_map(|d| top.partition(d, 1, &all))
        .collect();
    let subtrees: Vec<(&Partition, usize)> = (splits.iter())
        .flat_map(|split| (0..split.groups.len()).map(move |g| (split, g)))
        .collect();
    let report = run_chunks_counted(
        "mining.buc.chunk",
        subtrees.len(),
        subtrees.len(),
        threads(subtrees.len()),
        |range| {
            let mut walk = walk();
            for &(split, g) in &subtrees[range] {
                walk.descend(split.dim, 1, split.groups[g].0, split.group(g));
            }
            walk.into_parts()
        },
    );

    let mut out: Vec<IcebergCell> = Vec::new();
    let mut stats = top.stats.clone();
    if top.emits() {
        stats.cells += 1;
        stats.tidlist_items += n as u64;
        out.push(IcebergCell {
            values: top.values.clone(),
            tids: all,
        });
    }
    // The tid lists outlive the pass, so they are allocated here, on the
    // calling thread: lists a worker allocated stay in its allocator
    // arena, which on `build_fig6` left peak RSS 20–25 MB higher.
    for (cells, tids, part) in report.results {
        let mut start = 0;
        for (values, end) in cells {
            out.push(IcebergCell {
                values,
                tids: tids[start..end].to_vec(),
            });
            start = end;
        }
        stats.cells += part.cells;
        stats.partitions_examined += part.partitions_examined;
        stats.tidlist_items += part.tidlist_items;
    }
    stats.chunk_retries = report.retried_chunks as u64;
    (out, stats)
}

/// Each record's ancestor on every (dimension, level ≥ 1), as dense
/// columns indexed by tid: `cols[d][level - 1][t]`.
struct Columns {
    cols: Vec<Vec<Vec<u32>>>,
}

impl Columns {
    /// One pass over the records; one `ancestor_at_level` per (tid,
    /// dimension, level).
    fn new(db: &PathDatabase) -> Self {
        let schema = db.schema();
        let mut cols: Vec<Vec<Vec<u32>>> = (schema.dims().iter())
            .map(|h| vec![Vec::with_capacity(db.len()); h.max_level() as usize])
            .collect();
        for record in db.records() {
            for (d, by_level) in cols.iter_mut().enumerate() {
                let h = schema.dim(d as u8);
                for (l, col) in by_level.iter_mut().enumerate() {
                    col.push(h.ancestor_at_level(record.dims[d], l as u8 + 1).0);
                }
            }
        }
        Columns { cols }
    }

    fn at(&self, dim: usize, level: u8) -> &[u32] {
        &self.cols[dim][level as usize - 1]
    }
}

/// One tid slice partitioned on (`dim`, `level`): the groups kept (not
/// clamped, at least δ paths), ascending by concept, as ranges of `tids`.
struct Partition {
    dim: usize,
    groups: Vec<(ConceptId, Range<usize>)>,
    tids: Vec<u32>,
}

impl Partition {
    fn group(&self, g: usize) -> &[u32] {
        &self.tids[self.groups[g].1.clone()]
    }
}

/// Stand-in for a bucket whose group is dropped, so the scatter skips it.
const DROPPED: u32 = u32::MAX;

/// A staged cell: its values, and the end of its tids in the stage.
type Staged = (Vec<Option<ConceptId>>, usize);

/// One descent through subtrees, from the apex or from the subtrees a
/// worker claims.
struct Walk<'a> {
    columns: &'a Columns,
    schema: &'a Schema,
    min_support: u64,
    levels: Option<&'a [ItemLevel]>,
    /// The concept and level fixed on each dimension (`None` and 0 on
    /// the ones still `*`).
    values: Vec<Option<ConceptId>>,
    at: Vec<u8>,
    /// One zeroed slot per concept of the largest hierarchy.
    counts: Vec<u32>,
    /// The cells emitted, their tids back to back in `tids`.
    cells: Vec<Staged>,
    tids: Vec<u32>,
    stats: BucStats,
}

impl<'a> Walk<'a> {
    fn new(
        columns: &'a Columns,
        schema: &'a Schema,
        min_support: u64,
        levels: Option<&'a [ItemLevel]>,
    ) -> Self {
        let dims = schema.num_dims();
        let buckets = schema.dims().iter().map(|h| h.len()).max().unwrap_or(0);
        Walk {
            columns,
            schema,
            min_support,
            levels,
            values: vec![None; dims],
            at: vec![0; dims],
            counts: vec![0; buckets],
            cells: Vec::new(),
            tids: Vec::new(),
            stats: BucStats::default(),
        }
    }

    fn into_parts(self) -> (Vec<Staged>, Vec<u32>, BucStats) {
        (self.cells, self.tids, self.stats)
    }

    /// Is the current level listed?
    fn emits(&self) -> bool {
        (self.levels).is_none_or(|ls| ls.iter().any(|l| l.0 == self.at))
    }

    /// Does a listed level lie at or below fixing `dim` at `level` here:
    /// equal on the dimensions before `dim`, `level` or deeper on `dim`?
    /// (A level of another arity lies nowhere.)
    fn reaches(&self, dim: usize, level: u8) -> bool {
        (self.levels).is_none_or(|ls| {
            (ls.iter()).any(|l| {
                l.dims() == self.at.len() && l.0[..dim] == self.at[..dim] && l.0[dim] >= level
            })
        })
    }

    /// Partition `tids` on (`dim`, `level`) by a stable counting sort
    /// over the hierarchy's concept ids, so every group stays ascending,
    /// and count the partitions examined. `None` when the hierarchy is
    /// shallower than `level` or no listed level lies below.
    fn partition(&mut self, dim: usize, level: u8, tids: &[u32]) -> Option<Partition> {
        let h = self.schema.dim(dim as u8);
        if level > h.max_level() || !self.reaches(dim, level) {
            return None;
        }
        let (col, counts) = (self.columns.at(dim, level), &mut self.counts);
        let mut keys: Vec<u32> = Vec::new();
        for &t in tids {
            let slot = &mut counts[col[t as usize] as usize];
            if *slot == 0 {
                keys.push(col[t as usize]);
            }
            *slot += 1;
        }
        keys.sort_unstable();
        self.stats.partitions_examined += keys.len() as u64;
        let mut groups: Vec<(ConceptId, Range<usize>)> = Vec::new();
        let mut start = 0usize;
        for &k in &keys {
            let (key, slot) = (ConceptId(k), &mut counts[k as usize]);
            let len = *slot as usize;
            // A value shallower than `level` (hierarchies may be ragged)
            // was already emitted at its own depth.
            if h.level_of(key) < level || (len as u64) < self.min_support {
                *slot = DROPPED;
                continue;
            }
            *slot = start as u32;
            groups.push((key, start..start + len));
            start += len;
        }
        let mut sorted = vec![0u32; start];
        if start > 0 {
            for &t in tids {
                let slot = &mut counts[col[t as usize] as usize];
                if *slot != DROPPED {
                    sorted[*slot as usize] = t;
                    *slot += 1;
                }
            }
        }
        for &k in &keys {
            counts[k as usize] = 0;
        }
        Some(Partition {
            dim,
            groups,
            tids: sorted,
        })
    }

    /// Fix `dim` at `key` (a kept group at `level`): emit the cell, then
    /// its specializations — deeper on `dim`, then each later dimension.
    fn descend(&mut self, dim: usize, level: u8, key: ConceptId, tids: &[u32]) {
        let saved = (self.values[dim], self.at[dim]);
        (self.values[dim], self.at[dim]) = (Some(key), level);
        if self.emits() {
            self.tids.extend_from_slice(tids);
            self.cells.push((self.values.clone(), self.tids.len()));
            self.stats.cells += 1;
            self.stats.tidlist_items += tids.len() as u64;
        }
        self.expand(dim, level + 1, tids);
        for d2 in dim + 1..self.schema.num_dims() {
            self.expand(d2, 1, tids);
        }
        (self.values[dim], self.at[dim]) = saved;
    }

    fn expand(&mut self, dim: usize, level: u8, tids: &[u32]) {
        let Some(split) = self.partition(dim, level, tids) else {
            return;
        };
        for (g, &(key, _)) in split.groups.iter().enumerate() {
            self.descend(dim, level, key, split.group(g));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_hier::{ConceptHierarchy, FxHashMap};
    use flowcube_pathdb::{samples, PathRecord, Stage};
    use proptest::prelude::*;

    /// The recursive hash-map BUC the columnar pass replaced, kept as it
    /// was: every iceberg cell of `db` with at least `min_support` paths,
    /// the apex first.
    fn oracle(db: &PathDatabase, min_support: u64) -> (Vec<IcebergCell>, BucStats) {
        let schema = db.schema();
        let n = db.len();
        let mut stats = BucStats::default();
        let mut out: Vec<IcebergCell> = Vec::new();
        let all: Vec<u32> = (0..n as u32).collect();
        let mut values: Vec<Option<ConceptId>> = vec![None; schema.num_dims()];
        if (n as u64) < min_support {
            return (out, stats);
        }
        out.push(IcebergCell {
            values: values.clone(),
            tids: all.clone(),
        });
        stats.cells += 1;
        stats.tidlist_items += n as u64;

        // Recursive expansion, dimensions left to right, levels top-down.
        #[allow(clippy::too_many_arguments)] // recursion carries the full build state
        fn expand(
            db: &PathDatabase,
            dim: usize,
            level: u8,
            tids: &[u32],
            values: &mut Vec<Option<ConceptId>>,
            min_support: u64,
            out: &mut Vec<IcebergCell>,
            stats: &mut BucStats,
        ) {
            let schema = db.schema();
            let h = schema.dim(dim as u8);
            if level > h.max_level() {
                return;
            }
            let mut groups: FxHashMap<ConceptId, Vec<u32>> = FxHashMap::default();
            for &t in tids {
                let v = db.records()[t as usize].dims[dim];
                let anc = h.ancestor_at_level(v, level);
                groups.entry(anc).or_default().push(t);
            }
            let mut keys: Vec<ConceptId> = groups.keys().copied().collect();
            keys.sort_unstable();
            let saved = values[dim];
            for key in keys {
                stats.partitions_examined += 1;
                // Skip clamped values (hierarchies may be ragged): a value
                // shallower than `level` was already emitted at its own depth.
                if h.level_of(key) < level {
                    continue;
                }
                let group = &groups[&key];
                if (group.len() as u64) < min_support {
                    continue;
                }
                values[dim] = Some(key);
                out.push(IcebergCell {
                    values: values.clone(),
                    tids: group.clone(),
                });
                stats.cells += 1;
                stats.tidlist_items += group.len() as u64;
                // Deeper level of the same dimension.
                expand(db, dim, level + 1, group, values, min_support, out, stats);
                // Remaining dimensions.
                for d2 in dim + 1..schema.num_dims() {
                    expand(db, d2, 1, group, values, min_support, out, stats);
                }
            }
            values[dim] = saved;
        }

        for d in 0..schema.num_dims() {
            expand(
                db,
                d,
                1,
                &all,
                &mut values,
                min_support,
                &mut out,
                &mut stats,
            );
        }
        (out, stats)
    }

    #[test]
    fn apex_always_first() {
        let db = samples::paper_table1();
        let (cells, _) = buc_iceberg(&db, 1, None, |_| 1);
        assert_eq!(cells[0].values, vec![None, None]);
        assert_eq!(cells[0].count(), 8);
    }

    #[test]
    fn paper_table2_cells_present() {
        // Table 2: (shoes, nike) = {1,2,3}, (shoes, adidas) = {7,8},
        // (outerwear, nike) = {4,5,6}.
        let db = samples::paper_table1();
        let schema = db.schema();
        let (cells, _) = buc_iceberg(&db, 2, None, |_| 1);
        let shoes = schema.dim(0).id_of("shoes").unwrap();
        let outer = schema.dim(0).id_of("outerwear").unwrap();
        let nike = schema.dim(1).id_of("nike").unwrap();
        let adidas = schema.dim(1).id_of("adidas").unwrap();
        let find = |v: Vec<Option<ConceptId>>| cells.iter().find(|c| c.values == v);
        let c = find(vec![Some(shoes), Some(nike)]).expect("shoes/nike cell");
        assert_eq!(c.tids, vec![0, 1, 2]); // records 1,2,3 (0-based)
        let c = find(vec![Some(shoes), Some(adidas)]).expect("shoes/adidas cell");
        assert_eq!(c.tids, vec![6, 7]);
        let c = find(vec![Some(outer), Some(nike)]).expect("outerwear/nike cell");
        assert_eq!(c.tids, vec![3, 4, 5]);
    }

    #[test]
    fn iceberg_condition_prunes() {
        let db = samples::paper_table1();
        let schema = db.schema();
        let shirt = schema.dim(0).id_of("shirt").unwrap();
        // (shirt, *) has a single path: pruned at min_support 2.
        let (cells, _) = buc_iceberg(&db, 2, None, |_| 1);
        assert!(!cells.iter().any(|c| c.values[0] == Some(shirt)));
        let (cells, _) = buc_iceberg(&db, 1, None, |_| 1);
        assert!(cells.iter().any(|c| c.values[0] == Some(shirt)));
    }

    #[test]
    fn no_duplicate_cells() {
        let db = samples::paper_table1();
        let (cells, _) = buc_iceberg(&db, 1, None, |_| 1);
        let mut seen = std::collections::HashSet::new();
        for c in &cells {
            assert!(seen.insert(c.values.clone()), "duplicate {:?}", c.values);
        }
    }

    #[test]
    fn counts_match_manual_grouping() {
        let db = samples::paper_table1();
        let schema = db.schema();
        let (cells, stats) = buc_iceberg(&db, 1, None, |_| 1);
        // (clothing, *) covers everything.
        let clothing = schema.dim(0).id_of("clothing").unwrap();
        let c = cells
            .iter()
            .find(|c| c.values == vec![Some(clothing), None])
            .unwrap();
        assert_eq!(c.count(), 8);
        // (*, athletic) covers everything too.
        let athletic = schema.dim(1).id_of("athletic").unwrap();
        let c = cells
            .iter()
            .find(|c| c.values == vec![None, Some(athletic)])
            .unwrap();
        assert_eq!(c.count(), 8);
        assert!(stats.tidlist_items >= 8 * 2);
        assert_eq!(stats.cells, cells.len() as u64);
    }

    #[test]
    fn empty_database() {
        let db = samples::paper_table1();
        let (schema, _) = db.into_parts();
        let db = flowcube_pathdb::PathDatabase::new(schema);
        let (cells, _) = buc_iceberg(&db, 1, None, |_| 1);
        assert!(cells.is_empty());
    }

    /// A database over ragged hierarchies: concept `i + 1` of dimension
    /// `d` hangs under `parents[d][i] % (i + 1)`, so leaves sit at mixed
    /// depths, and record `r` takes concept `values[r][d] % len` on `d` —
    /// interior concepts and `*` included.
    fn ragged_db(parents: &[Vec<u16>], values: &[Vec<u16>]) -> PathDatabase {
        let dims: Vec<ConceptHierarchy> = (parents.iter().enumerate())
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
        let site = loc.add_path(["g", "a"]).unwrap();
        let schema = Schema::new(dims, loc);
        let records = (values.iter().enumerate())
            .map(|(r, values)| {
                let dims = (0..schema.num_dims())
                    .map(|d| ConceptId(u32::from(values[d]) % schema.dim(d as u8).len() as u32))
                    .collect();
                PathRecord::new(r as u64, dims, vec![Stage::new(site, 1)])
            })
            .collect();
        PathDatabase::from_records(schema, records).unwrap()
    }

    fn level_of(schema: &Schema, cell: &IcebergCell) -> ItemLevel {
        ItemLevel(
            (cell.values.iter().enumerate())
                .map(|(d, v)| v.map_or(0, |c| schema.dim(d as u8).level_of(c)))
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The columnar pass is the recursive one: the same cells in the
        /// same order, the same tid lists and the same counters, at any
        /// thread count; under a level list it emits exactly the
        /// unrestricted run's cells at those levels.
        #[test]
        fn columnar_buc_matches_the_recursive_one(
            parents in prop::collection::vec(prop::collection::vec(0u16..1000, 0..10), 1..4),
            values in prop::collection::vec(prop::collection::vec(0u16..1000, 3), 0..60),
            delta in (0usize..3).prop_map(|i| [1u64, 2, 5][i]),
            threads in 1usize..=4,
            picks in prop::collection::vec(prop::collection::vec(0u8..100, 3), 0..4),
        ) {
            let db = ragged_db(&parents, &values);
            let schema = db.schema();
            let (want, want_stats) = oracle(&db, delta);
            let (got, got_stats) = buc_iceberg(&db, delta, None, |_| threads);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got_stats, want_stats);

            let max = schema.max_item_levels();
            let plan: Vec<ItemLevel> = (picks.iter())
                .map(|pick| ItemLevel((0..max.len()).map(|d| pick[d] % (max[d] + 1)).collect()))
                .collect();
            let (planned, _) = buc_iceberg(&db, delta, Some(&plan), |_| threads);
            let kept: Vec<IcebergCell> = (want.into_iter())
                .filter(|cell| plan.contains(&level_of(schema, cell)))
                .collect();
            prop_assert_eq!(planned, kept);
        }
    }
}

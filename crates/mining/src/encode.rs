//! Transformation of a path database into the transaction database the
//! mining algorithms run on (paper §5, Table 3).
//!
//! Each path record becomes one transaction containing:
//!
//! * its dimension values at **every** hierarchy level except the apex
//!   (the extended-transaction technique of multi-level association
//!   mining: an item contributes to the support of all its ancestors);
//! * its stage items at **every** materialized path abstraction level —
//!   the path is aggregated once per level and every stage position emits
//!   `(level, prefix, duration)`.
//!
//! Transactions are therefore closed under the ancestor relation of
//! [`ItemDictionary`]: counting a transaction counts all generalizations
//! simultaneously, which is what lets Shared mine every abstraction level
//! in one pass.

use crate::item::{DictContext, ItemDictionary, ItemId};
use flowcube_hier::{PathLatticeSpec, Schema};
use flowcube_pathdb::{aggregate_stages, MergePolicy, PathDatabase};
use serde::{Deserialize, Serialize};

/// The transformed transaction database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransactionDb {
    dict: ItemDictionary,
    /// Flattened, per-transaction-sorted item ids.
    items: Vec<ItemId>,
    /// `offsets[i]..offsets[i+1]` delimits transaction `i`.
    offsets: Vec<u32>,
    /// Original record ids, aligned with transactions.
    record_ids: Vec<u64>,
    schema: Schema,
    spec: PathLatticeSpec,
    merge: MergePolicy,
}

impl TransactionDb {
    /// Encode `db` at every level of `spec` (the single database scan of
    /// Algorithm 1, step 1).
    pub fn encode(db: &PathDatabase, spec: PathLatticeSpec, merge: MergePolicy) -> Self {
        let schema = db.schema().clone();
        let ctx = DictContext {
            schema: &schema,
            spec: &spec,
        };
        let mut dict = ItemDictionary::new(ctx);
        let mut items: Vec<ItemId> = Vec::new();
        let mut offsets: Vec<u32> = Vec::with_capacity(db.len() + 1);
        let mut record_ids: Vec<u64> = Vec::with_capacity(db.len());
        offsets.push(0);
        let mut scratch: Vec<ItemId> = Vec::new();
        let mut seq: Vec<flowcube_hier::ConceptId> = Vec::new();
        for record in db.records() {
            scratch.clear();
            // Dimension items: the value and all non-apex ancestors.
            for (d, &v) in record.dims.iter().enumerate() {
                if let Some(id) = dict.intern_dim(d as u8, v, ctx) {
                    scratch.push(id);
                    scratch.extend_from_slice(dict.ancestors(id));
                }
            }
            // Stage items at every path level.
            for lvl in 0..spec.len() as u16 {
                let level = spec.level(lvl);
                let Some(agg) = aggregate_stages(&record.stages, level, merge) else {
                    continue;
                };
                seq.clear();
                for stage in &agg {
                    seq.push(stage.loc);
                    let id = dict.intern_stage(lvl, &seq, stage.dur, ctx);
                    scratch.push(id);
                }
            }
            scratch.sort_unstable();
            scratch.dedup();
            items.extend_from_slice(&scratch);
            offsets.push(items.len() as u32);
            record_ids.push(record.id);
        }
        TransactionDb {
            dict,
            items,
            offsets,
            record_ids,
            schema,
            spec,
            merge,
        }
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.record_ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.record_ids.is_empty()
    }

    /// Items of transaction `i`, sorted ascending.
    #[inline]
    pub fn transaction(&self, i: usize) -> &[ItemId] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate all transactions.
    pub fn iter(&self) -> impl Iterator<Item = &[ItemId]> + '_ {
        (0..self.len()).map(move |i| self.transaction(i))
    }

    /// Original record id of transaction `i`.
    pub fn record_id(&self, i: usize) -> u64 {
        self.record_ids[i]
    }

    pub fn dict(&self) -> &ItemDictionary {
        &self.dict
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn spec(&self) -> &PathLatticeSpec {
        &self.spec
    }

    pub fn merge_policy(&self) -> MergePolicy {
        self.merge
    }

    /// Context handle for dictionary queries.
    pub fn ctx(&self) -> DictContext<'_> {
        DictContext {
            schema: &self.schema,
            spec: &self.spec,
        }
    }

    /// Render transaction `i` in the style of the paper's Table 3.
    pub fn display_transaction(&self, i: usize) -> String {
        let parts: Vec<String> = self
            .transaction(i)
            .iter()
            .map(|&id| self.dict.display(id, self.ctx()))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemKind;
    use flowcube_pathdb::samples;

    #[test]
    fn table3_base_level_items() {
        // Reproduce the paper's Table 3 row 1 at the base path level:
        // {121,211,(f,10),(fd,2),(fdt,1),(fdts,5),(fdtsc,0)} — our dim
        // codes keep the category digit, so 1121 / 21 style differs, but
        // the stage encoding matches exactly.
        let db = samples::paper_table1();
        let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
        let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
        assert_eq!(tx.len(), 8);
        let shown = tx.display_transaction(0);
        for expect in ["(f,10)", "(fd,2)", "(fdt,1)", "(fdts,5)", "(fdtsc,0)"] {
            assert!(shown.contains(expect), "{shown} missing {expect}");
        }
        // dim items: tennis = product(dim1): clothing→shoes→tennis = 1121
        assert!(shown.contains("1121"), "{shown}");
        // and its ancestors 112* (shoes), 11** (clothing)
        assert!(shown.contains("112*"), "{shown}");
        assert!(shown.contains("11**"), "{shown}");
    }

    #[test]
    fn transactions_are_ancestor_closed() {
        let db = samples::paper_table1();
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
        for t in tx.iter() {
            for &item in t {
                for &anc in tx.dict().ancestors(item) {
                    assert!(
                        t.binary_search(&anc).is_ok(),
                        "transaction missing ancestor of {item:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn transactions_sorted_and_deduped() {
        let db = samples::paper_table1();
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
        for t in tx.iter() {
            assert!(t.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn all_four_levels_emit_stage_items() {
        let db = samples::paper_table1();
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
        // Record 1 has 5 stages (f,d,t,s,c); at the coarse cut d,t merge
        // into transportation and s,c into store, leaving 3 stages.
        // fine/raw 5 + fine/* 5 + coarse/raw 3 + coarse/* 3 = 16 stage
        // items; plus dim items 3 (tennis chain) + 2 (nike chain).
        let t = tx.transaction(0);
        let stages = t.iter().filter(|&&i| tx.dict().kind(i).is_stage()).count();
        assert_eq!(stages, 16);
        let dims = t.iter().filter(|&&i| tx.dict().kind(i).is_dim()).count();
        assert_eq!(dims, 5);
    }

    #[test]
    fn record_ids_preserved() {
        let db = samples::paper_table1();
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
        let ids: Vec<u64> = (0..tx.len()).map(|i| tx.record_id(i)).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn support_of_coarse_item_counts_all_specializations() {
        // (f,*) at the fine/* level must appear in all 8 transactions.
        let db = samples::paper_table1();
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
        let f = db.schema().locations().id_of("factory").unwrap();
        let mut dict_prefixes = tx.dict().prefixes().clone();
        let p = dict_prefixes.intern(&[f]);
        let item = tx
            .dict()
            .lookup(ItemKind::Stage {
                level: 1,
                prefix: p,
                dur: None,
            })
            .expect("(f,*) must be interned");
        let support = tx.iter().filter(|t| t.binary_search(&item).is_ok()).count();
        assert_eq!(support, 8);
    }
}

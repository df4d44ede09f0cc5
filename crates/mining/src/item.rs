//! The encoded item vocabulary of the transformed transaction database
//! (paper §5, "Construction of a transaction database").
//!
//! Two kinds of items exist:
//!
//! * **Dimension items** `(dim, concept)` — a path-independent dimension
//!   value at any hierarchy level except the apex (the paper's `121`,
//!   `12*`, … codes). Apex items are never created (pruning rule 3: their
//!   support is always `|DB|`).
//! * **Stage items** `(path level, prefix, duration)` — a path stage
//!   encoded by the location prefix leading to it (the paper's `(fdt,1)`)
//!   at one of the materialized path abstraction levels.
//!
//! The [`ItemDictionary`] interns items to dense [`ItemId`]s and
//! precomputes, per item, its *ancestors* (items implied by it) — the
//! machinery behind shared multi-level counting, the item-plus-ancestor
//! candidate pruning, and the "unrelated stages" pruning.

use crate::prefix::{PrefixId, PrefixInterner};
use flowcube_hier::{ConceptId, DimId, DurValue, FxHashMap, PathLatticeSpec, PathLevelId, Schema};
use serde::{Deserialize, Serialize};

/// Dense identifier of an encoded item.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct ItemId(pub u32);

impl ItemId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What an [`ItemId`] denotes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ItemKind {
    /// A path-independent dimension value (never the apex).
    Dim { dim: DimId, concept: ConceptId },
    /// A path stage: the interned location prefix ending at this stage,
    /// at path abstraction level `level`, with `dur` aggregated to that
    /// level's duration level (`None` = `*`).
    Stage {
        level: PathLevelId,
        prefix: PrefixId,
        dur: DurValue,
    },
}

impl ItemKind {
    pub fn is_dim(&self) -> bool {
        matches!(self, ItemKind::Dim { .. })
    }

    pub fn is_stage(&self) -> bool {
        matches!(self, ItemKind::Stage { .. })
    }
}

/// Context needed to compute item ancestry.
#[derive(Copy, Clone)]
pub struct DictContext<'a> {
    pub schema: &'a Schema,
    pub spec: &'a PathLatticeSpec,
}

/// Interner and metadata store for encoded items.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ItemDictionary {
    kinds: Vec<ItemKind>,
    #[serde(skip)]
    by_kind: FxHashMap<ItemKind, ItemId>,
    /// Transitive ancestors (strict) of each item, deduped, sorted.
    ancestors: Vec<Box<[ItemId]>>,
    /// For stage items: `(coarser level, aggregated prefix)` pairs used by
    /// the cross-level linkability check.
    agg_prefixes: Vec<Box<[(PathLevelId, PrefixId)]>>,
    prefixes: PrefixInterner,
    /// Ids of coarser levels, copied from the spec at construction.
    coarser: Vec<Vec<PathLevelId>>,
}

impl ItemDictionary {
    pub fn new(ctx: DictContext<'_>) -> Self {
        let coarser = (0..ctx.spec.len() as PathLevelId)
            .map(|id| ctx.spec.coarser_than(id))
            .collect();
        ItemDictionary {
            kinds: Vec::new(),
            by_kind: FxHashMap::default(),
            ancestors: Vec::new(),
            agg_prefixes: Vec::new(),
            prefixes: PrefixInterner::new(),
            coarser,
        }
    }

    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    pub fn kind(&self, id: ItemId) -> ItemKind {
        self.kinds[id.index()]
    }

    /// Strict ancestors of `id` (all items whose support is a superset).
    pub fn ancestors(&self, id: ItemId) -> &[ItemId] {
        &self.ancestors[id.index()]
    }

    pub fn prefixes(&self) -> &PrefixInterner {
        &self.prefixes
    }

    pub fn lookup(&self, kind: ItemKind) -> Option<ItemId> {
        self.by_kind.get(&kind).copied()
    }

    fn insert(
        &mut self,
        kind: ItemKind,
        ancestors: Vec<ItemId>,
        agg: Vec<(PathLevelId, PrefixId)>,
    ) -> ItemId {
        let id = ItemId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.by_kind.insert(kind, id);
        let mut anc = ancestors;
        anc.sort_unstable();
        anc.dedup();
        self.ancestors.push(anc.into_boxed_slice());
        self.agg_prefixes.push(agg.into_boxed_slice());
        id
    }

    /// Intern a dimension value and its whole ancestry chain (apex
    /// excluded). Returns the item for `concept` itself; `None` if
    /// `concept` is the apex.
    pub fn intern_dim(
        &mut self,
        dim: DimId,
        concept: ConceptId,
        ctx: DictContext<'_>,
    ) -> Option<ItemId> {
        if concept == ConceptId::ROOT {
            return None;
        }
        let kind = ItemKind::Dim { dim, concept };
        if let Some(id) = self.by_kind.get(&kind) {
            return Some(*id);
        }
        // Intern the parent chain first; its ids are this item's ancestors.
        let parent = ctx.schema.dim(dim).parent_of(concept);
        let mut ancestors = Vec::new();
        if let Some(pid) = self.intern_dim(dim, parent, ctx) {
            ancestors.extend_from_slice(&self.ancestors[pid.index()]);
            ancestors.push(pid);
        }
        Some(self.insert(kind, ancestors, Vec::new()))
    }

    /// Aggregate a location sequence (already at `from`'s cut) to the cut
    /// of `to`, merging consecutive duplicates. Returns the merged
    /// sequence and whether the **tail** stage was merged with its
    /// predecessor (in which case a concrete duration does not carry
    /// over).
    fn aggregate_seq(
        seq: &[ConceptId],
        to: &flowcube_hier::PathLevel,
    ) -> Option<(Vec<ConceptId>, bool)> {
        let mut out: Vec<ConceptId> = Vec::with_capacity(seq.len());
        let mut tail_merged = false;
        for &loc in seq {
            let rep = to.cut.representative(loc)?;
            if out.last() == Some(&rep) {
                tail_merged = true;
            } else {
                out.push(rep);
                tail_merged = false;
            }
        }
        Some((out, tail_merged))
    }

    /// Intern a stage item given its location sequence at `level`'s cut
    /// and its duration (already aggregated to `level`'s duration level;
    /// `None` only at `*`-duration levels).
    ///
    /// For every path level coarser than `level` in the spec, the implied
    /// coarser item is interned as an ancestor: the aggregated prefix with
    /// the duration re-aggregated when the tail stage survives merging
    /// (the paper's `(fdts,10) ⇒ (fdts,*), (fTs,10), (fTs,*)` example), or
    /// only at `*`-duration targets when the tail merged (merged durations
    /// are path-dependent).
    pub fn intern_stage(
        &mut self,
        level: PathLevelId,
        seq: &[ConceptId],
        dur: DurValue,
        ctx: DictContext<'_>,
    ) -> ItemId {
        let prefix = self.prefixes.intern(seq);
        let kind = ItemKind::Stage { level, prefix, dur };
        if let Some(id) = self.by_kind.get(&kind) {
            return *id;
        }
        let mut ancestors = Vec::new();
        let mut agg = Vec::new();
        for &lvl in self.coarser[level as usize].clone().iter() {
            let target = ctx.spec.level(lvl).clone();
            let Some((agg_seq, tail_merged)) = Self::aggregate_seq(seq, &target) else {
                continue;
            };
            // Record the aggregated prefix for cross-level linkability.
            let ap = self.prefixes.intern(&agg_seq);
            agg.push((lvl, ap));
            // A concrete duration carries over to the coarser level only
            // when the tail stage provably stays a singleton merge group:
            // it did not merge backwards into its predecessor, and its
            // location is unchanged by the coarser cut (so no *later* fine
            // stage can merge into it either — consecutive fine stages
            // never repeat a location). Otherwise the coarse duration
            // depends on the rest of the path and only the `*`-duration
            // generalization is sound.
            let tail_intact = !tail_merged && agg_seq.last() == seq.last();
            let dur2 = match dur {
                None => None,
                Some(d) if tail_intact => target.duration.aggregate(d),
                Some(_) => match target.duration {
                    flowcube_hier::DurationLevel::Any => None,
                    _ => continue,
                },
            };
            let anc = self.intern_stage(lvl, &agg_seq, dur2, ctx);
            ancestors.extend_from_slice(&self.ancestors[anc.index()]);
            ancestors.push(anc);
        }
        self.insert(kind, ancestors, agg)
    }

    /// True iff `a` appears in `b`'s ancestor set or vice versa — the
    /// item-plus-ancestor candidate pruning (paper §5, citing Srikant &
    /// Agrawal): such a candidate's support equals the descendant's.
    pub fn is_ancestor_pair(&self, a: ItemId, b: ItemId) -> bool {
        self.ancestors[b.index()].binary_search(&a).is_ok()
            || self.ancestors[a.index()].binary_search(&b).is_ok()
    }

    /// Conservative co-occurrence test ("pruning of candidates containing
    /// two unrelated stages" plus the one-value-per-dimension rule).
    /// Returns `false` only when the pair provably cannot appear in one
    /// transaction.
    pub fn can_cooccur(&self, a: ItemId, b: ItemId) -> bool {
        match (self.kinds[a.index()], self.kinds[b.index()]) {
            (ItemKind::Dim { dim: da, .. }, ItemKind::Dim { dim: db, .. }) => {
                // One value per dimension unless related by ancestry.
                da != db || self.is_ancestor_pair(a, b)
            }
            (
                ItemKind::Stage {
                    level: la,
                    prefix: pa,
                    ..
                },
                ItemKind::Stage {
                    level: lb,
                    prefix: pb,
                    ..
                },
            ) => {
                if la == lb {
                    if pa == pb {
                        // Same level and same position but distinct items:
                        // two different durations at one stage — impossible.
                        false
                    } else {
                        self.prefixes.on_one_chain(pa, pb)
                    }
                } else {
                    // Cross-level: compare through the aggregated prefix
                    // when the levels are comparable; otherwise permit.
                    if let Some(&(_, ap)) =
                        self.agg_prefixes[a.index()].iter().find(|&&(l, _)| l == lb)
                    {
                        self.prefixes.on_one_chain(ap, pb)
                    } else if let Some(&(_, bp)) =
                        self.agg_prefixes[b.index()].iter().find(|&&(l, _)| l == la)
                    {
                        self.prefixes.on_one_chain(bp, pa)
                    } else {
                        true
                    }
                }
            }
            _ => true,
        }
    }

    /// Render an item for diagnostics and the paper-table example, e.g.
    /// `121`, `(fdt,1)`, `(fdts,*)`.
    pub fn display(&self, id: ItemId, ctx: DictContext<'_>) -> String {
        match self.kinds[id.index()] {
            ItemKind::Dim { dim, concept } => {
                let h = ctx.schema.dim(dim);
                let mut code = format!("{}", dim + 1);
                code.push_str(&h.digit_code(concept));
                for _ in h.level_of(concept)..h.max_level() {
                    code.push('*');
                }
                code
            }
            ItemKind::Stage { level, prefix, dur } => {
                let names: Vec<String> = self
                    .prefixes
                    .sequence(prefix)
                    .iter()
                    .map(|&c| {
                        let name = ctx.schema.locations().name_of(c);
                        name.chars().next().unwrap_or('?').to_string()
                    })
                    .collect();
                let dur_str = match dur {
                    Some(d) => d.to_string(),
                    None => "*".to_string(),
                };
                let lvl = if level == 0 {
                    String::new()
                } else {
                    format!("@{level}")
                };
                format!("({}{},{})", names.concat(), lvl, dur_str)
            }
        }
    }

    /// Rebuild lookup tables after deserialization.
    pub fn rebuild_index(&mut self) {
        self.by_kind = self
            .kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, ItemId(i as u32)))
            .collect();
        self.prefixes.rebuild_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_hier::{DurationLevel, LocationCut, PathLevel};
    use flowcube_pathdb::samples;

    fn setup() -> (Schema, PathLatticeSpec) {
        let schema = samples::paper_schema();
        let spec = PathLatticeSpec::paper(schema.locations(), 4);
        (schema, spec)
    }

    #[test]
    fn dim_items_and_ancestry() {
        let (schema, spec) = setup();
        let ctx = DictContext {
            schema: &schema,
            spec: &spec,
        };
        let mut dict = ItemDictionary::new(ctx);
        let jacket = schema.dim(0).id_of("jacket").unwrap();
        let id = dict.intern_dim(0, jacket, ctx).unwrap();
        // ancestors: outerwear, clothing (apex excluded)
        assert_eq!(dict.ancestors(id).len(), 2);
        // apex returns None
        assert!(dict.intern_dim(0, ConceptId::ROOT, ctx).is_none());
        // idempotent
        assert_eq!(dict.intern_dim(0, jacket, ctx), Some(id));
        // display in the paper's digit style: dim 1, clothing=1,
        // outerwear=1, jacket=2 → "1112" (we keep the category digit the
        // paper elides).
        assert_eq!(dict.display(id, ctx), "1112");
    }

    #[test]
    fn stage_items_generate_paper_ancestors() {
        // The paper's example: (fdts,10) supports (fdts,*), (fTs,10) and
        // (fTs,*) under the transportation view (d and t collapse to T,
        // shelf s stays). The shelf tail is unchanged by the coarser cut,
        // so the concrete duration carries over.
        let schema = samples::paper_schema();
        let loc = schema.locations();
        let fine = LocationCut::uniform_level(loc, 2);
        let transp = LocationCut::from_names(
            loc,
            [
                "transportation",
                "factory",
                "warehouse",
                "backroom",
                "shelf",
                "checkout",
            ],
        )
        .unwrap();
        let spec = PathLatticeSpec::new(vec![
            PathLevel::new("fine/raw", fine.clone(), DurationLevel::Raw),
            PathLevel::new("fine/*", fine, DurationLevel::Any),
            PathLevel::new("transp/raw", transp.clone(), DurationLevel::Raw),
            PathLevel::new("transp/*", transp, DurationLevel::Any),
        ]);
        let ctx = DictContext {
            schema: &schema,
            spec: &spec,
        };
        let mut dict = ItemDictionary::new(ctx);
        let l = |n: &str| loc.id_of(n).unwrap();
        let seq = [l("factory"), l("dist_center"), l("truck"), l("shelf")];
        let id = dict.intern_stage(0, &seq, Some(10), ctx);
        let anc_display: Vec<String> = dict
            .ancestors(id)
            .iter()
            .map(|&a| dict.display(a, ctx))
            .collect();
        // fine/* ; transp/raw (f T s, 10) ; transp/* (f T s, *)
        assert!(
            anc_display.contains(&"(fdts@1,*)".to_string()),
            "{anc_display:?}"
        );
        assert!(
            anc_display.contains(&"(fts@2,10)".to_string()),
            "{anc_display:?}"
        );
        assert!(
            anc_display.contains(&"(fts@3,*)".to_string()),
            "{anc_display:?}"
        );
        assert_eq!(dict.ancestors(id).len(), 3);
    }

    #[test]
    fn concrete_duration_not_carried_when_tail_aggregates() {
        // Under the uniform level-1 cut, shelf aggregates to store, so a
        // later checkout stage could merge into it: (fdts,10) must NOT
        // claim (f T store, 10) as an ancestor.
        let (schema, spec) = setup();
        let ctx = DictContext {
            schema: &schema,
            spec: &spec,
        };
        let mut dict = ItemDictionary::new(ctx);
        let loc = schema.locations();
        let l = |n: &str| loc.id_of(n).unwrap();
        let seq = [l("factory"), l("dist_center"), l("truck"), l("shelf")];
        let id = dict.intern_stage(0, &seq, Some(10), ctx);
        for &a in dict.ancestors(id) {
            if let ItemKind::Stage { level, dur, .. } = dict.kind(a) {
                if level >= 2 {
                    assert_eq!(dur, None, "coarse ancestor must be duration-*");
                }
            }
        }
        assert_eq!(dict.ancestors(id).len(), 2); // (fdts@1,*), (fts@3,*)
    }

    #[test]
    fn tail_merged_stage_has_no_concrete_coarse_ancestor() {
        // (fdt,1): d and t both aggregate to transportation → the coarse
        // tail is merged; only `*`-duration coarse ancestors exist.
        let (schema, spec) = setup();
        let ctx = DictContext {
            schema: &schema,
            spec: &spec,
        };
        let mut dict = ItemDictionary::new(ctx);
        let loc = schema.locations();
        let l = |n: &str| loc.id_of(n).unwrap();
        let seq = [l("factory"), l("dist_center"), l("truck")];
        let id = dict.intern_stage(0, &seq, Some(1), ctx);
        let anc: Vec<ItemKind> = dict.ancestors(id).iter().map(|&a| dict.kind(a)).collect();
        // No coarse-level ancestor with a concrete duration.
        for k in anc {
            if let ItemKind::Stage { level, dur, .. } = k {
                if level != 0 {
                    assert_eq!(dur, None, "coarse ancestor must be duration-*");
                }
            }
        }
    }

    #[test]
    fn cooccurrence_rules() {
        let (schema, spec) = setup();
        let ctx = DictContext {
            schema: &schema,
            spec: &spec,
        };
        let mut dict = ItemDictionary::new(ctx);
        let loc = schema.locations();
        let l = |n: &str| loc.id_of(n).unwrap();
        let f = [l("factory")];
        let fd = [l("factory"), l("dist_center")];
        let ft = [l("factory"), l("truck")];
        let fd2 = dict.intern_stage(0, &fd, Some(2), ctx);
        let fd1 = dict.intern_stage(0, &fd, Some(1), ctx);
        let fd_star = dict.intern_stage(1, &fd, None, ctx);
        let ft1 = dict.intern_stage(0, &ft, Some(1), ctx);
        let f10 = dict.intern_stage(0, &f, Some(10), ctx);
        // same prefix, two concrete durations: impossible
        assert!(!dict.can_cooccur(fd2, fd1));
        // concrete + its `*`-duration generalization (fine/* level):
        // possible, and recognized as an ancestor pair
        assert!(dict.can_cooccur(fd2, fd_star));
        assert!(dict.is_ancestor_pair(fd2, fd_star));
        // diverging prefixes: impossible (paper's (fd,2) vs (fts,5))
        assert!(!dict.can_cooccur(fd2, ft1));
        // chain prefixes: possible
        assert!(dict.can_cooccur(f10, fd2));
        // dim items: same dim unrelated values impossible
        let tennis = dict
            .intern_dim(0, schema.dim(0).id_of("tennis").unwrap(), ctx)
            .unwrap();
        let jacket = dict
            .intern_dim(0, schema.dim(0).id_of("jacket").unwrap(), ctx)
            .unwrap();
        let shoes = dict
            .intern_dim(0, schema.dim(0).id_of("shoes").unwrap(), ctx)
            .unwrap();
        let nike = dict
            .intern_dim(1, schema.dim(1).id_of("nike").unwrap(), ctx)
            .unwrap();
        assert!(!dict.can_cooccur(tennis, jacket));
        assert!(dict.can_cooccur(tennis, shoes)); // ancestor pair
        assert!(dict.can_cooccur(tennis, nike)); // different dims
        assert!(dict.can_cooccur(tennis, fd2)); // dim × stage
        assert!(dict.is_ancestor_pair(tennis, shoes));
        assert!(!dict.is_ancestor_pair(tennis, jacket));
    }

    #[test]
    fn cross_level_chain_check() {
        let (schema, spec) = setup();
        let ctx = DictContext {
            schema: &schema,
            spec: &spec,
        };
        let mut dict = ItemDictionary::new(ctx);
        let loc = schema.locations();
        let l = |n: &str| loc.id_of(n).unwrap();
        // fine (f d, 2) vs coarse (f T s, *): compatible (fd aggregates to
        // fT which is a prefix of fTs)
        let fd = dict.intern_stage(0, &[l("factory"), l("dist_center")], Some(2), ctx);
        let coarse_fts = dict.intern_stage(
            2,
            &[l("factory"), l("transportation"), l("store")],
            None,
            ctx,
        );
        assert!(dict.can_cooccur(fd, coarse_fts));
        // fine (f t ...) wait: coarse (s T f, *) reversed is impossible:
        let coarse_sf = dict.intern_stage(2, &[l("store"), l("factory")], None, ctx);
        assert!(!dict.can_cooccur(fd, coarse_sf));
    }
}

//! Property-based tests (proptest) over the core data structures and
//! algorithm invariants.

use flowcube::flowgraph::{CountDist, FlowGraph};
use flowcube::hier::{ConceptHierarchy, ConceptId, PathLatticeSpec, Schema};
use flowcube::mining::{mine_basic, mine_cubing, mine_shared, CubingConfig, TransactionDb};
use flowcube::pathdb::{aggregate_stages, AggStage, MergePolicy, PathDatabase, PathRecord, Stage};
use proptest::prelude::*;

/// A small fixed schema: 2 dims (2-level and 1-level), 2 location groups
/// of 3 leaves.
fn small_schema() -> Schema {
    let mut d0 = ConceptHierarchy::new("d0");
    for a in 0..2 {
        for b in 0..2 {
            d0.add_path([format!("a{a}"), format!("a{a}b{b}")]).unwrap();
        }
    }
    let mut d1 = ConceptHierarchy::new("d1");
    d1.add_path(["x"]).unwrap();
    d1.add_path(["y"]).unwrap();
    let mut loc = ConceptHierarchy::new("location");
    for g in 0..2 {
        for l in 0..3 {
            loc.add_path([format!("g{g}"), format!("g{g}l{l}")])
                .unwrap();
        }
    }
    Schema::new(vec![d0, d1], loc)
}

/// Strategy: a random path database over the small schema.
fn arb_db(max_records: usize) -> impl Strategy<Value = PathDatabase> {
    let schema = small_schema();
    let leaf_ids: Vec<ConceptId> = schema.locations().leaves().collect();
    let d0_leaves: Vec<ConceptId> = schema.dim(0).leaves().collect();
    let d1_leaves: Vec<ConceptId> = schema.dim(1).leaves().collect();
    let record = (
        0..d0_leaves.len(),
        0..d1_leaves.len(),
        prop::collection::vec((0..leaf_ids.len(), 0u32..6), 1..6),
    );
    prop::collection::vec(record, 1..=max_records).prop_map(move |rows| {
        let mut db = PathDatabase::new(small_schema());
        for (i, (a, b, stages)) in rows.into_iter().enumerate() {
            let mut prev = usize::MAX;
            let stages: Vec<Stage> = stages
                .into_iter()
                .filter(|&(l, _)| {
                    let keep = l != prev;
                    prev = l;
                    keep
                })
                .map(|(l, d)| Stage::new(leaf_ids[l], d))
                .collect();
            if stages.is_empty() {
                continue;
            }
            db.push(PathRecord::new(
                i as u64,
                vec![d0_leaves[a], d1_leaves[b]],
                stages,
            ))
            .unwrap();
        }
        if db.is_empty() {
            db.push(PathRecord::new(
                999,
                vec![d0_leaves[0], d1_leaves[0]],
                vec![Stage::new(leaf_ids[0], 1)],
            ))
            .unwrap();
        }
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sum-merging preserves total duration; aggregation never leaves
    /// consecutive duplicate locations.
    #[test]
    fn aggregation_preserves_total_duration(db in arb_db(12)) {
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        for r in db.records() {
            for lvl in [0u16, 2] {
                let level = spec.level(lvl);
                let agg = aggregate_stages(&r.stages, level, MergePolicy::Sum).unwrap();
                let before: u64 = r.stages.iter().map(|s| s.dur as u64).sum();
                let after: u64 = agg.iter().map(|s| s.dur.unwrap_or(0) as u64).sum();
                prop_assert_eq!(before, after);
                prop_assert!(agg.windows(2).all(|w| w[0].loc != w[1].loc));
                prop_assert!(!agg.is_empty());
            }
        }
    }

    /// Flowgraph conservation: for every node, child counts plus
    /// terminations equal the through-count, and the root count equals
    /// the number of inserted paths.
    #[test]
    fn flowgraph_conservation(db in arb_db(20)) {
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        let paths: Vec<Vec<AggStage>> = db
            .records()
            .iter()
            .map(|r| aggregate_stages(&r.stages, spec.level(0), MergePolicy::Sum).unwrap())
            .collect();
        let g = FlowGraph::build(paths.iter().map(|p| p.as_slice()));
        prop_assert_eq!(g.total_paths(), db.len() as u64);
        for n in g.node_ids() {
            let child_sum: u64 = g.children(n).iter().map(|&c| g.count(c)).sum();
            prop_assert_eq!(child_sum + g.terminate_count(n), g.count(n));
        }
    }

    /// Merging two disjoint halves equals building from the union,
    /// regardless of the split point.
    #[test]
    fn flowgraph_merge_equals_union(db in arb_db(16), split in 0usize..16) {
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        let paths: Vec<Vec<AggStage>> = db
            .records()
            .iter()
            .map(|r| aggregate_stages(&r.stages, spec.level(0), MergePolicy::Sum).unwrap())
            .collect();
        let k = split.min(paths.len());
        let full = FlowGraph::build(paths.iter().map(|p| p.as_slice()));
        let mut left = FlowGraph::build(paths[..k].iter().map(|p| p.as_slice()));
        let right = FlowGraph::build(paths[k..].iter().map(|p| p.as_slice()));
        left.merge(&right);
        let diff = flowcube::flowgraph::diff(&left, &full);
        prop_assert!(diff.is_empty(), "{:?}", diff.deltas);
    }

    /// Apriori anti-monotonicity: every subset of a frequent itemset is
    /// frequent with at least the same support.
    #[test]
    fn frequent_itemsets_are_downward_closed(db in arb_db(14)) {
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
        let delta = 2u64;
        let out = mine_shared(&tx, delta);
        use std::collections::HashMap;
        let map: HashMap<&[flowcube::mining::ItemId], u64> =
            out.itemsets.iter().map(|(s, c)| (&**s, *c)).collect();
        for (s, c) in &out.itemsets {
            prop_assert!(*c >= delta);
            if s.len() < 2 {
                continue;
            }
            for skip in 0..s.len() {
                let sub: Vec<_> = s
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, &x)| x)
                    .collect();
                // Subsets containing an item+ancestor pair are not listed
                // by Shared; find support via Basic-free reasoning: the
                // subset, if listed, has support ≥ c.
                if let Some(&sc) = map.get(&sub[..]) {
                    prop_assert!(sc >= *c);
                }
            }
        }
    }

    /// The three algorithms agree on every random database.
    #[test]
    fn algorithms_agree(db in arb_db(12)) {
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
        let delta = 2u64;
        let shared = mine_shared(&tx, delta);
        let cubing = mine_cubing(&db, &tx, &CubingConfig::pruned_in_memory(delta));
        let mut a: Vec<_> = shared.itemsets.clone();
        let mut b: Vec<_> = cubing.itemsets.clone();
        a.sort();
        b.sort();
        b.dedup();
        prop_assert_eq!(&a, &b);
        // Basic finds a superset; restricted to ancestor-free itemsets it
        // matches Shared exactly.
        // Generalized look-ahead pre-counting must not change output.
        let ahead = flowcube::mining::mine(
            &tx,
            &flowcube::mining::SharedConfig::shared_ahead(delta),
        );
        let mut a3: Vec<_> = ahead.itemsets.clone();
        a3.sort();
        prop_assert_eq!(&a, &a3);
        let basic = mine_basic(&tx, delta);
        let dict = tx.dict();
        let mut b2: Vec<_> = basic
            .itemsets
            .into_iter()
            .filter(|(s, _)| {
                s.iter().enumerate().all(|(i, &x)| {
                    s[i + 1..].iter().all(|&y| !dict.is_ancestor_pair(x, y))
                })
            })
            .collect();
        b2.sort();
        let mut a2 = shared.itemsets;
        a2.sort();
        prop_assert_eq!(a2, b2);
    }

    /// CountDist invariants: probabilities sum to 1, KL is non-negative,
    /// deviation is within [0, 1] and zero against itself.
    #[test]
    fn count_dist_invariants(counts in prop::collection::vec((0u32..5, 1u64..20), 1..8)) {
        let mut d = CountDist::new();
        for (k, c) in &counts {
            d.add_n(*k, *c);
        }
        let total: f64 = d.probabilities().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(d.kl_divergence(&d, 0.5) < 1e-9);
        prop_assert_eq!(d.max_deviation(&d), 0.0);
        let mut other = CountDist::new();
        other.add_n(0u32, 1);
        let dev = d.max_deviation(&other);
        prop_assert!((0.0..=1.0).contains(&dev));
        prop_assert!(d.kl_divergence(&other, 0.5) >= 0.0);
    }

    /// The text format round-trips any database over the small schema.
    #[test]
    fn text_format_roundtrip(db in arb_db(10)) {
        let text = flowcube::pathdb::io::to_text(&db);
        let back = flowcube::pathdb::io::parse_text(small_schema(), &text).unwrap();
        prop_assert_eq!(db.len(), back.len());
        for (a, b) in db.records().iter().zip(back.records()) {
            prop_assert_eq!(&a.dims, &b.dims);
            prop_assert_eq!(&a.stages, &b.stages);
        }
    }

    /// JSON serde round-trips any database (with index rebuild).
    #[test]
    fn db_serde_roundtrip(db in arb_db(8)) {
        let json = serde_json::to_string(&db).unwrap();
        let back: PathDatabase = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(db.records(), back.records());
    }

    /// Hierarchy ancestor queries are consistent with levels.
    #[test]
    fn hierarchy_ancestors(level in 0u8..4) {
        let schema = small_schema();
        let h = schema.dim(0);
        for leaf in h.leaves() {
            let anc = h.ancestor_at_level(leaf, level);
            prop_assert!(h.level_of(anc) <= level.max(h.level_of(leaf)));
            prop_assert!(h.is_ancestor_or_self(anc, leaf));
        }
    }

    /// Zipf: samples stay in range; more skew concentrates rank 0.
    #[test]
    fn zipf_sampling(n in 1usize..20, alpha in 0.0f64..3.0, seed in 0u64..1000) {
        use rand::SeedableRng;
        let z = flowcube::datagen::Zipf::new(n, alpha);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
        let p: f64 = (0..n).map(|i| z.probability(i)).sum();
        prop_assert!((p - 1.0).abs() < 1e-9);
        for i in 1..n {
            prop_assert!(z.probability(i) <= z.probability(i - 1) + 1e-12);
        }
    }
}

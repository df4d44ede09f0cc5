//! Edge-case integration tests for the mining crate.

use flowcube_fixtures::two_level_spec;
use flowcube_hier::{
    ConceptHierarchy, DurationLevel, LocationCut, PathLatticeSpec, PathLevel, Schema,
};
use flowcube_mining::{
    buc_iceberg, mine, mine_basic, mine_cubing, mine_shared, CubingConfig, SharedConfig,
    TransactionDb,
};
use flowcube_pathdb::{MergePolicy, PathDatabase, PathRecord, Stage};

fn one_record_db() -> PathDatabase {
    let mut d0 = ConceptHierarchy::new("d0");
    d0.add_path(["x", "x1"]).unwrap();
    let mut loc = ConceptHierarchy::new("location");
    loc.add_path(["g", "a"]).unwrap();
    loc.add_path(["g", "b"]).unwrap();
    let schema = Schema::new(vec![d0], loc);
    let x1 = schema.dim(0).id_of("x1").unwrap();
    let a = schema.locations().id_of("a").unwrap();
    let b = schema.locations().id_of("b").unwrap();
    let mut db = PathDatabase::new(schema);
    db.push(PathRecord::new(
        1,
        vec![x1],
        vec![Stage::new(a, 2), Stage::new(b, 3)],
    ))
    .unwrap();
    db
}

#[test]
fn single_record_database() {
    let db = one_record_db();
    let tx = TransactionDb::encode(&db, two_level_spec(&db), MergePolicy::Sum);
    assert_eq!(tx.len(), 1);
    let out = mine_shared(&tx, 1);
    // Every itemset of the single transaction without ancestor pairs is
    // frequent with support 1; at least the single items are there.
    assert!(out.stats.total_frequent() > 0);
    for (_, c) in &out.itemsets {
        assert_eq!(*c, 1);
    }
    // δ above the database size → nothing.
    let none = mine_shared(&tx, 2);
    assert!(none.itemsets.is_empty());
}

#[test]
fn empty_database() {
    let db = one_record_db();
    let (schema, _) = db.into_parts();
    let db = PathDatabase::new(schema);
    let tx = TransactionDb::encode(&db, two_level_spec(&db), MergePolicy::Sum);
    assert_eq!(tx.len(), 0);
    let out = mine_shared(&tx, 1);
    assert!(out.itemsets.is_empty());
    let (cells, _) = buc_iceberg(&db, 1, None, |_| 1);
    assert!(cells.is_empty());
    let cubing = mine_cubing(&db, &tx, &CubingConfig::new(1));
    assert!(cubing.itemsets.is_empty());
}

#[test]
fn max_len_caps_pattern_length() {
    let db = flowcube_pathdb::samples::paper_table1();
    let spec = {
        let loc = db.schema().locations();
        PathLatticeSpec::new(vec![PathLevel::new(
            "fine",
            LocationCut::uniform_level(loc, 2),
            DurationLevel::Raw,
        )])
    };
    let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
    let mut cfg = SharedConfig::basic(2);
    cfg.max_len = Some(3);
    let capped = mine(&tx, &cfg);
    assert!(capped.itemsets.iter().all(|(s, _)| s.len() <= 3));
    let uncapped = mine(&tx, &SharedConfig::basic(2));
    assert!(uncapped.itemsets.iter().any(|(s, _)| s.len() > 3));
    // Up to the cap, the outputs agree.
    let capped_set: Vec<_> = capped.itemsets.clone();
    let prefix: Vec<_> = uncapped
        .itemsets
        .iter()
        .filter(|(s, _)| s.len() <= 3)
        .cloned()
        .collect();
    let mut a = capped_set;
    let mut b = prefix;
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn precount_level_variants_do_not_change_output() {
    // The pre-count threshold is a pure optimization: any dim level must
    // give identical frequent itemsets.
    let db = flowcube_pathdb::samples::paper_table1();
    let spec = two_level_spec(&db);
    let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
    let baseline = mine_shared(&tx, 2);
    for level in [0u8, 1, 2, 3, 9] {
        let mut cfg = SharedConfig::shared(2);
        cfg.precount_dim_level = level;
        let out = mine(&tx, &cfg);
        let mut a = baseline.itemsets.clone();
        let mut b = out.itemsets.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "precount_dim_level={level}");
    }
}

#[test]
fn merge_policy_changes_coarse_supports_only_consistently() {
    // Different merge policies change coarse durations, but fine-level
    // patterns (no merging) must be identical.
    let db = flowcube_pathdb::samples::paper_table1();
    let spec = two_level_spec(&db);
    let outputs: Vec<_> = [MergePolicy::Sum, MergePolicy::Max, MergePolicy::First]
        .into_iter()
        .map(|mp| {
            let tx = TransactionDb::encode(&db, spec.clone(), mp);
            let out = mine_shared(&tx, 2);
            // project to displayable strings of fine-level-only itemsets
            let mut rows: Vec<(String, u64)> = out
                .itemsets
                .iter()
                .filter(|(s, _)| {
                    s.iter().all(|&i| match tx.dict().kind(i) {
                        flowcube_mining::ItemKind::Stage { level, .. } => level == 0,
                        flowcube_mining::ItemKind::Dim { .. } => true,
                    })
                })
                .map(|(s, c)| {
                    let parts: Vec<String> =
                        s.iter().map(|&i| tx.dict().display(i, tx.ctx())).collect();
                    (parts.join(","), *c)
                })
                .collect();
            rows.sort();
            rows
        })
        .collect();
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}

/// The paper database duplicated — 16 transactions, enough to clear the
/// parallel cutoff of 8 so a thread request is actually honored.
fn doubled_paper_db() -> PathDatabase {
    let db = flowcube_pathdb::samples::paper_table1();
    let mut out = flowcube_pathdb::samples::paper_table1();
    for r in db.records() {
        out.push(PathRecord::new(
            r.id + 100,
            r.dims.clone(),
            r.stages.clone(),
        ))
        .unwrap();
    }
    out
}

#[test]
fn parallel_mine_with_empty_chunks_is_bit_identical() {
    // 16 transactions over 7 workers → ceil(16/7)=3 per chunk, so the
    // last chunk is empty; its zeroed count vector must merge as a no-op.
    let db = doubled_paper_db();
    let tx = TransactionDb::encode(&db, two_level_spec(&db), MergePolicy::Sum);
    assert_eq!(tx.len(), 16);
    for config in [
        SharedConfig::shared(2),
        SharedConfig::shared_ahead(2),
        SharedConfig::basic(4),
    ] {
        let serial = mine(&tx, &config.clone().with_threads(1));
        for threads in [2usize, 7, 16] {
            let parallel = mine(&tx, &config.clone().with_threads(threads));
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }
}

#[test]
fn zero_min_support_equals_one() {
    // δ=0 is clamped to 1 (any itemset in the output must occur at least
    // once), for Shared and Cubing alike, at any thread count.
    let db = doubled_paper_db();
    let tx = TransactionDb::encode(&db, two_level_spec(&db), MergePolicy::Sum);
    let one = mine(&tx, &SharedConfig::shared(1));
    for threads in [1usize, 7] {
        let zero = mine(&tx, &SharedConfig::shared(0).with_threads(threads));
        assert_eq!(zero.itemsets, one.itemsets, "threads={threads}");
    }
    let cubing_one = mine_cubing(&db, &tx, &CubingConfig::pruned_in_memory(1));
    let cubing_zero = mine_cubing(&db, &tx, &CubingConfig::pruned_in_memory(0));
    assert_eq!(cubing_zero.itemsets, cubing_one.itemsets);
}

#[test]
fn min_support_above_db_is_empty_at_any_thread_count() {
    let db = doubled_paper_db();
    let tx = TransactionDb::encode(&db, two_level_spec(&db), MergePolicy::Sum);
    for threads in [1usize, 2, 7, 8] {
        let out = mine(&tx, &SharedConfig::shared(17).with_threads(threads));
        assert!(out.itemsets.is_empty(), "threads={threads}");
        // Exactly |D| still finds the universally-supported items.
        let all = mine(&tx, &SharedConfig::shared(16).with_threads(threads));
        assert!(all.itemsets.iter().all(|&(_, c)| c == 16));
        assert!(!all.itemsets.is_empty());
    }
}

#[test]
fn basic_superset_property_on_paper_data() {
    let db = flowcube_pathdb::samples::paper_table1();
    let spec = two_level_spec(&db);
    let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
    let shared = mine_shared(&tx, 2);
    let basic = mine_basic(&tx, 2);
    // Every Shared itemset appears in Basic with identical support.
    let basic_map: std::collections::HashMap<_, _> = basic
        .itemsets
        .iter()
        .map(|(s, c)| (s.clone(), *c))
        .collect();
    for (s, c) in &shared.itemsets {
        assert_eq!(basic_map.get(s), Some(c));
    }
    assert!(basic.itemsets.len() >= shared.itemsets.len());
}

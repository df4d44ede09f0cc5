//! Differential test harness for the parallel mining scans.
//!
//! The contract under test: `mine()` is **bit-identical** at any thread
//! count — same itemsets, same supports, same order, same stats — because
//! workers count disjoint transaction chunks into private vectors that
//! are merged in chunk order before the support filter. On top of that,
//! the algorithms are cross-checked against each other and against a
//! brute-force support oracle on proptest-generated path databases.

use flowcube::core::{level_of_key, CellKey, ItemPlan};
use flowcube::datagen::generate;
use flowcube::hier::{ConceptId, ItemLevel, PathLatticeSpec};
use flowcube::mining::{
    buc_iceberg, mine, mine_cubing, CubingConfig, FrequentItemsets, ItemId, ItemKind, SharedConfig,
    TransactionDb,
};
use flowcube::pathdb::{MergePolicy, PathDatabase};
use proptest::prelude::*;

use flowcube_fixtures::short_paths;

/// A generated path database plus its transaction encoding, sized so the
/// parallel cutoff (8 transactions) is always cleared.
fn encode_db(paths: usize, seed: u64) -> (PathDatabase, TransactionDb) {
    encode_levels(paths, seed, false)
}

/// [`encode_db`], optionally with the coarser location cut as well: two
/// concrete-duration path levels, so itemsets can mix levels.
fn encode_levels(paths: usize, seed: u64, two_cuts: bool) -> (PathDatabase, TransactionDb) {
    let db = generate(&short_paths(paths, seed)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), if two_cuts { 4 } else { 2 });
    let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
    (db, tx)
}

/// Is `itemset` in the family a flowcube stores — every stage item with
/// a concrete duration, all of one path level (any dimension items)?
fn in_cube_family(tx: &TransactionDb, itemset: &[ItemId]) -> bool {
    let mut level = None;
    itemset.iter().all(|&i| match tx.dict().kind(i) {
        ItemKind::Dim { .. } => true,
        ItemKind::Stage { level: l, dur, .. } => dur.is_some() && *level.get_or_insert(l) == l,
    })
}

/// `(cell key, support)` of the pure-dimension itemsets of a mining
/// output, the implicit apex included, sorted.
fn mined_cells(
    db: &PathDatabase,
    tx: &TransactionDb,
    out: &FrequentItemsets,
    delta: u64,
) -> Vec<(CellKey, u64)> {
    let dims = db.schema().num_dims();
    let mut cells: Vec<(CellKey, u64)> = out
        .frequent_cells(tx)
        .into_iter()
        .map(|(items, support)| {
            let mut key = vec![ConceptId::ROOT; dims];
            for item in items {
                let ItemKind::Dim { dim, concept } = tx.dict().kind(item) else {
                    unreachable!("frequent_cells returns dimension items only");
                };
                key[dim as usize] = concept;
            }
            (key, support)
        })
        .collect();
    if db.len() as u64 >= delta {
        cells.push((vec![ConceptId::ROOT; dims], db.len() as u64));
    }
    cells.sort();
    cells
}

/// Brute-force support oracle: count the transactions containing every
/// item of `itemset` by direct scan (transactions are sorted).
fn oracle_support(tx: &TransactionDb, itemset: &[ItemId]) -> u64 {
    tx.iter()
        .filter(|t| itemset.iter().all(|i| t.binary_search(i).is_ok()))
        .count() as u64
}

/// Project a mining output to (itemset, support) pairs, sorted + deduped
/// — the order- and duplicate-insensitive view for cross-algorithm
/// comparisons (Cubing may emit a pattern once per covering cell).
fn canonical(out: &FrequentItemsets) -> Vec<(Vec<ItemId>, u64)> {
    let mut rows: Vec<(Vec<ItemId>, u64)> =
        out.itemsets.iter().map(|(s, c)| (s.to_vec(), *c)).collect();
    rows.sort();
    rows.dedup();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The tentpole property: Shared, Shared+lookahead, and (capped)
    /// Basic return *identical* `FrequentItemsets` — including the stats
    /// shards merged from the workers — at every thread count.
    #[test]
    fn parallel_mine_is_bit_identical(paths in 30usize..120, seed in 0u64..1000) {
        let (_db, tx) = encode_db(paths, seed);
        let delta = (paths / 8).max(4) as u64;
        let basic_capped = {
            let mut c = SharedConfig::basic(delta);
            c.max_len = Some(3); // Basic's candidate set explodes uncapped
            c
        };
        for config in [SharedConfig::shared(delta), SharedConfig::shared_ahead(delta), basic_capped] {
            let serial = mine(&tx, &config.clone().with_threads(1));
            for threads in [2usize, 7, 8] {
                let parallel = mine(&tx, &config.clone().with_threads(threads));
                prop_assert_eq!(&serial, &parallel, "threads={}", threads);
            }
        }
    }

    /// Every reported support matches a brute-force recount, at a thread
    /// count chosen by the generator.
    #[test]
    fn supports_match_brute_force_oracle(
        paths in 30usize..100,
        seed in 0u64..1000,
        threads in 1usize..9,
    ) {
        let (_db, tx) = encode_db(paths, seed);
        let delta = (paths / 8).max(4) as u64;
        let out = mine(&tx, &SharedConfig::shared(delta).with_threads(threads));
        prop_assert!(!out.itemsets.is_empty());
        // Check a spread of itemsets (every 5th keeps the scan cheap while
        // still covering all lengths).
        for (s, c) in out.itemsets.iter().step_by(5) {
            prop_assert_eq!(oracle_support(&tx, s), *c, "itemset {:?}", s);
            prop_assert!(*c >= delta);
        }
    }

    /// Cross-algorithm agreement: every Shared itemset appears in Basic
    /// with identical support (Basic finds a superset — it skips the
    /// ancestor/unlinkable prunings), at mixed thread counts.
    #[test]
    fn shared_is_a_pruned_basic(paths in 30usize..80, seed in 0u64..1000) {
        let (_db, tx) = encode_db(paths, seed);
        let delta = (paths / 6).max(4) as u64;
        let mut shared_cfg = SharedConfig::shared(delta);
        shared_cfg.max_len = Some(3);
        let mut basic_cfg = SharedConfig::basic(delta);
        basic_cfg.max_len = Some(3);
        let shared = mine(&tx, &shared_cfg.with_threads(7));
        let basic = mine(&tx, &basic_cfg.with_threads(2));
        let basic_map: std::collections::HashMap<&[ItemId], u64> =
            basic.itemsets.iter().map(|(s, c)| (&**s, *c)).collect();
        for (s, c) in &shared.itemsets {
            prop_assert_eq!(basic_map.get(&**s), Some(c), "itemset {:?}", s);
        }
        prop_assert!(basic.itemsets.len() >= shared.itemsets.len());
    }

    /// The build's fifth rule loses nothing the cube reads: at every
    /// thread count the five-rule output is the four-rule output
    /// restricted to the family — same itemsets, same supports, same
    /// order — and it never counts more candidates.
    #[test]
    fn family_rule_is_shared_restricted_to_the_family(paths in 30usize..120, seed in 0u64..1000) {
        // One location cut (only `*`-duration items fall outside the
        // family), then two (itemsets can also mix path levels).
        for two_cuts in [false, true] {
            let (_db, tx) = encode_levels(paths, seed, two_cuts);
            let delta = (paths / 8).max(4) as u64;
            let four = mine(&tx, &SharedConfig::shared(delta).with_threads(1));
            let expected: Vec<_> = four
                .itemsets
                .iter()
                .filter(|(s, _)| in_cube_family(&tx, s))
                .cloned()
                .collect();
            prop_assert!(expected.len() < four.itemsets.len());
            let serial = mine(&tx, &SharedConfig::cube_family(delta).with_threads(1));
            prop_assert_eq!(&serial.itemsets, &expected);
            prop_assert!(serial.stats.total_counted() <= four.stats.total_counted());
            prop_assert!(serial.stats.pruned_family > 0);
            prop_assert_eq!(four.stats.pruned_family, 0);
            for threads in [2usize, 4] {
                let parallel = mine(&tx, &SharedConfig::cube_family(delta).with_threads(threads));
                prop_assert_eq!(&serial, &parallel, "threads={}", threads);
            }
        }
    }

    /// The build takes its cells from BUC and only its segments from
    /// mining: BUC's iceberg cells are exactly the pure-dimension
    /// frequent itemsets (plus the apex), with equal supports, whichever
    /// item levels a plan keeps.
    #[test]
    fn buc_cell_supports_match_shared(paths in 30usize..120, seed in 0u64..1000) {
        let (db, tx) = encode_db(paths, seed);
        let delta = (paths / 8).max(4) as u64;
        let (buc_cells, _) = buc_iceberg(&db, delta, None, |_| 2);
        let mut buc: Vec<(CellKey, u64)> = buc_cells
            .iter()
            .map(|c| {
                let key = c.values.iter().map(|v| v.unwrap_or(ConceptId::ROOT)).collect();
                (key, c.count())
            })
            .collect();
        buc.sort();
        prop_assert!(buc.len() > 1);
        let plans = [
            ItemPlan::All,
            ItemPlan::Selected(vec![ItemLevel(vec![1, 0]), ItemLevel(vec![2, 1])]),
            ItemPlan::Selected(vec![
                ItemLevel(vec![1, 0]),
                ItemLevel(vec![2, 2]),
                ItemLevel(vec![0, 1]),
            ]),
        ];
        for config in [SharedConfig::shared(delta), SharedConfig::cube_family(delta)] {
            let mined = mined_cells(&db, &tx, &mine(&tx, &config.with_threads(2)), delta);
            for plan in &plans {
                let kept = |cells: &[(CellKey, u64)]| -> Vec<(CellKey, u64)> {
                    cells
                        .iter()
                        .filter(|(key, _)| plan.includes(&level_of_key(key, db.schema())))
                        .cloned()
                        .collect()
                };
                prop_assert_eq!(kept(&buc), kept(&mined), "{:?}", plan);
            }
        }
    }
}

/// Shared and Cubing (modernized, duplicate-free config) find exactly the
/// same patterns with the same supports, with Cubing's per-cell scans at
/// a different thread count than Shared's global ones.
#[test]
fn shared_and_cubing_agree_across_thread_counts() {
    for (paths, seed) in [(40usize, 5u64), (48, 21)] {
        let (db, tx) = encode_db(paths, seed);
        let delta = (paths / 8).max(4) as u64;
        let shared = mine(&tx, &SharedConfig::shared(delta).with_threads(7));
        let cubing = mine_cubing(
            &db,
            &tx,
            &CubingConfig::pruned_in_memory(delta).with_threads(2),
        );
        assert_eq!(
            canonical(&shared),
            canonical(&cubing),
            "paths={paths} seed={seed}"
        );
    }
}

/// The parallel scans actually run on worker threads: with tracing on,
/// each worker records its chunk span under a fresh trace lane, so the
/// process-wide lane count grows past the main thread's.
#[test]
fn parallel_scan_workers_occupy_trace_lanes() {
    let (_db, tx) = encode_db(80, 9);
    flowcube::obs::reset();
    flowcube::obs::enable();
    let before = flowcube::obs::lane_count();
    let _ = mine(&tx, &SharedConfig::shared(8).with_threads(4));
    let after = flowcube::obs::lane_count();
    flowcube::obs::disable();
    flowcube::obs::reset();
    assert!(
        after >= before + 4,
        "expected ≥4 new worker lanes, lane count went {before} → {after}"
    );
}

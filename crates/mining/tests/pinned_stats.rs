//! Every `MiningStats` field, and a digest of every itemset and support,
//! pinned as literals for each algorithm configuration on one fixed
//! generated database, at one and at four threads.
//!
//! The literals were captured before support counting moved from a
//! candidate trie to per-item tid rows. Counting is arithmetic only: the
//! same candidates are generated, pruned and attributed in the same order,
//! so a moved literal means a candidate set or a support moved.

use flowcube_datagen::{generate, DimShape, GeneratorConfig};
use flowcube_hier::PathLatticeSpec;
use flowcube_mining::{
    mine, mine_cubing, CubingConfig, FrequentItemsets, MiningStats, SharedConfig, TransactionDb,
};
use flowcube_pathdb::{MergePolicy, PathDatabase};

const DELTA: u64 = 25;

/// Three dimensions, a dozen sequences, and the paper's four path levels:
/// two location cuts, durations as recorded and `*`.
fn fixture() -> (PathDatabase, TransactionDb) {
    let config = GeneratorConfig {
        num_paths: 700,
        dims: vec![DimShape::new(vec![3, 3, 4], 0.8); 3],
        num_sequences: 12,
        path_len: (3, 6),
        max_duration: 5,
        seed: 27,
        ..Default::default()
    };
    let db = generate(&config).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
    let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
    (db, tx)
}

/// FNV-1a over every itemset's length, items and support, in output
/// order.
fn digest(out: &FrequentItemsets) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (set, support) in &out.itemsets {
        eat(set.len() as u64);
        for item in set.iter() {
            eat(u64::from(item.0));
        }
        eat(*support);
    }
    h
}

fn check(name: &str, run: impl Fn(usize) -> FrequentItemsets, stats: MiningStats, hash: u64) {
    for threads in [1, 4] {
        let out = run(threads);
        assert_eq!(out.stats, stats, "{name} at {threads} threads");
        assert_eq!(
            digest(&out),
            hash,
            "{name} at {threads} threads: itemsets or supports moved ({} itemsets)",
            out.itemsets.len()
        );
    }
}

fn stats(
    counted: &[u64],
    frequent: &[u64],
    pruned: [u64; 5],
    scans: u64,
    cubing: [u64; 3],
    precounted_patterns: u64,
) -> MiningStats {
    let [pruned_subset, pruned_ancestor, pruned_unlinkable, pruned_precount, pruned_family] =
        pruned;
    let [cells_mined, tidlist_items, io_bytes_read] = cubing;
    MiningStats {
        counted_by_length: counted.to_vec(),
        frequent_by_length: frequent.to_vec(),
        pruned_subset,
        pruned_ancestor,
        pruned_unlinkable,
        pruned_precount,
        scans,
        cells_mined,
        tidlist_items,
        io_bytes_read,
        precounted_patterns,
        pruned_family,
    }
}

#[test]
fn shared_stats_are_pinned() {
    let (_, tx) = fixture();
    check(
        "shared",
        |t| mine(&tx, &SharedConfig::shared(DELTA).with_threads(t)),
        stats(
            &[434, 3790, 2919, 1245, 438, 70],
            &[145, 871, 1481, 1091, 431, 70],
            [10434, 1388, 7712, 15740, 0],
            6,
            [0; 3],
            0,
        ),
        0xf115bfe937015d48,
    );
}

#[test]
fn shared_ahead_stats_are_pinned() {
    let (_, tx) = fixture();
    check(
        "shared_ahead",
        |t| mine(&tx, &SharedConfig::shared_ahead(DELTA).with_threads(t)),
        stats(
            &[434, 3790, 2267, 1167, 431, 70],
            &[145, 871, 1481, 1091, 431, 70],
            [32281, 1388, 7712, 16477, 0],
            6,
            [0; 3],
            7017,
        ),
        0xf115bfe937015d48,
    );
}

#[test]
fn cube_family_stats_are_pinned() {
    let (_, tx) = fixture();
    check(
        "cube_family",
        |t| mine(&tx, &SharedConfig::cube_family(DELTA).with_threads(t)),
        stats(
            &[434, 2120, 459, 5],
            &[106, 245, 49, 1],
            [1170, 154, 1315, 2534, 817],
            4,
            [0; 3],
            0,
        ),
        0xc0b17df16d195e5d,
    );
}

#[test]
fn basic_stats_are_pinned() {
    let (_, tx) = fixture();
    check(
        "basic",
        |t| mine(&tx, &SharedConfig::basic(DELTA).with_threads(t)),
        stats(
            &[434, 10440, 4263, 4156, 3757, 2755, 1641, 729, 219, 39, 3],
            &[145, 1057, 2825, 4002, 3750, 2755, 1641, 729, 219, 39, 3],
            [79962, 0, 0, 0, 0],
            11,
            [0; 3],
            0,
        ),
        0x660149c6763cceb7,
    );
}

#[test]
fn cubing_stats_are_pinned() {
    let (db, tx) = fixture();
    check(
        "cubing",
        |t| mine_cubing(&db, &tx, &CubingConfig::new(DELTA).with_threads(t)),
        stats(
            &[31961, 8225, 2534, 2867, 2817, 2256, 1399, 634, 195, 36, 3],
            &[871, 1763, 2472, 2867, 2817, 2256, 1399, 634, 195, 36, 3],
            [29392, 0, 0, 0, 0],
            464,
            [201, 12526, 592736],
            0,
        ),
        0xf7f607ed01d6e7b7,
    );
}

#[test]
fn cubing_pruned_in_memory_stats_are_pinned() {
    let (db, tx) = fixture();
    check(
        "cubing_pruned_in_memory",
        |t| {
            mine_cubing(
                &db,
                &tx,
                &CubingConfig::pruned_in_memory(DELTA).with_threads(t),
            )
        },
        stats(
            &[31961, 4877, 1038, 607, 231, 34],
            &[871, 1170, 976, 607, 231, 34],
            [3150, 1303, 5268, 0, 0],
            391,
            [201, 12526, 0],
            0,
        ),
        0x6081d6615d6736b8,
    );
}

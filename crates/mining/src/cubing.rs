//! Algorithm 2 (**Cubing**) — the baseline that computes an iceberg cube
//! on the item dimensions and then mines frequent path segments
//! *independently per cell*.
//!
//! Its two structural weaknesses, per the paper, are (1) no pruning across
//! the path abstraction lattice — a globally infrequent stage is
//! re-generated and re-counted in every cell — and (2) the tid-list
//! measures it must materialize and re-read for every cell. Both are
//! deliberately reproduced (and measured in [`MiningStats`]).
//!
//! Inside a cell, the Apriori run counts its items in one pass over the
//! cell's transactions, sets the tid rows of the frequent ones (one bit
//! per transaction of the cell) in a second, and counts every longer
//! candidate on those rows, one counting pass per length.

use crate::apriori::{
    count_candidates, generate_candidates, Itemset, MiningStats, PruneHooks, PruneReason,
};
use crate::bitmap::{fill_rows, TidRows};
use crate::buc::buc_iceberg;
use crate::encode::TransactionDb;
use crate::item::ItemId;
use crate::parallel::{plan_threads, DEFAULT_PARALLEL_CUTOFF};
use crate::shared::FrequentItemsets;
use flowcube_hier::FxHashMap;
use flowcube_pathdb::PathDatabase;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// How Cubing accesses the tid-list measures and cell transactions.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum CubingIo {
    /// Keep everything in memory. A modern shortcut the 2006 setup did
    /// not have (1 GB RAM; tid lists "much larger than the path database
    /// itself") — with it, Cubing's per-cell locality can even win. Used
    /// by the ablation bench.
    InMemory,
    /// Faithful to Algorithm 2: tid lists and the transaction database
    /// are written to disk once; every cell re-reads its tid list and
    /// transactions ("cpi = read the transactions aggregated in the
    /// cell"). This charges Cubing the I/O the paper observed.
    Spill,
}

/// Configuration of a Cubing run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CubingConfig {
    /// δ — absolute minimum support, used both as the iceberg condition
    /// and as the per-cell segment support threshold.
    pub min_support: u64,
    /// Apply the generic single-scope prunings inside each per-cell
    /// Apriori run (item+ancestor, unlinkable stages). What Cubing can
    /// never do is prune *across* cells or pre-count — that asymmetry is
    /// the paper's point, not the local candidate hygiene.
    pub local_pruning: bool,
    pub io: CubingIo,
    /// Worker threads for each cell's candidate generation and counting
    /// passes (`0` = auto; see
    /// [`SharedConfig::threads`](crate::shared::SharedConfig)): generation
    /// plans from the cell's transaction count, a counting pass from its
    /// candidate count, and either runs serially at or below the parallel
    /// cutoff.
    #[serde(default)]
    pub threads: usize,
}

impl CubingConfig {
    /// The paper's configuration: BUC + **plain** Apriori per cell
    /// ("called Apriori \[3\] to mine frequent path segments in each
    /// cell"), tid lists and transactions re-read from disk.
    pub fn new(min_support: u64) -> Self {
        CubingConfig {
            min_support,
            local_pruning: false,
            io: CubingIo::Spill,
            threads: 0,
        }
    }

    /// Modernized ablation: per-cell Apriori with the local candidate
    /// prunings and no spill I/O.
    pub fn pruned_in_memory(min_support: u64) -> Self {
        CubingConfig {
            min_support,
            local_pruning: true,
            io: CubingIo::InMemory,
            threads: 0,
        }
    }

    /// Set the worker-thread knob (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// On-disk transaction store for [`CubingIo::Spill`]: the stage-only
/// transaction database flattened into one file, re-read cell by cell.
struct SpillStore {
    file: File,
    /// `(byte offset, item count)` per transaction.
    offsets: Vec<(u64, u32)>,
    path: PathBuf,
    bytes_read: u64,
}

impl SpillStore {
    fn create(transactions: &[Vec<ItemId>]) -> std::io::Result<Self> {
        let path = std::env::temp_dir().join(format!(
            "flowcube-spill-{}-{}.bin",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut writer = BufWriter::new(File::create(&path)?);
        let mut offsets = Vec::with_capacity(transactions.len());
        let mut offset = 0u64;
        for t in transactions {
            offsets.push((offset, t.len() as u32));
            for &item in t {
                writer.write_all(&item.0.to_le_bytes())?;
            }
            offset += 4 * t.len() as u64;
        }
        writer.flush()?;
        drop(writer);
        let file = File::open(&path)?;
        Ok(SpillStore {
            file,
            offsets,
            path,
            bytes_read: 0,
        })
    }

    /// Read the transactions of one cell back from disk (Algorithm 2,
    /// step 5).
    fn read_cell(&mut self, tids: &[u32]) -> std::io::Result<Vec<Vec<ItemId>>> {
        let mut out = Vec::with_capacity(tids.len());
        let mut buf: Vec<u8> = Vec::new();
        for &t in tids {
            let (offset, len) = self.offsets[t as usize];
            buf.resize(4 * len as usize, 0);
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.read_exact(&mut buf)?;
            self.bytes_read += buf.len() as u64;
            out.push(
                buf.chunks_exact(4)
                    .map(|c| ItemId(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
                    .collect(),
            );
        }
        Ok(out)
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Run Algorithm 2: BUC iceberg cube over the item dimensions of `db`,
/// then Apriori over the stage items of each frequent cell.
///
/// `tx` must be the encoding of the same `db` (transaction `i` ↔ record
/// `i`); it provides the stage vocabulary shared with the other
/// algorithms so that outputs are directly comparable.
pub fn mine_cubing(
    db: &PathDatabase,
    tx: &TransactionDb,
    config: &CubingConfig,
) -> FrequentItemsets {
    assert_eq!(db.len(), tx.len(), "tx must encode db");
    let _mine_span = flowcube_obs::span!(
        "mining.cubing",
        min_support = config.min_support,
        transactions = tx.len(),
    );
    let dict = tx.dict();
    // δ=0 would make every itemset "frequent"; 1 yields the same output.
    let delta = config.min_support.max(1);
    let mut stats = MiningStats::default();

    // Step 3 of Algorithm 2: iceberg cube with tid-list measures.
    let (cells, buc_stats) = buc_iceberg(db, delta, None, |subtrees| {
        plan_threads(config.threads, subtrees, DEFAULT_PARALLEL_CUTOFF)
    });
    stats.tidlist_items = buc_stats.tidlist_items;

    // Precompute stage-only projections of all transactions once; reading
    // them per cell is charged below.
    let stage_only: Vec<Vec<ItemId>> = (0..tx.len())
        .map(|i| {
            tx.transaction(i)
                .iter()
                .copied()
                .filter(|&it| dict.kind(it).is_stage())
                .collect()
        })
        .collect();

    // Faithful Algorithm 2 I/O: persist the (stage-only) transaction
    // database once; every cell re-reads its transactions from disk.
    let mut spill = match config.io {
        CubingIo::Spill => {
            Some(SpillStore::create(&stage_only).expect("spill store for cubing tid lists"))
        }
        CubingIo::InMemory => None,
    };

    let mut out: Vec<(Itemset, u64)> = Vec::new();
    for cell in &cells {
        stats.cells_mined += 1;
        let Some(cell_items) = cell.dim_items(dict) else {
            continue;
        };
        // Step 5: read the transactions aggregated in the cell.
        let spilled: Vec<Vec<ItemId>>;
        let cell_tx: Vec<&[ItemId]> = match &mut spill {
            Some(store) => {
                spilled = store
                    .read_cell(&cell.tids)
                    .expect("read cell transactions from spill store");
                spilled.iter().map(|t| t.as_slice()).collect()
            }
            None => cell
                .tids
                .iter()
                .map(|&t| stage_only[t as usize].as_slice())
                .collect(),
        };
        let cell_threads = plan_threads(config.threads, cell_tx.len(), DEFAULT_PARALLEL_CUTOFF);

        // Record the cell itself as a frequent pattern (Shared reports
        // frequent cells the same way; the apex cell is implicit).
        if !cell_items.is_empty() {
            out.push((
                cell_items.clone().into_boxed_slice(),
                cell.tids.len() as u64,
            ));
        }

        // Step 6: frequent path segments within the cell.
        let mut counts: FxHashMap<ItemId, u64> = FxHashMap::default();
        for t in &cell_tx {
            for &i in *t {
                *counts.entry(i).or_insert(0) += 1;
            }
        }
        stats.scans += 1;
        MiningStats::bump(&mut stats.counted_by_length, 1, counts.len() as u64);
        let mut prev: Vec<Itemset> = counts
            .iter()
            .filter(|&(_, &c)| c >= delta)
            .map(|(&i, _)| vec![i].into_boxed_slice())
            .collect();
        prev.sort();
        MiningStats::bump(&mut stats.frequent_by_length, 1, prev.len() as u64);
        for s in &prev {
            push_pattern(&mut out, &cell_items, s, counts[&s[0]]);
        }
        let mut rows = TidRows::new(
            cell_tx.len(),
            prev.iter().map(|s| s[0]).collect(),
            dict.len(),
            |i| i,
        );
        fill_rows(cell_tx.iter().copied(), &mut [&mut rows]);
        let mut k = 2;
        while !prev.is_empty() {
            let pair_ok = |a: ItemId, b: ItemId| -> (bool, PruneReason) {
                if !config.local_pruning {
                    return (true, PruneReason::None);
                }
                if dict.is_ancestor_pair(a, b) {
                    (false, PruneReason::Ancestor)
                } else if !dict.can_cooccur(a, b) {
                    (false, PruneReason::Unlinkable)
                } else {
                    (true, PruneReason::None)
                }
            };
            let hooks = PruneHooks {
                pair_ok: Some(&pair_ok),
                candidate_ok: None,
                subsets: true,
            };
            let candidates = generate_candidates(&prev, k, &hooks, &mut stats, cell_threads);
            if candidates.is_empty() {
                break;
            }
            let supports = count_candidates(&candidates, k, &rows, config.threads, &mut stats);
            let mut next: Vec<Itemset> = Vec::new();
            for (cand, support) in candidates.into_iter().zip(supports) {
                if support >= delta {
                    push_pattern(&mut out, &cell_items, &cand, support);
                    next.push(cand);
                }
            }
            MiningStats::bump(&mut stats.frequent_by_length, k, next.len() as u64);
            prev = next;
            k += 1;
        }
    }

    if let Some(store) = &spill {
        stats.io_bytes_read = store.bytes_read;
    }

    FrequentItemsets {
        itemsets: out,
        stats,
    }
}

/// Combine a cell's dimension items with a stage segment into one sorted
/// itemset.
fn push_pattern(
    out: &mut Vec<(Itemset, u64)>,
    cell_items: &[ItemId],
    segment: &[ItemId],
    support: u64,
) {
    let mut full: Vec<ItemId> = Vec::with_capacity(cell_items.len() + segment.len());
    full.extend_from_slice(cell_items);
    full.extend_from_slice(segment);
    full.sort_unstable();
    out.push((full.into_boxed_slice(), support));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::{mine_shared, SharedConfig};
    use flowcube_hier::PathLatticeSpec;
    use flowcube_pathdb::{samples, MergePolicy};

    fn setup() -> (PathDatabase, TransactionDb) {
        let db = samples::paper_table1();
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
        (db, tx)
    }

    /// The central cross-validation: Shared and Cubing must find exactly
    /// the same frequent patterns with the same supports.
    #[test]
    fn cubing_matches_shared_output() {
        let (db, tx) = setup();
        for delta in [2u64, 3, 4] {
            let shared = crate::shared::mine(&tx, &SharedConfig::shared(delta));
            let cubing = mine_cubing(&db, &tx, &CubingConfig::pruned_in_memory(delta));
            let mut a: Vec<_> = shared
                .itemsets
                .iter()
                .map(|(s, c)| (s.clone(), *c))
                .collect();
            let mut b: Vec<_> = cubing
                .itemsets
                .iter()
                .map(|(s, c)| (s.clone(), *c))
                .collect();
            a.sort();
            a.dedup();
            b.sort();
            b.dedup();
            assert_eq!(a, b, "mismatch at δ={delta}");
        }
    }

    #[test]
    fn cubing_tracks_tidlist_cost() {
        let (db, tx) = setup();
        let out = mine_cubing(&db, &tx, &CubingConfig::new(2));
        assert!(out.stats.tidlist_items > db.len() as u64);
        assert!(out.stats.cells_mined > 1);
        // Cubing re-scans per cell: far more scans than Shared's
        // level-wise passes.
        let shared = mine_shared(&tx, 2);
        assert!(out.stats.scans > shared.stats.scans);
    }

    #[test]
    fn spill_and_memory_give_identical_output() {
        let (db, tx) = setup();
        for local_pruning in [true, false] {
            let spill = mine_cubing(
                &db,
                &tx,
                &CubingConfig {
                    min_support: 2,
                    local_pruning,
                    io: CubingIo::Spill,
                    threads: 0,
                },
            );
            let mem = mine_cubing(
                &db,
                &tx,
                &CubingConfig {
                    min_support: 2,
                    local_pruning,
                    io: CubingIo::InMemory,
                    threads: 0,
                },
            );
            assert_eq!(spill.itemsets, mem.itemsets);
            assert!(spill.stats.io_bytes_read > 0);
            assert_eq!(mem.stats.io_bytes_read, 0);
        }
    }

    #[test]
    fn without_local_pruning_supports_still_match() {
        let (db, tx) = setup();
        let pruned = mine_cubing(&db, &tx, &CubingConfig::pruned_in_memory(3));
        let raw = mine_cubing(
            &db,
            &tx,
            &CubingConfig {
                min_support: 3,
                local_pruning: false,
                io: CubingIo::InMemory,
                threads: 0,
            },
        );
        // raw finds a superset (item+ancestor combos); every pruned
        // pattern appears in raw with identical support.
        let raw_map: FxHashMap<&[ItemId], u64> =
            raw.itemsets.iter().map(|(s, c)| (&**s, *c)).collect();
        for (s, c) in &pruned.itemsets {
            assert_eq!(raw_map.get(&**s), Some(c));
        }
        assert!(raw.itemsets.len() >= pruned.itemsets.len());
    }
}

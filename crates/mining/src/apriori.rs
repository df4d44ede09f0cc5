//! Core Apriori machinery shared by the `Shared`, `Basic`, and `Cubing`
//! algorithms: candidate generation with pluggable pruning, and one
//! counting pass per pattern length on the vertical bitmap (per-item tid
//! rows, AND + popcount).

use crate::bitmap::TidRows;
use crate::item::ItemId;
use flowcube_hier::FxHashSet;
use serde::{Deserialize, Serialize};

/// An itemset: item ids sorted ascending.
pub type Itemset = Box<[ItemId]>;

/// Counters describing one mining run; the source of Figure 11.
///
/// Derives `PartialEq` so the differential tests can assert that parallel
/// runs reproduce the serial counters exactly, prune attribution included.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiningStats {
    /// Candidates whose support was actually counted, per pattern length
    /// (index 0 = length 1).
    pub counted_by_length: Vec<u64>,
    /// Frequent patterns found, per pattern length.
    pub frequent_by_length: Vec<u64>,
    /// Candidates discarded by the classic all-subsets-frequent check.
    pub pruned_subset: u64,
    /// Candidates discarded because they contain an item and one of its
    /// ancestors.
    pub pruned_ancestor: u64,
    /// Candidates discarded because two members can provably not co-occur
    /// (unrelated stages / two values of one dimension).
    pub pruned_unlinkable: u64,
    /// Candidates discarded thanks to pre-counted high-level patterns.
    pub pruned_precount: u64,
    /// Counting passes: one counting pass per pattern length (per cell,
    /// for Cubing).
    pub scans: u64,
    /// Cells mined (Cubing only).
    pub cells_mined: u64,
    /// Transaction-id-list items materialized as cell measures (Cubing
    /// only) — the paper's I/O-cost proxy.
    pub tidlist_items: u64,
    /// Bytes re-read from the spilled transaction store (Cubing's
    /// per-cell measure reads).
    pub io_bytes_read: u64,
    /// High-level look-ahead patterns counted (generalized pre-counting).
    pub precounted_patterns: u64,
    /// Candidates discarded by the build's family rule
    /// ([`crate::SharedConfig::cube_family`]): frequent `*`-duration
    /// stage items kept out of the level-wise loop, and joins of two
    /// stage items from different path levels. Never serialized — the
    /// snapshot writes these stats with field names, so a sixth counter
    /// on the wire would change every snapshot's bytes.
    #[serde(skip)]
    pub pruned_family: u64,
}

impl MiningStats {
    pub(crate) fn bump(vec: &mut Vec<u64>, len: usize, by: u64) {
        if vec.len() < len {
            vec.resize(len, 0);
        }
        vec[len - 1] += by;
    }

    /// Total counted candidates across lengths.
    pub fn total_counted(&self) -> u64 {
        self.counted_by_length.iter().sum()
    }

    /// Total frequent patterns across lengths.
    pub fn total_frequent(&self) -> u64 {
        self.frequent_by_length.iter().sum()
    }

    /// Longest counted candidate length.
    pub fn max_length(&self) -> usize {
        self.counted_by_length.len()
    }

    /// Publish this run's counters into the `flowcube-obs` metrics
    /// registry under `prefix` (e.g. `mining.shared`), one counter per
    /// pattern length plus the prune-rule and I/O totals. Callers pick the
    /// prefix because only they know which algorithm ran. No-op while
    /// recording is disabled.
    pub fn publish(&self, prefix: &str) {
        if !flowcube_obs::is_enabled() {
            return;
        }
        for (i, &n) in self.counted_by_length.iter().enumerate() {
            flowcube_obs::counter_add(&format!("{prefix}.candidates.len{}", i + 1), n);
        }
        for (i, &n) in self.frequent_by_length.iter().enumerate() {
            flowcube_obs::counter_add(&format!("{prefix}.frequent.len{}", i + 1), n);
        }
        flowcube_obs::counter_add(&format!("{prefix}.pruned.subset"), self.pruned_subset);
        flowcube_obs::counter_add(&format!("{prefix}.pruned.ancestor"), self.pruned_ancestor);
        flowcube_obs::counter_add(
            &format!("{prefix}.pruned.unlinkable"),
            self.pruned_unlinkable,
        );
        flowcube_obs::counter_add(&format!("{prefix}.pruned.precount"), self.pruned_precount);
        flowcube_obs::counter_add(&format!("{prefix}.pruned.family"), self.pruned_family);
        flowcube_obs::counter_add(&format!("{prefix}.scans"), self.scans);
        flowcube_obs::counter_add(&format!("{prefix}.cells_mined"), self.cells_mined);
        flowcube_obs::counter_add(&format!("{prefix}.tidlist_items"), self.tidlist_items);
        flowcube_obs::counter_add(&format!("{prefix}.io_bytes_read"), self.io_bytes_read);
        flowcube_obs::counter_add(
            &format!("{prefix}.precounted_patterns"),
            self.precounted_patterns,
        );
    }

    /// Fold another run's counters into this one.
    pub fn absorb(&mut self, other: &MiningStats) {
        for (i, &v) in other.counted_by_length.iter().enumerate() {
            Self::bump(&mut self.counted_by_length, i + 1, v);
        }
        for (i, &v) in other.frequent_by_length.iter().enumerate() {
            Self::bump(&mut self.frequent_by_length, i + 1, v);
        }
        self.pruned_subset += other.pruned_subset;
        self.pruned_ancestor += other.pruned_ancestor;
        self.pruned_unlinkable += other.pruned_unlinkable;
        self.pruned_precount += other.pruned_precount;
        self.pruned_family += other.pruned_family;
        self.scans += other.scans;
        self.cells_mined += other.cells_mined;
        self.tidlist_items += other.tidlist_items;
        self.io_bytes_read += other.io_bytes_read;
        self.precounted_patterns += other.precounted_patterns;
    }
}

/// Pairwise pruning predicate: checks the two items that differ between
/// the joined parents. `Sync` because candidate generation shards its
/// prefix groups across worker threads.
pub type PairHook<'a> = &'a (dyn Fn(ItemId, ItemId) -> (bool, PruneReason) + Sync);
/// Whole-candidate pruning predicate, applied after the subset check.
pub type CandidateHook<'a> = &'a (dyn Fn(&[ItemId]) -> (bool, PruneReason) + Sync);

/// Hooks applied while generating `C_k` from `L_{k-1}`.
pub struct PruneHooks<'a> {
    /// Pairwise test on the two items that differ between the joined
    /// parents; return `false` to discard the candidate.
    pub pair_ok: Option<PairHook<'a>>,
    /// Whole-candidate test applied after the subset check.
    pub candidate_ok: Option<CandidateHook<'a>>,
    /// Classic all-(k-1)-subsets-frequent check.
    pub subsets: bool,
}

/// Which rule discarded a candidate (for stats attribution).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PruneReason {
    None,
    Ancestor,
    Unlinkable,
    Precount,
    Family,
}

impl Default for PruneHooks<'_> {
    fn default() -> Self {
        PruneHooks {
            pair_ok: None,
            candidate_ok: None,
            subsets: true,
        }
    }
}

/// Minimum number of join pairs before candidate generation shards its
/// work across threads — below this, the join is cheaper than a spawn.
const GEN_PARALLEL_CUTOFF: usize = 512;

/// Attribute a hook rejection to its prune counter.
fn charge_prune(stats: &mut MiningStats, reason: PruneReason) {
    match reason {
        PruneReason::Ancestor => stats.pruned_ancestor += 1,
        PruneReason::Unlinkable => stats.pruned_unlinkable += 1,
        PruneReason::Precount => stats.pruned_precount += 1,
        PruneReason::Family => stats.pruned_family += 1,
        PruneReason::None => {}
    }
}

/// Generate length-`k` candidates by self-joining the sorted frequent
/// (`k-1`)-itemsets, applying the hooks. `prev` must be sorted
/// lexicographically.
///
/// With `threads > 1` the join units (one per left parent, in join order)
/// are sharded into contiguous batches balanced by pair count; each
/// worker fills a private output and a private [`MiningStats`] shard, and
/// the batches are concatenated / absorbed in batch order — the output
/// and every prune counter are identical to the serial join.
pub fn generate_candidates(
    prev: &[Itemset],
    k: usize,
    hooks: &PruneHooks<'_>,
    stats: &mut MiningStats,
    threads: usize,
) -> Vec<Itemset> {
    debug_assert!(k >= 2);
    let prev_set: FxHashSet<&[ItemId]> = prev.iter().map(|s| &**s).collect();

    // Join units `(i, group_end)`: left parent `i` joins with every
    // `j in i+1..group_end` of its k-2-prefix group. Unit order equals the
    // serial nested-loop order, so concatenating per-batch outputs
    // reproduces the serial candidate order exactly (for k = 2 there is a
    // single group — the whole of `prev` — and units still split it).
    let mut units: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    while start < prev.len() {
        // Group of itemsets sharing the first k-2 items.
        let head = &prev[start][..k - 2];
        let mut end = start + 1;
        while end < prev.len() && &prev[end][..k - 2] == head {
            end += 1;
        }
        units.extend((start..end - 1).map(|i| (i, end)));
        start = end;
    }

    let join_unit =
        |&(i, end): &(usize, usize), out: &mut Vec<Itemset>, stats: &mut MiningStats| {
            for j in i + 1..end {
                let a = prev[i][k - 2];
                let b = prev[j][k - 2];
                debug_assert!(a < b);
                if let Some(pair_ok) = hooks.pair_ok {
                    let (ok, reason) = pair_ok(a, b);
                    if !ok {
                        charge_prune(stats, reason);
                        continue;
                    }
                }
                let mut cand: Vec<ItemId> = Vec::with_capacity(k);
                cand.extend_from_slice(&prev[i]);
                cand.push(b);
                if hooks.subsets && k > 2 {
                    // All (k-1)-subsets must be frequent. The two parents
                    // are, so test the others.
                    let mut pruned = false;
                    let mut sub: Vec<ItemId> = Vec::with_capacity(k - 1);
                    for skip in 0..k - 2 {
                        sub.clear();
                        sub.extend(
                            cand.iter()
                                .enumerate()
                                .filter(|&(x, _)| x != skip)
                                .map(|(_, &it)| it),
                        );
                        if !prev_set.contains(&sub[..]) {
                            pruned = true;
                            break;
                        }
                    }
                    if pruned {
                        stats.pruned_subset += 1;
                        continue;
                    }
                }
                if let Some(candidate_ok) = hooks.candidate_ok {
                    let (ok, reason) = candidate_ok(&cand);
                    if !ok {
                        charge_prune(stats, reason);
                        continue;
                    }
                }
                out.push(cand.into_boxed_slice());
            }
        };

    let total_pairs: usize = units.iter().map(|&(i, end)| end - 1 - i).sum();
    if threads <= 1 || total_pairs <= GEN_PARALLEL_CUTOFF || units.len() < 2 {
        let mut out: Vec<Itemset> = Vec::new();
        for unit in &units {
            join_unit(unit, &mut out, stats);
        }
        return out;
    }

    let batches = batch_units_by_cost(&units, threads);
    let units = &units[..];
    let join_unit = &join_unit;
    let parts: Vec<(Vec<Itemset>, MiningStats)> = crossbeam::scope(|s| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                s.spawn(move |_| {
                    let _span = flowcube_obs::span!("mining.generate.chunk", units = batch.len());
                    let mut out: Vec<Itemset> = Vec::new();
                    let mut shard = MiningStats::default();
                    for unit in &units[batch] {
                        join_unit(unit, &mut out, &mut shard);
                    }
                    (out, shard)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("candidate generation worker panicked"))
            .collect()
    })
    .expect("crossbeam scope");

    let mut out: Vec<Itemset> = Vec::with_capacity(parts.iter().map(|(p, _)| p.len()).sum());
    for (part, shard) in parts {
        out.extend(part);
        stats.absorb(&shard);
    }
    out
}

/// Partition the join units into at most `threads` contiguous batches of
/// roughly equal pair cost (a unit `(i, end)` joins `end - 1 - i` pairs).
fn batch_units_by_cost(units: &[(usize, usize)], threads: usize) -> Vec<std::ops::Range<usize>> {
    let total: usize = units.iter().map(|&(i, end)| end - 1 - i).sum();
    let target = total.div_ceil(threads).max(1);
    let mut out: Vec<std::ops::Range<usize>> = Vec::with_capacity(threads);
    let mut start = 0;
    let mut cost = 0;
    for (x, &(i, end)) in units.iter().enumerate() {
        cost += end - 1 - i;
        if cost >= target && out.len() + 1 < threads {
            out.push(start..x + 1);
            start = x + 1;
            cost = 0;
        }
    }
    out.push(start..units.len());
    out
}

/// One counting pass: the support of each of `candidates` (all length
/// `k`, in [`generate_candidates`] order) on `rows` (see
/// [`TidRows::count`] for `threads`). Opens the `mining.scan` span and
/// charges the pass to `stats`.
pub(crate) fn count_candidates(
    candidates: &[Itemset],
    k: usize,
    rows: &TidRows,
    threads: usize,
    stats: &mut MiningStats,
) -> Vec<u64> {
    let _scan_span = flowcube_obs::span!("mining.scan", k = k, candidates = candidates.len());
    let counts = rows.count(candidates, threads);
    stats.scans += 1;
    MiningStats::bump(&mut stats.counted_by_length, k, candidates.len() as u64);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Itemset {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    #[test]
    fn join_generates_sorted_candidates() {
        let prev = vec![ids(&[1, 2]), ids(&[1, 3]), ids(&[2, 3])];
        let mut stats = MiningStats::default();
        let cands = generate_candidates(&prev, 3, &PruneHooks::default(), &mut stats, 1);
        // {1,2}+{1,3} → {1,2,3}: subsets {2,3} frequent → kept.
        assert_eq!(cands, vec![ids(&[1, 2, 3])]);
        assert_eq!(stats.pruned_subset, 0);
    }

    #[test]
    fn subset_pruning_fires() {
        let prev = vec![ids(&[1, 2]), ids(&[1, 3])];
        let mut stats = MiningStats::default();
        let cands = generate_candidates(&prev, 3, &PruneHooks::default(), &mut stats, 1);
        // {1,2,3} requires {2,3} which is absent.
        assert!(cands.is_empty());
        assert_eq!(stats.pruned_subset, 1);
    }

    #[test]
    fn pair_hook_prunes() {
        let prev = vec![ids(&[1]), ids(&[2]), ids(&[3])];
        let mut stats = MiningStats::default();
        let pair_ok = |a: ItemId, b: ItemId| {
            if a == ItemId(1) && b == ItemId(2) {
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
        let cands = generate_candidates(&prev, 2, &hooks, &mut stats, 1);
        assert_eq!(cands, vec![ids(&[1, 3]), ids(&[2, 3])]);
        assert_eq!(stats.pruned_unlinkable, 1);
    }

    #[test]
    fn count_candidates_end_to_end() {
        let transactions: Vec<Vec<ItemId>> = vec![
            [1u32, 2, 3].iter().map(|&x| ItemId(x)).collect(),
            [1u32, 2].iter().map(|&x| ItemId(x)).collect(),
            [2u32, 3].iter().map(|&x| ItemId(x)).collect(),
        ];
        let mut rows = TidRows::new(3, vec![ItemId(1), ItemId(2), ItemId(3)], 4, |i| i);
        crate::bitmap::fill_rows(transactions.iter().map(|t| t.as_slice()), &mut [&mut rows]);
        let candidates = vec![ids(&[1, 2]), ids(&[1, 3]), ids(&[2, 3])];
        let mut stats = MiningStats::default();
        let counts = count_candidates(&candidates, 2, &rows, 1, &mut stats);
        assert_eq!(counts, vec![2, 1, 2]);
        assert_eq!(stats.scans, 1);
        assert_eq!(stats.counted_by_length, vec![0, 3]);
    }

    #[test]
    fn stats_absorb() {
        let mut a = MiningStats::default();
        MiningStats::bump(&mut a.counted_by_length, 2, 5);
        let mut b = MiningStats::default();
        MiningStats::bump(&mut b.counted_by_length, 1, 2);
        MiningStats::bump(&mut b.counted_by_length, 2, 1);
        b.pruned_subset = 3;
        b.pruned_family = 4;
        a.absorb(&b);
        assert_eq!(a.counted_by_length, vec![2, 6]);
        assert_eq!(a.pruned_subset, 3);
        assert_eq!(a.pruned_family, 4);
        assert_eq!(a.total_counted(), 8);
        assert_eq!(a.max_length(), 2);
    }
}

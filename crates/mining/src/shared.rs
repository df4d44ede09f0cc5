//! Algorithm 1 (**Shared**) — simultaneous mining of frequent cells and
//! frequent path segments at every abstraction level — and the **Basic**
//! baseline (Shared with every candidate-pruning optimization disabled).
//!
//! One Apriori run over the transformed transaction database finds, in the
//! same passes, the frequent cells of the flowcube (dimension-item-only
//! itemsets) and the frequent path segments of every cell (itemsets mixing
//! the cell's dimension items with stage items), at every item and path
//! abstraction level at once.
//!
//! One scan of the transactions counts the items; a second sets the tid
//! rows (one bit per transaction) of the items that join and, under
//! rule 1, of their pre-count projections. Every later count — rule 1's
//! pairs, each pattern length's candidates, the look-ahead's high-level
//! patterns — is an AND + popcount over those rows, one counting pass
//! per length.

use crate::apriori::{
    count_candidates, generate_candidates, Itemset, MiningStats, PruneHooks, PruneReason,
};
use crate::bitmap::{fill_rows, TidRows};
use crate::encode::TransactionDb;
use crate::item::{ItemId, ItemKind};
use flowcube_hier::{DimId, DurationLevel, PathLevelId};
use serde::{Deserialize, Serialize};

/// Configuration of a Shared/Basic run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SharedConfig {
    /// δ — absolute minimum support (number of transactions).
    pub min_support: u64,
    /// Pre-count high-abstraction-level pairs before the level-wise loop
    /// and use them to discard candidates early (pruning technique 1).
    pub precount: bool,
    /// Hierarchy level dimension items are projected to for pre-counting
    /// (the paper pre-counted "patterns of length 2 at abstraction level
    /// 2"). Clamped per dimension to its maximum level.
    pub precount_dim_level: u8,
    /// Discard candidates containing two stages that cannot lie on one
    /// path, or two unrelated values of one dimension (technique 2).
    pub prune_unlinkable: bool,
    /// Discard candidates containing an item and one of its ancestors
    /// (technique 4, after Srikant & Agrawal).
    pub prune_ancestor_pairs: bool,
    /// The paper's "more general precounting strategy … count high
    /// abstraction level patterns of length k+1 when counting the support
    /// of length k patterns": in every counting pass, candidate high-level
    /// (k+1)-patterns are counted on the projections' rows, and any later
    /// candidate whose projection is known infrequent is pruned without
    /// counting. Off by default (the paper's experiments only pre-counted
    /// pairs).
    pub precount_ahead: bool,
    /// Mine only the family the flowcube reads (a fifth rule, not in the
    /// paper): itemsets whose stage items all carry a concrete duration
    /// and belong to one path level, with any dimension items. The family
    /// is downward closed, so Apriori restricted to it finds every
    /// frequent member — the same argument as rules 2 and 4.
    /// `*`-duration stage items are still counted in the item scan (rule 1
    /// pre-counts through them) but never join.
    #[serde(default)]
    pub prune_outside_family: bool,
    /// Optional hard cap on pattern length (a safety valve for the Basic
    /// baseline, whose candidate set can exhaust memory — as in the
    /// paper's experiments).
    pub max_len: Option<usize>,
    /// Worker threads for candidate generation and the counting passes.
    /// `0` resolves automatically (the `FLOWCUBE_THREADS` environment
    /// variable if set, else `available_parallelism`). Generation plans
    /// from the transaction count, a counting pass from its candidate
    /// count; at or below [`crate::parallel::DEFAULT_PARALLEL_CUTOFF`]
    /// either runs serially. Output is bit-identical at any setting.
    #[serde(default)]
    pub threads: usize,
}

impl SharedConfig {
    /// The full Shared algorithm with all optimizations on.
    pub fn shared(min_support: u64) -> Self {
        SharedConfig {
            min_support,
            precount: true,
            precount_dim_level: 2,
            prune_unlinkable: true,
            prune_ancestor_pairs: true,
            precount_ahead: false,
            prune_outside_family: false,
            max_len: None,
            threads: 0,
        }
    }

    /// What the batch build runs: the paper's four rules plus the family
    /// rule ([`Self::prune_outside_family`]). Its output is
    /// [`Self::shared`]'s restricted to the itemsets a flowcube stores —
    /// frequent cells, and per cell the concrete-duration segments of one
    /// path level.
    pub fn cube_family(min_support: u64) -> Self {
        SharedConfig {
            prune_outside_family: true,
            ..SharedConfig::shared(min_support)
        }
    }

    /// Shared with the generalized look-ahead pre-counting enabled.
    pub fn shared_ahead(min_support: u64) -> Self {
        SharedConfig {
            precount_ahead: true,
            ..SharedConfig::shared(min_support)
        }
    }

    /// The Basic baseline: plain multi-level Apriori, classic subset
    /// pruning only.
    pub fn basic(min_support: u64) -> Self {
        SharedConfig {
            min_support,
            precount: false,
            precount_dim_level: 0,
            prune_unlinkable: false,
            prune_ancestor_pairs: false,
            precount_ahead: false,
            prune_outside_family: false,
            max_len: None,
            threads: 0,
        }
    }

    /// Set the worker-thread knob (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The output of a mining run.
///
/// `PartialEq` compares itemsets, supports, order, *and* stats — the
/// differential tests use it to assert bit-identical parallel runs.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrequentItemsets {
    /// All frequent itemsets with their supports, sorted lexicographically
    /// within each length.
    pub itemsets: Vec<(Itemset, u64)>,
    pub stats: MiningStats,
}

impl FrequentItemsets {
    /// Iterate the frequent itemsets of exactly length `k`.
    pub fn by_length(&self, k: usize) -> impl Iterator<Item = &(Itemset, u64)> {
        self.itemsets.iter().filter(move |(s, _)| s.len() == k)
    }

    /// The frequent *cells* of the flowcube: itemsets made only of
    /// dimension items, at most one per dimension. Each is returned as
    /// `(sorted dim items, support)`. The all-`*` apex cell is implicit
    /// (its "itemset" is empty) and not listed.
    pub fn frequent_cells(&self, tx: &TransactionDb) -> Vec<(Vec<ItemId>, u64)> {
        let dict = tx.dict();
        self.itemsets
            .iter()
            .filter(|(s, _)| {
                let mut dims_seen: Vec<DimId> = Vec::new();
                for &i in s.iter() {
                    match dict.kind(i) {
                        ItemKind::Dim { dim, .. } => {
                            if dims_seen.contains(&dim) {
                                return false; // item + ancestor in one dim
                            }
                            dims_seen.push(dim);
                        }
                        ItemKind::Stage { .. } => return false,
                    }
                }
                true
            })
            .map(|(s, c)| (s.to_vec(), *c))
            .collect()
    }
}

/// Map each path level to its `*`-duration twin (same cut, `Any`
/// duration), used for pre-count projection of stage items.
fn star_twins(tx: &TransactionDb) -> Vec<Option<PathLevelId>> {
    let spec = tx.spec();
    (0..spec.len())
        .map(|i| {
            let level = spec.level(i as PathLevelId);
            if level.duration == DurationLevel::Any {
                return Some(i as PathLevelId);
            }
            (0..spec.len()).find_map(|j| {
                let other = spec.level(j as PathLevelId);
                (other.duration == DurationLevel::Any && other.cut == level.cut)
                    .then_some(j as PathLevelId)
            })
        })
        .collect()
}

/// Compute, per item, its pre-count projection: the high-abstraction-level
/// item whose support bounds this item's support.
fn precount_projection(tx: &TransactionDb, dim_level: u8) -> Vec<ItemId> {
    let dict = tx.dict();
    let twins = star_twins(tx);
    (0..dict.len() as u32)
        .map(|raw| {
            let id = ItemId(raw);
            match dict.kind(id) {
                ItemKind::Dim { dim, concept } => {
                    let h = tx.schema().dim(dim);
                    let target = dim_level.min(h.max_level()).max(1);
                    if h.level_of(concept) <= target {
                        id
                    } else {
                        let anc = h.ancestor_at_level(concept, target);
                        dict.lookup(ItemKind::Dim { dim, concept: anc })
                            .unwrap_or(id)
                    }
                }
                ItemKind::Stage { level, prefix, dur } => {
                    if dur.is_none() {
                        return id;
                    }
                    match twins[level as usize] {
                        Some(star) => dict
                            .lookup(ItemKind::Stage {
                                level: star,
                                prefix,
                                dur: None,
                            })
                            .unwrap_or(id),
                        None => id,
                    }
                }
            }
        })
        .collect()
}

/// Run the Shared (or Basic, depending on `config`) algorithm.
///
/// The item scan runs on the calling thread and the row pass on one
/// thread of its own; candidate generation shards its join units, and every
/// counting pass splits its candidates into contiguous ranges, across
/// `config.threads` workers, with results placed by chunk index. The output — itemsets, supports,
/// order, and stats — is bit-identical to the serial run at any thread
/// count.
pub fn mine(tx: &TransactionDb, config: &SharedConfig) -> FrequentItemsets {
    let threads = crate::parallel::plan_threads(
        config.threads,
        tx.len(),
        crate::parallel::DEFAULT_PARALLEL_CUTOFF,
    );
    let _mine_span = flowcube_obs::span!(
        "mining.apriori",
        min_support = config.min_support,
        transactions = tx.len(),
        threads = threads,
    );
    let dict = tx.dict();
    let mut stats = MiningStats::default();
    // δ = 0 would admit every candidate (any count ≥ 0) and explode the
    // level-wise loop; clamp to 1, which accepts exactly the same
    // itemsets — every itemset in the output must occur somewhere.
    let delta = config.min_support.max(1);

    // ------- Scan 1: item counts.
    let scan1_span = flowcube_obs::span!("mining.scan", k = 1usize, candidates = dict.len());
    let mut item_counts = vec![0u64; dict.len()];
    for t in tx.iter() {
        for &i in t {
            item_counts[i.index()] += 1;
        }
    }
    drop(scan1_span);
    stats.scans += 1;
    MiningStats::bump(&mut stats.counted_by_length, 1, dict.len() as u64);

    let mut frequent: Vec<(Itemset, u64)> = Vec::new();
    let frequent_items: Vec<ItemId> = (0..dict.len() as u32)
        .map(ItemId)
        .filter(|i| item_counts[i.index()] >= delta)
        .collect();
    // Rule 5: a `*`-duration stage item was counted for rule 1's sake
    // only; no itemset holding it is in the family.
    let outside_family = |i: ItemId| {
        config.prune_outside_family && matches!(dict.kind(i), ItemKind::Stage { dur: None, .. })
    };
    let mut prev: Vec<Itemset> = frequent_items
        .iter()
        .filter(|&&i| !outside_family(i))
        .map(|&i| vec![i].into_boxed_slice())
        .collect();
    stats.pruned_family += (frequent_items.len() - prev.len()) as u64;
    prev.sort();
    for s in &prev {
        frequent.push((s.clone(), item_counts[s[0].index()]));
    }
    MiningStats::bump(&mut stats.frequent_by_length, 1, prev.len() as u64);

    // ------- Tid rows: the items that join and, under rule 1, their
    // projections. A projection's row is the OR over every item, frequent
    // or not, projecting onto it — the set of transactions whose projected
    // transaction holds it. The look-ahead pre-counts every frequent
    // projected pair, so it takes a row for every projection.
    let projection = config
        .precount
        .then(|| precount_projection(tx, config.precount_dim_level));
    let keep_projected = config.precount_ahead && projection.is_some();
    // The rows are built on a thread of their own, so that they come from
    // that thread's malloc arena. Transient and 7.3 MB on `build_fig6`,
    // they shifted the layout of the main arena's `brk` heap when built
    // here, and the snapshot writer's freed section buffers then stayed
    // resident: 58 MB more heap at the end of serving, in every run on
    // one seed (DESIGN §6).
    let (item_rows, projected) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut item_rows = TidRows::new(
                    tx.len(),
                    prev.iter().map(|s| s[0]).collect(),
                    dict.len(),
                    |i| i,
                );
                let mut projected = projection.as_ref().map(|projection| {
                    let mut owners: Vec<ItemId> = if keep_projected {
                        projection.clone()
                    } else {
                        prev.iter().map(|s| projection[s[0].index()]).collect()
                    };
                    owners.sort_unstable();
                    owners.dedup();
                    TidRows::new(tx.len(), owners, dict.len(), |i| projection[i.index()])
                });
                match projected.as_mut() {
                    Some(rows) => fill_rows(tx.iter(), &mut [&mut item_rows, rows]),
                    None => fill_rows(tx.iter(), &mut [&mut item_rows]),
                }
                (item_rows, projected)
            })
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    });

    // ------- Rule 1's pair table: the support of every pair of
    // projections, a dense matrix over the projections' rows.
    let pair_counts: Option<Vec<u64>> = projected.as_ref().map(|rows| {
        let (owners, m) = (rows.items(), rows.items().len());
        let index_pairs = || (0..m).flat_map(move |x| (x + 1..m).map(move |y| (x, y)));
        let pairs: Vec<Itemset> = index_pairs()
            .map(|(x, y)| vec![owners[x], owners[y]].into_boxed_slice())
            .collect();
        let _span = flowcube_obs::span!("mining.precount", projections = m, pairs = pairs.len());
        let mut matrix = vec![0u64; m * m];
        for ((x, y), count) in index_pairs().zip(rows.count(&pairs, config.threads)) {
            matrix[x * m + y] = count;
            matrix[y * m + x] = count;
        }
        matrix
    });

    // High-level bookkeeping for the generalized look-ahead: every
    // *frequent* projected pattern of each size seen so far. At the time
    // candidates of length m are generated, all projected sizes ≤ m have
    // been decided, so "projection not in the frequent set" is a sound
    // prune.
    let mut high_frequent: flowcube_hier::FxHashSet<Itemset> = Default::default();
    let mut high_prev: Vec<Itemset> = Vec::new();
    if keep_projected {
        let (rows, matrix) = (
            projected.as_ref().expect("keep_projected implies rows"),
            pair_counts
                .as_ref()
                .expect("keep_projected implies the pair table"),
        );
        let (owners, m) = (rows.items(), rows.items().len());
        for &h in owners {
            if item_counts[h.index()] >= delta {
                high_frequent.insert(vec![h].into_boxed_slice());
            }
        }
        for x in 0..m {
            for y in x + 1..m {
                if matrix[x * m + y] >= delta {
                    high_prev.push(vec![owners[x], owners[y]].into_boxed_slice());
                }
            }
        }
        high_frequent.extend(high_prev.iter().cloned());
    }

    // ------- Level-wise loop.
    let mut k = 2;
    while !prev.is_empty() && config.max_len.is_none_or(|m| k <= m) {
        let pair_ok = |a: ItemId, b: ItemId| -> (bool, PruneReason) {
            // Rule 5 first, it is the cheapest. The pair check suffices:
            // both join parents are in the family, so two stage items
            // that a shared prefix does not already tie to one level can
            // only be the two the parents differ in.
            if config.prune_outside_family {
                if let (ItemKind::Stage { level: la, .. }, ItemKind::Stage { level: lb, .. }) =
                    (dict.kind(a), dict.kind(b))
                {
                    if la != lb {
                        return (false, PruneReason::Family);
                    }
                }
            }
            if config.prune_ancestor_pairs && dict.is_ancestor_pair(a, b) {
                return (false, PruneReason::Ancestor);
            }
            if config.prune_unlinkable && !dict.can_cooccur(a, b) {
                return (false, PruneReason::Unlinkable);
            }
            if let (Some(rows), Some(matrix)) = (&projected, &pair_counts) {
                let route = |i: ItemId| {
                    rows.route(i)
                        .expect("a joining item's projection has a row")
                };
                let (x, y) = (route(a), route(b));
                if x != y && matrix[x * rows.items().len() + y] < delta {
                    return (false, PruneReason::Precount);
                }
            }
            (true, PruneReason::None)
        };
        let candidate_ok = |cand: &[ItemId]| -> (bool, PruneReason) {
            if !keep_projected {
                return (true, PruneReason::None);
            }
            let projection = projection.as_ref().expect("keep_projected");
            let mut proj: Vec<ItemId> = cand.iter().map(|&i| projection[i.index()]).collect();
            proj.sort_unstable();
            proj.dedup();
            if proj.len() >= 2 && !high_frequent.contains(&proj[..]) {
                (false, PruneReason::Precount)
            } else {
                (true, PruneReason::None)
            }
        };
        let hooks = PruneHooks {
            pair_ok: Some(&pair_ok),
            candidate_ok: keep_projected.then_some(&candidate_ok as _),
            subsets: true,
        };
        let candidates = generate_candidates(&prev, k, &hooks, &mut stats, threads);
        if candidates.is_empty() {
            break;
        }

        // Look-ahead: high-level candidates of length k+1 are counted in
        // the same pass, on the projections' rows.
        let high_candidates = if keep_projected && !high_prev.is_empty() {
            generate_candidates(
                &high_prev,
                k + 1,
                &PruneHooks::default(),
                &mut stats,
                threads,
            )
        } else {
            Vec::new()
        };

        let counts = count_candidates(&candidates, k, &item_rows, config.threads, &mut stats);
        let high_counts = match &projected {
            Some(rows) if !high_candidates.is_empty() => {
                rows.count(&high_candidates, config.threads)
            }
            _ => Vec::new(),
        };
        stats.precounted_patterns += high_candidates.len() as u64;

        let mut next: Vec<Itemset> = Vec::new();
        for (cand, count) in candidates.into_iter().zip(counts) {
            if count >= delta {
                frequent.push((cand.clone(), count));
                next.push(cand);
            }
        }
        MiningStats::bump(&mut stats.frequent_by_length, k, next.len() as u64);
        prev = next;
        if keep_projected {
            let mut next_high: Vec<Itemset> = Vec::new();
            for (cand, count) in high_candidates.into_iter().zip(high_counts) {
                if count >= delta {
                    high_frequent.insert(cand.clone());
                    next_high.push(cand);
                }
            }
            high_prev = next_high;
        }
        k += 1;
    }

    FrequentItemsets {
        itemsets: frequent,
        stats,
    }
}

/// Convenience: run with [`SharedConfig::shared`].
///
/// ```
/// use flowcube_mining::{mine_shared, TransactionDb};
/// use flowcube_pathdb::{samples, MergePolicy};
/// use flowcube_hier::PathLatticeSpec;
///
/// let db = samples::paper_table1();
/// let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
/// let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
/// let out = mine_shared(&tx, 4);
/// // (f,10) is one of the paper's Table 4 entries with support 5.
/// assert!(out.itemsets.iter().any(|(_, c)| *c == 5));
/// ```
pub fn mine_shared(tx: &TransactionDb, min_support: u64) -> FrequentItemsets {
    mine(tx, &SharedConfig::shared(min_support))
}

/// Convenience: run with [`SharedConfig::basic`].
pub fn mine_basic(tx: &TransactionDb, min_support: u64) -> FrequentItemsets {
    mine(tx, &SharedConfig::basic(min_support))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_hier::PathLatticeSpec;
    use flowcube_pathdb::{samples, MergePolicy};

    fn paper_tx() -> TransactionDb {
        let db = samples::paper_table1();
        let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
        TransactionDb::encode(&db, spec, MergePolicy::Sum)
    }

    fn display_set(tx: &TransactionDb, s: &[ItemId]) -> String {
        let parts: Vec<String> = s.iter().map(|&i| tx.dict().display(i, tx.ctx())).collect();
        format!("{{{}}}", parts.join(","))
    }

    /// Table 4 of the paper lists, among others:
    /// {121} : 5   (tennis — our code 1121)
    /// {12*} : 5   (shoes  — 112*)
    /// {(f,10)} : 5, {(f,*)} : 8, {(fd,2)} : 4
    #[test]
    fn table4_length1_supports() {
        let tx = paper_tx();
        let out = mine_shared(&tx, 4);
        let find = |needle: &str| -> Option<u64> {
            out.by_length(1)
                .find(|(s, _)| display_set(&tx, s) == format!("{{{needle}}}"))
                .map(|&(_, c)| c)
        };
        assert_eq!(find("1121"), Some(4)); // tennis: 4 paths (1,2,7,8)
        assert_eq!(find("112*"), Some(5)); // shoes: + sandals
        assert_eq!(find("(f,10)"), Some(5));
        assert_eq!(find("(f@1,*)"), Some(8));
        assert_eq!(find("(fd,2)"), Some(4));
    }

    /// Table 4 length-2 entries: {211,(f,10)} : 4 — nike together with
    /// (f,10); {(f,5),(fd,2)} : 3; {(f,*),(fd,*)} : 3... (the last is 5 in
    /// our data: paths 1,2,3,7,8 all start f,d — the paper's table shows a
    /// portion with support 3 under its own encoding; we assert our exact
    /// counts).
    #[test]
    fn table4_length2_supports() {
        let tx = paper_tx();
        let out = mine_shared(&tx, 3);
        // item order inside a set follows dictionary ids; compare as sets
        let find = |needle: &[&str]| -> Option<u64> {
            out.by_length(2)
                .find(|(s, _)| {
                    let shown = display_set(&tx, s);
                    needle.iter().all(|n| shown.contains(n))
                })
                .map(|&(_, c)| c)
        };
        // nike = dim2 athletic→nike = code 211. The paper's Table 4 prints
        // support 4 for {211,(f,10)}, but counting Table 1 directly gives
        // 5 (nike records 1,3,4,5,6 all have (f,10)); we assert the true
        // count.
        assert_eq!(find(&["211", "(f,10)"]), Some(5));
        assert_eq!(find(&["(f,5)", "(fd,2)"]), Some(3)); // records 2,7,8
    }

    #[test]
    fn shared_and_basic_agree_on_valid_itemsets() {
        // Basic finds a superset (it keeps item+ancestor and unlinkable
        // candidates, the latter all infrequent); restricted to itemsets
        // without ancestor pairs, the two outputs must match exactly.
        let tx = paper_tx();
        let shared = mine_shared(&tx, 2);
        let basic = mine_basic(&tx, 2);
        let dict = tx.dict();
        let no_ancestor_pair = |s: &[ItemId]| {
            for (i, &a) in s.iter().enumerate() {
                for &b in &s[i + 1..] {
                    if dict.is_ancestor_pair(a, b) {
                        return false;
                    }
                }
            }
            true
        };
        let mut shared_set: Vec<_> = shared
            .itemsets
            .iter()
            .map(|(s, c)| (s.clone(), *c))
            .collect();
        let mut basic_set: Vec<_> = basic
            .itemsets
            .iter()
            .filter(|(s, _)| no_ancestor_pair(s))
            .map(|(s, c)| (s.clone(), *c))
            .collect();
        shared_set.sort();
        basic_set.sort();
        assert_eq!(shared_set, basic_set);
    }

    #[test]
    fn basic_counts_more_candidates() {
        let tx = paper_tx();
        let shared = mine_shared(&tx, 2);
        let basic = mine_basic(&tx, 2);
        assert!(
            basic.stats.total_counted() > shared.stats.total_counted(),
            "basic {} !> shared {}",
            basic.stats.total_counted(),
            shared.stats.total_counted()
        );
        // and reaches longer patterns (items + ancestors inflate length)
        assert!(basic.stats.max_length() >= shared.stats.max_length());
        // shared actually pruned something
        let s = &shared.stats;
        assert!(s.pruned_ancestor + s.pruned_unlinkable + s.pruned_precount > 0);
    }

    #[test]
    fn frequent_cells_extraction() {
        let tx = paper_tx();
        let out = mine_shared(&tx, 2);
        let cells = out.frequent_cells(&tx);
        // (tennis) support 4, (nike) support 6, (tennis, nike) support 2,
        // (shoes, nike) support 3, ... all present; no stage items.
        let dict = tx.dict();
        assert!(cells
            .iter()
            .all(|(items, _)| items.iter().all(|&i| dict.kind(i).is_dim())));
        let tennis_nike = cells.iter().find(|(items, _)| {
            items.len() == 2
                && display_set(&tx, items).contains("1121")
                && display_set(&tx, items).contains("211")
        });
        assert_eq!(tennis_nike.map(|&(_, c)| c), Some(2));
    }

    #[test]
    fn lookahead_precount_preserves_output() {
        let tx = paper_tx();
        for delta in [2u64, 3, 4] {
            let baseline = mine(&tx, &SharedConfig::shared(delta));
            let ahead = mine(&tx, &SharedConfig::shared_ahead(delta));
            let mut a = baseline.itemsets.clone();
            let mut b = ahead.itemsets.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "δ={delta}");
            // The look-ahead actually counted high-level patterns and
            // never counts more raw candidates than the baseline.
            assert!(ahead.stats.precounted_patterns > 0);
            assert!(ahead.stats.total_counted() <= baseline.stats.total_counted());
        }
    }

    #[test]
    fn min_support_monotonicity() {
        let tx = paper_tx();
        let low = mine_shared(&tx, 2);
        let high = mine_shared(&tx, 5);
        assert!(high.itemsets.len() < low.itemsets.len());
        // every high-support itemset appears in the low run with the same
        // support
        for found in &high.itemsets {
            assert!(low.itemsets.contains(found), "{found:?}");
        }
    }
}

//! Support counting on a vertical bitmap, the one counting kernel of the
//! crate: Shared and Basic's level-wise loop, rule 1's pair pre-count and
//! the look-ahead ([`crate::shared`]), and Cubing's per-cell Apriori
//! ([`crate::cubing`] via [`crate::apriori::count_candidates`]).
//!
//! Each item that can be counted owns a *tid row*: one bit per
//! transaction, bit `t` set when transaction `t` holds the item. The
//! support of an itemset is the size of the intersection of its items'
//! tid sets (Partition, Savasere, Omiecinski & Navathe, VLDB 1995; Eclat,
//! Zaki, IEEE TKDE 2000) — the popcount of the AND of their rows — which
//! is the support a horizontal pass over the transactions counts, by
//! definition.
//!
//! Candidates leave [`crate::apriori::generate_candidates`] grouped by
//! their (k−1)-prefix, the left join parent. [`TidRows::count`] ANDs a
//! group's prefix rows once and then writes one count per candidate as
//! `popcount(prefix & row(last item))`. Work is split into contiguous
//! candidate ranges on [`crate::parallel::run_chunks`] (a range that
//! starts inside a group recomputes that group's prefix), and the counts
//! come back in chunk order, so they are the serial ones at any thread
//! count.

use crate::apriori::Itemset;
use crate::item::ItemId;
use crate::parallel::{plan_threads, run_chunks};

/// Route entry for an item whose bits go to no row.
const NO_ROW: u32 = u32::MAX;

/// Tid rows over `n` transactions for a sorted set of items, and the
/// route that says which row each item's bits go to. Every row is its
/// own allocation of `ceil(n / 64)` words, never one block.
pub(crate) struct TidRows {
    words: usize,
    /// Row owners, sorted ascending; `rows[s]` belongs to `items[s]`.
    items: Vec<ItemId>,
    rows: Vec<Box<[u64]>>,
    /// Per item id, the row its bits go to ([`NO_ROW`]: none).
    route: Vec<u32>,
}

impl TidRows {
    /// All-zero rows for `items` (sorted ascending, distinct) over `n`
    /// transactions. Of the first `universe` item ids, item `i` will send
    /// its bits to the row of `owner(i)`, if that owns one: `owner` is the
    /// identity for rows of the items themselves, and a projection for
    /// rows that are the OR of every item projecting onto their owner.
    pub(crate) fn new(
        n: usize,
        items: Vec<ItemId>,
        universe: usize,
        owner: impl Fn(ItemId) -> ItemId,
    ) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        let words = n.div_ceil(64);
        let rows = items
            .iter()
            .map(|_| vec![0u64; words].into_boxed_slice())
            .collect();
        let route = (0..universe as u32)
            .map(|raw| {
                items
                    .binary_search(&owner(ItemId(raw)))
                    .map_or(NO_ROW, |s| s as u32)
            })
            .collect();
        TidRows {
            words,
            items,
            rows,
            route,
        }
    }

    /// The row owners, sorted ascending.
    pub(crate) fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Bytes held by the rows.
    fn bytes(&self) -> usize {
        self.rows.len() * self.words * 8
    }

    /// Row index of `item`, if it owns one.
    fn slot(&self, item: ItemId) -> Option<usize> {
        self.items.binary_search(&item).ok()
    }

    /// The row of `item`. Panics if `item` owns none: every item of a
    /// counted candidate must.
    fn row(&self, item: ItemId) -> &[u64] {
        let slot = self
            .slot(item)
            .unwrap_or_else(|| panic!("item {item:?} has no tid row"));
        &self.rows[slot]
    }

    /// The row `item`'s bits go to, if any.
    pub(crate) fn route(&self, item: ItemId) -> Option<usize> {
        match self.route.get(item.index()) {
            Some(&slot) if slot != NO_ROW => Some(slot as usize),
            _ => None,
        }
    }

    /// Support of each candidate (all of one length, each sorted
    /// ascending), in order. Threads are planned from the candidate count
    /// (`threads` is the requested knob, `0` = auto).
    pub(crate) fn count(&self, candidates: &[Itemset], threads: usize) -> Vec<u64> {
        self.count_chunks(candidates, plan_threads(threads, candidates.len(), 0))
    }

    /// [`Self::count`] on `chunks` workers, one contiguous candidate
    /// range each.
    fn count_chunks(&self, candidates: &[Itemset], chunks: usize) -> Vec<u64> {
        run_chunks("mining.scan.chunk", candidates.len(), chunks, |r| {
            self.count_range(&candidates[r])
        })
        .concat()
    }

    fn count_range(&self, candidates: &[Itemset]) -> Vec<u64> {
        let mut prefix = vec![0u64; self.words];
        let mut head: Option<&[ItemId]> = None;
        let mut out = Vec::with_capacity(candidates.len());
        for cand in candidates {
            let (&last, rest) = cand.split_last().expect("candidates are non-empty");
            if head != Some(rest) {
                self.and_into(rest, &mut prefix);
                head = Some(rest);
            }
            out.push(and_popcount(&prefix, self.row(last)));
        }
        out
    }

    /// `out` = the AND of the rows of `items` (every bit, for none).
    fn and_into(&self, items: &[ItemId], out: &mut [u64]) {
        match items.split_first() {
            None => out.fill(u64::MAX),
            Some((&first, rest)) => {
                out.copy_from_slice(self.row(first));
                for &item in rest {
                    for (o, &w) in out.iter_mut().zip(self.row(item)) {
                        *o &= w;
                    }
                }
            }
        }
    }
}

fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u64::from((x & y).count_ones()))
        .sum()
}

/// One pass over `transactions` (tid = position) that sets the bits of
/// every row set in `targets`, each item's bit in the row its route
/// names.
///
/// Span `mining.bitmaps` (`items`, `words`, `bytes`); gauge
/// `mining.bitmap_bytes`, the rows of the latest pass.
pub(crate) fn fill_rows<'t>(
    transactions: impl IntoIterator<Item = &'t [ItemId]>,
    targets: &mut [&mut TidRows],
) {
    let items: usize = targets.iter().map(|rows| rows.items.len()).sum();
    let bytes: usize = targets.iter().map(|rows| rows.bytes()).sum();
    let words = targets.first().map_or(0, |rows| rows.words);
    let _span = flowcube_obs::span!(
        "mining.bitmaps",
        items = items,
        words = words,
        bytes = bytes
    );
    for (tid, t) in transactions.into_iter().enumerate() {
        let (word, bit) = (tid / 64, 1u64 << (tid % 64));
        for &item in t {
            for rows in targets.iter_mut() {
                let slot = rows.route[item.index()];
                if slot != NO_ROW {
                    rows.rows[slot as usize][word] |= bit;
                }
            }
        }
    }
    flowcube_obs::gauge_set("mining.bitmap_bytes", bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const UNIVERSE: u32 = 12;

    fn ids(v: &[u32]) -> Itemset {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    fn rows_of(transactions: &[Vec<ItemId>], universe: u32) -> TidRows {
        let items = (0..universe).map(ItemId).collect();
        let mut rows = TidRows::new(transactions.len(), items, universe as usize, |i| i);
        fill_rows(transactions.iter().map(|t| t.as_slice()), &mut [&mut rows]);
        rows
    }

    fn brute(transactions: &[Vec<ItemId>], cand: &[ItemId]) -> u64 {
        transactions
            .iter()
            .filter(|t| cand.iter().all(|i| t.contains(i)))
            .count() as u64
    }

    #[test]
    fn counts_pairs_and_triples() {
        let t = |v: &[u32]| -> Vec<ItemId> { v.iter().map(|&x| ItemId(x)).collect() };
        let transactions = vec![t(&[1, 2, 3]), t(&[1, 2]), t(&[2, 3]), t(&[1, 2, 3, 4])];
        let rows = rows_of(&transactions, 5);
        let pairs = vec![ids(&[1, 2]), ids(&[1, 3]), ids(&[2, 4]), ids(&[3, 4])];
        assert_eq!(rows.count(&pairs, 1), vec![3, 2, 1, 1]);
        let triples = vec![ids(&[1, 2, 3]), ids(&[1, 2, 4]), ids(&[2, 3, 4])];
        assert_eq!(rows.count(&triples, 2), vec![2, 1, 1]);
        assert_eq!(rows.count(&[ids(&[2])], 1), vec![4]);
        assert!(rows.count(&[], 3).is_empty());
        assert_eq!(rows.bytes(), 5 * 8);
    }

    /// Rows route by owner: a projection's row is the OR of the rows of
    /// every item projecting onto it.
    #[test]
    fn a_projected_row_is_the_or_of_its_items() {
        let t = |v: &[u32]| -> Vec<ItemId> { v.iter().map(|&x| ItemId(x)).collect() };
        // 0 and 1 project onto 0; 2 and 3 onto 2.
        let transactions = [t(&[1]), t(&[0, 3]), t(&[2]), t(&[1, 3])];
        let mut rows = TidRows::new(4, vec![ItemId(0), ItemId(2)], 4, |i| ItemId(i.0 & !1));
        let routes: Vec<_> = (0..5).map(|i| rows.route(ItemId(i))).collect();
        assert_eq!(routes, vec![Some(0), Some(0), Some(1), Some(1), None]);
        fill_rows(transactions.iter().map(|t| t.as_slice()), &mut [&mut rows]);
        assert_eq!(rows.row(ItemId(0)), &[0b1011]);
        assert_eq!(rows.row(ItemId(2)), &[0b1110]);
        assert_eq!(rows.count(&[ids(&[0, 2])], 1), vec![2]);
    }

    /// Count `cands` over random transactions of `n` items drawn from
    /// `0..UNIVERSE`, and the projected pairs, against brute force.
    fn check_against_brute_force(
        n: usize,
        density: u32,
        cands: &[Itemset],
        chunks: usize,
        rng: &mut StdRng,
    ) -> Result<(), String> {
        let transactions: Vec<Vec<ItemId>> = (0..n)
            .map(|_| {
                (0..UNIVERSE)
                    .filter(|_| rng.gen_range(0..8u32) < density)
                    .map(ItemId)
                    .collect()
            })
            .collect();
        // Items and their projections (owner `3 * (i / 3)`), filled in one
        // pass.
        let owner = |i: ItemId| ItemId(3 * (i.0 / 3));
        let universe = UNIVERSE as usize;
        let mut items = TidRows::new(n, (0..UNIVERSE).map(ItemId).collect(), universe, |i| i);
        let owners = (0..UNIVERSE).step_by(3).map(ItemId).collect();
        let mut projections = TidRows::new(n, owners, universe, owner);
        fill_rows(
            transactions.iter().map(|t| t.as_slice()),
            &mut [&mut items, &mut projections],
        );

        let counts = items.count_chunks(cands, chunks);
        prop_assert_eq!(counts.len(), cands.len());
        for (cand, &count) in cands.iter().zip(&counts) {
            prop_assert_eq!(count, brute(&transactions, cand), "{:?} n={}", cand, n);
        }
        prop_assert_eq!(items.count(cands, 1), counts);

        // What scan 1 used to build: each transaction projected and
        // deduplicated, every pair of projections counted.
        let owners = projections.items().to_vec();
        let pairs: Vec<Itemset> = owners
            .iter()
            .enumerate()
            .flat_map(|(x, &a)| owners[x + 1..].iter().map(move |&b| ids(&[a.0, b.0])))
            .collect();
        let projected: Vec<Vec<ItemId>> = transactions
            .iter()
            .map(|t| {
                let mut p: Vec<ItemId> = t.iter().map(|&i| owner(i)).collect();
                p.dedup();
                p
            })
            .collect();
        let pair_counts = projections.count_chunks(&pairs, chunks);
        for (pair, &count) in pairs.iter().zip(&pair_counts) {
            prop_assert_eq!(count, brute(&projected, pair), "{:?} n={}", pair, n);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The kernel is exact: every count equals a brute-force recount,
        /// whatever the transaction count (each case also runs the word
        /// boundaries 63/64/65/127/128/129), however the candidates share
        /// prefixes, and however many chunks (1–7) split the groups.
        /// Projection rows, filled in the same pass, give the pair counts
        /// a horizontal pass over the projected transactions gives.
        #[test]
        fn kernel_counts_match_brute_force(
            n in 0usize..300,
            density in 1u32..8,
            k in 2usize..5,
            picks in prop::collection::vec((0u32..12, 0u32..12, 0u32..12, 0u32..12), 1..30),
            chunks in 1usize..8,
            seed in 0u64..1_000_000,
        ) {
            // Length-k candidates in lexicographic order: the picks give
            // lone and loosely shared prefixes, and the first prefix gets
            // every sibling, a group long enough to straddle chunks.
            let mut cands: Vec<Itemset> = picks
                .iter()
                .filter_map(|&(a, b, c, d)| {
                    let mut v = vec![a, b, c, d];
                    v.truncate(k);
                    v.sort_unstable();
                    v.dedup();
                    (v.len() == k).then(|| ids(&v))
                })
                .collect();
            if let Some(first) = cands.first().cloned() {
                let head = &first[..k - 1];
                for last in head[k - 2].0 + 1..UNIVERSE {
                    let mut v = head.to_vec();
                    v.push(ItemId(last));
                    cands.push(v.into_boxed_slice());
                }
            }
            cands.sort();
            cands.dedup();
            let mut rng = StdRng::seed_from_u64(seed);
            for n in [n, 63, 64, 65, 127, 128, 129] {
                check_against_brute_force(n, density, &cands, chunks, &mut rng)?;
            }
        }
    }
}

//! Multinomial count distributions used by flowgraph nodes.
//!
//! A flowgraph node carries two of these (Definition 3.1): a duration
//! distribution `D` and a transition distribution `T`. Both are kept as
//! raw counts — the algebraic property of Lemma 4.2 (distributions merge
//! by summing partition counts) falls out for free.

use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::hash::Hash;

/// A multinomial distribution stored as counts over keys.
///
/// Keys are kept sorted so lookups are binary searches and merging is a
/// sorted-merge; the structure stays cheap for the small cardinalities of
/// discretized durations and node fan-outs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountDist<K> {
    counts: Vec<(K, u64)>,
    total: u64,
}

impl<K: Ord + Copy + Hash + Debug> Default for CountDist<K> {
    fn default() -> Self {
        CountDist {
            counts: Vec::new(),
            total: 0,
        }
    }
}

impl<K: Ord + Copy + Hash + Debug> CountDist<K> {
    pub fn new() -> Self {
        Self::default()
    }

    /// A distribution over `(key, count)` pairs already ascending by key,
    /// no key twice — the form a canonical node table lists them in. The
    /// vector becomes the distribution as it is: no re-sort, no growth.
    pub fn from_sorted(counts: Vec<(K, u64)>) -> Self {
        debug_assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
        let total = counts.iter().map(|&(_, c)| c).sum();
        CountDist { counts, total }
    }

    /// Record one observation of `key`.
    pub fn add(&mut self, key: K) {
        self.add_n(key, 1);
    }

    /// Record `n` observations of `key`.
    pub fn add_n(&mut self, key: K, n: u64) {
        match self.counts.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.counts[i].1 += n,
            Err(i) => self.counts.insert(i, (key, n)),
        }
        self.total += n;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys.
    pub fn support_size(&self) -> usize {
        self.counts.len()
    }

    /// Count of a key (0 when absent).
    pub fn count(&self, key: K) -> u64 {
        self.counts
            .binary_search_by_key(&key, |&(k, _)| k)
            .map(|i| self.counts[i].1)
            .unwrap_or(0)
    }

    /// Probability of a key under the empirical distribution.
    pub fn probability(&self, key: K) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(key) as f64 / self.total as f64
        }
    }

    /// Iterate `(key, count)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        self.counts.iter().copied()
    }

    /// Iterate `(key, probability)` pairs in key order.
    pub fn probabilities(&self) -> impl Iterator<Item = (K, f64)> + '_ {
        let total = self.total.max(1) as f64;
        self.counts.iter().map(move |&(k, c)| (k, c as f64 / total))
    }

    /// The distribution of `f(key)`: keys with equal images add their
    /// counts (Lemma 4.2 again — a roll-up of the key space partitions
    /// the observations). Allocates exactly the image's support.
    pub fn map_keys(&self, f: impl Fn(K) -> K) -> CountDist<K> {
        let mut counts: Vec<(K, u64)> = self.counts.iter().map(|&(k, c)| (f(k), c)).collect();
        counts.sort_by_key(|&(k, _)| k);
        counts.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        counts.shrink_to_fit();
        CountDist {
            counts,
            total: self.total,
        }
    }

    /// Merge another distribution into this one (Lemma 4.2: distributions
    /// are algebraic — partition counts just add).
    pub fn merge(&mut self, other: &CountDist<K>) {
        for (k, c) in other.iter() {
            self.add_n(k, c);
        }
    }

    /// L∞ distance between the two empirical distributions — the paper's
    /// "deviation of a duration or transition probability" ε test: the
    /// largest absolute shift of any single outcome's probability.
    pub fn max_deviation(&self, other: &CountDist<K>) -> f64 {
        let mut dev: f64 = 0.0;
        for (k, _) in self.counts.iter().chain(other.counts.iter()) {
            dev = dev.max((self.probability(*k) - other.probability(*k)).abs());
        }
        dev
    }

    /// Smoothed KL divergence `KL(self ‖ other)` in nats.
    ///
    /// Both distributions are Laplace-smoothed with `alpha` pseudo-counts
    /// over the union support, so the divergence is finite even when
    /// `other` is missing keys.
    pub fn kl_divergence(&self, other: &CountDist<K>, alpha: f64) -> f64 {
        debug_assert!(alpha > 0.0);
        let union: Vec<K> = {
            let mut keys: Vec<K> = self
                .counts
                .iter()
                .map(|&(k, _)| k)
                .chain(other.counts.iter().map(|&(k, _)| k))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        };
        if union.is_empty() {
            return 0.0;
        }
        let k = union.len() as f64;
        let p_total = self.total as f64 + alpha * k;
        let q_total = other.total as f64 + alpha * k;
        let mut kl = 0.0;
        for key in union {
            let p = (self.count(key) as f64 + alpha) / p_total;
            let q = (other.count(key) as f64 + alpha) / q_total;
            kl += p * (p / q).ln();
        }
        kl.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_probability() {
        let mut d = CountDist::new();
        d.add_n(5u32, 3);
        d.add_n(10, 2);
        d.add(5);
        assert_eq!(d.total(), 6);
        assert_eq!(d.count(5), 4);
        assert_eq!(d.count(7), 0);
        assert!((d.probability(5) - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(d.support_size(), 2);
    }

    #[test]
    fn merge_is_count_addition() {
        let mut a = CountDist::new();
        a.add_n(1u32, 2);
        let mut b = CountDist::new();
        b.add_n(1u32, 3);
        b.add_n(2, 1);
        a.merge(&b);
        assert_eq!(a.count(1), 5);
        assert_eq!(a.count(2), 1);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn map_keys_adds_equal_images() {
        let mut d = CountDist::new();
        for (k, n) in [(1u32, 2), (2, 3), (5, 1), (9, 4)] {
            d.add_n(k, n);
        }
        let bucketed = d.map_keys(|k| k / 4 * 4);
        assert_eq!(
            bucketed.iter().collect::<Vec<_>>(),
            [(0, 5), (4, 1), (8, 4)]
        );
        assert_eq!(bucketed.total(), d.total());
        // Not order-preserving: the image is re-sorted.
        let flipped = d.map_keys(|k| 10 - k);
        assert_eq!(
            flipped.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            [1, 5, 8, 9]
        );
        assert_eq!(d.map_keys(|k| k), d);
    }

    #[test]
    fn from_sorted_equals_adding_the_counts() {
        let pairs = vec![(1u32, 2), (4, 3), (9, 1)];
        let mut added = CountDist::new();
        for &(k, n) in &pairs {
            added.add_n(k, n);
        }
        assert_eq!(CountDist::from_sorted(pairs), added);
        assert_eq!(CountDist::<u32>::from_sorted(Vec::new()), CountDist::new());
    }

    #[test]
    fn max_deviation_linf() {
        let mut a = CountDist::new();
        a.add_n(1u32, 6);
        a.add_n(2, 4); // p = (0.6, 0.4)
        let mut b = CountDist::new();
        b.add_n(1u32, 9);
        b.add_n(2, 1); // q = (0.9, 0.1)
        assert!((a.max_deviation(&b) - 0.3).abs() < 1e-12);
        assert_eq!(a.max_deviation(&a), 0.0);
        // missing key counts as probability 0
        let mut c = CountDist::new();
        c.add_n(3u32, 1);
        assert!((a.max_deviation(&c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kl_properties() {
        let mut a = CountDist::new();
        a.add_n(1u32, 5);
        a.add_n(2, 5);
        let mut b = CountDist::new();
        b.add_n(1u32, 9);
        b.add_n(2, 1);
        assert!(a.kl_divergence(&a, 0.5) < 1e-9);
        assert!(a.kl_divergence(&b, 0.5) > 0.1);
        // finite even with disjoint support thanks to smoothing
        let mut c = CountDist::new();
        c.add_n(9u32, 4);
        assert!(a.kl_divergence(&c, 0.5).is_finite());
        // empty vs empty
        let e: CountDist<u32> = CountDist::new();
        assert_eq!(e.kl_divergence(&e, 0.5), 0.0);
    }
}

//! A small, fast, non-cryptographic hasher in the style of `rustc-hash`.
//!
//! FlowCube construction is dominated by hash-map lookups keyed by small
//! integer codes (concept ids, packed item codes, candidate prefixes).
//! SipHash's HashDoS protection buys nothing here — all keys are derived
//! from data we generated ourselves — so we use the FxHash mixing function,
//! implemented locally to avoid an extra dependency.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant used by the Fx mixing step (same as rustc's).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast hasher for small integer-like keys.
///
/// Not HashDoS-resistant; do not expose to untrusted key sets.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
            self.add_to_hash(rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The SplitMix64 finalizer (Steele, Lea, Flood 2014): a bijective
/// mixer whose outputs look independent even for sequential inputs. The
/// shard map places EPCs with it, and the serving layer mints request
/// ids and the retry client draws backoff jitter from it. `shard_of`
/// depends on its exact values: changing it would move every path to
/// another shard.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_integers_hash_distinctly() {
        let mut seen = HashSet::new();
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        // Perfectly injective on this range in practice.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn byte_streams_with_different_lengths_differ() {
        let mut a = FxHasher::default();
        a.write(b"abc");
        let mut b = FxHasher::default();
        b.write(b"abc\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The reference generator seeded with 0 yields these first.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&3), None);
    }
}

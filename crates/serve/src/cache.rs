//! Sharded LRU response cache fronting the flowgraph-heavy endpoints.
//!
//! Keys are canonical request strings (path + sorted query); values are
//! fully rendered response bodies. The map is split across shards, each
//! behind its own `parking_lot::Mutex`, so concurrent workers contend
//! only when they hash to the same shard. Recency is tracked with a
//! per-shard logical clock; eviction scans the (small, bounded) shard
//! for the stalest entry — O(shard capacity), which stays trivial at the
//! configured sizes and avoids intrusive-list unsafe code.
//!
//! Each served cube owns its cache (`ServedCube`): a request looks up,
//! renders and inserts on the cube it took, so a swap (reload, ingest,
//! compaction) drops the old cube's bodies with it, and the new cube
//! starts from [`ResponseCache::renewed`]. The hit and miss tallies
//! carry over, so `serve.cache.hit_rate` reads over the process's life.
//!
//! The integration suites that drive the cache take their cubes and
//! servers from `crates/fixtures`, whose crate docs say when a suite may
//! call `FlowCube::build` itself. The `serve.cache.insert` failpoint
//! holds a rendered body back from the cache, so a test can land a swap
//! between render and insert.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A cached, fully-rendered HTTP response.
#[derive(Debug, PartialEq, Eq)]
pub struct CachedResponse {
    pub status: u16,
    pub body: String,
}

struct Entry {
    response: Arc<CachedResponse>,
    last_used: u64,
}

struct Shard {
    map: HashMap<String, Entry>,
    clock: u64,
}

/// Hits and misses, shared by a cache and the caches renewed from it.
#[derive(Default)]
struct Lookups {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The cache; cheap to share via `Arc`.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    /// Entries across all shards, changed only under the shard lock that
    /// inserts or evicts, so reading it locks nothing.
    entries: AtomicUsize,
    lookups: Arc<Lookups>,
}

const NUM_SHARDS: usize = 8;

impl ResponseCache {
    /// A cache holding at most ~`capacity` responses across all shards.
    /// `capacity == 0` disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            shards: (0..NUM_SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            capacity_per_shard: capacity.div_ceil(NUM_SHARDS),
            entries: AtomicUsize::new(0),
            lookups: Arc::default(),
        }
    }

    /// An empty cache of this one's capacity that counts its hits and
    /// misses into this one's tallies.
    pub fn renewed(&self) -> Self {
        ResponseCache {
            lookups: self.lookups.clone(),
            ..ResponseCache::new(self.capacity_per_shard * NUM_SHARDS)
        }
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % NUM_SHARDS]
    }

    /// Look up a response, refreshing its recency on hit.
    pub fn get(&self, key: &str) -> Option<Arc<CachedResponse>> {
        if self.capacity_per_shard == 0 {
            self.lookups.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = self.shard_of(key).lock();
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = clock;
                let response = entry.response.clone();
                drop(shard);
                self.lookups.hits.fetch_add(1, Ordering::Relaxed);
                flowcube_obs::counter_add("serve.cache.hits", 1);
                Some(response)
            }
            None => {
                drop(shard);
                self.lookups.misses.fetch_add(1, Ordering::Relaxed);
                flowcube_obs::counter_add("serve.cache.misses", 1);
                None
            }
        }
    }

    /// Insert a response, evicting the least-recently-used entry of the
    /// shard when it is full.
    pub fn insert(&self, key: String, response: CachedResponse) {
        if self.capacity_per_shard == 0 {
            return;
        }
        let mut shard = self.shard_of(&key).lock();
        shard.clock += 1;
        let clock = shard.clock;
        if shard.map.len() >= self.capacity_per_shard && !shard.map.contains_key(&key) {
            if let Some(stalest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&stalest);
                self.entries.fetch_sub(1, Ordering::Relaxed);
                flowcube_obs::counter_add("serve.cache.evictions", 1);
            }
        }
        let entry = Entry {
            response: Arc::new(response),
            last_used: clock,
        };
        if shard.map.insert(key, entry).is_none() {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total entries across shards, without taking a shard lock.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since construction, over the caches this one
    /// was renewed from too.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.lookups.hits.load(Ordering::Relaxed),
            self.lookups.misses.load(Ordering::Relaxed),
        )
    }

    /// Hit rate in `[0, 1]`; `0` before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.counters();
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(body: &str) -> CachedResponse {
        CachedResponse {
            status: 200,
            body: body.to_string(),
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = ResponseCache::new(64);
        assert!(cache.get("a").is_none());
        cache.insert("a".into(), resp("1"));
        let got = cache.get("a").expect("hit");
        assert_eq!(got.body, "1");
        assert_eq!(got.status, 200);
        let (hits, misses) = cache.counters();
        assert_eq!((hits, misses), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_stalest_in_shard() {
        // One entry per shard max: every same-shard collision evicts.
        let cache = ResponseCache::new(NUM_SHARDS);
        for i in 0..100 {
            cache.insert(format!("key{i}"), resp(&i.to_string()));
        }
        assert!(cache.len() <= NUM_SHARDS);
    }

    #[test]
    fn recently_used_survives_eviction() {
        let cache = ResponseCache::new(2 * NUM_SHARDS);
        // Find three keys in the same shard.
        let mut same: Vec<String> = Vec::new();
        let probe = ResponseCache::new(NUM_SHARDS);
        let shard0 = probe.shard_of("anchor") as *const _;
        same.push("anchor".to_string());
        let mut i = 0;
        while same.len() < 3 {
            let k = format!("probe{i}");
            if std::ptr::eq(probe.shard_of(&k), shard0) {
                same.push(k);
            }
            i += 1;
        }
        cache.insert(same[0].clone(), resp("0"));
        cache.insert(same[1].clone(), resp("1"));
        // Touch [0] so [1] is the LRU, then insert [2] forcing eviction.
        assert!(cache.get(&same[0]).is_some());
        cache.insert(same[2].clone(), resp("2"));
        assert!(cache.get(&same[0]).is_some(), "recently used evicted");
        assert!(cache.get(&same[1]).is_none(), "LRU survived");
        assert!(cache.get(&same[2]).is_some());
    }

    /// Entries counted under the shard locks, the way `len` once did.
    fn locked_len(cache: &ResponseCache) -> usize {
        cache.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    #[test]
    fn entry_count_follows_inserts_evictions_and_clear() {
        let cache = ResponseCache::new(2 * NUM_SHARDS);
        for i in 0..100 {
            cache.insert(format!("key{i}"), resp("x"));
            assert_eq!(cache.len(), locked_len(&cache), "after insert {i}");
            // Replacing an entry adds none.
            cache.insert(format!("key{i}"), resp("y"));
            assert_eq!(cache.len(), locked_len(&cache), "after replace {i}");
        }
        assert!(cache.len() <= 2 * NUM_SHARDS, "evictions kept the bound");
        assert!(cache.len() >= NUM_SHARDS, "100 keys fill most shards");
        let cache = cache.renewed();
        assert_eq!((cache.len(), locked_len(&cache)), (0, 0));
        cache.insert("again".into(), resp("z"));
        assert_eq!((cache.len(), locked_len(&cache)), (1, 1));
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResponseCache::new(0);
        cache.insert("a".into(), resp("1"));
        assert!(cache.get("a").is_none());
        assert!(cache.is_empty());
    }

    /// A renewed cache is the empty cache a swapped-in cube starts with:
    /// no entry of the old one, the same capacity, the same tallies.
    #[test]
    fn clear_empties_all_shards() {
        let cache = ResponseCache::new(64);
        for i in 0..20 {
            cache.insert(format!("k{i}"), resp("x"));
        }
        assert!(cache.get("k0").is_some());
        let renewed = cache.renewed();
        assert!(renewed.is_empty() && !cache.is_empty());
        assert!((0..20).all(|i| renewed.get(&format!("k{i}")).is_none()));
        assert_eq!(renewed.capacity_per_shard, cache.capacity_per_shard);
        assert_eq!(renewed.counters(), (1, 20));
        assert_eq!(cache.counters(), renewed.counters());
    }
}

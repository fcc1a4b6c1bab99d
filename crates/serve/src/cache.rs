//! The sharded LRU plan cache, and the one `Lru` table it and the rate
//! limiter's client table evict with.
//!
//! Plan-cache keys are full canonical scenario strings
//! ([`nestwx_core::Scenario::canonical_string`]); the caller supplies the
//! FNV digest alongside, which picks the shard. Lookups compare the whole
//! key, so a digest collision can never alias two scenarios. Values are the
//! *rendered result JSON* (`Arc<str>`), not the plan object — serving a hit
//! splices the exact bytes a fresh computation would have produced, which
//! is how the byte-identity guarantee is enforced structurally rather than
//! hoped for.
//!
//! Each shard is an independently locked `Lru`; eviction scans the full
//! shard for the oldest stamp. With the default shard sizes (≤ a few
//! hundred entries) the scan is cheaper than maintaining an intrusive
//! list, and it only runs when a shard is full.

use crate::sync::{lock_unpoisoned, AtomicU64, Mutex, Ordering};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Shards per cache (fixed power of two; the digest's low bits select one).
const SHARDS: usize = 8;

/// A string-keyed table with least-recently-used stamps. It holds no lock
/// and no policy: each owner wraps it in its own `Mutex`, passes its own
/// capacity, and keeps its own counters.
pub(crate) struct Lru<V> {
    // Ordered map: the eviction scan visits entries in key order, so
    // victim selection is deterministic under stamp ties.
    map: BTreeMap<String, (V, u64)>,
    /// Monotonic touch counter backing the LRU stamps (not wall time, so
    /// eviction order is deterministic and loom-checkable).
    clock: u64,
}

impl<V> Default for Lru<V> {
    fn default() -> Self {
        Lru {
            map: BTreeMap::new(),
            clock: 0,
        }
    }
}

impl<V> Lru<V> {
    fn stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The value under `key`, its stamp refreshed.
    pub(crate) fn touch(&mut self, key: &str) -> Option<&mut V> {
        let stamp = self.stamp();
        self.map.get_mut(key).map(|(value, last_used)| {
            *last_used = stamp;
            value
        })
    }

    /// Inserts (or replaces) `key`. A new key arriving at `cap` entries
    /// first evicts the least recently used one; returns whether it did.
    pub(crate) fn insert(&mut self, key: String, value: V, cap: usize) -> bool {
        let stamp = self.stamp();
        let mut evicted = false;
        if !self.map.contains_key(&key) && self.map.len() >= cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.map.insert(key, (value, stamp));
        evicted
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// Sharded exact-key LRU cache for rendered plan/compare results.
pub struct PlanCache {
    shards: Vec<Mutex<Lru<Arc<str>>>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` entries in total (rounded up to
    /// a multiple of the shard count; minimum one entry per shard).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Lru::default())).collect(),
            per_shard_cap: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.per_shard_cap * SHARDS
    }

    fn shard(&self, digest: u64) -> &Mutex<Lru<Arc<str>>> {
        &self.shards[(digest as usize) & (SHARDS - 1)]
    }

    /// Looks up the rendered result for an exact key, refreshing its LRU
    /// stamp and counting the hit or miss.
    pub fn get(&self, key: &str, digest: u64) -> Option<Arc<str>> {
        let hit = self.peek(key, digest);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Like [`get`](Self::get) but without touching the hit/miss counters —
    /// for the worker's post-dequeue re-check, which would otherwise count
    /// every request twice (once on the connection thread, once here).
    pub fn peek(&self, key: &str, digest: u64) -> Option<Arc<str>> {
        lock_unpoisoned(self.shard(digest))
            .touch(key)
            .map(|v| Arc::clone(v))
    }

    /// Inserts (or refreshes) an entry, evicting the shard's least recently
    /// used entry if it is full.
    pub fn insert(&self, key: String, digest: u64, value: Arc<str>) {
        if lock_unpoisoned(self.shard(digest)).insert(key, value, self.per_shard_cap) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Entries currently cached (sums the shards; approximate under
    /// concurrent writes).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_unpoisoned(s).len()).sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot for the `stats` endpoint.
    pub fn stats(&self) -> CacheStats {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let lookups = hits + misses;
        CacheStats {
            capacity: self.capacity() as u64,
            entries: self.len() as u64,
            hits,
            misses,
            evictions: self.evictions.load(Ordering::Relaxed),
            hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        }
    }
}

/// Cache counters, as reported by `stats`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CacheStats {
    /// Maximum entries.
    pub capacity: u64,
    /// Entries currently held.
    pub entries: u64,
    /// Exact-key lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
    /// `hits / (hits + misses)`, 0 when no lookups happened.
    pub hit_rate: f64,
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn arc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn hit_returns_identical_bytes() {
        let c = PlanCache::new(16);
        assert!(c.get("k1", 1).is_none());
        c.insert("k1".into(), 1, arc("{\"a\":1}"));
        let hit = c.get("k1", 1).expect("cached");
        assert_eq!(&*hit, "{\"a\":1}");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn digest_collision_does_not_alias() {
        // Same digest, different keys: both must coexist and resolve by
        // exact key match.
        let c = PlanCache::new(16);
        c.insert("alpha".into(), 42, arc("A"));
        c.insert("beta".into(), 42, arc("B"));
        assert_eq!(&*c.get("alpha", 42).unwrap(), "A");
        assert_eq!(&*c.get("beta", 42).unwrap(), "B");
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        // Capacity 8 → 1 entry per shard; same digest pins one shard.
        let c = PlanCache::new(8);
        c.insert("old".into(), 7, arc("1"));
        c.insert("new".into(), 7, arc("2"));
        assert!(c.get("old", 7).is_none(), "oldest entry evicted");
        assert!(c.get("new", 7).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        let c = PlanCache::new(16); // 2 per shard
        c.insert("a".into(), 3, arc("A"));
        c.insert("b".into(), 3, arc("B"));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get("a", 3).is_some());
        c.insert("c".into(), 3, arc("C"));
        assert!(c.get("a", 3).is_some());
        assert!(c.get("b", 3).is_none());
        assert!(c.get("c", 3).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let c = PlanCache::new(8);
        c.insert("k".into(), 5, arc("v1"));
        c.insert("k".into(), 5, arc("v2"));
        assert_eq!(&*c.get("k", 5).unwrap(), "v2");
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.len(), 1);
    }
}

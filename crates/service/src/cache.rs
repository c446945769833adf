//! Bounded LRU caches with hit/miss/eviction accounting.
//!
//! Every shared cache in the compile service is one of these behind a
//! `Mutex`: a `HashMap` with a monotonically increasing use stamp per
//! entry. Lookups and inserts are O(1); eviction scans for the
//! least-recently-used entry, which is O(capacity) but only runs when
//! the cache is full — capacities are small (dozens to hundreds of
//! entries holding `Arc`s), so the scan never shows up next to a
//! compile.

use std::collections::HashMap;
use std::hash::Hash;

use serde::{Serialize, Value};

/// A point-in-time snapshot of one cache's counters, returned inside
/// every service response so clients can watch hit rates live.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed (entry absent or evicted).
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when no lookups have happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Serialize for CacheStats {
    fn serialize(&self) -> Value {
        Value::map([
            ("hits", Value::UInt(self.hits)),
            ("misses", Value::UInt(self.misses)),
            ("evictions", Value::UInt(self.evictions)),
            ("entries", Value::UInt(self.entries as u64)),
            ("capacity", Value::UInt(self.capacity as u64)),
        ])
    }
}

struct Slot<V> {
    value: V,
    last_use: u64,
}

/// A bounded least-recently-used map with instrumented lookups.
pub struct LruCache<K, V> {
    map: HashMap<K, Slot<V>>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, refreshing its recency. Counts a hit or miss.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.clock += 1;
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.last_use = self.clock;
                self.hits += 1;
                Some(slot.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used
    /// entry when the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_use)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Slot {
                value,
                last_use: self.clock,
            },
        );
    }

    /// Drops every entry (counters are preserved). The `service` cells
    /// of `bench_gate` use this to force repeated requests through the real compile
    /// path while keeping the other caches warm.
    pub fn flush(&mut self) {
        self.map.clear();
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

/// 64-bit FNV-1a over the input bytes, hex-encoded. The service's
/// content-address for request sources: deterministic, dependency-free
/// and fast; collisions would only cause a wrong *cache* answer for
/// adversarial twins, which the committed corpus and loadgen never
/// produce (and callers can always vary whitespace to split a cell).
pub fn content_hash(bytes: &[u8]) -> String {
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{state:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_misses_and_evictions_are_counted() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(3, 30); // evicts 2 (LRU: 1 was just touched)
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&3), Some(30));
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, 2);
    }

    #[test]
    fn recency_refresh_protects_hot_entries() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(10)); // 2 is now LRU
        cache.insert(3, 30);
        assert_eq!(cache.get(&1), Some(10), "hot entry survived");
        assert_eq!(cache.get(&2), None, "cold entry evicted");
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&2), Some(20));
    }

    #[test]
    fn flush_clears_entries_but_keeps_counters() {
        let mut cache: LruCache<u32, u32> = LruCache::new(4);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10));
        cache.flush();
        assert_eq!(cache.get(&1), None);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let a = content_hash(b"module main { }");
        assert_eq!(a, content_hash(b"module main { }"));
        assert_ne!(a, content_hash(b"module main {  }"));
        assert_eq!(a.len(), 16);
        // The well-known FNV-1a test vector.
        assert_eq!(content_hash(b""), "cbf29ce484222325");
    }

    #[test]
    fn hit_rate_rounds_sanely() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.insert(1, 1);
        let _ = cache.get(&1);
        let _ = cache.get(&2);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}

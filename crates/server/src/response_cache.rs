//! The sharded response cache.
//!
//! QCM and QSM answers over an immutable model are pure functions of the
//! request, so identical requests — the common case when many users type the
//! same prefixes — are served from a bounded LRU instead of re-searching the
//! suffix tree, re-scanning residual bins, or re-running SPARQL. Keys are
//! *normalized* request descriptions (lowercased trimmed completion terms,
//! canonical query renderings) so trivially different spellings of the same
//! request share an entry (the key functions live in `sapphire_core`, next to
//! the requests they describe). The sharding itself is
//! [`sapphire_core::ShardedLru`] — independently locked LRUs picked by key
//! hash, keeping contention proportional to actual key collisions rather
//! than global traffic.

use std::sync::Arc;

use sapphire_core::{CacheStats, ShardedLru};

/// A sharded, bounded, counted LRU keyed by normalized request strings.
///
/// Values are stored behind [`Arc`], so a hit hands back a reference-counted
/// pointer instead of deep-cloning a potentially large payload (QSM run
/// results carry full answer sets) while the shard lock is held.
#[derive(Debug)]
pub struct ShardedResponseCache<V> {
    lru: ShardedLru<String, Arc<V>>,
}

impl<V> ShardedResponseCache<V> {
    /// `shards` independent LRUs of `capacity_per_shard` entries each.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        ShardedResponseCache {
            lru: ShardedLru::new(shards, capacity_per_shard),
        }
    }

    /// Cached value for `key`, if present (counts a hit or miss).
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        self.lru.get(key)
    }

    /// Cached value for `key` without touching counters or recency (see
    /// [`sapphire_core::BoundedCache::peek`]).
    pub fn peek(&self, key: &str) -> Option<Arc<V>> {
        self.lru.peek(key)
    }

    /// Insert a response, handing back the shared pointer now holding it.
    pub fn insert(&self, key: String, value: V) -> Arc<V> {
        let value = Arc::new(value);
        self.lru.insert(key, value.clone());
        value
    }

    /// Aggregated counters across all shards.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// Total live entries across all shards.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_roundtrip_with_stats() {
        let cache: ShardedResponseCache<u32> = ShardedResponseCache::new(4, 8);
        assert_eq!(cache.get("a"), None);
        cache.insert("a".into(), 1);
        assert_eq!(cache.get("a").as_deref(), Some(&1));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn bounded_across_shards() {
        let cache: ShardedResponseCache<u32> = ShardedResponseCache::new(2, 4);
        for i in 0..1000 {
            cache.insert(format!("key-{i}"), i);
        }
        assert!(cache.len() <= 8, "2 shards x 4 entries");
        assert!(cache.stats().evictions > 0);
    }
}

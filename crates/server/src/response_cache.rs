//! The sharded response cache.
//!
//! QCM and QSM answers over an immutable model are pure functions of the
//! request, so identical requests — the common case when many users type the
//! same prefixes — are served from a bounded LRU instead of re-searching the
//! suffix tree, re-scanning residual bins, or re-running SPARQL. The serving
//! tiers key it by [`sapphire_core::RequestKey`], the structural key of the
//! normalized request (a trimmed completion term with its `k`, a built query
//! with its tier): it hashes once when it is made, and trivially different
//! spellings of one request share an entry. The sharding itself is
//! [`sapphire_core::ShardedLru`] — independently locked LRUs picked by key
//! hash, keeping contention proportional to actual key collisions rather
//! than global traffic.

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::Arc;

use sapphire_core::{CacheStats, ShardedLru};

/// A sharded, bounded, counted LRU keyed by normalized requests (`K`;
/// plain strings unless a caller names a key type).
///
/// Values are stored behind [`Arc`], so a hit hands back a reference-counted
/// pointer instead of deep-cloning a potentially large payload (QSM run
/// results carry full answer sets) while the shard lock is held.
#[derive(Debug)]
pub struct ShardedResponseCache<V, K = String> {
    lru: ShardedLru<K, Arc<V>>,
}

impl<V, K: Clone + Eq + Hash> ShardedResponseCache<V, K> {
    /// `shards` independent LRUs of `capacity_per_shard` entries each.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        ShardedResponseCache {
            lru: ShardedLru::new(shards, capacity_per_shard),
        }
    }

    /// Cached value for `key`, if present (counts a hit or miss).
    pub fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
    {
        self.lru.get(key)
    }

    /// Cached value for `key` without touching counters or recency (see
    /// [`sapphire_core::BoundedCache::peek`]).
    pub fn peek<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
    {
        self.lru.peek(key)
    }

    /// Insert a response, handing back the shared pointer now holding it.
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
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

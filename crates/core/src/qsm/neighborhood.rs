//! The shared cross-request neighborhood cache for Steiner expansion.
//!
//! Every expansion step of Algorithm 3 costs SPARQL round trips (one for the
//! incoming edges of a vertex, one more for the outgoing edges of an IRI) —
//! the very cost the paper's 100-query budget exists to bound. But the
//! *result* of an expansion is a pure function of the immutable dataset: the
//! neighbor list of `res:Kerouac` is the same for every request that ever
//! explores it. A serving tier handling many concurrent relaxations can
//! therefore amortize expansions across requests: the first request to
//! expand a vertex pays the round trips and publishes the neighbor list
//! here; every later request — any session, any thread — gets the list as a
//! pointer bump.
//!
//! **Determinism is preserved by charging budget as if the queries ran.**
//! The exploration frontier of Algorithm 3 depends on `budget_left` (both
//! the per-expansion affordability check and the sibling-fan-out heuristic),
//! so a cache hit that cost *nothing* would let a warm run explore further
//! than a cold one and produce a different tree. A hit instead debits
//! exactly the budget a cold expansion of that vertex would have debited —
//! the search makes byte-identical decisions, only the round trips are
//! skipped. The savings are visible in [`NeighborhoodStats::queries_saved`],
//! not in the relaxation output.
//!
//! Sharded like the server's response cache (the same
//! [`ShardedLru`] of independently locked LRUs), so
//! concurrent relaxations contend only on actual key collisions. Values are
//! `Arc`'d so a hit never deep-clones a neighbor list under the shard lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sapphire_rdf::Term;

use crate::cache::ShardedLru;

/// One discovered neighbor of an expanded vertex:
/// `(neighbor, predicate, outgoing-from-the-expanded-vertex?)`.
pub type Neighbor = (Term, Term, bool);

/// Counter snapshot of a [`NeighborhoodCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeighborhoodStats {
    /// Expansions served from the cache (no SPARQL issued).
    pub hits: u64,
    /// Expansions that found no cached neighbor list.
    pub misses: u64,
    /// Neighbor lists published into the cache.
    pub fills: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// SPARQL expansion queries actually executed (cold expansions).
    pub queries_executed: u64,
    /// SPARQL expansion queries *not* executed because the neighbor list was
    /// cached — the budget was still charged (see the module docs), so this
    /// is pure round-trip savings.
    pub queries_saved: u64,
}

impl NeighborhoodStats {
    /// Hit ratio in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Shards of each of the QSM's three cross-request memo caches: this one
/// and the two Algorithm-2 alternative caches inside `AlternativeFinder`.
pub const MEMO_CACHE_SHARDS: usize = 16;

/// A bounded, sharded, concurrent map `Term → Arc<Vec<Neighbor>>` shared by
/// every Steiner relaxation running against one model.
#[derive(Debug)]
pub struct NeighborhoodCache {
    shards: ShardedLru<Term, Arc<Vec<Neighbor>>>,
    fills: AtomicU64,
    queries_executed: AtomicU64,
    queries_saved: AtomicU64,
}

impl NeighborhoodCache {
    /// `shards` independent LRUs of `capacity_per_shard` entries each.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        NeighborhoodCache {
            shards: ShardedLru::new(shards, capacity_per_shard),
            fills: AtomicU64::new(0),
            queries_executed: AtomicU64::new(0),
            queries_saved: AtomicU64::new(0),
        }
    }

    /// The cached neighbor list of `term`, if any (counts a hit or miss and
    /// refreshes LRU recency).
    pub fn get(&self, term: &Term) -> Option<Arc<Vec<Neighbor>>> {
        self.shards.get(term)
    }

    /// Publish the neighbor list of `term`.
    pub fn fill(&self, term: Term, neighbors: Arc<Vec<Neighbor>>) {
        self.fills.fetch_add(1, Ordering::Relaxed);
        self.shards.insert(term, neighbors);
    }

    /// Record `n` SPARQL expansion queries actually executed.
    pub fn note_executed(&self, n: u64) {
        self.queries_executed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` SPARQL expansion queries skipped thanks to a hit.
    pub fn note_saved(&self, n: u64) {
        self.queries_saved.fetch_add(n, Ordering::Relaxed);
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot, aggregated across shards.
    pub fn stats(&self) -> NeighborhoodStats {
        let lru = self.shards.stats();
        NeighborhoodStats {
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            fills: self.fills.load(Ordering::Relaxed),
            queries_executed: self.queries_executed.load(Ordering::Relaxed),
            queries_saved: self.queries_saved.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn neighbor(name: &str) -> Neighbor {
        (Term::iri(name), Term::iri("p"), true)
    }

    #[test]
    fn hit_miss_fill_counters() {
        let cache = NeighborhoodCache::new(4, 8);
        let v = Term::iri("v");
        assert!(cache.get(&v).is_none());
        cache.fill(v.clone(), Arc::new(vec![neighbor("a"), neighbor("b")]));
        let hit = cache.get(&v).expect("filled entry");
        assert_eq!(hit.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.fills), (1, 1, 1));
        assert!((stats.hit_ratio() - 0.5).abs() < f64::EPSILON);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn bounded_across_shards() {
        let cache = NeighborhoodCache::new(2, 4);
        for i in 0..100 {
            cache.fill(Term::iri(format!("v{i}")), Arc::new(Vec::new()));
        }
        assert!(cache.len() <= 8, "2 shards x 4 entries");
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn hits_are_pointer_bumps() {
        let cache = NeighborhoodCache::new(1, 4);
        let v = Term::iri("v");
        let list = Arc::new(vec![neighbor("a")]);
        cache.fill(v.clone(), list.clone());
        let hit = cache.get(&v).unwrap();
        assert!(Arc::ptr_eq(&hit, &list), "no deep clone on a hit");
    }

    #[test]
    fn query_accounting() {
        let cache = NeighborhoodCache::new(1, 4);
        cache.note_executed(2);
        cache.note_saved(4);
        let stats = cache.stats();
        assert_eq!(stats.queries_executed, 2);
        assert_eq!(stats.queries_saved, 4);
    }
}

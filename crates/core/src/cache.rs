//! The per-endpoint data cache assembled during initialization (§5).
//!
//! Holds the three structures the PUM reads: the predicate table (all
//! predicates — there are few), the suffix tree (predicates + the most
//! significant literals), and the residual bins (every other cached literal,
//! keyed by length).

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use sapphire_suffix::SuffixTree;
use sapphire_text::{surface_form, SimilarityProbe};

use crate::bins::{FoldedArena, FoldedLiteral, FoldedNeedle, LitId, ResidualBins};
use crate::config::SapphireConfig;

/// Hit/miss/eviction counters of a [`BoundedCache`].
///
/// The init-time structures in this module ([`CachedData`]) are bounded by
/// construction — the suffix tree is capped at
/// [`SapphireConfig::suffix_tree_capacity`] strings and the residual bins
/// hold the remainder of a corpus fixed at initialization, so neither grows
/// at serving time. Anything cached *per request* (QCM completions, QSM run
/// results) would grow without bound, which is why the serving layer's
/// response cache is built on [`BoundedCache`] below.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an evicted entry).
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

impl CacheStats {
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

/// Hash `key` onto one of `n` shards — the one shard picker behind every
/// sharded map in the workspace ([`ShardedLru`] here; the serving tier's
/// single-flight map and tenant meters), so shard selection can only ever
/// change in one place.
pub fn shard_index<K: Hash + ?Sized>(key: &K, n: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) % n
}

/// A sharded, concurrent [`BoundedCache`]: each shard is an independently
/// locked LRU, so contention is proportional to key collisions rather than
/// total traffic. The one sharded LRU behind this crate's cross-request QSM
/// caches (the Steiner [`NeighborhoodCache`](crate::qsm::NeighborhoodCache)
/// and the Algorithm-2 alternative memos) and the serving tier's response
/// cache.
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<std::sync::Mutex<BoundedCache<K, V>>>,
}

impl<K: Clone + Eq + Hash, V: Clone> ShardedLru<K, V> {
    /// `shards` independent LRUs of `capacity_per_shard` entries each.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        ShardedLru {
            shards: (0..shards.clamp(1, 1024))
                .map(|_| std::sync::Mutex::new(BoundedCache::new(capacity_per_shard)))
                .collect(),
        }
    }

    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &std::sync::Mutex<BoundedCache<K, V>> {
        &self.shards[shard_index(key, self.shards.len())]
    }

    /// Cached value for `key`, if present (counts a hit or miss, refreshes
    /// recency). Accepts borrowed key forms, like [`BoundedCache::get`].
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        self.shard(key).lock().unwrap().get(key).cloned()
    }

    /// Cached value for `key` without touching counters or recency (see
    /// [`BoundedCache::peek`]).
    pub fn peek<Q>(&self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard(key).lock().unwrap().peek(key).cloned()
    }

    /// Insert (or replace) an entry.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key).lock().unwrap().insert(key, value);
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().unwrap().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }
}

/// A capacity-bounded LRU map with hit/miss/eviction counters.
///
/// Recency is tracked with monotonically increasing stamps plus a lazily
/// pruned queue, giving amortized O(1) `get`/`insert` without a linked list.
/// The structure is single-threaded by design; concurrent users (the server's
/// sharded response cache) wrap shards in their own locks.
#[derive(Debug)]
pub struct BoundedCache<K, V> {
    capacity: usize,
    entries: HashMap<K, (V, u64)>,
    /// `(stamp, key)` in stamp order; stale pairs (stamp no longer current
    /// for the key) are skipped during eviction.
    order: VecDeque<(u64, K)>,
    next_stamp: u64,
    stats: CacheStats,
}

impl<K: Clone + Eq + Hash, V> BoundedCache<K, V> {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: VecDeque::new(),
            next_stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Maximum number of live entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn touch(&mut self, key: K) -> u64 {
        // Keep the queue from accumulating unbounded stale pairs. This runs
        // here rather than in insert() because get() also touches: a
        // hit-dominated steady state (the response cache's target workload)
        // may go arbitrarily long between inserts, and the queue must stay
        // bounded regardless. Compact *before* pushing so the fresh pair —
        // not yet reflected in `entries` — survives the retain.
        if self.order.len() > self.capacity.saturating_mul(4).max(64) {
            self.compact();
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.push_back((stamp, key));
        stamp
    }

    /// Look up `key`, refreshing its recency on a hit. Accepts borrowed key
    /// forms (`&str` for `String` keys) so hot paths don't allocate just to
    /// probe the cache.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if self.entries.contains_key(key) {
            self.stats.hits += 1;
            let stamp = self.touch(key.to_owned());
            let entry = self.entries.get_mut(key).expect("entry present");
            entry.1 = stamp;
            Some(&entry.0)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Look up `key` *without* counting a hit/miss or refreshing recency.
    ///
    /// For re-checks that must not distort observability — e.g. a
    /// single-flight leader confirming nobody filled the cache between its
    /// counted miss and its election; counting that probe would charge every
    /// cold key two misses.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries.get(key).map(|(value, _)| value)
    }

    /// Insert (or replace) an entry, evicting the least recently used entry
    /// if the cache is over capacity.
    pub fn insert(&mut self, key: K, value: V) {
        let stamp = self.touch(key.clone());
        self.entries.insert(key, (value, stamp));
        while self.entries.len() > self.capacity {
            match self.order.pop_front() {
                Some((stamp, key)) => {
                    // Only evict if this is the key's *current* stamp;
                    // otherwise the pair is a stale residue of a later touch.
                    if self.entries.get(&key).is_some_and(|(_, s)| *s == stamp) {
                        self.entries.remove(&key);
                        self.stats.evictions += 1;
                    }
                }
                None => break,
            }
        }
    }

    fn compact(&mut self) {
        let entries = &self.entries;
        self.order
            .retain(|(stamp, key)| entries.get(key).is_some_and(|(_, s)| s == stamp));
    }
}

/// A cached RDFS/OWL class, discovered by initialization query Q2 (or the
/// Q3 type fallback). Users express `rdf:type` constraints with keywords
/// ("scientist"), which resolve against these surface forms — the paper's
/// intro example requires exactly this mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedClass {
    /// Full class IRI.
    pub iri: String,
    /// Keyword surface form (`ChessPlayer` → `chess player`).
    pub surface: String,
}

/// A cached RDF predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPredicate {
    /// Full predicate IRI.
    pub iri: String,
    /// Human-readable surface form (`almaMater` → `alma mater`), the text
    /// users type keywords against.
    pub surface: String,
    /// Number of literals associated with this predicate (from init query
    /// Q4); drives retrieval priority.
    pub literal_count: u64,
}

/// What a suffix-tree string refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeEntry {
    /// Index into [`CachedData::predicates`].
    Predicate(usize),
    /// A significant literal.
    Literal,
}

/// Where a completion/alternative was found — reported so response-time
/// experiments can attribute latency (§7.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchSource {
    /// Hit in the suffix tree.
    SuffixTree,
    /// Found by scanning residual bins.
    ResidualBins,
}

/// A string from the cache matching a lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheMatch {
    /// The matched text (predicate surface form or literal value).
    pub text: String,
    /// Predicate IRI if the match is a predicate.
    pub predicate_iri: Option<String>,
    /// Where it came from.
    pub source: MatchSource,
}

/// The assembled cache for one endpoint.
pub struct CachedData {
    /// All predicates of the dataset (Q1/Q4 results), most-frequent first.
    pub predicates: Vec<CachedPredicate>,
    /// Residual literals in length bins.
    pub bins: ResidualBins,
    /// Suffix tree over predicate surfaces + significant literals.
    pub tree: SuffixTree,
    /// Parallel to the tree's string ids.
    tree_entries: Vec<TreeEntry>,
    /// The significant literals (also indexed in the tree), with scores.
    pub significant: Vec<(String, u64)>,
    /// Known classes (for rdf:type keyword resolution).
    pub classes: Vec<CachedClass>,
    /// Case-folded predicate surface → lowest index in `predicates` with it.
    predicate_by_surface: HashMap<String, usize>,
    /// Case-folded class surface → lowest index in `classes` with it.
    class_by_surface: HashMap<String, usize>,
    /// What the similarity sweeps read, folded once at assembly: the
    /// `str::to_lowercase` of each predicate surface, class surface and
    /// significant literal, and each significant literal's `char` length.
    predicate_folded: FoldedArena,
    class_folded: FoldedArena,
    significant_folded: FoldedArena,
    significant_char_lens: Vec<usize>,
}

/// Case-folded surface → the lowest index carrying it. Folded with
/// `str::to_lowercase`, which is what the similarity sweeps fold with.
fn surface_index(folded: &FoldedArena) -> HashMap<String, usize> {
    let mut index = HashMap::new();
    for i in 0..folded.len() {
        index.entry(folded.get(i).to_string()).or_insert(i);
    }
    index
}

/// Indices of the folded surfaces Jaro-Winkler-similar to `s` at `theta`,
/// best first (ties keep index order).
fn similar_surfaces(folded: &FoldedArena, s: &str, theta: f64) -> Vec<(usize, f64)> {
    let mut probe = SimilarityProbe::new(s);
    let mut out: Vec<(usize, f64)> = (0..folded.len())
        .filter_map(|i| Some((i, probe.similarity(folded.get(i), theta)?)))
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// `s`'s entry in a [`surface_index`], else the head of `sweep`.
fn exact_or_swept(
    index: &HashMap<String, usize>,
    s: &str,
    sweep: impl FnOnce() -> Vec<(usize, f64)>,
) -> Option<usize> {
    let exact = index.get(&s.to_lowercase()).copied();
    exact.or_else(|| sweep().first().map(|&(idx, _)| idx))
}

impl CachedData {
    /// Assemble a cache from initialization results.
    ///
    /// `literals` pairs each cached literal with its significance score
    /// (Definition 1); the top [`SapphireConfig::suffix_tree_capacity`] by
    /// score go into the suffix tree and the rest become residual. Scores
    /// decide only that cut: the residual literals enter their bins in text
    /// order, whatever they scored.
    pub fn assemble(
        predicates: Vec<CachedPredicate>,
        mut literals: Vec<(String, u64)>,
        config: &SapphireConfig,
    ) -> Self {
        // Deduplicate literal values, keeping the highest score.
        literals.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        literals.dedup_by(|a, b| a.0 == b.0);
        // Significance order: highest score first, ties by shorter text.
        let by_text = |a: &(String, u64), b: &(String, u64)| {
            a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0))
        };
        literals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| by_text(a, b)));

        let split = literals.len().min(config.suffix_tree_capacity);
        let mut residual = literals.split_off(split);
        residual.sort_by(by_text);
        let significant = literals;

        let mut tree = SuffixTree::new();
        let mut tree_entries = Vec::new();
        for (i, p) in predicates.iter().enumerate() {
            tree.insert(p.surface.clone());
            tree_entries.push(TreeEntry::Predicate(i));
        }
        for (text, _) in &significant {
            tree.insert(text.clone());
            tree_entries.push(TreeEntry::Literal);
        }

        let mut bins = ResidualBins::new();
        for (text, _) in residual {
            bins.add(text);
        }

        let predicate_folded: FoldedArena = predicates.iter().map(|p| p.surface.as_str()).collect();
        CachedData {
            predicate_by_surface: surface_index(&predicate_folded),
            predicate_folded,
            significant_folded: significant.iter().map(|(text, _)| text.as_str()).collect(),
            significant_char_lens: significant
                .iter()
                .map(|(text, _)| text.chars().count())
                .collect(),
            predicates,
            bins,
            tree,
            tree_entries,
            significant,
            classes: Vec::new(),
            class_by_surface: HashMap::new(),
            class_folded: FoldedArena::default(),
        }
    }

    /// Attach the classes discovered during initialization.
    pub fn with_classes(mut self, classes: Vec<CachedClass>) -> Self {
        self.class_folded = classes.iter().map(|c| c.surface.as_str()).collect();
        self.class_by_surface = surface_index(&self.class_folded);
        self.classes = classes;
        self
    }

    /// The class a keyword names: `similar_classes(s, theta).first()`,
    /// without the sweep when `s` is a class's surface form up to case.
    ///
    /// Jaro-Winkler is 1.0 exactly when the folded strings are equal, so an
    /// exact surface outranks every other class at any `theta <= 1`, and the
    /// sweep's stable sort breaks a tie between equal surfaces towards the
    /// lowest index — the one the surface index keeps.
    pub fn best_class(&self, s: &str, theta: f64) -> Option<usize> {
        debug_assert!(theta <= 1.0);
        exact_or_swept(&self.class_by_surface, s, || self.similar_classes(s, theta))
    }

    /// Classes whose surface form is Jaro-Winkler-similar to `s`.
    pub fn similar_classes(&self, s: &str, theta: f64) -> Vec<(usize, f64)> {
        similar_surfaces(&self.class_folded, s, theta)
    }

    /// Build a cache directly from raw predicate IRIs and literal/score pairs
    /// (used by tests and the warehouse path).
    pub fn from_raw(
        predicate_iris: Vec<(String, u64)>,
        literals: Vec<(String, u64)>,
        config: &SapphireConfig,
    ) -> Self {
        let predicates = predicate_iris
            .into_iter()
            .map(|(iri, literal_count)| CachedPredicate {
                surface: surface_form(&iri),
                iri,
                literal_count,
            })
            .collect();
        Self::assemble(predicates, literals, config)
    }

    /// Total number of cached literals (significant + residual).
    pub fn literal_count(&self) -> usize {
        self.significant.len() + self.bins.len()
    }

    /// Number of strings in the suffix tree (predicates + significant
    /// literals; the paper reports 43K = 3K + 40K for DBpedia).
    pub fn tree_string_count(&self) -> usize {
        self.tree.len()
    }

    /// Substring lookup in the suffix tree, capped at `limit`.
    pub fn tree_lookup(&self, t: &str, limit: usize) -> Vec<CacheMatch> {
        self.tree
            .find_containing(t, limit)
            .into_iter()
            .map(|sid| {
                let text = self.tree.string(sid).to_string();
                let predicate_iri = match self.tree_entries[sid as usize] {
                    TreeEntry::Predicate(i) => Some(self.predicates[i].iri.clone()),
                    TreeEntry::Literal => None,
                };
                CacheMatch {
                    text,
                    predicate_iri,
                    source: MatchSource::SuffixTree,
                }
            })
            .collect()
    }

    /// Case-insensitive substring scan of the residual bins restricted to
    /// lengths `|t| ..= |t| + gamma`, parallelized over `processes` workers.
    /// Returns matched literal ids (scores unused for containment).
    pub fn residual_lookup(&self, t: &str, gamma: usize, processes: usize) -> Vec<LitId> {
        let len = t.chars().count();
        let needle = FoldedNeedle::new(t);
        self.bins
            .scan_parallel(len..len + gamma + 1, processes, || {
                |lit: FoldedLiteral<'_>| lit.contains(&needle).then_some(0.0)
            })
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Predicates whose surface form (or their lexica, supplied by the
    /// caller) is Jaro-Winkler-similar to `s` at threshold `theta`.
    /// Predicates are few, so this is a plain scan (the paper stores them
    /// entirely in memory for the same reason).
    pub fn similar_predicates(&self, s: &str, theta: f64) -> Vec<(usize, f64)> {
        similar_surfaces(&self.predicate_folded, s, theta)
    }

    /// The predicate a keyword names: `similar_predicates(s, theta).first()`,
    /// answered from the surface index when `s` is a predicate's surface form
    /// up to case (see [`best_class`](Self::best_class) for why that is the
    /// same answer).
    pub fn best_predicate(&self, s: &str, theta: f64) -> Option<usize> {
        debug_assert!(theta <= 1.0);
        exact_or_swept(&self.predicate_by_surface, s, || {
            self.similar_predicates(s, theta)
        })
    }

    /// Literals (residual bins *and* significant set) Jaro-Winkler-similar to
    /// `l` at threshold `theta`, searching lengths `|l|-alpha ..= |l|+beta`.
    pub fn similar_literals(
        &self,
        l: &str,
        alpha: usize,
        beta: usize,
        theta: f64,
        processes: usize,
    ) -> Vec<(String, f64)> {
        let len = l.chars().count();
        let lo = len.saturating_sub(alpha);
        let hi = len + beta;
        let mut probe = SimilarityProbe::new(l);
        let mut out: Vec<(String, f64)> = self
            .bins
            .scan_parallel(lo..hi + 1, processes, || {
                let mut probe = probe.clone();
                move |lit: FoldedLiteral<'_>| probe.similarity(lit.text(), theta)
            })
            .into_iter()
            .map(|(id, score)| (self.bins.literal(id).to_string(), score))
            .collect();
        for (i, (text, _)) in self.significant.iter().enumerate() {
            if !(lo..=hi).contains(&self.significant_char_lens[i]) {
                continue;
            }
            if let Some(score) = probe.similarity(self.significant_folded.get(i), theta) {
                out.push((text.clone(), score));
            }
        }
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out.dedup_by(|a, b| a.0 == b.0);
        out
    }

    /// Look up a predicate by IRI.
    pub fn predicate_by_iri(&self, iri: &str) -> Option<&CachedPredicate> {
        self.predicates.iter().find(|p| p.iri == iri)
    }
}

// --- Normalized request keys -----------------------------------------------
//
// QCM and QSM answers over an immutable model are pure functions of the
// request, so every layer that memoizes or deduplicates them (the serving
// tier's response cache, its single-flight coalescer) must agree on what
// "the same request" means. These helpers are that single definition:
// trivially different spellings of one request map to one key, and the
// class prefix (separated by an unprintable byte) keeps QCM and QSM keys
// from ever colliding.

/// Normalize a QCM completion term into a request key: trimmed — and
/// nothing more — so `" Kennedy "` and `"Kennedy"` share one cache entry
/// and one in-flight scan.
///
/// Deliberately **case-preserving**: the suffix-tree stage of
/// [`complete_top`](crate::qcm::QueryCompletion::complete_top) matches
/// case-sensitively (only the residual-bin stage folds case), so `"T"` and
/// `"t"` are *different requests* with different answers. An earlier
/// lowercasing key conflated them, and under concurrency whichever spelling
/// scanned first poisoned the shared cache entry for the other — the
/// evented-front-end oracle test caught the divergence as nondeterminism.
pub fn completion_request_key(term: &str) -> String {
    format!("qcm\u{1}{}", term.trim())
}

/// Normalize a built query into a request key. Uses the query's structural
/// debug rendering, which is stable and canonical for our AST (keyword
/// predicates are already resolved to IRIs by the time a query is built).
pub fn run_request_key(query: &impl std::fmt::Debug) -> String {
    format!("run\u{1}{query:?}")
}

/// [`run_request_key`] suffixed with the QSM budget tier the run executes
/// at. Tier 0 (the full budget — the only tier a non-shedding deployment
/// ever runs) keeps the plain key, so existing entries and oracles are
/// untouched; degraded tiers get a distinct key, so a response cache or
/// single-flight coalescer can never hand full-budget callers a degraded
/// payload or vice versa — the same never-disagree key discipline the
/// QCM/QSM split uses.
pub fn run_request_key_tier(query: &impl std::fmt::Debug, tier: usize) -> String {
    let base = run_request_key(query);
    if tier == 0 {
        base
    } else {
        format!("{base}\u{1}tier{tier}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cache() -> CachedData {
        let config = SapphireConfig {
            suffix_tree_capacity: 3,
            processes: 2,
            ..SapphireConfig::for_tests()
        };
        CachedData::from_raw(
            vec![
                ("http://dbpedia.org/ontology/almaMater".into(), 50),
                ("http://dbpedia.org/ontology/birthPlace".into(), 40),
                ("http://dbpedia.org/ontology/spouse".into(), 30),
            ],
            vec![
                ("New York".into(), 100),
                ("Kennedy".into(), 90),
                ("Boston".into(), 80),
                ("Kennedys of Massachusetts".into(), 2),
                ("Kenneth".into(), 1),
                ("York Minster".into(), 1),
            ],
            &config,
        )
    }

    #[test]
    fn assemble_splits_by_significance() {
        let c = sample_cache();
        assert_eq!(c.significant.len(), 3);
        assert_eq!(c.significant[0].0, "New York");
        assert_eq!(c.bins.len(), 3);
        // Tree holds 3 predicates + 3 significant literals.
        assert_eq!(c.tree_string_count(), 6);
        assert_eq!(c.literal_count(), 6);
    }

    #[test]
    fn tree_lookup_distinguishes_predicates() {
        let c = sample_cache();
        let matches = c.tree_lookup("mater", 10);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].text, "alma mater");
        assert_eq!(
            matches[0].predicate_iri.as_deref(),
            Some("http://dbpedia.org/ontology/almaMater")
        );
        let matches = c.tree_lookup("York", 10);
        assert!(matches.iter().all(|m| m.predicate_iri.is_none()));
        assert_eq!(matches.len(), 1, "York Minster is residual, not in tree");
    }

    #[test]
    fn residual_lookup_is_case_insensitive_and_length_bounded() {
        let c = sample_cache();
        // "kenne" (5 chars) with gamma 10 covers lengths 5..=15: "Kenneth" (7).
        let ids = c.residual_lookup("kenne", 10, 2);
        let texts: Vec<&str> = ids.iter().map(|&id| c.bins.literal(id)).collect();
        assert_eq!(texts, vec!["Kenneth"]);
        // Gamma large enough to reach "Kennedys of Massachusetts" (25).
        let ids = c.residual_lookup("kenne", 20, 2);
        assert_eq!(ids.len(), 2);
    }

    /// A mixed-case, partly non-ASCII corpus of `n` literals in one narrow
    /// length band, so a lookup's band holds nearly all of it.
    fn mixed_corpus(n: usize) -> CachedData {
        let stems = ["Kennedy", "ΟΔΟΣ", "İstanbul", "Straße", "kenneth", "ÉCOLE"];
        let literals = (0..n)
            .map(|i| (format!("{} {i:07}", stems[i % stems.len()]), 0))
            .collect();
        let config = SapphireConfig {
            suffix_tree_capacity: 0,
            ..SapphireConfig::for_tests()
        };
        CachedData::from_raw(vec![], literals, &config)
    }

    #[test]
    fn residual_lookup_equals_the_naive_scan_on_both_sides_of_the_threshold() {
        use crate::bins::INLINE_SCAN_THRESHOLD;
        for n in [INLINE_SCAN_THRESHOLD / 8, INLINE_SCAN_THRESHOLD + 64] {
            let c = mixed_corpus(n);
            for needle in [
                "KENNE", "enne", "οδοσ", "ΟΔΟΣ", "İ", "i̇stan", "SS", "ß", "éco", "7", "zz", "",
            ] {
                let len = needle.chars().count();
                let band = len..=len + 20;
                let folded = needle.to_lowercase();
                let mut naive: Vec<LitId> = (0..c.bins.len() as LitId)
                    .filter(|&id| {
                        band.contains(&c.bins.char_len(id))
                            && c.bins.literal(id).to_lowercase().contains(&folded)
                    })
                    .collect();
                for p in 1..6 {
                    let mut got = c.residual_lookup(needle, 20, p);
                    if p == 1 {
                        // One worker walks bins in length order, each in
                        // insertion order — the order the parent returned.
                        let key = |&id: &LitId| (c.bins.char_len(id), id);
                        naive.sort_by_key(key);
                        assert_eq!(got, naive, "n {n} needle {needle:?}");
                    }
                    got.sort_unstable();
                    naive.sort_unstable();
                    assert_eq!(got, naive, "n {n} needle {needle:?} P {p}");
                }
            }
            assert!(!c.residual_lookup("kenne", 20, 2).is_empty());
            assert!(!c.residual_lookup("οδος", 20, 2).is_empty());
        }
    }

    #[test]
    fn similar_literals_equals_the_pairwise_reference() {
        let c = mixed_corpus(600);
        for probe in ["Kennedys 0000012", "οδοσ 0000100", "strasse 0000004", "zzz"] {
            for theta in [0.5, 0.7, 0.85, 1.0] {
                let len = probe.chars().count();
                let mut reference: Vec<(String, f64)> = (0..c.bins.len() as LitId)
                    .map(|id| c.bins.literal(id))
                    .filter(|lit| (len.saturating_sub(2)..=len + 3).contains(&lit.chars().count()))
                    .map(|lit| (lit.to_string(), sapphire_text::jaro_winkler_ci(probe, lit)))
                    .filter(|&(_, score)| score >= theta)
                    .collect();
                reference.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                for p in [1, 3] {
                    let got = c.similar_literals(probe, 2, 3, theta, p);
                    assert_eq!(got, reference, "{probe:?} θ {theta} P {p}");
                }
            }
        }
        assert!(!c
            .similar_literals("Kennedys 0000012", 2, 3, 0.7, 2)
            .is_empty());
    }

    #[test]
    fn similar_predicates_ranked_by_jw() {
        let c = sample_cache();
        let sims = c.similar_predicates("birth place", 0.7);
        assert!(!sims.is_empty());
        assert_eq!(
            c.predicates[sims[0].0].iri,
            "http://dbpedia.org/ontology/birthPlace"
        );
    }

    #[test]
    fn best_predicate_and_class_are_the_head_of_the_sweep() {
        let predicate = |iri: &str, surface: &str| CachedPredicate {
            iri: iri.into(),
            surface: surface.into(),
            literal_count: 1,
        };
        let class = |iri: &str, surface: &str| CachedClass {
            iri: iri.into(),
            surface: surface.into(),
        };
        let c = CachedData::assemble(
            vec![
                predicate("http://x/deathPlace", "death place"),
                predicate("http://a/birthPlace", "Birth Place"),
                predicate("http://b/birthPlace", "birth place"),
            ],
            Vec::new(),
            &SapphireConfig::for_tests(),
        )
        .with_classes(vec![
            class("http://x/Person", "person"),
            class("http://x/ChessPlayer", "chess player"),
        ]);
        let head = |sweep: Vec<(usize, f64)>| sweep.first().map(|&(idx, _)| idx);
        // Equal up to case: the lowest index among the equal surfaces, which
        // is where the sweep's stable sort leaves it.
        for keyword in ["birth place", "BIRTH PLACE", "Birth Place"] {
            assert_eq!(c.best_predicate(keyword, 0.85), Some(1));
            assert_eq!(head(c.similar_predicates(keyword, 0.85)), Some(1));
        }
        assert_eq!(c.best_class("Chess Player", 0.8), Some(1));
        // Not a surface: the sweep decides, including that nothing matches.
        for keyword in ["birth plase", "deth place", "zzz", ""] {
            let swept = head(c.similar_predicates(keyword, 0.85));
            assert_eq!(c.best_predicate(keyword, 0.85), swept, "{keyword:?}");
            let swept = head(c.similar_classes(keyword, 0.8));
            assert_eq!(c.best_class(keyword, 0.8), swept, "{keyword:?}");
        }
        assert_eq!(c.best_predicate("birth plase", 0.85), Some(1));
        assert_eq!(c.best_predicate("zzz", 0.85), None);
    }

    #[test]
    fn similar_literals_finds_kennedy_for_kennedys() {
        let c = sample_cache();
        let sims = c.similar_literals("Kennedys", 2, 3, 0.7, 2);
        assert!(
            sims.iter().any(|(t, _)| t == "Kennedy"),
            "significant literal reachable: {sims:?}"
        );
        assert!(
            sims.iter().any(|(t, _)| t == "Kenneth"),
            "residual literal reachable"
        );
        // Sorted by score: "Kennedy" ranks above "Kenneth".
        let kennedy = sims.iter().position(|(t, _)| t == "Kennedy").unwrap();
        let kenneth = sims.iter().position(|(t, _)| t == "Kenneth").unwrap();
        assert!(kennedy < kenneth);
    }

    #[test]
    fn duplicate_literals_keep_highest_score() {
        let config = SapphireConfig {
            suffix_tree_capacity: 1,
            ..SapphireConfig::for_tests()
        };
        let c = CachedData::from_raw(
            vec![],
            vec![("dup".into(), 1), ("dup".into(), 99), ("other".into(), 5)],
            &config,
        );
        assert_eq!(c.literal_count(), 2);
        assert_eq!(c.significant[0], ("dup".to_string(), 99));
    }

    #[test]
    fn predicate_by_iri() {
        let c = sample_cache();
        assert!(c
            .predicate_by_iri("http://dbpedia.org/ontology/spouse")
            .is_some());
        assert!(c.predicate_by_iri("http://nope/").is_none());
    }

    #[test]
    fn bounded_cache_evicts_lru() {
        let mut c: BoundedCache<&str, u32> = BoundedCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh "a" — "b" is now LRU
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"b"), None, "least recently used entry evicted");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        let stats = c.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn bounded_cache_replace_does_not_grow() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(4);
        for i in 0..100 {
            c.insert(1, i);
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(&99));
        assert_eq!(c.stats().evictions, 0, "replacing a key never evicts");
    }

    #[test]
    fn bounded_cache_never_exceeds_capacity() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(8);
        for i in 0..1000 {
            c.insert(i % 50, i);
            assert!(c.len() <= 8);
            // Interleave lookups so recency stamps churn the order queue.
            c.get(&(i % 7));
        }
        assert!(c.order.len() <= 8 * 4 + 50, "stale stamps are compacted");
        assert!(c.stats().hit_ratio() > 0.0);
    }

    #[test]
    fn bounded_cache_hit_only_workload_keeps_order_bounded() {
        // A long-running server serving mostly cache hits never inserts, so
        // the recency queue must be pruned on get() too, not only on insert().
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(4);
        for i in 0..4 {
            c.insert(i, i);
        }
        for i in 0..100_000u32 {
            assert!(c.get(&(i % 4)).is_some());
        }
        // Compaction triggers past max(capacity * 4, 64) pairs; one more pair
        // may land after the trigger check.
        assert!(
            c.order.len() <= 65,
            "recency queue leaked under hits: {} pairs",
            c.order.len()
        );
        assert_eq!(c.stats().hits, 100_000);
    }

    #[test]
    fn bounded_cache_hit_ratio_bounds() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(2);
        assert_eq!(c.stats().hit_ratio(), 0.0);
        c.insert(1, 1);
        c.get(&1);
        assert!((c.stats().hit_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn request_keys_normalize_and_never_collide_across_classes() {
        assert_eq!(
            completion_request_key("  Kennedy "),
            completion_request_key("Kennedy")
        );
        assert_ne!(
            completion_request_key("kennedy"),
            completion_request_key("kennedys")
        );
        // Case-preserving on purpose: the suffix-tree stage matches
        // case-sensitively, so differently-cased terms are different
        // requests and must never share a memoized answer.
        assert_ne!(
            completion_request_key("Kennedy"),
            completion_request_key("kennedy")
        );
        // A completion for the literal text of a query rendering must not
        // collide with that query's run key.
        let q = "anything";
        assert_ne!(completion_request_key(&format!("run\u{1}{q:?}")), {
            run_request_key(&q)
        });
    }

    #[test]
    fn tier_suffixed_run_keys_never_mix_degraded_and_full_output() {
        let q = "SELECT-shape";
        // Tier 0 is the plain run key: the default no-shed posture keys
        // exactly as before this knob existed.
        assert_eq!(run_request_key_tier(&q, 0), run_request_key(&q));
        // Every degraded tier is distinct from the full key and from every
        // other tier.
        let keys: Vec<String> = (0..4).map(|t| run_request_key_tier(&q, t)).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "tiers must never share a cache entry");
            }
        }
        // A different query at the same tier still gets its own key.
        assert_ne!(run_request_key_tier(&q, 1), run_request_key_tier(&"x", 1));
    }
}

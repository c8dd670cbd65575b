//! The per-endpoint data cache assembled during initialization (§5).
//!
//! Holds the three structures the PUM reads: the predicate table (all
//! predicates — there are few), the suffix tree (predicates + the most
//! significant literals), and the residual bins (every other cached literal,
//! keyed by length).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sapphire_sparql::{Query, SelectQuery};
use sapphire_suffix::SuffixTree;
use sapphire_text::{surface_form, SimilarityProbe};

use crate::bins::{FoldedArena, FoldedLiteral, FoldedNeedle, LitId, ResidualBins};
use crate::config::SapphireConfig;
use crate::qcm::{completion_rank, Completion};

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
/// single-flight map), so shard selection can only ever
/// change in one place.
pub fn shard_index<K: Hash + ?Sized>(key: &K, n: usize) -> usize {
    let mut hasher = DefaultHasher::new();
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
        Q: Hash + Eq + ?Sized,
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
    /// Each value with its current stamp. The stamp is a cell so a hit can
    /// refresh it through the one `get_key_value` probe that also yields the
    /// stored key (atomic only to keep the cache `Sync`; it is never raced).
    entries: HashMap<K, (V, AtomicU64)>,
    /// `(stamp, key)` in stamp order; stale pairs (stamp no longer current
    /// for the key) are skipped during eviction.
    order: VecDeque<(u64, K)>,
    next_stamp: u64,
    stats: CacheStats,
}

/// True if `stamp` is the current stamp of `key` in `entries`.
fn is_current<K: Eq + Hash, V>(entries: &HashMap<K, (V, AtomicU64)>, key: &K, stamp: u64) -> bool {
    entries
        .get(key)
        .is_some_and(|(_, s)| s.load(Ordering::Relaxed) == stamp)
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

    /// Take the next stamp, first compacting the queue if it has grown
    /// long. Both `get` and `insert` come through here: a hit-dominated
    /// steady state (the response cache's target workload) may go
    /// arbitrarily long between inserts, and the queue must stay bounded
    /// regardless. The caller pushes the fresh pair *after* this returns, so
    /// the retain never sees it.
    fn next_stamp(&mut self) -> u64 {
        if self.order.len() > self.capacity.saturating_mul(4).max(64) {
            self.compact();
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        stamp
    }

    /// Look up `key`, refreshing its recency on a hit: one hash probe, and
    /// the recency queue gets a clone of the *stored* key (a pointer for
    /// `Arc`-backed keys), not of the caller's. Accepts borrowed key forms
    /// (`&str` for `String` keys) so hot paths don't allocate just to probe
    /// the cache.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let stamp = self.next_stamp();
        let Some((stored, (value, current))) = self.entries.get_key_value(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        current.store(stamp, Ordering::Relaxed);
        self.order.push_back((stamp, stored.clone()));
        Some(value)
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
        let stamp = self.next_stamp();
        self.order.push_back((stamp, key.clone()));
        self.entries.insert(key, (value, AtomicU64::new(stamp)));
        while self.entries.len() > self.capacity {
            match self.order.pop_front() {
                Some((stamp, key)) => {
                    // Only evict if this is the key's *current* stamp;
                    // otherwise the pair is a stale residue of a later touch.
                    if is_current(&self.entries, &key, stamp) {
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
            .retain(|(stamp, key)| is_current(entries, key, *stamp));
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
    /// Found in the residual bins.
    ResidualBins,
}

/// A cached literal, residual or significant: a [`LitId`] below
/// `bins.len()`, significant literal `i` at `bins.len() + i`. Resolved by
/// [`CachedData::literal_text`].
pub type LitRef = u32;

/// The assembled cache for one endpoint.
pub struct CachedData {
    /// All predicates of the dataset (Q1/Q4 results), most-frequent first.
    pub predicates: Vec<CachedPredicate>,
    /// Residual literals in length bins, numbered by [`completion_rank`],
    /// shared with the executor tasks of a large scan.
    pub bins: Arc<ResidualBins>,
    /// Suffix tree over predicate surfaces + significant literals, inserted
    /// in [`completion_rank`] order.
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
    /// significant literal.
    predicate_folded: FoldedArena,
    class_folded: FoldedArena,
    significant_folded: FoldedArena,
    /// Indices into `significant` grouped by `char` length (entry `n` holds
    /// the literals of length `n`, ascending), so a similarity window reads
    /// only the lengths it spans.
    significant_by_len: Vec<Vec<usize>>,
}

/// The QCM's length band for a term of `len` chars: `len ..= len + gamma`,
/// without an upper end when that sum does not fit a `usize`.
pub(crate) fn completion_band(len: usize, gamma: usize) -> Range<usize> {
    len..len.saturating_add(gamma).saturating_add(1)
}

/// The indices of `literals` grouped by `char` length: entry `n` lists, in
/// ascending order, the literals `n` chars long.
fn by_char_len(literals: &[(String, u64)]) -> Vec<Vec<usize>> {
    let mut by_len: Vec<Vec<usize>> = Vec::new();
    for (i, (text, _)) in literals.iter().enumerate() {
        let len = text.chars().count();
        if by_len.len() <= len {
            by_len.resize_with(len + 1, Vec::new);
        }
        by_len[len].push(i);
    }
    by_len
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
    /// decide only that cut: the bins number the residual literals by
    /// [`completion_rank`], whatever they scored, and the tree's strings go
    /// in in that order too, so on both sides the smallest ids are the best
    /// matches.
    pub fn assemble(
        predicates: Vec<CachedPredicate>,
        mut literals: Vec<(String, u64)>,
        config: &SapphireConfig,
    ) -> Self {
        // Deduplicate literal values, keeping the highest score.
        literals.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        literals.dedup_by(|a, b| a.0 == b.0);
        // Significance order: highest score first, ties by shorter text.
        literals.sort_by(|a, b| {
            (b.1.cmp(&a.1))
                .then_with(|| a.0.len().cmp(&b.0.len()))
                .then_with(|| a.0.cmp(&b.0))
        });

        let split = literals.len().min(config.suffix_tree_capacity);
        let residual = literals.split_off(split);
        let significant = literals;

        // String ids in completion order: the tree's smallest are its best.
        let tree_literals = significant
            .iter()
            .map(|(text, _)| (text, None, TreeEntry::Literal));
        let mut entries: Vec<(Completion, TreeEntry)> = (predicates.iter().enumerate())
            .map(|(i, p)| (&p.surface, Some(&p.iri), TreeEntry::Predicate(i)))
            .chain(tree_literals)
            .map(|(text, iri, entry)| {
                let tree_match = Completion {
                    text: text.clone(),
                    predicate_iri: iri.cloned(),
                    source: MatchSource::SuffixTree,
                };
                (tree_match, entry)
            })
            .collect();
        entries.sort_by(|a, b| completion_rank(&a.0).cmp(&completion_rank(&b.0)));
        let (tree_strings, tree_entries): (Vec<String>, Vec<TreeEntry>) = entries
            .into_iter()
            .map(|(c, entry)| (c.text, entry))
            .unzip();
        let tree = SuffixTree::build(tree_strings);

        let predicate_folded: FoldedArena = predicates.iter().map(|p| p.surface.as_str()).collect();
        CachedData {
            predicate_by_surface: surface_index(&predicate_folded),
            predicate_folded,
            significant_folded: significant.iter().map(|(text, _)| text.as_str()).collect(),
            significant_by_len: by_char_len(&significant),
            predicates,
            bins: Arc::new(residual.into_iter().map(|(text, _)| text).collect()),
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

    /// Substring lookup in the suffix tree: the first `limit` matches in
    /// [`completion_rank`] order.
    pub fn tree_lookup(&self, t: &str, limit: usize) -> Vec<Completion> {
        self.tree
            .find_containing(t, limit)
            .into_iter()
            .map(|sid| {
                let text = self.tree.string(sid).to_string();
                let predicate_iri = match self.tree_entries[sid as usize] {
                    TreeEntry::Predicate(i) => Some(self.predicates[i].iri.clone()),
                    TreeEntry::Literal => None,
                };
                Completion {
                    text,
                    predicate_iri,
                    source: MatchSource::SuffixTree,
                }
            })
            .collect()
    }

    /// The residual literals of lengths `|t| ..= |t| + gamma` that contain
    /// `t` up to case (both sides folded with `str::to_lowercase`), as
    /// ascending ids. A residual literal's id is its [`completion_rank`], so
    /// that is the order the QCM shows them in.
    ///
    /// This is the QCM's residual walk (`ResidualBins::matching`: the band's
    /// postings for the term's rarest byte pair, or the whole band for a
    /// one-byte term), run to the end. No scan runs here, so `_processes`
    /// governs nothing. It stays in the signature only because the
    /// benchmark package (`benchmark/src/ledger.rs`) passes one; it goes
    /// with the next change to that package.
    pub fn residual_lookup(&self, t: &str, gamma: usize, _processes: usize) -> Vec<LitId> {
        let band = completion_band(t.chars().count(), gamma);
        self.bins.matching(&FoldedNeedle::new(t), band).collect()
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
    /// `l` at threshold `theta`, searching lengths `|l|-alpha ..= |l|+beta`,
    /// best score first, ties by text. Each text comes once: `assemble`
    /// dedups the texts before it splits them between tree and bins.
    pub fn similar_literals(
        &self,
        l: &str,
        alpha: usize,
        beta: usize,
        theta: f64,
        processes: usize,
    ) -> Vec<(String, f64)> {
        self.similar_literal_refs(l, alpha, beta, theta, processes)
            .into_iter()
            .map(|(lit, score)| (self.literal_text(lit).to_string(), score))
            .collect()
    }

    /// The sweep behind [`similar_literals`](Self::similar_literals), as
    /// references into the literal arena, in the same order.
    pub(crate) fn similar_literal_refs(
        &self,
        l: &str,
        alpha: usize,
        beta: usize,
        theta: f64,
        processes: usize,
    ) -> Vec<(LitRef, f64)> {
        let len = l.chars().count();
        let lo = len.saturating_sub(alpha);
        let hi = len.saturating_add(beta);
        let mut probe = SimilarityProbe::new(l);
        let task_probe = probe.clone();
        let mut out: Vec<(LitRef, f64)> =
            self.bins
                .scan_parallel(lo..hi.saturating_add(1), processes, move || {
                    let mut probe = task_probe.clone();
                    move |lit: FoldedLiteral<'_>| probe.similarity(lit.text(), theta)
                });
        // The window's significant literals, length by length: the sort
        // below orders by score then text, so visiting order does not show.
        let by_len = &self.significant_by_len;
        let first_significant = self.bins.len();
        for &i in by_len.iter().take(hi.saturating_add(1)).skip(lo).flatten() {
            if let Some(score) = probe.similarity(self.significant_folded.get(i), theta) {
                let lit = LitRef::try_from(first_significant + i).expect("more than 2^32 literals");
                out.push((lit, score));
            }
        }
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| self.literal_text(a.0).cmp(self.literal_text(b.0)))
        });
        out
    }

    /// The text of a cached literal.
    pub fn literal_text(&self, lit: LitRef) -> &str {
        let residual = self.bins.len();
        match (lit as usize).checked_sub(residual) {
            None => self.bins.literal(lit),
            Some(i) => &self.significant[i].0,
        }
    }

    /// Look up a predicate by IRI.
    pub fn predicate_by_iri(&self, iri: &str) -> Option<&CachedPredicate> {
        self.predicates.iter().find(|p| p.iri == iri)
    }
}

// --- Normalized request keys -----------------------------------------------

/// The normalized request a [`RequestKey`] stands for. Each variant is one
/// class of request, so a completion, a run and a raw query can never be the
/// same key whatever their text.
#[derive(Debug, PartialEq, Eq, Hash)]
pub enum KeyedRequest {
    /// A QCM completion of `term`, trimmed, at result budget `k`.
    Completion {
        /// The typed term, trimmed — and nothing more.
        term: String,
        /// The result budget.
        k: usize,
    },
    /// A QSM run of a built query at budget tier `tier` (0 = full budget).
    Run {
        /// The built query (keyword predicates already resolved to IRIs).
        query: SelectQuery,
        /// The QSM budget tier the run executes at.
        tier: usize,
    },
    /// A raw parsed query on a federated backend.
    Raw(Query),
}

/// The one definition of "the same request" for every layer that memoizes or
/// deduplicates QCM, QSM and raw answers — the serving tier's and the
/// cluster edge's response caches and single-flight coalescers. Answers over
/// an immutable model are pure functions of the request, so those layers
/// must agree on it exactly.
///
/// A key holds its [`KeyedRequest`] behind an [`Arc`] together with a 64-bit
/// hash of it, computed once when the key is made. [`Hash`] writes only that
/// hash, so a map probe hashes eight bytes and a clone is a pointer copy.
/// Equality compares the hashes first and then the stored requests
/// structurally, so two requests whose hashes collide are still two keys: a
/// collision can cost a probe, never a wrong answer. The hash is std's
/// SipHash under fixed keys, like [`shard_index`], so a key lands on the same
/// shard in every process.
///
/// Normalization: a completion term is trimmed, so `" Kennedy "` and
/// `"Kennedy"` share one cache entry and one in-flight scan. It is
/// deliberately **case-preserving**: the suffix-tree stage of
/// [`complete_top`](crate::qcm::QueryCompletion::complete_top) matches
/// case-sensitively (only the residual-bin stage folds case), so `"T"` and
/// `"t"` are *different requests* with different answers. A run carries its
/// tier, so a response cache or coalescer can never hand full-budget callers
/// a degraded payload or vice versa.
#[derive(Debug, Clone)]
pub struct RequestKey {
    hash: u64,
    request: Arc<KeyedRequest>,
}

impl RequestKey {
    fn new(request: KeyedRequest) -> Self {
        let mut hasher = DefaultHasher::new();
        request.hash(&mut hasher);
        RequestKey {
            hash: hasher.finish(),
            request: Arc::new(request),
        }
    }

    /// A QCM completion of `term` returning at most `k` suggestions.
    pub fn completion(term: &str, k: usize) -> Self {
        Self::new(KeyedRequest::Completion {
            term: term.trim().to_string(),
            k,
        })
    }

    /// A QSM run of `query` at budget tier `tier`. The query moves into the
    /// key; [`request`](Self::request) reads it back.
    pub fn run(query: SelectQuery, tier: usize) -> Self {
        Self::new(KeyedRequest::Run { query, tier })
    }

    /// A raw parsed query.
    pub fn raw(query: Query) -> Self {
        Self::new(KeyedRequest::Raw(query))
    }

    /// The request this key stands for.
    pub fn request(&self) -> &KeyedRequest {
        &self.request
    }

    /// `request` under a chosen hash, to force collisions in tests.
    #[cfg(test)]
    fn with_hash(request: KeyedRequest, hash: u64) -> Self {
        RequestKey {
            hash,
            request: Arc::new(request),
        }
    }
}

impl PartialEq for RequestKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.request, &other.request) || self.request == other.request)
    }
}

impl Eq for RequestKey {}

impl Hash for RequestKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
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

    #[test]
    fn a_similarity_window_without_an_upper_end_reaches_every_longer_literal() {
        let c = sample_cache();
        let unbounded = c.similar_literals("Kennedy", 2, usize::MAX, 0.7, 2);
        assert!(!unbounded.is_empty());
        assert_eq!(unbounded, c.similar_literals("Kennedy", 2, 1_000, 0.7, 2));
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
    fn residual_lookup_equals_the_naive_fold_in_rank_order() {
        use crate::bins::INLINE_SCAN_THRESHOLD;
        for n in [INLINE_SCAN_THRESHOLD / 8, INLINE_SCAN_THRESHOLD + 64] {
            let c = mixed_corpus(n);
            for needle in [
                "KENNE", "enne", "οδοσ", "ΟΔΟΣ", "İ", "i̇stan", "SS", "ß", "éco", "7", "zz", "",
            ] {
                let len = needle.chars().count();
                let band = len..=len + 20;
                let folded = needle.to_lowercase();
                let naive: Vec<LitId> = (0..c.bins.len() as LitId)
                    .filter(|&id| {
                        let literal = c.bins.literal(id);
                        band.contains(&literal.chars().count())
                            && literal.to_lowercase().contains(&folded)
                    })
                    .collect();
                // Ids are ranks, so ascending ids are the order shown.
                assert_eq!(
                    c.residual_lookup(needle, 20, 1),
                    naive,
                    "n {n} needle {needle:?}"
                );
            }
            assert!(!c.residual_lookup("kenne", 20, 2).is_empty());
            assert!(!c.residual_lookup("οδος", 20, 2).is_empty());
        }
    }

    #[test]
    fn similar_literals_equals_the_pairwise_reference() {
        // Five lengths a stem and spread scores, so that a tree capacity
        // strictly between 0 and n leaves every length in both sets.
        let stems = ["Kennedy", "ΟΔΟΣ", "İstanbul", "Straße", "kenneth", "ÉCOLE"];
        let literals: Vec<(String, u64)> = (0..600)
            .map(|i| {
                let text = format!("{} {i:0w$}", stems[i % stems.len()], w = 3 + i % 5);
                (text, (i * 7 % 11) as u64)
            })
            .collect();
        let probes = [
            "Kennedys 0000012",
            "οδοσ 00100",
            "strasse 004",
            "Kenneth 1",
            "zzz",
        ];
        for capacity in [0, 250, 600] {
            let config = SapphireConfig {
                suffix_tree_capacity: capacity,
                ..SapphireConfig::for_tests()
            };
            let c = CachedData::from_raw(vec![], literals.clone(), &config);
            assert_eq!(c.significant.len(), capacity);
            let every_literal: Vec<&str> = (0..c.bins.len() as LitId)
                .map(|id| c.bins.literal(id))
                .chain(c.significant.iter().map(|(text, _)| text.as_str()))
                .collect();
            for probe in probes {
                for theta in [0.5, 0.7, 0.85, 1.0] {
                    let len = probe.chars().count();
                    let window = len.saturating_sub(2)..=len + 3;
                    let mut reference: Vec<(String, f64)> = every_literal
                        .iter()
                        .filter(|lit| window.contains(&lit.chars().count()))
                        .map(|lit| (lit.to_string(), sapphire_text::jaro_winkler_ci(probe, lit)))
                        .filter(|&(_, score)| score >= theta)
                        .collect();
                    reference.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                    for p in [1, 3] {
                        let got = c.similar_literals(probe, 2, 3, theta, p);
                        assert_eq!(got, reference, "cap {capacity} {probe:?} θ {theta} P {p}");
                    }
                }
            }
            for probe in ["Kennedys 0000012", "Kenneth 1"] {
                assert!(!c.similar_literals(probe, 2, 3, 0.7, 2).is_empty());
            }
        }
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

    fn select(text: &str) -> SelectQuery {
        sapphire_sparql::parse_select(text).unwrap()
    }

    fn hash_of(key: &RequestKey) -> u64 {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn request_keys_normalize_and_never_collide_across_classes() {
        let completion = |term: &str| RequestKey::completion(term, 10);
        assert_eq!(completion("  Kennedy "), completion("Kennedy"));
        assert_eq!(
            hash_of(&completion("  Kennedy ")),
            hash_of(&completion("Kennedy"))
        );
        assert_ne!(completion("kennedy"), completion("kennedys"));
        // Case-preserving on purpose: the suffix-tree stage matches
        // case-sensitively, so differently-cased terms are different
        // requests and must never share a memoized answer.
        assert_ne!(completion("Kennedy"), completion("kennedy"));
        // A deeper result budget is a different request.
        assert_ne!(completion("Kennedy"), RequestKey::completion("Kennedy", 11));
        // A completion for the literal text of a query's rendering is not
        // that query's run, and a run is not the same query asked raw.
        let q = select("SELECT ?s WHERE { ?s a dbo:Thing }");
        assert_ne!(
            completion(&format!("run\u{1}{q:?}")),
            RequestKey::run(q.clone(), 0)
        );
        assert_ne!(
            RequestKey::raw(Query::Select(q.clone())),
            RequestKey::run(q, 0)
        );
    }

    #[test]
    fn tier_suffixed_run_keys_never_mix_degraded_and_full_output() {
        let q = select("SELECT ?s WHERE { ?s a dbo:Thing }");
        // The same query at the same tier, built twice, is one key.
        assert_eq!(RequestKey::run(q.clone(), 0), RequestKey::run(q.clone(), 0));
        // Every degraded tier is distinct from the full key and from every
        // other tier.
        let keys: Vec<RequestKey> = (0..4).map(|t| RequestKey::run(q.clone(), t)).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "tiers must never share a cache entry");
            }
        }
        // A different query at the same tier still gets its own key.
        let other = select("SELECT ?s WHERE { ?s a dbo:Person }");
        assert_ne!(RequestKey::run(q, 1), RequestKey::run(other, 1));
    }

    #[test]
    fn raw_keys_identify_identical_queries() {
        let parse = |text: &str| RequestKey::raw(sapphire_sparql::parse_query(text).unwrap());
        let a = parse("SELECT ?s WHERE { ?s a dbo:Thing }");
        let b = parse("SELECT ?s WHERE { ?s a dbo:Thing }");
        let c = parse("SELECT ?s WHERE { ?s a dbo:Person }");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(a, c);
        assert_ne!(
            parse("ASK { ?s a dbo:Thing }"),
            parse("SELECT * WHERE { ?s a dbo:Thing }")
        );
    }

    #[test]
    fn colliding_requests_never_share_an_entry_or_a_flight() {
        let run = KeyedRequest::Run {
            query: select("SELECT ?s WHERE { ?s a dbo:Thing }"),
            tier: 0,
        };
        let completion = || KeyedRequest::Completion {
            term: "Kennedy".into(),
            k: 10,
        };
        let (a, b) = (
            RequestKey::with_hash(run, 7),
            RequestKey::with_hash(completion(), 7),
        );
        assert_eq!(hash_of(&a), hash_of(&b), "forced to collide");
        assert_ne!(a, b);
        // The same request under the same hash is the same key.
        let b_again = RequestKey::with_hash(completion(), 7);
        assert_eq!(b, b_again);

        let mut lru = BoundedCache::new(4);
        lru.insert(a.clone(), "run");
        lru.insert(b.clone(), "completion");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&a), Some(&"run"));
        assert_eq!(lru.get(&b_again), Some(&"completion"));
        let sharded = ShardedLru::new(4, 4);
        sharded.insert(a.clone(), 1);
        assert_eq!(sharded.get(&b), None, "a colliding request is a miss");
        sharded.insert(b.clone(), 2);
        assert_eq!((sharded.get(&a), sharded.get(&b_again)), (Some(1), Some(2)));
        // A flight map is this: keys sharded by `shard_index`, one flight
        // per key. Colliding keys land on one shard and still lead two
        // flights.
        assert_eq!(shard_index(&a, 16), shard_index(&b, 16));
        let mut flights: HashMap<RequestKey, &str> = HashMap::new();
        assert!(flights.insert(a, "leader a").is_none());
        assert!(
            flights.insert(b, "leader b").is_none(),
            "b leads its own flight"
        );
        assert_eq!(flights.get(&b_again), Some(&"leader b"));
    }

    /// The key the serving tiers used before [`RequestKey`]: the run's
    /// `{:?}` rendering, tier-suffixed above tier 0. Kept as the reference
    /// the structural key must agree with.
    fn rendered_run_key(query: &SelectQuery, tier: usize) -> String {
        let base = format!("run\u{1}{query:?}");
        if tier == 0 {
            base
        } else {
            format!("{base}\u{1}tier{tier}")
        }
    }

    /// A query drawn from `seed` over a small vocabulary: VALUES blocks,
    /// filters with REGEX, aggregates, GROUP BY, ORDER BY, LIMIT and OFFSET
    /// all vary.
    fn generated_query(mut seed: u64) -> SelectQuery {
        use sapphire_rdf::Term;
        use sapphire_sparql::{
            Aggregate, CmpOp, Expr, GraphPattern, InlineData, OrderKey, Projection, SelectItem,
            TermPattern, TriplePattern,
        };
        // SplitMix64.
        let mut pick = |n: u64| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let var = |i: u64| ["s", "o", "x"][i as usize].to_string();
        let term = |i: u64| match i {
            0 => Term::iri("http://dbpedia.org/ontology/name"),
            1 => Term::en("Kennedy"),
            _ => Term::literal("Kennedy"),
        };
        let mut pattern = GraphPattern::default();
        for _ in 0..1 + pick(2) {
            pattern.triples.push(TriplePattern::new(
                TermPattern::var(var(pick(2))),
                TermPattern::iri(["http://x/p", "http://x/q"][pick(2) as usize]),
                if pick(2) == 0 {
                    TermPattern::var(var(1 + pick(2)))
                } else {
                    TermPattern::Term(term(pick(3)))
                },
            ));
        }
        match pick(4) {
            0 => pattern.filters.push(Expr::Regex(
                Box::new(Expr::Var(var(pick(2)))),
                ["^Ken", "nedy$"][pick(2) as usize].into(),
                pick(2) == 0,
            )),
            1 => pattern.filters.push(Expr::Cmp(
                CmpOp::Gt,
                Box::new(Expr::StrLen(Box::new(Expr::Var(var(1))))),
                Box::new(Expr::Const(Term::literal(pick(3).to_string()))),
            )),
            _ => {}
        }
        if pick(3) == 0 {
            pattern.values = Some(InlineData {
                var: var(pick(2)),
                terms: (0..pick(3)).map(&term).collect(),
            });
        }
        let projection = match pick(3) {
            0 => Projection::Star,
            1 => Projection::Items(vec![SelectItem::Var(var(0))]),
            _ => Projection::Items(vec![SelectItem::Agg {
                agg: Aggregate::Count {
                    distinct: pick(2) == 0,
                    var: (pick(2) == 0).then(|| var(1)),
                },
                alias: "n".into(),
            }]),
        };
        SelectQuery {
            distinct: pick(2) == 0,
            projection,
            pattern,
            group_by: (0..pick(2)).map(|_| var(0)).collect(),
            order_by: (0..pick(2))
                .map(|_| OrderKey {
                    expr: Expr::Var(var(pick(2))),
                    descending: pick(2) == 0,
                })
                .collect(),
            limit: (pick(2) == 0).then(|| pick(3) as usize),
            offset: (pick(3) == 0).then(|| pick(2) as usize),
        }
    }

    /// `query` changed in one place (`which` = 0 leaves it as drawn).
    fn near_miss(mut query: SelectQuery, which: u64) -> SelectQuery {
        match which {
            0 => {}
            1 => query.distinct = !query.distinct,
            2 => query.limit = Some(query.limit.map_or(0, |l| l + 1)),
            _ => {
                let values = query
                    .pattern
                    .values
                    .get_or_insert(sapphire_sparql::InlineData {
                        var: "s".into(),
                        terms: Arc::new([]),
                    });
                let mut terms = values.terms.to_vec();
                terms.push(sapphire_rdf::Term::en("Kennedys"));
                values.terms = terms.into();
            }
        }
        query
    }

    proptest::proptest! {
        #[test]
        fn run_keys_are_equal_iff_their_renderings_are(seed in 0u64..1 << 40, other in 0u64..4) {
            // Every (near miss, tier) of two drawn queries, each request built
            // twice: equal requests are separate allocations, and the others
            // differ in one modifier, the VALUES block, the tier or all over.
            let requests: Vec<(SelectQuery, usize)> = (0..48u64)
                .map(|i| {
                    let drawn = generated_query(seed + other * (i / 24));
                    (near_miss(drawn, i / 3 % 4), (i % 3) as usize)
                })
                .collect();
            let keys: Vec<RequestKey> =
                requests.iter().map(|(q, tier)| RequestKey::run(q.clone(), *tier)).collect();
            let rendered: Vec<String> =
                requests.iter().map(|(q, tier)| rendered_run_key(q, *tier)).collect();
            let mut equal_pairs = 0;
            for (a, b) in (0..48).flat_map(|a| (0..48).map(move |b| (a, b))) {
                let rendered_equal = rendered[a] == rendered[b];
                proptest::prop_assert_eq!(keys[a] == keys[b], rendered_equal);
                if rendered_equal {
                    proptest::prop_assert_eq!(hash_of(&keys[a]), hash_of(&keys[b]));
                    equal_pairs += 1;
                }
            }
            // Each request equals itself and its twin; with `other` 0 the two
            // draws coincide.
            proptest::prop_assert!(equal_pairs >= 96, "{equal_pairs} equal pairs");
        }
    }
}

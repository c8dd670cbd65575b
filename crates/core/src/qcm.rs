//! The Query Completion Module (§6.1, Figure 5).
//!
//! Invoked on every keystroke: given the string `t` typed so far, return `k`
//! cached strings containing `t`. Suffix-tree matches return first (they are
//! `O(|t| + z)`); if fewer than `k`, the remainder comes from a parallel
//! sequential scan of the residual bins restricted to literal lengths
//! `|t| ..= |t| + γ`, preferring the shortest results.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::{CacheMatch, CachedData, MatchSource};
use crate::config::SapphireConfig;

/// One auto-complete suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Suggested text (predicate surface form or literal value).
    pub text: String,
    /// Predicate IRI when the suggestion is a predicate.
    pub predicate_iri: Option<String>,
    /// Which index produced it.
    pub source: MatchSource,
}

/// Result of one QCM invocation, with the latency breakdown the §7.3.1
/// experiment reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionResult {
    /// Up to `k` suggestions; suffix-tree matches first.
    pub suggestions: Vec<Completion>,
    /// True if the suffix tree produced at least one match (the "hit ratio"
    /// numerator).
    pub tree_hit: bool,
    /// Time spent in the suffix tree.
    pub tree_time: Duration,
    /// Time spent scanning residual bins (zero if the tree filled `k`).
    pub bins_time: Duration,
    /// Number of residual literals inside the searched length band — i.e.
    /// what survived the bin length filter.
    pub residual_candidates: usize,
}

impl CompletionResult {
    /// Total QCM latency.
    pub fn total_time(&self) -> Duration {
        self.tree_time + self.bins_time
    }
}

/// The Query Completion Module.
pub struct QueryCompletion {
    cache: Arc<CachedData>,
    config: SapphireConfig,
}

impl QueryCompletion {
    /// Build a QCM over a cache.
    pub fn new(cache: Arc<CachedData>, config: SapphireConfig) -> Self {
        QueryCompletion { cache, config }
    }

    /// The underlying cache.
    pub fn cache(&self) -> &CachedData {
        &self.cache
    }

    /// Complete the term `t` typed so far.
    ///
    /// Variables (strings starting with `?`) get no suggestions, per §6.1.
    pub fn complete(&self, t: &str) -> CompletionResult {
        self.complete_top(t, self.config.k)
    }

    /// Complete with an explicit result budget `k` instead of the configured
    /// one — the scatter-gather over-fetch hook. A cluster edge asks each
    /// shard for a deeper (or unbounded, `usize::MAX`) list than users ever
    /// see, because the global top-k selection is only exact when the edge
    /// merge sees every shard-local match; the shard's own significance
    /// ranking is computed from shard-local in-degrees and cannot drive the
    /// global cut.
    pub fn complete_top(&self, t: &str, k: usize) -> CompletionResult {
        let mut result = CompletionResult {
            suggestions: Vec::new(),
            tree_hit: false,
            tree_time: Duration::ZERO,
            bins_time: Duration::ZERO,
            residual_candidates: 0,
        };
        let t = t.trim();
        if t.is_empty() || t.starts_with('?') || k == 0 {
            return result;
        }

        // Stage 1: suffix tree. Matches "are returned to the user as soon as
        // they are found".
        let tree_start = Instant::now();
        let tree_matches: Vec<CacheMatch> = self.cache.tree_lookup(t, k);
        result.tree_time = tree_start.elapsed();
        result.tree_hit = !tree_matches.is_empty();
        result
            .suggestions
            .extend(tree_matches.into_iter().map(|m| Completion {
                text: m.text,
                predicate_iri: m.predicate_iri,
                source: MatchSource::SuffixTree,
            }));
        if result.suggestions.len() >= k {
            result.suggestions.truncate(k);
            return result;
        }

        // Stage 2: parallel residual-bin scan over lengths |t| ..= |t| + γ.
        let bins_start = Instant::now();
        let len = t.chars().count();
        result.residual_candidates = self
            .cache
            .bins
            .count_in_range(len..len + self.config.gamma + 1);
        let mut ids = self
            .cache
            .residual_lookup(t, self.config.gamma, self.config.processes);
        // "The shortest result literals are returned as part of the k
        // auto-complete suggestions." Compare in place — cloning every
        // literal for the sort dominated QCM latency on large match sets.
        let bins = &self.cache.bins;
        ids.sort_unstable_by_key(|&id| (bins.char_len(id), bins.literal(id)));
        for id in ids.into_iter().take(k - result.suggestions.len()) {
            result.suggestions.push(Completion {
                text: self.cache.bins.literal(id).to_string(),
                predicate_iri: None,
                source: MatchSource::ResidualBins,
            });
        }
        result.bins_time = bins_start.elapsed();
        result
    }

    /// The fraction of residual literals the length filter eliminates for a
    /// given term length (reported as ≈46% on average in §7.3.1).
    pub fn filter_elimination_ratio(&self, term_len: usize) -> f64 {
        let total = self.cache.bins.len();
        if total == 0 {
            return 0.0;
        }
        let surviving = self
            .cache
            .bins
            .count_in_range(term_len..term_len + self.config.gamma + 1);
        1.0 - surviving as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedData;

    fn qcm(tree_capacity: usize) -> QueryCompletion {
        let config = SapphireConfig {
            suffix_tree_capacity: tree_capacity,
            processes: 2,
            ..SapphireConfig::for_tests()
        };
        let predicates = vec![
            ("http://dbpedia.org/ontology/almaMater".to_string(), 10),
            ("http://dbpedia.org/ontology/birthPlace".to_string(), 20),
            ("http://dbpedia.org/ontology/surname".to_string(), 30),
        ];
        let literals = vec![
            ("New York".to_string(), 100),
            ("Kennedy".to_string(), 90),
            ("Kennedys Creek".to_string(), 0),
            ("Kenneth Branagh".to_string(), 0),
            ("Newcastle".to_string(), 0),
            ("Jacqueline Kennedy Onassis".to_string(), 0),
        ];
        QueryCompletion::new(
            Arc::new(CachedData::from_raw(predicates, literals, &config)),
            config,
        )
    }

    #[test]
    fn variables_get_no_suggestions() {
        let q = qcm(2);
        assert!(q.complete("?uri").suggestions.is_empty());
        assert!(q.complete("").suggestions.is_empty());
        assert!(q.complete("   ").suggestions.is_empty());
    }

    #[test]
    fn tree_matches_come_first() {
        let q = qcm(2); // tree: "New York", "Kennedy" + predicates
        let r = q.complete("Kenn");
        assert!(r.tree_hit);
        assert_eq!(r.suggestions[0].text, "Kennedy");
        assert_eq!(r.suggestions[0].source, MatchSource::SuffixTree);
        // Residuals follow: "Kennedys Creek", "Kenneth Branagh" (within γ=10
        // of length 4: lengths 4..=14).
        let residuals: Vec<&str> = r
            .suggestions
            .iter()
            .filter(|s| s.source == MatchSource::ResidualBins)
            .map(|s| s.text.as_str())
            .collect();
        assert_eq!(
            residuals,
            vec!["Kennedys Creek"],
            "length-15 Kenneth Branagh is outside γ"
        );
    }

    #[test]
    fn predicate_completions_carry_iri() {
        let q = qcm(2);
        let r = q.complete("mater");
        let pred = r
            .suggestions
            .iter()
            .find(|s| s.predicate_iri.is_some())
            .unwrap();
        assert_eq!(pred.text, "alma mater");
        assert_eq!(
            pred.predicate_iri.as_deref(),
            Some("http://dbpedia.org/ontology/almaMater")
        );
    }

    #[test]
    fn shortest_residuals_preferred() {
        let q = qcm(0); // everything residual
        let r = q.complete("New");
        assert!(!r.tree_hit);
        let texts: Vec<&str> = r.suggestions.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(texts, vec!["New York", "Newcastle"]);
    }

    #[test]
    fn k_caps_suggestions() {
        let config = SapphireConfig {
            k: 2,
            processes: 2,
            suffix_tree_capacity: 0,
            ..SapphireConfig::for_tests()
        };
        let literals: Vec<(String, u64)> = (0..20).map(|i| (format!("keyword {i}"), 0)).collect();
        let q = QueryCompletion::new(
            Arc::new(CachedData::from_raw(vec![], literals, &config)),
            config,
        );
        assert_eq!(q.complete("keyword").suggestions.len(), 2);
    }

    #[test]
    fn filter_elimination_ratio_counts_band() {
        let q = qcm(0);
        // All 6 literals residual; term of length 26 + γ=10 covers only the
        // longest literal.
        let ratio = q.filter_elimination_ratio(26);
        assert!(ratio > 0.8, "{ratio}");
        // A short term keeps most literals.
        let ratio = q.filter_elimination_ratio(7);
        assert!(ratio < 0.9);
    }

    #[test]
    fn no_matches_yields_empty_with_timing() {
        let q = qcm(2);
        let r = q.complete("zzzzz");
        assert!(r.suggestions.is_empty());
        assert!(!r.tree_hit);
        assert!(r.total_time() >= r.tree_time);
    }
}

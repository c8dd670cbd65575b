//! The Query Completion Module (§6.1, Figure 5).
//!
//! Invoked on every keystroke: given the string `t` typed so far, return `k`
//! cached strings containing `t`. Suffix-tree matches return first (they are
//! `O(|t| + z)`); if fewer than `k`, the remainder comes from the residual
//! bins restricted to literal lengths `|t| ..= |t| + γ`, preferring the
//! shortest results. The paper finds those with a parallel sequential scan
//! of the band (Algorithm 1); here stage 2 walks the band's candidates in
//! rank order on the calling thread and stops at the `k`-th match. The
//! candidates are the band's literals that hold the term's rarest byte pair
//! (the bins' byte-pair index), or every literal of the band when a
//! one-byte term has no pair; each is checked against the folded term. The
//! walk run to the end is [`CachedData::residual_lookup`].
//!
//! Which `k` the user sees is decided here, by one order:
//! [`completion_rank`]. The suffix tree's string ids follow it, so its
//! smallest matching ids are the best tree matches, and a residual
//! literal's id *is* its rank among residual literals, so the residual
//! stage takes the first ids it is handed. Neither stage sorts: the output
//! is in rank order by construction, and a cluster edge's merge of
//! per-shard lists ranks by the same function.
//!
//! The two stages disagree on case, and the paper is silent on it. The
//! suffix tree matches `t` case-sensitively; the residual stage folds both
//! sides with `str::to_lowercase` (`bins.rs`). So which stage holds a
//! literal — decided by [`SapphireConfig::suffix_tree_capacity`], a sizing
//! setting — decides whether a keystroke in another case finds it. Over
//! `Kennedy Space Center`, `Kennedy` and `kennedy airport` (scored in that
//! order), typing `kenn` shows `Kennedy` from the bins at capacity 0 or 1,
//! nothing at 2, and only `kennedy airport` from the tree at 3. This is the
//! rule as it stands, not a decision.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bins::FoldedNeedle;
use crate::cache::{completion_band, CachedData, MatchSource};
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

/// The rank of one completion, smallest first: suffix-tree matches before
/// residual-bin matches, predicates before literals, then shorter text
/// (in `char`s), then text and IRI as the final total-order key.
pub fn completion_rank(c: &Completion) -> (u8, u8, usize, &str, Option<&str>) {
    let source = match c.source {
        MatchSource::SuffixTree => 0u8,
        MatchSource::ResidualBins => 1,
    };
    let kind = if c.predicate_iri.is_some() { 0u8 } else { 1 };
    (
        source,
        kind,
        c.text.chars().count(),
        c.text.as_str(),
        c.predicate_iri.as_deref(),
    )
}

/// Result of one QCM invocation, with the latency breakdown the §7.3.1
/// experiment reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionResult {
    /// Up to `k` suggestions, in [`completion_rank`] order.
    pub suggestions: Vec<Completion>,
    /// True if the suffix tree produced at least one match (the "hit ratio"
    /// numerator).
    pub tree_hit: bool,
    /// Time spent in the suffix tree.
    pub tree_time: Duration,
    /// Time spent in the residual bins (zero if the tree filled `k`).
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
    /// one: the first `k` of every cached match in [`completion_rank`]
    /// order (`usize::MAX` for all of them).
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
        result.suggestions = self.cache.tree_lookup(t, k);
        result.tree_time = tree_start.elapsed();
        result.tree_hit = !result.suggestions.is_empty();
        if result.suggestions.len() >= k {
            return result;
        }

        // Stage 2: the residual bins of lengths |t| ..= |t| + γ.
        let bins_start = Instant::now();
        let band = completion_band(t.chars().count(), self.config.gamma);
        result.residual_candidates = self.cache.bins.count_in_range(band.clone());
        let needle = FoldedNeedle::new(t);
        let ids = self.cache.bins.matching(&needle, band);
        // "The shortest result literals are returned as part of the k
        // auto-complete suggestions": the ids come in rank order, so the
        // walk stops at the k-th.
        for id in ids.take(k - result.suggestions.len()) {
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
            .count_in_range(completion_band(term_len, self.config.gamma));
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

    #[test]
    fn a_band_without_an_upper_end_finds_every_longer_literal() {
        // `|t| + γ + 1` does not fit a `usize`: a band that wrapped would be
        // `len..len` and show nothing.
        let config = SapphireConfig {
            suffix_tree_capacity: 0,
            gamma: usize::MAX,
            ..SapphireConfig::for_tests()
        };
        let literals = vec![
            ("Kennedy".to_string(), 0),
            ("Kennedys Creek".to_string(), 0),
        ];
        let q = QueryCompletion::new(
            Arc::new(CachedData::from_raw(vec![], literals, &config)),
            config,
        );
        let r = q.complete("Kenn");
        let texts: Vec<&str> = r.suggestions.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(texts, vec!["Kennedy", "Kennedys Creek"]);
        assert_eq!(r.residual_candidates, 2);
        assert_eq!(q.filter_elimination_ratio(4), 0.0);
        // A one-byte term walks the whole band, which has the same end.
        assert_eq!(q.complete("K").suggestions.len(), 2);
    }
}

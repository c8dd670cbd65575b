//! Alternative query terms (Algorithm 2, §6.2.1).
//!
//! For every ground predicate in the user's query, find dataset predicates
//! whose Jaro-Winkler similarity to the predicate *or any of its lexica*
//! clears θ; for every ground literal, find similar cached literals in the
//! bins `[|l| − α, |l| + β]`. Each alternative yields a new query differing
//! in exactly one term ("did you mean X instead of Y?"), and the top `k/2`
//! predicate and `k/2` literal queries *that return answers* are suggested,
//! with their answers prefetched.
//!
//! An alternative *is* that one difference — `(triple, position, term)` — and
//! nothing more: a [`TermAlternative`] is an edit to whatever query it is
//! applied to, and [`TermAlternative::rewrite`] is the only place it becomes
//! a query. [`top_with_answers`] is the only implementation of the "top `k/2`
//! with answers" cut (lines 23–24); the model calls it with the federated
//! processor, a cluster edge with its cluster-wide answers.

use std::sync::Arc;

use sapphire_rdf::{Literal, Term};
use sapphire_sparql::{SelectQuery, Solutions, TermPattern};
use sapphire_text::{surface_form, Lexicon};

use crate::cache::{CachedData, ShardedLru};
use crate::config::SapphireConfig;

/// Which position of a triple pattern an alternative replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlteredPosition {
    /// The predicate was replaced.
    Predicate,
    /// The object literal was replaced.
    Object,
}

/// One "did you mean …?" suggestion: the edit `(triple_index, position) :=
/// term`, its display texts and score, and — once it survived the cut — the
/// answers of the edited query. It holds no query; [`rewrite`](Self::rewrite)
/// applies it to one.
#[derive(Debug, Clone)]
pub struct TermAlternative {
    /// Index of the altered triple pattern in the query.
    pub triple_index: usize,
    /// Which position changed.
    pub position: AlteredPosition,
    /// The replacement exactly as it enters the pattern: the alternative
    /// predicate's IRI, or the literal with the language tag that makes it
    /// ground-match the data.
    pub term: Term,
    /// Display text of the original term.
    pub original: String,
    /// Display text of the replacement.
    pub replacement: String,
    /// Jaro-Winkler similarity between original (or its lexica) and the
    /// replacement.
    pub similarity: f64,
    /// Prefetched answers of the rewritten query (§4: answers "are prefetched
    /// so that when the user decides to choose one of the alternatives … the
    /// answers are displayed almost-instantaneously").
    pub answers: Solutions,
}

impl TermAlternative {
    /// `base` with this alternative's one term replaced — the query Algorithm
    /// 2 proposes. `None` when `triple_index` is outside `base`: the field
    /// may have arrived off the wire, so it is checked, not trusted.
    pub fn rewrite(&self, base: &SelectQuery) -> Option<SelectQuery> {
        let mut query = base.clone();
        let triple = query.pattern.triples.get_mut(self.triple_index)?;
        let slot = match self.position {
            AlteredPosition::Predicate => &mut triple.predicate,
            AlteredPosition::Object => &mut triple.object,
        };
        *slot = TermPattern::Term(self.term.clone());
        Some(query)
    }

    /// Number of prefetched answers.
    pub fn answer_count(&self) -> usize {
        self.answers.len()
    }

    /// The user-facing phrasing of Figure 2.
    pub fn describe(&self) -> String {
        format!(
            "Did you mean \"{}\" instead of \"{}\"? There are {} answers available.",
            self.replacement,
            self.original,
            self.answer_count()
        )
    }
}

/// Finds alternative query terms.
///
/// Both alternative lookups — literal alternatives (a Jaro-Winkler sweep
/// over the cached literal corpus) and predicate alternatives (a sweep per
/// lexicon verbalization) — are pure functions of the immutable model, so
/// their results are memoized in bounded cross-request caches: the sweep
/// runs once per distinct term, and every later query containing that term
/// (any session, any thread) gets the ranked list as a pointer bump. The
/// serving tier's QSM runs 2–3 of these sweeps per *cold* query, and
/// distinct queries share most of their terms, so this is a direct cut to
/// the QSM tail.
pub struct AlternativeFinder {
    cache: Arc<CachedData>,
    lexicon: Lexicon,
    config: SapphireConfig,
    literal_alts: AltCache,
    predicate_alts: AltCache,
}

/// A ranked list of `(text, score)` alternatives, shared across requests.
type AltList = Arc<Vec<(String, f64)>>;

/// A small sharded LRU over ranked alternative lists.
#[derive(Debug)]
struct AltCache {
    shards: ShardedLru<String, AltList>,
}

impl AltCache {
    fn new(shards: usize, capacity_per_shard: usize) -> Self {
        AltCache {
            shards: ShardedLru::new(shards, capacity_per_shard),
        }
    }

    fn get_or_insert(&self, key: &str, compute: impl FnOnce() -> Vec<(String, f64)>) -> AltList {
        if let Some(hit) = self.shards.get(key) {
            return hit;
        }
        // Compute outside the shard lock: the sweep is the expensive part,
        // and a concurrent duplicate sweep is idempotent (pure function).
        let value = Arc::new(compute());
        self.shards.insert(key.to_string(), value.clone());
        value
    }

    fn stats(&self) -> crate::cache::CacheStats {
        self.shards.stats()
    }
}

/// Counter snapshot of the memoized alternative-sweep caches — one
/// [`CacheStats`](crate::cache::CacheStats) per sweep kind. A hit means a
/// whole Jaro-Winkler corpus sweep was skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AltCacheStats {
    /// The literal-alternatives cache (bin-banded JW sweep per literal).
    pub literal: crate::cache::CacheStats,
    /// The predicate-alternatives cache (JW sweep per lexicon verbalization).
    pub predicate: crate::cache::CacheStats,
}

impl AlternativeFinder {
    /// Build a finder.
    pub fn new(cache: Arc<CachedData>, lexicon: Lexicon, config: SapphireConfig) -> Self {
        let (shards, capacity) = (
            config.neighborhood_cache_shards,
            config.neighborhood_cache_capacity,
        );
        AlternativeFinder {
            cache,
            lexicon,
            config,
            literal_alts: AltCache::new(shards, capacity),
            predicate_alts: AltCache::new(shards, capacity),
        }
    }

    /// Hit/miss/eviction counters of both memoization caches.
    pub fn alt_cache_stats(&self) -> AltCacheStats {
        AltCacheStats {
            literal: self.literal_alts.stats(),
            predicate: self.predicate_alts.stats(),
        }
    }

    /// Literal alternatives for a single literal value — also used to build
    /// the Steiner seed groups (Algorithm 3 line 3). Memoized across
    /// requests (pure function of the model).
    pub fn literal_alternatives(&self, value: &str) -> Arc<Vec<(String, f64)>> {
        self.literal_alts.get_or_insert(value, || {
            self.cache
                .similar_literals(
                    value,
                    self.config.alpha,
                    self.config.beta,
                    self.config.theta,
                    self.config.processes,
                )
                .into_iter()
                .filter(|(text, _)| text != value)
                .collect()
        })
    }

    /// Predicate alternatives for a predicate IRI, searching its surface form
    /// and all its lexica (Algorithm 2 lines 3–7). Memoized across requests
    /// (pure function of the model).
    pub fn predicate_alternatives(&self, iri: &str) -> Arc<Vec<(String, f64)>> {
        self.predicate_alts.get_or_insert(iri, || {
            let surface = surface_form(iri);
            let mut best: Vec<(String, f64)> = Vec::new();
            for verbalization in self.lexicon.get_lexica(&surface) {
                for (idx, score) in self
                    .cache
                    .similar_predicates(&verbalization, self.config.theta)
                {
                    let alt = &self.cache.predicates[idx];
                    if alt.iri == iri {
                        continue;
                    }
                    match best.iter_mut().find(|(i, _)| i == &alt.iri) {
                        Some((_, s)) if *s < score => *s = score,
                        Some(_) => {}
                        None => best.push((alt.iri.clone(), score)),
                    }
                }
            }
            best.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            best
        })
    }

    /// The ranked candidates of Algorithm 2 lines 1–14, *before* execution:
    /// every similar predicate and every similar literal as an edit with
    /// empty (not yet prefetched) answers, one list per kind, each sorted by
    /// similarity.
    pub(crate) fn candidate_lists(
        &self,
        query: &SelectQuery,
    ) -> (Vec<TermAlternative>, Vec<TermAlternative>) {
        let mut predicate_candidates: Vec<TermAlternative> = Vec::new();
        let mut literal_candidates: Vec<TermAlternative> = Vec::new();

        for (ti, triple) in query.pattern.triples.iter().enumerate() {
            // Predicates.
            if let TermPattern::Term(Term::Iri(p_iri)) = &triple.predicate {
                for (alt_iri, score) in self.predicate_alternatives(p_iri).iter() {
                    predicate_candidates.push(TermAlternative {
                        triple_index: ti,
                        position: AlteredPosition::Predicate,
                        term: Term::iri(alt_iri.clone()),
                        original: surface_form(p_iri),
                        replacement: surface_form(alt_iri),
                        similarity: *score,
                        answers: Solutions::default(),
                    });
                }
            }
            // Literals (objects only; literals cannot be subjects).
            if let TermPattern::Term(Term::Literal(lit)) = &triple.object {
                for (alt_text, score) in self.literal_alternatives(&lit.value).iter() {
                    literal_candidates.push(TermAlternative {
                        triple_index: ti,
                        position: AlteredPosition::Object,
                        term: Term::Literal(self.replacement_literal(lit, alt_text)),
                        original: lit.value.clone(),
                        replacement: alt_text.clone(),
                        similarity: *score,
                        answers: Solutions::default(),
                    });
                }
            }
        }

        // Lines 13–14: sort by similarity.
        let by_score = |a: &TermAlternative, b: &TermAlternative| {
            b.similarity
                .partial_cmp(&a.similarity)
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        predicate_candidates.sort_by(by_score);
        literal_candidates.sort_by(by_score);
        (predicate_candidates, literal_candidates)
    }

    /// Cached literals were retrieved with the configured language filter, so
    /// replacements keep the original's language tag (or gain the configured
    /// one) — this is what makes the rewritten query ground-match the data.
    fn replacement_literal(&self, original: &Literal, alt_text: &str) -> Literal {
        match (&original.lang, &original.datatype) {
            (Some(lang), _) => Literal::lang_tagged(alt_text, lang.clone()),
            (None, Some(_)) | (None, None) => {
                Literal::lang_tagged(alt_text, self.config.language.clone())
            }
        }
    }
}

/// Algorithm 2 lines 23–24: walk one kind's ranked `candidates`, ask
/// `answers` for each one's rewrite of `base`, and keep the first `take` whose
/// rewrite returns any — with those answers attached. Probing stops as soon
/// as `take` are kept, and at the closure's first `Err`, which is returned
/// as is. Only kept candidates are cloned.
///
/// A candidate that does not fit `base` (see [`TermAlternative::rewrite`]) is
/// skipped here; a caller whose candidates come from outside the process
/// checks them before it calls.
pub fn top_with_answers<E>(
    base: &SelectQuery,
    candidates: &[TermAlternative],
    take: usize,
    mut answers: impl FnMut(&SelectQuery) -> Result<Solutions, E>,
) -> Result<Vec<TermAlternative>, E> {
    let mut kept: Vec<TermAlternative> = Vec::new();
    for cand in candidates {
        if kept.len() >= take {
            break;
        }
        let Some(rewritten) = cand.rewrite(base) else {
            continue;
        };
        let found = answers(&rewritten)?;
        if !found.is_empty() {
            kept.push(TermAlternative {
                answers: found,
                ..cand.clone()
            });
        }
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsm::QuerySuggestion;
    use sapphire_endpoint::{Endpoint, EndpointLimits, FederatedProcessor, LocalEndpoint};
    use sapphire_rdf::turtle;
    use sapphire_sparql::parse_select;
    use std::convert::Infallible;

    const DATA: &str = r#"
res:JFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:spouse res:Jackie .
res:RFK a dbo:Person ; dbo:surname "Kennedy"@en .
res:Jackie a dbo:Person ; dbo:surname "Kennedy Onassis"@en .
res:Ada a dbo:Person ; dbo:surname "Lovelace"@en ; dbo:almaMater res:UoL .
res:UoL a dbo:University ; dbo:name "University of London"@en .
"#;

    fn setup() -> (QuerySuggestion, FederatedProcessor) {
        let config = SapphireConfig {
            processes: 2,
            ..SapphireConfig::for_tests()
        };
        let graph = turtle::parse(DATA).unwrap();
        let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
            "test",
            graph,
            EndpointLimits::warehouse(),
        ));
        let fed = FederatedProcessor::single(ep);
        let cache = CachedData::from_raw(
            vec![
                ("http://dbpedia.org/ontology/surname".into(), 4),
                ("http://dbpedia.org/ontology/spouse".into(), 0),
                ("http://dbpedia.org/ontology/almaMater".into(), 0),
                ("http://dbpedia.org/ontology/name".into(), 1),
            ],
            vec![
                ("Kennedy".into(), 10),
                ("Kennedy Onassis".into(), 3),
                ("Lovelace".into(), 1),
                ("University of London".into(), 5),
            ],
            &config,
        );
        (
            QuerySuggestion::new(Arc::new(cache), Lexicon::dbpedia_default(), config),
            fed,
        )
    }

    #[test]
    fn kennedys_suggestion_matches_figure_2() {
        let (qsm, fed) = setup();
        // The paper's running example: surname "Kennedys" returns nothing;
        // the QSM suggests "Kennedy".
        let q = parse_select(r#"SELECT ?p WHERE { ?p dbo:surname "Kennedys"@en }"#).unwrap();
        let suggestions = qsm.suggest(&q, &fed).alternatives;
        let lit = suggestions
            .iter()
            .find(|s| s.position == AlteredPosition::Object)
            .expect("literal alternative expected");
        assert_eq!(lit.replacement, "Kennedy");
        assert_eq!(lit.answer_count(), 2, "JFK and RFK");
        assert!(lit.describe().contains("instead of \"Kennedys\""));
    }

    #[test]
    fn lexicon_maps_wife_to_spouse() {
        let (qsm, _) = setup();
        let finder = qsm.finder();
        // A predicate verbalized as "wife" should reach dbo:spouse through
        // the lexicon even though JW("wife", "spouse") < θ.
        let alts = finder.predicate_alternatives("http://dbpedia.org/ontology/wife");
        assert!(
            alts.iter()
                .any(|(iri, _)| iri == "http://dbpedia.org/ontology/spouse"),
            "{alts:?}"
        );
    }

    #[test]
    fn jw_finds_misspelled_predicates() {
        let (qsm, _) = setup();
        let finder = qsm.finder();
        let alts = finder.predicate_alternatives("http://dbpedia.org/ontology/surnames");
        assert_eq!(alts[0].0, "http://dbpedia.org/ontology/surname");
    }

    #[test]
    fn suggestions_only_with_answers() {
        let (qsm, fed) = setup();
        let q = parse_select(r#"SELECT ?p WHERE { ?p dbo:surname "Lovelacey"@en }"#).unwrap();
        let suggestions = qsm.suggest(&q, &fed).alternatives;
        for s in &suggestions {
            assert!(
                s.answer_count() > 0,
                "suggested queries must return answers"
            );
        }
        assert!(suggestions.iter().any(|s| s.replacement == "Lovelace"));
    }

    #[test]
    fn at_most_k_over_2_per_kind() {
        let (qsm, fed) = setup();
        let q = parse_select(r#"SELECT ?p WHERE { ?p dbo:surname "Kennedy Onasis"@en }"#).unwrap();
        let suggestions = qsm.suggest(&q, &fed).alternatives;
        let k = 10;
        let lits = suggestions
            .iter()
            .filter(|s| s.position == AlteredPosition::Object)
            .count();
        let preds = suggestions
            .iter()
            .filter(|s| s.position == AlteredPosition::Predicate)
            .count();
        assert!(lits <= k / 2);
        assert!(preds <= k / 2);
    }

    #[test]
    fn literal_alternatives_respect_length_band() {
        let (qsm, _) = setup();
        let finder = qsm.finder();
        // |"Kennedy"| = 7; α=2, β=3 ⇒ lengths 5..=10. "Kennedy Onassis" (15)
        // is out of range even though similar.
        let alts = finder.literal_alternatives("Kennedyx");
        assert!(alts.iter().any(|(t, _)| t == "Kennedy"));
        assert!(alts.iter().all(|(t, _)| t != "Kennedy Onassis"));
    }

    /// Five literal candidates for the one-triple query, best first.
    fn five_candidates() -> (SelectQuery, Vec<TermAlternative>) {
        let q = parse_select(r#"SELECT ?p WHERE { ?p dbo:surname "x"@en }"#).unwrap();
        let candidates = (0..5)
            .map(|i| TermAlternative {
                triple_index: 0,
                position: AlteredPosition::Object,
                term: Term::Literal(Literal::lang_tagged(format!("alt{i}"), "en")),
                original: "x".into(),
                replacement: format!("alt{i}"),
                similarity: 1.0 - i as f64 / 10.0,
                answers: Solutions::default(),
            })
            .collect();
        (q, candidates)
    }

    fn one_row() -> Solutions {
        Solutions {
            vars: vec!["p".into()],
            rows: vec![vec![Some(Term::iri("http://x/a"))]],
        }
    }

    #[test]
    fn rewrite_replaces_exactly_its_slot_and_checks_the_index() {
        let (q, candidates) = five_candidates();
        let expected = parse_select(r#"SELECT ?p WHERE { ?p dbo:surname "alt2"@en }"#).unwrap();
        assert_eq!(candidates[2].rewrite(&q), Some(expected));
        let stray = TermAlternative {
            triple_index: 1,
            ..candidates[2].clone()
        };
        assert_eq!(stray.rewrite(&q), None);
    }

    #[test]
    fn the_cut_stops_probing_once_take_are_kept() {
        let (q, candidates) = five_candidates();
        let mut probes = 0;
        let kept = top_with_answers(&q, &candidates, 2, |_| {
            probes += 1;
            Ok::<_, Infallible>(one_row())
        })
        .unwrap();
        assert_eq!(
            probes, 2,
            "candidates past the second kept are not executed"
        );
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].replacement, "alt0");
        assert_eq!(kept[1].answers, one_row());
    }

    #[test]
    fn the_cut_skips_rewrites_without_answers() {
        let (q, candidates) = five_candidates();
        let mut probed = Vec::new();
        let kept = top_with_answers(&q, &candidates, 2, |rewritten| {
            probed.push(rewritten.pattern.triples[0].object.clone());
            let hit = probed.len() % 2 == 0;
            Ok::<_, Infallible>(if hit { one_row() } else { Solutions::default() })
        })
        .unwrap();
        let names: Vec<&str> = kept.iter().map(|a| a.replacement.as_str()).collect();
        assert_eq!(names, ["alt1", "alt3"]);
        // Each probe was the candidate's own rewrite, in rank order.
        let expected: Vec<TermPattern> = candidates[..4]
            .iter()
            .map(|c| TermPattern::Term(c.term.clone()))
            .collect();
        assert_eq!(probed, expected);
    }

    #[test]
    fn the_cut_returns_the_first_error_without_probing_further() {
        let (q, candidates) = five_candidates();
        let mut probes = 0;
        let result = top_with_answers(&q, &candidates, 5, |_| {
            probes += 1;
            if probes == 2 {
                Err("shed")
            } else {
                Ok(one_row())
            }
        });
        assert_eq!(result.unwrap_err(), "shed");
        assert_eq!(probes, 2);
    }
}

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

use std::collections::HashSet;
use std::sync::Arc;

use sapphire_rdf::{Literal, Term};
use sapphire_sparql::{
    GraphPattern, InlineData, Projection, SelectItem, SelectQuery, Solutions, TermPattern,
};
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
        *slot_mut(&mut query.pattern, (self.triple_index, self.position))? =
            TermPattern::Term(self.term.clone());
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

/// Algorithm 2 lines 23–24: walk one kind's ranked `candidates` and keep the
/// first `take` whose rewrite of `base` returns answers, with those answers
/// attached. Only kept candidates are cloned.
///
/// `answers` is the endpoint: the rows of a query, `Ok(None)` for a query it
/// could not answer but that fails nothing, `Err` for a failure the caller
/// wants back. It is asked two kinds of question:
///
/// * one **probe** per `(triple_index, position)` slot, the first time the
///   walk reaches a candidate of that slot: `base`'s pattern and filters with
///   the slot turned into a fresh variable, `VALUES` that variable over the
///   slot's candidate terms, `SELECT DISTINCT` that variable — *which* of the
///   candidates have any answer. A candidate the probe does not report is
///   passed over without its rewrite being run: a pattern without solutions
///   has no rows under any modifiers. (Except an aggregate without `GROUP
///   BY`, which answers one row over no solutions: such a `base` is not
///   probed.) A probe that was not answered — `Ok(None)` or `Err` — filters
///   nothing: what is kept never depends on whether a probe succeeded.
/// * one **prefetch** per candidate that may be kept: its whole rewrite,
///   modifiers and all. It is kept if that returns rows, passed over on
///   `Ok(None)`; the first `Err` ends the walk and is returned as is.
///
/// The walk stops as soon as `take` are kept, so the endpoint is asked a
/// question per slot and one per candidate with solutions down to the
/// `take`-th kept, where every candidate's rewrite used to be one. A
/// candidate that does not fit `base` (see
/// [`TermAlternative::rewrite`]) is neither probed nor rewritten; a caller
/// whose candidates come from outside the process checks them before it
/// calls.
pub fn top_with_answers<E>(
    base: &SelectQuery,
    candidates: &[TermAlternative],
    take: usize,
    mut answers: impl FnMut(&SelectQuery) -> Result<Option<Solutions>, E>,
) -> Result<Vec<TermAlternative>, E> {
    let probed =
        base.pattern.values.is_none() && (!base.has_aggregates() || !base.group_by.is_empty());
    // Per slot reached so far: the candidate terms with answers, or `None`
    // when the probe was not answered.
    let mut live: Vec<(Slot, Option<HashSet<Term>>)> = Vec::new();
    let mut kept: Vec<TermAlternative> = Vec::new();
    for cand in candidates {
        if kept.len() >= take {
            break;
        }
        if cand.triple_index >= base.pattern.triples.len() {
            continue;
        }
        if probed {
            let slot = (cand.triple_index, cand.position);
            if !live.iter().any(|(s, _)| *s == slot) {
                let found = answers(&probe(base, slot, candidates)).ok().flatten();
                let terms = |f: Solutions| f.rows.into_iter().filter_map(|mut row| row.pop()?);
                live.push((slot, found.map(|f| terms(f).collect())));
            }
            let (_, live) = live.iter().find(|(s, _)| *s == slot).expect("just probed");
            if live.as_ref().is_some_and(|live| !live.contains(&cand.term)) {
                continue;
            }
        }
        let rewritten = cand.rewrite(base).expect("the index is inside `base`");
        match answers(&rewritten)? {
            Some(found) if !found.is_empty() => kept.push(TermAlternative {
                answers: found,
                ..cand.clone()
            }),
            _ => {}
        }
    }
    Ok(kept)
}

/// What one alternative replaces.
type Slot = (usize, AlteredPosition);

fn slot_mut(pattern: &mut GraphPattern, (triple, position): Slot) -> Option<&mut TermPattern> {
    let triple = pattern.triples.get_mut(triple)?;
    Some(match position {
        AlteredPosition::Predicate => &mut triple.predicate,
        AlteredPosition::Object => &mut triple.object,
    })
}

/// "Which of `slot`'s candidate terms have any answer?" — see
/// [`top_with_answers`].
fn probe(base: &SelectQuery, slot: Slot, candidates: &[TermAlternative]) -> SelectQuery {
    let taken = base.pattern.variables();
    let var = (0..)
        .map(|n| format!("alt{n}"))
        .find(|name| !taken.contains(name))
        .expect("a pattern names finitely many variables");
    let mut pattern = base.pattern.clone();
    *slot_mut(&mut pattern, slot).expect("the slot is inside `base`") =
        TermPattern::Var(var.clone());
    // Counted before they are cloned: a list of a thousand terms is
    // allocated once, at its size.
    let of_slot: Vec<&Term> = candidates
        .iter()
        .filter(|c| (c.triple_index, c.position) == slot)
        .map(|c| &c.term)
        .collect();
    pattern.values = Some(InlineData {
        terms: of_slot.into_iter().cloned().collect(),
        var: var.clone(),
    });
    SelectQuery {
        distinct: true,
        projection: Projection::Items(vec![SelectItem::Var(var)]),
        ..SelectQuery::star(pattern)
    }
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

    /// A stub endpoint for the cut: a probe (the one question with `VALUES`)
    /// is answered with `live`, one row a term; anything else is a prefetch,
    /// logged by the term it put in the first triple's object slot and
    /// answered by `prefetch` (given that log's length).
    #[derive(Default)]
    struct Asked {
        probes: Vec<SelectQuery>,
        prefetched: Vec<Term>,
    }

    fn ask<E>(
        asked: &mut Asked,
        query: &SelectQuery,
        live: &[&Term],
        prefetch: impl FnOnce(usize) -> Result<Option<Solutions>, E>,
    ) -> Result<Option<Solutions>, E> {
        if let Some(data) = &query.pattern.values {
            asked.probes.push(query.clone());
            return Ok(Some(Solutions {
                vars: vec![data.var.clone()],
                rows: live.iter().map(|t| vec![Some((*t).clone())]).collect(),
            }));
        }
        let slot = query.pattern.triples[0].object.as_term().unwrap().clone();
        asked.prefetched.push(slot);
        prefetch(asked.prefetched.len())
    }

    fn terms(candidates: &[TermAlternative]) -> Vec<Term> {
        candidates.iter().map(|c| c.term.clone()).collect()
    }

    #[test]
    fn the_cut_stops_probing_once_take_are_kept() {
        let (q, candidates) = five_candidates();
        let all = terms(&candidates);
        let live: Vec<&Term> = all.iter().collect();
        let mut log = Asked::default();
        let kept = top_with_answers(&q, &candidates, 2, |query| {
            ask(&mut log, query, &live, |_| {
                Ok::<_, Infallible>(Some(one_row()))
            })
        })
        .unwrap();
        // One probe for the one slot, then a prefetch per kept candidate:
        // candidates past the second kept are not executed.
        assert_eq!(log.probes.len(), 1);
        assert_eq!(log.prefetched, all[..2]);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].replacement, "alt0");
        assert_eq!(kept[1].answers, one_row());
        // The probe: the pattern with the slot a fresh variable, that
        // variable over every candidate term in rank order, DISTINCT, bare.
        let expected = parse_select(&format!(
            "SELECT DISTINCT ?alt0 WHERE {{ ?p dbo:surname ?alt0 VALUES ?alt0 {{ {} }} }}",
            all.iter()
                .map(Term::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        ))
        .unwrap();
        assert_eq!(log.probes[0], expected);
    }

    #[test]
    fn the_cut_skips_rewrites_without_answers() {
        let (q, mut candidates) = five_candidates();
        // Best of all, but aimed outside the query: neither probed nor
        // rewritten.
        let stray = TermAlternative {
            triple_index: 1,
            term: Term::en("stray"),
            ..candidates[0].clone()
        };
        candidates.insert(0, stray);
        let all = terms(&candidates[1..]);
        let live = [&all[1], &all[3], &all[4]];
        let mut log = Asked::default();
        let kept = top_with_answers(&q, &candidates, 2, |query| {
            // alt1 has solutions but its whole rewrite (a slice, say) no rows.
            ask(&mut log, query, &live, |nth| {
                Ok::<_, Infallible>(Some(if nth == 1 {
                    Solutions::default()
                } else {
                    one_row()
                }))
            })
        })
        .unwrap();
        let names: Vec<&str> = kept.iter().map(|a| a.replacement.as_str()).collect();
        assert_eq!(names, ["alt3", "alt4"]);
        // What the probe did not report was never run; what it did report
        // was, each its own rewrite, in rank order.
        assert_eq!(
            log.prefetched,
            [live[0].clone(), live[1].clone(), live[2].clone()]
        );
        assert_eq!(log.probes.len(), 1);
        let data = log.probes[0].pattern.values.as_ref().unwrap();
        assert_eq!(
            data.terms.to_vec(),
            all,
            "the stray's term is not asked about"
        );
    }

    #[test]
    fn the_cut_probes_a_slot_when_the_walk_first_reaches_it() {
        let q = parse_select(
            r#"SELECT ?p WHERE { ?p dbo:surname "x"@en . ?p dbo:name "y"@en } ORDER BY ?p LIMIT 3"#,
        )
        .unwrap();
        let (_, first) = five_candidates();
        // Ranked: slot 0, slot 1, slot 0, slot 1, slot 0.
        let candidates: Vec<TermAlternative> = first
            .into_iter()
            .enumerate()
            .map(|(i, c)| TermAlternative {
                triple_index: i % 2,
                ..c
            })
            .collect();
        let all = terms(&candidates);
        for (take, probes, prefetches) in [(1, 1, 1), (2, 2, 2), (9, 2, 5)] {
            let live: Vec<&Term> = all.iter().collect();
            let mut log = Asked::default();
            let mut prefetched = Vec::new();
            let kept = top_with_answers(&q, &candidates, take, |query| {
                if query.pattern.values.is_none() {
                    prefetched.push(query.clone());
                }
                ask(&mut log, query, &live, |_| {
                    Ok::<_, Infallible>(Some(one_row()))
                })
            })
            .unwrap();
            assert_eq!(kept.len(), prefetches);
            assert_eq!((log.probes.len(), prefetched.len()), (probes, prefetches));
            // A prefetch is the candidate's own rewrite, modifiers and all; a
            // probe carries the pattern alone, its slot's terms only.
            for (rewritten, cand) in prefetched.iter().zip(&candidates) {
                assert_eq!(Some(rewritten), cand.rewrite(&q).as_ref());
            }
            for (slot, probe) in log.probes.iter().enumerate() {
                assert!(probe.order_by.is_empty() && probe.limit.is_none());
                let data = probe.pattern.values.as_ref().unwrap();
                let of_slot: Vec<Term> = all.iter().skip(slot).step_by(2).cloned().collect();
                assert_eq!(data.terms.to_vec(), of_slot);
                assert_eq!(
                    probe.pattern.triples[slot].object,
                    TermPattern::var(&data.var)
                );
                assert_eq!(probe.pattern.triples[1 - slot], q.pattern.triples[1 - slot]);
            }
        }
    }

    #[test]
    fn the_cut_returns_the_first_error_without_probing_further() {
        let (q, candidates) = five_candidates();
        let all = terms(&candidates);
        let live: Vec<&Term> = all.iter().collect();
        let mut log = Asked::default();
        let result = top_with_answers(&q, &candidates, 5, |query| {
            ask(&mut log, query, &live, |nth| match nth {
                1 => Ok(None),
                2 => Ok(Some(one_row())),
                _ => Err("shed"),
            })
        });
        assert_eq!(result.unwrap_err(), "shed");
        assert_eq!((log.probes.len(), log.prefetched.len()), (1, 3));
        // A prefetch the endpoint could not answer is passed over.
        let kept = top_with_answers(&q, &candidates, 5, |query| {
            ask(&mut Asked::default(), query, &live, |_| {
                Ok::<_, Infallible>(None)
            })
        })
        .unwrap();
        assert!(kept.is_empty());
    }

    #[test]
    fn a_probe_that_is_not_answered_filters_nothing() {
        let (q, candidates) = five_candidates();
        let all = terms(&candidates);
        for failed in [Ok(None), Err("probe refused")] {
            let mut prefetched = Vec::new();
            let kept = top_with_answers(&q, &candidates, 2, |query| {
                if query.pattern.values.is_some() {
                    return failed.clone();
                }
                prefetched.push(query.pattern.triples[0].object.as_term().unwrap().clone());
                Ok(Some(if prefetched.len() % 2 == 0 {
                    one_row()
                } else {
                    Solutions::default()
                }))
            })
            .unwrap();
            // The walk of old: every candidate's rewrite, in rank order,
            // until `take` are kept.
            assert_eq!(prefetched, all[..4]);
            let names: Vec<&str> = kept.iter().map(|a| a.replacement.as_str()).collect();
            assert_eq!(names, ["alt1", "alt3"]);
        }
    }

    #[test]
    fn an_aggregate_without_group_by_is_not_probed() {
        let (_, candidates) = five_candidates();
        let count = r#"SELECT (COUNT(?p) AS ?n) WHERE { ?p dbo:surname "x"@en }"#;
        let grouped = r#"SELECT ?p (COUNT(?p) AS ?n) WHERE { ?p dbo:surname "x"@en } GROUP BY ?p"#;
        for (query, probes, prefetches) in [(count, 0, 5), (grouped, 1, 0)] {
            let mut log = Asked::default();
            let kept = top_with_answers(&parse_select(query).unwrap(), &candidates, 9, |q| {
                // No candidate has a solution; a bare COUNT answers "0" anyway.
                ask(&mut log, q, &[], |_| Ok::<_, Infallible>(Some(one_row())))
            })
            .unwrap();
            assert_eq!(
                (log.probes.len(), log.prefetched.len()),
                (probes, prefetches)
            );
            assert_eq!(kept.len(), prefetches);
        }
    }
}

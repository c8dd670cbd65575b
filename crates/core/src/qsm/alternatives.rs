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
//! with answers" cut (lines 23–24), over any [`RankedCandidates`]: the model
//! hands it its literal candidates as references into the memo, so only what
//! the cut keeps becomes a [`TermAlternative`]; a cluster edge hands it the
//! list its shards sent, with its cluster-wide answers.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use sapphire_rdf::{Literal, Term};
use sapphire_sparql::{
    GraphPattern, InlineData, Projection, SelectItem, SelectQuery, Solutions, TermPattern,
};
use sapphire_text::{surface_form, Lexicon};

use crate::cache::{CachedData, LitRef, ShardedLru};
use crate::config::{SapphireConfig, LANGUAGE};
use crate::qsm::MEMO_CACHE_SHARDS;

/// Which position of a triple pattern an alternative replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlteredPosition {
    /// The predicate was replaced.
    Predicate,
    /// The object literal was replaced.
    Object,
}

/// What one alternative replaces: `(triple_index, position)`.
pub type Slot = (usize, AlteredPosition);

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
        rewrite(base, (self.triple_index, self.position), &self.term)
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

/// Lines 13–14's order: the higher similarity first.
fn by_similarity(a: f64, b: f64) -> Ordering {
    b.partial_cmp(&a).unwrap_or(Ordering::Equal)
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
    literal_alts: AltCache<Arc<[(LitRef, f64)]>>,
    predicate_alts: AltCache<Arc<Vec<(String, f64)>>>,
}

/// A small sharded LRU over ranked alternative lists, keyed by the term
/// they are alternatives of.
#[derive(Debug)]
struct AltCache<V> {
    shards: ShardedLru<String, V>,
}

impl<V: Clone> AltCache<V> {
    fn new(capacity_per_shard: usize) -> Self {
        AltCache {
            shards: ShardedLru::new(MEMO_CACHE_SHARDS, capacity_per_shard),
        }
    }

    fn get_or_insert(&self, key: &str, compute: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.shards.get(key) {
            return hit;
        }
        // Compute outside the shard lock: the sweep is the expensive part,
        // and a concurrent duplicate sweep is idempotent (pure function).
        let value = compute();
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
    /// The literal-alternatives cache (bin-banded JW sweep per literal; an
    /// entry holds 16 B an alternative — a [`LitRef`] and its score).
    pub literal: crate::cache::CacheStats,
    /// The predicate-alternatives cache (JW sweep per lexicon verbalization).
    pub predicate: crate::cache::CacheStats,
}

impl AlternativeFinder {
    /// Build a finder.
    pub fn new(cache: Arc<CachedData>, lexicon: Lexicon, config: SapphireConfig) -> Self {
        let capacity = config.neighborhood_cache_capacity;
        AlternativeFinder {
            cache,
            lexicon,
            config,
            literal_alts: AltCache::new(capacity),
            predicate_alts: AltCache::new(capacity),
        }
    }

    /// The cache whose literal arena
    /// [`literal_alternatives`](Self::literal_alternatives) refers into.
    pub fn cache(&self) -> &CachedData {
        &self.cache
    }

    /// Hit/miss/eviction counters of both memoization caches.
    pub fn alt_cache_stats(&self) -> AltCacheStats {
        AltCacheStats {
            literal: self.literal_alts.stats(),
            predicate: self.predicate_alts.stats(),
        }
    }

    /// Literal alternatives for a single literal value: the
    /// [`similar_literals`](CachedData::similar_literals) of `value` other
    /// than `value` itself, best first, as references into the cache's
    /// literal arena ([`CachedData::literal_text`] reads one). Also read by
    /// the Steiner seed groups (Algorithm 3 line 3). Memoized across
    /// requests (pure function of the model); an entry holds no text, 16 B
    /// an alternative.
    pub fn literal_alternatives(&self, value: &str) -> Arc<[(LitRef, f64)]> {
        self.literal_alts.get_or_insert(value, || {
            self.cache
                .similar_literal_refs(
                    value,
                    self.config.alpha,
                    self.config.beta,
                    self.config.theta,
                    self.config.processes,
                )
                .into_iter()
                .filter(|&(lit, _)| self.cache.literal_text(lit) != value)
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
            best.sort_by(|a, b| by_similarity(a.1, b.1));
            Arc::new(best)
        })
    }

    /// The ranked candidates of Algorithm 2 lines 1–14, *before* execution,
    /// one kind each: every similar predicate as an edit with empty (not
    /// yet prefetched) answers, sorted by similarity, and every similar
    /// literal as a [`LiteralCandidates`] view over the memo.
    pub(crate) fn candidate_lists<'a>(
        &'a self,
        query: &'a SelectQuery,
    ) -> (Vec<TermAlternative>, LiteralCandidates<'a>) {
        let mut predicate_candidates: Vec<TermAlternative> = Vec::new();
        let mut literal_slots: Vec<LiteralSlot<'a>> = Vec::new();

        for (ti, triple) in query.pattern.triples.iter().enumerate() {
            // Predicates.
            if let TermPattern::Term(Term::Iri(p_iri)) = &triple.predicate {
                let original = surface_form(p_iri);
                for (alt_iri, score) in self.predicate_alternatives(p_iri).iter() {
                    predicate_candidates.push(TermAlternative {
                        triple_index: ti,
                        position: AlteredPosition::Predicate,
                        term: Term::iri(alt_iri.clone()),
                        original: original.clone(),
                        replacement: surface_form(alt_iri),
                        similarity: *score,
                        answers: Solutions::default(),
                    });
                }
            }
            // Literals (objects only; literals cannot be subjects). Cached
            // literals were retrieved with §5.1's language filter, so
            // replacements keep the original's language tag (or gain
            // [`LANGUAGE`]) — this is what makes the rewritten query
            // ground-match the data.
            if let TermPattern::Term(Term::Literal(lit)) = &triple.object {
                literal_slots.push(LiteralSlot {
                    triple_index: ti,
                    original: &lit.value,
                    lang: lit.lang.as_deref().unwrap_or(LANGUAGE),
                    alternatives: self.literal_alternatives(&lit.value),
                    terms: OnceCell::new(),
                });
            }
        }

        // Lines 13–14: sort by similarity.
        predicate_candidates.sort_by(|a, b| by_similarity(a.similarity, b.similarity));
        (
            predicate_candidates,
            LiteralCandidates::new(&self.cache, literal_slots),
        )
    }
}

/// One kind's ranked candidates as [`top_with_answers`] walks them, by rank
/// `i`. A list of [`TermAlternative`]s is one (a cluster edge's merged
/// list); the model's literal candidates are another, references into its
/// memo that become an alternative only when the cut keeps them.
pub trait RankedCandidates {
    /// Number of candidates.
    fn len(&self) -> usize;

    /// True if there is no candidate.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot candidate `i` replaces.
    fn slot(&self, i: usize) -> Slot;

    /// Candidate `i`'s replacement term.
    fn term(&self, i: usize) -> &Term;

    /// The terms of every candidate of `slot`, in rank order — what the
    /// slot's probe asks about.
    fn slot_terms(&self, slot: Slot) -> Arc<[Term]>;

    /// Candidate `i` as an alternative with `answers` prefetched.
    fn keep(&self, i: usize, answers: Solutions) -> TermAlternative;
}

/// A list of alternatives — a slice, a `Vec` — ranked as it stands.
impl<L: AsRef<[TermAlternative]> + ?Sized> RankedCandidates for L {
    fn len(&self) -> usize {
        self.as_ref().len()
    }

    fn slot(&self, i: usize) -> Slot {
        let c = &self.as_ref()[i];
        (c.triple_index, c.position)
    }

    fn term(&self, i: usize) -> &Term {
        &self.as_ref()[i].term
    }

    fn slot_terms(&self, slot: Slot) -> Arc<[Term]> {
        // Counted before they are cloned: a list of a thousand terms is
        // allocated once, at its size.
        let of_slot: Vec<&Term> = (self.as_ref().iter())
            .filter(|c| (c.triple_index, c.position) == slot)
            .map(|c| &c.term)
            .collect();
        of_slot.into_iter().cloned().collect()
    }

    fn keep(&self, i: usize, answers: Solutions) -> TermAlternative {
        TermAlternative {
            answers,
            ..self.as_ref()[i].clone()
        }
    }
}

/// The model's literal candidates of one query (Algorithm 2 lines 8–14):
/// each ground object literal's memoized alternatives, by reference, ranked
/// together. A slot's terms are built once, when the walk first reaches
/// it, and shared by its probe, the liveness checks and the prefetches;
/// only what the cut keeps becomes a [`TermAlternative`].
pub(crate) struct LiteralCandidates<'a> {
    cache: &'a CachedData,
    slots: Vec<LiteralSlot<'a>>,
    /// `(slot, alternative)` pairs in rank order: the slot-major list,
    /// stably sorted by similarity.
    order: Vec<(usize, usize)>,
}

/// One ground object literal of the query and its alternatives.
struct LiteralSlot<'a> {
    triple_index: usize,
    original: &'a str,
    /// The language tag every replacement carries.
    lang: &'a str,
    alternatives: Arc<[(LitRef, f64)]>,
    terms: OnceCell<Arc<[Term]>>,
}

impl<'a> LiteralCandidates<'a> {
    fn new(cache: &'a CachedData, slots: Vec<LiteralSlot<'a>>) -> Self {
        let mut order: Vec<(usize, usize)> = (slots.iter().enumerate())
            .flat_map(|(s, slot)| (0..slot.alternatives.len()).map(move |j| (s, j)))
            .collect();
        let score = |&(s, j): &(usize, usize)| slots[s].alternatives[j].1;
        order.sort_by(|a, b| by_similarity(score(a), score(b)));
        LiteralCandidates {
            cache,
            slots,
            order,
        }
    }

    /// Slot `s`'s replacement terms, in its memo's order.
    fn terms(&self, s: usize) -> &Arc<[Term]> {
        let slot = &self.slots[s];
        slot.terms.get_or_init(|| {
            (slot.alternatives.iter())
                .map(|&(lit, _)| {
                    Term::Literal(Literal::lang_tagged(
                        self.cache.literal_text(lit),
                        slot.lang,
                    ))
                })
                .collect()
        })
    }

    /// Alternative `j` of slot `s`, with `answers`.
    fn alternative(&self, s: usize, j: usize, answers: Solutions) -> TermAlternative {
        let slot = &self.slots[s];
        let (lit, similarity) = slot.alternatives[j];
        TermAlternative {
            triple_index: slot.triple_index,
            position: AlteredPosition::Object,
            term: self.terms(s)[j].clone(),
            original: slot.original.to_string(),
            replacement: self.cache.literal_text(lit).to_string(),
            similarity,
            answers,
        }
    }

    /// Every candidate as an alternative with empty answers, built slot by
    /// slot and then stably sorted by similarity — the list a shard sends a
    /// cluster edge, and the order [`RankedCandidates::slot`] is held to.
    pub(crate) fn materialize(&self) -> Vec<TermAlternative> {
        let mut all: Vec<TermAlternative> = (self.slots.iter().enumerate())
            .flat_map(|(s, slot)| (0..slot.alternatives.len()).map(move |j| (s, j)))
            .map(|(s, j)| self.alternative(s, j, Solutions::default()))
            .collect();
        all.sort_by(|a, b| by_similarity(a.similarity, b.similarity));
        all
    }
}

impl RankedCandidates for LiteralCandidates<'_> {
    fn len(&self) -> usize {
        self.order.len()
    }

    fn slot(&self, i: usize) -> Slot {
        let triple = self.slots[self.order[i].0].triple_index;
        (triple, AlteredPosition::Object)
    }

    fn term(&self, i: usize) -> &Term {
        let (s, j) = self.order[i];
        &self.terms(s)[j]
    }

    fn slot_terms(&self, slot: Slot) -> Arc<[Term]> {
        let of_slot = |s: &LiteralSlot| (s.triple_index, AlteredPosition::Object) == slot;
        let s = self.slots.iter().position(of_slot);
        s.map_or_else(Arc::default, |s| self.terms(s).clone())
    }

    fn keep(&self, i: usize, answers: Solutions) -> TermAlternative {
        let (s, j) = self.order[i];
        self.alternative(s, j, answers)
    }
}

/// Algorithm 2 lines 23–24: walk one kind's ranked `candidates` and keep the
/// first `take` whose rewrite of `base` returns answers, with those answers
/// attached. Only kept candidates become [`TermAlternative`]s
/// ([`RankedCandidates::keep`]).
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
/// `take`-th kept, where every candidate's rewrite used to be one. A slot
/// with a single candidate is not probed: that candidate's prefetch is the
/// same question, so it costs one query, as in the walk. A
/// candidate that does not fit `base` (see
/// [`TermAlternative::rewrite`]) is neither probed nor rewritten; a caller
/// whose candidates come from outside the process checks them before it
/// calls.
pub fn top_with_answers<R, E>(
    base: &SelectQuery,
    candidates: &R,
    take: usize,
    mut answers: impl FnMut(&SelectQuery) -> Result<Option<Solutions>, E>,
) -> Result<Vec<TermAlternative>, E>
where
    R: RankedCandidates + ?Sized,
{
    let probed =
        base.pattern.values.is_none() && (!base.has_aggregates() || !base.group_by.is_empty());
    // Per slot reached so far: the candidate terms with answers, or `None`
    // when the probe was not answered.
    let mut live: Vec<(Slot, Option<HashSet<Term>>)> = Vec::new();
    let mut kept: Vec<TermAlternative> = Vec::new();
    for i in 0..candidates.len() {
        if kept.len() >= take {
            break;
        }
        let slot = candidates.slot(i);
        if slot.0 >= base.pattern.triples.len() {
            continue;
        }
        if probed {
            if !live.iter().any(|(s, _)| *s == slot) {
                // A slot whose only candidate is this one is not probed: the
                // prefetch below asks the same question, and nothing else
                // would read the answer.
                let terms = candidates.slot_terms(slot);
                let found = if terms.len() < 2 {
                    None
                } else {
                    answers(&probe(base, slot, terms)).ok().flatten()
                };
                let terms = |f: Solutions| f.rows.into_iter().filter_map(|mut row| row.pop()?);
                live.push((slot, found.map(|f| terms(f).collect())));
            }
            let (_, live) = live.iter().find(|(s, _)| *s == slot).expect("just probed");
            if live
                .as_ref()
                .is_some_and(|live| !live.contains(candidates.term(i)))
            {
                continue;
            }
        }
        let rewritten =
            rewrite(base, slot, candidates.term(i)).expect("the index is inside `base`");
        match answers(&rewritten)? {
            Some(found) if !found.is_empty() => kept.push(candidates.keep(i, found)),
            _ => {}
        }
    }
    Ok(kept)
}

fn slot_mut(pattern: &mut GraphPattern, (triple, position): Slot) -> Option<&mut TermPattern> {
    let triple = pattern.triples.get_mut(triple)?;
    Some(match position {
        AlteredPosition::Predicate => &mut triple.predicate,
        AlteredPosition::Object => &mut triple.object,
    })
}

/// `base` with `slot` holding `term`; `None` when the slot is outside it.
fn rewrite(base: &SelectQuery, slot: Slot, term: &Term) -> Option<SelectQuery> {
    let mut query = base.clone();
    *slot_mut(&mut query.pattern, slot)? = TermPattern::Term(term.clone());
    Some(query)
}

/// "Which of `slot`'s candidate `terms` have any answer?" — see
/// [`top_with_answers`].
fn probe(base: &SelectQuery, slot: Slot, terms: Arc<[Term]>) -> SelectQuery {
    let taken = base.pattern.variables();
    let var = (0..)
        .map(|n| format!("alt{n}"))
        .find(|name| !taken.contains(name))
        .expect("a pattern names finitely many variables");
    let mut pattern = base.pattern.clone();
    *slot_mut(&mut pattern, slot).expect("the slot is inside `base`") =
        TermPattern::Var(var.clone());
    pattern.values = Some(InlineData {
        terms,
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
    use sapphire_sparql::parse_select;
    use sapphire_sparql::turtle;
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
        let texts: Vec<&str> = alts
            .iter()
            .map(|&(lit, _)| finder.cache().literal_text(lit))
            .collect();
        assert!(texts.contains(&"Kennedy"));
        assert!(!texts.contains(&"Kennedy Onassis"));
    }

    /// The memo holds references on both sides of the arena boundary —
    /// residual ids below `bins.len()`, significant literals above it — and
    /// read back as text they are the sweep's list without the value itself.
    #[test]
    fn literal_alternatives_read_back_as_the_similar_literals() {
        let stems = ["Kennedy", "ΟΔΟΣ", "İstanbul", "Straße", "kenneth", "ÉCOLE"];
        let literals: Vec<(String, u64)> = (0..600)
            .map(|i| {
                let text = format!("{} {i:0w$}", stems[i % stems.len()], w = 3 + i % 5);
                (text, (i * 7 % 11) as u64)
            })
            .collect();
        let values = [
            "Kennedys 0000012",
            "οδοσ 00100",
            "strasse 004",
            "Kenneth 1",
            "Kennedy 000",
            "zzz",
        ];
        for capacity in [0, 250, 600] {
            let config = SapphireConfig {
                suffix_tree_capacity: capacity,
                processes: 2,
                ..SapphireConfig::for_tests()
            };
            let cache = Arc::new(CachedData::from_raw(vec![], literals.clone(), &config));
            let residual = cache.bins.len() as LitRef;
            let finder = AlternativeFinder::new(cache.clone(), Lexicon::dbpedia_default(), config);
            let c = &finder.config;
            let (mut below, mut above) = (0, 0);
            for value in values {
                let expected: Vec<(String, f64)> = cache
                    .similar_literals(value, c.alpha, c.beta, c.theta, c.processes)
                    .into_iter()
                    .filter(|(text, _)| text != value)
                    .collect();
                for _ in 0..2 {
                    let refs = finder.literal_alternatives(value);
                    let texts: Vec<(String, f64)> = refs
                        .iter()
                        .map(|&(lit, score)| (cache.literal_text(lit).to_string(), score))
                        .collect();
                    assert_eq!(texts, expected, "capacity {capacity} {value:?}");
                    below += refs.iter().filter(|&&(lit, _)| lit < residual).count();
                    above += refs.iter().filter(|&&(lit, _)| lit >= residual).count();
                }
            }
            assert_eq!(below > 0, capacity < 600, "capacity {capacity}");
            assert_eq!(above > 0, capacity > 0, "capacity {capacity}");
        }
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
    fn a_slot_with_one_candidate_is_prefetched_not_probed() {
        let q = parse_select(r#"SELECT ?p WHERE { ?p dbo:surname "x"@en . ?p dbo:name "y"@en }"#)
            .unwrap();
        let (_, five) = five_candidates();
        // Slot 1 holds the best candidate alone; slot 0 the other four.
        let candidates: Vec<TermAlternative> = five
            .into_iter()
            .enumerate()
            .map(|(i, c)| TermAlternative {
                triple_index: usize::from(i == 0),
                ..c
            })
            .collect();
        let all = terms(&candidates);
        for (live, kept_names, prefetched) in [
            (vec![&all[0], &all[2]], vec!["alt0", "alt2"], 2),
            // The lone candidate has no solutions: the probe would have
            // spared its prefetch, which now answers the same question.
            (vec![&all[2], &all[3]], vec!["alt2", "alt3"], 3),
        ] {
            let mut probes = Vec::new();
            let mut asked = 0;
            let kept = top_with_answers(&q, &candidates, 2, |query| {
                asked += 1;
                if let Some(data) = &query.pattern.values {
                    probes.push(data.terms.to_vec());
                    let rows = live.iter().map(|t| vec![Some((*t).clone())]).collect();
                    return Ok::<_, Infallible>(Some(Solutions {
                        vars: vec![data.var.clone()],
                        rows,
                    }));
                }
                // A prefetch: the one object that differs from `q`'s.
                let (rewritten, original) = (&query.pattern.triples, &q.pattern.triples);
                let edited = (0..2).find(|&i| rewritten[i] != original[i]).unwrap();
                let term = rewritten[edited].object.as_term().unwrap();
                Ok(Some(if live.contains(&term) {
                    one_row()
                } else {
                    Solutions::default()
                }))
            })
            .unwrap();
            let names: Vec<&str> = kept.iter().map(|a| a.replacement.as_str()).collect();
            assert_eq!(names, kept_names);
            // Only slot 0 is probed, and over its own four terms.
            assert_eq!(probes, [all[1..].to_vec()]);
            assert_eq!(asked, 1 + prefetched);
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

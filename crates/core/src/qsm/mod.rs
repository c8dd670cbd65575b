//! The Query Suggestion Module (§6.2).
//!
//! Invoked whenever a query executes. Produces suggestions in the paper's two
//! directions: **alternative terms** (Algorithm 2 — "did you mean
//! *predicate′* instead of *predicate*?") and **relaxed structure**
//! (Algorithm 3 — reconnect the query's literals through paths that actually
//! exist in the data). Both run against the federated processor, and
//! suggested queries arrive with their answers prefetched.

pub mod alternatives;
pub mod neighborhood;
pub mod relax;

use std::collections::HashSet;
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sapphire_endpoint::FederatedProcessor;
use sapphire_rdf::{Literal, Term};
use sapphire_sparql::{Query, SelectQuery, Solutions, TermPattern};
use sapphire_text::Lexicon;

use crate::cache::CachedData;
use crate::config::SapphireConfig;

pub use alternatives::{
    top_with_answers, AltCacheStats, AlteredPosition, AlternativeFinder, TermAlternative,
};
pub use neighborhood::{Neighbor, NeighborhoodCache, NeighborhoodStats};
pub use relax::{RelaxedQuery, StructureRelaxer};

/// A relaxed-structure suggestion with prefetched answers.
#[derive(Debug, Clone)]
pub struct StructureSuggestion {
    /// The relaxation result.
    pub relaxed: RelaxedQuery,
    /// Prefetched answers of the relaxed query.
    pub answers: Solutions,
}

/// Everything the QSM produced for one executed query.
#[derive(Debug, Clone, Default)]
pub struct QsmOutput {
    /// "Did you mean …" single-term rewrites.
    pub alternatives: Vec<TermAlternative>,
    /// Structure relaxations.
    pub relaxations: Vec<StructureSuggestion>,
    /// Every ranked rewrite candidate *before* the "returns answers" cut
    /// (answers not prefetched). A cluster edge merges these across shards
    /// and applies the cut against the global answer set; single-box users
    /// read [`alternatives`](Self::alternatives). A candidate is an edit —
    /// two short display strings, a score and the replacement [`Term`], no
    /// query — and the list is shared (`Arc`) so that cloning a `QsmOutput`
    /// per run request on the serving hot path stays a pointer bump.
    pub candidates: Arc<Vec<TermAlternative>>,
    /// Wall-clock time spent producing the suggestions (§7.3.2 reports ~10 s
    /// on live DBpedia; ours is dominated by the simulated endpoint).
    pub elapsed: Duration,
    /// The budget-ladder tier the Steiner relaxation ran at
    /// (0 = the full [`SteinerConfig::query_budget`](crate::SteinerConfig)).
    pub tier: usize,
    /// True when [`tier`](Self::tier) > 0: the relaxation ran with a reduced
    /// budget because the serving layer chose to shed under load. A caching
    /// layer must key degraded output separately from full output — the two
    /// may legitimately differ for the same query.
    pub degraded: bool,
}

impl QsmOutput {
    /// True if the QSM found nothing to suggest.
    pub fn is_empty(&self) -> bool {
        self.alternatives.is_empty() && self.relaxations.is_empty()
    }

    /// Total number of suggestions.
    pub fn len(&self) -> usize {
        self.alternatives.len() + self.relaxations.len()
    }
}

/// The Query Suggestion Module.
pub struct QuerySuggestion {
    finder: AlternativeFinder,
    config: SapphireConfig,
    /// Cross-request Steiner expansion cache, shared by every relaxation
    /// against this model (the model's data is immutable, so neighbor lists
    /// are pure functions of it — see [`neighborhood`]).
    neighborhood: Arc<NeighborhoodCache>,
    /// Observability handle installed by the serving tier (write-once).
    /// Purely additive: stage timings and trace spans land here, never
    /// anything that feeds back into what the QSM computes.
    obs: OnceLock<Arc<sapphire_obs::Obs>>,
}

impl QuerySuggestion {
    /// Build a QSM over a cache and lexicon.
    pub fn new(cache: Arc<CachedData>, lexicon: Lexicon, config: SapphireConfig) -> Self {
        QuerySuggestion {
            finder: AlternativeFinder::new(cache, lexicon, config.clone()),
            neighborhood: Arc::new(NeighborhoodCache::new(
                config.neighborhood_cache_shards,
                config.neighborhood_cache_capacity,
            )),
            config,
            obs: OnceLock::new(),
        }
    }

    /// Install the serving tier's observability handle (first caller wins;
    /// later installs are ignored so shared models behave deterministically).
    pub fn install_obs(&self, obs: Arc<sapphire_obs::Obs>) {
        let _ = self.obs.set(obs);
    }

    /// Access the underlying alternative finder.
    pub fn finder(&self) -> &AlternativeFinder {
        &self.finder
    }

    /// The shared expansion cache (e.g. for observability snapshots).
    pub fn neighborhood(&self) -> &Arc<NeighborhoodCache> {
        &self.neighborhood
    }

    /// Produce suggestions for an executed query (full budget tier).
    pub fn suggest(&self, query: &SelectQuery, fed: &FederatedProcessor) -> QsmOutput {
        self.suggest_tiered(query, fed, 0)
    }

    /// Produce suggestions with the Steiner relaxation running at budget
    /// `tier` (see [`SteinerConfig::budget_for`](crate::SteinerConfig::budget_for)).
    /// Tier 0 is the full budget; higher tiers mark the output `degraded`.
    pub fn suggest_tiered(
        &self,
        query: &SelectQuery,
        fed: &FederatedProcessor,
        tier: usize,
    ) -> QsmOutput {
        let start = Instant::now();
        // Build the shared candidate list first (predicates lead, matching
        // the presentation order), then prefetch by borrowing slices of it —
        // the prefetch pass clones only the entries it keeps.
        let (predicate_candidates, literal_candidates) = self.finder.candidate_lists(query);
        let predicate_count = predicate_candidates.len();
        let candidates: Arc<Vec<TermAlternative>> = Arc::new(
            predicate_candidates
                .into_iter()
                .chain(literal_candidates)
                .collect(),
        );
        // Lines 23–24, once per kind. A rewrite the endpoint fails on has no
        // answers to show, so it is passed over like an empty one.
        let half = (self.config.k / 2).max(1);
        let (predicates, literals) = candidates.split_at(predicate_count);
        let mut alternatives = Vec::new();
        for kind in [predicates, literals] {
            let Ok(kept) = top_with_answers(query, kind, half, |asked| {
                Ok::<_, Infallible>(answers(fed, asked))
            });
            alternatives.extend(kept);
        }

        // Structure relaxation: seed groups are each query literal plus its
        // top k−1 alternatives (Algorithm 3 line 3).
        let literals = query_literals(query);
        // The budget tier only touches the relaxation; a query that cannot
        // relax (fewer than two literal groups) produces the same bytes at
        // every tier and must not be labeled degraded — a wrong flag would
        // cost it cacheability (tier-keyed entries, and a cluster edge
        // declines to cache degraded merges) and over-count degraded runs.
        let tier = if literals.len() >= 2 { tier } else { 0 };
        let mut relaxations = Vec::new();
        if literals.len() >= 2 {
            let groups: Vec<Vec<Term>> = literals
                .iter()
                .map(|lit| {
                    let mut group = vec![ground_literal(lit, &self.config.language)];
                    for (alt, _) in self
                        .finder
                        .literal_alternatives(&lit.value)
                        .iter()
                        .take(self.config.steiner.seeds_per_group.saturating_sub(1))
                    {
                        group.push(Term::Literal(Literal::lang_tagged(
                            alt.clone(),
                            self.config.language.clone(),
                        )));
                    }
                    group
                })
                .collect();
            let preferred = preferred_predicates(query, &alternatives);
            let relaxer = StructureRelaxer::new(fed, self.config.steiner, preferred)
                .with_cache(self.neighborhood.clone())
                .at_tier(tier);
            let mut timer = self
                .obs
                .get()
                .map(|obs| obs.time(sapphire_obs::Stage::SteinerRelax));
            let relaxed = relaxer.relax(&groups);
            if let Some(t) = timer.as_mut() {
                t.tag(if tier > 0 { "degraded" } else { "full" });
            }
            drop(timer);
            if let Some(relaxed) = relaxed {
                if let Some(answers) = answers(fed, &relaxed.query).filter(|a| !a.is_empty()) {
                    relaxations.push(StructureSuggestion { relaxed, answers });
                }
            }
        }

        QsmOutput {
            alternatives,
            relaxations,
            candidates,
            elapsed: start.elapsed(),
            tier,
            degraded: tier > 0,
        }
    }
}

/// The federated answers of a suggested query, `None` when the endpoint
/// failed it: a suggestion is not shown without answers either way, but a
/// probe that failed says nothing about its candidates
/// (see [`top_with_answers`]).
fn answers(fed: &FederatedProcessor, query: &SelectQuery) -> Option<Solutions> {
    fed.execute_parsed(&Query::Select(query.clone()))
        .ok()?
        .into_solutions()
}

/// Ground literals appearing as objects in the query.
fn query_literals(query: &SelectQuery) -> Vec<Literal> {
    let mut out = Vec::new();
    for tp in &query.pattern.triples {
        if let TermPattern::Term(Term::Literal(l)) = &tp.object {
            if !out.contains(l) {
                out.push(l.clone());
            }
        }
    }
    out
}

/// A literal as it appears in the data: cached literals carry the configured
/// language tag.
fn ground_literal(lit: &Literal, language: &str) -> Term {
    match &lit.lang {
        Some(_) => Term::Literal(lit.clone()),
        None => Term::Literal(Literal::lang_tagged(lit.value.clone(), language)),
    }
}

/// The query's own predicates plus every predicate suggested by Algorithm 2 —
/// these get weight `w_q` during expansion.
fn preferred_predicates(query: &SelectQuery, alternatives: &[TermAlternative]) -> HashSet<String> {
    let mut out = HashSet::new();
    for tp in &query.pattern.triples {
        if let TermPattern::Term(Term::Iri(iri)) = &tp.predicate {
            out.insert(iri.clone());
        }
    }
    for alt in alternatives {
        if let (AlteredPosition::Predicate, Term::Iri(iri)) = (alt.position, &alt.term) {
            out.insert(iri.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_endpoint::{Endpoint, EndpointLimits, LocalEndpoint};
    use sapphire_rdf::turtle;
    use sapphire_sparql::parse_select;

    const DATA: &str = r#"
res:Kerouac a dbo:Writer ; dbo:name "Jack Kerouac"@en .
res:VikingPress a dbo:Publisher ; rdfs:label "Viking Press"@en .
res:OnTheRoad a dbo:Book ; dbo:name "On The Road"@en ; dbo:author res:Kerouac ; dbo:publisher res:VikingPress .
res:DoorWideOpen a dbo:Book ; dbo:name "Door Wide Open"@en ; dbo:author res:Kerouac ; dbo:publisher res:VikingPress .
"#;

    fn setup() -> (QuerySuggestion, FederatedProcessor) {
        let config = SapphireConfig {
            processes: 2,
            ..SapphireConfig::for_tests()
        };
        let graph = turtle::parse(DATA).unwrap();
        let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
            "books",
            graph,
            EndpointLimits::warehouse(),
        ));
        let fed = FederatedProcessor::single(ep);
        let cache = CachedData::from_raw(
            vec![
                ("http://dbpedia.org/ontology/author".into(), 0),
                ("http://dbpedia.org/ontology/publisher".into(), 0),
                ("http://dbpedia.org/ontology/writer".into(), 0),
                ("http://dbpedia.org/ontology/name".into(), 4),
            ],
            vec![
                ("Jack Kerouac".into(), 5),
                ("Viking Press".into(), 4),
                ("On The Road".into(), 1),
                ("Door Wide Open".into(), 1),
            ],
            &config,
        );
        (
            QuerySuggestion::new(Arc::new(cache), Lexicon::dbpedia_default(), config),
            fed,
        )
    }

    #[test]
    fn figure_6_relaxation_end_to_end() {
        let (qsm, fed) = setup();
        // The user's (structurally wrong) query: book directly connected to
        // both literals.
        let q = parse_select(
            r#"SELECT ?book WHERE { ?book dbo:writer "Jack Kerouac"@en . ?book dbo:publisher "Viking Press"@en }"#,
        )
        .unwrap();
        // Direct execution returns nothing.
        assert!(fed
            .select(&format_query(&q))
            .map(|s| s.is_empty())
            .unwrap_or(true));
        let out = qsm.suggest(&q, &fed);
        assert!(!out.relaxations.is_empty(), "structure relaxation expected");
        let answers = &out.relaxations[0].answers;
        assert!(
            answers.len() >= 2,
            "both Viking Press books:\n{}",
            answers.to_table()
        );
        assert!(out.relaxations[0].relaxed.complete);
    }

    // A tiny serializer so the test can execute the same parsed query via the
    // string interface.
    fn format_query(q: &SelectQuery) -> String {
        let mut s = String::from("SELECT * WHERE { ");
        for t in &q.pattern.triples {
            s.push_str(&t.to_string());
            s.push(' ');
        }
        s.push('}');
        s
    }

    #[test]
    fn no_relaxation_for_single_literal_queries() {
        let (qsm, fed) = setup();
        let q = parse_select(r#"SELECT ?b WHERE { ?b dbo:name "On The Road"@en }"#).unwrap();
        let out = qsm.suggest(&q, &fed);
        assert!(out.relaxations.is_empty());
    }

    #[test]
    fn qsm_output_counts() {
        let (qsm, fed) = setup();
        let q = parse_select(r#"SELECT ?b WHERE { ?b dbo:name "On The Rod"@en }"#).unwrap();
        let out = qsm.suggest(&q, &fed);
        assert!(!out.is_empty());
        assert_eq!(out.len(), out.alternatives.len() + out.relaxations.len());
        // The literal typo should be corrected.
        assert!(out
            .alternatives
            .iter()
            .any(|a| a.replacement == "On The Road"));
    }
}

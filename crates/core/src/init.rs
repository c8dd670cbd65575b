//! Initialization for a new endpoint (§5, Appendix A).
//!
//! When an endpoint is registered, Sapphire caches (a) **all predicates**
//! (there are few — ~3K for DBpedia vs 70M literals), and (b) a filtered
//! subset of **literals** (≤ 80 chars, target language), partitioned along
//! the RDFS class hierarchy so every retrieval query stays under the
//! endpoint's timeout: a query that times out on a class is retried on that
//! class's (smaller) subclasses, and every class-level query is paginated
//! with LIMIT/OFFSET. *Most significant literals* (Definition 1: literals
//! whose entity has many incoming edges) are identified the same way and go
//! into the suffix tree.
//!
//! The query templates Q1–Q10 below are the ones listed in Appendix A.

use std::collections::{HashMap, HashSet};

use sapphire_endpoint::{Endpoint, EndpointError};
use sapphire_rdf::ClassHierarchy;
use sapphire_sparql::Solutions;
use sapphire_text::surface_form;

use crate::cache::{CachedClass, CachedData, CachedPredicate};
use crate::config::{SapphireConfig, LANGUAGE, LITERAL_MAX_LEN};

/// Initialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitError {
    /// A metadata query (Q1–Q4) failed outright; these are "short queries
    /// that are not expected to time out" (§5.1), so failure is fatal.
    Metadata(String),
}

impl std::fmt::Display for InitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InitError::Metadata(m) => write!(f, "initialization metadata query failed: {m}"),
        }
    }
}

impl std::error::Error for InitError {}

/// Counters for the §5.2 initialization-cost report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InitStats {
    /// Metadata queries issued (Q1–Q4).
    pub metadata_queries: u64,
    /// Predicate-filtering queries issued (Q5).
    pub filter_queries: u64,
    /// Literal-retrieval queries issued (Q6/Q7 or Q9).
    pub literal_queries: u64,
    /// Significance queries issued (Q8 or Q10).
    pub significance_queries: u64,
    /// Queries that hit the endpoint's timeout.
    pub timeouts: u64,
    /// True if the user's query limit stopped initialization early.
    pub stopped_by_limit: bool,
    /// Literals cached.
    pub literals_cached: u64,
}

impl InitStats {
    /// Total queries issued to the endpoint.
    pub fn total_queries(&self) -> u64 {
        self.metadata_queries
            + self.filter_queries
            + self.literal_queries
            + self.significance_queries
    }
}

/// What §5 initialization retrieved — from one endpoint, or pooled over
/// several with [`absorb`](Self::absorb) — before the suffix tree and the
/// residual bins are built over it.
#[derive(Debug, Clone, Default)]
pub struct InitParts {
    /// All predicates, most frequent first (Q1/Q4).
    pub predicates: Vec<CachedPredicate>,
    /// Classes (Q2/Q3), sorted by IRI.
    pub classes: Vec<CachedClass>,
    /// Every cached literal with its best significance score (Definition 1),
    /// sorted by text.
    pub literals: Vec<(String, u64)>,
}

impl InitParts {
    /// Pool another endpoint's parts into these: predicates and classes keep
    /// their first occurrence, literals keep every score (the highest wins
    /// in [`assemble`](Self::assemble)).
    pub fn absorb(&mut self, other: InitParts) {
        fn extend_unseen<T>(into: &mut Vec<T>, from: Vec<T>, iri: fn(&T) -> &String) {
            let mut seen: HashSet<String> = into.iter().map(|x| iri(x).clone()).collect();
            into.extend(from.into_iter().filter(|x| seen.insert(iri(x).clone())));
        }
        extend_unseen(&mut self.predicates, other.predicates, |p| &p.iri);
        extend_unseen(&mut self.classes, other.classes, |c| &c.iri);
        self.literals.extend(other.literals);
    }

    /// Build the cache: one suffix tree and one set of bins, ranked over
    /// every literal's real score.
    pub fn assemble(self, config: &SapphireConfig) -> CachedData {
        CachedData::assemble(self.predicates, self.literals, config).with_classes(self.classes)
    }
}

/// Which retrieval plan to use (§5.1 / Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitMode {
    /// Remote endpoint with timeouts: class-hierarchy descent + pagination
    /// (Q6/Q7/Q8).
    #[default]
    Federated,
    /// Local warehouse, no resource constraints: single long-running
    /// paginated queries (Q9/Q10).
    Warehouse,
}

/// Runs initialization against one endpoint.
pub struct Initializer<'a> {
    endpoint: &'a dyn Endpoint,
    config: &'a SapphireConfig,
    mode: InitMode,
    stats: InitStats,
    /// Literal → best significance score seen.
    literals: HashMap<String, u64>,
    /// Classes discovered by Q2/Q3, for rdf:type keyword resolution.
    classes: Vec<String>,
}

impl<'a> Initializer<'a> {
    /// Create an initializer.
    pub fn new(endpoint: &'a dyn Endpoint, config: &'a SapphireConfig, mode: InitMode) -> Self {
        Initializer {
            endpoint,
            config,
            mode,
            stats: InitStats::default(),
            literals: HashMap::new(),
            classes: Vec::new(),
        }
    }

    /// Run the full §5 pipeline and assemble the cache: [`parts`](Self::parts)
    /// followed by [`InitParts::assemble`].
    pub fn run(self) -> Result<(CachedData, InitStats), InitError> {
        let config = self.config;
        let (parts, stats) = self.parts()?;
        Ok((parts.assemble(config), stats))
    }

    /// Run the full §5 pipeline and hand back what it retrieved, before any
    /// index is built over it — what a multi-endpoint model pools.
    pub fn parts(mut self) -> Result<(InitParts, InitStats), InitError> {
        // Q1 — all predicates by frequency.
        let q1 = "SELECT DISTINCT ?p (COUNT(*) AS ?frequency) WHERE { ?s ?p ?o } \
                  GROUP BY ?p ORDER BY DESC(?frequency)";
        let predicates_by_freq = self.metadata(q1)?;

        // Q4 — predicates by number of associated literals.
        let q4 = "SELECT DISTINCT ?p (COUNT(?o) AS ?frequency) WHERE { ?s ?p ?o . \
                  FILTER(isliteral(?o)) } GROUP BY ?p ORDER BY DESC(?frequency)";
        let literal_predicates = self.metadata(q4)?;
        let literal_counts: HashMap<String, u64> = pairs(&literal_predicates).into_iter().collect();

        let predicates: Vec<CachedPredicate> = pairs(&predicates_by_freq)
            .into_iter()
            .map(|(iri, _)| CachedPredicate {
                surface: surface_form(&iri),
                literal_count: literal_counts.get(&iri).copied().unwrap_or(0),
                iri,
            })
            .collect();

        // Q5 — keep only predicates that have at least one qualifying literal.
        let mut lit_preds: Vec<(String, u64)> = literal_counts.clone().into_iter().collect();
        lit_preds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut qualifying: Vec<String> = Vec::new();
        for (iri, _) in &lit_preds {
            if self.over_limit() {
                break;
            }
            let q5 = format!(
                "SELECT DISTINCT ?o WHERE {{ ?s <{iri}> ?o . FILTER(isliteral(?o) && lang(?o) = \"{lang}\" && strlen(str(?o)) < {max}) }} LIMIT 1",
                lang = LANGUAGE,
                max = LITERAL_MAX_LEN,
            );
            self.stats.filter_queries += 1;
            match self.endpoint.select(&q5) {
                Ok(s) if !s.is_empty() => qualifying.push(iri.clone()),
                Ok(_) => {}
                Err(EndpointError::Timeout { .. }) => self.stats.timeouts += 1,
                Err(_) => {}
            }
        }

        match self.mode {
            InitMode::Warehouse => {
                // Classes are cheap to list even in warehouse mode.
                if let Ok(h) = self.class_hierarchy() {
                    self.classes = h.classes().map(str::to_string).collect();
                }
                self.retrieve_warehouse();
            }
            InitMode::Federated => {
                // Q2 — the RDFS class hierarchy; fall back to Q3 entity types
                // for datasets that don't use RDFS (§5.1).
                let hierarchy = self.class_hierarchy()?;
                let start_classes: Vec<String> = if hierarchy.is_empty() {
                    self.frequent_types()?
                } else {
                    hierarchy.roots().into_iter().map(str::to_string).collect()
                };
                self.classes = if hierarchy.is_empty() {
                    start_classes.clone()
                } else {
                    hierarchy.classes().map(str::to_string).collect()
                };
                // Literals: iterate predicates most-frequent-first, walking
                // the hierarchy top-down per predicate.
                for iri in &qualifying {
                    if self.over_limit() {
                        break;
                    }
                    self.walk_hierarchy(iri, &start_classes, &hierarchy, RetrievalKind::Literals);
                }
                // Significance (Q8), same traversal shape.
                for iri in &qualifying {
                    if self.over_limit() {
                        break;
                    }
                    self.walk_hierarchy(
                        iri,
                        &start_classes,
                        &hierarchy,
                        RetrievalKind::Significance,
                    );
                }
            }
        }

        self.stats.literals_cached = self.literals.len() as u64;
        let mut classes: Vec<CachedClass> = self
            .classes
            .iter()
            .map(|iri| CachedClass {
                surface: surface_form(iri),
                iri: iri.clone(),
            })
            .collect();
        classes.sort_by(|a, b| a.iri.cmp(&b.iri));
        classes.dedup_by(|a, b| a.iri == b.iri);
        // Sorted, so the parts repeat exactly from run to run (the map's
        // iteration order does not).
        let mut literals: Vec<(String, u64)> = self.literals.into_iter().collect();
        literals.sort();
        let parts = InitParts {
            predicates,
            classes,
            literals,
        };
        Ok((parts, self.stats))
    }

    fn metadata(&mut self, query: &str) -> Result<Solutions, InitError> {
        self.stats.metadata_queries += 1;
        self.endpoint
            .select(query)
            .map_err(|e| InitError::Metadata(e.to_string()))
    }

    fn over_limit(&mut self) -> bool {
        match self.config.init_query_limit {
            Some(limit) if self.stats.total_queries() >= limit as u64 => {
                self.stats.stopped_by_limit = true;
                true
            }
            _ => false,
        }
    }

    /// Q2 — classes and subclasses.
    fn class_hierarchy(&mut self) -> Result<ClassHierarchy, InitError> {
        let q2 = "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> \
                  PREFIX owl: <http://www.w3.org/2002/07/owl#> \
                  SELECT DISTINCT ?class ?subclass WHERE { ?class a owl:Class . ?class rdfs:subClassOf ?subclass }";
        let s = self.metadata(q2)?;
        let mut h = ClassHierarchy::default();
        for r in 0..s.len() {
            if let (Some(sub), Some(sup)) = (s.get(r, "class"), s.get(r, "subclass")) {
                h.add_edge(sub.lexical().to_string(), sup.lexical().to_string());
            }
        }
        Ok(h)
    }

    /// Q3 — frequent entity types, for datasets without an RDFS hierarchy.
    fn frequent_types(&mut self) -> Result<Vec<String>, InitError> {
        let q3 = "SELECT DISTINCT ?o (COUNT(?s) AS ?frequency) WHERE { ?s a ?o } \
                  GROUP BY ?o ORDER BY DESC(?frequency)";
        let s = self.metadata(q3)?;
        Ok(s.values("o").map(|t| t.lexical().to_string()).collect())
    }

    /// Walk the class hierarchy top-down for one predicate, paginating at
    /// each class and descending to subclasses on timeout (§5.1).
    fn walk_hierarchy(
        &mut self,
        predicate: &str,
        start: &[String],
        hierarchy: &ClassHierarchy,
        kind: RetrievalKind,
    ) {
        let mut stack: Vec<String> = start.to_vec();
        // Depth-first; order within a level follows the hierarchy's order.
        stack.reverse();
        while let Some(class) = stack.pop() {
            if self.over_limit() {
                return;
            }
            match self.paginate_class(predicate, &class, kind) {
                PageOutcome::Done { found_any: true } => {
                    // "If the query succeeds … issuing the same queries over
                    // the subclasses is redundant." (DBpedia-style datasets
                    // materialize transitive types, so a class-level success
                    // covers the whole subtree.)
                }
                PageOutcome::Done { found_any: false } | PageOutcome::TimedOut => {
                    // Descend: on timeout because subclasses are smaller; on
                    // an empty answer because instances may be typed with
                    // subclasses only.
                    for sub in hierarchy.subclasses(&class).iter().rev() {
                        stack.push(sub.clone());
                    }
                }
                PageOutcome::LimitReached => return,
            }
        }
    }

    /// Issue the paginated Q6/Q7 (literals) or Q8 (significance) sequence for
    /// one (class, predicate) pair.
    fn paginate_class(&mut self, predicate: &str, class: &str, kind: RetrievalKind) -> PageOutcome {
        let (lang, max) = (LANGUAGE, LITERAL_MAX_LEN);
        self.paginate(kind, |page, offset| match kind {
            // Q6/Q7.
            RetrievalKind::Literals => format!(
                "SELECT DISTINCT ?o WHERE {{ ?s a <{class}> . ?s <{predicate}> ?o . \
                 FILTER(isliteral(?o) && lang(?o) = \"{lang}\" && strlen(str(?o)) < {max}) }} \
                 LIMIT {page} OFFSET {offset}"
            ),
            // Q8: the predicate is literal-associated, so only the
            // language/length filters apply.
            RetrievalKind::Significance => format!(
                "SELECT DISTINCT ?o (COUNT(?subject) AS ?frequency) WHERE {{ \
                 ?s a <{class}> . ?subject ?p2 ?s . ?s <{predicate}> ?o . \
                 FILTER(lang(?o) = \"{lang}\" && strlen(str(?o)) < {max}) }} \
                 GROUP BY ?o ORDER BY DESC(?frequency) LIMIT {page} OFFSET {offset}"
            ),
        })
    }

    /// Warehouse-mode retrieval: Q9 (literals) and Q10 (significance) with
    /// pagination only, no class partitioning.
    fn retrieve_warehouse(&mut self) {
        let (lang, max) = (LANGUAGE, LITERAL_MAX_LEN);
        self.paginate(RetrievalKind::Literals, |page, offset| {
            format!(
                "SELECT DISTINCT ?o WHERE {{ ?s ?p ?o . \
                 FILTER(isliteral(?o) && lang(?o) = \"{lang}\" && strlen(str(?o)) < {max}) }} \
                 LIMIT {page} OFFSET {offset}"
            )
        });
        self.paginate(RetrievalKind::Significance, |page, offset| {
            format!(
                "SELECT DISTINCT ?o (COUNT(?s1) AS ?frequency) WHERE {{ ?s1 ?p ?s2 . ?s2 ?p2 ?o . \
                 FILTER(isliteral(?o) && lang(?o) = \"{lang}\" && strlen(str(?o)) < {max}) }} \
                 GROUP BY ?o ORDER BY DESC(?frequency) LIMIT {page} OFFSET {offset}"
            )
        });
    }

    /// The one page loop of both plans: issue `query(page, offset)` at
    /// offsets 0, page, 2·page, … and absorb each answer as `kind`, until a
    /// short page, a timeout or the query limit.
    fn paginate(
        &mut self,
        kind: RetrievalKind,
        query: impl Fn(usize, usize) -> String,
    ) -> PageOutcome {
        let page = self.config.init_page_size;
        let mut offset = 0usize;
        let mut found_any = false;
        loop {
            if self.over_limit() {
                return PageOutcome::LimitReached;
            }
            match kind {
                RetrievalKind::Literals => self.stats.literal_queries += 1,
                RetrievalKind::Significance => self.stats.significance_queries += 1,
            }
            match self.endpoint.select(&query(page, offset)) {
                Ok(s) => {
                    let fetched = s.len();
                    found_any |= fetched > 0;
                    self.absorb(&s, kind);
                    if fetched < page {
                        return PageOutcome::Done { found_any };
                    }
                    offset += page;
                }
                Err(EndpointError::Timeout { .. }) | Err(EndpointError::Rejected { .. }) => {
                    self.stats.timeouts += 1;
                    return PageOutcome::TimedOut;
                }
                Err(_) => return PageOutcome::Done { found_any },
            }
        }
    }

    fn absorb(&mut self, s: &Solutions, kind: RetrievalKind) {
        match kind {
            RetrievalKind::Literals => {
                for t in s.values("o") {
                    let text = t.lexical().to_string();
                    self.literals.entry(text).or_insert(0);
                }
            }
            RetrievalKind::Significance => {
                let Some(freq_col) = s.vars.iter().position(|v| v == "frequency") else {
                    return;
                };
                let Some(o_col) = s.vars.iter().position(|v| v == "o") else {
                    return;
                };
                for row in &s.rows {
                    let (Some(o), Some(f)) = (&row[o_col], &row[freq_col]) else {
                        continue;
                    };
                    let score: u64 = f.lexical().parse().unwrap_or(0);
                    let entry = self.literals.entry(o.lexical().to_string()).or_insert(0);
                    *entry = (*entry).max(score);
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetrievalKind {
    Literals,
    Significance,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageOutcome {
    Done {
        /// True if at least one row came back across all pages.
        found_any: bool,
    },
    TimedOut,
    LimitReached,
}

/// Extract `(iri, frequency)` pairs from a two-column metadata result.
fn pairs(s: &Solutions) -> Vec<(String, u64)> {
    let Some(p_col) = s.vars.iter().position(|v| v == "p") else {
        return Vec::new();
    };
    let Some(f_col) = s.vars.iter().position(|v| v == "frequency") else {
        return Vec::new();
    };
    s.rows
        .iter()
        .filter_map(|row| {
            let p = row[p_col].as_ref()?;
            let f = row[f_col].as_ref()?;
            Some((p.lexical().to_string(), f.lexical().parse().unwrap_or(0)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_endpoint::{EndpointLimits, LocalEndpoint};
    use sapphire_sparql::turtle;

    const FIXTURE: &str = r#"
dbo:Person a owl:Class ; rdfs:subClassOf owl:Thing .
dbo:Scientist a owl:Class ; rdfs:subClassOf dbo:Person .
dbo:Politician a owl:Class ; rdfs:subClassOf dbo:Person .
dbo:Place a owl:Class ; rdfs:subClassOf owl:Thing .
dbo:City a owl:Class ; rdfs:subClassOf dbo:Place .

res:Ada a dbo:Scientist ; dbo:name "Ada Lovelace"@en ; dbo:birthPlace res:London .
res:Alan a dbo:Scientist ; dbo:name "Alan Turing"@en ; dbo:birthPlace res:London .
res:Maggie a dbo:Politician ; dbo:name "Margaret Thatcher"@en ; dbo:birthPlace res:Grantham .
res:London a dbo:City ; dbo:name "London"@en .
res:Grantham a dbo:City ; dbo:name "Grantham"@en .
res:Long a dbo:City ; dbo:name "This literal is deliberately longer than the eighty character cap so it must be excluded."@en .
res:French a dbo:City ; dbo:name "Londres"@fr .
"#;

    fn endpoint(work: Option<u64>) -> LocalEndpoint {
        let limits = EndpointLimits {
            timeout_work: work,
            reject_above: None,
            max_results: None,
        };
        LocalEndpoint::new("fixture", turtle::parse(FIXTURE).unwrap(), limits)
    }

    #[test]
    fn federated_init_caches_filtered_literals() {
        let ep = endpoint(None);
        let config = SapphireConfig::for_tests();
        let (cache, stats) = Initializer::new(&ep, &config, InitMode::Federated)
            .run()
            .unwrap();
        // English, < 80 chars: the five names.
        let mut all: Vec<String> = cache
            .significant
            .iter()
            .map(|(t, _)| t.clone())
            .chain((0..cache.bins.len() as u32).map(|i| cache.bins.literal(i).to_string()))
            .collect();
        all.sort();
        assert_eq!(
            all,
            vec![
                "Ada Lovelace",
                "Alan Turing",
                "Grantham",
                "London",
                "Margaret Thatcher"
            ]
        );
        assert!(stats.literal_queries > 0);
        assert!(stats.significance_queries > 0);
        assert_eq!(stats.timeouts, 0);
        // All predicates cached, not only literal-bearing ones.
        assert!(cache
            .predicate_by_iri("http://dbpedia.org/ontology/birthPlace")
            .is_some());
        assert!(cache
            .predicate_by_iri("http://dbpedia.org/ontology/name")
            .is_some());
    }

    #[test]
    fn significance_scores_flow_into_cache() {
        let ep = endpoint(None);
        let config = SapphireConfig::for_tests();
        let (cache, _) = Initializer::new(&ep, &config, InitMode::Federated)
            .run()
            .unwrap();
        // "London" is the name of an entity with two incoming edges.
        let london = cache
            .significant
            .iter()
            .find(|(t, _)| t == "London")
            .expect("london significant");
        assert_eq!(london.1, 2);
        // Person names have no incoming edges on their entities.
        let ada = cache
            .significant
            .iter()
            .find(|(t, _)| t == "Ada Lovelace")
            .unwrap();
        assert_eq!(ada.1, 0);
    }

    #[test]
    fn timeouts_force_hierarchy_descent_but_still_complete() {
        // A budget small enough that root-level (owl:Thing has no instances
        // here, classes like Person) queries are fine but whole-graph scans
        // would die. The important property: descent still finds literals.
        let ep = endpoint(Some(4_000));
        let config = SapphireConfig::for_tests();
        let (cache, stats) = Initializer::new(&ep, &config, InitMode::Federated)
            .run()
            .unwrap();
        assert!(
            cache.literal_count() >= 5,
            "cached {} literals",
            cache.literal_count()
        );
        // Some queries may time out; none of this should abort init.
        let _ = stats.timeouts;
    }

    #[test]
    fn warehouse_mode_uses_q9_q10() {
        let ep = endpoint(None);
        let config = SapphireConfig::for_tests();
        let (cache, stats) = Initializer::new(&ep, &config, InitMode::Warehouse)
            .run()
            .unwrap();
        assert_eq!(cache.literal_count(), 5);
        assert!(stats.literal_queries >= 1);
        assert!(stats.significance_queries >= 1);
    }

    /// Q9/Q10 over the whole fixture cache what the Federated walk caches,
    /// page for page: five English names, scored by their entities'
    /// incoming edges.
    #[test]
    fn warehouse_caches_what_the_federated_walk_caches() {
        let ep = endpoint(None);
        for (page, literal_queries, significance_queries) in [(1_000, 1, 1), (2, 3, 2)] {
            let config = SapphireConfig {
                init_page_size: page,
                ..SapphireConfig::for_tests()
            };
            let parts = |mode| Initializer::new(&ep, &config, mode).parts().unwrap();
            let (warehouse, stats) = parts(InitMode::Warehouse);
            let (federated, _) = parts(InitMode::Federated);
            let scores: Vec<(&str, u64)> = warehouse
                .literals
                .iter()
                .map(|(text, score)| (text.as_str(), *score))
                .collect();
            assert_eq!(
                scores,
                [
                    ("Ada Lovelace", 0),
                    ("Alan Turing", 0),
                    ("Grantham", 1),
                    ("London", 2),
                    ("Margaret Thatcher", 0)
                ],
                "page {page}"
            );
            assert_eq!(warehouse.literals, federated.literals, "page {page}");
            assert_eq!(warehouse.predicates, federated.predicates, "page {page}");
            assert_eq!(warehouse.classes, federated.classes, "page {page}");
            assert_eq!(
                (stats.literal_queries, stats.significance_queries),
                (literal_queries, significance_queries),
                "page {page}"
            );
            assert_eq!(stats.timeouts, 0);
        }
    }

    /// A Warehouse page that times out is counted, as a Federated one is:
    /// at this budget Q9 answers and Q10 does not, so every literal is
    /// cached unscored.
    #[test]
    fn warehouse_counts_a_timed_out_page() {
        let ep = endpoint(Some(50));
        let config = SapphireConfig::for_tests();
        let (parts, stats) = Initializer::new(&ep, &config, InitMode::Warehouse)
            .parts()
            .unwrap();
        assert_eq!(stats.timeouts, 1);
        assert_eq!((stats.literal_queries, stats.significance_queries), (1, 1));
        assert_eq!(parts.literals.len(), 5);
        assert!(parts.literals.iter().all(|(_, score)| *score == 0));
    }

    #[test]
    fn query_limit_stops_early() {
        let ep = endpoint(None);
        let config = SapphireConfig {
            init_query_limit: Some(3),
            ..SapphireConfig::for_tests()
        };
        let (_, stats) = Initializer::new(&ep, &config, InitMode::Federated)
            .run()
            .unwrap();
        assert!(stats.stopped_by_limit);
        assert!(
            stats.total_queries() <= 4,
            "issued {}",
            stats.total_queries()
        );
    }

    #[test]
    fn endpoint_stats_reflect_init_traffic() {
        let ep = endpoint(None);
        let config = SapphireConfig::for_tests();
        let (_, stats) = Initializer::new(&ep, &config, InitMode::Federated)
            .run()
            .unwrap();
        assert_eq!(ep.stats().queries, stats.total_queries());
    }
}

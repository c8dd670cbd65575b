//! A federated query processor — the reproduction's stand-in for FedX \[22\].
//!
//! Sapphire "accesses the endpoints through a federated query processor"
//! (§3); the processor needs to (a) route queries to the endpoints that can
//! answer them and (b) join patterns whose data lives on different endpoints.
//! One plan answers every query over two or more endpoints. Like FedX, it
//! selects sources per triple pattern with cheap ASK probes and routes a
//! single-source query — one endpoint is the only source of every pattern —
//! whole, slice and aggregates included: that endpoint holds every triple
//! any of the patterns can match, so it holds the whole join.
//!
//! Any other query is bound-joined across its sources into *full bindings*
//! — one column per variable of the pattern, each binding once — and the
//! processor calls [`sapphire_sparql::select_rows`] on them once: the
//! evaluator's own ORDER BY, projection, DISTINCT, slice and aggregates. So
//! an answer equals that of one endpoint holding all the data, however the
//! data is split.
//!
//! The plan's one mode is how it reads an endpoint error. A lenient plan
//! (independent datasets) reads it as "no match there": a failed probe and
//! a refused sub-query alike. A strict plan fails on it, typed: over
//! partitions of one dataset ([`FederatedProcessor::partitioned`]), where
//! every endpoint holds rows no other has, and for a query with inline data
//! (`VALUES`), whose sender reads a value without rows as a value without
//! matches.

use std::collections::HashSet;
use std::sync::Arc;

use sapphire_rdf::Term;
use sapphire_sparql::eval::Filter;
use sapphire_sparql::{
    select_rows, GraphPattern, Query, QueryResult, SelectQuery, Solutions, TermPattern,
    TriplePattern,
};

use crate::endpoint::{Endpoint, EndpointError};

/// Federation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederationError {
    /// No endpoints are registered.
    NoEndpoints,
    /// No single endpoint can answer and the query shape cannot be bound-joined.
    Unsupported(String),
    /// An endpoint the plan cannot do without failed: the one endpoint asked
    /// the query whole (the only one registered, or the only source of every
    /// pattern), or any endpoint of a strict plan. The payload is its error.
    AllSourcesFailed(EndpointError),
    /// The query did not parse.
    Parse(String),
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::NoEndpoints => write!(f, "no endpoints registered"),
            FederationError::Unsupported(m) => write!(f, "unsupported federated query: {m}"),
            FederationError::AllSourcesFailed(e) => write!(f, "all sources failed: {e}"),
            FederationError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for FederationError {}

/// One joined row: a term (or unbound) per variable of the graph pattern,
/// in [`GraphPattern::variables`] order.
type Binding = Vec<Option<Term>>;

/// The federated query processor.
#[derive(Clone, Default)]
pub struct FederatedProcessor {
    endpoints: Vec<Arc<dyn Endpoint>>,
    /// The endpoints are partitions of one dataset (see
    /// [`partitioned`](Self::partitioned)).
    partitioned: bool,
}

impl FederatedProcessor {
    /// An empty processor.
    pub fn new() -> Self {
        Self::default()
    }

    /// A processor over one endpoint (the common case in the paper's
    /// evaluation, which queries DBpedia only).
    pub fn single(endpoint: Arc<dyn Endpoint>) -> Self {
        let mut p = Self::new();
        p.register(endpoint);
        p
    }

    /// A processor over **partitions** of one dataset — every endpoint
    /// holding a slice of it. Its plan is strict: every endpoint holds rows
    /// no other has, so a source that fails mid-plan cannot be skipped, and
    /// the first failed probe or sub-query fails the plan, typed
    /// ([`FederationError::AllSourcesFailed`]), instead of shrinking the
    /// answer. Every query runs the plan, over one partition too.
    pub fn partitioned(endpoints: Vec<Arc<dyn Endpoint>>) -> Self {
        FederatedProcessor {
            endpoints,
            partitioned: true,
        }
    }

    /// Register an endpoint.
    pub fn register(&mut self, endpoint: Arc<dyn Endpoint>) {
        self.endpoints.push(endpoint);
    }

    /// The registered endpoints.
    pub fn endpoints(&self) -> &[Arc<dyn Endpoint>] {
        &self.endpoints
    }

    /// Parse and execute.
    pub fn execute(&self, query: &str) -> Result<QueryResult, FederationError> {
        let q = sapphire_sparql::parse_query(query)
            .map_err(|e| FederationError::Parse(e.to_string()))?;
        self.execute_parsed(&q)
    }

    /// Parse and execute a SELECT, returning solutions.
    pub fn select(&self, query: &str) -> Result<Solutions, FederationError> {
        match self.execute(query)? {
            QueryResult::Solutions(s) => Ok(s),
            QueryResult::Boolean(_) => Err(FederationError::Unsupported("expected SELECT".into())),
        }
    }

    /// Execute a parsed query across the registered endpoints.
    pub fn execute_parsed(&self, query: &Query) -> Result<QueryResult, FederationError> {
        match self.endpoints.len() {
            0 => Err(FederationError::NoEndpoints),
            1 if !self.partitioned => self.endpoints[0]
                .execute_parsed(query)
                .map_err(FederationError::AllSourcesFailed),
            // Independent datasets: a source that fails a probe or a
            // sub-query is a source without matches, and the others still
            // answer. Not so over partitions, nor under inline data: whoever
            // batches look-ups with `VALUES` reads a value without rows as a
            // value without matches, so that answer is whole or an error.
            _ => Plan {
                endpoints: &self.endpoints,
                strict: self.partitioned || query.pattern().values.is_some(),
            }
            .execute(query),
        }
    }
}

/// The federated plan over one set of endpoints: source selection, the
/// single-source rule and the bound join.
struct Plan<'a> {
    endpoints: &'a [Arc<dyn Endpoint>],
    /// Whether an endpoint error fails the plan (partitions of one dataset,
    /// or inline data anywhere) or reads as "no match there" (independent
    /// datasets).
    strict: bool,
}

impl Plan<'_> {
    /// `query`'s answer over the plan's endpoints: one ASK per pattern per
    /// endpoint, then the query whole to the only source of every pattern —
    /// it holds every triple any of them can match, so it holds the whole
    /// join — or else the bound join's full bindings under the query once.
    fn execute(&self, query: &Query) -> Result<QueryResult, FederationError> {
        let gp = query.pattern();
        if gp.triples.is_empty() {
            return Err(FederationError::Unsupported("empty graph pattern".into()));
        }
        let sources = self.select_sources(gp)?;
        // FedX's single-source rule.
        if let [only] = sources[0][..] {
            if sources.iter().all(|s| s[..] == [only]) {
                return self.endpoints[only]
                    .execute_parsed(query)
                    .map_err(FederationError::AllSourcesFailed);
            }
        }
        let row_limit = matches!(query, Query::Ask(_)).then_some(1);
        let rows = self.bound_join(gp, &sources, row_limit)?;
        match query {
            Query::Ask(_) => Ok(QueryResult::Boolean(!rows.is_empty())),
            Query::Select(select) => select_rows(select, &gp.variables(), rows)
                .map(QueryResult::Solutions)
                .map_err(|e| FederationError::Unsupported(e.to_string())),
        }
    }

    /// `result`'s answer; for an error, the plan's failure when strict and
    /// `None` — nothing from this source — otherwise.
    fn answer(
        &self,
        result: Result<QueryResult, EndpointError>,
    ) -> Result<Option<QueryResult>, FederationError> {
        match result {
            Ok(answer) => Ok(Some(answer)),
            Err(e) if self.strict => Err(FederationError::AllSourcesFailed(e)),
            Err(_) => Ok(None),
        }
    }

    /// Per-pattern source selection: which endpoints have at least one match
    /// for each triple pattern? (FedX's ASK-probe phase.)
    fn select_sources(&self, gp: &GraphPattern) -> Result<Vec<Vec<usize>>, FederationError> {
        let mut sources = Vec::with_capacity(gp.triples.len());
        for tp in &gp.triples {
            let probe = Query::Ask(GraphPattern {
                triples: vec![tp.clone()],
                ..GraphPattern::default()
            });
            let mut matching = Vec::new();
            for (i, endpoint) in self.endpoints.iter().enumerate() {
                if let Some(QueryResult::Boolean(true)) =
                    self.answer(endpoint.execute_parsed(&probe))?
                {
                    matching.push(i);
                }
            }
            sources.push(matching);
        }
        Ok(sources)
    }

    /// Nested-loop bound join: evaluate patterns left to right, substituting
    /// bindings and fanning each step out to that pattern's sources.
    ///
    /// Inline data rides on the step that first meets its variable: that
    /// pattern's sub-queries carry the `VALUES` block, so a source answers
    /// for all the values at once and the join goes on with the values that
    /// matched — at the cost of one join, not one per value.
    fn bound_join(
        &self,
        gp: &GraphPattern,
        sources: &[Vec<usize>],
        row_limit: Option<usize>,
    ) -> Result<Vec<Binding>, FederationError> {
        let names = gp.variables();
        let column = |name: &str| names.iter().position(|n| n == name);
        if let Some(data) = gp.values.as_ref().filter(|data| !gp.binds(&data.var)) {
            return Err(FederationError::Unsupported(format!(
                "VALUES ?{} without a triple pattern that binds it",
                data.var
            )));
        }
        let mut bindings: Vec<Binding> = vec![vec![None; names.len()]];
        for (tp, srcs) in gp.triples.iter().zip(sources) {
            if srcs.is_empty() {
                return Ok(Vec::new());
            }
            let mut next: Vec<Binding> = Vec::new();
            for binding in &bindings {
                let bound = substitute(tp, |v| column(v).and_then(|c| binding[c].as_ref()));
                let vars: Vec<&str> = bound.variables().collect();
                let sub_query = Query::Select(SelectQuery::star(GraphPattern {
                    triples: vec![bound.clone()],
                    filters: Vec::new(),
                    values: gp
                        .values
                        .as_ref()
                        .filter(|data| vars.contains(&data.var.as_str()))
                        .cloned(),
                }));
                for &src in srcs {
                    let Some(QueryResult::Solutions(sols)) =
                        self.answer(self.endpoints[src].execute_parsed(&sub_query))?
                    else {
                        continue;
                    };
                    for r in 0..sols.len() {
                        let mut extended = binding.clone();
                        let mut ok = true;
                        for v in &vars {
                            match (column(v), sols.get(r, v)) {
                                (Some(c), Some(t)) => extended[c] = Some(t.clone()),
                                _ => ok = false,
                            }
                        }
                        if ok {
                            next.push(extended);
                        }
                    }
                }
            }
            retain_first_seen(&mut next);
            bindings = next;
            if bindings.is_empty() {
                break;
            }
        }
        // Apply filters on complete bindings.
        let filters: Vec<Filter<'_>> = gp.filters.iter().map(Filter::new).collect();
        bindings.retain(|b| {
            filters
                .iter()
                .all(|f| f.passes(&|name: &str| column(name).and_then(|c| b[c].as_ref())))
        });
        if let Some(l) = row_limit {
            bindings.truncate(l);
        }
        Ok(bindings)
    }
}

/// Drop every row equal to one before it.
fn retain_first_seen(rows: &mut Vec<Binding>) {
    let mut seen: HashSet<&Binding> = HashSet::with_capacity(rows.len());
    let fresh: Vec<bool> = rows.iter().map(|row| seen.insert(row)).collect();
    let mut fresh = fresh.into_iter();
    rows.retain(|_| fresh.next().expect("one flag per row"));
}

/// `tp` with every variable `bound` resolves replaced by its term.
fn substitute<'a>(tp: &TriplePattern, bound: impl Fn(&str) -> Option<&'a Term>) -> TriplePattern {
    let subst = |p: &TermPattern| match p {
        TermPattern::Var(v) => match bound(v) {
            Some(t) => TermPattern::Term(t.clone()),
            None => p.clone(),
        },
        ground => ground.clone(),
    };
    TriplePattern::new(subst(&tp.subject), subst(&tp.predicate), subst(&tp.object))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{EndpointLimits, LocalEndpoint};
    use sapphire_sparql::turtle;

    fn make(name: &str, ttl: &str) -> Arc<dyn Endpoint> {
        Arc::new(LocalEndpoint::new(
            name,
            turtle::parse(ttl).unwrap(),
            EndpointLimits::warehouse(),
        ))
    }

    fn people_endpoint() -> Arc<dyn Endpoint> {
        make(
            "people",
            r#"
res:Ada a dbo:Scientist ; dbo:name "Ada Lovelace"@en ; dbo:birthPlace res:London .
res:Alan a dbo:Scientist ; dbo:name "Alan Turing"@en ; dbo:birthPlace res:London .
"#,
        )
    }

    fn places_endpoint() -> Arc<dyn Endpoint> {
        make(
            "places",
            r#"
res:London a dbo:City ; dbo:name "London"@en ; dbo:country res:UK .
res:Paris a dbo:City ; dbo:name "Paris"@en ; dbo:country res:France .
"#,
        )
    }

    #[test]
    fn single_endpoint_passthrough() {
        let fed = FederatedProcessor::single(people_endpoint());
        let s = fed
            .select("SELECT ?s WHERE { ?s a dbo:Scientist }")
            .unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn no_endpoints_is_an_error() {
        let fed = FederatedProcessor::new();
        assert_eq!(
            fed.select("SELECT ?s WHERE { ?s ?p ?o }").unwrap_err(),
            FederationError::NoEndpoints
        );
    }

    #[test]
    fn single_source_query_routed_to_covering_endpoint() {
        let mut fed = FederatedProcessor::new();
        fed.register(people_endpoint());
        fed.register(places_endpoint());
        let s = fed.select("SELECT ?c WHERE { ?c a dbo:City }").unwrap();
        assert_eq!(s.len(), 2);
        let s = fed
            .select("SELECT ?s WHERE { ?s a dbo:Scientist }")
            .unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn cross_endpoint_bound_join() {
        let mut fed = FederatedProcessor::new();
        fed.register(people_endpoint());
        fed.register(places_endpoint());
        // Scientists (people endpoint) born in a city located in the UK
        // (places endpoint) — no single endpoint covers both patterns.
        let s = fed
            .select(
                "SELECT ?name WHERE { ?s a dbo:Scientist ; dbo:name ?name ; dbo:birthPlace ?place . ?place dbo:country res:UK }",
            )
            .unwrap();
        let mut names: Vec<String> = s.values("name").map(|t| t.lexical().to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["Ada Lovelace", "Alan Turing"]);
    }

    #[test]
    fn federated_filters_apply() {
        let mut fed = FederatedProcessor::new();
        fed.register(people_endpoint());
        fed.register(places_endpoint());
        let s = fed
            .select(
                r#"SELECT ?name WHERE { ?s a dbo:Scientist ; dbo:name ?name ; dbo:birthPlace ?place . ?place dbo:country ?c . FILTER(contains(str(?name), "Ada")) }"#,
            )
            .unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_of_rows_from_multiple_sources() {
        let mut fed = FederatedProcessor::new();
        fed.register(make("a", "res:X a dbo:Thing ."));
        fed.register(make("b", "res:Y a dbo:Thing ."));
        let s = fed.select("SELECT ?s WHERE { ?s a dbo:Thing }").unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_result_when_pattern_has_no_source() {
        let mut fed = FederatedProcessor::new();
        fed.register(people_endpoint());
        fed.register(places_endpoint());
        let s = fed
            .select("SELECT ?s WHERE { ?s a dbo:Scientist . ?s dbo:spaceship ?x }")
            .unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn federated_order_and_limit() {
        let mut fed = FederatedProcessor::new();
        fed.register(people_endpoint());
        fed.register(places_endpoint());
        let s = fed
            .select(
                "SELECT ?name WHERE { ?s dbo:name ?name ; dbo:birthPlace ?p . ?p dbo:name ?pn } ORDER BY ?name LIMIT 1",
            )
            .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0, "name").unwrap().lexical(), "Ada Lovelace");
    }

    const PEOPLE: &str = r#"
res:Ada dbo:name "Ada" ; dbo:birthPlace res:Ely .
res:Bob dbo:name "Bob" ; dbo:birthPlace res:London .
res:Cy1 dbo:name "Cy" ; dbo:birthPlace res:Leeds .
res:Cy2 dbo:name "Cy" ; dbo:birthPlace res:Wells .
"#;
    const PLACES: &str = r#"
res:Ely dbo:population 20000 .
res:London dbo:population 9000000 .
res:Leeds dbo:population 800000 .
res:Wells dbo:population 12000 .
"#;
    const BY_POPULATION: &str =
        "WHERE { ?s dbo:name ?name ; dbo:birthPlace ?p . ?p dbo:population ?pop } ORDER BY DESC(?pop)";

    fn names(s: &Solutions) -> Vec<&str> {
        s.values("name").map(|t| t.lexical()).collect()
    }

    /// ORDER BY sorts the full bindings, so a key that is not projected
    /// orders the answer the same whether the data sits on one endpoint or
    /// is joined across two.
    #[test]
    fn unprojected_order_key_answers_alike_from_one_endpoint_and_two() {
        let one = FederatedProcessor::single(make("all", &format!("{PEOPLE}{PLACES}")));
        let mut two = FederatedProcessor::new();
        two.register(make("people", PEOPLE));
        two.register(make("places", PLACES));
        for (select, expected) in [
            ("SELECT ?name", vec!["Bob", "Cy", "Ada", "Cy"]),
            ("SELECT DISTINCT ?name", vec!["Bob", "Cy", "Ada"]),
        ] {
            for (slice, kept) in [("", expected.len()), (" LIMIT 1", 1)] {
                let query = format!("{select} {BY_POPULATION}{slice}");
                let split = two.select(&query).unwrap();
                assert_eq!(split, one.select(&query).unwrap(), "{query}");
                assert_eq!(names(&split), expected[..kept], "{query}");
            }
        }
    }

    /// Cities by subject — each city on the endpoint of its country where
    /// two endpoints split them, every country on a third where three do.
    const ASH_CORK_ELY: &str = r#"
res:A a dbo:City ; dbo:name "Ash" ; dbo:country res:X ; dbo:population 300 .
res:C a dbo:City ; dbo:name "Cork" ; dbo:country res:X ; dbo:population 500 .
res:E a dbo:City ; dbo:name "Ely" ; dbo:country res:X ; dbo:population 450 .
"#;
    const BATH_DOVER: &str = r#"
res:B a dbo:City ; dbo:name "Bath" ; dbo:country res:Y ; dbo:population 100 .
res:D a dbo:City ; dbo:name "Dover" ; dbo:country res:Y ; dbo:population 200 .
"#;
    const COUNTRIES: [&str; 2] = [r#"res:X dbo:name "Xland" ."#, r#"res:Y dbo:name "Yland" ."#];

    /// A session's modifiers and GROUP BY aggregates answer alike from one
    /// endpoint holding the data and from the data split by subject over
    /// two or three — among them a split where both parts match every
    /// pattern and a join still spans them: the bound join's full bindings
    /// under the evaluator's own modifiers and aggregates, once.
    #[test]
    fn a_split_answers_every_modifier_and_aggregate_like_one_endpoint() {
        let [x, y] = COUNTRIES;
        let federation = |parts: &[String]| {
            let mut fed = FederatedProcessor::new();
            for (i, part) in parts.iter().enumerate() {
                fed.register(make(&format!("part{i}"), part));
            }
            fed
        };
        let one = federation(&[format!("{ASH_CORK_ELY}{BATH_DOVER}{x}{y}")]);
        let two = federation(&[format!("{ASH_CORK_ELY}{x}"), format!("{BATH_DOVER}{y}")]);
        let three = federation(&[
            ASH_CORK_ELY.to_string(),
            BATH_DOVER.to_string(),
            format!("{x}{y}"),
        ]);
        // Both parts match both `countries` patterns, but Bath and Dover
        // reach "Yland" only across them.
        let spanning = federation(&[format!("{ASH_CORK_ELY}{x}{y}"), BATH_DOVER.to_string()]);
        let city = "?s dbo:name ?name ; dbo:country ?k ; dbo:population ?pop";
        let countries = "?s dbo:country ?k . ?k dbo:name ?kn";
        for query in [
            format!("SELECT DISTINCT ?k WHERE {{ {city} }} ORDER BY ?k"),
            format!("SELECT DISTINCT ?k WHERE {{ {city} }} ORDER BY DESC(?pop)"),
            format!("SELECT ?name WHERE {{ {city} }} ORDER BY ?pop"),
            format!("SELECT ?name WHERE {{ {city} }} ORDER BY DESC(?pop) LIMIT 2 OFFSET 1"),
            format!("SELECT ?name ?pop WHERE {{ {city} }} ORDER BY DESC(?name) LIMIT 3"),
            format!("SELECT ?name WHERE {{ {city} }} ORDER BY ?name OFFSET 4"),
            format!("SELECT (COUNT(?s) AS ?n) WHERE {{ {city} }}"),
            format!("SELECT (COUNT(DISTINCT ?k) AS ?n) WHERE {{ {city} }}"),
            format!(
                "SELECT ?k (SUM(?pop) AS ?sum) (AVG(?pop) AS ?avg) (MIN(?pop) AS ?min) \
                 (MAX(?pop) AS ?max) WHERE {{ {city} }} GROUP BY ?k ORDER BY DESC(?k)"
            ),
            format!("SELECT ?kn ?s WHERE {{ {countries} }} ORDER BY ?s LIMIT 4"),
            format!("SELECT (COUNT(DISTINCT ?kn) AS ?n) WHERE {{ {countries} }}"),
            format!(
                "SELECT ?kn (COUNT(?s) AS ?n) WHERE {{ {countries} }} GROUP BY ?kn ORDER BY DESC(?n)"
            ),
        ] {
            let whole = one.select(&query).unwrap();
            assert!(!whole.is_empty(), "{query}");
            assert_eq!(two.select(&query).unwrap(), whole, "two: {query}");
            assert_eq!(three.select(&query).unwrap(), whole, "three: {query}");
            assert_eq!(spanning.select(&query).unwrap(), whole, "spanning: {query}");
        }
        let count = two
            .select(&format!("SELECT (COUNT(?s) AS ?n) WHERE {{ {city} }}"))
            .unwrap();
        assert_eq!(count.sole_value().unwrap().lexical(), "5");
        let by_country = three
            .select(&format!(
                "SELECT ?kn (COUNT(?s) AS ?n) WHERE {{ {countries} }} GROUP BY ?kn ORDER BY ?kn"
            ))
            .unwrap();
        let counts: Vec<&str> = by_country.values("n").map(|t| t.lexical()).collect();
        assert_eq!(counts, ["3", "2"]);
    }

    /// Inline data answers alike wherever the data sits: on the one endpoint
    /// that holds it all, bound-joined across two that each hold half, and
    /// across two that overlap.
    #[test]
    fn a_values_probe_answers_alike_from_one_endpoint_and_from_two() {
        let all = format!("{PEOPLE}{PLACES}");
        let one = FederatedProcessor::single(make("all", &all));
        let mut split = FederatedProcessor::new();
        split.register(make("people", PEOPLE));
        split.register(make("places", PLACES));
        let mut overlapping = FederatedProcessor::new();
        overlapping.register(make("people", PEOPLE));
        overlapping.register(make("all", &all));
        let sorted = |fed: &FederatedProcessor, query: &str| {
            let mut rows = fed.select(query).unwrap().rows;
            rows.sort();
            rows
        };
        for (query, expected) in [
            (
                r#"SELECT DISTINCT ?n WHERE { ?s dbo:name ?n ; dbo:birthPlace ?p
                   VALUES ?n { "Cy" "Zed" "Ada" "Cy" } }"#,
                vec![Term::literal("Ada"), Term::literal("Cy")],
            ),
            (
                r#"SELECT DISTINCT ?p WHERE { ?s dbo:name "Cy" ; dbo:birthPlace ?p . ?p dbo:population ?pop
                   VALUES ?p { res:Ely res:Wells res:Mars res:Leeds } }"#,
                vec![
                    Term::iri("http://dbpedia.org/resource/Leeds"),
                    Term::iri("http://dbpedia.org/resource/Wells"),
                ],
            ),
        ] {
            let expected: Vec<Binding> = expected.into_iter().map(|t| vec![Some(t)]).collect();
            for fed in [&one, &split, &overlapping] {
                assert_eq!(sorted(fed, query), expected, "{query}");
            }
        }
        // Not DISTINCT, the one endpoint's duplicates stand and the second's
        // copies of them are dropped.
        let twice = r#"SELECT ?n WHERE { ?s dbo:name ?n VALUES ?n { "Cy" } }"#;
        assert_eq!(sorted(&one, twice).len(), 2);
        assert_eq!(sorted(&overlapping, twice), sorted(&one, twice));
        assert!(matches!(
            split.select(
                r#"SELECT ?n WHERE { ?s dbo:name ?n . ?p dbo:population ?q VALUES ?x { "Cy" } }"#
            ),
            Err(FederationError::Unsupported(_))
        ));
    }

    /// Rows of two sources of one pattern are unioned: the first's stand as
    /// they came, duplicates included, and the second adds only what is new.
    #[test]
    fn a_union_across_sources_keeps_the_first_answer_and_adds_unseen_rows() {
        let mut fed = FederatedProcessor::new();
        fed.register(make("people", PEOPLE));
        fed.register(make("more", &format!("{PEOPLE}res:Dee dbo:name \"Dee\" .")));
        let s = fed
            .select("SELECT ?name WHERE { ?s dbo:name ?name }")
            .unwrap();
        assert_eq!(names(&s), ["Ada", "Bob", "Cy", "Cy", "Dee"]);
    }

    /// Whoever sends inline data reads a value without rows as a value
    /// without matches, so that answer is whole or an error: the join is
    /// taken across sources, and a source that fails is not skipped.
    #[test]
    fn inline_data_is_answered_whole_or_not_at_all() {
        // "most" matches every pattern but joins only "Cy" by itself; "Ada"
        // needs the name and birthplace that "rest" holds.
        let most = format!("res:Cy1 dbo:name \"Cy\" ; dbo:birthPlace res:Leeds .{PLACES}");
        let rest = r#"res:Ada dbo:name "Ada" ; dbo:birthPlace res:Ely ."#;
        let pattern = "?s dbo:name ?n ; dbo:birthPlace ?p . ?p dbo:population ?pop";
        let probe =
            format!(r#"SELECT DISTINCT ?n WHERE {{ {pattern} VALUES ?n {{ "Cy" "Zed" "Ada" }} }}"#);
        let federation = |fail_from| {
            let flaky = Arc::new(shedding(make("rest", rest), fail_from));
            let mut fed = FederatedProcessor::new();
            fed.register(make("most", &most));
            fed.register(flaky.clone());
            (fed, flaky)
        };
        let (fed, healthy) = federation(usize::MAX);
        let whole = fed.select(&probe).unwrap();
        let found: Vec<&str> = whole.values("n").map(|t| t.lexical()).collect();
        assert_eq!(found, ["Cy", "Ada"]);
        let calls = healthy.calls.load(std::sync::atomic::Ordering::Relaxed);
        assert!(calls > 2, "probes and sub-queries both reach the source");
        for fail_from in 1..=calls {
            let (fed, _) = federation(fail_from);
            assert_eq!(
                fed.select(&probe),
                Err(FederationError::AllSourcesFailed(
                    EndpointError::Overloaded {
                        in_flight: fail_from
                    }
                )),
                "shedding from call {fail_from} of {calls}"
            );
        }
        // Without inline data the same source is a source without matches.
        let (fed, _) = federation(1);
        let plain = fed.select(&format!("SELECT DISTINCT ?n WHERE {{ {pattern} }}"));
        assert_eq!(plain.unwrap().len(), 1);
    }

    /// Answers until its `fail_from`-th call, sheds from then on; keeps
    /// every query it receives.
    struct Shedding {
        inner: Arc<dyn Endpoint>,
        calls: std::sync::atomic::AtomicUsize,
        received: std::sync::Mutex<Vec<Query>>,
        fail_from: usize,
    }

    impl Endpoint for Shedding {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn execute_parsed(&self, query: &Query) -> Result<QueryResult, EndpointError> {
            let call = 1 + self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.received.lock().unwrap().push(query.clone());
            if call >= self.fail_from {
                return Err(EndpointError::Overloaded { in_flight: call });
            }
            self.inner.execute_parsed(query)
        }
    }

    /// `select` over a partitioned processor of `endpoints`.
    fn partitioned(
        endpoints: &[Arc<dyn Endpoint>],
        select: &SelectQuery,
    ) -> Result<Solutions, FederationError> {
        let fed = FederatedProcessor::partitioned(endpoints.to_vec());
        match fed.execute_parsed(&Query::Select(select.clone()))? {
            QueryResult::Solutions(rows) => Ok(rows),
            QueryResult::Boolean(_) => unreachable!("a SELECT answers with rows"),
        }
    }

    fn shedding(inner: Arc<dyn Endpoint>, fail_from: usize) -> Shedding {
        Shedding {
            inner,
            calls: Default::default(),
            received: Default::default(),
            fail_from,
        }
    }

    /// Over partitions a source that sheds mid-plan — at a probe or at any
    /// sub-query — fails the plan with its typed error; the answer never
    /// comes back shorter.
    #[test]
    fn partitioned_plan_fails_typed_when_a_source_sheds_mid_plan() {
        let select =
            sapphire_sparql::parse_select(&format!("SELECT ?name {BY_POPULATION}")).unwrap();
        let people = make("people", PEOPLE);
        let places = |fail_from| Arc::new(shedding(make("places", PLACES), fail_from));
        let healthy = places(usize::MAX);
        let full = partitioned(&[people.clone(), healthy.clone()], &select).unwrap();
        assert_eq!(names(&full), ["Bob", "Cy", "Ada", "Cy"]);
        let calls = healthy.calls.load(std::sync::atomic::Ordering::Relaxed);
        assert!(calls > 4, "probes and sub-queries both reach the source");
        for fail_from in 1..=calls {
            let flaky = places(fail_from);
            assert_eq!(
                partitioned(&[people.clone(), flaky], &select),
                Err(FederationError::AllSourcesFailed(
                    EndpointError::Overloaded {
                        in_flight: fail_from
                    }
                )),
                "shedding from call {fail_from} of {calls}"
            );
        }
        // Between independent datasets the same source is simply skipped.
        let mut lenient = FederatedProcessor::new();
        lenient.register(people);
        lenient.register(places(calls));
        assert!(lenient
            .select(&format!("SELECT ?name {BY_POPULATION}"))
            .is_ok());
    }

    /// Over partitions, an endpoint that is the only source of every pattern
    /// holds the whole join: after one ASK per pattern per endpoint it gets
    /// the query whole, once, and answers as one endpoint holding all the
    /// data does. If it sheds that query, the plan fails typed.
    #[test]
    fn a_sole_source_answers_a_partitioned_query_whole() {
        let all = format!("{PEOPLE}{PLACES}");
        let text = format!("SELECT ?name {BY_POPULATION} LIMIT 3");
        let select = sapphire_sparql::parse_select(&text).unwrap();
        let one = FederatedProcessor::single(make("all", &all));
        let other = Arc::new(shedding(
            make("other", "res:Zed dbo:author res:Ada ."),
            usize::MAX,
        ));
        let sole = |fail_from| Arc::new(shedding(make("all", &all), fail_from));
        let healthy = sole(usize::MAX);
        let answer = partitioned(&[other.clone(), healthy.clone()], &select).unwrap();
        assert_eq!(answer, one.select(&text).unwrap());
        assert_eq!(names(&answer), ["Bob", "Cy", "Ada"]);
        let asks: Vec<Query> = select
            .pattern
            .triples
            .iter()
            .map(|tp| {
                Query::Ask(GraphPattern {
                    triples: vec![tp.clone()],
                    ..GraphPattern::default()
                })
            })
            .collect();
        assert_eq!(*other.received.lock().unwrap(), asks);
        let mut whole = asks.clone();
        whole.push(Query::Select(select.clone()));
        assert_eq!(*healthy.received.lock().unwrap(), whole);

        let flaky = sole(whole.len());
        assert_eq!(
            partitioned(&[other, flaky], &select),
            Err(FederationError::AllSourcesFailed(
                EndpointError::Overloaded {
                    in_flight: whole.len()
                }
            ))
        );
    }
}

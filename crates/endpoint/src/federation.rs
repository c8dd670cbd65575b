//! A federated query processor — the reproduction's stand-in for FedX \[22\].
//!
//! Sapphire "accesses the endpoints through a federated query processor"
//! (§3); the processor needs to (a) route queries to the endpoints that can
//! answer them and (b) join patterns whose data lives on different endpoints.
//! Like FedX, we do per-triple-pattern source selection with cheap ASK
//! probes, route single-source queries whole, and fall back to bound joins
//! for genuinely federated ones.
//!
//! The bound join produces *full bindings* — one column per variable of the
//! pattern — and nothing else: ORDER BY, projection, DISTINCT and the slice
//! are [`sapphire_sparql::select_rows`], the evaluator's own modifiers over
//! term rows, so an answer does not depend on how many endpoints held the
//! data.
//!
//! A query with inline data (`VALUES`) is answered whole or not at all: its
//! sender reads a value without rows as a value without matches, so it is
//! never routed to a covering endpoint alone and a source's error fails it.

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
    /// All candidate endpoints failed — or, on the partitioned path, any one
    /// did; the payload is the first error.
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
            1 => self.endpoints[0]
                .execute_parsed(query)
                .map_err(FederationError::AllSourcesFailed),
            _ => self.execute_federated(query),
        }
    }

    fn execute_federated(&self, query: &Query) -> Result<QueryResult, FederationError> {
        let gp = query.pattern();
        if gp.triples.is_empty() {
            return Err(FederationError::Unsupported("empty graph pattern".into()));
        }
        let aggregated = matches!(query, Query::Select(select)
            if select.has_aggregates() || !select.group_by.is_empty());
        // Independent datasets: a source that fails a probe or a sub-query
        // is a source without matches, and the others still answer. Not so
        // under inline data: whoever batches look-ups with `VALUES` reads a
        // value without rows as a value without matches, so that answer is
        // whole or an error — a source that fails fails the plan, and the
        // join is always taken across sources (a covering endpoint's own
        // answer, empty or not, lacks the values whose join spans).
        let batched = gp.values.is_some();
        let plan = Plan {
            endpoints: &self.endpoints.iter().map(Arc::as_ref).collect::<Vec<_>>(),
            strict: batched,
        };
        let sources = plan.select_sources(gp)?;

        // Endpoints able to answer every pattern can run the query whole.
        let covering: Vec<usize> = (0..self.endpoints.len())
            .filter(|i| sources.iter().all(|s| s.contains(i)))
            .collect();

        if !covering.is_empty() && (aggregated || !batched) {
            let result = plan.union_over(query, &covering)?;
            // A covering endpoint answers each pattern individually, but the
            // *join* may still span endpoints (e.g. people on one source,
            // their birthplaces' names on another). If the single-source
            // route comes back empty and some pattern has non-covering
            // sources too, retry with a bound join before giving up.
            let came_back_empty = matches!(&result, QueryResult::Solutions(s) if s.is_empty())
                || matches!(&result, QueryResult::Boolean(false));
            let join_may_span = sources
                .iter()
                .any(|s| s.iter().any(|i| !covering.contains(i)));
            if aggregated || !(came_back_empty && join_may_span) {
                return Ok(result);
            }
        }

        // Genuinely federated: bound-join plain SELECTs only.
        let Query::Select(select) = query else {
            return Ok(QueryResult::Boolean(
                !plan.bound_join(gp, &sources, Some(1))?.is_empty(),
            ));
        };
        if aggregated {
            return Err(FederationError::Unsupported(
                "aggregates over patterns spanning multiple endpoints".into(),
            ));
        }
        let rows = plan.bound_join(gp, &sources, None)?;
        Ok(QueryResult::Solutions(select_rows(
            select,
            &gp.variables(),
            rows,
        )))
    }
}

/// Execute a SELECT over **partitioned** backends — every endpoint holding a
/// slice of one dataset — strictly by per-pattern source selection plus a
/// bound join, *skipping* the covering-endpoint shortcut.
///
/// For independent datasets the shortcut is a pure optimization, but over
/// partitions it is unsound: a shard can match every pattern individually
/// (schema triples are replicated; popular predicates appear everywhere)
/// while the join still spans shards, and its non-empty shard-local answer
/// would mask the rows that need the cross-shard join. And where every
/// endpoint holds rows no other has, a source that fails mid-plan cannot be
/// skipped: the first failed probe or sub-query fails the plan, typed
/// ([`FederationError::AllSourcesFailed`]), instead of shrinking the answer.
///
/// The endpoints are borrowed for the plan: the cluster router hands over
/// per-shard adapters that live on its stack.
pub fn execute_partitioned(
    endpoints: &[&dyn Endpoint],
    select: &SelectQuery,
) -> Result<Solutions, FederationError> {
    if endpoints.is_empty() {
        return Err(FederationError::NoEndpoints);
    }
    if select.has_aggregates() || !select.group_by.is_empty() {
        return Err(FederationError::Unsupported(
            "aggregates over partitioned patterns".into(),
        ));
    }
    let gp = &select.pattern;
    if gp.triples.is_empty() {
        return Err(FederationError::Unsupported("empty graph pattern".into()));
    }
    let plan = Plan {
        endpoints,
        strict: true,
    };
    let sources = plan.select_sources(gp)?;
    let rows = plan.bound_join(gp, &sources, None)?;
    Ok(select_rows(select, &gp.variables(), rows))
}

/// Source selection and bound join over one set of endpoints.
struct Plan<'a> {
    endpoints: &'a [&'a dyn Endpoint],
    /// Whether an endpoint error fails the plan (partitions of one dataset,
    /// or inline data anywhere) or reads as "no match there" (independent
    /// datasets).
    strict: bool,
}

impl Plan<'_> {
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

    /// Run the whole query on each covering endpoint and union the rows.
    fn union_over(
        &self,
        query: &Query,
        covering: &[usize],
    ) -> Result<QueryResult, FederationError> {
        let mut first_err: Option<EndpointError> = None;
        // The first answer's row count, and every compatible answer's rows.
        let mut merged: Option<(usize, Solutions)> = None;
        let mut boolean = false;
        let mut any_ok = false;
        for &i in covering {
            match self.endpoints[i].execute_parsed(query) {
                Ok(QueryResult::Boolean(b)) => {
                    any_ok = true;
                    boolean |= b;
                }
                Ok(QueryResult::Solutions(s)) => {
                    any_ok = true;
                    match &mut merged {
                        None => merged = Some((s.rows.len(), s)),
                        Some((_, acc)) if acc.vars == s.vars => acc.rows.extend(s.rows),
                        Some(_) => {}
                    }
                }
                Err(e) if self.strict => return Err(FederationError::AllSourcesFailed(e)),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if !any_ok {
            return Err(FederationError::AllSourcesFailed(
                first_err.unwrap_or(EndpointError::Eval("no covering endpoint".into())),
            ));
        }
        Ok(match merged {
            Some((first, mut s)) => {
                // The first endpoint's answer stands as it came; a later
                // endpoint adds the rows not seen before it.
                retain_first_seen(&mut s.rows, first);
                QueryResult::Solutions(s)
            }
            None => QueryResult::Boolean(boolean),
        })
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
            retain_first_seen(&mut next, 0);
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

/// Drop every row equal to one before it; the first `standing` rows stay
/// whatever they repeat.
fn retain_first_seen(rows: &mut Vec<Binding>, standing: usize) {
    let mut seen: HashSet<&Binding> = HashSet::with_capacity(rows.len());
    let fresh: Vec<bool> = rows
        .iter()
        .enumerate()
        .map(|(at, row)| seen.insert(row) || at < standing)
        .collect();
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
    use sapphire_rdf::turtle;

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
    fn union_of_rows_from_multiple_covering_endpoints() {
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

    /// Rows of two covering endpoints are unioned: the first's stand as they
    /// came, duplicates included, and the second adds only what is new.
    #[test]
    fn a_covering_union_keeps_the_first_answer_and_adds_unseen_rows() {
        let mut fed = FederatedProcessor::new();
        fed.register(make("people", PEOPLE));
        fed.register(make("more", &format!("{PEOPLE}res:Dee dbo:name \"Dee\" .")));
        let s = fed
            .select("SELECT ?name WHERE { ?s dbo:name ?name }")
            .unwrap();
        assert_eq!(names(&s), ["Ada", "Bob", "Cy", "Cy", "Dee"]);
    }

    /// Whoever sends inline data reads a value without rows as a value
    /// without matches, so that answer is whole or an error: a covering
    /// endpoint's own, shorter answer does not stand in for the join across
    /// sources, and a source that fails is not skipped.
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

    /// Answers until its `fail_from`-th call, sheds from then on.
    struct Shedding {
        inner: Arc<dyn Endpoint>,
        calls: std::sync::atomic::AtomicUsize,
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
            if call >= self.fail_from {
                return Err(EndpointError::Overloaded { in_flight: call });
            }
            self.inner.execute_parsed(query)
        }
    }

    fn shedding(inner: Arc<dyn Endpoint>, fail_from: usize) -> Shedding {
        Shedding {
            inner,
            calls: Default::default(),
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
        let places = |fail_from| shedding(make("places", PLACES), fail_from);
        let healthy = places(usize::MAX);
        let full = execute_partitioned(&[people.as_ref(), &healthy], &select).unwrap();
        assert_eq!(names(&full), ["Bob", "Cy", "Ada", "Cy"]);
        let calls = healthy.calls.into_inner();
        assert!(calls > 4, "probes and sub-queries both reach the source");
        for fail_from in 1..=calls {
            let flaky = places(fail_from);
            assert_eq!(
                execute_partitioned(&[people.as_ref(), &flaky], &select),
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
        lenient.register(Arc::new(places(calls)));
        assert!(lenient
            .select(&format!("SELECT ?name {BY_POPULATION}"))
            .is_ok());
    }
}

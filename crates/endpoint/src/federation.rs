//! A federated query processor — the reproduction's stand-in for FedX \[22\].
//!
//! Sapphire "accesses the endpoints through a federated query processor"
//! (§3); the processor needs to (a) route queries to the endpoints that can
//! answer them and (b) join patterns whose data lives on different endpoints.
//! Like FedX, we do per-triple-pattern source selection with cheap ASK
//! probes, route single-source queries whole, and fall back to bound joins
//! for genuinely federated ones.

use std::collections::HashMap;
use std::sync::Arc;

use sapphire_rdf::Term;
use sapphire_sparql::eval::Filter;
use sapphire_sparql::{
    GraphPattern, Projection, Query, QueryResult, SelectItem, SelectQuery, Solutions, TermPattern,
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
    /// All candidate endpoints failed; the payload is the first error.
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

/// One joined row of variable bindings.
type Binding = HashMap<String, Term>;

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

    fn pattern_of(query: &Query) -> &GraphPattern {
        match query {
            Query::Select(s) => &s.pattern,
            Query::Ask(gp) => gp,
        }
    }

    /// Per-pattern source selection: which endpoints have at least one match
    /// for each triple pattern? (FedX's ASK-probe phase.)
    fn select_sources(&self, gp: &GraphPattern) -> Vec<Vec<usize>> {
        gp.triples
            .iter()
            .map(|tp| {
                let probe = Query::Ask(GraphPattern {
                    triples: vec![tp.clone()],
                    filters: Vec::new(),
                });
                self.endpoints
                    .iter()
                    .enumerate()
                    .filter(|(_, ep)| {
                        matches!(ep.execute_parsed(&probe), Ok(QueryResult::Boolean(true)))
                    })
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect()
    }

    fn execute_federated(&self, query: &Query) -> Result<QueryResult, FederationError> {
        let gp = Self::pattern_of(query);
        if gp.triples.is_empty() {
            return Err(FederationError::Unsupported("empty graph pattern".into()));
        }
        let sources = self.select_sources(gp);

        // Endpoints able to answer every pattern can run the query whole.
        let covering: Vec<usize> = (0..self.endpoints.len())
            .filter(|i| sources.iter().all(|s| s.contains(i)))
            .collect();

        if !covering.is_empty() {
            let result = self.union_over(query, &covering)?;
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
            if !(came_back_empty && join_may_span) {
                return Ok(result);
            }
            if let Query::Select(select) = query {
                if select.has_aggregates() || !select.group_by.is_empty() {
                    return Ok(result);
                }
            }
        }

        // Genuinely federated: bound-join plain SELECTs only.
        let Query::Select(select) = query else {
            return Ok(QueryResult::Boolean(
                !self.bound_join(gp, &sources, Some(1))?.1.is_empty(),
            ));
        };
        if select.has_aggregates() || !select.group_by.is_empty() {
            return Err(FederationError::Unsupported(
                "aggregates over patterns spanning multiple endpoints".into(),
            ));
        }
        let (var_order, rows) = self.bound_join(gp, &sources, None)?;
        let mut solutions = project_rows(select, &var_order, rows);
        if select.distinct {
            dedup(&mut solutions.rows);
        }
        sort_rows(&mut solutions, select);
        apply_slice(&mut solutions, select);
        Ok(QueryResult::Solutions(solutions))
    }

    /// Execute a SELECT strictly by per-pattern source selection plus a
    /// bound join, *skipping* the covering-endpoint shortcut.
    ///
    /// For independent datasets the shortcut is a pure optimization, but for
    /// **partitioned** backends — every endpoint holding a slice of one
    /// dataset — it is unsound: a shard can match every pattern individually
    /// (schema triples are replicated; popular predicates appear everywhere)
    /// while the join still spans shards, and its non-empty shard-local
    /// answer would mask the rows that need the cross-shard join. The
    /// cluster router routes every pattern-spanning query through this
    /// method instead.
    pub fn execute_partitioned(&self, select: &SelectQuery) -> Result<Solutions, FederationError> {
        if self.endpoints.is_empty() {
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
        let sources = self.select_sources(gp);
        let (var_order, rows) = self.bound_join(gp, &sources, None)?;
        let mut solutions = project_rows(select, &var_order, rows);
        if select.distinct {
            dedup(&mut solutions.rows);
        }
        sort_rows(&mut solutions, select);
        apply_slice(&mut solutions, select);
        Ok(solutions)
    }

    /// Run the whole query on each covering endpoint and union the rows.
    fn union_over(
        &self,
        query: &Query,
        covering: &[usize],
    ) -> Result<QueryResult, FederationError> {
        let mut first_err: Option<EndpointError> = None;
        let mut merged: Option<Solutions> = None;
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
                    merged = Some(match merged.take() {
                        None => s,
                        Some(mut acc) => {
                            if acc.vars == s.vars {
                                for row in s.rows {
                                    if !acc.rows.contains(&row) {
                                        acc.rows.push(row);
                                    }
                                }
                            }
                            acc
                        }
                    });
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if !any_ok {
            return Err(FederationError::AllSourcesFailed(
                first_err.unwrap_or(EndpointError::Eval("no covering endpoint".into())),
            ));
        }
        Ok(match merged {
            Some(s) => QueryResult::Solutions(s),
            None => QueryResult::Boolean(boolean),
        })
    }

    /// Nested-loop bound join: evaluate patterns left to right, substituting
    /// bindings and fanning each step out to that pattern's sources.
    fn bound_join(
        &self,
        gp: &GraphPattern,
        sources: &[Vec<usize>],
        row_limit: Option<usize>,
    ) -> Result<(Vec<String>, Vec<Binding>), FederationError> {
        let mut bindings: Vec<Binding> = vec![HashMap::new()];
        for (tp, srcs) in gp.triples.iter().zip(sources) {
            if srcs.is_empty() {
                return Ok((gp.variables(), Vec::new()));
            }
            let mut next: Vec<Binding> = Vec::new();
            for binding in &bindings {
                let bound = substitute(tp, binding);
                let vars: Vec<&str> = bound.variables().collect();
                let sub_query = Query::Select(SelectQuery::star(GraphPattern {
                    triples: vec![bound.clone()],
                    filters: Vec::new(),
                }));
                for &src in srcs {
                    let Ok(QueryResult::Solutions(sols)) =
                        self.endpoints[src].execute_parsed(&sub_query)
                    else {
                        continue;
                    };
                    for r in 0..sols.len() {
                        let mut extended = binding.clone();
                        let mut ok = true;
                        for v in &vars {
                            match sols.get(r, v) {
                                Some(t) => {
                                    extended.insert((*v).to_string(), t.clone());
                                }
                                None => ok = false,
                            }
                        }
                        if ok && !next.contains(&extended) {
                            next.push(extended);
                        }
                    }
                }
            }
            bindings = next;
            if bindings.is_empty() {
                break;
            }
        }
        // Apply filters on complete bindings.
        let filters: Vec<Filter<'_>> = gp.filters.iter().map(Filter::new).collect();
        bindings.retain(|b| filters.iter().all(|f| f.passes(&|name: &str| b.get(name))));
        if let Some(l) = row_limit {
            bindings.truncate(l);
        }
        Ok((gp.variables(), bindings))
    }
}

fn substitute(tp: &TriplePattern, binding: &HashMap<String, Term>) -> TriplePattern {
    let subst = |p: &TermPattern| match p {
        TermPattern::Var(v) => match binding.get(v) {
            Some(t) => TermPattern::Term(t.clone()),
            None => p.clone(),
        },
        ground => ground.clone(),
    };
    TriplePattern::new(subst(&tp.subject), subst(&tp.predicate), subst(&tp.object))
}

fn project_rows(
    select: &SelectQuery,
    var_order: &[String],
    rows: Vec<HashMap<String, Term>>,
) -> Solutions {
    let names: Vec<String> = match &select.projection {
        Projection::Star => var_order.to_vec(),
        Projection::Items(items) => items
            .iter()
            .filter_map(|i| match i {
                SelectItem::Var(v) => Some(v.clone()),
                SelectItem::Agg { .. } => None,
            })
            .collect(),
    };
    let out_rows = rows
        .into_iter()
        .map(|b| names.iter().map(|n| b.get(n).cloned()).collect())
        .collect();
    Solutions {
        vars: names,
        rows: out_rows,
    }
}

fn dedup(rows: &mut Vec<Vec<Option<Term>>>) {
    let mut seen: Vec<Vec<Option<Term>>> = Vec::new();
    rows.retain(|r| {
        if seen.contains(r) {
            false
        } else {
            seen.push(r.clone());
            true
        }
    });
}

fn sort_rows(solutions: &mut Solutions, select: &SelectQuery) {
    use sapphire_sparql::Expr;
    if select.order_by.is_empty() {
        return;
    }
    let keys: Vec<(Option<usize>, bool)> = select
        .order_by
        .iter()
        .map(|k| {
            let col = match &k.expr {
                Expr::Var(v) => solutions.column(v),
                _ => None,
            };
            (col, k.descending)
        })
        .collect();
    solutions.rows.sort_by(|a, b| {
        for (col, desc) in &keys {
            if let Some(c) = col {
                let ord = cmp_terms(&a[*c], &b[*c]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
        }
        std::cmp::Ordering::Equal
    });
}

fn cmp_terms(a: &Option<Term>, b: &Option<Term>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => {
            let nx = x.as_literal().and_then(|l| l.as_f64());
            let ny = y.as_literal().and_then(|l| l.as_f64());
            match (nx, ny) {
                (Some(p), Some(q)) => p.partial_cmp(&q).unwrap_or(Ordering::Equal),
                _ => x.lexical().cmp(y.lexical()),
            }
        }
    }
}

fn apply_slice(solutions: &mut Solutions, select: &SelectQuery) {
    if let Some(offset) = select.offset {
        solutions.rows.drain(..offset.min(solutions.rows.len()));
    }
    if let Some(limit) = select.limit {
        solutions.rows.truncate(limit);
    }
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
}

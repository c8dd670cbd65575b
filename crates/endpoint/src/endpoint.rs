//! The endpoint abstraction and the simulated local endpoint.
//!
//! Public SPARQL endpoints "impose a timeout limit on queries to avoid
//! overloading their computing resources, or reject queries from the start if
//! their estimated execution time is above a threshold" (§5.1). Those two
//! behaviours *drive* Sapphire's initialization algorithm, so the simulation
//! must reproduce them deterministically: [`LocalEndpoint`] enforces a work
//! budget per query (timeout) and an optional up-front cost-estimate gate
//! (rejection), and counts everything for the init-cost experiment.

use std::sync::Mutex;

use sapphire_rdf::{vocab, Graph, Literal, Term};
use sapphire_sparql::ast::{Aggregate, Expr, Projection, SelectItem, TermPattern};
use sapphire_sparql::eval::{evaluate, EvalError, WorkBudget};
use sapphire_sparql::{parse_query, OrderKey, Query, QueryResult, SelectQuery, Solutions};

/// Endpoint failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointError {
    /// The query exceeded the endpoint's per-query resource budget — the
    /// simulated timeout.
    Timeout {
        /// Work units consumed before the endpoint gave up.
        work_used: u64,
    },
    /// The endpoint refused to run the query because its estimated cost
    /// exceeded the admission threshold.
    Rejected {
        /// The endpoint's cost estimate.
        estimated_cost: u64,
    },
    /// A serving tier behind the endpoint (a Sapphire server, or a shard the
    /// cluster edge reaches) turned the request away at admission control —
    /// the serving-tier analogue of [`EndpointError::Rejected`], raised on
    /// queue overflow rather than per-query cost.
    Overloaded {
        /// Requests already in flight when this one arrived (`0` when the
        /// rejecting tier no longer knows, e.g. a queue-deadline miss).
        in_flight: usize,
    },
    /// The endpoint could not be reached, or the connection died mid-call
    /// (connect refused, connection reset, read deadline, short read). The
    /// *transport* failed, not the query: a sibling replica — or the same
    /// endpoint after a reconnect — may well answer, so this is retryable
    /// back-pressure for the [`Backoff`](crate::Backoff)/failover machinery,
    /// unlike the deterministic `Parse`/`Eval`/`Timeout` failures.
    Unreachable {
        /// Short machine-stable reason: `"connect"`, `"reset"`, `"timeout"`,
        /// `"short read"`, `"closed"`.
        reason: String,
    },
    /// The query did not parse.
    Parse(String),
    /// The query parsed but could not be evaluated.
    Eval(String),
}

impl std::fmt::Display for EndpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EndpointError::Timeout { work_used } => {
                write!(f, "query timed out after {work_used} work units")
            }
            EndpointError::Rejected { estimated_cost } => {
                write!(f, "query rejected (estimated cost {estimated_cost})")
            }
            EndpointError::Overloaded { in_flight } => {
                write!(f, "service overloaded ({in_flight} requests in flight)")
            }
            EndpointError::Unreachable { reason } => {
                write!(f, "endpoint unreachable ({reason})")
            }
            EndpointError::Parse(m) => write!(f, "parse error: {m}"),
            EndpointError::Eval(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for EndpointError {}

/// Anything that can answer SPARQL queries.
pub trait Endpoint: Send + Sync {
    /// The endpoint's registered name (e.g. `"dbpedia"`).
    fn name(&self) -> &str;

    /// Execute an already-parsed query.
    fn execute_parsed(&self, query: &Query) -> Result<QueryResult, EndpointError>;

    /// Parse and execute a query string.
    fn execute(&self, query: &str) -> Result<QueryResult, EndpointError> {
        let parsed = parse_query(query).map_err(|e| EndpointError::Parse(e.to_string()))?;
        self.execute_parsed(&parsed)
    }

    /// Execute a SELECT and return its solutions.
    fn select(&self, query: &str) -> Result<Solutions, EndpointError> {
        match self.execute(query)? {
            QueryResult::Solutions(s) => Ok(s),
            QueryResult::Boolean(_) => Err(EndpointError::Eval("expected SELECT, got ASK".into())),
        }
    }
}

/// Resource limits of a [`LocalEndpoint`].
#[derive(Debug, Clone, Copy)]
pub struct EndpointLimits {
    /// Per-query work budget; `None` means the warehousing architecture with
    /// no timeouts (Appendix A, Q9/Q10).
    pub timeout_work: Option<u64>,
    /// Reject queries whose *estimated* cost exceeds this, without running
    /// them at all.
    pub reject_above: Option<u64>,
    /// Hard cap on returned rows (endpoints cap result sizes too).
    pub max_results: Option<usize>,
}

impl EndpointLimits {
    /// Limits imitating a guarded public endpoint.
    pub fn public_endpoint(timeout_work: u64) -> Self {
        EndpointLimits {
            timeout_work: Some(timeout_work),
            reject_above: Some(timeout_work.saturating_mul(64)),
            max_results: Some(10_000),
        }
    }

    /// No limits — the warehousing architecture.
    pub fn warehouse() -> Self {
        EndpointLimits {
            timeout_work: None,
            reject_above: None,
            max_results: None,
        }
    }
}

/// Cumulative endpoint-side statistics, the raw material of the paper's
/// initialization-cost report (§5.2: "~800 SPARQL queries … ~200 timed out").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Queries admitted and run (successfully or not).
    pub queries: u64,
    /// Queries that hit the work budget.
    pub timeouts: u64,
    /// Queries rejected up front by the cost estimate.
    pub rejected: u64,
    /// Total work units consumed.
    pub total_work: u64,
}

/// An in-process SPARQL endpoint over a [`Graph`] with deterministic
/// resource-limit simulation.
pub struct LocalEndpoint {
    name: String,
    graph: Graph,
    limits: EndpointLimits,
    stats: Mutex<EndpointStats>,
}

impl LocalEndpoint {
    /// Wrap a graph as an endpoint.
    pub fn new(name: impl Into<String>, graph: Graph, limits: EndpointLimits) -> Self {
        LocalEndpoint {
            name: name.into(),
            graph,
            limits,
            stats: Mutex::new(EndpointStats::default()),
        }
    }

    /// The underlying graph (the simulation owns it; remote endpoints would
    /// not expose this, and Sapphire's code never uses it).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The endpoint's limits.
    pub fn limits(&self) -> EndpointLimits {
        self.limits
    }

    /// Snapshot of the statistics counters.
    pub fn stats(&self) -> EndpointStats {
        *self.stats.lock().unwrap()
    }

    /// Reset the statistics counters.
    pub fn reset_stats(&self) {
        *self.stats.lock().unwrap() = EndpointStats::default();
    }

    /// The endpoint's up-front cost estimate for a query — what the
    /// [`reject_above`](EndpointLimits::reject_above) gate compares: the
    /// evaluator's price of the query's pattern
    /// ([`sapphire_sparql::estimate_cost`]), a crude planner estimate of the
    /// kind public endpoints use for admission control.
    pub fn estimate_cost(&self, query: &Query) -> u64 {
        sapphire_sparql::estimate_cost(&self.graph, query.pattern())
    }
}

impl LocalEndpoint {
    /// Recognize the Q1/Q3/Q4 statistics shapes:
    /// `SELECT ?g (COUNT(…) AS ?f) WHERE { one pattern } GROUP BY ?g
    /// [ORDER BY DESC(?f)] [LIMIT n]`
    /// where the pattern is `?s ?p ?o` (grouped by `?p`, optionally filtered
    /// to literal objects) or `?s a ?o` (grouped by `?o`). The answer is the
    /// statistics table as kept — most frequent first — so any other order,
    /// an OFFSET or a `COUNT(DISTINCT …)` is left to the evaluator.
    fn try_statistics_answer(&self, query: &Query) -> Option<(Solutions, u64)> {
        let Query::Select(select) = query else {
            return None;
        };
        let stats = self.match_statistics_shape(select)?;
        let (group_var, count_alias, counts) = stats;
        let mut rows: Vec<Vec<Option<Term>>> = counts
            .into_iter()
            .map(|(id, n)| {
                vec![
                    Some(self.graph.term(id).clone()),
                    Some(Term::Literal(Literal::integer(n as i64))),
                ]
            })
            .collect();
        if let Some(limit) = select.limit {
            rows.truncate(limit);
        }
        let work = rows.len() as u64 + 1;
        Some((
            Solutions {
                vars: vec![group_var, count_alias],
                rows,
            },
            work,
        ))
    }

    #[allow(clippy::type_complexity)]
    fn match_statistics_shape(
        &self,
        select: &SelectQuery,
    ) -> Option<(String, String, Vec<(sapphire_rdf::TermId, usize)>)> {
        if select.pattern.triples.len() != 1
            || select.group_by.len() != 1
            || select.pattern.values.is_some()
        {
            return None;
        }
        let tp = &select.pattern.triples[0];
        let group = &select.group_by[0];
        // Projection: the group var + one COUNT aggregate.
        let Projection::Items(items) = &select.projection else {
            return None;
        };
        if items.len() != 2 {
            return None;
        }
        let (g_item, c_item) = (&items[0], &items[1]);
        let SelectItem::Var(gv) = g_item else {
            return None;
        };
        let SelectItem::Agg {
            agg: Aggregate::Count {
                distinct: false, ..
            },
            alias,
        } = c_item
        else {
            return None;
        };
        if gv != group || select.offset.is_some() {
            return None;
        }
        match select.order_by.as_slice() {
            [] => {}
            [OrderKey {
                expr: Expr::Var(v),
                descending: true,
            }] if v == alias => {}
            _ => return None,
        }
        let (TermPattern::Var(sv), TermPattern::Var(ov)) = (&tp.subject, &tp.object) else {
            return None;
        };
        match &tp.predicate {
            // ?s ?p ?o GROUP BY ?p — predicate frequencies (Q1/Q4).
            TermPattern::Var(pv) if pv == group && sv != ov => {
                let literal_only = match select.pattern.filters.as_slice() {
                    [] => false,
                    [Expr::IsLiteral(inner)] => matches!(&**inner, Expr::Var(v) if v == ov),
                    _ => return None,
                };
                Some((
                    group.clone(),
                    alias.clone(),
                    self.graph.predicate_counts(literal_only),
                ))
            }
            // ?s a ?o GROUP BY ?o — type frequencies (Q3).
            TermPattern::Term(Term::Iri(p)) if p == vocab::rdf::TYPE && ov == group => {
                if !select.pattern.filters.is_empty() {
                    return None;
                }
                Some((group.clone(), alias.clone(), self.graph.type_counts()))
            }
            _ => None,
        }
    }
}

impl Endpoint for LocalEndpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute_parsed(&self, query: &Query) -> Result<QueryResult, EndpointError> {
        // Statistics fast path: real endpoints answer predicate/type
        // frequency aggregates (the paper's Q1/Q3/Q4 — "short queries that
        // are not expected to time out", §5.1) from internal statistics
        // rather than scanning. Charge work proportional to the result size.
        if let Some((solutions, work)) = self.try_statistics_answer(query) {
            let mut stats = self.stats.lock().unwrap();
            stats.queries += 1;
            stats.total_work += work;
            return Ok(QueryResult::Solutions(solutions));
        }
        if let Some(threshold) = self.limits.reject_above {
            let estimated = self.estimate_cost(query);
            if estimated > threshold {
                self.stats.lock().unwrap().rejected += 1;
                return Err(EndpointError::Rejected {
                    estimated_cost: estimated,
                });
            }
        }
        let mut budget = match self.limits.timeout_work {
            Some(w) => WorkBudget::limited(w),
            None => WorkBudget::unlimited(),
        };
        let result = evaluate(&self.graph, query, &mut budget);
        let mut stats = self.stats.lock().unwrap();
        stats.queries += 1;
        stats.total_work += budget.used();
        match result {
            Ok(mut r) => {
                if let (Some(cap), QueryResult::Solutions(s)) = (self.limits.max_results, &mut r) {
                    // Whoever batches look-ups with `VALUES` reads a value
                    // without rows as a value without matches, so a cut
                    // answer is refused, not returned short.
                    if s.rows.len() > cap && query.pattern().values.is_some() {
                        return Err(EndpointError::Eval(format!(
                            "inline-data answer of {} rows exceeds the row cap {cap}",
                            s.rows.len()
                        )));
                    }
                    s.rows.truncate(cap);
                }
                Ok(r)
            }
            Err(EvalError::WorkLimitExceeded { used }) => {
                stats.timeouts += 1;
                Err(EndpointError::Timeout { work_used: used })
            }
            Err(e) => Err(EndpointError::Eval(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_rdf::Term;

    fn triples(n: usize) -> impl Iterator<Item = (Term, Term, Term)> {
        (0..n).map(|i| {
            (
                Term::iri(format!("http://x/s{i}")),
                Term::iri("http://x/p"),
                Term::en(format!("value {i}")),
            )
        })
    }

    fn graph(n: usize) -> Graph {
        Graph::from_term_triples(triples(n))
    }

    #[test]
    fn basic_select() {
        let ep = LocalEndpoint::new("test", graph(5), EndpointLimits::warehouse());
        let s = ep.select("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(ep.stats().queries, 1);
        assert_eq!(ep.stats().timeouts, 0);
    }

    #[test]
    fn timeout_is_counted() {
        let limits = EndpointLimits {
            timeout_work: Some(3),
            reject_above: None,
            max_results: None,
        };
        let ep = LocalEndpoint::new("tight", graph(100), limits);
        let err = ep.select("SELECT ?s WHERE { ?s ?p ?o }").unwrap_err();
        assert!(matches!(err, EndpointError::Timeout { .. }));
        assert_eq!(ep.stats().timeouts, 1);
        assert_eq!(ep.stats().queries, 1);
    }

    #[test]
    fn rejection_precedes_execution() {
        let limits = EndpointLimits {
            timeout_work: Some(1_000),
            reject_above: Some(10),
            max_results: None,
        };
        let ep = LocalEndpoint::new("strict", graph(100), limits);
        let err = ep.select("SELECT ?s WHERE { ?s ?p ?o }").unwrap_err();
        assert!(matches!(err, EndpointError::Rejected { .. }));
        let stats = ep.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.queries, 0, "rejected queries never run");
    }

    #[test]
    fn selective_query_passes_admission() {
        let limits = EndpointLimits {
            timeout_work: Some(1_000),
            reject_above: Some(10),
            max_results: None,
        };
        let ep = LocalEndpoint::new("strict", graph(100), limits);
        let s = ep
            .select("SELECT ?o WHERE { <http://x/s3> <http://x/p> ?o }")
            .unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn absent_ground_term_estimates_zero() {
        let ep = LocalEndpoint::new("t", graph(10), EndpointLimits::warehouse());
        let q = parse_query("SELECT ?o WHERE { <http://x/missing> ?p ?o }").unwrap();
        assert_eq!(ep.estimate_cost(&q), 0);
    }

    #[test]
    fn a_values_variable_estimates_as_bound() {
        // Ten subjects under one predicate; the batched look-up of three
        // objects (one absent) is priced at its two ranges, the scan at ten.
        let ep = LocalEndpoint::new("t", graph(10), EndpointLimits::warehouse());
        let scan = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
        assert_eq!(ep.estimate_cost(&scan), 10);
        let batched = parse_query(
            r#"SELECT DISTINCT ?o WHERE { ?s <http://x/p> ?o VALUES ?o { "value 1"@en "value 7"@en "no such"@en } }"#,
        )
        .unwrap();
        assert_eq!(ep.estimate_cost(&batched), 2);
        // A pattern the variable is not in costs what it cost, and a guarded
        // endpoint that rejects the scan admits the batch.
        let joined =
            parse_query(r#"ASK { ?s <http://x/p> ?o . ?s ?q ?r VALUES ?o { "value 1"@en } }"#)
                .unwrap();
        assert_eq!(ep.estimate_cost(&joined), 1 + 10);
        let limits = EndpointLimits {
            timeout_work: None,
            reject_above: Some(5),
            max_results: None,
        };
        let guarded = LocalEndpoint::new("strict", graph(10), limits);
        assert!(matches!(
            guarded.execute_parsed(&scan),
            Err(EndpointError::Rejected { estimated_cost: 10 })
        ));
        assert_eq!(
            guarded
                .execute_parsed(&batched)
                .unwrap()
                .into_solutions()
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn an_inline_data_answer_over_the_row_cap_is_refused_not_cut() {
        let limits = EndpointLimits {
            timeout_work: None,
            reject_above: None,
            max_results: Some(2),
        };
        let ep = LocalEndpoint::new("capped", graph(10), limits);
        let values = |n: usize| {
            let listed: Vec<String> = (0..n).map(|i| format!("\"value {i}\"@en")).collect();
            format!(
                "SELECT DISTINCT ?o WHERE {{ ?s <http://x/p> ?o VALUES ?o {{ {} }} }}",
                listed.join(" ")
            )
        };
        assert_eq!(ep.select(&values(2)).unwrap().len(), 2);
        assert!(matches!(ep.select(&values(3)), Err(EndpointError::Eval(_))));
    }

    #[test]
    fn max_results_caps_rows() {
        let limits = EndpointLimits {
            timeout_work: None,
            reject_above: None,
            max_results: Some(3),
        };
        let ep = LocalEndpoint::new("capped", graph(10), limits);
        let s = ep.select("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn parse_errors_reported() {
        let ep = LocalEndpoint::new("t", graph(1), EndpointLimits::warehouse());
        assert!(matches!(
            ep.execute("NOT SPARQL"),
            Err(EndpointError::Parse(_))
        ));
    }

    /// Two predicates with different frequencies and one subject repeated,
    /// so every order and both COUNT flavours give different tables.
    fn skewed() -> LocalEndpoint {
        let extra = ["a", "b"].map(|o| {
            (
                Term::iri("http://x/s0"),
                Term::iri("http://x/a"),
                Term::en(o),
            )
        });
        let g = Graph::from_term_triples(triples(3).chain(extra));
        LocalEndpoint::new("t", g, EndpointLimits::warehouse())
    }

    #[test]
    fn statistics_shapes_are_answered_from_the_statistics() {
        // Q1, Q4 and Q3 as initialization issues them: the fast path charges
        // rows + 1, far below a scan of the graph.
        let ep = skewed();
        for (q, rows) in [
            (
                "SELECT DISTINCT ?p (COUNT(*) AS ?frequency) WHERE { ?s ?p ?o } \
                 GROUP BY ?p ORDER BY DESC(?frequency)",
                2,
            ),
            (
                "SELECT DISTINCT ?p (COUNT(?o) AS ?frequency) WHERE { ?s ?p ?o . \
                 FILTER(isliteral(?o)) } GROUP BY ?p ORDER BY DESC(?frequency)",
                2,
            ),
            (
                "SELECT DISTINCT ?o (COUNT(?s) AS ?frequency) WHERE { ?s a ?o } \
                 GROUP BY ?o ORDER BY DESC(?frequency)",
                0,
            ),
            (
                "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p LIMIT 1",
                1,
            ),
        ] {
            ep.reset_stats();
            let s = ep.select(q).unwrap();
            assert_eq!(s.len(), rows, "{q}");
            assert_eq!(ep.stats().total_work, rows as u64 + 1, "{q}");
        }
        let s = ep
            .select("SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n)")
            .unwrap();
        assert_eq!(s.get(0, "p").unwrap().lexical(), "http://x/p");
        assert_eq!(s.get(0, "n").unwrap().lexical(), "3");
    }

    #[test]
    fn statistics_fast_path_leaves_other_orders_offsets_and_distinct_counts_to_the_evaluator() {
        // Regression: each of these used to get the descending triple-count
        // table regardless of what it asked for.
        let ep = skewed();
        for q in [
            "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p",
            "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ASC(?n)",
            "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n) OFFSET 1",
            "SELECT ?p (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n)",
        ] {
            let evaluated = sapphire_sparql::evaluate_select(
                ep.graph(),
                &sapphire_sparql::parse_select(q).unwrap(),
                &mut WorkBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(ep.select(q).unwrap(), evaluated, "{q}");
        }
        // … and what they ask for differs from the statistics table.
        let by_name = ep
            .select("SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p")
            .unwrap();
        assert_eq!(by_name.get(0, "p").unwrap().lexical(), "http://x/a");
        let ascending = ep
            .select("SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ASC(?n)")
            .unwrap();
        assert_eq!(ascending.get(0, "n").unwrap().lexical(), "2");
        let second = ep
            .select("SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n) OFFSET 1")
            .unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(second.get(0, "n").unwrap().lexical(), "2");
        let subjects = ep
            .select("SELECT ?p (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n)")
            .unwrap();
        assert_eq!(subjects.get(1, "p").unwrap().lexical(), "http://x/a");
        assert_eq!(subjects.get(1, "n").unwrap().lexical(), "1");
    }

    #[test]
    fn ask_through_endpoint() {
        let ep = LocalEndpoint::new("t", graph(3), EndpointLimits::warehouse());
        let r = ep.execute("ASK { <http://x/s0> <http://x/p> ?o }").unwrap();
        assert_eq!(r.boolean(), Some(true));
    }
}

//! # sapphire-server
//!
//! The serving tier of the Sapphire reproduction: a concurrent,
//! multi-session query service over one shared Predictive User Model.
//!
//! The paper's Sapphire is an *interactive service* — many users type into
//! query boxes simultaneously and receive QCM completions and QSM
//! suggestions in real time. The library crates model one user; this crate
//! adds the layer that serves many:
//!
//! * **Shared immutable model** — one [`PredictiveUserModel`]
//!   (knowledge-graph endpoints + assembled cache + lexica) behind an
//!   [`Arc`](std::sync::Arc), used concurrently by every request. Sessions
//!   carry only the user's typed state (see
//!   [`registry::SessionRegistry`]), never model copies.
//! * **Admission control** — a bounded in-flight limit with a bounded,
//!   deadline-limited, **fair FIFO** wait queue
//!   ([`admission::AdmissionController`]: each waiter has its own condvar
//!   slot and freed slots are handed to the queue head in arrival order) and
//!   per-tenant work budgets ([`admission::TenantBudgets`]) denominated in
//!   the evaluator's [`WorkBudget`](sapphire_sparql::WorkBudget) units.
//!   Rejections are typed ([`ServerError::Overloaded`],
//!   [`ServerError::QueueTimeout`], [`ServerError::QuotaExhausted`]), so
//!   clients can tell back-pressure from failure.
//! * **Response caching** — a sharded bounded LRU
//!   ([`response_cache::ShardedResponseCache`], built on
//!   [`sapphire_core::ShardedLru`]) memoizing QCM completions and QSM run
//!   payloads by normalized request.
//! * **Single-flight coalescing** — a burst of identical not-yet-cached
//!   requests costs *one* model scan: the first miss leads, concurrent
//!   duplicates follow and receive the leader's shared result (or its typed
//!   error), bounded by a per-key waiter cap ([`coalesce::Coalescer`]).
//! * **Service endpoints** — [`SapphireServer`] implements
//!   [`sapphire_endpoint::QueryService`], so one deployment can federate
//!   over another through
//!   [`ServiceEndpoint`](sapphire_endpoint::ServiceEndpoint) with admission
//!   control enforced at every hop.
//!
//! ```
//! use std::sync::Arc;
//! use sapphire_core::prelude::*;
//! use sapphire_core::InitMode;
//! use sapphire_server::{SapphireServer, ServerConfig};
//!
//! let graph = sapphire_rdf::turtle::parse(
//!     r#"res:JFK a dbo:Person ; dbo:surname "Kennedy"@en ."#,
//! ).unwrap();
//! let ep: Arc<dyn Endpoint> =
//!     Arc::new(LocalEndpoint::new("dbpedia", graph, EndpointLimits::warehouse()));
//! let pum = Arc::new(PredictiveUserModel::initialize(
//!     vec![ep], Lexicon::dbpedia_default(), SapphireConfig::for_tests(), InitMode::Federated,
//! ).unwrap());
//!
//! let server = Arc::new(SapphireServer::new(pum, ServerConfig::for_tests()));
//! let session = server.open_session("alice").unwrap();
//! server.set_row(session, 0, TripleInput::new("?who", "surname", "Kennedy")).unwrap();
//! let out = server.run(session).unwrap();
//! assert!(out.executed);
//! assert_eq!(out.answers.total_rows(), 1);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod coalesce;
pub mod error;
pub mod frontend;
pub mod registry;
pub mod response_cache;
mod server;
pub mod shard;

pub use coalesce::{CoalesceStats, Coalescer};
pub use error::ServerError;
pub use frontend::{FrontRequest, FrontResponse, Frontend, FrontendConfig, FrontendMetrics};
pub use registry::{SessionEntry, SessionId, SessionRegistry};
pub use server::{
    run_cost, QueryRun, RunOutput, RunPayload, SapphireServer, ServerConfig, ServerMetrics,
    RUN_BASE_COST, RUN_PER_PATTERN_COST,
};
pub use shard::{ShardService, TransportStats};

use sapphire_core::PredictiveUserModel;

// The whole point of the crate: the server (and the model it shares) must be
// usable from any number of threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SapphireServer>();
    assert_send_sync::<PredictiveUserModel>();
    assert_send_sync::<ServerError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_core::prelude::*;
    use sapphire_core::InitMode;
    use sapphire_endpoint::{QueryService, ServiceEndpoint};
    use std::sync::Arc;
    use std::time::Duration;

    const DATA: &str = r#"
res:JFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:name "John F. Kennedy"@en .
res:RFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:name "Robert F. Kennedy"@en .
res:Jack a dbo:Person ; dbo:surname "Kerry"@en ; dbo:name "John Kerry"@en .
"#;

    fn pum() -> Arc<PredictiveUserModel> {
        let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
            "dbpedia",
            sapphire_rdf::turtle::parse(DATA).unwrap(),
            EndpointLimits::warehouse(),
        ));
        Arc::new(
            PredictiveUserModel::initialize(
                vec![ep],
                Lexicon::dbpedia_default(),
                SapphireConfig::for_tests(),
                InitMode::Federated,
            )
            .unwrap(),
        )
    }

    fn server() -> Arc<SapphireServer> {
        Arc::new(SapphireServer::new(pum(), ServerConfig::for_tests()))
    }

    #[test]
    fn figure_2_workflow_through_the_server() {
        let srv = server();
        let s = srv.open_session("alice").unwrap();
        srv.set_row(s, 0, TripleInput::new("?person", "surname", "Kennedys"))
            .unwrap();
        let out = srv.run(s).unwrap();
        assert!(out.executed);
        assert_eq!(out.answers.total_rows(), 0);
        let idx = out
            .suggestions
            .alternatives
            .iter()
            .position(|a| a.replacement == "Kennedy")
            .expect("Kennedy suggestion");
        let table = srv.apply_alternative(s, idx).unwrap();
        assert_eq!(table.total_rows(), 2);
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn completions_are_cached_across_sessions() {
        let srv = server();
        let s1 = srv.open_session("alice").unwrap();
        let s2 = srv.open_session("bob").unwrap();
        let r1 = srv.complete(s1, "Kenn").unwrap();
        let r2 = srv.complete(s2, " Kenn ").unwrap();
        assert_eq!(
            r1.suggestions, r2.suggestions,
            "normalized key shares the entry"
        );
        let m = srv.metrics();
        assert_eq!(m.completion_requests, 2);
        assert_eq!(m.completion_cache.hits, 1);
        assert_eq!(m.completion_cache.misses, 1);
    }

    /// Regression: the tree stage of QCM matches case-sensitively, so a
    /// case-folding cache key let whichever spelling scanned first poison
    /// the entry for the other (nondeterministic under concurrency — the
    /// front-end oracle test caught it). Differently-cased terms must each
    /// answer exactly what a direct model scan answers.
    #[test]
    fn differently_cased_completions_never_share_a_cache_entry() {
        let srv = server();
        let s = srv.open_session("alice").unwrap();
        let upper = srv.complete(s, "K").unwrap();
        let lower = srv.complete(s, "k").unwrap();
        assert_eq!(upper.suggestions, srv.model().complete("K").suggestions);
        assert_eq!(lower.suggestions, srv.model().complete("k").suggestions);
        let m = srv.metrics();
        assert_eq!(m.completion_cache.hits, 0, "no cross-case cache sharing");
        assert_eq!(m.completion_cache.misses, 2);
    }

    #[test]
    fn run_results_are_cached_and_attempts_still_count() {
        let srv = server();
        let s = srv.open_session("alice").unwrap();
        srv.set_row(s, 0, TripleInput::new("?p", "surname", "Kennedy"))
            .unwrap();
        let first = srv.run(s).unwrap();
        let second = srv.run(s).unwrap();
        assert!(!first.cached);
        assert!(second.cached);
        assert_eq!(first.answers.total_rows(), second.answers.total_rows());
        assert_eq!(
            second.attempts, 2,
            "attempt counting is per-session, not cached"
        );
    }

    #[test]
    fn editing_rows_invalidates_pending_suggestions() {
        let srv = server();
        let s = srv.open_session("alice").unwrap();
        srv.set_row(s, 0, TripleInput::new("?person", "surname", "Kennedys"))
            .unwrap();
        let out = srv.run(s).unwrap();
        assert!(!out.suggestions.alternatives.is_empty());
        // The user edits the row: the run's alternatives described rows that
        // no longer exist, so accepting one must fail typed, not splice a
        // stale replacement into the new row.
        srv.set_row(s, 0, TripleInput::new("?person", "surname", "Kerry"))
            .unwrap();
        assert!(matches!(
            srv.apply_alternative(s, 0),
            Err(ServerError::UnknownSuggestion { available: 0, .. })
        ));
        // Same contract after accepting an alternative: the remaining ones
        // described the pre-accept rows, so a second accept needs a new run.
        srv.set_row(s, 0, TripleInput::new("?person", "surname", "Kennedys"))
            .unwrap();
        let out = srv.run(s).unwrap();
        let idx = out
            .suggestions
            .alternatives
            .iter()
            .position(|a| a.replacement == "Kennedy")
            .unwrap();
        srv.apply_alternative(s, idx).unwrap();
        assert!(matches!(
            srv.apply_alternative(s, idx),
            Err(ServerError::UnknownSuggestion { available: 0, .. })
        ));
    }

    #[test]
    fn unknown_sessions_and_suggestions_are_typed() {
        let srv = server();
        let ghost = SessionId(999);
        assert!(matches!(
            srv.complete(ghost, "x"),
            Err(ServerError::UnknownSession(_))
        ));
        let s = srv.open_session("a").unwrap();
        assert!(matches!(
            srv.apply_alternative(s, 0),
            Err(ServerError::UnknownSuggestion { available: 0, .. })
        ));
        srv.close_session(s);
        assert!(matches!(srv.run(s), Err(ServerError::UnknownSession(_))));
    }

    #[test]
    fn invalid_query_state_surfaces_session_error() {
        let srv = server();
        let s = srv.open_session("a").unwrap();
        srv.set_row(s, 0, TripleInput::new("not a uri", "surname", "x"))
            .unwrap();
        assert!(matches!(srv.run(s), Err(ServerError::Session(_))));
    }

    #[test]
    fn tenant_quota_rejections_are_typed_and_windowed() {
        let config = ServerConfig {
            tenant_window_budget: Some(2),
            completion_cost: 1,
            ..ServerConfig::for_tests()
        };
        let srv = Arc::new(SapphireServer::new(pum(), config));
        let s = srv.open_session("alice").unwrap();
        srv.complete(s, "Ken").unwrap();
        srv.complete(s, "Kenn").unwrap();
        let err = srv.complete(s, "Kenne").unwrap_err();
        assert!(matches!(err, ServerError::QuotaExhausted { budget: 2, .. }));
        assert!(err.is_rejection());
        assert_eq!(srv.metrics().rejected_quota, 1);
        // Other tenants unaffected; a new window clears the meter.
        let s2 = srv.open_session("bob").unwrap();
        srv.complete(s2, "Ken").unwrap();
        srv.reset_budget_window();
        srv.complete(s, "Kenne").unwrap();
    }

    #[test]
    fn work_budget_converts_to_tenant_quota() {
        use sapphire_sparql::WorkBudget;
        let config = ServerConfig::for_tests().with_tenant_budget(&WorkBudget::limited(7));
        assert_eq!(config.tenant_window_budget, Some(7));
        let config = config.with_tenant_budget(&WorkBudget::unlimited());
        assert_eq!(config.tenant_window_budget, None);
    }

    #[test]
    fn overload_rejections_under_a_tiny_gate() {
        let config = ServerConfig {
            max_in_flight: 1,
            max_queue_depth: 0,
            queue_wait: Duration::from_millis(5),
            ..ServerConfig::for_tests()
        };
        let srv = Arc::new(SapphireServer::new(pum(), config));
        let sessions: Vec<SessionId> = (0..8)
            .map(|i| srv.open_session(&format!("t{i}")).unwrap())
            .collect();
        let mut handles = Vec::new();
        for &s in &sessions {
            let srv = srv.clone();
            handles.push(std::thread::spawn(move || {
                (0..20)
                    .filter(|i| match srv.complete(s, &format!("Ken{i}")) {
                        Ok(_) => false,
                        Err(e) => {
                            assert!(
                                matches!(
                                    e,
                                    ServerError::Overloaded { .. }
                                        | ServerError::QueueTimeout { .. }
                                ),
                                "only typed back-pressure rejections, got {e:?}"
                            );
                            true
                        }
                    })
                    .count()
            }));
        }
        let rejected: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let m = srv.metrics();
        assert_eq!(
            rejected as u64,
            m.rejected_overloaded + m.rejected_queue_timeout,
            "every rejection accounted for"
        );
    }

    #[test]
    fn server_as_query_service_endpoint() {
        let srv = Arc::new(SapphireServer::new(pum(), ServerConfig::for_tests()));
        assert_eq!(srv.service_name(), "sapphire");
        let ep = ServiceEndpoint::new(srv.clone(), "downstream");
        use sapphire_endpoint::Endpoint;
        let rows = ep
            .select(r#"SELECT ?p WHERE { ?p dbo:surname "Kennedy"@en }"#)
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(srv.metrics().service_requests, 1);
        assert!(
            srv.tenant_usage("downstream") > 0,
            "service queries are billed"
        );
    }
}

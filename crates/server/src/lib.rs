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
//!   slot and freed slots are handed to the queue head in arrival order).
//!   Rejections are typed ([`ServerError::Overloaded`],
//!   [`ServerError::QueueTimeout`]), so clients can tell back-pressure from
//!   failure.
//! * **Response caching** — a sharded bounded LRU
//!   ([`response_cache::ShardedResponseCache`], built on
//!   [`sapphire_core::ShardedLru`]) memoizing QCM completions and QSM run
//!   payloads by normalized request.
//! * **Single-flight coalescing** — a burst of identical not-yet-cached
//!   requests costs *one* model scan: the first miss leads, concurrent
//!   duplicates follow and receive the leader's shared result (or its typed
//!   error) ([`coalesce::Coalescer`]).
//! * **Shard replicas** — [`SapphireServer`] is a [`ShardService`]: a
//!   cluster edge sends it completions, runs and raw queries
//!   ([`SapphireServer::execute_query`]) as [`WireRequest`]s, in process or
//!   over a socket, with admission control enforced at every hop. Its
//!   failures reach the edge's federated plan through the one conversion
//!   `From<ServerError> for EndpointError` ([`error`]).
//!
//! ```
//! use std::sync::Arc;
//! use sapphire_core::prelude::*;
//! use sapphire_core::InitMode;
//! use sapphire_server::{SapphireServer, ServerConfig};
//!
//! let graph = sapphire_sparql::turtle::parse(
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

#![forbid(unsafe_code)]
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
pub use server::{QueryRun, RunOutput, RunPayload, SapphireServer, ServerConfig, ServerMetrics};
pub use shard::{ShardService, TransportStats, WireReply, WireRequest};

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
            sapphire_sparql::turtle::parse(DATA).unwrap(),
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

    /// Debug renderings, one per candidate: `TermAlternative` has no `Eq`.
    fn rendered(candidates: &[sapphire_core::qsm::TermAlternative]) -> Vec<String> {
        candidates.iter().map(|c| format!("{c:?}")).collect()
    }

    #[test]
    fn a_run_keeps_no_rewrite_candidates() {
        let srv = server();
        let query =
            sapphire_sparql::parse_select(r#"SELECT ?p WHERE { ?p dbo:surname "Kennedys"@en }"#)
                .unwrap();
        let miss = srv.run_select("edge", &query).unwrap();
        let hit = srv.run_select("edge", &query).unwrap();
        assert!(!miss.cached && hit.cached);
        for run in [&miss, &hit] {
            assert!(run.payload.suggestions.candidates.is_empty());
            assert!(!run.payload.suggestions.alternatives.is_empty());
        }

        let fe = Frontend::new(srv.clone(), FrontendConfig::for_tests());
        let s = fe.open_session("alice").unwrap();
        let row = TripleInput::new("?p", "surname", "Kennedys");
        fe.call(s, FrontRequest::SetRow { idx: 0, input: row })
            .unwrap();
        let out = match fe.call(s, FrontRequest::Run).unwrap() {
            FrontResponse::Run(out) => out,
            other => panic!("unexpected response {other:?}"),
        };
        assert!(out.suggestions.candidates.is_empty());
        assert!(!out.suggestions.alternatives.is_empty());
    }

    #[test]
    fn a_shard_run_reply_carries_the_model_candidates() {
        let srv = server();
        let query =
            sapphire_sparql::parse_select(r#"SELECT ?p WHERE { ?p dbo:surname "Kennedys"@en }"#)
                .unwrap();
        let expected = rendered(&srv.model().qsm().candidates(&query));
        assert!(!expected.is_empty(), "a misspelled literal has candidates");
        for pass in ["miss", "hit"] {
            let reply = ShardService::run_select_tiered(&*srv, "edge", &query, 0, None).unwrap();
            assert_eq!(rendered(&reply.suggestions.candidates), expected, "{pass}");
        }
        assert_eq!(
            srv.metrics().run_cache.hits,
            1,
            "the second reply was a hit"
        );
        let reply = ShardService::call(
            &*srv,
            &WireRequest::Run {
                tenant: "edge".into(),
                query: query.clone(),
                tier: 0,
                budget: None,
            },
        )
        .unwrap()
        .into_run()
        .unwrap();
        assert_eq!(rendered(&reply.suggestions.candidates), expected, "call");
        // The replies' lists never reach the cache.
        let cached = srv.run_select("edge", &query).unwrap();
        assert!(cached.cached && cached.payload.suggestions.candidates.is_empty());
    }

    #[test]
    fn server_as_query_service_endpoint() {
        let srv = Arc::new(SapphireServer::new(pum(), ServerConfig::for_tests()));
        assert_eq!(srv.config().name, "sapphire");
        let query =
            sapphire_sparql::parse_query(r#"SELECT ?p WHERE { ?p dbo:surname "Kennedy"@en }"#)
                .unwrap();
        let rows = match srv.execute_query("downstream", &query).unwrap() {
            sapphire_sparql::QueryResult::Solutions(rows) => rows,
            other => panic!("a SELECT answered {other:?}"),
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(srv.metrics().service_requests, 1);
    }
}

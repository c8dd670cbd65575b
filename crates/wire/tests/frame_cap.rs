//! The frame cap is enforced by the sender as well as the reader.
//!
//! Both readers refuse a payload over [`MAX_FRAME`] by dropping the
//! connection, and a `WireClient`'s connection carries every pipelined call
//! to its replica. So a frame that is too large must never be written:
//!
//! * a reply that encodes past the cap becomes a typed, non-retryable
//!   `Backend` error for that one call, and every other call on the
//!   connection gets its answer;
//! * a request that encodes past the replica's advertised cap fails its
//!   call typed before a byte is written, and the next call reuses the
//!   connection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sapphire_core::exec;
use sapphire_core::qcm::{Completion, CompletionResult};
use sapphire_core::MatchSource;
use sapphire_rdf::{Literal, Term};
use sapphire_server::{RunPayload, ServerError, ShardService, TransportStats};
use sapphire_sparql::{
    GraphPattern, InlineData, Projection, Query, QueryResult, SelectQuery, Solutions,
};
use sapphire_wire::{WireClient, WireClientConfig, WireServer, WireServerConfig, MAX_FRAME};

/// A literal just past the frame cap on its own.
fn huge_literal() -> Term {
    Term::Literal(Literal {
        value: "x".repeat(MAX_FRAME as usize + 1),
        lang: None,
        datatype: None,
    })
}

/// A shard whose raw queries answer one row holding [`huge_literal`], and
/// whose completion of `"hold"` parks while a test holds `gate`.
#[derive(Default)]
struct HugeAnswers {
    raw_calls: AtomicUsize,
    completions: AtomicUsize,
    gate: Mutex<()>,
}

impl ShardService for HugeAnswers {
    fn shard_name(&self) -> String {
        "huge".to_string()
    }

    fn top_k(&self) -> usize {
        3
    }

    fn complete_top(
        &self,
        _tenant: &str,
        typed: &str,
        _k: usize,
    ) -> Result<CompletionResult, ServerError> {
        self.completions.fetch_add(1, Ordering::SeqCst);
        if typed == "hold" {
            drop(self.gate.lock().unwrap());
        }
        Ok(CompletionResult {
            suggestions: vec![Completion {
                text: typed.to_string(),
                predicate_iri: None,
                source: MatchSource::SuffixTree,
            }],
            tree_hit: true,
            tree_time: Duration::ZERO,
            bins_time: Duration::ZERO,
            residual_candidates: 0,
        })
    }

    fn run_select_tiered(
        &self,
        _tenant: &str,
        _query: &SelectQuery,
        _tier: usize,
        _budget: Option<Duration>,
    ) -> Result<Arc<RunPayload>, ServerError> {
        Err(ServerError::Backend("no model".to_string()))
    }

    fn execute_raw(&self, _tenant: &str, _query: &Query) -> Result<QueryResult, ServerError> {
        self.raw_calls.fetch_add(1, Ordering::SeqCst);
        Ok(QueryResult::Solutions(Solutions {
            vars: vec!["o".to_string()],
            rows: vec![vec![Some(huge_literal())]],
        }))
    }

    fn admission_load(&self) -> (usize, usize) {
        (0, 0)
    }

    fn shed_pressure_tier(&self) -> usize {
        0
    }
}

/// An ASK whose `VALUES` block holds [`huge_literal`].
fn huge_ask() -> Query {
    Query::Ask(GraphPattern {
        triples: Vec::new(),
        filters: Vec::new(),
        values: Some(InlineData {
            var: "o".to_string(),
            terms: vec![huge_literal()].into(),
        }),
    })
}

fn select_all() -> Query {
    Query::Select(SelectQuery {
        distinct: false,
        projection: Projection::Star,
        pattern: GraphPattern {
            triples: Vec::new(),
            filters: Vec::new(),
            values: None,
        },
        group_by: Vec::new(),
        order_by: Vec::new(),
        limit: None,
        offset: None,
    })
}

fn start() -> (Arc<HugeAnswers>, WireServer, WireClient) {
    let service = Arc::new(HugeAnswers::default());
    let server = WireServer::serve(
        service.clone(),
        "127.0.0.1:0",
        WireServerConfig {
            idle_poll: Duration::from_millis(10),
        },
    )
    .expect("bind loopback server");
    let client =
        WireClient::connect(server.local_addr(), WireClientConfig::default()).expect("handshake");
    (service, server, client)
}

/// Poll `cond` for up to five seconds.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

fn assert_backend_naming_the_cap(result: Result<QueryResult, ServerError>) {
    match result {
        Err(ServerError::Backend(message)) => assert!(
            message.contains(&MAX_FRAME.to_string()),
            "the error names the cap: {message}"
        ),
        other => panic!("expected a typed Backend error, got {other:?}"),
    }
}

fn assert_one_clean_connection(stats: TransportStats) {
    assert_eq!(stats.connects, 1, "the connection survived");
    assert_eq!(stats.reconnects, 0);
    assert_eq!(stats.io_errors, 0);
    assert_eq!(stats.corrupt_frames, 0);
}

#[test]
fn an_oversized_reply_fails_its_call_typed_and_spares_the_connection() {
    let (service, server, client) = start();
    // The replica runs a request on an idle executor worker, else inline on
    // the connection's own thread, which then reads nothing until it ends.
    // The held call must not take that thread, so let the workers park.
    assert!(eventually(|| exec::global().try_spawn(|| {}).is_ok()));
    let held = service.gate.lock().unwrap();
    std::thread::scope(|scope| {
        let in_flight = scope.spawn(|| client.complete_top("t", "hold", 1));
        assert!(eventually(
            || service.completions.load(Ordering::SeqCst) == 1
        ));
        assert_backend_naming_the_cap(client.execute_raw("t", &select_all()));
        drop(held);
        let answer = in_flight
            .join()
            .unwrap()
            .expect("the pipelined call is answered");
        assert_eq!(answer.suggestions[0].text, "hold");
    });
    assert_eq!(service.raw_calls.load(Ordering::SeqCst), 1, "never retried");
    assert_one_clean_connection(client.transport_stats());
    assert_eq!(server.stats().corrupt_frames, 0);
    drop(client);
    server.shutdown();
}

#[test]
fn an_oversized_request_fails_typed_without_being_written() {
    let (service, server, client) = start();
    let requests_before = server.stats().requests;
    assert_backend_naming_the_cap(client.execute_raw("t", &huge_ask()));
    assert_eq!(service.raw_calls.load(Ordering::SeqCst), 0);
    assert_eq!(server.stats().requests, requests_before, "nothing was sent");
    assert_eq!(server.stats().corrupt_frames, 0);
    // The same connection serves the next call.
    assert!(client.complete_top("t", "next", 1).is_ok());
    assert_one_clean_connection(client.transport_stats());
    drop(client);
    server.shutdown();
}

//! Cross-crate contracts of single-flight coalescing and fair FIFO
//! admission, exercised through the public `sapphire-server` API only.
//!
//! The unit tests in `crates/server` pin the mechanisms (leader election,
//! abandoned flights, strict handoff order); these tests pin the *service-level*
//! promises built on them:
//!
//! * a burst of identical cold requests costs exactly one model scan,
//!   whatever the thread interleaving;
//! * every request in such a burst lands in exactly one metrics bucket
//!   (leader, coalesced follower, or response-cache hit) — nothing is lost
//!   or double-counted;
//! * raw queries from upstream hops (`execute_query`, what a cluster edge
//!   sends a shard) coalesce at the downstream server by the query's
//!   structural key;
//! * under a saturated gate, freed slots are handed to queued waiters
//!   (observable as `fifo_handoffs`) and rejections stay typed.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use sapphire_core::prelude::*;
use sapphire_core::InitMode;
use sapphire_server::{SapphireServer, ServerConfig, ServerError};
use sapphire_sparql::QueryResult;

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

fn wide_open(threads: usize) -> ServerConfig {
    ServerConfig {
        max_in_flight: threads,
        max_queue_depth: threads,
        ..ServerConfig::for_tests()
    }
}

#[test]
fn cold_completion_burst_costs_one_scan_across_sessions() {
    const THREADS: usize = 16;
    let server = Arc::new(SapphireServer::new(pum(), wide_open(THREADS)));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let server = server.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let session = server.open_session(&format!("tenant-{i}")).unwrap();
                barrier.wait();
                // Mixed spellings of one request: normalization must
                // coalesce them too, not just byte-identical strings.
                // (Whitespace only — case is semantic: the tree stage
                // matches case-sensitively, so "kenn" is another request.)
                let typed = if i % 2 == 0 { "Kenn" } else { " Kenn " };
                server.complete(session, typed).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &results[1..] {
        assert_eq!(r.suggestions, results[0].suggestions);
    }
    let m = server.metrics();
    assert_eq!(m.coalesce_leader_runs, 1, "one scan for the whole burst");
    assert_eq!(
        m.coalesce_leader_runs + m.coalesced_hits + m.completion_cache.hits,
        THREADS as u64,
        "leader + followers + cache hits account for every request"
    );
    assert_eq!(m.rejected_overloaded + m.rejected_queue_timeout, 0);
}

#[test]
fn cold_run_burst_costs_one_scan_and_commits_per_session() {
    const THREADS: usize = 12;
    let server = Arc::new(SapphireServer::new(pum(), wide_open(THREADS)));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let server = server.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let session = server.open_session(&format!("tenant-{i}")).unwrap();
                // A typo'd surname: the one scan must also produce the QSM
                // "did you mean" payload every session then commits locally.
                server
                    .set_row(session, 0, TripleInput::new("?p", "surname", "Kennedys"))
                    .unwrap();
                barrier.wait();
                let out = server.run(session).unwrap();
                (session, out)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let m = server.metrics();
    assert_eq!(m.coalesce_leader_runs, 1, "one scan for the whole burst");
    let idx = results[0]
        .1
        .suggestions
        .alternatives
        .iter()
        .position(|a| a.replacement == "Kennedy")
        .expect("the shared scan carries the Kennedy suggestion");
    for (session, out) in &results {
        assert_eq!(out.attempts, 1, "attempts counted per session");
        assert_eq!(
            out.suggestions.alternatives.len(),
            results[0].1.suggestions.alternatives.len()
        );
        // The shared payload was committed to *this* session: accepting the
        // alternative works independently everywhere.
        let table = server.apply_alternative(*session, idx).unwrap();
        assert_eq!(table.total_rows(), 2);
    }
}

#[test]
fn federated_hops_coalesce_by_query_fingerprint() {
    const THREADS: usize = 8;
    let server = Arc::new(SapphireServer::new(pum(), wide_open(THREADS)));
    // Each thread parses its own copy of the query, as each upstream hop
    // would: structurally equal queries are one request.
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let server = server.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let query = sapphire_sparql::parse_query(
                    r#"SELECT ?p WHERE { ?p dbo:surname "Kennedy"@en }"#,
                )
                .unwrap();
                barrier.wait();
                match server.execute_query("edge", &query).unwrap() {
                    QueryResult::Solutions(rows) => rows,
                    other => panic!("a SELECT answered {other:?}"),
                }
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap().len(), 2);
    }
    let m = server.metrics();
    assert_eq!(m.service_requests, THREADS as u64);
    // The service surface has no response cache, so every request either
    // led one federation execution or coalesced onto one — and the ledger
    // must balance exactly.
    assert_eq!(
        m.coalesce_leader_runs + m.coalesced_hits,
        THREADS as u64,
        "every federated request is a leader or a follower"
    );
    assert!(m.coalesce_leader_runs >= 1);
}

#[test]
fn saturated_gate_hands_slots_to_queued_waiters_with_typed_rejections() {
    const THREADS: usize = 12;
    // One slot and a short queue: the burst must wait its turn or be turned
    // away — typed, counted, and with FIFO handoffs observable. At tiny
    // scale a scan takes microseconds, so a single burst can *occasionally*
    // drain without ever forming a queue; repeat the burst until contention
    // actually materializes (in practice the first or second attempt), then
    // assert on what the gate did with it.
    let config = ServerConfig {
        max_in_flight: 1,
        max_queue_depth: 4,
        queue_wait: Duration::from_millis(200),
        ..ServerConfig::for_tests()
    };
    let server = Arc::new(SapphireServer::new(pum(), config));
    let (mut served, mut rejected) = (0u64, 0u64);
    for attempt in 0..50 {
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let server = server.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let session = server.open_session(&format!("tenant-{i}")).unwrap();
                    barrier.wait();
                    let mut served = 0u64;
                    let mut rejected = 0u64;
                    for k in 0..20 {
                        // Distinct terms per thread and attempt: admission
                        // pressure without coalescing or the response cache
                        // soaking up the contention.
                        match server.complete(session, &format!("a{attempt}t{i}k{k}")) {
                            Ok(_) => served += 1,
                            Err(e) => {
                                assert!(
                                    matches!(
                                        e,
                                        ServerError::Overloaded { .. }
                                            | ServerError::QueueTimeout { .. }
                                    ),
                                    "only typed back-pressure, got {e:?}"
                                );
                                rejected += 1;
                            }
                        }
                    }
                    server.close_session(session);
                    (served, rejected)
                })
            })
            .collect();
        for h in handles {
            let (s, r) = h.join().unwrap();
            served += s;
            rejected += r;
        }
        if server.metrics().fifo_handoffs > 0 {
            break;
        }
    }
    let m = server.metrics();
    assert_eq!(served + rejected, m.completion_requests);
    assert_eq!(rejected, m.rejected_overloaded + m.rejected_queue_timeout);
    assert!(
        m.fifo_handoffs > 0,
        "a saturated gate must hand freed slots to queued waiters"
    );
    let (in_flight, queued) = server.admission_load();
    assert_eq!((in_flight, queued), (0, 0), "gate drains clean");
}

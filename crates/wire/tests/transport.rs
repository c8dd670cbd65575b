//! Transport-behavior tests for `WireServer`/`WireClient` — the failure
//! semantics the review of the serving story pinned down:
//!
//! * a frame arriving in chunks spaced wider than the server's idle-poll
//!   deadline must be served, not desynced (the poll tick may fire
//!   mid-frame);
//! * closed connections must be deregistered server-side — a long-running
//!   replica under client reconnect churn must not leak descriptors;
//! * the client's stale-connection redial fires only when the request
//!   write itself failed; once the request is on the wire, a failure
//!   surfaces typed (the router owns failover) instead of silently
//!   replaying the request — and doubling the replica's work — behind the
//!   caller's back;
//! * two callers pipelining on one connection must not stall each other on
//!   Nagle + delayed ACK.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sapphire_core::qcm::{Completion, CompletionResult};
use sapphire_core::MatchSource;
use sapphire_server::{RunPayload, ServerError, ShardService};
use sapphire_sparql::{Query, QueryResult, SelectQuery, Solutions};
use sapphire_wire::codec::{decode_reply, encode_hello, encode_request};
use sapphire_wire::frame::{self, kind, FrameReader};
use sapphire_wire::{
    FaultProxy, WireClient, WireClientConfig, WireReply, WireRequest, WireServer, WireServerConfig,
    MAX_FRAME, WIRE_VERSION,
};

/// A trivial shard: answers every completion with one echo suggestion.
#[derive(Default)]
struct StubService {
    /// Completion calls seen — a replayed request would count twice.
    calls: AtomicUsize,
    /// A completion of the term `"hold"` parks for as long as a test holds
    /// this locked.
    gate: Mutex<()>,
}

impl ShardService for StubService {
    fn shard_name(&self) -> String {
        "stub".to_string()
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
        self.calls.fetch_add(1, Ordering::SeqCst);
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
        Err(ServerError::Backend("stub has no model".to_string()))
    }

    fn execute_raw(&self, _tenant: &str, _query: &Query) -> Result<QueryResult, ServerError> {
        Ok(QueryResult::Solutions(Solutions {
            vars: Vec::new(),
            rows: Vec::new(),
        }))
    }

    fn admission_load(&self) -> (usize, usize) {
        (0, 0)
    }

    fn shed_pressure_tier(&self) -> usize {
        0
    }
}

fn serve_stub(idle_poll: Duration) -> WireServer {
    serve(Arc::new(StubService::default()), idle_poll)
}

fn serve(service: Arc<StubService>, idle_poll: Duration) -> WireServer {
    WireServer::serve(service, "127.0.0.1:0", WireServerConfig { idle_poll })
        .expect("bind loopback server")
}

fn frame_bytes(kind: u8, corr: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame::write_frame_corr(&mut out, kind, corr, payload).expect("Vec write cannot fail");
    out
}

#[test]
fn chunked_frames_across_idle_polls_are_served_without_desync() {
    let server = serve_stub(Duration::from_millis(10));
    let mut stream = TcpStream::connect(server.local_addr()).expect("dial");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(&frame_bytes(kind::HELLO, 0, &encode_hello(WIRE_VERSION)))
        .unwrap();
    let mut replies = FrameReader::new();
    let (k, _, _) = replies
        .read_frame_corr(&mut stream, MAX_FRAME)
        .expect("handshake reply");
    assert_eq!(k, kind::HELLO_OK);

    let request = encode_request(&WireRequest::Complete {
        tenant: "t".to_string(),
        term: "dresden".to_string(),
        fetch: 1,
    });
    // Trickle the frame out 3 bytes at a time, pausing well past the
    // server's idle-poll deadline between chunks: the poll tick fires
    // mid-header and mid-payload, and the server must keep its place.
    for chunk in frame_bytes(kind::REQUEST, 41, &request).chunks(3) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let (k, corr, reply) = replies
        .read_frame_corr(&mut stream, MAX_FRAME)
        .expect("reply to chunked frame");
    assert_eq!(
        (k, corr),
        (kind::REPLY, 41),
        "the reply echoes the request's id"
    );
    let (_, result) = decode_reply(&reply).expect("decode reply");
    match result.expect("stub answers completions") {
        WireReply::Completion(c) => assert_eq!(c.suggestions[0].text, "dresden"),
        other => panic!("expected a Completion reply, got {other:?}"),
    }

    // The stream must still be frame-aligned: a whole request on the same
    // connection gets a whole reply.
    stream
        .write_all(&frame_bytes(kind::REQUEST, 42, &request))
        .unwrap();
    let (k, corr, _) = replies
        .read_frame_corr(&mut stream, MAX_FRAME)
        .expect("second reply");
    assert_eq!((k, corr), (kind::REPLY, 42));
    assert_eq!(server.stats().corrupt_frames, 0);
    server.shutdown();
}

/// Poll `cond` for up to two seconds.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn closed_connections_are_deregistered() {
    let server = serve_stub(Duration::from_millis(10));
    let clients: Vec<WireClient> = (0..3)
        .map(|_| {
            WireClient::connect(server.local_addr(), WireClientConfig::default())
                .expect("handshake")
        })
        .collect();
    assert!(
        eventually(|| server.live_connections() == 3),
        "3 live peers must be registered, saw {}",
        server.live_connections()
    );
    // Reconnect churn: every client goes away. The workers notice the
    // closed sockets on their next poll tick and must deregister their
    // connection clones — this is what keeps a long-running replica from
    // leaking one descriptor per churned client.
    drop(clients);
    assert!(
        eventually(|| server.live_connections() == 0),
        "closed connections must deregister, {} still held",
        server.live_connections()
    );
    // The replica still serves new peers afterwards.
    let late = WireClient::connect(server.local_addr(), WireClientConfig::default())
        .expect("post-churn handshake");
    assert!(late.complete_top("t", "a", 1).is_ok());
    assert_eq!(server.stats().accepted, 4);
    server.shutdown();
}

#[test]
fn post_write_failures_surface_typed_instead_of_replaying() {
    let service = Arc::new(StubService::default());
    let server = serve(service.clone(), Duration::from_millis(10));
    let client =
        WireClient::connect(server.local_addr(), WireClientConfig::default()).expect("handshake");

    // The request reaches the replica and is executing there when the
    // connection dies under it. The write had succeeded, so the request
    // is no longer provably undelivered — replaying it on a fresh
    // connection would run it twice, so the failure must surface typed
    // for the router to decide.
    let held = service.gate.lock().unwrap();
    std::thread::scope(|scope| {
        let call = scope.spawn(|| client.complete_top("t", "hold", 1));
        assert!(eventually(|| service.calls.load(Ordering::SeqCst) == 1));
        server.kill_connections();
        match call.join().unwrap() {
            Err(ServerError::Unreachable { .. }) => {}
            other => panic!("expected a typed transport failure, got {other:?}"),
        }
    });
    let stats = client.transport_stats();
    assert_eq!(stats.connects, 1, "a post-write failure must not redial");
    assert_eq!(stats.io_errors, 1);
    drop(held);

    // The failure was typed, not sticky: the next call redials (the dead
    // connection was discarded) and succeeds — and the replica saw the
    // held request exactly once.
    assert!(client.complete_top("t", "b", 1).is_ok());
    assert_eq!(client.transport_stats().connects, 2);
    assert_eq!(client.transport_stats().reconnects, 1);
    assert_eq!(service.calls.load(Ordering::SeqCst), 2, "held once, b once");
    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_timeouts_keep_the_connection() {
    let server = serve_stub(Duration::from_millis(10));
    let proxy = FaultProxy::start(server.local_addr()).expect("start proxy");
    let client = WireClient::connect(
        proxy.addr(),
        WireClientConfig {
            call_timeout: Duration::from_millis(300),
        },
    )
    .expect("handshake through proxy");
    assert_eq!(
        client.protocol_version(),
        WIRE_VERSION,
        "loopback peers negotiate the one version"
    );

    // Half-open partition: the request executes, the reply vanishes, the
    // per-call deadline fires after a successful write. The failure surfaces typed — but on a pipelined connection
    // one call's deadline must NOT shoot the socket every other in-flight
    // call shares; the timed-out id is tombstoned instead.
    proxy.plan().set_partition_to_client(true);
    match client.complete_top("t", "a", 1) {
        Err(ServerError::Unreachable { reason }) => assert_eq!(reason, "timeout"),
        other => panic!("expected Unreachable(timeout), got {other:?}"),
    }
    assert_eq!(client.transport_stats().io_errors, 1);

    // Heal the link: the same connection serves the next call — no redial,
    // no reconnect, and the orphaned reply never desyncs the stream.
    proxy.plan().set_partition_to_client(false);
    assert!(client.complete_top("t", "b", 1).is_ok());
    let stats = client.transport_stats();
    assert_eq!(stats.connects, 1, "a pipelined timeout must not redial");
    assert_eq!(stats.reconnects, 0);
    assert_eq!(stats.corrupt_frames, 0);
    proxy.shutdown();
    server.shutdown();
}

/// Two callers sharing one connection, one of which stops calling: its
/// last reply goes unacknowledged (nothing of its own is left to carry the
/// ACK), so with Nagle on the replica's side of the socket the *other*
/// caller's next reply waits out the client's ~40 ms delayed ACK. Once per
/// departure — a p90 never sees it, each round's worst call does.
#[test]
fn a_departing_caller_never_stalls_the_one_sharing_its_connection() {
    const ROUNDS: usize = 9;
    let server = serve_stub(Duration::from_millis(10));
    let client =
        WireClient::connect(server.local_addr(), WireClientConfig::default()).expect("handshake");
    let mut worst_per_round: Vec<Duration> = (0..ROUNDS)
        .map(|_| {
            std::thread::scope(|scope| {
                let callers: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            (0..25)
                                .map(|_| {
                                    let started = Instant::now();
                                    client.complete_top("t", "a", 1).expect("echo");
                                    started.elapsed()
                                })
                                .max()
                        })
                    })
                    .collect();
                callers
                    .into_iter()
                    .filter_map(|c| c.join().unwrap())
                    .max()
                    .expect("every round made calls")
            })
        })
        .collect();
    // The median round: a scheduler hiccup may slow one, the stall slows all.
    worst_per_round.sort_unstable();
    let typical_worst = worst_per_round[ROUNDS / 2];
    assert!(
        typical_worst < Duration::from_millis(20),
        "worst echo RTT of the median round is {typical_worst:?}: the 40 ms delayed-ACK stall"
    );
    assert_eq!(client.transport_stats().connects, 1);
    drop(client);
    server.shutdown();
}

//! Pipelined-connection properties: the correlation-id frame header, the
//! handshake's refusal of a peer below the protocol floor, and the client's
//! demux totality — out-of-order and orphaned replies must settle every
//! caller (right reply, or a typed error), never hang one.
//!
//! The demux tests drive a real `WireClient` against a hand-rolled raw
//! server so the test controls reply order and correlation ids exactly —
//! a real `WireServer` is free to reply in any order, which is the point
//! of pipelining but useless for pinning the demux edge cases.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::{Gen, CASES};
use sapphire_core::qcm::{Completion, CompletionResult};
use sapphire_core::MatchSource;
use sapphire_server::{RunPayload, ServerError, ShardService};
use sapphire_sparql::{Query, QueryResult, SelectQuery, Solutions};
use sapphire_wire::codec::{
    decode_hello, decode_request, encode_hello, encode_hello_ok, encode_reply, LoadHeader,
    WireReply, WireRequest,
};
use sapphire_wire::frame::{self, kind, FrameReader, MAX_FRAME, WIRE_VERSION};
use sapphire_wire::{WireClient, WireClientConfig, WireServer, WireServerConfig};

// ---------------------------------------------------------- frame header --

#[test]
fn correlation_ids_round_trip_through_the_v2_header() {
    let mut g = Gen::new("wire::v2::corr_round_trip");
    for case in 0..CASES {
        g.start_case(case);
        let corr = g.bits();
        let payload: Vec<u8> = (0..g.below(64)).map(|_| g.below(256) as u8).collect();
        let mut buf = Vec::new();
        frame::write_frame_corr(&mut buf, kind::REPLY, corr, &payload).unwrap();
        let mut reader = FrameReader::new();
        let (k, got_corr, got_payload) = reader
            .read_frame_corr(&mut &buf[..], MAX_FRAME)
            .expect("v2 frame decodes");
        assert_eq!(k, kind::REPLY, "case {case}");
        assert_eq!(got_corr, corr, "case {case}");
        assert_eq!(got_payload, payload, "case {case}");
    }
}

#[test]
fn truncated_v2_frames_fail_typed_at_every_cut() {
    let mut buf = Vec::new();
    frame::write_frame_corr(&mut buf, kind::REQUEST, 0xAB54_A98C_EB1F_0AD2, &[9u8; 16]).unwrap();
    for cut in 0..buf.len() {
        let mut reader = FrameReader::new();
        let err = reader
            .read_frame_corr(&mut &buf[..cut], MAX_FRAME)
            .expect_err("truncated v2 frame decoded");
        match err {
            frame::WireError::Closed => assert_eq!(cut, 0),
            frame::WireError::ShortRead => assert!(cut > 0),
            other => panic!("cut {cut}: unexpected {other:?}"),
        }
    }
}

// ------------------------------------------------------------ negotiation --

/// A trivial shard for handshake runs over real sockets.
struct EchoService;

impl ShardService for EchoService {
    fn shard_name(&self) -> String {
        "echo".to_string()
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
        Ok(echo_completion(typed))
    }
    fn run_select_tiered(
        &self,
        _tenant: &str,
        _query: &SelectQuery,
        _tier: usize,
        _budget: Option<Duration>,
    ) -> Result<Arc<RunPayload>, ServerError> {
        Err(ServerError::Backend("echo has no model".to_string()))
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

fn echo_completion(typed: &str) -> CompletionResult {
    CompletionResult {
        suggestions: vec![Completion {
            text: typed.to_string(),
            predicate_iri: None,
            source: MatchSource::SuffixTree,
        }],
        tree_hit: true,
        tree_time: Duration::ZERO,
        bins_time: Duration::ZERO,
        residual_candidates: 0,
    }
}

fn expect_echo(client: &WireClient, term: &str) {
    match client.complete_top("t", term, 1) {
        Ok(c) => assert_eq!(c.suggestions[0].text, term),
        Err(e) => panic!("echo call failed: {e:?}"),
    }
}

/// The HELLO version integer has a floor: a peer offering less would
/// misparse every frame, so it gets no HELLO_OK — just a counted
/// disconnect — and the listener keeps serving everyone else.
#[test]
fn hello_below_the_version_floor_is_refused_and_counted() {
    let server = WireServer::serve(
        Arc::new(EchoService),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .expect("bind");
    let mut old_peer = TcpStream::connect(server.local_addr()).expect("dial");
    old_peer
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Version 3 peers encode a graph pattern without its VALUES block.
    assert_eq!(WIRE_VERSION - 1, 3);
    frame::write_frame(&mut old_peer, kind::HELLO, &encode_hello(3)).unwrap();
    match frame::read_frame(&mut old_peer, MAX_FRAME) {
        Err(frame::WireError::Closed | frame::WireError::Io(..)) => {}
        other => panic!("expected a disconnect and no HELLO_OK, got {other:?}"),
    }
    assert_eq!(server.stats().corrupt_frames, 1, "the refusal is counted");

    let client =
        WireClient::connect(server.local_addr(), WireClientConfig::default()).expect("handshake");
    assert_eq!(client.protocol_version(), WIRE_VERSION);
    expect_echo(&client, "alpha");
    assert_eq!(server.stats().corrupt_frames, 1);
    drop(client);
    server.shutdown();
}

// ------------------------------------------------------------------ demux --

/// Accept one connection, serve `requests` Complete calls with the
/// given reply schedule, then drain the socket until the client hangs up.
fn raw_v2_server(
    listener: TcpListener,
    requests: usize,
    schedule: impl FnOnce(Vec<(u64, String)>) -> Vec<(u64, String)> + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let mut reader = FrameReader::new();
        let (k, _, hello) = reader
            .read_frame_corr(&mut s, MAX_FRAME)
            .expect("hello frame");
        assert_eq!(k, kind::HELLO);
        assert_eq!(decode_hello(&hello).expect("hello decodes"), WIRE_VERSION);
        frame::write_frame(
            &mut s,
            kind::HELLO_OK,
            &encode_hello_ok("raw", 3, MAX_FRAME, WIRE_VERSION),
        )
        .expect("hello_ok");
        let mut pending = Vec::new();
        while pending.len() < requests {
            let (k, corr, payload) = reader
                .read_frame_corr(&mut s, MAX_FRAME)
                .expect("request frame");
            assert_eq!(k, kind::REQUEST);
            let term = match decode_request(&payload).expect("request decodes") {
                WireRequest::Complete { term, .. } => term,
                other => panic!("expected Complete, got {other:?}"),
            };
            pending.push((corr, term));
        }
        for (corr, term) in schedule(pending) {
            let load = LoadHeader {
                in_flight: 0,
                queued: 0,
                pressure: 0,
            };
            let reply = encode_reply(load, &Ok(WireReply::Completion(echo_completion(&term))));
            frame::write_frame_corr(&mut s, kind::REPLY, corr, &reply).expect("reply");
        }
        // Hold the socket open until the client is done with it, so the
        // teardown never races the assertions.
        let mut sink = [0u8; 64];
        while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
    })
}

#[test]
fn out_of_order_replies_reach_the_right_callers() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = raw_v2_server(listener, 2, |mut pending| {
        // Reply strictly in reverse arrival order: the demux must route by
        // correlation id, not arrival order.
        pending.reverse();
        pending
    });
    let client = Arc::new(WireClient::connect(addr, WireClientConfig::default()).expect("dial"));
    let callers: Vec<_> = ["alpha", "omega"]
        .into_iter()
        .map(|term| {
            let client = client.clone();
            std::thread::spawn(move || {
                expect_echo(&client, term);
            })
        })
        .collect();
    for c in callers {
        c.join().expect("caller settles with its own reply");
    }
    assert_eq!(client.transport_stats().corrupt_frames, 0);
    drop(client);
    server.join().unwrap();
}

#[test]
fn orphaned_correlation_ids_fail_typed_and_never_hang() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = raw_v2_server(listener, 1, |pending| {
        // Answer an id the client never issued. The waiting caller must
        // settle with a typed transport error — not its reply, and not a
        // hang until the 30s call deadline.
        pending
            .into_iter()
            .map(|(corr, term)| (corr + 7919, term))
            .collect()
    });
    let client = WireClient::connect(
        addr,
        WireClientConfig {
            call_timeout: Duration::from_secs(30),
        },
    )
    .expect("dial");
    let started = Instant::now();
    match client.complete_top("t", "alpha", 1) {
        Err(ServerError::Unreachable { .. }) => {}
        other => panic!("expected a typed transport failure, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "an orphaned reply must fail the call immediately, not wait out the deadline"
    );
    assert!(
        client.transport_stats().corrupt_frames >= 1,
        "the protocol violation is counted"
    );
    drop(client);
    server.join().unwrap();
}

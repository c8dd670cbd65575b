//! Property tests for the hand-rolled wire codec.
//!
//! Two families:
//!
//! * **Round trip** — randomized instances covering every variant of
//!   [`WireRequest`] and [`WireReply`] (and every [`ServerError`] arm)
//!   survive encode → decode intact. Requests compare structurally;
//!   replies, whose payload types don't implement `PartialEq`, compare by
//!   re-encoding the decoded value and demanding byte identity (the codec
//!   is deterministic, so equal bytes ⇔ equal values).
//! * **Totality** — the decoder never panics, hangs, or over-allocates on
//!   hostile input: every strict prefix of a valid payload is rejected,
//!   random bit flips decode or fail but never crash, and the frame layer
//!   rejects corrupt lengths and oversized announcements before allocating.
//!
//! The generators use the proptest shim's deterministic [`Gen`] directly
//! (the shim's strategy DSL doesn't reach recursive ASTs), re-seeded per
//! case so failures reproduce.

use std::sync::Arc;
use std::time::Duration;

use proptest::{Gen, CASES};
use sapphire_core::qcm::{Completion, CompletionResult};
use sapphire_core::qsm::{
    AlteredPosition, QsmOutput, RelaxedQuery, StructureSuggestion, TermAlternative,
};
use sapphire_core::session::SessionError;
use sapphire_core::MatchSource;
use sapphire_rdf::{Literal, Term};
use sapphire_server::registry::SessionId;
use sapphire_server::{RunPayload, ServerError};
use sapphire_sparql::{
    Aggregate, CmpOp, Expr, GraphPattern, InlineData, OrderKey, Projection, Query, QueryResult,
    SelectItem, SelectQuery, Solutions, TermPattern, TriplePattern,
};
use sapphire_wire::codec::{
    decode_reply, decode_request, encode_reply, encode_request, LoadHeader, WireReply, WireRequest,
};
use sapphire_wire::frame::{self, WireError, MAX_FRAME};

// ------------------------------------------------------------- generators --

/// A short string mixing ASCII and multi-byte UTF-8 (exercises the decoder's
/// UTF-8 validation with correct byte lengths).
fn gen_str(g: &mut Gen) -> String {
    const ALPHABET: &[char] = &[
        'a', 'b', 'z', 'Q', '0', '9', ' ', '?', ':', '/', '-', '_', '"', '\\', 'é', 'ß', '中', '🦀',
    ];
    let len = g.below(9) as usize;
    (0..len)
        .map(|_| ALPHABET[g.below(ALPHABET.len() as u64) as usize])
        .collect()
}

fn gen_opt_str(g: &mut Gen) -> Option<String> {
    if g.below(2) == 0 {
        None
    } else {
        Some(gen_str(g))
    }
}

fn gen_duration(g: &mut Gen) -> Duration {
    Duration::new(g.below(1 << 40), g.below(1_000_000_000) as u32)
}

fn gen_term(g: &mut Gen) -> Term {
    match g.below(3) {
        0 => Term::Iri(gen_str(g)),
        1 => Term::Literal(Literal {
            value: gen_str(g),
            lang: gen_opt_str(g),
            datatype: gen_opt_str(g),
        }),
        _ => Term::Blank(gen_str(g)),
    }
}

fn gen_term_pattern(g: &mut Gen) -> TermPattern {
    if g.below(2) == 0 {
        TermPattern::Var(gen_str(g))
    } else {
        TermPattern::Term(gen_term(g))
    }
}

fn gen_triple_pattern(g: &mut Gen) -> TriplePattern {
    TriplePattern {
        subject: gen_term_pattern(g),
        predicate: gen_term_pattern(g),
        object: gen_term_pattern(g),
    }
}

fn gen_cmp_op(g: &mut Gen) -> CmpOp {
    [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][g.below(6) as usize]
}

/// Depth-bounded so recursion terminates; at depth 0 only leaves appear.
fn gen_expr(g: &mut Gen, depth: usize) -> Expr {
    let max = if depth == 0 { 3 } else { 18 };
    match g.below(max) {
        0 => Expr::Var(gen_str(g)),
        1 => Expr::Const(gen_term(g)),
        2 => Expr::Bound(gen_str(g)),
        3 => Expr::And(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        4 => Expr::Or(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        5 => Expr::Not(Box::new(gen_expr(g, depth - 1))),
        6 => Expr::Cmp(
            gen_cmp_op(g),
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        7 => Expr::IsLiteral(Box::new(gen_expr(g, depth - 1))),
        8 => Expr::IsIri(Box::new(gen_expr(g, depth - 1))),
        9 => Expr::Lang(Box::new(gen_expr(g, depth - 1))),
        10 => Expr::Str(Box::new(gen_expr(g, depth - 1))),
        11 => Expr::StrLen(Box::new(gen_expr(g, depth - 1))),
        12 => Expr::Contains(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        13 => Expr::StrStarts(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        14 => Expr::Regex(
            Box::new(gen_expr(g, depth - 1)),
            gen_str(g),
            g.below(2) == 1,
        ),
        15 => Expr::LCase(Box::new(gen_expr(g, depth - 1))),
        16 => Expr::UCase(Box::new(gen_expr(g, depth - 1))),
        _ => Expr::Year(Box::new(gen_expr(g, depth - 1))),
    }
}

fn gen_aggregate(g: &mut Gen) -> Aggregate {
    match g.below(5) {
        0 => Aggregate::Count {
            distinct: g.below(2) == 1,
            var: gen_opt_str(g),
        },
        1 => Aggregate::Sum(gen_str(g)),
        2 => Aggregate::Min(gen_str(g)),
        3 => Aggregate::Max(gen_str(g)),
        _ => Aggregate::Avg(gen_str(g)),
    }
}

fn gen_projection(g: &mut Gen) -> Projection {
    if g.below(3) == 0 {
        Projection::Star
    } else {
        let n = g.below(4) as usize;
        Projection::Items(
            (0..n)
                .map(|_| {
                    if g.below(2) == 0 {
                        SelectItem::Var(gen_str(g))
                    } else {
                        SelectItem::Agg {
                            agg: gen_aggregate(g),
                            alias: gen_str(g),
                        }
                    }
                })
                .collect(),
        )
    }
}

fn gen_graph_pattern(g: &mut Gen) -> GraphPattern {
    GraphPattern {
        triples: (0..g.below(4)).map(|_| gen_triple_pattern(g)).collect(),
        filters: (0..g.below(3)).map(|_| gen_expr(g, 2)).collect(),
        values: (g.below(3) == 0).then(|| InlineData {
            var: gen_str(g),
            terms: (0..g.below(5)).map(|_| gen_term(g)).collect(),
        }),
    }
}

fn gen_opt_usize(g: &mut Gen) -> Option<usize> {
    if g.below(2) == 0 {
        None
    } else {
        Some(g.below(1 << 33) as usize)
    }
}

fn gen_select_query(g: &mut Gen) -> SelectQuery {
    SelectQuery {
        distinct: g.below(2) == 1,
        projection: gen_projection(g),
        pattern: gen_graph_pattern(g),
        group_by: (0..g.below(3)).map(|_| gen_str(g)).collect(),
        order_by: (0..g.below(3))
            .map(|_| OrderKey {
                expr: gen_expr(g, 1),
                descending: g.below(2) == 1,
            })
            .collect(),
        limit: gen_opt_usize(g),
        offset: gen_opt_usize(g),
    }
}

fn gen_query(g: &mut Gen) -> Query {
    if g.below(2) == 0 {
        Query::Select(gen_select_query(g))
    } else {
        Query::Ask(gen_graph_pattern(g))
    }
}

fn gen_solutions(g: &mut Gen) -> Solutions {
    let nv = g.below(4) as usize;
    Solutions {
        vars: (0..nv).map(|_| gen_str(g)).collect(),
        rows: (0..g.below(4))
            .map(|_| {
                (0..nv)
                    .map(|_| {
                        if g.below(3) == 0 {
                            None
                        } else {
                            Some(gen_term(g))
                        }
                    })
                    .collect()
            })
            .collect(),
    }
}

fn gen_query_result(g: &mut Gen) -> QueryResult {
    if g.below(2) == 0 {
        QueryResult::Solutions(gen_solutions(g))
    } else {
        QueryResult::Boolean(g.below(2) == 1)
    }
}

fn gen_completion_result(g: &mut Gen) -> CompletionResult {
    CompletionResult {
        suggestions: (0..g.below(4))
            .map(|_| Completion {
                text: gen_str(g),
                predicate_iri: gen_opt_str(g),
                source: if g.below(2) == 0 {
                    MatchSource::SuffixTree
                } else {
                    MatchSource::ResidualBins
                },
            })
            .collect(),
        tree_hit: g.below(2) == 1,
        tree_time: gen_duration(g),
        bins_time: gen_duration(g),
        residual_candidates: g.below(1 << 20) as usize,
    }
}

fn gen_term_alternative(g: &mut Gen) -> TermAlternative {
    TermAlternative {
        triple_index: g.below(64) as usize,
        position: if g.below(2) == 0 {
            AlteredPosition::Predicate
        } else {
            AlteredPosition::Object
        },
        original: gen_str(g),
        replacement: gen_str(g),
        // Raw bit patterns: NaN, infinities, and subnormals must all
        // survive the f64-as-bits encoding byte-exactly.
        similarity: f64::from_bits(g.bits()),
        term: gen_term(g),
        answers: gen_solutions(g),
    }
}

fn gen_qsm_output(g: &mut Gen) -> QsmOutput {
    let tier = g.below(3) as usize;
    QsmOutput {
        alternatives: (0..g.below(3)).map(|_| gen_term_alternative(g)).collect(),
        relaxations: (0..g.below(2))
            .map(|_| StructureSuggestion {
                relaxed: RelaxedQuery {
                    query: gen_select_query(g),
                    tree: (0..g.below(3))
                        .map(|_| (gen_term(g), gen_term(g), gen_term(g)))
                        .collect(),
                    terminals: (0..g.below(3)).map(|_| gen_term(g)).collect(),
                    queries_used: g.below(1 << 10) as usize,
                    complete: g.below(2) == 1,
                },
                answers: gen_solutions(g),
            })
            .collect(),
        candidates: Arc::new((0..g.below(3)).map(|_| gen_term_alternative(g)).collect()),
        elapsed: gen_duration(g),
        tier,
        degraded: tier > 0,
    }
}

fn gen_run_payload(g: &mut Gen) -> RunPayload {
    RunPayload {
        answers: gen_solutions(g),
        executed: g.below(2) == 1,
        suggestions: Arc::new(gen_qsm_output(g)),
    }
}

fn gen_server_error(g: &mut Gen) -> ServerError {
    match g.below(11) {
        0 => ServerError::Overloaded {
            in_flight: g.below(1 << 16) as usize,
            queue_depth: g.below(1 << 16) as usize,
        },
        1 => ServerError::QueueTimeout {
            waited_ms: g.bits(),
        },
        2 => ServerError::Timeout {
            work_used: g.bits(),
        },
        3 => ServerError::QuotaExhausted {
            tenant: gen_str(g),
            used: g.bits(),
            budget: g.bits(),
        },
        4 => ServerError::UnknownSession(SessionId(g.bits())),
        5 => ServerError::SessionLimit {
            open: g.below(1 << 20) as usize,
            limit: g.below(1 << 20) as usize,
        },
        6 => ServerError::UnknownSuggestion {
            index: g.below(1 << 20) as usize,
            available: g.below(1 << 20) as usize,
        },
        7 => ServerError::ShuttingDown,
        8 => ServerError::Session(match g.below(3) {
            0 => SessionError::InvalidSubject(gen_str(g)),
            1 => SessionError::UnknownPredicate(gen_str(g)),
            _ => SessionError::EmptyQuery,
        }),
        9 => ServerError::Unreachable { reason: gen_str(g) },
        _ => ServerError::Backend(gen_str(g)),
    }
}

fn gen_request(g: &mut Gen) -> WireRequest {
    match g.below(3) {
        0 => WireRequest::Complete {
            tenant: gen_str(g),
            term: gen_str(g),
            fetch: g.below(1 << 16) as usize,
        },
        1 => WireRequest::Run {
            tenant: gen_str(g),
            query: gen_select_query(g),
            tier: g.below(3) as usize,
            budget: if g.below(2) == 0 {
                None
            } else {
                Some(gen_duration(g))
            },
        },
        _ => WireRequest::Raw {
            tenant: gen_str(g),
            query: gen_query(g),
        },
    }
}

fn gen_load_header(g: &mut Gen) -> LoadHeader {
    LoadHeader {
        in_flight: g.below(1 << 20) as u32,
        queued: g.below(1 << 20) as u32,
        pressure: g.below(3) as u8,
    }
}

fn gen_reply_result(g: &mut Gen) -> Result<WireReply, ServerError> {
    match g.below(4) {
        0 => Ok(WireReply::Completion(gen_completion_result(g))),
        1 => Ok(WireReply::Run(gen_run_payload(g))),
        2 => Ok(WireReply::Raw(gen_query_result(g))),
        _ => Err(gen_server_error(g)),
    }
}

// ------------------------------------------------------------- round trip --

#[test]
fn every_request_variant_round_trips() {
    let mut g = Gen::new("wire::codec::request_round_trip");
    for case in 0..CASES {
        g.start_case(case);
        let req = gen_request(&mut g);
        let bytes = encode_request(&req);
        let back = decode_request(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}\n{req:?}"));
        assert_eq!(back, req, "case {case}");
        // Encoding is deterministic: re-encoding the decoded value is a
        // byte-identical frame payload.
        assert_eq!(encode_request(&back), bytes, "case {case}");
    }
}

#[test]
fn every_reply_variant_round_trips_byte_exact() {
    let mut g = Gen::new("wire::codec::reply_round_trip");
    for case in 0..CASES {
        g.start_case(case);
        let load = gen_load_header(&mut g);
        let result = gen_reply_result(&mut g);
        let bytes = encode_reply(load, &result);
        let (load_back, result_back) =
            decode_reply(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}\n{result:?}"));
        assert_eq!(load_back, load, "case {case}");
        // Reply payload types carry no PartialEq; the codec is
        // deterministic, so byte identity of the re-encoding IS value
        // equality — and it's exactly the property the cluster determinism
        // gate needs (same reply ⇒ same bytes at the edge).
        assert_eq!(encode_reply(load_back, &result_back), bytes, "case {case}");
        if let (Err(e_back), Err(e)) = (&result_back, &result) {
            assert_eq!(e_back, e, "case {case}: error arm is structural");
        }
    }
}

// --------------------------------------------------------------- totality --

#[test]
fn every_strict_prefix_of_a_request_is_rejected_without_panic() {
    let mut g = Gen::new("wire::codec::request_prefixes");
    for case in 0..CASES {
        g.start_case(case);
        let bytes = encode_request(&gen_request(&mut g));
        for cut in 0..bytes.len() {
            // Left-to-right deterministic parse: a strict prefix always
            // runs out of bytes (or trips a presence/length check) before
            // `done()` could pass. Must be an error, never a panic.
            assert!(
                decode_request(&bytes[..cut]).is_err(),
                "case {case}: prefix of {cut}/{} decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_strict_prefix_of_a_reply_is_rejected_without_panic() {
    let mut g = Gen::new("wire::codec::reply_prefixes");
    for case in 0..CASES {
        g.start_case(case);
        let load = gen_load_header(&mut g);
        let bytes = encode_reply(load, &gen_reply_result(&mut g));
        for cut in 0..bytes.len() {
            assert!(
                decode_reply(&bytes[..cut]).is_err(),
                "case {case}: prefix of {cut}/{} decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn bit_flips_never_panic_or_over_allocate() {
    let mut g = Gen::new("wire::codec::bit_flips");
    for case in 0..CASES {
        g.start_case(case);
        let mut req_bytes = encode_request(&gen_request(&mut g));
        let mut rep_bytes = encode_reply(gen_load_header(&mut g), &gen_reply_result(&mut g));
        for bytes in [&mut req_bytes, &mut rep_bytes] {
            if bytes.is_empty() {
                continue;
            }
            for _ in 0..16 {
                let pos = g.below(bytes.len() as u64) as usize;
                let bit = 1u8 << g.below(8);
                bytes[pos] ^= bit;
                // Either parse is acceptable (a flip inside string content
                // yields a different valid message); crashing is not. The
                // reader's `len()` bound also keeps a corrupt count from
                // sizing a huge allocation, so this loop stays cheap.
                let _ = decode_request(bytes);
                let _ = decode_reply(bytes);
                bytes[pos] ^= bit; // restore for the next flip
            }
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut g = Gen::new("wire::codec::trailing");
    for case in 0..CASES {
        g.start_case(case);
        let mut bytes = encode_request(&gen_request(&mut g));
        bytes.push(0);
        assert!(decode_request(&bytes).is_err(), "case {case}");
    }
}

// ------------------------------------------------------------ frame layer --

#[test]
fn truncated_frames_at_every_cut_fail_typed_without_hanging() {
    let mut frame_bytes = Vec::new();
    frame::write_frame(&mut frame_bytes, frame::kind::REQUEST, &[7u8; 32]).unwrap();
    for cut in 0..frame_bytes.len() {
        let err = frame::read_frame(&mut &frame_bytes[..cut], MAX_FRAME)
            .expect_err("truncated frame decoded");
        match err {
            // Cut before any byte: a clean close. Cut mid-header or
            // mid-payload: a short read. Both typed, neither a hang (the
            // reader consumes a finite slice, never waits).
            WireError::Closed => assert_eq!(cut, 0),
            WireError::ShortRead => assert!(cut > 0),
            other => panic!("cut {cut}: unexpected {other:?}"),
        }
    }
}

#[test]
fn corrupt_length_cannot_allocate_past_the_cap() {
    // A hostile length just under u32::MAX must be rejected by the cap
    // check before the payload buffer is sized.
    for hostile in [MAX_FRAME + 1, u32::MAX / 2, u32::MAX] {
        let mut buf = vec![frame::MAGIC, frame::kind::REPLY];
        buf.extend_from_slice(&hostile.to_le_bytes());
        match frame::read_frame(&mut &buf[..], MAX_FRAME) {
            Err(WireError::TooLarge { len, max }) => {
                assert_eq!(len, hostile);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("hostile len {hostile}: {other:?}"),
        }
    }
    // At exactly the cap the length is legal; the failure is the missing
    // payload, not the size.
    let mut buf = vec![frame::MAGIC, frame::kind::REPLY];
    buf.extend_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        frame::read_frame(&mut &buf[..], MAX_FRAME),
        Err(WireError::ShortRead)
    );
}

/// `base` wrapped in `depth` layers of `Not`, built iteratively.
fn nested_not(depth: usize, base: Expr) -> Expr {
    let mut e = base;
    for _ in 0..depth {
        e = Expr::Not(Box::new(e));
    }
    e
}

fn request_with_filter(filter: Expr) -> WireRequest {
    WireRequest::Run {
        tenant: "t".to_string(),
        query: SelectQuery {
            distinct: false,
            projection: Projection::Star,
            pattern: GraphPattern {
                triples: Vec::new(),
                filters: vec![filter],
                values: None,
            },
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        },
        tier: 0,
        budget: None,
    }
}

#[test]
fn plausibly_deep_expressions_round_trip() {
    let req = request_with_filter(nested_not(100, Expr::Var("x".to_string())));
    let bytes = encode_request(&req);
    assert_eq!(decode_request(&bytes).expect("depth 100 decodes"), req);
}

#[test]
fn absurdly_deep_expressions_are_corrupt_not_a_stack_overflow() {
    // One byte of payload per level: a few KB of 0x04 `Not` tags — far
    // under the frame cap — must come back as a typed `Corrupt`, not
    // recurse the decoder off the worker's stack and abort the process.
    // 4096 levels is ~32x past the decoder's depth bound and shallow
    // enough that the (recursive) encoder used to build the fixture is
    // itself safe.
    let req = request_with_filter(nested_not(4096, Expr::Var("x".to_string())));
    let bytes = encode_request(&req);
    match decode_request(&bytes) {
        Err(WireError::Corrupt(msg)) => assert!(
            msg.contains("deep"),
            "expected the depth bound to trip, got: {msg}"
        ),
        other => panic!("deep nesting must be Corrupt, got {other:?}"),
    }
}

#[test]
fn hostile_wide_element_counts_fail_fast_without_huge_preallocation() {
    // A reply claiming millions of `TermAlternative`s (hundreds of bytes
    // each once decoded) backed by one byte per claimed element: the count
    // passes the remaining-bytes bound, so the decoder's preallocation cap
    // is what stands between this frame and a multi-GB capacity request.
    // The first element must fail typed, fast, without a panic.
    let claimed: u32 = 3_000_000;
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u32.to_le_bytes()); // load in_flight
    payload.extend_from_slice(&0u32.to_le_bytes()); // load queued
    payload.push(0); // load pressure
    payload.push(1); // ok
    payload.push(1); // Run body
    payload.extend_from_slice(&0u32.to_le_bytes()); // solutions: 0 vars
    payload.extend_from_slice(&0u32.to_le_bytes()); // solutions: 0 rows
    payload.push(0); // executed = false
    payload.extend_from_slice(&claimed.to_le_bytes()); // alternatives count
    payload.resize(payload.len() + claimed as usize, 0xFF);
    assert!(matches!(decode_reply(&payload), Err(WireError::Corrupt(_))));
}

#[test]
fn desynchronized_streams_fail_on_magic_not_length() {
    let mut g = Gen::new("wire::frame::desync");
    for case in 0..CASES {
        g.start_case(case);
        let first = g.below(256) as u8;
        if first == frame::MAGIC {
            continue;
        }
        let mut buf = vec![first];
        buf.extend((0..16).map(|_| g.below(256) as u8));
        assert!(
            matches!(
                frame::read_frame(&mut &buf[..], MAX_FRAME),
                Err(WireError::Corrupt(_))
            ),
            "case {case}: byte 0x{first:02X} accepted as magic"
        );
    }
}

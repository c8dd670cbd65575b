//! Byte pins for the wire codec: a fixed, hand-built corpus of requests,
//! replies and handshake payloads, each held to the length and FNV-1a 64
//! hash of its encoding.
//!
//! The round-trip properties in `codec_props.rs` hold encode∘decode to the
//! identity, which a consistent change of format would also pass. These
//! pins hold the format itself: any moved byte fails here, and a layout
//! change that is meant (a new field, a `WIRE_VERSION` bump) re-records
//! them on purpose.
//!
//! The corpus reaches every `Expr`, `Aggregate`, `ServerError` and
//! `SessionError` arm, both `Query` kinds, all three request and reply
//! kinds, `Ok` and `Err` replies, `None` and `Some` of every optional field
//! and an empty and a non-empty value of every sequence, plus a non-ASCII
//! string, `-0.0`, `1e300` and a `Duration` with nanoseconds.

use std::sync::Arc;
use std::time::Duration;

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
    decode_hello, decode_hello_ok, decode_reply, decode_request, encode_hello, encode_hello_ok,
    encode_reply, encode_request, LoadHeader, WireReply, WireRequest,
};
use sapphire_wire::WireError;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ----------------------------------------------------------------- corpus --

fn iri(s: &str) -> Term {
    Term::Iri(s.to_string())
}

fn lit(value: &str, lang: Option<&str>, datatype: Option<&str>) -> Term {
    Term::Literal(Literal {
        value: value.to_string(),
        lang: lang.map(str::to_string),
        datatype: datatype.map(str::to_string),
    })
}

fn var(v: &str) -> TermPattern {
    TermPattern::Var(v.to_string())
}

fn x() -> Box<Expr> {
    Box::new(Expr::Var("x".to_string()))
}

/// One of every `Expr` arm, in declaration order.
fn every_expr() -> Vec<Expr> {
    vec![
        Expr::Var("name".to_string()),
        Expr::Const(lit("Dresden", Some("de"), None)),
        Expr::And(x(), Box::new(Expr::Bound("y".to_string()))),
        Expr::Or(x(), x()),
        Expr::Not(x()),
        Expr::Cmp(CmpOp::Eq, x(), x()),
        Expr::IsLiteral(x()),
        Expr::IsIri(x()),
        Expr::Lang(x()),
        Expr::Str(x()),
        Expr::StrLen(x()),
        Expr::Contains(x(), Box::new(Expr::Const(lit("ß", None, None)))),
        Expr::StrStarts(x(), x()),
        Expr::Regex(x(), "^K.*y$".to_string(), true),
        Expr::LCase(x()),
        Expr::UCase(x()),
        Expr::Year(x()),
        Expr::Bound("x".to_string()),
    ]
}

fn every_cmp_op() -> Vec<Expr> {
    [CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
        .into_iter()
        .map(|op| Expr::Cmp(op, x(), x()))
        .collect()
}

fn empty_pattern() -> GraphPattern {
    GraphPattern {
        triples: Vec::new(),
        filters: Vec::new(),
        values: None,
    }
}

fn full_pattern() -> GraphPattern {
    GraphPattern {
        triples: vec![
            TriplePattern {
                subject: var("p"),
                predicate: TermPattern::Term(iri("http://dbpedia.org/ontology/birthPlace")),
                object: TermPattern::Term(lit("Zürich", None, None)),
            },
            TriplePattern {
                subject: TermPattern::Term(Term::Blank("b0".to_string())),
                predicate: var("q"),
                object: TermPattern::Term(lit(
                    "42",
                    None,
                    Some("http://www.w3.org/2001/XMLSchema#integer"),
                )),
            },
        ],
        filters: vec![Expr::Contains(
            Box::new(Expr::Str(Box::new(Expr::Var("p".to_string())))),
            Box::new(Expr::Const(lit("中", None, None))),
        )],
        values: Some(InlineData {
            var: "p".to_string(),
            terms: vec![iri("http://example.org/a"), lit("b", Some("en"), None)].into(),
        }),
    }
}

fn pattern_with_filter(filter: Expr) -> GraphPattern {
    GraphPattern {
        filters: vec![filter],
        ..empty_pattern()
    }
}

fn bare_select() -> SelectQuery {
    SelectQuery {
        distinct: false,
        projection: Projection::Star,
        pattern: empty_pattern(),
        group_by: Vec::new(),
        order_by: Vec::new(),
        limit: None,
        offset: None,
    }
}

fn full_select() -> SelectQuery {
    SelectQuery {
        distinct: true,
        projection: Projection::Items(vec![
            SelectItem::Var("p".to_string()),
            SelectItem::Agg {
                agg: Aggregate::Count {
                    distinct: true,
                    var: Some("q".to_string()),
                },
                alias: "n".to_string(),
            },
        ]),
        pattern: full_pattern(),
        group_by: vec!["p".to_string()],
        order_by: vec![
            OrderKey {
                expr: Expr::Var("n".to_string()),
                descending: true,
            },
            OrderKey {
                expr: Expr::Var("p".to_string()),
                descending: false,
            },
        ],
        limit: Some(10),
        offset: Some(1 << 33),
    }
}

/// One of every `Aggregate` arm, with `Count`'s variable both absent and
/// present.
fn every_aggregate() -> Vec<Aggregate> {
    vec![
        Aggregate::Count {
            distinct: false,
            var: None,
        },
        Aggregate::Count {
            distinct: true,
            var: Some("s".to_string()),
        },
        Aggregate::Sum("s".to_string()),
        Aggregate::Min("s".to_string()),
        Aggregate::Max("s".to_string()),
        Aggregate::Avg("s".to_string()),
    ]
}

fn raw(query: Query) -> WireRequest {
    WireRequest::Raw {
        tenant: "tenant-α".to_string(),
        query,
    }
}

fn requests() -> Vec<(String, WireRequest)> {
    let mut out = vec![
        (
            "complete".to_string(),
            WireRequest::Complete {
                tenant: "t".to_string(),
                term: "Kennedys".to_string(),
                fetch: 10,
            },
        ),
        (
            "complete_empty_strings".to_string(),
            WireRequest::Complete {
                tenant: String::new(),
                term: String::new(),
                fetch: 0,
            },
        ),
        (
            "run_bare_no_budget".to_string(),
            WireRequest::Run {
                tenant: "t".to_string(),
                query: bare_select(),
                tier: 0,
                budget: None,
            },
        ),
        (
            "run_full_with_budget".to_string(),
            WireRequest::Run {
                tenant: "t".to_string(),
                query: full_select(),
                tier: 2,
                budget: Some(Duration::new(3, 141_592_653)),
            },
        ),
        (
            "raw_select_bare".to_string(),
            raw(Query::Select(bare_select())),
        ),
        (
            "raw_select_full".to_string(),
            raw(Query::Select(full_select())),
        ),
        (
            "raw_ask_empty".to_string(),
            raw(Query::Ask(empty_pattern())),
        ),
        ("raw_ask_full".to_string(), raw(Query::Ask(full_pattern()))),
        (
            "raw_ask_empty_values".to_string(),
            raw(Query::Ask(GraphPattern {
                values: Some(InlineData {
                    var: "v".to_string(),
                    terms: Vec::new().into(),
                }),
                ..empty_pattern()
            })),
        ),
        (
            "raw_select_empty_items".to_string(),
            raw(Query::Select(SelectQuery {
                projection: Projection::Items(Vec::new()),
                ..bare_select()
            })),
        ),
    ];
    for (i, e) in every_expr().into_iter().enumerate() {
        out.push((format!("expr_{i}"), raw(Query::Ask(pattern_with_filter(e)))));
    }
    for (i, e) in every_cmp_op().into_iter().enumerate() {
        out.push((
            format!("cmp_op_{}", i + 1),
            raw(Query::Ask(pattern_with_filter(e))),
        ));
    }
    for (i, agg) in every_aggregate().into_iter().enumerate() {
        out.push((
            format!("aggregate_{i}"),
            raw(Query::Select(SelectQuery {
                projection: Projection::Items(vec![SelectItem::Agg {
                    agg,
                    alias: "a".to_string(),
                }]),
                ..bare_select()
            })),
        ));
    }
    out
}

fn solutions() -> Solutions {
    Solutions {
        vars: vec!["p".to_string(), "name".to_string()],
        rows: vec![
            vec![Some(iri("http://example.org/p")), None],
            vec![None, Some(lit("Jack Kerouac", Some("en"), None))],
        ],
    }
}

fn no_solutions() -> Solutions {
    Solutions {
        vars: Vec::new(),
        rows: Vec::new(),
    }
}

fn alternative(similarity: f64) -> TermAlternative {
    TermAlternative {
        triple_index: 1,
        position: AlteredPosition::Object,
        original: "Kennedys".to_string(),
        replacement: "Kennedy".to_string(),
        similarity,
        term: lit("Kennedy", Some("en"), None),
        answers: solutions(),
    }
}

fn full_qsm() -> QsmOutput {
    QsmOutput {
        alternatives: vec![
            alternative(-0.0),
            TermAlternative {
                triple_index: 0,
                position: AlteredPosition::Predicate,
                term: iri("http://dbpedia.org/ontology/spouse"),
                answers: no_solutions(),
                ..alternative(1e300)
            },
        ],
        relaxations: vec![
            StructureSuggestion {
                relaxed: RelaxedQuery {
                    query: full_select(),
                    tree: vec![(iri("a"), iri("p"), lit("c", None, None))],
                    terminals: vec![iri("a"), lit("c", None, None)],
                    queries_used: 7,
                    complete: true,
                },
                answers: solutions(),
            },
            StructureSuggestion {
                relaxed: RelaxedQuery {
                    query: bare_select(),
                    tree: Vec::new(),
                    terminals: Vec::new(),
                    queries_used: 0,
                    complete: false,
                },
                answers: no_solutions(),
            },
        ],
        candidates: Arc::new(vec![alternative(0.875)]),
        elapsed: Duration::new(0, 1_234_567),
        tier: 1,
        degraded: true,
    }
}

fn empty_qsm() -> QsmOutput {
    QsmOutput {
        alternatives: Vec::new(),
        relaxations: Vec::new(),
        candidates: Arc::new(Vec::new()),
        elapsed: Duration::ZERO,
        tier: 0,
        degraded: false,
    }
}

/// One of every `ServerError` arm, with `Session` once per `SessionError`
/// arm.
fn every_server_error() -> Vec<ServerError> {
    vec![
        ServerError::Overloaded {
            in_flight: 8,
            queue_depth: 64,
        },
        ServerError::QueueTimeout { waited_ms: 250 },
        ServerError::Timeout {
            work_used: u64::MAX,
        },
        ServerError::UnknownSession(SessionId(0xDEAD_BEEF)),
        ServerError::SessionLimit {
            open: 4096,
            limit: 4096,
        },
        ServerError::UnknownSuggestion {
            index: 3,
            available: 2,
        },
        ServerError::ShuttingDown,
        ServerError::Session(SessionError::InvalidSubject("\"x\"".to_string())),
        ServerError::Session(SessionError::UnknownPredicate("bornIn".to_string())),
        ServerError::Session(SessionError::EmptyQuery),
        ServerError::Unreachable {
            reason: "timeout".to_string(),
        },
        ServerError::Backend("shard 2: évaluation failed".to_string()),
    ]
}

fn replies() -> Vec<(String, LoadHeader, Result<WireReply, ServerError>)> {
    let load = LoadHeader {
        in_flight: 3,
        queued: 70_000,
        pressure: 2,
    };
    let idle = LoadHeader::default();
    let mut out = vec![
        (
            "completion_full".to_string(),
            load,
            Ok(WireReply::Completion(CompletionResult {
                suggestions: vec![
                    Completion {
                        text: "Kennedy".to_string(),
                        predicate_iri: None,
                        source: MatchSource::SuffixTree,
                    },
                    Completion {
                        text: "Café Zürich".to_string(),
                        predicate_iri: Some("http://xmlns.com/foaf/0.1/name".to_string()),
                        source: MatchSource::ResidualBins,
                    },
                ],
                tree_hit: true,
                tree_time: Duration::new(0, 987_654),
                bins_time: Duration::new(2, 1),
                residual_candidates: 12_345,
            })),
        ),
        (
            "completion_empty".to_string(),
            idle,
            Ok(WireReply::Completion(CompletionResult {
                suggestions: Vec::new(),
                tree_hit: false,
                tree_time: Duration::ZERO,
                bins_time: Duration::ZERO,
                residual_candidates: 0,
            })),
        ),
        (
            "run_full".to_string(),
            load,
            Ok(WireReply::Run(RunPayload {
                answers: solutions(),
                executed: true,
                suggestions: Arc::new(full_qsm()),
            })),
        ),
        (
            "run_empty".to_string(),
            idle,
            Ok(WireReply::Run(RunPayload {
                answers: no_solutions(),
                executed: false,
                suggestions: Arc::new(empty_qsm()),
            })),
        ),
        (
            "raw_solutions".to_string(),
            load,
            Ok(WireReply::Raw(QueryResult::Solutions(solutions()))),
        ),
        (
            "raw_no_solutions".to_string(),
            idle,
            Ok(WireReply::Raw(QueryResult::Solutions(no_solutions()))),
        ),
        (
            "raw_true".to_string(),
            idle,
            Ok(WireReply::Raw(QueryResult::Boolean(true))),
        ),
        (
            "raw_false".to_string(),
            idle,
            Ok(WireReply::Raw(QueryResult::Boolean(false))),
        ),
    ];
    // Numbered as before the retired tag-3 error left the corpus, so every
    // remaining pin keeps its name.
    let numbers = (0..).filter(|&i| i != 3);
    for (i, e) in numbers.zip(every_server_error()) {
        out.push((format!("error_{i}"), load, Err(e)));
    }
    out
}

/// Every corpus item's name and encoding: requests, replies, then the two
/// handshake payloads. Each decodes, and re-encodes to the same bytes.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (name, req) in requests() {
        let bytes = encode_request(&req);
        let back = decode_request(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back, req, "{name}");
        out.push((format!("request/{name}"), bytes));
    }
    for (name, load, result) in replies() {
        let bytes = encode_reply(load, &result);
        let (load_back, result_back) =
            decode_reply(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(encode_reply(load_back, &result_back), bytes, "{name}");
        out.push((format!("reply/{name}"), bytes));
    }
    let hello = encode_hello(4);
    assert_eq!(decode_hello(&hello), Ok(4));
    out.push(("hello".to_string(), hello));
    let hello_ok = encode_hello_ok("shard-0/é", 10, 64 << 20, 4);
    assert_eq!(
        decode_hello_ok(&hello_ok),
        Ok(("shard-0/é".to_string(), 10, 64 << 20, 4))
    );
    out.push(("hello_ok".to_string(), hello_ok));
    out
}

// ------------------------------------------------------------------- pins --

/// `(name, encoded length, FNV-1a 64 of the encoding)`, recorded from the
/// codec as it stood before its rules moved into one impl per type.
const PINS: &[(&str, usize, u64)] = &[
    ("request/complete", 26, 0x1383b93f46b0a23d),
    ("request/complete_empty_strings", 17, 0x4dfa4cffd1f7979f),
    ("request/run_bare_no_budget", 36, 0x206782dbeb6883d3),
    ("request/run_full_with_budget", 307, 0xc050de5dc54f7b1f),
    ("request/raw_select_bare", 36, 0x00e41e3f18afe9a2),
    ("request/raw_select_full", 295, 0x3a5756f5b6b69145),
    ("request/raw_ask_empty", 24, 0xd176eae9dd3d2e8b),
    ("request/raw_ask_full", 224, 0x00be67c281562c6e),
    ("request/raw_ask_empty_values", 33, 0xec9a393b6a38197d),
    ("request/raw_select_empty_items", 40, 0x601a7b11b32a3723),
    ("request/expr_0", 33, 0xa5f02c1e63a8eb85),
    ("request/expr_1", 45, 0x53fcf07a4d80316c),
    ("request/expr_2", 37, 0x11c87f059a5a7350),
    ("request/expr_3", 37, 0x6ef24a1d0eec27cb),
    ("request/expr_4", 31, 0x45214f5888f876dd),
    ("request/expr_5", 38, 0x16fc289c82200497),
    ("request/expr_6", 31, 0x83839d6a9f33703f),
    ("request/expr_7", 31, 0xe8ae7c0dcdb4963e),
    ("request/expr_8", 31, 0xd26fdaec06a7fa21),
    ("request/expr_9", 31, 0x379ab98f35292020),
    ("request/expr_10", 31, 0x10d228fe1ce2f383),
    ("request/expr_11", 41, 0xee1a40a32d9232f8),
    ("request/expr_12", 37, 0xb70f82279e27c7bc),
    ("request/expr_13", 42, 0x84e2abe2a54e2add),
    ("request/expr_14", 31, 0x8d96c5224958e647),
    ("request/expr_15", 31, 0xf2c1a3c577da0c46),
    ("request/expr_16", 31, 0xd91d02a3adea4729),
    ("request/expr_17", 30, 0x7d42e9bf39af3002),
    ("request/cmp_op_1", 38, 0x1656f85990652d7e),
    ("request/cmp_op_2", 38, 0x34c045db72dab1c5),
    ("request/cmp_op_3", 38, 0x341b1598811fdaac),
    ("request/cmp_op_4", 38, 0x5284631a63955ef3),
    ("request/cmp_op_5", 38, 0x51df32d771da87da),
    ("request/aggregate_0", 49, 0x331bdb1e40241e99),
    ("request/aggregate_1", 54, 0x86b924a8f61a92c3),
    ("request/aggregate_2", 52, 0x85251f400d28e5d4),
    ("request/aggregate_3", 52, 0x15568b109264203b),
    ("request/aggregate_4", 52, 0x931e4afce8121c6e),
    ("request/aggregate_5", 52, 0x1ab9655b66afb07d),
    ("reply/completion_full", 114, 0x7f0ec2e5fb9b96b4),
    ("reply/completion_empty", 48, 0xc5445b74b7f2d68a),
    ("reply/run_full", 961, 0x3e2d8c3dd035cabc),
    ("reply/run_empty", 53, 0xc203983ef9b422e9),
    ("reply/raw_solutions", 95, 0xfdfbc0ea74b9c484),
    ("reply/raw_no_solutions", 20, 0x8c8256fe0d808298),
    ("reply/raw_true", 13, 0xcb4bda9702d810be),
    ("reply/raw_false", 13, 0xcb4bdb9702d81271),
    ("reply/error_0", 27, 0xa3a1e04721e81c66),
    ("reply/error_1", 19, 0xa526d07b47fc9d7b),
    ("reply/error_2", 19, 0xca7cbc365306e540),
    ("reply/error_4", 19, 0xc5b33a82459e927c),
    ("reply/error_5", 27, 0x9b4cba76b871e0ed),
    ("reply/error_6", 27, 0x26f78c0173748815),
    ("reply/error_7", 11, 0xf7f5f88f4afe5047),
    ("reply/error_8", 19, 0xa49269a49fc61d13),
    ("reply/error_9", 22, 0x5cdef5a38614bfeb),
    ("reply/error_10", 12, 0x55203e7c6e02a27c),
    ("reply/error_11", 22, 0x7d2bb00e36640fd9),
    ("reply/error_12", 42, 0x8a029a42e3e4bdd1),
    ("hello", 4, 0xcd3ac65e44f721b1),
    ("hello_ok", 30, 0xbcf97ca260c7202f),
];

#[test]
fn every_corpus_item_encodes_to_its_pinned_bytes() {
    let got: Vec<(String, usize, u64)> = corpus()
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), fnv1a64(&bytes)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, len, hash)| format!("    (\"{name}\", {len}, 0x{hash:016x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        PINS.len(),
        "corpus and pin table differ in size; the corpus encodes to\n{table}"
    );
    for ((name, len, hash), &(pin_name, pin_len, pin_hash)) in got.iter().zip(PINS) {
        assert_eq!(name, pin_name, "corpus order moved");
        assert_eq!(
            (*len, *hash),
            (pin_len, pin_hash),
            "{name}: encoding moved (length, FNV-1a 64)"
        );
    }
}

/// The handshake payloads byte for byte, as `frame::kind` documents them:
/// HELLO is `[version u32]`, HELLO_OK is `[name][k u64][max_frame
/// u32][version u32]`, a string being a `u32` byte length and its UTF-8.
#[test]
fn handshake_payloads_are_laid_out_as_documented() {
    assert_eq!(hex(&encode_hello(4)), "04000000");
    assert_eq!(
        hex(&encode_hello_ok("s-é", 10, 64 << 20, 4)),
        concat!(
            "04000000",         // name length
            "732dc3a9",         // "s-é"
            "0a00000000000000", // k, a u64
            "00000004",         // max_frame
            "04000000",         // version
        )
    );
}

/// A small request byte for byte: the tag, two strings, and a `usize` as a
/// `u64`.
#[test]
fn a_completion_request_is_laid_out_byte_for_byte() {
    let bytes = encode_request(&WireRequest::Complete {
        tenant: "t".to_string(),
        term: "ab".to_string(),
        fetch: 5,
    });
    assert_eq!(
        hex(&bytes),
        concat!(
            "00",               // request tag: Complete
            "0100000074",       // tenant "t"
            "020000006162",     // term "ab"
            "0500000000000000", // fetch
        )
    );
}

/// `ServerError` tag 3 is retired, not reused: a reply laid out as the
/// quota error that once held it — the tag, a tenant string and two `u64`s,
/// the exact bytes its `reply/error_3` pin held — is corrupt.
#[test]
fn the_retired_server_error_tag_3_decodes_as_corrupt() {
    let load = LoadHeader {
        in_flight: 3,
        queued: 70_000,
        pressure: 2,
    };
    let mut bytes = encode_reply(load, &Err(ServerError::ShuttingDown));
    assert_eq!(bytes.pop(), Some(7), "ShuttingDown's tag ends the reply");
    bytes.push(3);
    let tenant = "tenant-α".as_bytes();
    bytes.extend_from_slice(&(tenant.len() as u32).to_le_bytes());
    bytes.extend_from_slice(tenant);
    bytes.extend_from_slice(&1_000_001u64.to_le_bytes());
    bytes.extend_from_slice(&1_000_000u64.to_le_bytes());
    assert_eq!((bytes.len(), fnv1a64(&bytes)), (40, 0x6d1dd1a57e8a8985));
    match decode_reply(&bytes) {
        Err(WireError::Corrupt(message)) => assert_eq!(message, "unknown ServerError tag 3"),
        other => panic!("the retired tag decoded as {other:?}"),
    }
}

//! Hand-rolled binary codec for the one edge↔shard request and its reply,
//! [`WireRequest`] and [`WireReply`] — defined beside `ShardService`, whose
//! `call` answers them on both sides of the socket.
//!
//! The repo takes no serde dependency, so the wire format is written out by
//! hand — which also keeps it honest: every byte is accounted for, and the
//! decoder is total (any byte sequence either decodes or returns
//! [`WireError::Corrupt`]; nothing panics, nothing blocks).
//!
//! Every type on the wire has one impl of the private `Wire` trait, its
//! write (`put`) and its read (`get`) side by side; a type's layout is its
//! fields in declaration order, each by its own impl. Conventions, all
//! little-endian, each owned by one impl:
//!
//! * integers — `u8` tags, `u32` lengths and counts, `u64` for `usize` and
//!   wide counters (`u8`, `u32`, `u64`; `usize` is a `u64` range-checked on
//!   decode);
//! * `bool` — one byte, 0 or 1 (`bool`);
//! * `f64` — IEEE 754 bits as `u64`, an exact round trip (`f64`);
//! * strings — `u32` byte length + UTF-8 bytes, validated on decode
//!   (`String`);
//! * `Duration` — seconds `u64` + nanoseconds `u32` below 10⁹ (`Duration`);
//! * `Option<T>` — presence byte (0/1) then the value (`Option<T>`);
//! * sequences — `u32` count then elements, with the count bounded by the
//!   bytes actually remaining so a corrupt count cannot drive a huge
//!   allocation (`[T]` writes, `Vec<T>` reads; `Arc<[T]>` goes through
//!   both);
//! * tuples, `Box<T>`, `Arc<T>` — their contents, nothing added;
//! * enums — `u8` discriminant in declaration order; unknown discriminants
//!   are `Corrupt` naming the enum, never a default (each enum's impl).
//!   `ServerError` tag 3, the retired `QuotaExhausted`, is reserved: it
//!   decodes as unknown and is never reused;
//! * expression nesting — bounded on decode (`Expr`).

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
pub use sapphire_server::{WireReply, WireRequest};
use sapphire_sparql::{
    Aggregate, CmpOp, Expr, GraphPattern, InlineData, OrderKey, Projection, Query, QueryResult,
    SelectItem, SelectQuery, Solutions, TermPattern, TriplePattern, MAX_EXPR_DEPTH,
};

use crate::frame::WireError;

/// Replica load piggybacked on every reply frame, so the edge's load-aware
/// replica ordering and shed-tier probes cost zero extra round trips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadHeader {
    /// Requests in flight at the replica when the reply was written.
    pub in_flight: u32,
    /// Requests queued in admission at the replica.
    pub queued: u32,
    /// The shed tier the replica's backlog argues for.
    pub pressure: u8,
}

// ----------------------------------------------------------------- reader --

/// Cap on the bytes any single decode-side `Vec` pre-allocation may claim.
/// A count is bounded by the bytes remaining, but for wide element types (a
/// `TermAlternative` is hundreds of bytes) a count that passes that check
/// can still multiply into a multi-GB *capacity* request before the first
/// element fails to decode. Past this cap the vector grows by `push`; the
/// per-element bounds checks fail long before memory does.
const MAX_PREALLOC_BYTES: usize = 1 << 20;

/// Bounds-checked cursor over one frame payload. Every read is validated
/// against the remaining bytes before it happens.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Nesting of the `Expr` being decoded (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Corrupt(format!(
                "{what}: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after message",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// An enum discriminant the decoder does not know.
fn unknown(enum_name: &str, tag: u8) -> WireError {
    WireError::Corrupt(format!("unknown {enum_name} tag {tag}"))
}

/// An enum arm with one field: its tag, then the field.
fn tagged<T: Wire + ?Sized>(out: &mut Vec<u8>, tag: u8, field: &T) {
    tag.put(out);
    field.put(out);
}

/// One type's wire layout: `put` appends its encoding, `get` reads it back
/// (see the module docs for each rule).
trait Wire {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader) -> Result<Self, WireError>
    where
        Self: Sized;
}

/// The whole of `buf` as one `T`: trailing bytes are `Corrupt`.
fn decode<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = Reader {
        buf,
        pos: 0,
        depth: 0,
    };
    let value = T::get(&mut r)?;
    r.done()?;
    Ok(value)
}

fn encode<T: Wire + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

// ------------------------------------------------------------- primitives --

impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(r.take(1, "u8")?[0])
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let b = r.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let b = r.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        usize::try_from(u64::get(r)?).map_err(|_| WireError::Corrupt("usize out of range".into()))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u8).put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Corrupt(format!("bool byte {b}"))),
        }
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let n = u32::get(r)? as usize;
        String::from_utf8(r.take(n, "string")?.to_vec())
            .map_err(|_| WireError::Corrupt("string: invalid UTF-8".into()))
    }
}

impl Wire for Duration {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_secs().put(out);
        self.subsec_nanos().put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let secs = u64::get(r)?;
        let nanos = u32::get(r)?;
        if nanos >= 1_000_000_000 {
            return Err(WireError::Corrupt(format!("duration nanos {nanos}")));
        }
        Ok(Duration::new(secs, nanos))
    }
}

// ------------------------------------------------------------- containers --

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for [T] {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for v in self {
            v.put(out);
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_slice().put(out);
    }
    /// The count is bounded by the bytes remaining (every element of every
    /// sequence we encode is at least one byte), so a corrupt count fails
    /// here instead of sizing an allocation; the capacity is further
    /// capped by [`MAX_PREALLOC_BYTES`].
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let n = u32::get(r)? as usize;
        if n > r.remaining() {
            return Err(WireError::Corrupt(format!(
                "count {n} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let cap = MAX_PREALLOC_BYTES / std::mem::size_of::<T>().max(1);
        let mut v = Vec::with_capacity(n.min(cap));
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Arc<[T]> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Vec::<T>::get(r)?.into())
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Arc::new(T::get(r)?))
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Box::new(T::get(r)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
        self.3.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?, D::get(r)?))
    }
}

// ---------------------------------------------------- RDF and query types --

impl Wire for Term {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Term::Iri(s) => tagged(out, 0, s),
            Term::Literal(l) => {
                1u8.put(out);
                l.value.put(out);
                l.lang.put(out);
                l.datatype.put(out);
            }
            Term::Blank(s) => tagged(out, 2, s),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => Term::Iri(Wire::get(r)?),
            1 => Term::Literal(Literal {
                value: Wire::get(r)?,
                lang: Wire::get(r)?,
                datatype: Wire::get(r)?,
            }),
            2 => Term::Blank(Wire::get(r)?),
            tag => return Err(unknown("Term", tag)),
        })
    }
}

impl Wire for TermPattern {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            TermPattern::Var(v) => tagged(out, 0, v),
            TermPattern::Term(t) => tagged(out, 1, t),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => TermPattern::Var(Wire::get(r)?),
            1 => TermPattern::Term(Wire::get(r)?),
            tag => return Err(unknown("TermPattern", tag)),
        })
    }
}

impl Wire for TriplePattern {
    fn put(&self, out: &mut Vec<u8>) {
        self.subject.put(out);
        self.predicate.put(out);
        self.object.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(TriplePattern {
            subject: Wire::get(r)?,
            predicate: Wire::get(r)?,
            object: Wire::get(r)?,
        })
    }
}

impl Wire for CmpOp {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        };
        tag.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            tag => return Err(unknown("CmpOp", tag)),
        })
    }
}

impl Wire for Expr {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Expr::Var(v) => tagged(out, 0, v),
            Expr::Const(t) => tagged(out, 1, t),
            Expr::And(a, b) => {
                2u8.put(out);
                a.put(out);
                b.put(out);
            }
            Expr::Or(a, b) => {
                3u8.put(out);
                a.put(out);
                b.put(out);
            }
            Expr::Not(a) => tagged(out, 4, a),
            Expr::Cmp(op, a, b) => {
                5u8.put(out);
                op.put(out);
                a.put(out);
                b.put(out);
            }
            Expr::IsLiteral(a) => tagged(out, 6, a),
            Expr::IsIri(a) => tagged(out, 7, a),
            Expr::Lang(a) => tagged(out, 8, a),
            Expr::Str(a) => tagged(out, 9, a),
            Expr::StrLen(a) => tagged(out, 10, a),
            Expr::Contains(a, b) => {
                11u8.put(out);
                a.put(out);
                b.put(out);
            }
            Expr::StrStarts(a, b) => {
                12u8.put(out);
                a.put(out);
                b.put(out);
            }
            Expr::Regex(a, pattern, ci) => {
                13u8.put(out);
                a.put(out);
                pattern.put(out);
                ci.put(out);
            }
            Expr::LCase(a) => tagged(out, 14, a),
            Expr::UCase(a) => tagged(out, 15, a),
            Expr::Year(a) => tagged(out, 16, a),
            Expr::Bound(v) => tagged(out, 17, v),
        }
    }
    /// The only recursive decode: each nested `Expr` is one level deeper,
    /// and past [`MAX_EXPR_DEPTH`] — the parser's bound, shared — the
    /// payload is `Corrupt`. Without it a frame of nested unary tags (one
    /// byte per level; ~40KB of `Not` bytes fits trivially under the frame
    /// cap) would overflow the worker's stack and abort the process,
    /// breaking the "total decoder" contract.
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        if r.depth > MAX_EXPR_DEPTH {
            return Err(WireError::Corrupt("expr nested too deep".into()));
        }
        r.depth += 1;
        let e = match u8::get(r)? {
            0 => Expr::Var(Wire::get(r)?),
            1 => Expr::Const(Wire::get(r)?),
            2 => Expr::And(Wire::get(r)?, Wire::get(r)?),
            3 => Expr::Or(Wire::get(r)?, Wire::get(r)?),
            4 => Expr::Not(Wire::get(r)?),
            5 => Expr::Cmp(Wire::get(r)?, Wire::get(r)?, Wire::get(r)?),
            6 => Expr::IsLiteral(Wire::get(r)?),
            7 => Expr::IsIri(Wire::get(r)?),
            8 => Expr::Lang(Wire::get(r)?),
            9 => Expr::Str(Wire::get(r)?),
            10 => Expr::StrLen(Wire::get(r)?),
            11 => Expr::Contains(Wire::get(r)?, Wire::get(r)?),
            12 => Expr::StrStarts(Wire::get(r)?, Wire::get(r)?),
            13 => Expr::Regex(Wire::get(r)?, Wire::get(r)?, Wire::get(r)?),
            14 => Expr::LCase(Wire::get(r)?),
            15 => Expr::UCase(Wire::get(r)?),
            16 => Expr::Year(Wire::get(r)?),
            17 => Expr::Bound(Wire::get(r)?),
            tag => return Err(unknown("Expr", tag)),
        };
        r.depth -= 1;
        Ok(e)
    }
}

impl Wire for Aggregate {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Aggregate::Count { distinct, var } => {
                0u8.put(out);
                distinct.put(out);
                var.put(out);
            }
            Aggregate::Sum(v) => tagged(out, 1, v),
            Aggregate::Min(v) => tagged(out, 2, v),
            Aggregate::Max(v) => tagged(out, 3, v),
            Aggregate::Avg(v) => tagged(out, 4, v),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => Aggregate::Count {
                distinct: Wire::get(r)?,
                var: Wire::get(r)?,
            },
            1 => Aggregate::Sum(Wire::get(r)?),
            2 => Aggregate::Min(Wire::get(r)?),
            3 => Aggregate::Max(Wire::get(r)?),
            4 => Aggregate::Avg(Wire::get(r)?),
            tag => return Err(unknown("Aggregate", tag)),
        })
    }
}

impl Wire for SelectItem {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            SelectItem::Var(v) => tagged(out, 0, v),
            SelectItem::Agg { agg, alias } => {
                1u8.put(out);
                agg.put(out);
                alias.put(out);
            }
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => SelectItem::Var(Wire::get(r)?),
            1 => SelectItem::Agg {
                agg: Wire::get(r)?,
                alias: Wire::get(r)?,
            },
            tag => return Err(unknown("SelectItem", tag)),
        })
    }
}

impl Wire for Projection {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Projection::Star => 0u8.put(out),
            Projection::Items(items) => tagged(out, 1, items),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => Projection::Star,
            1 => Projection::Items(Wire::get(r)?),
            tag => return Err(unknown("Projection", tag)),
        })
    }
}

impl Wire for InlineData {
    fn put(&self, out: &mut Vec<u8>) {
        self.var.put(out);
        self.terms.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(InlineData {
            var: Wire::get(r)?,
            terms: Wire::get(r)?,
        })
    }
}

impl Wire for GraphPattern {
    fn put(&self, out: &mut Vec<u8>) {
        self.triples.put(out);
        self.filters.put(out);
        self.values.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(GraphPattern {
            triples: Wire::get(r)?,
            filters: Wire::get(r)?,
            values: Wire::get(r)?,
        })
    }
}

impl Wire for OrderKey {
    fn put(&self, out: &mut Vec<u8>) {
        self.expr.put(out);
        self.descending.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(OrderKey {
            expr: Wire::get(r)?,
            descending: Wire::get(r)?,
        })
    }
}

impl Wire for SelectQuery {
    fn put(&self, out: &mut Vec<u8>) {
        self.distinct.put(out);
        self.projection.put(out);
        self.pattern.put(out);
        self.group_by.put(out);
        self.order_by.put(out);
        self.limit.put(out);
        self.offset.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(SelectQuery {
            distinct: Wire::get(r)?,
            projection: Wire::get(r)?,
            pattern: Wire::get(r)?,
            group_by: Wire::get(r)?,
            order_by: Wire::get(r)?,
            limit: Wire::get(r)?,
            offset: Wire::get(r)?,
        })
    }
}

impl Wire for Query {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Query::Select(s) => tagged(out, 0, s),
            Query::Ask(p) => tagged(out, 1, p),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => Query::Select(Wire::get(r)?),
            1 => Query::Ask(Wire::get(r)?),
            tag => return Err(unknown("Query", tag)),
        })
    }
}

// -------------------------------------------- results and model payloads --

impl Wire for Solutions {
    fn put(&self, out: &mut Vec<u8>) {
        self.vars.put(out);
        self.rows.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Solutions {
            vars: Wire::get(r)?,
            rows: Wire::get(r)?,
        })
    }
}

impl Wire for QueryResult {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            QueryResult::Solutions(s) => tagged(out, 0, s),
            QueryResult::Boolean(b) => tagged(out, 1, b),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => QueryResult::Solutions(Wire::get(r)?),
            1 => QueryResult::Boolean(Wire::get(r)?),
            tag => return Err(unknown("QueryResult", tag)),
        })
    }
}

impl Wire for MatchSource {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            MatchSource::SuffixTree => 0,
            MatchSource::ResidualBins => 1,
        };
        tag.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => MatchSource::SuffixTree,
            1 => MatchSource::ResidualBins,
            tag => return Err(unknown("MatchSource", tag)),
        })
    }
}

impl Wire for Completion {
    fn put(&self, out: &mut Vec<u8>) {
        self.text.put(out);
        self.predicate_iri.put(out);
        self.source.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Completion {
            text: Wire::get(r)?,
            predicate_iri: Wire::get(r)?,
            source: Wire::get(r)?,
        })
    }
}

impl Wire for CompletionResult {
    fn put(&self, out: &mut Vec<u8>) {
        self.suggestions.put(out);
        self.tree_hit.put(out);
        self.tree_time.put(out);
        self.bins_time.put(out);
        self.residual_candidates.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(CompletionResult {
            suggestions: Wire::get(r)?,
            tree_hit: Wire::get(r)?,
            tree_time: Wire::get(r)?,
            bins_time: Wire::get(r)?,
            residual_candidates: Wire::get(r)?,
        })
    }
}

impl Wire for AlteredPosition {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            AlteredPosition::Predicate => 0,
            AlteredPosition::Object => 1,
        };
        tag.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => AlteredPosition::Predicate,
            1 => AlteredPosition::Object,
            tag => return Err(unknown("AlteredPosition", tag)),
        })
    }
}

impl Wire for TermAlternative {
    fn put(&self, out: &mut Vec<u8>) {
        self.triple_index.put(out);
        self.position.put(out);
        self.original.put(out);
        self.replacement.put(out);
        self.similarity.put(out);
        self.term.put(out);
        self.answers.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(TermAlternative {
            triple_index: Wire::get(r)?,
            position: Wire::get(r)?,
            original: Wire::get(r)?,
            replacement: Wire::get(r)?,
            similarity: Wire::get(r)?,
            term: Wire::get(r)?,
            answers: Wire::get(r)?,
        })
    }
}

impl Wire for RelaxedQuery {
    fn put(&self, out: &mut Vec<u8>) {
        self.query.put(out);
        self.tree.put(out);
        self.terminals.put(out);
        self.queries_used.put(out);
        self.complete.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(RelaxedQuery {
            query: Wire::get(r)?,
            tree: Wire::get(r)?,
            terminals: Wire::get(r)?,
            queries_used: Wire::get(r)?,
            complete: Wire::get(r)?,
        })
    }
}

impl Wire for StructureSuggestion {
    fn put(&self, out: &mut Vec<u8>) {
        self.relaxed.put(out);
        self.answers.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(StructureSuggestion {
            relaxed: Wire::get(r)?,
            answers: Wire::get(r)?,
        })
    }
}

impl Wire for QsmOutput {
    fn put(&self, out: &mut Vec<u8>) {
        self.alternatives.put(out);
        self.relaxations.put(out);
        self.candidates.put(out);
        self.elapsed.put(out);
        self.tier.put(out);
        self.degraded.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(QsmOutput {
            alternatives: Wire::get(r)?,
            relaxations: Wire::get(r)?,
            candidates: Wire::get(r)?,
            elapsed: Wire::get(r)?,
            tier: Wire::get(r)?,
            degraded: Wire::get(r)?,
        })
    }
}

impl Wire for RunPayload {
    fn put(&self, out: &mut Vec<u8>) {
        self.answers.put(out);
        self.executed.put(out);
        self.suggestions.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(RunPayload {
            answers: Wire::get(r)?,
            executed: Wire::get(r)?,
            suggestions: Wire::get(r)?,
        })
    }
}

// ----------------------------------------------------------------- errors --

impl Wire for SessionError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            SessionError::InvalidSubject(s) => tagged(out, 0, s),
            SessionError::UnknownPredicate(s) => tagged(out, 1, s),
            SessionError::EmptyQuery => 2u8.put(out),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => SessionError::InvalidSubject(Wire::get(r)?),
            1 => SessionError::UnknownPredicate(Wire::get(r)?),
            2 => SessionError::EmptyQuery,
            tag => return Err(unknown("SessionError", tag)),
        })
    }
}

impl Wire for ServerError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ServerError::Overloaded {
                in_flight,
                queue_depth,
            } => {
                0u8.put(out);
                in_flight.put(out);
                queue_depth.put(out);
            }
            ServerError::QueueTimeout { waited_ms } => tagged(out, 1, waited_ms),
            ServerError::Timeout { work_used } => tagged(out, 2, work_used),
            ServerError::UnknownSession(id) => {
                4u8.put(out);
                id.0.put(out);
            }
            ServerError::SessionLimit { open, limit } => {
                5u8.put(out);
                open.put(out);
                limit.put(out);
            }
            ServerError::UnknownSuggestion { index, available } => {
                6u8.put(out);
                index.put(out);
                available.put(out);
            }
            ServerError::ShuttingDown => 7u8.put(out),
            ServerError::Session(e) => tagged(out, 8, e),
            ServerError::Unreachable { reason } => tagged(out, 9, reason),
            ServerError::Backend(m) => tagged(out, 10, m),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => ServerError::Overloaded {
                in_flight: Wire::get(r)?,
                queue_depth: Wire::get(r)?,
            },
            1 => ServerError::QueueTimeout {
                waited_ms: Wire::get(r)?,
            },
            2 => ServerError::Timeout {
                work_used: Wire::get(r)?,
            },
            4 => ServerError::UnknownSession(SessionId(Wire::get(r)?)),
            5 => ServerError::SessionLimit {
                open: Wire::get(r)?,
                limit: Wire::get(r)?,
            },
            6 => ServerError::UnknownSuggestion {
                index: Wire::get(r)?,
                available: Wire::get(r)?,
            },
            7 => ServerError::ShuttingDown,
            8 => ServerError::Session(Wire::get(r)?),
            9 => ServerError::Unreachable {
                reason: Wire::get(r)?,
            },
            10 => ServerError::Backend(Wire::get(r)?),
            tag => return Err(unknown("ServerError", tag)),
        })
    }
}

// --------------------------------------------------------- frame payloads --

impl Wire for WireRequest {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WireRequest::Complete {
                tenant,
                term,
                fetch,
            } => {
                0u8.put(out);
                tenant.put(out);
                term.put(out);
                fetch.put(out);
            }
            WireRequest::Run {
                tenant,
                query,
                tier,
                budget,
            } => {
                1u8.put(out);
                tenant.put(out);
                query.put(out);
                tier.put(out);
                budget.put(out);
            }
            WireRequest::Raw { tenant, query } => {
                2u8.put(out);
                tenant.put(out);
                query.put(out);
            }
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => WireRequest::Complete {
                tenant: Wire::get(r)?,
                term: Wire::get(r)?,
                fetch: Wire::get(r)?,
            },
            1 => WireRequest::Run {
                tenant: Wire::get(r)?,
                query: Wire::get(r)?,
                tier: Wire::get(r)?,
                budget: Wire::get(r)?,
            },
            2 => WireRequest::Raw {
                tenant: Wire::get(r)?,
                query: Wire::get(r)?,
            },
            tag => return Err(unknown("WireRequest", tag)),
        })
    }
}

impl Wire for WireReply {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WireReply::Completion(c) => tagged(out, 0, c),
            WireReply::Run(p) => tagged(out, 1, p),
            WireReply::Raw(q) => tagged(out, 2, q),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => WireReply::Completion(Wire::get(r)?),
            1 => WireReply::Run(Wire::get(r)?),
            2 => WireReply::Raw(Wire::get(r)?),
            tag => return Err(unknown("WireReply", tag)),
        })
    }
}

/// A reply's ok/err wrapper: tag 1 then the reply, or tag 0 then the error.
impl Wire for Result<WireReply, ServerError> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Err(e) => tagged(out, 0, e),
            Ok(reply) => tagged(out, 1, reply),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => Err(Wire::get(r)?),
            1 => Ok(Wire::get(r)?),
            tag => return Err(unknown("reply Result", tag)),
        })
    }
}

impl Wire for LoadHeader {
    fn put(&self, out: &mut Vec<u8>) {
        self.in_flight.put(out);
        self.queued.put(out);
        self.pressure.put(out);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(LoadHeader {
            in_flight: Wire::get(r)?,
            queued: Wire::get(r)?,
            pressure: Wire::get(r)?,
        })
    }
}

/// Encode a [`WireRequest`] as a REQUEST frame payload.
pub fn encode_request(req: &WireRequest) -> Vec<u8> {
    encode(req)
}

/// Decode a REQUEST frame payload.
pub fn decode_request(buf: &[u8]) -> Result<WireRequest, WireError> {
    decode(buf)
}

/// Encode a REPLY frame payload: load header, ok/err tag, then the body.
pub fn encode_reply(load: LoadHeader, result: &Result<WireReply, ServerError>) -> Vec<u8> {
    let mut out = encode(&load);
    result.put(&mut out);
    out
}

/// Decode a REPLY frame payload.
pub fn decode_reply(buf: &[u8]) -> Result<(LoadHeader, Result<WireReply, ServerError>), WireError> {
    decode(buf)
}

/// Encode a HELLO frame payload: the protocol version the client offers.
pub fn encode_hello(version: u32) -> Vec<u8> {
    encode(&version)
}

/// Decode a HELLO frame payload.
pub fn decode_hello(buf: &[u8]) -> Result<u32, WireError> {
    decode(buf)
}

/// Encode a HELLO_OK frame payload: the replica's name, its model's top-k,
/// the largest frame it will accept, and the protocol version it chose.
pub fn encode_hello_ok(name: &str, k: usize, max_frame: u32, chosen_version: u32) -> Vec<u8> {
    encode(&(name.to_string(), k, max_frame, chosen_version))
}

/// Decode a HELLO_OK frame payload into
/// `(name, k, max_frame, chosen_version)`.
pub fn decode_hello_ok(buf: &[u8]) -> Result<(String, usize, u32, u32), WireError> {
    decode(buf)
}

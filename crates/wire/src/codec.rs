//! Hand-rolled binary codec for the edge↔shard request/reply types.
//!
//! The repo takes no serde dependency, so the wire format is written out by
//! hand — which also keeps it honest: every byte is accounted for, and the
//! decoder is total (any byte sequence either decodes or returns
//! [`WireError::Corrupt`]; nothing panics, nothing blocks).
//!
//! Conventions, all little-endian:
//!
//! * integers — `u8` tags, `u32` lengths and counts, `u64` for `usize` and
//!   wide counters (`usize` is range-checked on decode);
//! * `f64` — IEEE 754 bits as `u64` (exact round trip, no text);
//! * strings — `u32` byte length + UTF-8 bytes, validated on decode;
//! * `Option<T>` — presence byte (0/1) then the value;
//! * `Vec<T>` — `u32` count then elements, with the count bounded by the
//!   bytes actually remaining so a corrupt count cannot drive a huge
//!   allocation;
//! * enums — `u8` discriminant in declaration order; unknown discriminants
//!   are `Corrupt`, never a default.

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

use crate::frame::WireError;

/// One stateless edge→shard request — the wire form of the cluster
/// router's internal scatter shapes, with the degradation tier and the
/// remaining deadline budget travelling with the query.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// QCM completion with an explicit over-fetch budget.
    Complete {
        /// Requesting tenant (billing identity at the shard).
        tenant: String,
        /// The typed prefix.
        term: String,
        /// How many suggestions to return.
        fetch: usize,
    },
    /// Stateless QSM run with edge-requested degradation.
    Run {
        /// Requesting tenant.
        tenant: String,
        /// The query to run.
        query: SelectQuery,
        /// Degradation tier the edge requests (shards may deepen, never
        /// shallow, exactly as in-process).
        tier: usize,
        /// Deadline budget remaining at the edge when the scatter started.
        budget: Option<Duration>,
    },
    /// Raw query execution (the federated bound-join building block).
    Raw {
        /// Requesting tenant.
        tenant: String,
        /// The query.
        query: Query,
    },
}

/// One shard→edge reply body (the success arm; errors travel as an encoded
/// [`ServerError`]).
#[derive(Debug, Clone)]
pub enum WireReply {
    /// Reply to [`WireRequest::Complete`].
    Completion(CompletionResult),
    /// Reply to [`WireRequest::Run`]. Owned here; the client re-wraps it in
    /// an `Arc` for the router's payload sharing.
    Run(RunPayload),
    /// Reply to [`WireRequest::Raw`].
    Raw(QueryResult),
}

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

// ---------------------------------------------------------------- writer --

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, v as u8);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => put_u8(out, 0),
        Some(s) => {
            put_u8(out, 1);
            put_str(out, s);
        }
    }
}

fn put_opt_usize(out: &mut Vec<u8>, v: &Option<usize>) {
    match v {
        None => put_u8(out, 0),
        Some(v) => {
            put_u8(out, 1);
            put_usize(out, *v);
        }
    }
}

fn put_duration(out: &mut Vec<u8>, d: Duration) {
    put_u64(out, d.as_secs());
    put_u32(out, d.subsec_nanos());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, n as u32);
}

// ---------------------------------------------------------------- reader --

/// Deepest expression nesting the decoder accepts. The decoder recurses
/// over `Expr`, so without a bound a frame of nested unary tags (one byte
/// per level — ~40KB of `Not` bytes fits trivially under the frame cap)
/// would overflow the worker's stack and abort the process, breaking the
/// "total decoder" contract. Real filters are a handful of levels deep;
/// anything past this bound is rejected as [`WireError::Corrupt`].
const MAX_EXPR_DEPTH: usize = 128;

/// Cap on the bytes any single decode-side `Vec` pre-allocation may claim.
/// [`Reader::len`] bounds the element *count* by the bytes remaining, but
/// for wide element types (a `TermAlternative` is hundreds of bytes) a
/// count that passes that check can still multiply into a multi-GB
/// *capacity* request before the first element fails to decode. Past this
/// cap the vector grows by `push`; the per-element bounds checks fail long
/// before memory does.
const MAX_PREALLOC_BYTES: usize = 1 << 20;

/// `Vec::with_capacity` for decode paths, with the capacity byte-bounded
/// by [`MAX_PREALLOC_BYTES`] so a hostile count cannot drive a huge
/// allocation.
fn bounded_vec<T>(n: usize) -> Vec<T> {
    Vec::with_capacity(n.min(MAX_PREALLOC_BYTES / std::mem::size_of::<T>().max(1)))
}

/// Bounds-checked cursor over one frame payload. Every read is validated
/// against the remaining bytes before it happens.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn corrupt(what: &str) -> WireError {
        WireError::Corrupt(what.to_string())
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

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self, what: &str) -> Result<usize, WireError> {
        usize::try_from(self.u64(what)?).map_err(|_| Self::corrupt(what))
    }

    fn bool(&mut self, what: &str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Self::corrupt(what)),
        }
    }

    fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &str) -> Result<String, WireError> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Corrupt(format!("{what}: invalid UTF-8")))
    }

    fn opt_str(&mut self, what: &str) -> Result<Option<String>, WireError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.str(what)?)),
            _ => Err(Self::corrupt(what)),
        }
    }

    fn opt_usize(&mut self, what: &str) -> Result<Option<usize>, WireError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.usize(what)?)),
            _ => Err(Self::corrupt(what)),
        }
    }

    fn duration(&mut self, what: &str) -> Result<Duration, WireError> {
        let secs = self.u64(what)?;
        let nanos = self.u32(what)?;
        if nanos >= 1_000_000_000 {
            return Err(Self::corrupt(what));
        }
        Ok(Duration::new(secs, nanos))
    }

    /// Collection count, bounded by the bytes remaining (every element of
    /// every collection we encode is at least one byte), so a corrupt count
    /// fails here instead of sizing an allocation.
    fn len(&mut self, what: &str) -> Result<usize, WireError> {
        let n = self.u32(what)? as usize;
        if n > self.remaining() {
            return Err(WireError::Corrupt(format!(
                "{what}: count {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
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

// ------------------------------------------------------------- RDF terms --

fn put_term(out: &mut Vec<u8>, t: &Term) {
    match t {
        Term::Iri(s) => {
            put_u8(out, 0);
            put_str(out, s);
        }
        Term::Literal(l) => {
            put_u8(out, 1);
            put_str(out, &l.value);
            put_opt_str(out, &l.lang);
            put_opt_str(out, &l.datatype);
        }
        Term::Blank(s) => {
            put_u8(out, 2);
            put_str(out, s);
        }
    }
}

fn get_term(r: &mut Reader) -> Result<Term, WireError> {
    match r.u8("term tag")? {
        0 => Ok(Term::Iri(r.str("iri")?)),
        1 => Ok(Term::Literal(Literal {
            value: r.str("literal value")?,
            lang: r.opt_str("literal lang")?,
            datatype: r.opt_str("literal datatype")?,
        })),
        2 => Ok(Term::Blank(r.str("blank label")?)),
        _ => Err(Reader::corrupt("term tag")),
    }
}

fn put_opt_term(out: &mut Vec<u8>, t: &Option<Term>) {
    match t {
        None => put_u8(out, 0),
        Some(t) => {
            put_u8(out, 1);
            put_term(out, t);
        }
    }
}

fn get_opt_term(r: &mut Reader) -> Result<Option<Term>, WireError> {
    match r.u8("opt term")? {
        0 => Ok(None),
        1 => Ok(Some(get_term(r)?)),
        _ => Err(Reader::corrupt("opt term")),
    }
}

// -------------------------------------------------------------- AST types --

fn put_term_pattern(out: &mut Vec<u8>, p: &TermPattern) {
    match p {
        TermPattern::Var(v) => {
            put_u8(out, 0);
            put_str(out, v);
        }
        TermPattern::Term(t) => {
            put_u8(out, 1);
            put_term(out, t);
        }
    }
}

fn get_term_pattern(r: &mut Reader) -> Result<TermPattern, WireError> {
    match r.u8("term pattern tag")? {
        0 => Ok(TermPattern::Var(r.str("var")?)),
        1 => Ok(TermPattern::Term(get_term(r)?)),
        _ => Err(Reader::corrupt("term pattern tag")),
    }
}

fn put_triple_pattern(out: &mut Vec<u8>, t: &TriplePattern) {
    put_term_pattern(out, &t.subject);
    put_term_pattern(out, &t.predicate);
    put_term_pattern(out, &t.object);
}

fn get_triple_pattern(r: &mut Reader) -> Result<TriplePattern, WireError> {
    Ok(TriplePattern {
        subject: get_term_pattern(r)?,
        predicate: get_term_pattern(r)?,
        object: get_term_pattern(r)?,
    })
}

fn put_cmp_op(out: &mut Vec<u8>, op: CmpOp) {
    put_u8(
        out,
        match op {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        },
    );
}

fn get_cmp_op(r: &mut Reader) -> Result<CmpOp, WireError> {
    Ok(match r.u8("cmp op")? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        _ => return Err(Reader::corrupt("cmp op")),
    })
}

fn put_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Var(v) => {
            put_u8(out, 0);
            put_str(out, v);
        }
        Expr::Const(t) => {
            put_u8(out, 1);
            put_term(out, t);
        }
        Expr::And(a, b) => {
            put_u8(out, 2);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Or(a, b) => {
            put_u8(out, 3);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Not(a) => {
            put_u8(out, 4);
            put_expr(out, a);
        }
        Expr::Cmp(op, a, b) => {
            put_u8(out, 5);
            put_cmp_op(out, *op);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::IsLiteral(a) => {
            put_u8(out, 6);
            put_expr(out, a);
        }
        Expr::IsIri(a) => {
            put_u8(out, 7);
            put_expr(out, a);
        }
        Expr::Lang(a) => {
            put_u8(out, 8);
            put_expr(out, a);
        }
        Expr::Str(a) => {
            put_u8(out, 9);
            put_expr(out, a);
        }
        Expr::StrLen(a) => {
            put_u8(out, 10);
            put_expr(out, a);
        }
        Expr::Contains(a, b) => {
            put_u8(out, 11);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::StrStarts(a, b) => {
            put_u8(out, 12);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Regex(a, pattern, ci) => {
            put_u8(out, 13);
            put_expr(out, a);
            put_str(out, pattern);
            put_bool(out, *ci);
        }
        Expr::LCase(a) => {
            put_u8(out, 14);
            put_expr(out, a);
        }
        Expr::UCase(a) => {
            put_u8(out, 15);
            put_expr(out, a);
        }
        Expr::Year(a) => {
            put_u8(out, 16);
            put_expr(out, a);
        }
        Expr::Bound(v) => {
            put_u8(out, 17);
            put_str(out, v);
        }
    }
}

fn get_expr(r: &mut Reader) -> Result<Expr, WireError> {
    get_expr_at(r, 0)
}

fn get_expr_at(r: &mut Reader, depth: usize) -> Result<Expr, WireError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(Reader::corrupt("expr nested too deep"));
    }
    fn boxed(r: &mut Reader, depth: usize) -> Result<Box<Expr>, WireError> {
        Ok(Box::new(get_expr_at(r, depth + 1)?))
    }
    Ok(match r.u8("expr tag")? {
        0 => Expr::Var(r.str("expr var")?),
        1 => Expr::Const(get_term(r)?),
        2 => Expr::And(boxed(r, depth)?, boxed(r, depth)?),
        3 => Expr::Or(boxed(r, depth)?, boxed(r, depth)?),
        4 => Expr::Not(boxed(r, depth)?),
        5 => Expr::Cmp(get_cmp_op(r)?, boxed(r, depth)?, boxed(r, depth)?),
        6 => Expr::IsLiteral(boxed(r, depth)?),
        7 => Expr::IsIri(boxed(r, depth)?),
        8 => Expr::Lang(boxed(r, depth)?),
        9 => Expr::Str(boxed(r, depth)?),
        10 => Expr::StrLen(boxed(r, depth)?),
        11 => Expr::Contains(boxed(r, depth)?, boxed(r, depth)?),
        12 => Expr::StrStarts(boxed(r, depth)?, boxed(r, depth)?),
        13 => Expr::Regex(
            boxed(r, depth)?,
            r.str("regex pattern")?,
            r.bool("regex ci")?,
        ),
        14 => Expr::LCase(boxed(r, depth)?),
        15 => Expr::UCase(boxed(r, depth)?),
        16 => Expr::Year(boxed(r, depth)?),
        17 => Expr::Bound(r.str("bound var")?),
        _ => return Err(Reader::corrupt("expr tag")),
    })
}

fn put_aggregate(out: &mut Vec<u8>, a: &Aggregate) {
    match a {
        Aggregate::Count { distinct, var } => {
            put_u8(out, 0);
            put_bool(out, *distinct);
            put_opt_str(out, var);
        }
        Aggregate::Sum(v) => {
            put_u8(out, 1);
            put_str(out, v);
        }
        Aggregate::Min(v) => {
            put_u8(out, 2);
            put_str(out, v);
        }
        Aggregate::Max(v) => {
            put_u8(out, 3);
            put_str(out, v);
        }
        Aggregate::Avg(v) => {
            put_u8(out, 4);
            put_str(out, v);
        }
    }
}

fn get_aggregate(r: &mut Reader) -> Result<Aggregate, WireError> {
    Ok(match r.u8("aggregate tag")? {
        0 => Aggregate::Count {
            distinct: r.bool("count distinct")?,
            var: r.opt_str("count var")?,
        },
        1 => Aggregate::Sum(r.str("sum var")?),
        2 => Aggregate::Min(r.str("min var")?),
        3 => Aggregate::Max(r.str("max var")?),
        4 => Aggregate::Avg(r.str("avg var")?),
        _ => return Err(Reader::corrupt("aggregate tag")),
    })
}

fn put_projection(out: &mut Vec<u8>, p: &Projection) {
    match p {
        Projection::Star => put_u8(out, 0),
        Projection::Items(items) => {
            put_u8(out, 1);
            put_len(out, items.len());
            for item in items {
                match item {
                    SelectItem::Var(v) => {
                        put_u8(out, 0);
                        put_str(out, v);
                    }
                    SelectItem::Agg { agg, alias } => {
                        put_u8(out, 1);
                        put_aggregate(out, agg);
                        put_str(out, alias);
                    }
                }
            }
        }
    }
}

fn get_projection(r: &mut Reader) -> Result<Projection, WireError> {
    match r.u8("projection tag")? {
        0 => Ok(Projection::Star),
        1 => {
            let n = r.len("projection items")?;
            let mut items = bounded_vec(n);
            for _ in 0..n {
                items.push(match r.u8("select item tag")? {
                    0 => SelectItem::Var(r.str("select var")?),
                    1 => SelectItem::Agg {
                        agg: get_aggregate(r)?,
                        alias: r.str("agg alias")?,
                    },
                    _ => return Err(Reader::corrupt("select item tag")),
                });
            }
            Ok(Projection::Items(items))
        }
        _ => Err(Reader::corrupt("projection tag")),
    }
}

fn put_graph_pattern(out: &mut Vec<u8>, p: &GraphPattern) {
    put_len(out, p.triples.len());
    for t in &p.triples {
        put_triple_pattern(out, t);
    }
    put_len(out, p.filters.len());
    for f in &p.filters {
        put_expr(out, f);
    }
    match &p.values {
        None => put_u8(out, 0),
        Some(data) => {
            put_u8(out, 1);
            put_str(out, &data.var);
            put_len(out, data.terms.len());
            for t in data.terms.iter() {
                put_term(out, t);
            }
        }
    }
}

fn get_graph_pattern(r: &mut Reader) -> Result<GraphPattern, WireError> {
    let nt = r.len("triples")?;
    let mut triples = bounded_vec(nt);
    for _ in 0..nt {
        triples.push(get_triple_pattern(r)?);
    }
    let nf = r.len("filters")?;
    let mut filters = bounded_vec(nf);
    for _ in 0..nf {
        filters.push(get_expr(r)?);
    }
    let values = match r.u8("values tag")? {
        0 => None,
        1 => {
            let var = r.str("values var")?;
            let n = r.len("values terms")?;
            let mut terms = bounded_vec(n);
            for _ in 0..n {
                terms.push(get_term(r)?);
            }
            Some(InlineData {
                var,
                terms: terms.into(),
            })
        }
        _ => return Err(Reader::corrupt("values tag")),
    };
    Ok(GraphPattern {
        triples,
        filters,
        values,
    })
}

fn put_select_query(out: &mut Vec<u8>, q: &SelectQuery) {
    put_bool(out, q.distinct);
    put_projection(out, &q.projection);
    put_graph_pattern(out, &q.pattern);
    put_len(out, q.group_by.len());
    for g in &q.group_by {
        put_str(out, g);
    }
    put_len(out, q.order_by.len());
    for k in &q.order_by {
        put_expr(out, &k.expr);
        put_bool(out, k.descending);
    }
    put_opt_usize(out, &q.limit);
    put_opt_usize(out, &q.offset);
}

fn get_select_query(r: &mut Reader) -> Result<SelectQuery, WireError> {
    let distinct = r.bool("distinct")?;
    let projection = get_projection(r)?;
    let pattern = get_graph_pattern(r)?;
    let ng = r.len("group by")?;
    let mut group_by = bounded_vec(ng);
    for _ in 0..ng {
        group_by.push(r.str("group var")?);
    }
    let no = r.len("order by")?;
    let mut order_by = bounded_vec(no);
    for _ in 0..no {
        order_by.push(OrderKey {
            expr: get_expr(r)?,
            descending: r.bool("descending")?,
        });
    }
    Ok(SelectQuery {
        distinct,
        projection,
        pattern,
        group_by,
        order_by,
        limit: r.opt_usize("limit")?,
        offset: r.opt_usize("offset")?,
    })
}

fn put_query(out: &mut Vec<u8>, q: &Query) {
    match q {
        Query::Select(s) => {
            put_u8(out, 0);
            put_select_query(out, s);
        }
        Query::Ask(p) => {
            put_u8(out, 1);
            put_graph_pattern(out, p);
        }
    }
}

fn get_query(r: &mut Reader) -> Result<Query, WireError> {
    match r.u8("query tag")? {
        0 => Ok(Query::Select(get_select_query(r)?)),
        1 => Ok(Query::Ask(get_graph_pattern(r)?)),
        _ => Err(Reader::corrupt("query tag")),
    }
}

// ------------------------------------------------------------- solutions --

fn put_solutions(out: &mut Vec<u8>, s: &Solutions) {
    put_len(out, s.vars.len());
    for v in &s.vars {
        put_str(out, v);
    }
    put_len(out, s.rows.len());
    for row in &s.rows {
        put_len(out, row.len());
        for cell in row {
            put_opt_term(out, cell);
        }
    }
}

fn get_solutions(r: &mut Reader) -> Result<Solutions, WireError> {
    let nv = r.len("vars")?;
    let mut vars = bounded_vec(nv);
    for _ in 0..nv {
        vars.push(r.str("var name")?);
    }
    let nr = r.len("rows")?;
    let mut rows = bounded_vec(nr);
    for _ in 0..nr {
        let nc = r.len("row cells")?;
        let mut row = bounded_vec(nc);
        for _ in 0..nc {
            row.push(get_opt_term(r)?);
        }
        rows.push(row);
    }
    Ok(Solutions { vars, rows })
}

fn put_query_result(out: &mut Vec<u8>, qr: &QueryResult) {
    match qr {
        QueryResult::Solutions(s) => {
            put_u8(out, 0);
            put_solutions(out, s);
        }
        QueryResult::Boolean(b) => {
            put_u8(out, 1);
            put_bool(out, *b);
        }
    }
}

fn get_query_result(r: &mut Reader) -> Result<QueryResult, WireError> {
    match r.u8("query result tag")? {
        0 => Ok(QueryResult::Solutions(get_solutions(r)?)),
        1 => Ok(QueryResult::Boolean(r.bool("ask result")?)),
        _ => Err(Reader::corrupt("query result tag")),
    }
}

// ------------------------------------------------------------ QCM payload --

fn put_completion_result(out: &mut Vec<u8>, c: &CompletionResult) {
    put_len(out, c.suggestions.len());
    for s in &c.suggestions {
        put_str(out, &s.text);
        put_opt_str(out, &s.predicate_iri);
        put_u8(
            out,
            match s.source {
                MatchSource::SuffixTree => 0,
                MatchSource::ResidualBins => 1,
            },
        );
    }
    put_bool(out, c.tree_hit);
    put_duration(out, c.tree_time);
    put_duration(out, c.bins_time);
    put_usize(out, c.residual_candidates);
}

fn get_completion_result(r: &mut Reader) -> Result<CompletionResult, WireError> {
    let n = r.len("suggestions")?;
    let mut suggestions = bounded_vec(n);
    for _ in 0..n {
        suggestions.push(Completion {
            text: r.str("suggestion text")?,
            predicate_iri: r.opt_str("suggestion iri")?,
            source: match r.u8("match source")? {
                0 => MatchSource::SuffixTree,
                1 => MatchSource::ResidualBins,
                _ => return Err(Reader::corrupt("match source")),
            },
        });
    }
    Ok(CompletionResult {
        suggestions,
        tree_hit: r.bool("tree hit")?,
        tree_time: r.duration("tree time")?,
        bins_time: r.duration("bins time")?,
        residual_candidates: r.usize("residual candidates")?,
    })
}

// ------------------------------------------------------------ QSM payload --

fn put_term_alternative(out: &mut Vec<u8>, a: &TermAlternative) {
    put_usize(out, a.triple_index);
    put_u8(
        out,
        match a.position {
            AlteredPosition::Predicate => 0,
            AlteredPosition::Object => 1,
        },
    );
    put_str(out, &a.original);
    put_str(out, &a.replacement);
    put_f64(out, a.similarity);
    put_term(out, &a.term);
    put_solutions(out, &a.answers);
}

fn get_term_alternative(r: &mut Reader) -> Result<TermAlternative, WireError> {
    Ok(TermAlternative {
        triple_index: r.usize("triple index")?,
        position: match r.u8("altered position")? {
            0 => AlteredPosition::Predicate,
            1 => AlteredPosition::Object,
            _ => return Err(Reader::corrupt("altered position")),
        },
        original: r.str("original")?,
        replacement: r.str("replacement")?,
        similarity: r.f64("similarity")?,
        term: get_term(r)?,
        answers: get_solutions(r)?,
    })
}

fn put_alternatives(out: &mut Vec<u8>, alts: &[TermAlternative]) {
    put_len(out, alts.len());
    for a in alts {
        put_term_alternative(out, a);
    }
}

fn get_alternatives(r: &mut Reader) -> Result<Vec<TermAlternative>, WireError> {
    let n = r.len("alternatives")?;
    let mut alts = bounded_vec(n);
    for _ in 0..n {
        alts.push(get_term_alternative(r)?);
    }
    Ok(alts)
}

fn put_qsm_output(out: &mut Vec<u8>, q: &QsmOutput) {
    put_alternatives(out, &q.alternatives);
    put_len(out, q.relaxations.len());
    for s in &q.relaxations {
        put_select_query(out, &s.relaxed.query);
        put_len(out, s.relaxed.tree.len());
        for (a, b, c) in &s.relaxed.tree {
            put_term(out, a);
            put_term(out, b);
            put_term(out, c);
        }
        put_len(out, s.relaxed.terminals.len());
        for t in &s.relaxed.terminals {
            put_term(out, t);
        }
        put_usize(out, s.relaxed.queries_used);
        put_bool(out, s.relaxed.complete);
        put_solutions(out, &s.answers);
    }
    put_alternatives(out, &q.candidates);
    put_duration(out, q.elapsed);
    put_usize(out, q.tier);
    put_bool(out, q.degraded);
}

fn get_qsm_output(r: &mut Reader) -> Result<QsmOutput, WireError> {
    let alternatives = get_alternatives(r)?;
    let nr = r.len("relaxations")?;
    let mut relaxations = bounded_vec(nr);
    for _ in 0..nr {
        let query = get_select_query(r)?;
        let ne = r.len("tree edges")?;
        let mut tree = bounded_vec(ne);
        for _ in 0..ne {
            tree.push((get_term(r)?, get_term(r)?, get_term(r)?));
        }
        let nt = r.len("terminals")?;
        let mut terminals = bounded_vec(nt);
        for _ in 0..nt {
            terminals.push(get_term(r)?);
        }
        let queries_used = r.usize("queries used")?;
        let complete = r.bool("relaxation complete")?;
        let answers = get_solutions(r)?;
        relaxations.push(StructureSuggestion {
            relaxed: RelaxedQuery {
                query,
                tree,
                terminals,
                queries_used,
                complete,
            },
            answers,
        });
    }
    Ok(QsmOutput {
        alternatives,
        relaxations,
        candidates: Arc::new(get_alternatives(r)?),
        elapsed: r.duration("elapsed")?,
        tier: r.usize("tier")?,
        degraded: r.bool("degraded")?,
    })
}

fn put_run_payload(out: &mut Vec<u8>, p: &RunPayload) {
    put_solutions(out, &p.answers);
    put_bool(out, p.executed);
    put_qsm_output(out, &p.suggestions);
}

fn get_run_payload(r: &mut Reader) -> Result<RunPayload, WireError> {
    Ok(RunPayload {
        answers: get_solutions(r)?,
        executed: r.bool("executed")?,
        suggestions: Arc::new(get_qsm_output(r)?),
    })
}

// ------------------------------------------------------------ ServerError --

fn put_server_error(out: &mut Vec<u8>, e: &ServerError) {
    match e {
        ServerError::Overloaded {
            in_flight,
            queue_depth,
        } => {
            put_u8(out, 0);
            put_usize(out, *in_flight);
            put_usize(out, *queue_depth);
        }
        ServerError::QueueTimeout { waited_ms } => {
            put_u8(out, 1);
            put_u64(out, *waited_ms);
        }
        ServerError::Timeout { work_used } => {
            put_u8(out, 2);
            put_u64(out, *work_used);
        }
        ServerError::QuotaExhausted {
            tenant,
            used,
            budget,
        } => {
            put_u8(out, 3);
            put_str(out, tenant);
            put_u64(out, *used);
            put_u64(out, *budget);
        }
        ServerError::UnknownSession(id) => {
            put_u8(out, 4);
            put_u64(out, id.0);
        }
        ServerError::SessionLimit { open, limit } => {
            put_u8(out, 5);
            put_usize(out, *open);
            put_usize(out, *limit);
        }
        ServerError::UnknownSuggestion { index, available } => {
            put_u8(out, 6);
            put_usize(out, *index);
            put_usize(out, *available);
        }
        ServerError::ShuttingDown => put_u8(out, 7),
        ServerError::Session(se) => {
            put_u8(out, 8);
            match se {
                SessionError::InvalidSubject(s) => {
                    put_u8(out, 0);
                    put_str(out, s);
                }
                SessionError::UnknownPredicate(s) => {
                    put_u8(out, 1);
                    put_str(out, s);
                }
                SessionError::EmptyQuery => put_u8(out, 2),
            }
        }
        ServerError::Unreachable { reason } => {
            put_u8(out, 9);
            put_str(out, reason);
        }
        ServerError::Backend(m) => {
            put_u8(out, 10);
            put_str(out, m);
        }
    }
}

fn get_server_error(r: &mut Reader) -> Result<ServerError, WireError> {
    Ok(match r.u8("server error tag")? {
        0 => ServerError::Overloaded {
            in_flight: r.usize("in flight")?,
            queue_depth: r.usize("queue depth")?,
        },
        1 => ServerError::QueueTimeout {
            waited_ms: r.u64("waited ms")?,
        },
        2 => ServerError::Timeout {
            work_used: r.u64("work used")?,
        },
        3 => ServerError::QuotaExhausted {
            tenant: r.str("tenant")?,
            used: r.u64("used")?,
            budget: r.u64("budget")?,
        },
        4 => ServerError::UnknownSession(SessionId(r.u64("session id")?)),
        5 => ServerError::SessionLimit {
            open: r.usize("open")?,
            limit: r.usize("limit")?,
        },
        6 => ServerError::UnknownSuggestion {
            index: r.usize("index")?,
            available: r.usize("available")?,
        },
        7 => ServerError::ShuttingDown,
        8 => ServerError::Session(match r.u8("session error tag")? {
            0 => SessionError::InvalidSubject(r.str("invalid subject")?),
            1 => SessionError::UnknownPredicate(r.str("unknown predicate")?),
            2 => SessionError::EmptyQuery,
            _ => return Err(Reader::corrupt("session error tag")),
        }),
        9 => ServerError::Unreachable {
            reason: r.str("reason")?,
        },
        10 => ServerError::Backend(r.str("backend message")?),
        _ => return Err(Reader::corrupt("server error tag")),
    })
}

// -------------------------------------------------------- frame payloads --

/// Encode a [`WireRequest`] as a REQUEST frame payload.
pub fn encode_request(req: &WireRequest) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        WireRequest::Complete {
            tenant,
            term,
            fetch,
        } => {
            put_u8(&mut out, 0);
            put_str(&mut out, tenant);
            put_str(&mut out, term);
            put_usize(&mut out, *fetch);
        }
        WireRequest::Run {
            tenant,
            query,
            tier,
            budget,
        } => {
            put_u8(&mut out, 1);
            put_str(&mut out, tenant);
            put_select_query(&mut out, query);
            put_usize(&mut out, *tier);
            match budget {
                None => put_u8(&mut out, 0),
                Some(d) => {
                    put_u8(&mut out, 1);
                    put_duration(&mut out, *d);
                }
            }
        }
        WireRequest::Raw { tenant, query } => {
            put_u8(&mut out, 2);
            put_str(&mut out, tenant);
            put_query(&mut out, query);
        }
    }
    out
}

/// Decode a REQUEST frame payload.
pub fn decode_request(buf: &[u8]) -> Result<WireRequest, WireError> {
    let mut r = Reader::new(buf);
    let req = match r.u8("request tag")? {
        0 => WireRequest::Complete {
            tenant: r.str("tenant")?,
            term: r.str("term")?,
            fetch: r.usize("fetch")?,
        },
        1 => WireRequest::Run {
            tenant: r.str("tenant")?,
            query: get_select_query(&mut r)?,
            tier: r.usize("tier")?,
            budget: match r.u8("budget present")? {
                0 => None,
                1 => Some(r.duration("budget")?),
                _ => return Err(Reader::corrupt("budget present")),
            },
        },
        2 => WireRequest::Raw {
            tenant: r.str("tenant")?,
            query: get_query(&mut r)?,
        },
        _ => return Err(Reader::corrupt("request tag")),
    };
    r.done()?;
    Ok(req)
}

/// Encode a REPLY frame payload: load header, ok/err tag, then the body.
pub fn encode_reply(load: LoadHeader, result: &Result<WireReply, ServerError>) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, load.in_flight);
    put_u32(&mut out, load.queued);
    put_u8(&mut out, load.pressure);
    match result {
        Ok(reply) => {
            put_u8(&mut out, 1);
            match reply {
                WireReply::Completion(c) => {
                    put_u8(&mut out, 0);
                    put_completion_result(&mut out, c);
                }
                WireReply::Run(p) => {
                    put_u8(&mut out, 1);
                    put_run_payload(&mut out, p);
                }
                WireReply::Raw(qr) => {
                    put_u8(&mut out, 2);
                    put_query_result(&mut out, qr);
                }
            }
        }
        Err(e) => {
            put_u8(&mut out, 0);
            put_server_error(&mut out, e);
        }
    }
    out
}

/// Decode a REPLY frame payload.
pub fn decode_reply(buf: &[u8]) -> Result<(LoadHeader, Result<WireReply, ServerError>), WireError> {
    let mut r = Reader::new(buf);
    let load = LoadHeader {
        in_flight: r.u32("load in flight")?,
        queued: r.u32("load queued")?,
        pressure: r.u8("load pressure")?,
    };
    let result = match r.u8("reply ok tag")? {
        0 => Err(get_server_error(&mut r)?),
        1 => Ok(match r.u8("reply body tag")? {
            0 => WireReply::Completion(get_completion_result(&mut r)?),
            1 => WireReply::Run(get_run_payload(&mut r)?),
            2 => WireReply::Raw(get_query_result(&mut r)?),
            _ => return Err(Reader::corrupt("reply body tag")),
        }),
        _ => return Err(Reader::corrupt("reply ok tag")),
    };
    r.done()?;
    Ok((load, result))
}

/// Encode a HELLO frame payload: the protocol version the client offers.
pub fn encode_hello(version: u32) -> Vec<u8> {
    version.to_le_bytes().to_vec()
}

/// Decode a HELLO frame payload.
pub fn decode_hello(buf: &[u8]) -> Result<u32, WireError> {
    let mut r = Reader::new(buf);
    let v = r.u32("hello version")?;
    r.done()?;
    Ok(v)
}

/// Encode a HELLO_OK frame payload: the replica's name, its model's top-k,
/// the largest frame it will accept, and the protocol version it chose.
pub fn encode_hello_ok(name: &str, k: usize, max_frame: u32, chosen_version: u32) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, name);
    put_usize(&mut out, k);
    put_u32(&mut out, max_frame);
    put_u32(&mut out, chosen_version);
    out
}

/// Decode a HELLO_OK frame payload into
/// `(name, k, max_frame, chosen_version)`.
pub fn decode_hello_ok(buf: &[u8]) -> Result<(String, usize, u32, u32), WireError> {
    let mut r = Reader::new(buf);
    let name = r.str("replica name")?;
    let k = r.usize("top k")?;
    let max_frame = r.u32("max frame")?;
    let chosen_version = r.u32("chosen version")?;
    r.done()?;
    Ok((name, k, max_frame, chosen_version))
}

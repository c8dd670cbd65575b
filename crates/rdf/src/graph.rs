//! An indexed, in-memory RDF graph with **columnar** storage.
//!
//! Triples are stored as interned id-triples in three rotated, sorted
//! columnar arrays (SPO, POS, OSP) so every bound/unbound combination of a
//! triple pattern is answerable with a binary-search range scan over a
//! contiguous `Vec` — the layout production triple stores persist, which is
//! exactly why the [`crate::snapshot`] format can be the same bytes on disk
//! as in memory.
//!
//! Mutation happens through a small sorted **delta overlay** (B-tree sets,
//! the seed implementation's structure) that is merged into the columns when
//! it grows past a fraction of the sealed size, and [`Graph::seal`] forces a
//! full merge. Scans interleave the sealed columns with the overlay in sort
//! order, so results are byte-identical to the historical all-B-tree
//! implementation regardless of when compaction happened. Bulk construction
//! ([`Graph::from_term_triples`]) skips the overlay entirely: intern, sort
//! each column once, done — the path datagen and the partitioner use.

use std::collections::BTreeSet;
use std::ops::Bound;

use crate::interner::{Interner, TermId};
use crate::term::Term;

/// A triple of interned term ids, in (subject, predicate, object) order.
pub type IdTriple = [TermId; 3];

/// A raw column entry. Rotation depends on the column: SPO holds
/// `(s, p, o)`, POS holds `(p, o, s)`, OSP holds `(o, s, p)`.
type Row = (u32, u32, u32);

/// Compact the delta overlay once it reaches this many triples (or a
/// quarter of the sealed size, whichever is larger): sealed size then grows
/// by at least 25% per compaction, so a build of `n` inserts costs
/// `O(n log n)` total merge work instead of `O(n²)`.
const DELTA_COMPACT_FLOOR: usize = 4096;

/// An in-memory RDF graph with sorted columnar SPO/POS/OSP indexes, a
/// B-tree delta overlay for incremental inserts, and a shared term interner.
#[derive(Default, Debug)]
pub struct Graph {
    interner: Interner,
    spo: Vec<Row>,
    pos: Vec<Row>,
    osp: Vec<Row>,
    delta_spo: BTreeSet<Row>,
    delta_pos: BTreeSet<Row>,
    delta_osp: BTreeSet<Row>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a **sealed** graph from term triples in one pass: terms are
    /// interned in `(s, p, o)` order per triple (identical id assignment to
    /// repeated [`Graph::insert`] calls over the same sequence), duplicates
    /// dropped, each column sorted exactly once. This is the bulk path the
    /// dataset generator and the [`crate::Partitioner`] use; the result is
    /// immediately snapshot-writable.
    pub fn from_term_triples<I>(triples: I) -> Self
    where
        I: IntoIterator<Item = (Term, Term, Term)>,
    {
        let mut interner = Interner::new();
        let iter = triples.into_iter();
        let mut spo: Vec<Row> = Vec::with_capacity(iter.size_hint().0);
        for (s, p, o) in iter {
            let s = interner.intern(s);
            let p = interner.intern(p);
            let o = interner.intern(o);
            spo.push((s.0, p.0, o.0));
        }
        spo.sort_unstable();
        spo.dedup();
        let mut pos: Vec<Row> = spo.iter().map(|&(s, p, o)| (p, o, s)).collect();
        pos.sort_unstable();
        let mut osp: Vec<Row> = spo.iter().map(|&(s, p, o)| (o, s, p)).collect();
        osp.sort_unstable();
        Graph {
            interner,
            spo,
            pos,
            osp,
            delta_spo: BTreeSet::new(),
            delta_pos: BTreeSet::new(),
            delta_osp: BTreeSet::new(),
        }
    }

    /// Reassemble a sealed graph from its interner and raw sorted columns —
    /// the snapshot loader's constructor. The caller (the snapshot module)
    /// has already validated sortedness, rotation consistency, and id
    /// bounds; debug builds re-check sortedness.
    pub(crate) fn from_columns(
        interner: Interner,
        spo: Vec<Row>,
        pos: Vec<Row>,
        osp: Vec<Row>,
    ) -> Self {
        debug_assert!(spo.windows(2).all(|w| w[0] < w[1]), "spo column sorted");
        debug_assert!(pos.windows(2).all(|w| w[0] < w[1]), "pos column sorted");
        debug_assert!(osp.windows(2).all(|w| w[0] < w[1]), "osp column sorted");
        Graph {
            interner,
            spo,
            pos,
            osp,
            delta_spo: BTreeSet::new(),
            delta_pos: BTreeSet::new(),
            delta_osp: BTreeSet::new(),
        }
    }

    /// The sealed columns, if the delta overlay is empty. The snapshot
    /// writer refuses unsealed graphs through this (typed, at its layer).
    pub(crate) fn sealed_columns(&self) -> Option<(&[Row], &[Row], &[Row])> {
        self.is_sealed()
            .then_some((&self.spo[..], &self.pos[..], &self.osp[..]))
    }

    /// True if every triple lives in the sorted columns (the delta overlay
    /// is empty) — the precondition for writing a snapshot.
    pub fn is_sealed(&self) -> bool {
        self.delta_spo.is_empty()
    }

    /// Merge the delta overlay into the sorted columns. Idempotent; a
    /// sealed graph is required by the snapshot writer and is also the
    /// fastest to scan (every range is one contiguous slice).
    pub fn seal(&mut self) {
        if self.is_sealed() {
            return;
        }
        merge_delta(&mut self.spo, std::mem::take(&mut self.delta_spo));
        merge_delta(&mut self.pos, std::mem::take(&mut self.delta_pos));
        merge_delta(&mut self.osp, std::mem::take(&mut self.delta_osp));
    }

    /// Number of (distinct) triples.
    pub fn len(&self) -> usize {
        self.spo.len() + self.delta_spo.len()
    }

    /// True if the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Access to the term interner (read-only).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Intern a term without asserting any triple.
    pub fn intern(&mut self, term: Term) -> TermId {
        self.interner.intern(term)
    }

    /// Look up the id of a term, if it occurs anywhere in the graph's interner.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.interner.get(term)
    }

    /// Resolve an id back to a term.
    pub fn term(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    /// Insert a triple of terms. Returns `true` if the triple was new.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) -> bool {
        let s = self.interner.intern(s);
        let p = self.interner.intern(p);
        let o = self.interner.intern(o);
        self.insert_ids([s, p, o])
    }

    /// Insert a triple of already-interned ids. Returns `true` if new.
    ///
    /// New triples land in the delta overlay; once the overlay reaches a
    /// quarter of the sealed column size it is merged in, keeping
    /// insert-heavy builds `O(n log n)` overall.
    pub fn insert_ids(&mut self, t: IdTriple) -> bool {
        let row = (t[0].0, t[1].0, t[2].0);
        if self.spo.binary_search(&row).is_ok() {
            return false;
        }
        let added = self.delta_spo.insert(row);
        if added {
            let (s, p, o) = row;
            self.delta_pos.insert((p, o, s));
            self.delta_osp.insert((o, s, p));
            if self.delta_spo.len() >= DELTA_COMPACT_FLOOR.max(self.spo.len() / 4) {
                self.seal();
            }
        }
        added
    }

    /// True if the exact triple is present.
    pub fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.term_id(s), self.term_id(p), self.term_id(o)) {
            (Some(s), Some(p), Some(o)) => self.contains_row((s.0, p.0, o.0)),
            _ => false,
        }
    }

    fn contains_row(&self, row: Row) -> bool {
        self.spo.binary_search(&row).is_ok() || self.delta_spo.contains(&row)
    }

    /// All triples matching a pattern of optionally-bound ids, materialized.
    ///
    /// Chooses the most selective index for the bound positions. Results are
    /// produced in index order; every yielded triple is in (s, p, o) order.
    pub fn matching(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
        self.triples_matching(s, p, o).collect()
    }

    /// Count the triples matching a pattern without materializing them: a
    /// range subtraction on the sealed column plus the overlay's range.
    pub fn count_matching(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        self.triples_matching(s, p, o).remaining()
    }

    /// Visit each triple matching the pattern; the callback returns `false`
    /// to stop early (used by LIMIT-style early exits).
    pub fn for_each_matching<F>(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        mut f: F,
    ) where
        F: FnMut(IdTriple) -> bool,
    {
        for t in self.triples_matching(s, p, o) {
            if !f(t) {
                return;
            }
        }
    }

    /// The range of triples matching a pattern, as an iterator that knows
    /// how many it has left ([`Matches::remaining`]) — what a caller needs to
    /// account for a scan before walking it, and to recurse inside the walk.
    /// Same index choice and order as [`matching`](Self::matching).
    pub fn triples_matching(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Matches<'_> {
        let (col, scan) = match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let row = (s.0, p.0, o.0);
                (Col::Spo, self.scan(Col::Spo, row, row))
            }
            (Some(s), Some(p), None) => (Col::Spo, self.scan2(Col::Spo, s.0, p.0)),
            (Some(s), None, None) => (Col::Spo, self.scan1(Col::Spo, s.0)),
            (None, Some(p), Some(o)) => (Col::Pos, self.scan2(Col::Pos, p.0, o.0)),
            (None, Some(p), None) => (Col::Pos, self.scan1(Col::Pos, p.0)),
            (None, None, Some(o)) => (Col::Osp, self.scan1(Col::Osp, o.0)),
            (Some(s), None, Some(o)) => (Col::Osp, self.scan2(Col::Osp, o.0, s.0)),
            (None, None, None) => (Col::Spo, self.scan_all(Col::Spo)),
        };
        Matches { col, scan }
    }

    /// Estimated cardinality of a pattern — used for join ordering. Exact for
    /// fully-indexed prefixes, which all our patterns are.
    pub fn cardinality(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        self.count_matching(s, p, o)
    }

    /// In-degree of a term: the number of triples in which it is the object.
    /// This powers the literal significance score (Definition 1).
    pub fn in_degree(&self, id: TermId) -> usize {
        self.scan1(Col::Osp, id.0).remaining()
    }

    /// Out-degree of a term: the number of triples in which it is the subject.
    pub fn out_degree(&self, id: TermId) -> usize {
        self.scan1(Col::Spo, id.0).remaining()
    }

    /// Per-predicate triple counts, optionally restricted to triples with
    /// literal objects. This is the statistic real endpoints keep for query
    /// planning and answer `GROUP BY ?p` aggregates from; the simulated
    /// endpoint uses it for the same purpose.
    pub fn predicate_counts(&self, literal_objects_only: bool) -> Vec<(TermId, usize)> {
        let mut out: Vec<(TermId, usize)> = Vec::new();
        for (p, o, _s) in self.scan_all(Col::Pos) {
            if literal_objects_only && !self.interner.resolve(TermId(o)).is_literal() {
                continue;
            }
            match out.last_mut() {
                Some((last, n)) if last.0 == p => *n += 1,
                _ => out.push((TermId(p), 1)),
            }
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Per-type instance counts (subjects per `rdf:type` object).
    pub fn type_counts(&self) -> Vec<(TermId, usize)> {
        let type_term = Term::iri(crate::vocab::rdf::TYPE);
        let Some(type_id) = self.interner.get(&type_term) else {
            return Vec::new();
        };
        // The pos scan for `rdf:type` is ordered by object, so each class's
        // triples are consecutive — count runs, exactly as
        // `predicate_counts` does.
        let mut out: Vec<(TermId, usize)> = Vec::new();
        for (_p, o, _s) in self.scan1(Col::Pos, type_id.0) {
            match out.last_mut() {
                Some((last, n)) if last.0 == o => *n += 1,
                _ => out.push((TermId(o), 1)),
            }
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Iterate over every triple as term references.
    pub fn iter_terms(&self) -> impl Iterator<Item = (&Term, &Term, &Term)> {
        self.scan_all(Col::Spo).map(move |(s, p, o)| {
            (
                self.interner.resolve(TermId(s)),
                self.interner.resolve(TermId(p)),
                self.interner.resolve(TermId(o)),
            )
        })
    }

    fn column(&self, col: Col) -> (&[Row], &BTreeSet<Row>) {
        match col {
            Col::Spo => (&self.spo, &self.delta_spo),
            Col::Pos => (&self.pos, &self.delta_pos),
            Col::Osp => (&self.osp, &self.delta_osp),
        }
    }

    /// All rows of one column whose first component is `a`, interleaving the
    /// sealed slice (binary-searched bounds) with the delta overlay in sort
    /// order.
    fn scan1(&self, col: Col, a: u32) -> MergedScan<'_> {
        self.scan(col, (a, 0, 0), (a, u32::MAX, u32::MAX))
    }

    /// All rows of one column whose first two components are `(a, b)`.
    fn scan2(&self, col: Col, a: u32, b: u32) -> MergedScan<'_> {
        self.scan(col, (a, b, 0), (a, b, u32::MAX))
    }

    /// Every row of one column.
    fn scan_all(&self, col: Col) -> MergedScan<'_> {
        self.scan(col, (0, 0, 0), (u32::MAX, u32::MAX, u32::MAX))
    }

    fn scan(&self, col: Col, lo: Row, hi: Row) -> MergedScan<'_> {
        let (column, delta) = self.column(col);
        let start = column.partition_point(|&r| r < lo);
        // A pattern's range is short next to the column: find its end by
        // doubling steps from its start, not by a second full bisection.
        let rest = &column[start..];
        let mut step = 1;
        while step < rest.len() && rest[step - 1] <= hi {
            step *= 2;
        }
        let end =
            start + step / 2 + rest[step / 2..step.min(rest.len())].partition_point(|&r| r <= hi);
        MergedScan {
            col: column[start..end].iter(),
            delta: delta.range((Bound::Included(lo), Bound::Included(hi))),
            col_next: None,
            delta_next: None,
        }
    }
}

#[derive(Clone, Copy)]
enum Col {
    Spo,
    Pos,
    Osp,
}

/// Sorted interleave of a sealed column slice and the delta overlay's range
/// over the same bounds. The two sources are disjoint by construction
/// (inserts check the sealed column first), so a plain two-way merge yields
/// exactly the order one B-tree over all rows would have.
struct MergedScan<'a> {
    col: std::slice::Iter<'a, Row>,
    delta: std::collections::btree_set::Range<'a, Row>,
    col_next: Option<Row>,
    delta_next: Option<Row>,
}

impl Iterator for MergedScan<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        if self.col_next.is_none() {
            self.col_next = self.col.next().copied();
        }
        if self.delta_next.is_none() {
            self.delta_next = self.delta.next().copied();
        }
        match (self.col_next, self.delta_next) {
            (Some(c), Some(d)) => {
                if c <= d {
                    self.col_next = None;
                    if c == d {
                        self.delta_next = None;
                    }
                    Some(c)
                } else {
                    self.delta_next = None;
                    Some(d)
                }
            }
            (Some(c), None) => {
                self.col_next = None;
                Some(c)
            }
            (None, Some(d)) => {
                self.delta_next = None;
                Some(d)
            }
            (None, None) => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (col_lo, col_hi) = self.col.size_hint();
        let (delta_lo, delta_hi) = self.delta.size_hint();
        let buffered =
            usize::from(self.col_next.is_some()) + usize::from(self.delta_next.is_some());
        (
            col_lo.max(delta_lo) + buffered,
            col_hi.and_then(|c| delta_hi.map(|d| c + d + buffered)),
        )
    }
}

impl MergedScan<'_> {
    /// Rows left: the sealed slice's length plus the overlay range's (the
    /// two are disjoint; the overlay is empty on a sealed graph).
    fn remaining(&self) -> usize {
        self.col.len()
            + self.delta.clone().count()
            + usize::from(self.col_next.is_some())
            + usize::from(self.delta_next.is_some())
    }
}

/// The triples matching one pattern, in index order — see
/// [`Graph::triples_matching`].
pub struct Matches<'a> {
    col: Col,
    scan: MergedScan<'a>,
}

impl Matches<'_> {
    /// Exactly how many triples the iterator has yet to yield.
    pub fn remaining(&self) -> usize {
        self.scan.remaining()
    }
}

impl Iterator for Matches<'_> {
    type Item = IdTriple;

    #[inline]
    fn next(&mut self) -> Option<IdTriple> {
        let (a, b, c) = self.scan.next()?;
        // Undo the column's rotation.
        let (s, p, o) = match self.col {
            Col::Spo => (a, b, c),
            Col::Pos => (c, a, b),
            Col::Osp => (b, c, a),
        };
        Some([TermId(s), TermId(p), TermId(o)])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.scan.size_hint()
    }
}

/// Merge a sorted delta set into a sorted column in one linear pass.
fn merge_delta(column: &mut Vec<Row>, delta: BTreeSet<Row>) {
    if delta.is_empty() {
        return;
    }
    let old = std::mem::replace(column, Vec::with_capacity(column.len() + delta.len()));
    let mut a = old.into_iter().peekable();
    let mut b = delta.into_iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    if x == y {
                        b.next();
                    }
                    column.push(x);
                    a.next();
                } else {
                    column.push(y);
                    b.next();
                }
            }
            (Some(_), None) => {
                column.extend(a);
                break;
            }
            (None, Some(_)) => {
                column.extend(b);
                break;
            }
            (None, None) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert(Term::iri("s1"), Term::iri("p1"), Term::iri("o1"));
        g.insert(Term::iri("s1"), Term::iri("p1"), Term::iri("o2"));
        g.insert(Term::iri("s1"), Term::iri("p2"), Term::iri("o1"));
        g.insert(Term::iri("s2"), Term::iri("p1"), Term::iri("o1"));
        g.insert(Term::iri("s2"), Term::iri("p2"), Term::en("two"));
        g
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = sample();
        assert_eq!(g.len(), 5);
        assert!(!g.insert(Term::iri("s1"), Term::iri("p1"), Term::iri("o1")));
        assert_eq!(g.len(), 5);
        // Sealing and re-inserting must still deduplicate (the sealed-column
        // binary search path, not the overlay path).
        g.seal();
        assert!(!g.insert(Term::iri("s1"), Term::iri("p1"), Term::iri("o1")));
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn contains_exact() {
        let g = sample();
        assert!(g.contains(&Term::iri("s1"), &Term::iri("p1"), &Term::iri("o1")));
        assert!(!g.contains(&Term::iri("s1"), &Term::iri("p1"), &Term::en("two")));
        assert!(!g.contains(&Term::iri("nope"), &Term::iri("p1"), &Term::iri("o1")));
    }

    #[test]
    fn all_access_patterns_agree() {
        let g = sample();
        let s1 = g.term_id(&Term::iri("s1")).unwrap();
        let p1 = g.term_id(&Term::iri("p1")).unwrap();
        let o1 = g.term_id(&Term::iri("o1")).unwrap();

        assert_eq!(g.matching(Some(s1), None, None).len(), 3);
        assert_eq!(g.matching(None, Some(p1), None).len(), 3);
        assert_eq!(g.matching(None, None, Some(o1)).len(), 3);
        assert_eq!(g.matching(Some(s1), Some(p1), None).len(), 2);
        assert_eq!(g.matching(None, Some(p1), Some(o1)).len(), 2);
        assert_eq!(g.matching(Some(s1), None, Some(o1)).len(), 2);
        assert_eq!(g.matching(Some(s1), Some(p1), Some(o1)).len(), 1);
        assert_eq!(g.matching(None, None, None).len(), 5);
    }

    #[test]
    fn sealed_and_unsealed_scans_agree() {
        // The same triples through the overlay path and through seal() must
        // answer every pattern shape with identical bytes in identical
        // order — the invariant the snapshot identity rests on.
        let unsealed = sample();
        let mut sealed = sample();
        sealed.seal();
        assert!(sealed.is_sealed() && !unsealed.is_sealed());
        let ids = [None, Some(TermId(0)), Some(TermId(1)), Some(TermId(4))];
        for s in ids {
            for p in ids {
                for o in ids {
                    assert_eq!(
                        unsealed.matching(s, p, o),
                        sealed.matching(s, p, o),
                        "pattern ({s:?},{p:?},{o:?})"
                    );
                    assert_eq!(
                        unsealed.count_matching(s, p, o),
                        sealed.count_matching(s, p, o)
                    );
                    // The range iterator knows its length up front and as
                    // it is walked, overlay or not.
                    for g in [&unsealed, &sealed] {
                        let mut matches = g.triples_matching(s, p, o);
                        let n = g.matching(s, p, o).len();
                        assert_eq!(matches.remaining(), n);
                        if matches.next().is_some() {
                            assert_eq!(matches.remaining(), n - 1);
                        }
                    }
                }
            }
        }
        let a: Vec<_> = unsealed.iter_terms().collect();
        let b: Vec<_> = sealed.iter_terms().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_build_matches_incremental_inserts() {
        let incremental = sample();
        let bulk = Graph::from_term_triples([
            (Term::iri("s1"), Term::iri("p1"), Term::iri("o1")),
            (Term::iri("s1"), Term::iri("p1"), Term::iri("o2")),
            (Term::iri("s1"), Term::iri("p2"), Term::iri("o1")),
            (Term::iri("s2"), Term::iri("p1"), Term::iri("o1")),
            (Term::iri("s2"), Term::iri("p2"), Term::en("two")),
            // A duplicate the bulk path must drop like insert() does.
            (Term::iri("s1"), Term::iri("p1"), Term::iri("o1")),
        ]);
        assert!(bulk.is_sealed());
        assert_eq!(bulk.len(), incremental.len());
        // Same interning order => same ids => identical id-triples.
        assert_eq!(
            bulk.matching(None, None, None),
            incremental.matching(None, None, None)
        );
        for (id, term) in incremental.interner().iter() {
            assert_eq!(bulk.interner().resolve(id), term);
        }
    }

    #[test]
    fn compaction_threshold_keeps_scans_correct() {
        // Push well past the compaction floor so inserts hit both the
        // "overlay" and the "freshly compacted" regimes.
        let mut g = Graph::new();
        let p = Term::iri("p");
        for i in 0..(DELTA_COMPACT_FLOOR * 2 + 7) {
            g.insert(Term::iri(format!("s{i}")), p.clone(), Term::iri("o"));
        }
        assert_eq!(g.len(), DELTA_COMPACT_FLOOR * 2 + 7);
        let p_id = g.term_id(&p).unwrap();
        assert_eq!(g.count_matching(None, Some(p_id), None), g.len());
        let o_id = g.term_id(&Term::iri("o")).unwrap();
        assert_eq!(g.in_degree(o_id), g.len());
    }

    #[test]
    fn matching_yields_spo_order_from_every_index() {
        let g = sample();
        let p1 = g.term_id(&Term::iri("p1")).unwrap();
        for t in g.matching(None, Some(p1), None) {
            assert_eq!(t[1], p1, "predicate position must hold the predicate");
        }
        let o1 = g.term_id(&Term::iri("o1")).unwrap();
        for t in g.matching(None, None, Some(o1)) {
            assert_eq!(t[2], o1, "object position must hold the object");
        }
    }

    #[test]
    fn degrees() {
        let g = sample();
        let o1 = g.term_id(&Term::iri("o1")).unwrap();
        let s1 = g.term_id(&Term::iri("s1")).unwrap();
        assert_eq!(g.in_degree(o1), 3);
        assert_eq!(g.out_degree(s1), 3);
        assert_eq!(g.in_degree(s1), 0);
    }

    #[test]
    fn early_exit_stops_scan() {
        let g = sample();
        let mut seen = 0;
        g.for_each_matching(None, None, None, |_| {
            seen += 1;
            seen < 2
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn count_matches_materialized_len() {
        let g = sample();
        let p1 = g.term_id(&Term::iri("p1")).unwrap();
        assert_eq!(
            g.count_matching(None, Some(p1), None),
            g.matching(None, Some(p1), None).len()
        );
    }

    #[test]
    fn type_counts_match_a_naive_tally_on_a_many_class_graph() {
        // Many distinct classes with interleaved insert order: the run-walk
        // over the pos scan must agree with a per-triple tally (the shape
        // the old O(distinct-classes)-per-triple scan handled correctly but
        // quadratically).
        let mut g = Graph::new();
        let rdf_type = Term::iri(crate::vocab::rdf::TYPE);
        for i in 0..50 {
            for c in 0..=(i % 7) {
                g.insert(
                    Term::iri(format!("s{i}-{c}")),
                    rdf_type.clone(),
                    Term::iri(format!("Class{c}")),
                );
            }
            // Non-type triples must not be counted.
            g.insert(
                Term::iri(format!("s{i}-0")),
                Term::iri("p"),
                Term::iri(format!("Class{}", i % 7)),
            );
        }
        let counts = g.type_counts();
        let mut naive: std::collections::HashMap<TermId, usize> = std::collections::HashMap::new();
        let type_id = g.term_id(&rdf_type).unwrap();
        for t in g.matching(None, Some(type_id), None) {
            *naive.entry(t[2]).or_default() += 1;
        }
        assert_eq!(counts.len(), naive.len());
        for (class, n) in &counts {
            assert_eq!(naive.get(class), Some(n));
        }
        // Ranked most-populous first, ties by TermId.
        assert!(counts
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
    }

    #[test]
    fn type_counts_empty_without_rdf_type() {
        assert!(sample().type_counts().is_empty());
    }
}

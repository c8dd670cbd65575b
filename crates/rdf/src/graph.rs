//! An immutable, indexed, in-memory RDF graph with **columnar** storage, and
//! the [`GraphBuilder`] that makes one.
//!
//! Triples are stored as interned id-triples in three rotated, sorted
//! columnar arrays (SPO, POS, OSP) so every bound/unbound combination of a
//! triple pattern is answerable with a binary-search range scan over a
//! contiguous `Vec` — the layout production triple stores persist, which is
//! exactly why the [`crate::snapshot`] format can be the same bytes on disk
//! as in memory.
//!
//! Sapphire builds its data once and then only reads it, so a [`Graph`] has
//! no method that adds a triple or interns a term. Construction goes through
//! a [`GraphBuilder`] — an interner plus the rows in insertion order — whose
//! [`build`](GraphBuilder::build) sorts each column exactly once and drops
//! duplicates. Term ids are first-occurrence order over the inserted
//! sequence (`s`, `p`, `o` per triple), so the same sequence always yields
//! the same ids, the same columns and the same snapshot bytes.

use crate::interner::{Interner, TermId};
use crate::term::Term;

/// A triple of interned term ids, in (subject, predicate, object) order.
pub type IdTriple = [TermId; 3];

/// A raw column entry. Rotation depends on the column: SPO holds
/// `(s, p, o)`, POS holds `(p, o, s)`, OSP holds `(o, s, p)`.
type Row = (u32, u32, u32);

/// Collects triples for a [`Graph`]: interns terms as they arrive and keeps
/// the rows unsorted until [`build`](Self::build).
#[derive(Default, Debug)]
pub struct GraphBuilder {
    interner: Interner,
    rows: Vec<Row>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a triple of terms, interning them in `(s, p, o)` order. A
    /// duplicate is accepted here and dropped by [`build`](Self::build).
    pub fn insert(&mut self, s: Term, p: Term, o: Term) {
        let s = self.interner.intern(s);
        let p = self.interner.intern(p);
        let o = self.interner.intern(o);
        self.rows.push((s.0, p.0, o.0));
    }

    /// Every triple inserted so far as term references, in insertion order,
    /// duplicates included.
    pub fn iter_terms(&self) -> impl Iterator<Item = (&Term, &Term, &Term)> {
        resolve_rows(&self.interner, &self.rows)
    }

    /// Sort each column once, drop duplicate triples, and hand back the
    /// immutable graph.
    pub fn build(self) -> Graph {
        let GraphBuilder {
            interner,
            rows: mut spo,
        } = self;
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
        }
    }
}

impl Extend<(Term, Term, Term)> for GraphBuilder {
    fn extend<I: IntoIterator<Item = (Term, Term, Term)>>(&mut self, triples: I) {
        let triples = triples.into_iter();
        self.rows.reserve(triples.size_hint().0);
        for (s, p, o) in triples {
            self.insert(s, p, o);
        }
    }
}

/// An immutable in-memory RDF graph: a term interner and sorted columnar
/// SPO/POS/OSP indexes. Made by a [`GraphBuilder`] or loaded from a
/// [`crate::snapshot`]; `Graph::default()` is the empty graph.
#[derive(Default, Debug)]
pub struct Graph {
    interner: Interner,
    spo: Vec<Row>,
    pos: Vec<Row>,
    osp: Vec<Row>,
}

impl Graph {
    /// Build a graph from a sequence of term triples — a [`GraphBuilder`]
    /// extended with the sequence and built.
    pub fn from_term_triples<I>(triples: I) -> Self
    where
        I: IntoIterator<Item = (Term, Term, Term)>,
    {
        let mut builder = GraphBuilder::new();
        builder.extend(triples);
        builder.build()
    }

    /// Reassemble a graph from its interner and raw sorted columns — the
    /// snapshot loader's constructor. The caller (the snapshot module) has
    /// already validated sortedness, rotation consistency, and id bounds;
    /// debug builds re-check sortedness.
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
        }
    }

    /// The SPO, POS and OSP columns, for the snapshot writer.
    pub(crate) fn columns(&self) -> [&[Row]; 3] {
        [&self.spo, &self.pos, &self.osp]
    }

    /// Number of (distinct) triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True if the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Access to the term interner (read-only).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Look up the id of a term, if it occurs anywhere in the graph's interner.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.interner.get(term)
    }

    /// Resolve an id back to a term.
    pub fn term(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    /// True if the exact triple is present.
    pub fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.term_id(s), self.term_id(p), self.term_id(o)) {
            (Some(s), Some(p), Some(o)) => self.spo.binary_search(&(s.0, p.0, o.0)).is_ok(),
            _ => false,
        }
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

    /// The range of triples matching a pattern of optionally-bound ids, as
    /// an [`ExactSizeIterator`]: `.len()` is the pattern's exact cardinality
    /// (what join ordering and scan accounting read) and costs nothing.
    ///
    /// Chooses the most selective index for the bound positions. Results are
    /// produced in index order; every yielded triple is in (s, p, o) order.
    pub fn triples_matching(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Matches<'_> {
        let (col, rows) = match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let row = (s.0, p.0, o.0);
                (Col::Spo, range(&self.spo, row, row))
            }
            (Some(s), Some(p), None) => (Col::Spo, scan2(&self.spo, s.0, p.0)),
            (Some(s), None, None) => (Col::Spo, scan1(&self.spo, s.0)),
            (None, Some(p), Some(o)) => (Col::Pos, scan2(&self.pos, p.0, o.0)),
            (None, Some(p), None) => (Col::Pos, scan1(&self.pos, p.0)),
            (None, None, Some(o)) => (Col::Osp, scan1(&self.osp, o.0)),
            (Some(s), None, Some(o)) => (Col::Osp, scan2(&self.osp, o.0, s.0)),
            (None, None, None) => (Col::Spo, &self.spo[..]),
        };
        Matches {
            col,
            rows: rows.iter(),
        }
    }

    /// In-degree of a term: the number of triples in which it is the object.
    /// This powers the literal significance score (Definition 1).
    pub fn in_degree(&self, id: TermId) -> usize {
        scan1(&self.osp, id.0).len()
    }

    /// Out-degree of a term: the number of triples in which it is the subject.
    pub fn out_degree(&self, id: TermId) -> usize {
        scan1(&self.spo, id.0).len()
    }

    /// Per-predicate triple counts, optionally restricted to triples with
    /// literal objects. This is the statistic real endpoints keep for query
    /// planning and answer `GROUP BY ?p` aggregates from; the simulated
    /// endpoint uses it for the same purpose.
    pub fn predicate_counts(&self, literal_objects_only: bool) -> Vec<(TermId, usize)> {
        let counted = self.pos.iter().filter(|&&(_p, o, _s)| {
            !literal_objects_only || self.interner.resolve(TermId(o)).is_literal()
        });
        ranked_runs(counted.map(|&(p, _o, _s)| p))
    }

    /// Per-type instance counts (subjects per `rdf:type` object).
    pub fn type_counts(&self) -> Vec<(TermId, usize)> {
        let type_term = Term::iri(crate::vocab::rdf::TYPE);
        let Some(type_id) = self.interner.get(&type_term) else {
            return Vec::new();
        };
        // The pos range for `rdf:type` is ordered by object, so each class's
        // triples are consecutive.
        ranked_runs(scan1(&self.pos, type_id.0).iter().map(|&(_p, o, _s)| o))
    }

    /// Iterate over every triple as term references.
    pub fn iter_terms(&self) -> impl Iterator<Item = (&Term, &Term, &Term)> {
        resolve_rows(&self.interner, &self.spo)
    }
}

/// `(s, p, o)` rows as term references.
fn resolve_rows<'a>(
    interner: &'a Interner,
    rows: &'a [Row],
) -> impl Iterator<Item = (&'a Term, &'a Term, &'a Term)> {
    rows.iter().map(move |&(s, p, o)| {
        (
            interner.resolve(TermId(s)),
            interner.resolve(TermId(p)),
            interner.resolve(TermId(o)),
        )
    })
}

/// Run lengths of a key sequence whose equal keys are consecutive, ranked
/// most frequent first, ties by id.
fn ranked_runs(keys: impl Iterator<Item = u32>) -> Vec<(TermId, usize)> {
    let mut out: Vec<(TermId, usize)> = Vec::new();
    for key in keys {
        match out.last_mut() {
            Some((last, n)) if last.0 == key => *n += 1,
            _ => out.push((TermId(key), 1)),
        }
    }
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// All rows of a column whose first component is `a`.
fn scan1(column: &[Row], a: u32) -> &[Row] {
    range(column, (a, 0, 0), (a, u32::MAX, u32::MAX))
}

/// All rows of a column whose first two components are `(a, b)`.
fn scan2(column: &[Row], a: u32, b: u32) -> &[Row] {
    range(column, (a, b, 0), (a, b, u32::MAX))
}

/// The contiguous slice of a sorted column within `lo ..= hi`.
fn range(column: &[Row], lo: Row, hi: Row) -> &[Row] {
    let rest = &column[column.partition_point(|&r| r < lo)..];
    // A pattern's range is short next to the column: find its end by
    // doubling steps from its start, not by a second full bisection.
    let mut step = 1;
    while step < rest.len() && rest[step - 1] <= hi {
        step *= 2;
    }
    let end = step / 2 + rest[step / 2..step.min(rest.len())].partition_point(|&r| r <= hi);
    &rest[..end]
}

#[derive(Clone, Copy)]
enum Col {
    Spo,
    Pos,
    Osp,
}

/// The triples matching one pattern, in index order — see
/// [`Graph::triples_matching`].
pub struct Matches<'a> {
    col: Col,
    rows: std::slice::Iter<'a, Row>,
}

impl Iterator for Matches<'_> {
    type Item = IdTriple;

    #[inline]
    fn next(&mut self) -> Option<IdTriple> {
        let &(a, b, c) = self.rows.next()?;
        // Undo the column's rotation.
        let (s, p, o) = match self.col {
            Col::Spo => (a, b, c),
            Col::Pos => (c, a, b),
            Col::Osp => (b, c, a),
        };
        Some([TermId(s), TermId(p), TermId(o)])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for Matches<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_triples() -> Vec<(Term, Term, Term)> {
        vec![
            (Term::iri("s1"), Term::iri("p1"), Term::iri("o1")),
            (Term::iri("s1"), Term::iri("p1"), Term::iri("o2")),
            (Term::iri("s1"), Term::iri("p2"), Term::iri("o1")),
            (Term::iri("s2"), Term::iri("p1"), Term::iri("o1")),
            (Term::iri("s2"), Term::iri("p2"), Term::en("two")),
        ]
    }

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        for (s, p, o) in sample_triples() {
            b.insert(s, p, o);
        }
        b.build()
    }

    fn matching(
        g: &Graph,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<IdTriple> {
        g.triples_matching(s, p, o).collect()
    }

    #[test]
    fn insert_deduplicates() {
        let mut b = GraphBuilder::new();
        b.extend(sample_triples());
        b.insert(Term::iri("s1"), Term::iri("p1"), Term::iri("o1"));
        assert_eq!(
            b.iter_terms().count(),
            6,
            "the builder keeps what it was given"
        );
        let g = b.build();
        assert_eq!(g.len(), 5);
        assert_eq!(g.iter_terms().count(), 5);
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
        let s1 = g.term_id(&Term::iri("s1"));
        let p1 = g.term_id(&Term::iri("p1"));
        let o1 = g.term_id(&Term::iri("o1"));
        assert!(s1.is_some() && p1.is_some() && o1.is_some());

        assert_eq!(matching(&g, s1, None, None).len(), 3);
        assert_eq!(matching(&g, None, p1, None).len(), 3);
        assert_eq!(matching(&g, None, None, o1).len(), 3);
        assert_eq!(matching(&g, s1, p1, None).len(), 2);
        assert_eq!(matching(&g, None, p1, o1).len(), 2);
        assert_eq!(matching(&g, s1, None, o1).len(), 2);
        assert_eq!(matching(&g, s1, p1, o1).len(), 1);
        assert_eq!(matching(&g, None, None, None).len(), 5);
    }

    #[test]
    fn bulk_build_matches_incremental_inserts() {
        let incremental = sample();
        let mut triples = sample_triples();
        // A duplicate the bulk path must drop like insert() does.
        triples.push((Term::iri("s1"), Term::iri("p1"), Term::iri("o1")));
        let bulk = Graph::from_term_triples(triples);
        assert_eq!(bulk.len(), incremental.len());
        // Same interning order => same ids => identical id-triples.
        assert_eq!(
            matching(&bulk, None, None, None),
            matching(&incremental, None, None, None)
        );
        for (id, term) in incremental.interner().iter() {
            assert_eq!(bulk.interner().resolve(id), term);
        }
    }

    #[test]
    fn matching_yields_spo_order_from_every_index() {
        let g = sample();
        let p1 = g.term_id(&Term::iri("p1")).unwrap();
        for t in g.triples_matching(None, Some(p1), None) {
            assert_eq!(t[1], p1, "predicate position must hold the predicate");
        }
        let o1 = g.term_id(&Term::iri("o1")).unwrap();
        for t in g.triples_matching(None, None, Some(o1)) {
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
        // The range iterator knows its length up front and as it is walked,
        // for every pattern shape.
        let g = sample();
        let ids = [None, Some(TermId(0)), Some(TermId(1)), Some(TermId(4))];
        for s in ids {
            for p in ids {
                for o in ids {
                    let n = matching(&g, s, p, o).len();
                    let mut matches = g.triples_matching(s, p, o);
                    assert_eq!(matches.len(), n, "pattern ({s:?},{p:?},{o:?})");
                    if matches.next().is_some() {
                        assert_eq!(matches.len(), n - 1);
                    }
                }
            }
        }
    }

    #[test]
    fn type_counts_match_a_naive_tally_on_a_many_class_graph() {
        // Many distinct classes with interleaved insert order: the run-walk
        // over the pos scan must agree with a per-triple tally (the shape
        // the old O(distinct-classes)-per-triple scan handled correctly but
        // quadratically).
        let mut b = GraphBuilder::new();
        let rdf_type = Term::iri(crate::vocab::rdf::TYPE);
        for i in 0..50 {
            for c in 0..=(i % 7) {
                b.insert(
                    Term::iri(format!("s{i}-{c}")),
                    rdf_type.clone(),
                    Term::iri(format!("Class{c}")),
                );
            }
            // Non-type triples must not be counted.
            b.insert(
                Term::iri(format!("s{i}-0")),
                Term::iri("p"),
                Term::iri(format!("Class{}", i % 7)),
            );
        }
        let g = b.build();
        let counts = g.type_counts();
        let mut naive: std::collections::HashMap<TermId, usize> = std::collections::HashMap::new();
        let type_id = g.term_id(&rdf_type).unwrap();
        for t in g.triples_matching(None, Some(type_id), None) {
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

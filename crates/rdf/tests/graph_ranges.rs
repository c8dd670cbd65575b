//! Every `Graph::triples_matching` shape against a naive filter of the SPO
//! rows (offline `proptest` shim).
//!
//! A pattern's range is read from its column's heads and a search inside
//! the leading id's slice. The reference reads no index: it filters the
//! triples `iter_terms` yields, then sorts them into the order of the
//! column the shape reads — SPO, POS or OSP — so the yield order is held
//! too, not only the set. Every id the interner holds is tried in every
//! bound position, so ids that lead no row in a column (a predicate in
//! OSP, a literal in SPO) and the last id are covered, on the graph as
//! built, on the graph read back from its snapshot, and on the empty graph.

use proptest::prelude::*;
use sapphire_rdf::{snapshot, Graph, GraphBuilder, IdTriple, Term, TermId};

/// Objects: subjects (so one id leads rows in SPO and in OSP), then
/// literals, which lead no SPO row.
fn object(k: u32) -> Term {
    if k < 6 {
        Term::iri(format!("http://x/s{k}"))
    } else {
        Term::literal(format!("v{k}"))
    }
}

fn graph(triples: &[(u32, u32, u32)]) -> Graph {
    let mut g = GraphBuilder::new();
    for &(s, p, o) in triples {
        g.insert(
            Term::iri(format!("http://x/s{s}")),
            Term::iri(format!("http://x/p{p}")),
            object(o),
        );
    }
    g.build()
}

/// The SPO rows, read through the term table rather than any index.
fn spo_rows(g: &Graph) -> Vec<IdTriple> {
    let id = |t: &Term| g.term_id(t).expect("every yielded term is interned");
    g.iter_terms()
        .map(|(s, p, o)| [id(s), id(p), id(o)])
        .collect()
}

/// The rows matching `pattern`, in the order of the column its shape reads.
fn reference(rows: &[IdTriple], pattern: [Option<TermId>; 3]) -> Vec<IdTriple> {
    let mut out: Vec<IdTriple> = rows
        .iter()
        .copied()
        .filter(|t| (0..3).all(|at| pattern[at].is_none_or(|id| t[at] == id)))
        .collect();
    match pattern.map(|id| id.is_some()) {
        [false, true, _] => out.sort_by_key(|&[s, p, o]| (p, o, s)),
        [_, false, true] => out.sort_by_key(|&[s, p, o]| (o, s, p)),
        _ => out.sort_unstable(),
    }
    out
}

/// Every shape × every id (and the unbound position) against the reference;
/// the degrees against the reference's counts.
fn check(g: &Graph) -> Result<(), String> {
    let rows = spo_rows(g);
    let choices: Vec<Option<TermId>> = std::iter::once(None)
        .chain((0..g.interner().len() as u32).map(|i| Some(TermId(i))))
        .collect();
    for &s in &choices {
        for &p in &choices {
            for &o in &choices {
                let expected = reference(&rows, [s, p, o]);
                let matches = g.triples_matching(s, p, o);
                prop_assert_eq!(matches.len(), expected.len());
                let got: Vec<IdTriple> = matches.collect();
                prop_assert_eq!(&got, &expected);
            }
        }
    }
    for id in choices.into_iter().flatten() {
        prop_assert_eq!(
            g.out_degree(id),
            reference(&rows, [Some(id), None, None]).len()
        );
        prop_assert_eq!(
            g.in_degree(id),
            reference(&rows, [None, None, Some(id)]).len()
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_shape_is_the_naive_filter_in_index_order(
        triples in collection::vec((0u32..6, 0u32..4, 0u32..10), 0..48),
    ) {
        let g = graph(&triples);
        check(&g)?;
        let bytes = snapshot::encode(&g).map_err(|e| e.to_string())?;
        let loaded = snapshot::decode(&bytes).map_err(|e| e.to_string())?;
        prop_assert_eq!(spo_rows(&loaded), spo_rows(&g));
        check(&loaded)?;
    }
}

#[test]
fn the_empty_graph_matches_nothing() {
    let g = Graph::default();
    let ids = [None, Some(TermId(0)), Some(TermId(1))];
    for s in ids {
        for p in ids {
            for o in ids {
                assert_eq!(g.triples_matching(s, p, o).len(), 0);
                assert_eq!(g.triples_matching(s, p, o).next(), None);
            }
        }
    }
    assert_eq!(g.in_degree(TermId(0)), 0);
    assert_eq!(g.out_degree(TermId(0)), 0);
    let loaded = snapshot::decode(&snapshot::encode(&g).unwrap()).unwrap();
    assert_eq!(loaded.triples_matching(None, None, None).len(), 0);
    assert_eq!(loaded.out_degree(TermId(0)), 0);
}

//! A graph's term ids, term to id and back (offline `proptest` shim).
//!
//! The interner finds a term's id through a table of ids and hash bits and
//! compares candidates through its term table, so these properties hold the
//! two directions to each other: every id's term looks up to that id, on the
//! graph as built and as read back from its snapshot; a term the graph never
//! saw looks up to nothing, even when it differs from one it holds only in
//! kind, language tag or datatype; interning again returns the same id across
//! every growth of the table; and the loader refuses a duplicate wherever it
//! sits.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use sapphire_rdf::{snapshot, vocab, Graph, GraphBuilder, Interner, Literal, Term, TermId};

/// Texts that are empty, one byte, multi-byte, or differ from each other in
/// one byte.
const TEXTS: [&str; 7] = ["", "a", "b", "ab", "é", "日本語", "🦀 crab"];

/// Every way to make a term of one text: two non-literal kinds and five
/// literal shapes. Terms of the same text differ only in kind, tag or type.
const SHAPES: usize = 7;

fn term(k: u32) -> Term {
    let text = TEXTS[k as usize / SHAPES];
    match k as usize % SHAPES {
        0 => Term::iri(text),
        1 => Term::blank(text),
        2 => Term::literal(text),
        3 => Term::en(text),
        4 => Term::Literal(Literal::lang_tagged(text, "de")),
        5 => Term::Literal(Literal::typed(text, vocab::xsd::INTEGER)),
        _ => Term::Literal(Literal::typed(text, vocab::xsd::DATE)),
    }
}

/// The number of distinct terms [`term`] makes.
const UNIVERSE: u32 = (TEXTS.len() * SHAPES) as u32;

/// Subjects are IRIs or blank nodes, predicates IRIs, objects anything.
fn graph(triples: &[(u32, u32, u32)]) -> (Graph, HashSet<Term>) {
    let mut builder = GraphBuilder::new();
    let mut inserted = HashSet::new();
    for &(s, p, o) in triples {
        let (s, p, o) = (
            term(s / 2 * SHAPES as u32 + s % 2),
            term(p * SHAPES as u32),
            term(o),
        );
        inserted.extend([s.clone(), p.clone(), o.clone()]);
        builder.insert(s, p, o);
    }
    (builder.build(), inserted)
}

/// Every id's term looks up to that id, and every term of the universe
/// looks up to something exactly when it was inserted.
fn check(g: &Graph, inserted: &HashSet<Term>) -> Result<(), String> {
    for i in 0..g.interner().len() as u32 {
        prop_assert_eq!(g.term_id(g.term(TermId(i))), Some(TermId(i)));
    }
    for k in 0..UNIVERSE {
        let t = term(k);
        prop_assert!(
            g.term_id(&t).is_some() == inserted.contains(&t),
            "{t} looked up wrongly"
        );
    }
    for absent in [
        Term::Literal(Literal::lang_tagged("a", "fr")),
        Term::Literal(Literal::typed("a", vocab::xsd::DOUBLE)),
        Term::iri("🦀"),
        Term::literal("abc"),
    ] {
        prop_assert_eq!(g.term_id(&absent), None);
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_id_is_its_terms_id_and_absent_terms_have_none(
        triples in collection::vec((0u32..14, 0u32..7, 0u32..UNIVERSE), 0..64),
    ) {
        let (g, inserted) = graph(&triples);
        prop_assert_eq!(g.interner().len(), inserted.len());
        check(&g, &inserted)?;
        let bytes = snapshot::encode(&g).map_err(|e| e.to_string())?;
        let loaded = snapshot::decode(&bytes).map_err(|e| e.to_string())?;
        for (id, t) in g.interner().iter() {
            prop_assert_eq!(loaded.term(id), t);
        }
        check(&loaded, &inserted)?;
    }

    #[test]
    fn interning_again_returns_the_first_id(
        texts in collection::vec("[a-dé日🦀]{0,6}", 0..400),
    ) {
        let mut interner = Interner::new();
        let mut first: HashMap<Term, TermId> = HashMap::new();
        for text in &texts {
            for t in [Term::literal(text.as_str()), Term::en(text.as_str())] {
                let id = interner.intern(t.clone());
                let next = TermId(first.len() as u32);
                prop_assert_eq!(id, *first.entry(t).or_insert(next));
            }
        }
        prop_assert_eq!(interner.len(), first.len());
        for (t, id) in &first {
            prop_assert_eq!(interner.get(t), Some(*id));
            prop_assert_eq!(interner.intern(t.clone()), *id);
        }
        prop_assert_eq!(interner.len(), first.len());
    }
}

/// Ninety thousand terms take the table through fourteen doublings; at
/// each size on either side of a doubling, every term interned so far is
/// interned again and must keep its id. Among them, `"15270"` and
/// `"85898"` have equal tags (all 32 bits of hash the table keeps), so a
/// table that trusted the tag alone would give the second the first's id.
#[test]
fn interning_is_idempotent_across_every_growth() {
    let make = |i: u32| Term::literal(format!("{i}"));
    let mut interner = Interner::new();
    assert_eq!(interner.get(&make(0)), None, "the empty interner");
    for i in 0..90_000u32 {
        assert_eq!(interner.intern(make(i)), TermId(i));
        let len = interner.len();
        if len.is_power_of_two() || (len + 1).is_power_of_two() {
            for j in 0..=i {
                assert_eq!(interner.intern(make(j)), TermId(j), "at {len} terms");
            }
            assert_eq!(interner.len(), len, "re-interning added a term");
            assert_eq!(interner.get(&make(i + 1)), None);
        }
    }
    for (id, t) in interner.iter() {
        assert_eq!(interner.get(t), Some(id));
    }
}

/// A table of distinct terms loads with the ids it was written in; the same
/// table with a second copy of its first, a middle or its last term is
/// refused, wherever the copy sits.
#[test]
fn the_loader_refuses_a_duplicate_at_any_position() {
    let distinct: Vec<Term> = (0..UNIVERSE).map(term).collect();
    let loaded = Interner::from_terms_checked(distinct.clone()).expect("distinct terms load");
    for (id, t) in distinct.iter().enumerate() {
        assert_eq!(loaded.get(t), Some(TermId(id as u32)));
        assert_eq!(loaded.resolve(TermId(id as u32)), t);
    }
    assert!(Interner::from_terms_checked(Vec::new()).is_some_and(|i| i.is_empty()));

    let last = distinct.len() - 1;
    for p in [0, last / 2, last] {
        let copy = std::slice::from_ref(&distinct[p]);
        for (table, copy_at) in [
            ([copy, &distinct].concat(), "first"),
            ([&distinct[..=p], copy, &distinct[p + 1..]].concat(), "next"),
            ([&distinct, copy].concat(), "last"),
        ] {
            assert!(
                Interner::from_terms_checked(table).is_none(),
                "term {p} and its copy at the {copy_at} position loaded"
            );
        }
    }
}

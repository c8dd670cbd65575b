//! Differential and paging properties of the solution modifiers (offline
//! `proptest` shim).
//!
//! Random small graphs — with duplicate literals, equal lexical forms under
//! different language tags, numbers and IRIs in object position — are
//! queried with every combination of {plain, DISTINCT, GROUP BY + COUNT /
//! COUNT(DISTINCT)} × {no filter, four filters} × {no order, ORDER BY
//! asc/desc} × {no slice, LIMIT, OFFSET, both}, and the evaluator's answer
//! is held to a brute-force reference that never touches an id: nested
//! loops over [`Graph::iter_terms`], filters as Rust closures, grouping in
//! a `BTreeMap` of terms.
//!
//! SPARQL leaves the order of unordered results and of ORDER BY ties open,
//! so the reference checks the multiset of rows, the sortedness of the
//! keys, and the size of a slice; the paging property then ties every slice
//! to the unsliced answer exactly: the concatenation of `LIMIT p OFFSET
//! k·p` pages *is* the unsliced answer, for any `p` — what §5
//! initialization's page loops rely on.
//!
//! The last property holds `select_rows` — the same modifiers and aggregates
//! over rows that are already terms, which the federated processor and the
//! cluster merge call — to both: byte for byte to the evaluator on the
//! evaluator's own rows, and to the reference on those rows in any order.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use proptest::prelude::*;
use sapphire_rdf::{Graph, GraphBuilder, Literal, Term};
use sapphire_sparql::select_rows;
use sapphire_sparql::{evaluate_select, parse_select, Solutions, WorkBudget};

type Row = Vec<Option<Term>>;

fn iri(name: &str, i: usize) -> Term {
    Term::iri(format!("http://x/{name}{i}"))
}

/// Object pool: subjects (so two-hop patterns join), literals that repeat,
/// `"a"` under three tags, and canonical non-negative integers — a pool on
/// which "numeric if both parse, else lexical" is a consistent order.
fn object(k: usize) -> Term {
    match k {
        0..=3 => iri("s", k),
        4 => Term::en("a"),
        5 => Term::literal("a"),
        6 => Term::Literal(Literal::lang_tagged("a", "fr")),
        7 => Term::en("Ab"),
        8 => Term::en("abc"),
        9 => Term::literal("2"),
        10 => Term::Literal(Literal::integer(10)),
        _ => Term::literal("1"),
    }
}

fn graph(triples: &[(usize, usize, usize)]) -> Graph {
    let mut g = GraphBuilder::new();
    for &(s, p, o) in triples {
        g.insert(iri("s", s), iri("p", p), object(o));
    }
    g.build()
}

/// The four FILTERs over `?o`: SPARQL text and the same test in Rust.
fn filter(k: usize) -> (&'static str, fn(&Term) -> bool) {
    match k {
        1 => ("FILTER(isliteral(?o))", |t| t.is_literal()),
        2 => ("FILTER(lang(?o) = \"en\")", |t| {
            t.as_literal()
                .is_some_and(|l| l.lang.as_deref() == Some("en"))
        }),
        3 => ("FILTER(isliteral(?o) && strlen(str(?o)) < 2)", |t| {
            t.is_literal() && t.lexical().chars().count() < 2
        }),
        4 => ("FILTER(regex(str(?o), \"^A\", \"i\"))", |t| {
            t.lexical().to_lowercase().starts_with('a')
        }),
        _ => ("", |_| true),
    }
}

/// Pattern `k` as SPARQL, and its `(s, o, x)` solutions by nested loops.
fn pattern(k: usize, g: &Graph) -> (&'static str, Vec<[Option<Term>; 3]>) {
    let all: Vec<(&Term, &Term, &Term)> = g.iter_terms().collect();
    let with = |p: usize| {
        let p = iri("p", p);
        all.iter().filter(move |t| *t.1 == p)
    };
    let some = |t: &Term| Some(t.clone());
    match k {
        0 => (
            "?s <http://x/p0> ?o",
            with(0).map(|t| [some(t.0), some(t.2), None]).collect(),
        ),
        1 => (
            "?s ?x ?o",
            all.iter()
                .map(|t| [some(t.0), some(t.2), some(t.1)])
                .collect(),
        ),
        2 => (
            "?s <http://x/p0> ?o . ?s <http://x/p1> ?x",
            with(0)
                .flat_map(|a| {
                    with(1)
                        .filter(move |b| b.0 == a.0)
                        .map(move |b| [some(a.0), some(a.2), some(b.2)])
                })
                .collect(),
        ),
        _ => (
            "?x <http://x/p1> ?s . ?s <http://x/p0> ?o",
            with(1)
                .flat_map(|a| {
                    with(0)
                        .filter(move |b| b.0 == a.2)
                        .map(move |b| [some(b.0), some(b.2), some(a.0)])
                })
                .collect(),
        ),
    }
}

fn count(n: usize) -> Option<Term> {
    Some(Term::Literal(Literal::integer(n as i64)))
}

/// `(SELECT clause, GROUP BY clause, the variable ORDER BY sorts on, its
/// output column)`.
type Form = (&'static str, &'static str, &'static str, usize);

/// Projection form `k` and its rows from the `(s, o, x)` solutions.
fn form(k: usize, rows: &[[Option<Term>; 3]]) -> (Form, Vec<Row>) {
    let distinct = |mut v: Vec<Row>| {
        v.sort();
        v.dedup();
        v
    };
    // ?o → its ?s values, in solution order.
    let mut by_o: BTreeMap<Option<Term>, Vec<Option<Term>>> = BTreeMap::new();
    for [s, o, _] in rows {
        by_o.entry(o.clone()).or_default().push(s.clone());
    }
    let grouped = |n: fn(Vec<Option<Term>>) -> usize| -> Vec<Row> {
        by_o.iter()
            .map(|(o, ss)| vec![o.clone(), count(n(ss.clone()))])
            .collect()
    };
    let pairs = || -> Vec<Row> {
        rows.iter()
            .map(|[s, o, _]| vec![s.clone(), o.clone()])
            .collect()
    };
    match k {
        0 => (("SELECT ?s ?o", "", "o", 1), pairs()),
        1 => (
            ("SELECT DISTINCT ?o", "", "o", 0),
            distinct(rows.iter().map(|[_, o, _]| vec![o.clone()]).collect()),
        ),
        2 => (("SELECT DISTINCT ?s ?o", "", "o", 1), distinct(pairs())),
        3 => (
            ("SELECT ?o (COUNT(?s) AS ?n)", "GROUP BY ?o", "o", 0),
            grouped(|ss| ss.len()),
        ),
        4 => (
            (
                "SELECT ?o (COUNT(DISTINCT ?s) AS ?n)",
                "GROUP BY ?o",
                "n",
                1,
            ),
            grouped(|mut ss| {
                ss.sort();
                ss.dedup();
                ss.len()
            }),
        ),
        // The Q8/Q10 shape.
        5 => (
            (
                "SELECT DISTINCT ?o (COUNT(?s) AS ?n)",
                "GROUP BY ?o",
                "n",
                1,
            ),
            grouped(|ss| ss.len()),
        ),
        _ => (
            ("SELECT (COUNT(*) AS ?n)", "", "n", 0),
            vec![vec![count(rows.len())]],
        ),
    }
}

/// `value_order` as the evaluator documents it: numeric when both sides
/// parse as numbers, lexical otherwise, unbound first.
fn reference_order(a: &Option<Term>, b: &Option<Term>) -> Ordering {
    let num = |t: &Term| t.as_literal().and_then(|l| l.as_f64());
    match (a, b) {
        (Some(a), Some(b)) => match (num(a), num(b)) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap(),
            _ => a.lexical().cmp(b.lexical()),
        },
        (a, b) => a.is_some().cmp(&b.is_some()),
    }
}

struct Case {
    text: String,
    /// The reference's rows (any order).
    expected: Vec<Row>,
    /// Output column of the ORDER BY key and whether it descends.
    order: Option<(usize, bool)>,
}

/// Build query `spec` = (pattern, filter, form, order) and its reference
/// answer over `g`.
fn case(g: &Graph, spec: (usize, usize, usize, usize)) -> Case {
    let (pattern_text, mut rows) = pattern(spec.0 % 4, g);
    let (filter_text, passes) = filter(spec.1 % 5);
    rows.retain(|[_, o, _]| o.as_ref().is_some_and(passes));
    let ((select, group_by, key, key_col), expected) = form(spec.2 % 7, &rows);
    let (order, order_text) = match spec.3 % 3 {
        1 => (Some((key_col, false)), format!("ORDER BY ?{key}")),
        2 => (Some((key_col, true)), format!("ORDER BY DESC(?{key})")),
        _ => (None, String::new()),
    };
    Case {
        text: format!("{select} WHERE {{ {pattern_text} {filter_text} }} {group_by} {order_text}"),
        expected,
        order,
    }
}

fn run(g: &Graph, text: &str) -> (Solutions, u64) {
    let query = parse_select(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let mut budget = WorkBudget::unlimited();
    let solutions =
        evaluate_select(g, &query, &mut budget).unwrap_or_else(|e| panic!("{text}: {e}"));
    (solutions, budget.used())
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// Every (pattern, filter, form, order) combination.
fn specs() -> impl Iterator<Item = (usize, usize, usize, usize)> {
    (0..4 * 5 * 7 * 3).map(|i| (i % 4, i / 4 % 5, i / 20 % 7, i / 140))
}

proptest! {
    /// The unsliced answer is the reference's multiset of rows, in key order
    /// when ordered; a slice of it has the size the reference predicts and
    /// only rows the reference has.
    #[test]
    fn evaluator_agrees_with_the_brute_force_reference(
        triples in collection::vec((0usize..4, 0usize..3, 0usize..12), 0..28),
        slice in (0usize..6, 0usize..6),
    ) {
        let g = graph(&triples);
        for spec in specs() {
            let case = case(&g, spec);
            let (full, _) = run(&g, &case.text);
            prop_assert_eq!(sorted(full.rows.clone()), sorted(case.expected.clone()));
            if let Some((col, descending)) = case.order {
                for pair in full.rows.windows(2) {
                    let ord = reference_order(&pair[0][col], &pair[1][col]);
                    let ord = if descending { ord.reverse() } else { ord };
                    prop_assert!(ord != Ordering::Greater, "{}: keys out of order", case.text);
                }
            }
            let (limit, offset) = slice;
            let (page, _) = run(&g, &format!("{} LIMIT {limit} OFFSET {offset}", case.text));
            prop_assert_eq!(page.len(), limit.min(case.expected.len().saturating_sub(offset)));
            let mut pool = case.expected;
            for row in &page.rows {
                let at = pool.iter().position(|r| r == row);
                prop_assert!(at.is_some(), "{}: sliced row {row:?} not in the reference", case.text);
                pool.swap_remove(at.unwrap());
            }
        }
    }

    /// For every DISTINCT, GROUP BY and ORDER BY query, the pages of any size
    /// concatenate to exactly the unsliced answer, and each page charges the
    /// work of the whole query (no operator above the BGP is pushed down).
    #[test]
    fn pages_concatenate_to_the_unsliced_answer(
        triples in collection::vec((0usize..4, 0usize..3, 0usize..12), 0..28),
        p in 1usize..7,
    ) {
        let g = graph(&triples);
        // Form 0 without ORDER BY is the one shape LIMIT is pushed into.
        for spec in specs().filter(|spec| (spec.2, spec.3) != (0, 0)) {
            let case = case(&g, spec);
            let (full, work) = run(&g, &case.text);
            let mut pages: Vec<Row> = Vec::new();
            for k in 0..=full.len() / p {
                let (page, page_work) = run(&g, &format!("{} LIMIT {p} OFFSET {}", case.text, k * p));
                prop_assert_eq!(page_work, work);
                prop_assert_eq!(&page.vars, &full.vars);
                prop_assert!(page.len() == p || k == full.len() / p);
                pages.extend(page.rows);
            }
            prop_assert_eq!(pages, full.rows);
        }
    }

    /// For every query, aggregated or not, `select_rows` over the pattern's
    /// full bindings (`SELECT *`, no modifier) is `evaluate_select` of the
    /// query byte for byte, sliced or not; over the same bindings shuffled
    /// it still satisfies the reference (multiset, sortedness, slice size).
    #[test]
    fn term_rows_agree_with_the_evaluator_and_the_reference(
        triples in collection::vec((0usize..4, 0usize..3, 0usize..12), 0..28),
        slice in (0usize..6, 0usize..6),
        seed in 0u64..1_000,
    ) {
        let g = graph(&triples);
        for spec in specs() {
            let case = case(&g, spec);
            let (pattern_text, _) = pattern(spec.0 % 4, &g);
            let (filter_text, _) = filter(spec.1 % 5);
            let (star, _) = run(&g, &format!("SELECT * WHERE {{ {pattern_text} {filter_text} }}"));
            let mut shuffled = star.rows.clone();
            let mut state = seed;
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, (state >> 33) as usize % (i + 1));
            }
            let (limit, offset) = slice;
            for text in [case.text.clone(), format!("{} LIMIT {limit} OFFSET {offset}", case.text)] {
                let query = parse_select(&text).unwrap();
                let (evaluated, _) = run(&g, &text);
                let same_order = select_rows(&query, &star.vars, star.rows.clone()).unwrap();
                prop_assert!(same_order == evaluated, "{text}: {same_order:?} != {evaluated:?}");

                let any_order = select_rows(&query, &star.vars, shuffled.clone()).unwrap();
                prop_assert_eq!(&any_order.vars, &evaluated.vars);
                if query.limit.is_none() {
                    prop_assert_eq!(sorted(any_order.rows.clone()), sorted(case.expected.clone()));
                } else {
                    prop_assert_eq!(any_order.len(), limit.min(case.expected.len().saturating_sub(offset)));
                    let mut pool = case.expected.clone();
                    for row in &any_order.rows {
                        let at = pool.iter().position(|r| r == row);
                        prop_assert!(at.is_some(), "{}: sliced row {row:?} not in the reference", text);
                        pool.swap_remove(at.unwrap());
                    }
                }
                if let Some((col, descending)) = case.order {
                    for pair in any_order.rows.windows(2) {
                        let ord = reference_order(&pair[0][col], &pair[1][col]);
                        let ord = if descending { ord.reverse() } else { ord };
                        prop_assert!(ord != Ordering::Greater, "{}: keys out of order", text);
                    }
                }
            }
        }
    }
}

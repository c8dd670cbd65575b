//! Algorithm 2's `VALUES` probe under both of its plans (offline `proptest`
//! shim).
//!
//! `SELECT DISTINCT ?v WHERE { … VALUES ?v { … } }` is answered value by
//! value when the list is short, and from the pattern's side — one walk
//! without the list, then the list filtered by what the walk bound — when
//! the list outnumbers the pattern's smallest ground-only range. Either way
//! the answer must be the listed values whose query with the value written
//! in place has a row, deduplicated, in list order. Random graphs are probed
//! with stars, chains, a predicate variable (alone and anchored in a chain),
//! a filter and a cross product; each probe gets a list shorter than its
//! smallest range and one longer, both with absent and repeated terms.

use proptest::prelude::*;
use sapphire_rdf::{Graph, GraphBuilder, Term};
use sapphire_sparql::{evaluate_select, parse_select, WorkBudget};

fn subject(k: usize) -> Term {
    Term::iri(format!("http://x/s{k}"))
}

fn predicate(k: usize) -> Term {
    Term::iri(format!("http://x/p{k}"))
}

/// Objects `0..10` are what graphs hold: subjects (so patterns chain), then
/// literals. `10..12` are never generated: absent from every graph.
fn object(k: usize) -> Term {
    if k < 6 {
        subject(k)
    } else {
        Term::en(format!("v{k}"))
    }
}

/// Predicate-position values: picks `0..3` are generated predicates, `3` an
/// absent one, `4` a subject that is never a predicate.
fn predicate_value(k: usize) -> Term {
    match k % 5 {
        4 => subject(0),
        k => predicate(k),
    }
}

fn graph(triples: &[(usize, usize, usize)]) -> Graph {
    let mut g = GraphBuilder::new();
    for &(s, p, o) in triples {
        g.insert(subject(s), predicate(p), object(o));
    }
    g.build()
}

/// One position of a probe pattern: a variable or a generated predicate.
#[derive(Clone, Copy)]
enum At {
    Var(&'static str),
    P(usize),
}

struct Probe {
    name: &'static str,
    patterns: Vec<[At; 3]>,
    filter: &'static str,
    /// The values listed for `?v`, by pick.
    value: fn(usize) -> Term,
}

fn probes() -> Vec<Probe> {
    use At::{Var, P};
    let (x, y, z, v) = (Var("x"), Var("y"), Var("z"), Var("v"));
    vec![
        Probe {
            name: "single",
            patterns: vec![[x, P(0), v]],
            filter: "",
            value: object,
        },
        Probe {
            name: "star",
            patterns: vec![[x, P(0), v], [x, P(1), y]],
            filter: "",
            value: object,
        },
        Probe {
            name: "chain",
            patterns: vec![[x, P(0), y], [y, P(1), v]],
            filter: "",
            value: object,
        },
        Probe {
            name: "star and chain",
            patterns: vec![[x, P(0), v], [x, P(1), y], [y, P(2), z]],
            filter: "",
            value: object,
        },
        Probe {
            name: "predicate variable",
            patterns: vec![[x, v, y], [y, P(0), z]],
            filter: "",
            value: predicate_value,
        },
        Probe {
            name: "anchored predicate-variable chain",
            patterns: vec![[x, P(0), y], [x, v, z], [z, P(1), Var("w")]],
            filter: "",
            value: predicate_value,
        },
        Probe {
            name: "filtered",
            patterns: vec![[x, P(1), v], [x, Var("p"), y]],
            filter: "FILTER(isIRI(?v) && ?y != <http://x/s0>)",
            value: object,
        },
        Probe {
            name: "cross product",
            patterns: vec![[x, P(0), v], [y, P(1), z]],
            filter: "",
            value: object,
        },
    ]
}

impl Probe {
    /// The pattern's text with `value` written where `?v` stands, or with
    /// `?v` itself.
    fn text(&self, value: Option<&Term>) -> String {
        let at = |a: At| match (a, value) {
            (At::Var("v"), Some(term)) => term.to_string(),
            (At::Var(name), _) => format!("?{name}"),
            (At::P(k), _) => predicate(k).to_string(),
        };
        let triples: Vec<String> = self
            .patterns
            .iter()
            .map(|[s, p, o]| format!("{} {} {} .", at(*s), at(*p), at(*o)))
            .collect();
        let filter = match value {
            Some(term) => self.filter.replace("?v", &term.to_string()),
            None => self.filter.to_string(),
        };
        format!("{} {filter}", triples.join(" "))
    }

    /// The fewest triples any one pattern's generated predicate matches.
    fn smallest_range(&self, g: &Graph) -> usize {
        self.patterns
            .iter()
            .map(|[_, p, _]| match p {
                At::P(k) => g.iter_terms().filter(|t| *t.1 == predicate(*k)).count(),
                At::Var(_) => g.len(),
            })
            .min()
            .unwrap_or(0)
    }
}

fn select(g: &Graph, text: &str) -> Vec<Option<Term>> {
    let query = parse_select(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let answer = evaluate_select(g, &query, &mut WorkBudget::unlimited())
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    answer
        .rows
        .into_iter()
        .map(|mut row| row.remove(0))
        .collect()
}

/// The listed values whose query with the value in place has a row, first
/// occurrences only, in list order.
fn expected(g: &Graph, probe: &Probe, list: &[Term]) -> Vec<Option<Term>> {
    let mut out: Vec<Option<Term>> = Vec::new();
    for term in list {
        let seen = out.iter().flatten().any(|t| t == term);
        if !seen
            && !select(
                g,
                &format!("SELECT * WHERE {{ {} }} LIMIT 1", probe.text(Some(term))),
            )
            .is_empty()
        {
            out.push(Some(term.clone()));
        }
    }
    out
}

proptest! {
    #[test]
    fn a_probe_answers_the_values_that_have_a_row_in_list_order(
        triples in collection::vec((0usize..6, 0usize..3, 0usize..10), 6..40),
        picks in collection::vec(0usize..12, 1..24),
    ) {
        let g = graph(&triples);
        for probe in probes() {
            let r = probe.smallest_range(&g);
            let shorter = r.saturating_sub(1).min(picks.len());
            let longer = r + 1 + picks.len();
            for len in [shorter, longer] {
                let list: Vec<Term> = picks.iter().cycle().take(len).map(|&k| (probe.value)(k)).collect();
                let values: Vec<String> = list.iter().map(Term::to_string).collect();
                let text = format!(
                    "SELECT DISTINCT ?v WHERE {{ {} VALUES ?v {{ {} }} }}",
                    probe.text(None),
                    values.join(" ")
                );
                let (got, want) = (select(&g, &text), expected(&g, &probe, &list));
                prop_assert!(
                    got == want,
                    "{} ({len} values, smallest range {r}): {text}\n got: {got:?}\nwant: {want:?}",
                    probe.name
                );
            }
        }
    }
}

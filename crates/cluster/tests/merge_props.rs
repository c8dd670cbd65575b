//! Property-style tests (offline `proptest` shim) for the cluster merges.
//!
//! The contract under test is the one the whole cluster design leans on:
//! the merge result is a pure function of the *multiset* of shard answers —
//! how the corpus is split across 1, 2, or 4 shards, and the order replica
//! replies arrive in, must never change a byte of the output. The shard
//! split is simulated by dealing one generated answer list into n lists by
//! a generated assignment, and reply-order shuffling by rotating and
//! reversing those lists.

use proptest::prelude::*;

use sapphire_cluster::merge::{merge_bindings, merge_completions, merge_solutions};
use sapphire_core::qcm::Completion;
use sapphire_core::MatchSource;
use sapphire_rdf::Term;
use sapphire_sparql::{parse_select, Solutions};

/// Deal `items` into `n` lists by the assignment vector (a simulated
/// subject-hash split).
fn deal<T: Clone>(items: &[T], assignment: &[usize], n: usize) -> Vec<Vec<T>> {
    let mut lists: Vec<Vec<T>> = vec![Vec::new(); n];
    for (i, item) in items.iter().enumerate() {
        lists[assignment[i % assignment.len()] % n].push(item.clone());
    }
    lists
}

/// A deterministic "shuffle": rotate the list order and reverse each list —
/// enough to catch any dependence on arrival order without a RNG.
fn disorder<T>(mut lists: Vec<Vec<T>>, rot: usize) -> Vec<Vec<T>> {
    if !lists.is_empty() {
        let shift = rot % lists.len();
        lists.rotate_left(shift);
    }
    for list in &mut lists {
        list.reverse();
    }
    lists
}

fn completion(text: &str, pred: bool, tree: bool) -> Completion {
    Completion {
        predicate_iri: pred.then(|| format!("http://x/{text}")),
        text: text.to_string(),
        source: if tree {
            MatchSource::SuffixTree
        } else {
            MatchSource::ResidualBins
        },
    }
}

proptest! {
    /// Completions: merging the whole corpus as one list equals merging any
    /// 2-way or 4-way split of it, in any reply order.
    #[test]
    fn completion_merge_is_shard_count_invariant(
        texts in proptest::collection::vec("[a-e]{1,6}", 1..24),
        flags in proptest::collection::vec((0usize..2, 0usize..2), 8..24),
        assignment in proptest::collection::vec(0usize..4, 8..9),
        rot in 0usize..4,
        k in 1usize..12,
    ) {
        let items: Vec<Completion> = texts
            .iter()
            .zip(flags.iter().cycle())
            .map(|(t, &(p, s))| completion(t, p == 1, s == 1))
            .collect();
        let oracle = merge_completions(vec![items.clone()], k);
        for shards in [1usize, 2, 4] {
            let split = deal(&items, &assignment, shards);
            let merged = merge_completions(disorder(split, rot), k);
            prop_assert_eq!(&merged, &oracle);
        }
    }

    /// Solutions: the merged answer (dedup under DISTINCT, ORDER BY with
    /// total-order tie-break, slice at the edge) is split- and
    /// order-invariant.
    #[test]
    fn solutions_merge_is_shard_count_invariant(
        values in proptest::collection::vec(("[a-c]{1,4}", 0usize..30), 1..24),
        assignment in proptest::collection::vec(0usize..4, 8..9),
        rot in 0usize..4,
        distinct in 0usize..2,
        limit in 0usize..10,
    ) {
        let query_text = if distinct == 1 {
            format!("SELECT DISTINCT ?s ?o WHERE {{ ?s <http://x/p> ?o }} ORDER BY ?o LIMIT {}", limit.max(1))
        } else {
            format!("SELECT ?s ?o WHERE {{ ?s <http://x/p> ?o }} ORDER BY ?o LIMIT {}", limit.max(1))
        };
        let query = parse_select(&query_text).unwrap();
        let rows: Vec<Vec<Option<Term>>> = values
            .iter()
            .map(|(s, n)| vec![
                Some(Term::iri(format!("http://x/{s}"))),
                Some(Term::Literal(sapphire_rdf::Literal::integer(*n as i64))),
            ])
            .collect();
        let whole = Solutions { vars: vec!["s".into(), "o".into()], rows: rows.clone() };
        let oracle = merge_solutions(&query, vec![whole]);
        for shards in [1usize, 2, 4] {
            let split_rows = deal(&rows, &assignment, shards);
            let lists: Vec<Solutions> = disorder(split_rows, rot)
                .into_iter()
                .map(|rows| Solutions { vars: vec!["s".into(), "o".into()], rows })
                .collect();
            let merged = merge_solutions(&query, lists);
            prop_assert_eq!(&merged, &oracle);
        }
    }

    /// Aggregates over merged full bindings: COUNT, COUNT(DISTINCT) and a
    /// grouped COUNT over any split of the bindings — a binding replicated
    /// on every shard included — equal the same query over the whole.
    #[test]
    fn count_merge_is_shard_count_invariant(
        values in proptest::collection::vec(("[a-c]{1,3}", 0usize..4), 1..20),
        assignment in proptest::collection::vec(0usize..4, 8..9),
        rot in 0usize..4,
        form in 0usize..3,
    ) {
        let query = parse_select(match form {
            0 => "SELECT (COUNT(?s) AS ?count) WHERE { ?s <http://x/p> ?o }",
            1 => "SELECT (COUNT(DISTINCT ?s) AS ?count) WHERE { ?s <http://x/p> ?o }",
            _ => "SELECT ?s (COUNT(?o) AS ?count) WHERE { ?s <http://x/p> ?o } GROUP BY ?s ORDER BY ?s",
        })
        .unwrap();
        let vars = || vec!["s".to_string(), "o".to_string()];
        let mut rows: Vec<Vec<Option<Term>>> = values
            .iter()
            .map(|(s, o)| vec![
                Some(Term::iri(format!("http://x/{s}"))),
                Some(Term::Literal(sapphire_rdf::Literal::integer(*o as i64))),
            ])
            .collect();
        rows.sort();
        rows.dedup();
        let whole = Solutions { vars: vars(), rows: rows.clone() };
        let oracle = merge_bindings(&query, vec![whole]).unwrap();
        for shards in [1usize, 2, 4] {
            let mut split = deal(&rows, &assignment, shards);
            for list in &mut split {
                list.push(rows[0].clone());
            }
            let lists: Vec<Solutions> = disorder(split, rot)
                .into_iter()
                .map(|rows| Solutions { vars: vars(), rows })
                .collect();
            prop_assert_eq!(&merge_bindings(&query, lists).unwrap(), &oracle);
        }
    }
}

//! Deterministic scatter-gather merges.
//!
//! Every cluster answer is assembled from per-shard answer lists, and the
//! assembly must be a *pure, order-insensitive* function of those lists:
//! replicas reply in nondeterministic order, shards finish in
//! nondeterministic order, and yet two identical requests must produce
//! byte-identical cluster answers — that is what makes a sharded deployment
//! testable against a single-box oracle at all.
//!
//! The rule everywhere is **score-then-key**: items are ranked by their
//! semantic score (match source, similarity, ORDER BY keys) and every tie is
//! broken by a total order over the item's own content (its key), never by
//! arrival order. Merging the single-box oracle's own answer list through
//! the same functions is the identity on the content and canonicalizes the
//! order, so "cluster == merge(oracle)" is a byte-level equality check.
//!
//! Solution rows are only *canonicalized* here (concatenate, sort, dedup
//! full bindings). What a query's ORDER BY, projection, DISTINCT, slice and
//! aggregates mean is defined once, by the evaluator: both solution merges
//! end in [`sapphire_sparql::select_rows`], so a unique answer is the
//! single-box evaluator's answer with nothing to canonicalize. Completions
//! likewise rank by the QCM's own order, so a single box's completion list
//! is already its own merge.

use sapphire_core::qcm::{completion_rank, Completion};
use sapphire_core::qsm::TermAlternative;
use sapphire_rdf::Term;
use sapphire_sparql::{select_rows, EvalError, Projection, SelectQuery, Solutions};

/// Merge per-shard completion lists into the cluster top-`k`, ranked by the
/// QCM's own [`completion_rank`].
///
/// Duplicates (same text and predicate IRI, surfaced by several shards) keep
/// their strongest source: a literal significant on *any* shard ranks as a
/// tree match. Input list order and order within each list never affect the
/// result.
pub fn merge_completions(lists: Vec<Vec<Completion>>, k: usize) -> Vec<Completion> {
    let mut all: Vec<Completion> = lists.into_iter().flatten().collect();
    // Dedup first, keeping the strongest source per (text, iri) identity…
    all.sort_by(|a, b| {
        (a.text.as_str(), a.predicate_iri.as_deref())
            .cmp(&(b.text.as_str(), b.predicate_iri.as_deref()))
            .then_with(|| completion_rank(a).cmp(&completion_rank(b)))
    });
    all.dedup_by(|later, first| {
        later.text == first.text && later.predicate_iri == first.predicate_iri
    });
    // …then rank canonically and truncate.
    all.sort_by(|a, b| completion_rank(a).cmp(&completion_rank(b)));
    all.truncate(k);
    all
}

/// Every list's rows under the first list's variables.
fn concat(lists: Vec<Solutions>) -> (Vec<String>, Vec<Vec<Option<Term>>>) {
    let mut vars = Vec::new();
    let mut rows = Vec::new();
    for list in lists {
        if vars.is_empty() {
            vars = list.vars;
        }
        rows.extend(list.rows);
    }
    (vars, rows)
}

/// Merge per-shard *answers* to one query into the canonical cluster
/// answer: concatenate, sort into the canonical (whole-row) order, and let
/// the evaluator's own modifiers ([`select_rows`]) order by the answer's
/// own columns, dedup when the query is DISTINCT, and apply OFFSET/LIMIT
/// last (the router strips the slice before scattering, so shards never
/// pre-truncate). ORDER BY ties keep the canonical order. Answers are
/// never aggregated again: the query's aggregates already made them.
pub fn merge_solutions(query: &SelectQuery, lists: Vec<Solutions>) -> Solutions {
    let (vars, mut rows) = concat(lists);
    rows.sort();
    let over_answers = SelectQuery {
        projection: Projection::Star,
        group_by: Vec::new(),
        ..query.clone()
    };
    select_rows(&over_answers, &vars, rows).expect("a SELECT * without aggregates cannot fail")
}

/// Merge *full-binding* (`SELECT *`) shard rows exactly, then apply the
/// query — ORDER BY, projection, DISTINCT, slice and aggregates.
///
/// The router scatters pattern queries with a star projection precisely so
/// this merge can deduplicate **full bindings** first: over a BGP, solutions
/// are distinct bindings (a graph is a *set* of triples), so an identical
/// full binding arriving from two shards can only be a replica artifact of
/// the schema slice — e.g. `?s rdfs:subClassOf ?o` matches the replicated
/// hierarchy on every shard. Deduplicating *after* projection would be
/// wrong the other way: projection legitimately collapses distinct bindings
/// onto equal rows, and a non-DISTINCT query keeps those duplicates. And
/// ordering after projection would lose every sort key the query does not
/// project, as aggregating per shard would lose every group and DISTINCT
/// count that spans shards. So: dedup bindings, then hand the full bindings
/// to [`select_rows`], which orders before it projects and aggregates once.
pub fn merge_bindings(query: &SelectQuery, lists: Vec<Solutions>) -> Result<Solutions, EvalError> {
    let (vars, mut rows) = concat(lists);
    rows.sort();
    rows.dedup();
    select_rows(query, &vars, rows)
}

/// A query stripped of its OFFSET/LIMIT slice: shards (and the single-box
/// oracle, when canonicalizing its answers for comparison) must never
/// pre-truncate, because the top-k cut is only correct after the global
/// merge — the edge owns the slice.
pub fn strip_slice(query: &SelectQuery) -> SelectQuery {
    let mut q = query.clone();
    q.limit = None;
    q.offset = None;
    q
}

/// The canonical identity of a "did you mean" rewrite: which triple, which
/// position, which replacement text.
fn alternative_key(alt: &TermAlternative) -> (usize, u8, &str) {
    let position = match alt.position {
        sapphire_core::qsm::AlteredPosition::Predicate => 0u8,
        sapphire_core::qsm::AlteredPosition::Object => 1,
    };
    (alt.triple_index, position, alt.replacement.as_str())
}

/// Collapse per-shard alternative lists into one candidate per rewrite
/// identity. Similarity is a pure string function, so duplicates agree on
/// it; the surviving candidate is simply the canonical representative. The
/// prefetched `answers` of the survivors are shard-local fragments and are
/// *not* merged here — the router re-prefetches each surviving rewrite
/// cluster-wide so accepted suggestions show the global answer set.
pub fn dedup_alternatives(lists: Vec<Vec<TermAlternative>>) -> Vec<TermAlternative> {
    let mut all: Vec<TermAlternative> = lists.into_iter().flatten().collect();
    all.sort_by(|a, b| alternative_key(a).cmp(&alternative_key(b)));
    all.dedup_by(|later, first| alternative_key(later) == alternative_key(first));
    all
}

/// Sort alternatives into canonical presentation order: predicate rewrites
/// first, then literal rewrites, each kind by similarity (descending) with
/// the rewrite identity as tie-break. Similarity is a pure string function,
/// so the order is identical no matter which shard surfaced a candidate.
pub fn sort_alternatives(alts: &mut [TermAlternative]) {
    alts.sort_by(|a, b| {
        let (ai, ap, ar) = alternative_key(a);
        let (bi, bp, br) = alternative_key(b);
        ap.cmp(&bp)
            .then_with(|| {
                b.similarity
                    .partial_cmp(&a.similarity)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| (ar, ai).cmp(&(br, bi)))
    });
}

/// Rank deduplicated, globally-prefetched alternatives the way the QSM
/// presents them ([`sort_alternatives`]), keeping at most `k/2` per kind —
/// Algorithm 2's presentation contract, made deterministic.
pub fn rank_alternatives(mut alts: Vec<TermAlternative>, k: usize) -> Vec<TermAlternative> {
    sort_alternatives(&mut alts);
    let half = (k / 2).max(1);
    let mut predicates = 0usize;
    let mut literals = 0usize;
    alts.retain(|alt| match alt.position {
        sapphire_core::qsm::AlteredPosition::Predicate => {
            predicates += 1;
            predicates <= half
        }
        sapphire_core::qsm::AlteredPosition::Object => {
            literals += 1;
            literals <= half
        }
    });
    alts
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_core::MatchSource;
    use sapphire_sparql::parse_select;

    fn completion(text: &str, iri: Option<&str>, source: MatchSource) -> Completion {
        Completion {
            text: text.to_string(),
            predicate_iri: iri.map(String::from),
            source,
        }
    }

    #[test]
    fn completions_merge_is_order_insensitive_and_deduped() {
        let a = vec![
            completion("Kennedy", None, MatchSource::SuffixTree),
            completion("surname", Some("http://x/surname"), MatchSource::SuffixTree),
        ];
        let b = vec![
            completion("Kennedy", None, MatchSource::ResidualBins),
            completion("Kenneth", None, MatchSource::ResidualBins),
        ];
        let forward = merge_completions(vec![a.clone(), b.clone()], 10);
        let backward = merge_completions(vec![b, a], 10);
        assert_eq!(forward, backward);
        assert_eq!(forward.len(), 3);
        // The predicate leads (tree + predicate kind), Kennedy keeps its
        // strongest source.
        assert_eq!(forward[0].text, "surname");
        assert_eq!(forward[1].text, "Kennedy");
        assert_eq!(forward[1].source, MatchSource::SuffixTree);
        assert_eq!(forward[2].source, MatchSource::ResidualBins);
    }

    #[test]
    fn completions_truncate_to_k_by_rank() {
        let list: Vec<Completion> = (0..10)
            .map(|i| completion(&format!("lit{i:02}"), None, MatchSource::ResidualBins))
            .collect();
        let merged = merge_completions(vec![list], 3);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].text, "lit00");
    }

    #[test]
    fn solutions_merge_sorts_slices_and_dedups_distinct() {
        let q = parse_select(
            "SELECT DISTINCT ?s WHERE { ?s <http://x/p> ?o } ORDER BY ?s LIMIT 3 OFFSET 1",
        )
        .unwrap();
        let rows = |names: &[&str]| Solutions {
            vars: vec!["s".into()],
            rows: names
                .iter()
                .map(|n| vec![Some(Term::iri(format!("http://x/{n}")))])
                .collect(),
        };
        let merged = merge_solutions(&q, vec![rows(&["c", "a"]), rows(&["b", "a", "d", "e"])]);
        // distinct dedups the shared "a", ORDER BY sorts, OFFSET 1 drops
        // "a", LIMIT 3 keeps b..d.
        let names: Vec<&str> = merged
            .rows
            .iter()
            .map(|r| r[0].as_ref().unwrap().lexical())
            .collect();
        assert_eq!(
            names,
            vec!["http://x/b", "http://x/c", "http://x/d"],
            "{merged:?}"
        );
    }

    /// A sort key the query does not project still orders the merge: the
    /// full bindings are ordered, then projected — `evaluate_select`'s answer,
    /// however the bindings were split over shards.
    #[test]
    fn bindings_merge_orders_by_unprojected_keys_like_the_evaluator() {
        let graph = sapphire_sparql::turtle::parse(
            r#"
res:London dbo:name "London" ; dbo:population 9000000 .
res:Paris dbo:name "Paris" ; dbo:population 11000000 .
res:Rome dbo:name "Rome" ; dbo:population 4000000 .
"#,
        )
        .unwrap();
        let run = |text: &str| {
            let query = parse_select(text).unwrap();
            let mut budget = sapphire_sparql::WorkBudget::unlimited();
            let answer = sapphire_sparql::evaluate_select(&graph, &query, &mut budget).unwrap();
            (query, answer)
        };
        let pattern = "WHERE { ?c dbo:name ?name ; dbo:population ?pop }";
        let (_, star) = run(&format!("SELECT * {pattern}"));
        let shard = |rows: &[usize]| Solutions {
            vars: star.vars.clone(),
            rows: rows.iter().map(|&r| star.rows[r].clone()).collect(),
        };
        for modifiers in [
            "ORDER BY DESC(?pop) LIMIT 1",
            "ORDER BY ?pop LIMIT 2 OFFSET 1",
        ] {
            let (query, expected) = run(&format!("SELECT ?name {pattern} {modifiers}"));
            for lists in [
                vec![shard(&[0, 1, 2])],
                vec![shard(&[2, 0]), shard(&[1])],
                // A binding replicated on two shards still counts once.
                vec![shard(&[1, 2]), shard(&[0, 1])],
            ] {
                assert_eq!(
                    merge_bindings(&query, lists),
                    Ok(expected.clone()),
                    "{modifiers}"
                );
            }
        }
        let (_, top) = run(&format!(
            "SELECT ?name {pattern} ORDER BY DESC(?pop) LIMIT 1"
        ));
        assert_eq!(top.rows[0][0].as_ref().unwrap().lexical(), "Paris");
    }

    #[test]
    fn solutions_merge_keeps_duplicates_without_distinct() {
        let q = parse_select("SELECT ?o WHERE { ?s <http://x/p> ?o }").unwrap();
        let one = Solutions {
            vars: vec!["o".into()],
            rows: vec![vec![Some(Term::en("x"))]],
        };
        let merged = merge_solutions(&q, vec![one.clone(), one]);
        assert_eq!(merged.rows.len(), 2, "multiset semantics preserved");
    }
}

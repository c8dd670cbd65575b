//! Cross-crate property-based tests on the reproduction's core invariants.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

use sapphire_core::bins::{assign_tasks, FoldedLiteral, LitId, ResidualBins};
use sapphire_core::qsm::{AlteredPosition, TermAlternative};
use sapphire_core::session::{Modifiers, Session};
use sapphire_core::{CachedData, InitMode, PredictiveUserModel, SapphireConfig};
use sapphire_datagen::userstudy::{flatten, misspell};
use sapphire_datagen::workload::SessionScript;
use sapphire_datagen::{appendix_b, generate, DatasetConfig};
use sapphire_endpoint::EndpointLimits;
use sapphire_rdf::{ntriples, Graph, Term};
use sapphire_server::RunPayload;
use sapphire_sparql::{evaluate_select, parse_select, SelectQuery, TermPattern, WorkBudget};
use sapphire_text::Lexicon;
use sapphire_wire::codec::{encode_reply, encode_request, LoadHeader, WireReply, WireRequest};

fn tiny_model() -> PredictiveUserModel {
    PredictiveUserModel::initialize_local(
        "tiny",
        generate(DatasetConfig::tiny(42)),
        EndpointLimits::warehouse(),
        Lexicon::dbpedia_default(),
        SapphireConfig {
            processes: 2,
            ..SapphireConfig::default()
        },
        InitMode::Federated,
    )
    .unwrap()
}

/// Every Appendix-B script as a user would run it: as written, with its
/// entity hops flattened (Figure 6's mistake), and with its first literal
/// keyword misspelled (Figure 2's).
fn run_pool(pum: &PredictiveUserModel) -> Vec<(String, SelectQuery)> {
    let mut rng = StdRng::seed_from_u64(21);
    let mut pool = Vec::new();
    for question in appendix_b() {
        let script = &question.script;
        let mut variants: Vec<(&str, SessionScript)> = vec![("as written", script.clone())];
        if let Some(flat) = flatten(script) {
            variants.push(("flattened", flat));
        }
        let literal_row = script.rows.iter().position(|row| {
            !row.object.starts_with('?') && !matches!(row.predicate.trim(), "a" | "type" | "is a")
        });
        if let Some(row) = literal_row {
            let mut typo = script.clone();
            typo.rows[row].object = misspell(&typo.rows[row].object, &mut rng);
            variants.push(("misspelled", typo));
        }
        for (variant, script) in variants {
            let modifiers = Modifiers {
                distinct: false,
                order_by: script.order_by.clone(),
                limit: script.limit,
                count: script.count,
                filters: script.filters.clone(),
            };
            let query = Session::resume(pum, script.rows.clone(), modifiers, 0)
                .build_query()
                .expect("workload scripts build");
            pool.push((format!("{} {variant}", question.id), query));
        }
    }
    pool
}

/// `rewritten` is `base` with exactly the slot `alt` names holding `alt.term`.
fn assert_one_slot_edit(
    alt: &TermAlternative,
    base: &SelectQuery,
    rewritten: &SelectQuery,
    ctx: &str,
) {
    let (was, now) = (&base.pattern.triples, &rewritten.pattern.triples);
    assert_eq!(was.len(), now.len(), "{ctx}");
    let replacement = TermPattern::Term(alt.term.clone());
    for (i, (was, now)) in was.iter().zip(now).enumerate() {
        let mut expected = was.clone();
        if i == alt.triple_index {
            match alt.position {
                AlteredPosition::Predicate => expected.predicate = replacement.clone(),
                AlteredPosition::Object => expected.object = replacement.clone(),
            }
            assert_ne!(&expected, was, "{ctx}: an alternative changes its slot");
        }
        assert_eq!(&expected, now, "{ctx}: triple {i}");
    }
    let mut outside = rewritten.clone();
    outside.pattern = base.pattern.clone();
    assert_eq!(&outside, base, "{ctx}: nothing outside the pattern moved");
}

/// Algorithm 2 proposes queries "differing in exactly one term": every
/// candidate and every shown alternative of every pool Run rewrites the query
/// in exactly its own slot, whatever surrounds the pattern — so the rewrite
/// of the star-projected query a shard saw and of the user's query differ
/// only where those two did, which is what lets a cluster edge apply shard
/// candidates to the original.
#[test]
fn every_candidate_is_a_one_slot_edit_of_any_query_over_the_pattern() {
    let pum = tiny_model();
    let mut checked = 0;
    for (label, query) in run_pool(&pum) {
        let star = SelectQuery::star(query.pattern.clone());
        let suggestions = pum.run(&query).suggestions;
        for alt in suggestions
            .candidates
            .iter()
            .chain(&suggestions.alternatives)
        {
            let ctx = format!("{label}: {} -> {}", alt.original, alt.replacement);
            let rewritten = alt.rewrite(&query).expect("the model's own edit fits");
            assert_one_slot_edit(alt, &query, &rewritten, &ctx);
            let star_rewritten = alt.rewrite(&star).expect("same pattern, same fit");
            assert_one_slot_edit(alt, &star, &star_rewritten, &ctx);
            assert_eq!(star_rewritten.pattern, rewritten.pattern, "{ctx}");
            checked += 1;
        }
    }
    assert!(checked > 100, "the pool produces candidates: {checked}");
}

/// A candidate travels as an edit, not as a copy of the query: the encoded
/// reply of a Run with many candidates is shorter than that many encoded
/// queries.
#[test]
fn a_run_reply_is_shorter_than_one_query_per_candidate() {
    let pum = tiny_model();
    let mut sized = 0;
    for (label, query) in run_pool(&pum) {
        let outcome = pum.run(&query);
        let candidates = outcome.suggestions.candidates.len();
        if candidates < 10 {
            continue;
        }
        let request = encode_request(&WireRequest::Run {
            tenant: String::new(),
            query,
            tier: 0,
            budget: None,
        });
        let reply = encode_reply(
            LoadHeader::default(),
            &Ok(WireReply::Run(RunPayload {
                answers: outcome.answers,
                executed: outcome.executed,
                suggestions: Arc::new(outcome.suggestions),
            })),
        );
        assert!(
            reply.len() < candidates * request.len(),
            "{label}: {} B reply, {candidates} candidates, {} B query",
            reply.len(),
            request.len()
        );
        sized += 1;
    }
    assert!(sized > 0, "some Run has ten candidates");
}

proptest! {
    /// N-Triples serialization round-trips arbitrary term-shaped graphs.
    #[test]
    fn ntriples_roundtrip(
        triples in proptest::collection::vec(
            ("[a-z]{1,8}", "[a-z]{1,8}", "[ -~]{0,20}"),
            1..30,
        )
    ) {
        let g = Graph::from_term_triples(triples.iter().map(|(s, p, o)| {
            (
                Term::iri(format!("http://x/{s}")),
                Term::iri(format!("http://x/{p}")),
                Term::en(o.clone()),
            )
        }));
        let text = ntriples::serialize(&g);
        let g2 = ntriples::parse(&text).expect("serialized graph parses");
        prop_assert_eq!(g.len(), g2.len());
        for (s, p, o) in g.iter_terms() {
            prop_assert!(g2.contains(s, p, o));
        }
    }

    /// Algorithm 1 is a partition: every literal assigned exactly once, and
    /// the per-worker load never exceeds ⌈n/P⌉ except for the final worker's
    /// remainder absorption.
    #[test]
    fn algorithm1_partition_invariants(
        sizes in proptest::collection::vec(0usize..40, 1..12),
        p in 1usize..9,
    ) {
        let mut next: u32 = 0;
        let owned: Vec<Vec<LitId>> = sizes
            .iter()
            .map(|&s| {
                let v: Vec<LitId> = (next..next + s as u32).collect();
                next += s as u32;
                v
            })
            .collect();
        let bins: Vec<&[LitId]> = owned.iter().map(Vec::as_slice).collect();
        let tasks = assign_tasks(&bins, p);
        prop_assert_eq!(tasks.len(), p);
        let mut seen: Vec<LitId> = tasks
            .iter()
            .flatten()
            .flat_map(|seg| bins[seg.bin][seg.range.clone()].iter().copied())
            .collect();
        seen.sort_unstable();
        let total: usize = sizes.iter().sum();
        prop_assert_eq!(seen, (0..total as u32).collect::<Vec<_>>());
    }

    /// The parallel residual scan finds exactly what a sequential scan finds,
    /// for any worker count — on the case-folded view, whatever the case of
    /// the literals and the needle.
    #[test]
    fn parallel_scan_equivalence(
        literals in proptest::collection::vec("[a-dA-DΣé]{1,12}", 1..60),
        needle in "[a-dA-Dσ]{1,3}",
        p in 1usize..6,
    ) {
        let mut bins = ResidualBins::new();
        for l in &literals {
            bins.add(l.clone());
        }
        let needle = needle.to_lowercase();
        let mut parallel: Vec<LitId> = bins
            .scan_parallel(0..20, p, || {
                |lit: FoldedLiteral<'_>| lit.text().contains(needle.as_str()).then_some(1.0)
            })
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        parallel.sort_unstable();
        let sequential: Vec<LitId> = (0..bins.len() as u32)
            .filter(|&id| bins.literal(id).to_lowercase().contains(needle.as_str()))
            .collect();
        prop_assert_eq!(parallel, sequential);
    }

    /// QCM lookups through the whole cache (tree + bins) return every cached
    /// literal containing the probe, regardless of how the significance split
    /// distributed literals between tree and bins.
    #[test]
    fn cache_split_is_lossless_for_lookup(
        literals in proptest::collection::vec("[a-c]{2,10}", 1..40),
        capacity in 0usize..20,
        probe in "[a-c]{1,2}",
    ) {
        let config = SapphireConfig {
            suffix_tree_capacity: capacity,
            processes: 2,
            gamma: 20,
            ..SapphireConfig::default()
        };
        let scored: Vec<(String, u64)> =
            literals.iter().enumerate().map(|(i, l)| (l.clone(), i as u64)).collect();
        let cache = CachedData::from_raw(vec![], scored, &config);
        let mut found: Vec<String> = cache
            .tree_lookup(&probe, usize::MAX)
            .into_iter()
            .map(|m| m.text)
            .collect();
        // Residual scan from length 0: emulate by searching the whole band.
        for len in 0..20 {
            let needle = probe.to_lowercase();
            for &id in cache.bins.bin(len) {
                if cache.bins.literal(id).to_lowercase().contains(&needle) {
                    found.push(cache.bins.literal(id).to_string());
                }
            }
        }
        found.sort();
        found.dedup();
        let mut expected: Vec<String> =
            literals.iter().filter(|l| l.contains(probe.as_str())).cloned().collect();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(found, expected);
    }

    /// DISTINCT never increases result counts and is idempotent; LIMIT caps.
    #[test]
    fn select_modifier_invariants(
        names in proptest::collection::vec("[a-f]{1,6}", 1..25),
        limit in 1usize..10,
    ) {
        let g = Graph::from_term_triples(names.iter().enumerate().map(|(i, n)| {
            (
                Term::iri(format!("http://x/e{i}")),
                Term::iri("http://x/name"),
                Term::en(n.clone()),
            )
        }));
        let all = parse_select("SELECT ?n WHERE { ?s <http://x/name> ?n }").unwrap();
        let distinct = parse_select("SELECT DISTINCT ?n WHERE { ?s <http://x/name> ?n }").unwrap();
        let limited =
            parse_select(&format!("SELECT ?n WHERE {{ ?s <http://x/name> ?n }} LIMIT {limit}")).unwrap();
        let mut b = WorkBudget::unlimited();
        let r_all = evaluate_select(&g, &all, &mut b).unwrap();
        let r_distinct = evaluate_select(&g, &distinct, &mut b).unwrap();
        let r_limited = evaluate_select(&g, &limited, &mut b).unwrap();
        prop_assert!(r_distinct.len() <= r_all.len());
        prop_assert!(r_limited.len() <= limit);
        let mut uniq: Vec<&str> = r_all.values("n").map(|t| t.lexical()).collect();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(r_distinct.len(), uniq.len());
    }
}

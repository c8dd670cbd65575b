//! Cross-crate property-based tests on the reproduction's core invariants.

use std::convert::Infallible;
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use sapphire_cluster::merge::merge_completions;
use sapphire_core::bins::{assign_tasks, FoldedLiteral, LitId, ResidualBins};
use sapphire_core::qcm::{completion_rank, Completion, QueryCompletion};
use sapphire_core::qsm::{top_with_answers, AlteredPosition, QsmOutput, TermAlternative};
use sapphire_core::session::Session;
use sapphire_core::{CachedData, InitMode, MatchSource, PredictiveUserModel, SapphireConfig};
use sapphire_datagen::userstudy::{flatten, misspell};
use sapphire_datagen::workload::SessionScript;
use sapphire_datagen::{appendix_b, generate, DatasetConfig};
use sapphire_endpoint::{
    Endpoint, EndpointError, EndpointLimits, FederatedProcessor, LocalEndpoint,
};
use sapphire_rdf::{Graph, Term};
use sapphire_server::RunPayload;
use sapphire_sparql::{
    evaluate_select, lexer, parse_query, parse_select, turtle, Aggregate, Projection, Query,
    QueryResult, SelectItem, SelectQuery, Solutions, TermPattern, WorkBudget,
};
use sapphire_text::Lexicon;
use sapphire_wire::codec::{encode_reply, encode_request, LoadHeader, WireReply, WireRequest};

fn tiny_model() -> PredictiveUserModel {
    tiny_model_and_endpoint().0
}

/// The model, and its one endpoint for the counters.
fn tiny_model_and_endpoint() -> (PredictiveUserModel, Arc<LocalEndpoint>) {
    let endpoint = Arc::new(LocalEndpoint::new(
        "tiny",
        generate(DatasetConfig::tiny(42)),
        EndpointLimits::warehouse(),
    ));
    let pum = PredictiveUserModel::initialize(
        vec![endpoint.clone()],
        Lexicon::dbpedia_default(),
        SapphireConfig {
            processes: 2,
            ..SapphireConfig::default()
        },
        InitMode::Federated,
    )
    .unwrap();
    (pum, endpoint)
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
            let modifiers = script.modifiers();
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
        for alt in pum
            .qsm()
            .candidates(&query)
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

/// Algorithm 2 lines 23–24 as first written, the specification
/// [`top_with_answers`] is held to: run every candidate's whole rewrite, in
/// rank order, until `take` of them returned rows.
fn sequential_cut(
    base: &SelectQuery,
    candidates: &[TermAlternative],
    take: usize,
    endpoint: &dyn Endpoint,
) -> Vec<TermAlternative> {
    let mut kept = Vec::new();
    for cand in candidates {
        if kept.len() >= take {
            break;
        }
        let Some(rewritten) = cand.rewrite(base) else {
            continue;
        };
        match answers_of(endpoint, &rewritten) {
            Some(found) if !found.is_empty() => kept.push(TermAlternative {
                answers: found,
                ..cand.clone()
            }),
            _ => {}
        }
    }
    kept
}

fn answers_of(endpoint: &dyn Endpoint, query: &SelectQuery) -> Option<Solutions> {
    endpoint
        .execute_parsed(&Query::Select(query.clone()))
        .ok()?
        .into_solutions()
}

/// The shipped cut over the same endpoint.
fn shipped_cut(
    base: &SelectQuery,
    candidates: &[TermAlternative],
    take: usize,
    endpoint: &dyn Endpoint,
) -> Vec<TermAlternative> {
    let Ok(kept) = top_with_answers(base, candidates, take, |asked| {
        Ok::<_, Infallible>(answers_of(endpoint, asked))
    });
    kept
}

/// One kind's candidates at a time, as the model and the edge hand them over.
fn kinds(candidates: &[TermAlternative]) -> [&[TermAlternative]; 2] {
    let literals_from = candidates.partition_point(|c| c.position == AlteredPosition::Predicate);
    let (predicates, literals) = candidates.split_at(literals_from);
    [predicates, literals]
}

fn slots(candidates: &[TermAlternative]) -> usize {
    let mut slots: Vec<(usize, bool)> = candidates
        .iter()
        .map(|c| (c.triple_index, c.position == AlteredPosition::Object))
        .collect();
    slots.sort_unstable();
    slots.dedup();
    slots.len()
}

/// `query` as a COUNT over its first variable: bare (one row even over no
/// solutions — the cut must not pre-filter) and grouped (no solutions, no
/// rows — it may).
fn count_variants(query: &SelectQuery) -> [SelectQuery; 2] {
    let var = query.pattern.variables().swap_remove(0);
    let count = SelectItem::Agg {
        agg: Aggregate::Count {
            distinct: false,
            var: Some(var.clone()),
        },
        alias: "n".into(),
    };
    let bare = SelectQuery {
        projection: Projection::Items(vec![count.clone()]),
        ..SelectQuery::star(query.pattern.clone())
    };
    let grouped = SelectQuery {
        projection: Projection::Items(vec![SelectItem::Var(var.clone()), count]),
        group_by: vec![var],
        ..bare.clone()
    };
    [bare, grouped]
}

/// The cut asks the endpoint one probe per slot and runs in full only what
/// it may keep — and keeps, byte for byte, what running every candidate in
/// turn kept: same candidates, same order, same prefetched answers, for every
/// pool Run and for COUNTs over the same patterns, and the model's own
/// output is that list.
#[test]
fn the_cut_keeps_what_the_sequential_walk_keeps() {
    let (pum, endpoint) = tiny_model_and_endpoint();
    let half = (pum.config().k / 2).max(1);
    let charged = |cut: &mut dyn FnMut()| {
        let before = endpoint.stats();
        cut();
        let after = endpoint.stats();
        after.queries - before.queries
    };
    let (mut cuts, mut kept_total) = (0, 0);
    let (mut shipped_queries, mut reference_queries) = (0, 0);
    for (label, query) in run_pool(&pum) {
        let suggestions = pum.run(&query).suggestions;
        let candidates = pum.qsm().candidates(&query);
        let mut as_run = Vec::new();
        let [bare, grouped] = count_variants(&query);
        for (shape, base) in [("as run", &query), ("count", &bare), ("grouped", &grouped)] {
            for kind in kinds(&candidates) {
                let (mut shipped, mut reference) = (Vec::new(), Vec::new());
                let queries =
                    charged(&mut || shipped = shipped_cut(base, kind, half, endpoint.as_ref()));
                let ref_queries = charged(&mut || {
                    reference = sequential_cut(base, kind, half, endpoint.as_ref())
                });
                let ctx = format!("{label}, {shape}");
                assert_eq!(format!("{shipped:?}"), format!("{reference:?}"), "{ctx}");
                let bound = if shape == "count" {
                    ref_queries
                } else {
                    (slots(kind) + half) as u64
                };
                assert!(queries <= bound, "{ctx}: {queries} queries, bound {bound}");
                if shape == "as run" {
                    as_run.extend(shipped);
                    cuts += 1;
                    shipped_queries += queries;
                    reference_queries += ref_queries;
                } else {
                    kept_total += shipped.len();
                }
            }
        }
        assert_eq!(
            format!("{as_run:?}"),
            format!("{:?}", suggestions.alternatives),
            "{label}: the model's alternatives are the cut's"
        );
        kept_total += as_run.len();
    }
    assert!(
        cuts > 100 && kept_total > 50,
        "{cuts} cuts kept {kept_total}"
    );
    assert!(
        shipped_queries * 2 < reference_queries,
        "{shipped_queries} queries where the walk made {reference_queries}"
    );
}

/// What is kept never depends on whether a probe succeeded: an endpoint
/// that times the batched probe out, or rejects it on its estimate, while
/// it answers every single rewrite, gives the sequential walk's list.
#[test]
fn a_refused_probe_filters_nothing() {
    let surname = |text: &str| Term::en(text);
    let graph = || {
        let person = |n: usize| Term::iri(format!("http://x/person{n}"));
        let p = Term::iri("http://dbpedia.org/ontology/surname");
        Graph::from_term_triples([
            (person(0), p.clone(), surname("Kennedy")),
            (person(1), p.clone(), surname("Kennedy")),
            (person(2), p.clone(), surname("Kennedy Onassis")),
            (person(3), p, surname("Kenney")),
        ])
    };
    let base = parse_select(r#"SELECT ?p WHERE { ?p dbo:surname "Kenedy"@en }"#).unwrap();
    let candidates: Vec<TermAlternative> = ["Kennedi", "Kennedy", "Kenney", "Kennedy Onassis"]
        .iter()
        .enumerate()
        .map(|(rank, text)| TermAlternative {
            triple_index: 0,
            position: AlteredPosition::Object,
            term: surname(text),
            original: "Kenedy".into(),
            replacement: text.to_string(),
            similarity: 1.0 - rank as f64 / 10.0,
            answers: Solutions::default(),
        })
        .collect();
    let open = LocalEndpoint::new("open", graph(), EndpointLimits::warehouse());
    let reference = sequential_cut(&base, &candidates, 2, &open);
    let names: Vec<&str> = reference.iter().map(|a| a.replacement.as_str()).collect();
    assert_eq!(names, ["Kennedy", "Kenney"]);
    open.reset_stats();
    assert_eq!(
        format!("{:?}", shipped_cut(&base, &candidates, 2, &open)),
        format!("{reference:?}")
    );
    assert_eq!(open.stats().queries, 1 + 2, "a probe and two prefetches");

    // The probe looks four surnames up (three present: 2 + 1 + 1 rows to
    // scan, a row each); a rewrite at most two and two.
    for limits in [
        EndpointLimits {
            timeout_work: Some(4),
            ..EndpointLimits::warehouse()
        },
        EndpointLimits {
            reject_above: Some(2),
            ..EndpointLimits::warehouse()
        },
    ] {
        let guarded = LocalEndpoint::new("guarded", graph(), limits);
        assert_eq!(
            format!("{:?}", shipped_cut(&base, &candidates, 2, &guarded)),
            format!("{reference:?}"),
            "{limits:?}"
        );
        let stats = guarded.stats();
        assert_eq!(stats.timeouts + stats.rejected, 1, "the probe was refused");
        assert_eq!(
            stats.queries + stats.rejected,
            1 + 3,
            "then every rewrite down to the second kept was run"
        );
    }
}

/// A federation as the one endpoint the cut is given, the way the model asks
/// it: whatever fails there is a query without an answer.
struct Federated(FederatedProcessor);

impl Endpoint for Federated {
    fn name(&self) -> &str {
        "federation"
    }

    fn execute_parsed(&self, query: &Query) -> Result<QueryResult, EndpointError> {
        self.0
            .execute_parsed(query)
            .map_err(|e| EndpointError::Eval(e.to_string()))
    }
}

/// Across independent endpoints a probe is answered whole or not at all,
/// so the cut keeps what the walk keeps there too: when one endpoint matches
/// every pattern but joins only some candidates by itself, and when one of
/// two endpoints refuses the batched look-up and admits every single one.
#[test]
fn a_federated_probe_drops_no_candidate_the_walk_keeps() {
    const PLACES: &str = "res:Ely dbo:population 20000 . res:London dbo:population 9000000 .
res:Leeds dbo:population 800000 .";
    let most = format!("res:Cy1 dbo:name \"Cy\" ; dbo:birthPlace res:Leeds . {PLACES}");
    let rest = r#"res:Ada dbo:name "Ada" ; dbo:birthPlace res:Ely .
res:Bob dbo:name "Bob" ; dbo:birthPlace res:London ."#;
    let base = parse_select(
        r#"SELECT ?s ?pop WHERE { ?s dbo:name "Cx" ; dbo:birthPlace ?p . ?p dbo:population ?pop }"#,
    )
    .unwrap();
    let candidates: Vec<TermAlternative> = ["Cy", "Zed", "Ada", "Bob"]
        .iter()
        .enumerate()
        .map(|(rank, text)| TermAlternative {
            triple_index: 0,
            position: AlteredPosition::Object,
            term: Term::literal(*text),
            original: "Cx".into(),
            replacement: text.to_string(),
            similarity: 1.0 - rank as f64 / 10.0,
            answers: Solutions::default(),
        })
        .collect();
    // A single look-up costs "rest" at most three units (a range of two and
    // a row); the batched one over its two names, four.
    for (limits, refused) in [
        (EndpointLimits::warehouse(), 0),
        (
            EndpointLimits {
                timeout_work: Some(3),
                ..EndpointLimits::warehouse()
            },
            1,
        ),
    ] {
        let guarded = Arc::new(LocalEndpoint::new(
            "rest",
            turtle::parse(rest).unwrap(),
            limits,
        ));
        let mut fed = FederatedProcessor::new();
        fed.register(Arc::new(LocalEndpoint::new(
            "most",
            turtle::parse(&most).unwrap(),
            EndpointLimits::warehouse(),
        )));
        fed.register(guarded.clone());
        let fed = Federated(fed);
        let reference = sequential_cut(&base, &candidates, 3, &fed);
        let names: Vec<&str> = reference.iter().map(|a| a.replacement.as_str()).collect();
        assert_eq!(names, ["Cy", "Ada", "Bob"], "{limits:?}");
        assert_eq!(guarded.stats().timeouts, 0, "every rewrite is admitted");
        assert_eq!(
            format!("{:?}", shipped_cut(&base, &candidates, 3, &fed)),
            format!("{reference:?}"),
            "{limits:?}"
        );
        assert_eq!(guarded.stats().timeouts, refused, "{limits:?}");
    }
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
        let suggestions = QsmOutput {
            candidates: pum.qsm().candidates(&query),
            ..outcome.suggestions
        };
        let candidates = suggestions.candidates.len();
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
                suggestions: Arc::new(suggestions),
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

/// Every completion of `typed`, brute-forced from `cache`'s split with no
/// index, no bins scan and no executor: the indexed predicates and
/// significant literals containing it case-sensitively, in
/// [`completion_rank`] order, then the residual literals of `|t| ..=
/// |t| + gamma` chars containing it up to case, by (length, text).
fn reference_completions(cache: &CachedData, typed: &str, gamma: usize) -> Vec<Completion> {
    let t = typed.trim();
    if t.is_empty() {
        return Vec::new();
    }
    let completion = |text: &str, iri: Option<&String>, source| Completion {
        text: text.to_string(),
        predicate_iri: iri.cloned(),
        source,
    };
    let predicates = cache.predicates.iter().map(|p| (&p.surface, Some(&p.iri)));
    let significant = cache.significant.iter().map(|(text, _)| (text, None));
    let mut indexed: Vec<Completion> = predicates
        .chain(significant)
        .filter(|(text, _)| text.contains(t))
        .map(|(text, iri)| completion(text, iri, MatchSource::SuffixTree))
        .collect();
    indexed.sort_by(|a, b| completion_rank(a).cmp(&completion_rank(b)));
    let (len, needle) = (t.chars().count(), t.to_lowercase());
    let mut residual: Vec<&str> = (0..cache.bins.len() as LitId)
        .map(|id| cache.bins.literal(id))
        .filter(|l| (len..=len + gamma).contains(&l.chars().count()))
        .filter(|l| l.to_lowercase().contains(&needle))
        .collect();
    residual.sort_by_key(|l| (l.chars().count(), *l));
    let residual = residual
        .into_iter()
        .map(|l| completion(l, None, MatchSource::ResidualBins));
    indexed.extend(residual);
    indexed
}

proptest! {
    /// A graph rendered one `{s} {p} {o} .` line per triple with `Term`'s
    /// `Display` reads back through Turtle to the same graph.
    #[test]
    fn rendered_triples_read_back_through_turtle(
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
        let text: String = g
            .iter_terms()
            .map(|(s, p, o)| format!("{s} {p} {o} .\n"))
            .collect();
        let g2 = turtle::parse(&text).expect("rendered graph parses");
        prop_assert_eq!(g.len(), g2.len());
        for (s, p, o) in g.iter_terms() {
            prop_assert!(g2.contains(s, p, o));
        }
    }

    /// Any short string over Turtle's punctuation, ASCII and multi-byte
    /// whitespace and a few multi-byte letters parses or fails typed, as a
    /// document and as a query's pattern, and the lexer both read through
    /// reports every error at a character boundary: it never slices inside
    /// a character.
    #[test]
    fn turtle_never_panics_on_mixed_width_input(
        docs in proptest::collection::vec(
            "[<>\"\\_:@^.,;#'+a-e019 \t\n\u{a0}\u{2003}\u{3000}é😀-]{0,40}",
            1..64,
        ),
    ) {
        for doc in &docs {
            let _ = turtle::parse(doc);
            let _ = parse_query(&format!("ASK {{ {doc} }}"));
            if let Err(e) = lexer::tokenize(doc) {
                prop_assert!(doc.is_char_boundary(e.offset), "{doc:?}: {e}");
            }
        }
    }

    /// Algorithm 1 is a partition: `P` tasks, every literal of the band
    /// assigned exactly once, in band order, and no worker's load above
    /// ⌈n/P⌉.
    #[test]
    fn algorithm1_partition_invariants(
        start in 0usize..40,
        n in 0usize..400,
        p in 1usize..9,
    ) {
        let band = start..start + n;
        let tasks = assign_tasks(band.clone(), p);
        prop_assert_eq!(tasks.len(), p);
        let seen: Vec<usize> = tasks.iter().cloned().flatten().collect();
        prop_assert_eq!(seen, band.collect::<Vec<_>>());
        prop_assert!(tasks.iter().all(|task| task.len() <= n.div_ceil(p)));
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
        let bins: ResidualBins = literals.iter().cloned().collect();
        let bins = Arc::new(bins);
        let needle = needle.to_lowercase();
        let probe = needle.clone();
        let mut parallel: Vec<LitId> = bins
            .scan_parallel(0..20, p, move || {
                let needle = probe.clone();
                move |lit: FoldedLiteral<'_>| lit.text().contains(needle.as_str()).then_some(1.0)
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

    /// The residual lookup — one walk over the band's postings for the
    /// needle's rarest byte pair, or over the whole band for a needle
    /// without one — answers like folding every literal of the band, in
    /// rank order, unsorted. Each literal's length is counted from its own
    /// text, not read back from the bins under test.
    #[test]
    fn residual_lookup_is_the_fold_every_time_scan_in_order(
        literals in proptest::collection::vec("[a-cA-CΣσİéß😀 ]{0,12}", 0..60),
        needle in "[a-cA-CΣσİéß😀 ]{1,4}",
        gamma_pick in 0usize..4,
        p in 1usize..4,
        from in 0usize..60,
        at in 0usize..12,
    ) {
        let gamma = [0, 2, 10, usize::MAX][gamma_pick];
        let config = SapphireConfig {
            suffix_tree_capacity: 0,
            ..SapphireConfig::default()
        };
        let scored: Vec<(String, u64)> = literals.iter().map(|l| (l.clone(), 0)).collect();
        let cache = CachedData::from_raw(vec![], scored, &config);
        // A second needle cut from a literal, so that most lookups match.
        let host = literals.get(from % literals.len().max(1)).map_or("", String::as_str);
        let cut: String = host.chars().skip(at).take(needle.chars().count()).collect();
        for needle in [needle.as_str(), cut.as_str()] {
            let len = needle.chars().count();
            let folded = needle.to_lowercase();
            let bins = &cache.bins;
            let chars = |id: LitId| bins.literal(id).chars().count();
            let mut naive: Vec<LitId> = (0..bins.len() as LitId)
                .filter(|&id| len <= chars(id) && chars(id) - len <= gamma)
                .filter(|&id| bins.literal(id).to_lowercase().contains(&folded))
                .collect();
            // Ids are ranks by (length, text), so the sort changes nothing.
            naive.sort_by_key(|&id| chars(id));
            prop_assert_eq!(cache.residual_lookup(needle, gamma, p), naive);
        }
    }

    /// A residual literal's id is its completion rank. Over corpora with
    /// multi-byte characters, deduplicated the way `assemble` does: the
    /// literals ascend by (chars, text), and bins collected from a shuffled
    /// copy hold the same order; the bins are id ranges that tile the ids,
    /// each holding its length; band counts are naive counts; and every
    /// lookup returns strictly ascending ids.
    #[test]
    fn residual_ids_are_completion_rank(
        literals in proptest::collection::vec("[a-cA-CΣσİéß😀 ]{0,10}", 0..60),
        needle in "[a-cA-CΣσİéß😀 ]{1,3}",
        gamma_pick in 0usize..3,
        p in 1usize..4,
        lo in 0usize..14,
        width in 0usize..14,
        seed in 0u64..1 << 32,
    ) {
        let mut corpus = literals.clone();
        corpus.sort();
        corpus.dedup();
        let config = SapphireConfig { suffix_tree_capacity: 0, ..SapphireConfig::default() };
        let scored: Vec<(String, u64)> = literals.iter().map(|l| (l.clone(), 0)).collect();
        let cache = CachedData::from_raw(vec![], scored, &config);
        let bins = &cache.bins;
        prop_assert_eq!(bins.len(), corpus.len());
        let rank = |id: LitId| (bins.literal(id).chars().count(), bins.literal(id));
        let ids = 0..bins.len() as LitId;
        prop_assert!(ids.clone().skip(1).all(|id| rank(id - 1) < rank(id)));
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..corpus.len()).rev() {
            corpus.swap(i, rng.gen_range(0..=i));
        }
        let collected: ResidualBins = corpus.into_iter().collect();
        prop_assert!(ids.clone().all(|id| collected.literal(id) == bins.literal(id)));

        let mut next = 0;
        for len in 0..=12 {
            let bin = bins.bin(len);
            prop_assert_eq!(bin.start, next);
            prop_assert!(bin.clone().all(|id| bins.char_len(id) == len && rank(id).0 == len));
            next = bin.end;
        }
        prop_assert_eq!(next as usize, bins.len());
        let band = lo..lo + width;
        let naive = ids.filter(|&id| band.contains(&rank(id).0)).count();
        prop_assert_eq!(bins.count_in_range(band), naive);

        let gamma = [0, 3, usize::MAX][gamma_pick];
        let cuts = literals.iter().flat_map(|l| {
            let chars: Vec<char> = l.chars().collect();
            (1..=chars.len().min(3)).map(move |n| chars[..n].iter().collect::<String>())
        });
        for needle in std::iter::once(needle.clone()).chain(cuts) {
            let found = cache.residual_lookup(&needle, gamma, p);
            prop_assert!(found.windows(2).all(|w| w[0] < w[1]), "{:?}: {:?}", needle, found);
        }
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
            for id in cache.bins.bin(len) {
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

    /// Completions are a function of the data. Two caches assembled from the
    /// same predicates and scored literals, fed in two shuffled orders,
    /// complete every prefix of every cached string alike — with the suffix
    /// tree holding none, some or all of the literals — and each answer is
    /// already the edge's merge of the full match list, cut at k. The full
    /// list is [`reference_completions`]'s brute force over the cache's split.
    #[test]
    fn completions_are_a_function_of_the_data(
        names in proptest::collection::vec("[a-cA-C]{1,6}", 1..8),
        literals in proptest::collection::vec("[a-cA-C ]{1,8}", 1..40),
        seed in 0u64..1 << 32,
        k in 1usize..6,
    ) {
        let predicates: Vec<(String, u64)> =
            names.iter().enumerate().map(|(i, n)| (format!("http://x/{n}{i}"), i as u64)).collect();
        let scored: Vec<(String, u64)> =
            literals.iter().enumerate().map(|(i, l)| (l.clone(), i as u64 % 3)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuffled = |items: &[(String, u64)]| {
            let mut items = items.to_vec();
            for i in (1..items.len()).rev() {
                items.swap(i, rng.gen_range(0..=i));
            }
            items
        };
        for capacity in [0, literals.len() / 2, literals.len() + 1] {
            let config = SapphireConfig {
                suffix_tree_capacity: capacity,
                processes: 2,
                ..SapphireConfig::default()
            };
            let [a, b] = [(); 2].map(|_| {
                let cache = CachedData::from_raw(shuffled(&predicates), shuffled(&scored), &config);
                QueryCompletion::new(Arc::new(cache), config.clone())
            });
            let surfaces = a.cache().predicates.iter().map(|p| p.surface.clone());
            for text in surfaces.chain(literals.iter().cloned()) {
                for end in 1..=text.chars().count() {
                    let typed: String = text.chars().take(end).collect();
                    let got = a.complete_top(&typed, k).suggestions;
                    prop_assert_eq!(&got, &b.complete_top(&typed, k).suggestions);
                    let every = a.complete_top(&typed, usize::MAX).suggestions;
                    prop_assert_eq!(&every, &reference_completions(a.cache(), &typed, config.gamma));
                    prop_assert_eq!(got, merge_completions(vec![every], k));
                }
            }
        }
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

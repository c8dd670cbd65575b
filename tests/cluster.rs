//! Cluster-vs-oracle contracts: a sharded, replicated deployment must be
//! *indistinguishable in content* from one big server over the same data.
//!
//! The comparison contract: the cluster defines a canonical answer order
//! (the deterministic score-then-key merges of `sapphire_cluster::merge`),
//! and the single-box oracle's answers are passed through the *same public
//! merge functions* (a merge of one list canonicalizes order without
//! touching content) before the byte-for-byte equality check. Slices
//! (LIMIT/OFFSET) are owned by the edge on both sides — the oracle runs the
//! slice-stripped query and the canonical merge applies the cut — because a
//! pre-merge cut is exactly the bug a sharded top-k must not have.

use std::sync::Arc;

use sapphire_cluster::merge::{
    dedup_alternatives, merge_completions, merge_solutions, rank_alternatives, strip_slice,
};
use sapphire_cluster::{Cluster, ClusterConfig, ClusterRouter};
use sapphire_core::qsm::TermAlternative;
use sapphire_core::session::{Modifiers, Session};
use sapphire_core::{InitMode, PredictiveUserModel, SapphireConfig};
use sapphire_datagen::workload::appendix_b;
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_endpoint::{Backoff, EndpointLimits};
use sapphire_server::{SapphireServer, ServerConfig};
use sapphire_sparql::{Query, SelectQuery, Solutions};
use sapphire_text::Lexicon;

fn sapphire_config() -> SapphireConfig {
    // Paper constants, two workers. The default 40k-string suffix tree
    // swallows the whole tiny corpus, so "significant literal" membership
    // cannot differ between the global cache and any shard-local cache.
    SapphireConfig {
        processes: 2,
        ..SapphireConfig::default()
    }
}

fn oracle() -> (Arc<PredictiveUserModel>, Arc<SapphireServer>) {
    let pum = Arc::new(
        PredictiveUserModel::initialize_local(
            "oracle",
            generate(DatasetConfig::tiny(42)),
            EndpointLimits::warehouse(),
            Lexicon::dbpedia_default(),
            sapphire_config(),
            InitMode::Federated,
        )
        .unwrap(),
    );
    let server = Arc::new(SapphireServer::new(pum.clone(), ServerConfig::for_tests()));
    (pum, server)
}

fn router(shards: usize, replicas: usize) -> ClusterRouter {
    let graph = generate(DatasetConfig::tiny(42));
    let cluster = Cluster::build(
        "edge",
        &graph,
        shards,
        replicas,
        &Lexicon::dbpedia_default(),
        &sapphire_config(),
        &ServerConfig::for_tests(),
    )
    .unwrap();
    ClusterRouter::new(
        cluster,
        ClusterConfig {
            // Hedging off for the oracle comparison: the answers must be
            // identical either way (the saturation test proves that); this
            // keeps the comparison runs cheap.
            hedge_after: None,
            ..ClusterConfig::for_tests()
        },
    )
}

/// The workload queries, built once against the oracle's cache (keyword
/// predicates resolve identically on every shard: the predicate vocabulary
/// is dataset-wide).
fn workload_queries(pum: &PredictiveUserModel) -> Vec<SelectQuery> {
    appendix_b()
        .iter()
        .map(|q| {
            let modifiers = Modifiers {
                distinct: false,
                order_by: q.script.order_by.clone(),
                limit: q.script.limit,
                count: q.script.count,
                filters: q.script.filters.clone(),
            };
            Session::resume(pum, q.script.rows.clone(), modifiers, 0)
                .build_query()
                .expect("workload scripts build")
        })
        .collect()
}

/// Canonicalize the oracle's answers for one query: run it slice-stripped,
/// then let the cluster's own merge apply ordering and the cut.
fn oracle_answers(server: &SapphireServer, query: &SelectQuery) -> Solutions {
    let run = server
        .run_select("oracle", &strip_slice(query))
        .expect("oracle run");
    merge_solutions(query, vec![run.payload.answers.clone()])
}

/// Canonicalize the oracle's "did you mean" list the same way the router
/// builds the cluster's: dedup, re-prefetch canonically, rank.
fn oracle_alternatives(server: &SapphireServer, query: &SelectQuery) -> Vec<TermAlternative> {
    let run = server
        .run_select("oracle", &strip_slice(query))
        .expect("oracle run");
    let kept: Vec<TermAlternative> =
        dedup_alternatives(vec![(*run.payload.suggestions.candidates).clone()])
            .into_iter()
            .filter_map(|mut cand| {
                let rewritten = cand.rewrite(query).expect("the model's own candidate fits");
                cand.answers = oracle_answers(server, &rewritten);
                (!cand.answers.is_empty()).then_some(cand)
            })
            .collect();
    rank_alternatives(kept, server.model().config().k)
}

fn assert_alternatives_equal(cluster: &[TermAlternative], oracle: &[TermAlternative], ctx: &str) {
    assert_eq!(cluster.len(), oracle.len(), "{ctx}: alternative count");
    for (c, o) in cluster.iter().zip(oracle) {
        assert_eq!(c.position, o.position, "{ctx}");
        assert_eq!(c.replacement, o.replacement, "{ctx}");
        assert_eq!(c.original, o.original, "{ctx}");
        assert_eq!(c.triple_index, o.triple_index, "{ctx}");
        assert!((c.similarity - o.similarity).abs() < f64::EPSILON, "{ctx}");
        assert_eq!(c.term, o.term, "{ctx}");
        assert_eq!(c.answers, o.answers, "{ctx}: prefetched answers");
    }
}

/// The acceptance contract: a 4-shard / 2-replica cluster answers the whole
/// Appendix-B workload — QCM completions and QSM runs — byte-identically to
/// a single `SapphireServer` over the unpartitioned dataset.
#[test]
fn four_shard_cluster_matches_single_server_oracle() {
    let (pum, oracle_server) = oracle();
    let router = router(4, 2);
    let k = pum.config().k;

    // QCM: per-keystroke prefixes of every scripted object keyword.
    let mut terms = 0;
    for q in appendix_b() {
        for input in &q.script.rows {
            let keyword = input.object.trim_start_matches('?');
            for end in 1..=keyword.chars().count().min(5) {
                let prefix: String = keyword.chars().take(end).collect();
                let cluster = router.complete("alice", &prefix).unwrap();
                // The oracle's *full* match list through the same canonical
                // top-k: the user-facing k-cut is selected by global
                // significance, which is the one thing shard-local caches
                // cannot see — the cluster's contract is the canonical cut.
                let oracle = merge_completions(
                    vec![
                        oracle_server
                            .complete_top("oracle", &prefix, usize::MAX)
                            .unwrap()
                            .suggestions,
                    ],
                    k,
                );
                assert_eq!(cluster.suggestions, oracle, "prefix {prefix:?}");
                terms += 1;
            }
        }
    }
    assert!(terms > 50, "the QCM comparison covered the workload");

    // QSM: every scripted run — answers and "did you mean" rewrites.
    for (i, query) in workload_queries(&pum).iter().enumerate() {
        let cluster = router.run("alice", query).unwrap();
        assert_eq!(
            cluster.answers,
            oracle_answers(&oracle_server, query),
            "question {i}: answers"
        );
        assert!(cluster.executed, "question {i}: executed on every shard");
        assert_alternatives_equal(
            &cluster.alternatives,
            &oracle_alternatives(&oracle_server, query),
            &format!("question {i}"),
        );
    }

    let metrics = router.metrics();
    assert_eq!(metrics.fanout_per_shard.len(), 4);
    assert!(metrics.merges > 0);
    assert_eq!(metrics.merge_depth_max, 4, "full scatter merges 4 lists");
    assert_eq!(metrics.rejected_after_retry, 0);
}

/// Shard-count invariance end to end: 1-, 2-, and 4-shard clusters produce
/// byte-identical payloads for the same requests (the 1-shard cluster *is*
/// a single server behind the same merge).
#[test]
fn cluster_answers_are_shard_count_invariant() {
    let (pum, _) = oracle();
    let queries = workload_queries(&pum);
    let routers: Vec<ClusterRouter> = [1, 2, 4].into_iter().map(|n| router(n, 1)).collect();
    for term in ["Kenn", "New", "a", "pari", "Turing"] {
        let baseline = routers[0].complete("alice", term).unwrap().suggestions;
        for r in &routers[1..] {
            assert_eq!(
                r.complete("alice", term).unwrap().suggestions,
                baseline,
                "term {term:?}"
            );
        }
    }
    for (i, query) in queries.iter().enumerate().take(8) {
        let baseline = routers[0].run("alice", query).unwrap();
        for r in &routers[1..] {
            let run = r.run("alice", query).unwrap();
            assert_eq!(run.answers, baseline.answers, "question {i}");
            assert_eq!(
                run.alternatives.len(),
                baseline.alternatives.len(),
                "question {i}"
            );
            for (a, b) in run.alternatives.iter().zip(&baseline.alternatives) {
                assert_eq!(a.replacement, b.replacement, "question {i}");
                assert_eq!(a.answers, b.answers, "question {i}");
            }
        }
    }
}

/// The resilience contract: with one replica of every shard artificially
/// saturated (its only slot held, empty queue — every request sheds typed),
/// concurrent load over the full workload completes with *zero* unhandled
/// rejections, the answers stay byte-identical to the oracle, and the
/// hedging + typed-retry paths are actually exercised.
#[test]
fn saturated_replica_is_routed_around_under_concurrent_load() {
    let graph = generate(DatasetConfig::tiny(42));
    let (pum, oracle_server) = oracle();
    let queries = Arc::new(workload_queries(&pum));

    // Build 4 shards by hand: replica 0 is a one-slot, no-queue server whose
    // slot we hold for the whole test; replica 1 is healthy.
    let partition = sapphire_rdf::Partitioner::new(4).split(&graph);
    let mut shards = Vec::new();
    let mut saturated = Vec::new();
    let mut healthies = Vec::new();
    for (i, shard_graph) in partition.shards.into_iter().enumerate() {
        let shard_pum = Arc::new(
            PredictiveUserModel::initialize_local(
                format!("s{i}"),
                shard_graph,
                EndpointLimits::warehouse(),
                Lexicon::dbpedia_default(),
                sapphire_config(),
                InitMode::Federated,
            )
            .unwrap(),
        );
        let choked = Arc::new(SapphireServer::new(
            shard_pum.clone(),
            ServerConfig {
                max_in_flight: 1,
                max_queue_depth: 0,
                queue_wait: std::time::Duration::from_millis(1),
                ..ServerConfig::for_tests()
            },
        ));
        let healthy = Arc::new(SapphireServer::new(
            shard_pum,
            ServerConfig {
                max_in_flight: 16,
                max_queue_depth: 64,
                queue_wait: std::time::Duration::from_secs(2),
                ..ServerConfig::for_tests()
            },
        ));
        saturated.push(choked.clone());
        healthies.push(healthy.clone());
        shards.push(vec![choked, healthy]);
    }
    let mut permits: Vec<_> = saturated
        .iter()
        .map(|s| s.hold_slot().expect("empty server grants its one slot"))
        .collect();
    for s in &saturated {
        assert_eq!(s.admission_load(), (1, 0), "replica is saturated");
    }

    // Phase 1 — hedged routing: a zero hedge budget races every shard call
    // against the sibling replica, so the saturated replica's instant typed
    // rejections constantly lose the race instead of failing requests.
    let hedged = Arc::new(ClusterRouter::new(
        Cluster::from_replicas(shards.clone()),
        ClusterConfig {
            hedge_after: Some(std::time::Duration::ZERO),
            backoff: Backoff {
                max_retries: 6,
                base: std::time::Duration::from_millis(1),
                max_delay: std::time::Duration::from_millis(20),
            },
            ..ClusterConfig::for_tests()
        },
    ));
    // Phase 2 — no hedging, permits released: the one-slot/no-queue replica
    // is now *empty*, so the load probe ties at 0 and the index tie-break
    // sends every shard call to it first. Under 8 concurrent clients its
    // single slot is permanently contended, so it sheds typed constantly
    // and requests must recover through the bounded retry path alone.
    let unhedged = Arc::new(ClusterRouter::new(
        Cluster::from_replicas(shards),
        ClusterConfig {
            hedge_after: None,
            backoff: Backoff {
                max_retries: 6,
                base: std::time::Duration::from_millis(1),
                max_delay: std::time::Duration::from_millis(20),
            },
            ..ClusterConfig::for_tests()
        },
    ));

    const THREADS: usize = 8;
    for (phase, router) in [(1, &hedged), (2, &unhedged)] {
        if phase == 2 {
            drop(std::mem::take(&mut permits));
        }
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let router = router.clone();
                let queries = queries.clone();
                scope.spawn(move || {
                    for i in 0..queries.len() {
                        let query = &queries[(i + t) % queries.len()];
                        // Zero unhandled rejections: every request must
                        // succeed through load-aware routing, hedging, or
                        // typed retry.
                        let run = router
                            .run(&format!("tenant-{t}"), query)
                            .unwrap_or_else(|e| panic!("request shed: {e}"));
                        assert!(run.executed);
                    }
                    for term in ["Kenn", "Turing", "New"] {
                        router
                            .complete(&format!("tenant-{t}"), term)
                            .unwrap_or_else(|e| panic!("completion shed: {e}"));
                    }
                });
            }
        });
    }

    // Same bytes as the oracle, even with half the fleet saturated.
    for (i, query) in queries.iter().enumerate().take(6) {
        let run = hedged.run("check", query).unwrap();
        assert_eq!(
            run.answers,
            oracle_answers(&oracle_server, query),
            "question {i}"
        );
    }

    let hedged_metrics = hedged.metrics();
    assert_eq!(hedged_metrics.rejected_after_retry, 0, "no request lost");
    assert!(hedged_metrics.hedges_fired > 0, "hedging path exercised");

    // Deterministic typed-retry exercise: pin shard 0's replicas to *equal*
    // admission load — one held slot each — so the index tie-break routes
    // the next request to the one-slot replica first. It is full, sheds
    // typed instantly, and the unhedged router must recover by failing over
    // to the healthy sibling under the backoff policy.
    let pin_choked = saturated[0].hold_slot().expect("one-slot replica grants");
    let pin_healthy = healthies[0].hold_slot().expect("healthy replica grants");
    assert_eq!(saturated[0].admission_load(), (1, 0));
    assert_eq!(healthies[0].admission_load(), (1, 0));
    let completion = unhedged
        .complete("alice", "Gau")
        .expect("typed retry failed over to the healthy replica");
    assert!(!completion.cached);
    drop((pin_choked, pin_healthy));

    let unhedged_metrics = unhedged.metrics();
    assert_eq!(unhedged_metrics.rejected_after_retry, 0, "no request lost");
    assert!(
        unhedged_metrics.replica_retries > 0,
        "typed retry path exercised (the tied one-slot replica shed typed and was retried)"
    );
}

/// A transiently saturated single-replica shard: typed `Overloaded` is
/// retried under the backoff policy until the slot frees, so the request
/// succeeds instead of surfacing a rejection.
#[test]
fn typed_retry_rides_out_transient_saturation() {
    let pum = Arc::new(
        PredictiveUserModel::initialize_local(
            "solo",
            generate(DatasetConfig::tiny(7)),
            EndpointLimits::warehouse(),
            Lexicon::dbpedia_default(),
            sapphire_config(),
            InitMode::Federated,
        )
        .unwrap(),
    );
    let server = Arc::new(SapphireServer::new(
        pum,
        ServerConfig {
            max_in_flight: 1,
            max_queue_depth: 0,
            queue_wait: std::time::Duration::from_millis(1),
            ..ServerConfig::for_tests()
        },
    ));
    let router = Arc::new(ClusterRouter::new(
        Cluster::from_replicas(vec![vec![server.clone()]]),
        ClusterConfig {
            hedge_after: None,
            backoff: Backoff {
                max_retries: 8,
                base: std::time::Duration::from_millis(5),
                max_delay: std::time::Duration::from_millis(40),
            },
            ..ClusterConfig::for_tests()
        },
    ));

    let permit = server.hold_slot().unwrap();
    let request = {
        let router = router.clone();
        std::thread::spawn(move || router.complete("alice", "Kenn"))
    };
    // Let the request burn a few typed rejections, then free the slot.
    std::thread::sleep(std::time::Duration::from_millis(15));
    drop(permit);
    let completion = request.join().unwrap().expect("retry rode out the choke");
    assert!(!completion.cached);
    let metrics = router.metrics();
    assert!(metrics.replica_retries > 0, "typed retries happened");
    assert_eq!(metrics.rejected_after_retry, 0);

    // And when the saturation never clears, the rejection surfaces typed.
    let permit = server.hold_slot().unwrap();
    let err = router
        .complete("alice", "Never")
        .expect_err("saturated shard rejects typed");
    assert!(err.is_rejection(), "{err:?}");
    drop(permit);
}

/// Schema-slice replicas must not duplicate in merged answers: every shard
/// holds a copy of each `rdfs:subClassOf` edge, but the cluster returns it
/// once — and COUNTs over such patterns are not inflated by the shard
/// count. (The merge deduplicates *full bindings* before projecting; over a
/// BGP, duplicate full bindings can only be replica artifacts.)
#[test]
fn schema_replicated_triples_do_not_duplicate_in_merges() {
    use sapphire_sparql::{parse_select, Aggregate, Projection, SelectItem};
    let (_, oracle_server) = oracle();
    let router = router(4, 1);
    let query = parse_select("SELECT ?s ?o WHERE { ?s rdfs:subClassOf ?o }").unwrap();
    let run = router.run("alice", &query).unwrap();
    assert!(!run.answers.is_empty(), "the hierarchy has edges");
    assert_eq!(
        run.answers,
        oracle_answers(&oracle_server, &query),
        "each replicated edge appears exactly once"
    );
    // The same pattern under the session COUNT shape: the edge recount must
    // not multiply by the shard count either.
    let mut counted = query.clone();
    counted.projection = Projection::Items(vec![SelectItem::Agg {
        agg: Aggregate::Count {
            distinct: false,
            var: Some("s".into()),
        },
        alias: "count".into(),
    }]);
    let cluster_count = router.run("alice", &counted).unwrap();
    assert_eq!(
        cluster_count.answers,
        oracle_answers(&oracle_server, &counted),
        "COUNT over a schema-matching pattern"
    );
}

/// Edge-tier budgets: an edge cache hit never reaches a shard, so the edge
/// meters tenants itself — a cached request still consumes quota, typed
/// `EdgeRejected` when the window is exhausted, per tenant, cleared by a
/// fresh window.
#[test]
fn edge_budget_meters_cached_requests() {
    let graph = generate(DatasetConfig::tiny(7));
    let cluster = Cluster::build(
        "edge",
        &graph,
        2,
        1,
        &Lexicon::dbpedia_default(),
        &sapphire_config(),
        &ServerConfig::for_tests(),
    )
    .unwrap();
    let router = ClusterRouter::new(
        cluster,
        ClusterConfig {
            hedge_after: None,
            tenant_window_budget: Some(2),
            ..ClusterConfig::for_tests()
        },
    );
    router.complete("alice", "Kenn").unwrap();
    // Second identical request is an edge cache hit — still charged.
    let hit = router.complete("alice", "Kenn").unwrap();
    assert!(hit.cached);
    assert_eq!(router.tenant_usage("alice"), 2);
    let err = router.complete("alice", "Kenn").unwrap_err();
    assert!(
        matches!(
            &err,
            sapphire_cluster::ClusterError::EdgeRejected(
                sapphire_server::ServerError::QuotaExhausted { budget: 2, .. }
            )
        ),
        "typed edge rejection: {err:?}"
    );
    assert!(err.is_rejection());
    // Other tenants are unaffected; a fresh window clears the meter.
    router.complete("bob", "Kenn").unwrap();
    router.reset_budget_window();
    router.complete("alice", "Kenn").unwrap();
}

/// Regression (hedge-thread leak): a saturating hedge storm must never grow
/// the population of in-flight hedge calls past
/// `ClusterConfig::max_inflight_hedges`. Pre-fix, every hedged call was a
/// *detached* `std::thread::spawn`; with both replicas saturated, each storm
/// wave accumulated losing hedges without bound, each pinning an admission
/// slot until its scan completed. Post-fix the cap suppresses the excess
/// (counted in `hedges_suppressed`), the gauge never exceeds the cap, and
/// losers are joined deterministically (reaper + router drop).
#[test]
fn hedge_storm_cannot_exceed_the_inflight_cap() {
    const STORM: usize = 8;
    const CAP: usize = 2;
    let pum = Arc::new(
        PredictiveUserModel::initialize_local(
            "solo",
            generate(DatasetConfig::tiny(7)),
            EndpointLimits::warehouse(),
            Lexicon::dbpedia_default(),
            sapphire_config(),
            InitMode::Federated,
        )
        .unwrap(),
    );
    let replica = |name: &str| {
        Arc::new(SapphireServer::new(
            pum.clone(),
            ServerConfig {
                name: name.to_string(),
                max_in_flight: 1,
                max_queue_depth: 64,
                queue_wait: std::time::Duration::from_secs(10),
                ..ServerConfig::for_tests()
            },
        ))
    };
    let (r0, r1) = (replica("r0"), replica("r1"));
    let router = Arc::new(ClusterRouter::new(
        Cluster::from_replicas(vec![vec![r0.clone(), r1.clone()]]),
        ClusterConfig {
            hedge_after: Some(std::time::Duration::from_millis(1)),
            max_inflight_hedges: CAP,
            backoff: Backoff::none(),
            ..ClusterConfig::for_tests()
        },
    ));

    // Saturate both replicas: every primary call *and* every hedge parks in
    // replica admission until the holds drop, so the storm's hedge attempts
    // all overlap — the worst case the cap exists for.
    let hold0 = r0.hold_slot().expect("empty replica grants its slot");
    let hold1 = r1.hold_slot().expect("empty replica grants its slot");

    let storm: Vec<_> = (0..STORM)
        .map(|i| {
            let router = router.clone();
            std::thread::spawn(move || router.complete(&format!("t{i}"), &format!("Storm{i}")))
        })
        .collect();

    // Every storm call must settle its hedge decision (fired or suppressed)
    // while the replicas stay saturated; the gauge must never top the cap.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let m = router.metrics();
        assert!(
            router.hedges_in_flight() <= CAP as u64,
            "in-flight hedges {} exceed the cap {CAP}",
            router.hedges_in_flight()
        );
        if m.hedges_fired + m.hedges_suppressed >= STORM as u64 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "storm never settled: {m:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let m = router.metrics();
    assert_eq!(m.hedges_fired, CAP as u64, "exactly the cap's worth fired");
    assert_eq!(
        m.hedges_suppressed,
        (STORM - CAP) as u64,
        "the excess was suppressed, not spawned"
    );

    // Free the replicas: every storm call must complete (suppressed hedges
    // simply waited for their primaries), and the loser scans drain the
    // in-flight gauge back to zero.
    drop((hold0, hold1));
    for handle in storm {
        handle
            .join()
            .unwrap()
            .expect("storm request served after the choke");
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while router.hedges_in_flight() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "loser hedges never finished their scans"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // Dropping the router joins every parked loser handle — nothing stays
    // detached past the router's lifetime.
    drop(router);
}

/// Router-requested degradation stays tier-keyed at every layer: a tier-N
/// merge commissioned through the `run_tiered` floor must never be served
/// to a tier-0 caller — not from the edge cache and not from any shard's
/// run cache. The probe is the canonical relaxable non-answer query (two
/// literal rows, one misspelled), so shards do real Steiner work and a
/// shed tier genuinely degrades the payload.
#[test]
fn router_requested_tiers_never_leak_into_tier0_lookups() {
    use sapphire_core::session::TripleInput;
    use sapphire_core::SteinerConfig;

    let router = router(2, 1);
    let models: Vec<_> = (0..router.cluster().shard_count())
        .map(|s| router.cluster().replicas(s)[0].model().clone())
        .collect();
    let query = models
        .iter()
        .find_map(|m| {
            Session::resume(
                m,
                vec![
                    TripleInput::new("?p", "surname", "Kennedys"),
                    TripleInput::new("?p", "name", "John F. Kennedy"),
                ],
                Modifiers::default(),
                0,
            )
            .build_query()
            .ok()
        })
        .expect("the relaxable probe builds on some shard");

    // Tier-1 floor (an upstream's shed decision): the merge is degraded,
    // carries the tier, and the edge caches it under the tier-1 key.
    let degraded = router.run_tiered("tenant", &query, 1).expect("tier-1 run");
    assert!(degraded.degraded, "a tier-1 relaxable run is degraded");
    assert_eq!(degraded.tier, 1);
    assert!(!degraded.cached, "first tier-1 request scatters");
    let replay = router.run_tiered("tenant", &query, 1).expect("tier-1 hit");
    assert!(replay.cached, "same tier, same key: edge cache hit");
    assert!(replay.degraded, "the tier-1 entry stays degraded");
    let m = router.metrics();
    assert_eq!(m.degraded_runs, 1, "one degraded merge was created");
    assert_eq!(m.degraded_by_tier, vec![0, 1, 0]);

    // The tier-0 path must miss every tier-1 entry (edge AND shard caches
    // key by tier) and come back at full fidelity, with the same answers —
    // degradation sheds suggestion depth, never executed bindings.
    let full = router.run("tenant", &query).expect("tier-0 run");
    assert!(!full.cached, "tier 0 must not hit the tier-1 edge entry");
    assert!(!full.degraded, "tier 0 is full fidelity");
    assert_eq!(full.tier, 0);
    assert_eq!(full.answers, degraded.answers);
    let full_replay = router.run("tenant", &query).expect("tier-0 hit");
    assert!(full_replay.cached, "tier 0 now has its own edge entry");
    assert!(!full_replay.degraded, "and it is still full fidelity");

    // An absurd floor clamps to the ladder's deepest tier instead of
    // overflowing the budget table.
    let clamped = router
        .run_tiered("tenant", &query, usize::MAX)
        .expect("clamped run");
    assert_eq!(clamped.tier, SteinerConfig::MAX_TIER);
    assert!(clamped.degraded);
    let m = router.metrics();
    assert_eq!(m.degraded_runs, 2);
    assert_eq!(m.degraded_by_tier, vec![0, 1, 1]);
}

/// Two questions whose ORDER BY key is not projected and whose top row is
/// unique — a subject star, and a pattern whose join spans shards (book →
/// publisher) — so the cluster's answer can be held to the single-box
/// evaluator's directly, with nothing to canonicalize.
const UNPROJECTED_KEY_QUESTIONS: [(&str, &str); 2] = [
    (
        "SELECT ?name WHERE { ?c a dbo:City ; dbo:name ?name ; dbo:population ?pop } \
         ORDER BY DESC(?pop) LIMIT 1",
        "Chester 15",
    ),
    (
        "SELECT ?cname WHERE { ?b dbo:publisher ?pub ; dbo:numberOfPages ?pages . \
         ?pub dbo:name ?cname } ORDER BY DESC(?pages) LIMIT 1",
        "Globex Press 5",
    ),
];

fn evaluated(text: &str) -> (SelectQuery, Solutions) {
    let query = sapphire_sparql::parse_select(text).unwrap();
    let answer = sapphire_sparql::evaluate_select(
        &generate(DatasetConfig::tiny(42)),
        &query,
        &mut sapphire_sparql::WorkBudget::unlimited(),
    )
    .unwrap();
    (query, answer)
}

/// ORDER BY is applied to the merged *full bindings*, before projection:
/// a sort key the query does not project still decides the answer, through
/// `run` and through the raw `execute_query` surface, for a scattered star
/// and for a cross-shard bound join alike.
#[test]
fn unprojected_order_keys_answer_like_the_single_box_evaluator() {
    use sapphire_endpoint::QueryService;
    use sapphire_sparql::QueryResult;
    let router = router(4, 1);
    for (text, top) in UNPROJECTED_KEY_QUESTIONS {
        let (query, expected) = evaluated(text);
        assert_eq!(expected.len(), 1, "{text}");
        assert_eq!(expected.rows[0][0].as_ref().unwrap().lexical(), top);
        assert_eq!(
            router.run("alice", &query).unwrap().answers,
            expected,
            "{text}"
        );
        assert_eq!(
            router.execute_query("alice", &Query::Select(query)),
            Ok(QueryResult::Solutions(expected)),
            "{text}"
        );
    }
}

/// A shard replica that counts the calls it receives and can start shedding
/// its raw surface at a chosen call, or skew its run replies.
struct CountingReplica {
    inner: Arc<SapphireServer>,
    calls: std::sync::atomic::AtomicU64,
    /// Every raw call received, answered or shed.
    raw_log: std::sync::Mutex<Vec<Query>>,
    /// Raw calls from this one (1-based) on answer `Overloaded`.
    shed_raw_from: u64,
    /// Run replies carry one more candidate, aimed at this triple index —
    /// what a version-skewed or corrupted `REPLY` can decode to.
    stray_candidate: Option<usize>,
}

impl CountingReplica {
    fn count(&self) {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl sapphire_server::ShardService for CountingReplica {
    fn shard_name(&self) -> String {
        self.inner.shard_name()
    }

    fn top_k(&self) -> usize {
        self.inner.top_k()
    }

    fn complete_top(
        &self,
        tenant: &str,
        typed: &str,
        k: usize,
    ) -> Result<sapphire_core::qcm::CompletionResult, sapphire_server::ServerError> {
        self.count();
        self.inner.complete_top(tenant, typed, k)
    }

    fn run_select_tiered(
        &self,
        tenant: &str,
        query: &SelectQuery,
        tier: usize,
        budget: Option<std::time::Duration>,
    ) -> Result<Arc<sapphire_server::RunPayload>, sapphire_server::ServerError> {
        self.count();
        let payload = sapphire_server::ShardService::run_select_tiered(
            &*self.inner,
            tenant,
            query,
            tier,
            budget,
        )?;
        let Some(triple_index) = self.stray_candidate else {
            return Ok(payload);
        };
        let mut suggestions = (*payload.suggestions).clone();
        let mut candidates = (*suggestions.candidates).clone();
        candidates.push(TermAlternative {
            triple_index,
            position: sapphire_core::qsm::AlteredPosition::Object,
            term: sapphire_rdf::Term::iri("http://example.org/stray"),
            original: "here".into(),
            replacement: "there".into(),
            similarity: 1.0,
            answers: Solutions::default(),
        });
        suggestions.candidates = Arc::new(candidates);
        Ok(Arc::new(sapphire_server::RunPayload {
            answers: payload.answers.clone(),
            executed: payload.executed,
            suggestions: Arc::new(suggestions),
        }))
    }

    fn execute_raw(
        &self,
        tenant: &str,
        query: &Query,
    ) -> Result<sapphire_sparql::QueryResult, sapphire_server::ServerError> {
        self.count();
        let call = {
            let mut log = self.raw_log.lock().unwrap();
            log.push(query.clone());
            log.len() as u64
        };
        if call >= self.shed_raw_from {
            return Err(sapphire_server::ServerError::Overloaded {
                in_flight: 1,
                queue_depth: 0,
            });
        }
        self.inner.execute_raw(tenant, query)
    }

    fn admission_load(&self) -> (usize, usize) {
        self.inner.admission_load()
    }

    fn shed_pressure_tier(&self) -> usize {
        self.inner.shed_pressure_tier()
    }
}

/// A 2-shard, 1-replica router over counting replicas; `shed_raw_from[s]` is
/// shard `s`'s first shed raw call (`u64::MAX` = never).
fn counting_router(
    cluster: &Cluster,
    shed_raw_from: [u64; 2],
    backoff: Backoff,
) -> (ClusterRouter, Vec<Arc<CountingReplica>>) {
    let replicas: Vec<Arc<CountingReplica>> = (0..2)
        .map(|shard| {
            Arc::new(CountingReplica {
                inner: cluster.replicas(shard)[0].clone(),
                calls: Default::default(),
                raw_log: Default::default(),
                shed_raw_from: shed_raw_from[shard],
                stray_candidate: None,
            })
        })
        .collect();
    let router = ClusterRouter::over(
        replicas
            .iter()
            .map(|r| vec![r.clone() as Arc<dyn sapphire_server::ShardService>])
            .collect(),
        ClusterConfig {
            backoff,
            ..ClusterConfig::for_tests()
        },
    );
    (router, replicas)
}

fn two_shard_cluster() -> Cluster {
    Cluster::build(
        "edge",
        &generate(DatasetConfig::tiny(42)),
        2,
        1,
        &Lexicon::dbpedia_default(),
        &sapphire_config(),
        &ServerConfig::for_tests(),
    )
    .unwrap()
}

/// One shard-call policy, fully counted: over the cold Appendix-B Runs every
/// call a replica received was issued by the router's one shard call — so it
/// is in the fan-out counters and in the `shard_rtt` histogram (no hedges
/// with one replica) — question by question, bound-join probes and
/// sub-queries included; and a sampled cross-shard Run carries those
/// sub-queries as `shard_rtt` spans, up to the per-trace cap.
#[test]
fn every_shard_call_is_counted_and_observed() {
    use sapphire_obs::Stage;
    let (pum, _) = oracle();
    let cluster = two_shard_cluster();
    let (router, replicas) = counting_router(&cluster, [u64::MAX; 2], Backoff::default());
    router.obs().set_sampling(1);
    let made = || -> u64 {
        replicas
            .iter()
            .map(|r| r.calls.load(std::sync::atomic::Ordering::Relaxed))
            .sum()
    };
    let counted = || router.metrics().fanout_per_shard.iter().sum::<u64>();
    let observed = || router.obs().stage_snapshot(Stage::ShardRtt).count();
    let mut cross_shard = 0;
    for (i, query) in workload_queries(&pum).iter().enumerate() {
        let before = (made(), counted(), observed());
        router.run("alice", query).unwrap();
        let calls = made() - before.0;
        println!(
            "question {i}: {calls} shard calls made, {} counted, {} observed",
            counted() - before.1,
            observed() - before.2
        );
        assert_eq!(counted() - before.1, calls, "question {i}: fan-out");
        assert_eq!(observed() - before.2, calls, "question {i}: shard_rtt");
        cross_shard += usize::from(calls > 2);
    }
    assert!(
        cross_shard > 0,
        "some question needed more than its scatter"
    );
    let m = router.metrics();
    assert_eq!(
        (m.hedges_fired, m.replica_retries, m.rejected_after_retry),
        (0, 0, 0)
    );

    let busiest = router
        .obs()
        .recorder()
        .recent()
        .into_iter()
        .max_by_key(|t| t.spans.len() as u64 + t.dropped_spans)
        .unwrap();
    let round_trips = busiest
        .spans
        .iter()
        .filter(|s| s.name == Stage::ShardRtt.name())
        .count();
    assert!(
        round_trips > 2,
        "bound-join sub-queries are spanned: {round_trips}"
    );
    assert!(busiest.spans.len() <= sapphire_obs::trace::MAX_SPANS);
}

/// A run reply whose candidate names a triple the query does not have — the
/// index is any `usize` off the wire — fails the Run with a typed,
/// non-retryable error naming the shard: the edge neither panics on the
/// index nor answers with that candidate quietly missing.
#[test]
fn out_of_range_candidate_from_a_shard_fails_the_run_typed() {
    use sapphire_cluster::ClusterError;
    let (pum, _) = oracle();
    let cluster = two_shard_cluster();
    let replicas: Vec<Vec<Arc<dyn sapphire_server::ShardService>>> = (0..2)
        .map(|shard| {
            vec![Arc::new(CountingReplica {
                inner: cluster.replicas(shard)[0].clone(),
                calls: Default::default(),
                raw_log: Default::default(),
                shed_raw_from: u64::MAX,
                stray_candidate: (shard == 1).then_some(9),
            }) as Arc<dyn sapphire_server::ShardService>]
        })
        .collect();
    let router = ClusterRouter::over(replicas, ClusterConfig::for_tests());
    let query = &workload_queries(&pum)[0];
    let err = router.run("alice", query).unwrap_err();
    assert!(!err.is_rejection(), "not retryable: {err}");
    match err {
        ClusterError::Shard {
            shard: 1,
            error: sapphire_server::ServerError::Backend(message),
        } => assert_eq!(
            message,
            format!(
                "malformed suggestion: triple 9 of {}",
                query.pattern.triples.len()
            )
        ),
        other => panic!("expected shard 1's malformed suggestion, got {other:?}"),
    }
}

/// A shard whose raw surface sheds past the retry budget in the middle of a
/// cross-shard plan fails the request with a typed, retryable `CrossShard`
/// rejection — whichever probe or sub-query the shedding starts at, the
/// answer never comes back shorter.
#[test]
fn shedding_shard_fails_a_cross_shard_plan_typed_never_short() {
    use sapphire_cluster::ClusterError;
    let cluster = two_shard_cluster();
    let backoff = Backoff {
        max_retries: 2,
        base: std::time::Duration::from_micros(100),
        max_delay: std::time::Duration::from_millis(1),
    };
    let (query, expected) = evaluated(UNPROJECTED_KEY_QUESTIONS[1].0);
    let (healthy, replicas) = counting_router(&cluster, [u64::MAX; 2], backoff);
    assert_eq!(healthy.run("alice", &query).unwrap().answers, expected);
    let log = replicas[1].raw_log.lock().unwrap().clone();
    let raw_calls = log.len() as u64;
    assert!(raw_calls > 8, "the plan probes and sub-queries shard 1");
    // Every raw call of this Run belongs to a cross-shard plan: an ASK per
    // pattern, then the join's sub-queries. The plans that name the cut's
    // fresh variable are its probes.
    let mut probe_calls: Vec<u64> = Vec::new();
    let mut at = 0;
    while at < log.len() {
        let mut end = (at + query.pattern.triples.len()).min(log.len());
        while end < log.len() && matches!(log[end], Query::Select(_)) {
            end += 1;
        }
        let names_alt = |q: &Query| q.pattern().variables().iter().any(|v| v.starts_with("alt"));
        if log[at..end].iter().any(names_alt) {
            probe_calls.extend(at as u64 + 1..=end as u64);
        }
        at = end;
    }
    let (first_probed, last_probed) = (probe_calls[0], *probe_calls.last().unwrap());
    assert!(first_probed > 8, "the answer's own plan comes first");

    let shed_points = [1, 2, 3, raw_calls / 2, raw_calls - 1, raw_calls];
    for shed_from in shed_points.into_iter().chain([first_probed, last_probed]) {
        let (router, _) = counting_router(&cluster, [u64::MAX, shed_from], backoff);
        let err = router
            .run("alice", &query)
            .expect_err("a shedding shard cannot yield an answer");
        assert!(
            matches!(
                err,
                ClusterError::CrossShard {
                    error: sapphire_server::ServerError::Overloaded { .. }
                }
            ),
            "shedding from raw call {shed_from} of {raw_calls}: {err:?}"
        );
        assert!(err.is_rejection());
        // The shed call took the retry budget — and when it was a cut's
        // probe, which fails nothing, so did the prefetch behind it.
        let shed_calls = if probe_calls.contains(&shed_from) {
            2
        } else {
            1
        };
        let m = router.metrics();
        assert_eq!(m.rejected_after_retry, shed_calls, "call {shed_from}");
        assert_eq!(m.replica_retries, 2 * shed_calls, "call {shed_from}");
    }
}

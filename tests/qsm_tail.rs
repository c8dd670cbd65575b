//! QSM-tail determinism: the shared cross-request `NeighborhoodCache` must
//! be invisible in the *bytes* of every relaxation.
//!
//! The cache amortizes Steiner expansion round trips across requests, and it
//! is warmed concurrently — many sessions relax different queries at once,
//! racing fills and hits in any interleaving the scheduler picks. The
//! contract (see `sapphire_core::qsm::neighborhood`) is that none of that is
//! observable: a warm, concurrently-thrashed model produces relaxations
//! byte-identical to a cold model running one request at a time, because a
//! cache hit charges the exact budget the skipped queries would have cost.

use std::sync::Arc;

use sapphire_core::prelude::*;
use sapphire_core::{InitMode, SapphireConfig};
use sapphire_datagen::workload::appendix_b;
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_sparql::SelectQuery;

fn fresh_pum() -> Arc<PredictiveUserModel> {
    let graph = generate(DatasetConfig::tiny(42));
    Arc::new(
        PredictiveUserModel::initialize_local(
            "dbpedia",
            graph,
            EndpointLimits::warehouse(),
            Lexicon::dbpedia_default(),
            SapphireConfig::for_tests(),
            InitMode::Federated,
        )
        .expect("initialization"),
    )
}

/// Build every Appendix-B question into a query against `pum`'s cache.
fn workload_queries(pum: &PredictiveUserModel) -> Vec<SelectQuery> {
    appendix_b()
        .iter()
        .filter_map(|q| {
            let modifiers = q.script.modifiers();
            Session::resume(pum, q.script.rows.clone(), modifiers, 0)
                .build_query()
                .ok()
        })
        .collect()
}

/// Everything a run produces that users can observe, minus wall-clock time.
fn rendering(pum: &PredictiveUserModel, query: &SelectQuery) -> String {
    let out = pum.run(query);
    format!(
        "answers={:?} executed={:?} alternatives={:?} relaxations={:?} tier={} degraded={}",
        out.answers,
        out.executed,
        out.suggestions.alternatives,
        out.suggestions.relaxations,
        out.suggestions.tier,
        out.suggestions.degraded,
    )
}

#[test]
fn warm_concurrent_neighborhood_cache_matches_cold_single_threaded_reference() {
    // Cold reference: a fresh model, one request at a time, nothing shared.
    let reference_pum = fresh_pum();
    let queries = workload_queries(&reference_pum);
    assert!(
        queries.len() >= 20,
        "workload resolves: {} queries",
        queries.len()
    );
    let reference: Vec<String> = queries
        .iter()
        .map(|q| rendering(&reference_pum, q))
        .collect();
    // The reference itself must contain relaxations, or the test proves
    // nothing about the Steiner path.
    assert!(
        reference.iter().any(|r| r.contains("RelaxedQuery")),
        "at least one workload query relaxes"
    );

    // Warm phase: 8 threads interleave the whole workload from different
    // offsets, twice — every expansion races fills and hits on the shared
    // cache across concurrent relaxations.
    let warm_pum = fresh_pum();
    std::thread::scope(|scope| {
        for user in 0..8usize {
            let warm_pum = &warm_pum;
            let queries = &queries;
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..2usize {
                    for qi in 0..queries.len() {
                        let idx = (qi + user + round) % queries.len();
                        assert_eq!(
                            rendering(warm_pum, &queries[idx]),
                            reference[idx],
                            "query {idx} diverged under a concurrently warmed cache"
                        );
                    }
                }
            });
        }
    });

    // And once more, sequentially, against the now fully warm cache.
    for (idx, query) in queries.iter().enumerate() {
        assert_eq!(
            rendering(&warm_pum, query),
            reference[idx],
            "query {idx} diverged on the fully warm cache"
        );
    }

    // The cache must actually have carried load: round trips were saved, and
    // savings are exactly the hits' worth of budget (never more — hits may
    // never widen the frontier).
    let stats = warm_pum.relax_cache_stats();
    assert!(stats.hits > 0, "warm runs hit the shared cache: {stats:?}");
    assert!(stats.fills > 0, "cold expansions published: {stats:?}");
    assert!(
        stats.queries_saved > 0,
        "round trips were amortized: {stats:?}"
    );
    // 17 passes over the workload hit each vertex's neighbor list many
    // times but pay its round trips only on (possibly raced) cold misses —
    // the savings must dominate the executions, or the cache isn't doing
    // its job.
    assert!(
        stats.queries_saved > stats.queries_executed,
        "amortization dominates: {stats:?}"
    );
}

//! The federated edge, held to the single box. In §3 Sapphire is one model
//! over a federated query processor over endpoints; here that model — the
//! single box's own `PredictiveUserModel`, built over the cache of one §5
//! initialization of the whole `tiny` graph — runs over a partitioned
//! `FederatedProcessor` of one `LocalEndpoint` per shard of the graph, at 1,
//! 2 and 4 shards. Over the 27 Appendix-B Runs and the 6 flattened ones it
//! must answer as the same model over the whole graph does:
//!
//! * answers equal as multisets;
//! * alternatives equal, their prefetched answers as multisets;
//! * relaxations equal: trees, `queries_used` and `complete`;
//! * completions of the scripts' keyword prefixes equal byte for byte.
//!
//! Row order is out of scope: a query without ORDER BY leaves it open, and
//! the federation's bound join emits rows in its own order.
//!
//! The test is also the federated edge's call ruler:
//! [`FEDERATED_CALLS_PER_RUN`] pins, Run by Run at 2 shards, the ASK probes
//! and SELECTs the partitioned federation sends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sapphire_core::session::Session;
use sapphire_core::{CachedData, InitMode, Initializer, PredictiveUserModel, SapphireConfig};
use sapphire_datagen::userstudy::flatten;
use sapphire_datagen::workload::SessionScript;
use sapphire_datagen::{appendix_b, generate, DatasetConfig};
use sapphire_endpoint::{
    Endpoint, EndpointError, EndpointLimits, FederatedProcessor, LocalEndpoint,
};
use sapphire_rdf::{Graph, Partitioner};
use sapphire_sparql::{Query, QueryResult, SelectQuery, Solutions};
use sapphire_text::Lexicon;

/// `(ASK, SELECT)` calls the partitioned federation over 2 shards sends for
/// each Run of [`runs`], in order: the Run's own answers, its alternatives'
/// probes and prefetches, and its relaxation's expansion and prefetch. The
/// 27 Runs as written send 644 ASKs and 839 SELECTs, where the cluster
/// router's Runs make 804 shard calls. A change to what the edge sends
/// re-records these exactly, with a reason per Run that moved.
#[rustfmt::skip]
const FEDERATED_CALLS_PER_RUN: [(u64, u64); 33] = [
    // E1–E10
    (12, 4), (16, 9), (12, 7), (12, 7), (16, 10), (16, 6), (12, 3), (16, 10), (12, 5), (16, 9),
    // M1–M8
    (16, 13), (30, 17), (12, 7), (6, 3), (30, 25), (12, 7), (30, 17), (24, 11),
    // D1–D9
    (36, 268), (30, 30), (108, 141), (30, 31), (30, 45), (30, 43), (12, 30), (38, 52), (30, 29),
    // the six flattened scripts
    (16, 0), (28, 62), (16, 2), (16, 1), (16, 3), (16, 1),
];

/// A shard's endpoint, counting the ASKs and SELECTs it answers.
struct Counting {
    inner: LocalEndpoint,
    asks: AtomicU64,
    selects: AtomicU64,
}

impl Endpoint for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute_parsed(&self, query: &Query) -> Result<QueryResult, EndpointError> {
        let counter = match query {
            Query::Ask(_) => &self.asks,
            Query::Select(_) => &self.selects,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.inner.execute_parsed(query)
    }
}

fn config() -> SapphireConfig {
    SapphireConfig {
        processes: 2,
        ..SapphireConfig::default()
    }
}

/// The model over `cache` and `fed`.
fn model(cache: &Arc<CachedData>, fed: FederatedProcessor) -> PredictiveUserModel {
    PredictiveUserModel::from_cache(
        cache.clone(),
        Lexicon::dbpedia_default(),
        fed,
        config(),
        Vec::new(),
    )
}

/// The model over a partitioned federation of `graph` split `shards` ways,
/// and the shards' counting endpoints.
fn edge(
    graph: &Graph,
    shards: usize,
    cache: &Arc<CachedData>,
) -> (PredictiveUserModel, Vec<Arc<Counting>>) {
    let endpoints: Vec<Arc<Counting>> = Partitioner::new(shards)
        .split(graph)
        .shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            Arc::new(Counting {
                inner: LocalEndpoint::new(format!("s{i}"), shard, EndpointLimits::warehouse()),
                asks: AtomicU64::new(0),
                selects: AtomicU64::new(0),
            })
        })
        .collect();
    let fed = FederatedProcessor::partitioned(
        endpoints
            .iter()
            .map(|e| e.clone() as Arc<dyn Endpoint>)
            .collect(),
    );
    (model(cache, fed), endpoints)
}

/// Every Appendix-B script as written, then every one that flattens, as
/// flattened: its label, its script and the query it builds.
fn runs(pum: &PredictiveUserModel) -> Vec<(String, SessionScript, SelectQuery)> {
    let questions = appendix_b();
    let written = questions.iter().map(|q| (q.id.clone(), q.script.clone()));
    let flattened = questions
        .iter()
        .filter_map(|q| Some((format!("{} flattened", q.id), flatten(&q.script)?)));
    written
        .chain(flattened)
        .map(|(label, script)| {
            let query = Session::resume(pum, script.rows.clone(), script.modifiers(), 0)
                .build_query()
                .expect("workload scripts build");
            (label, script, query)
        })
        .collect()
}

/// `solutions` with its rows sorted: what a multiset comparison compares.
fn multiset(solutions: &Solutions) -> Solutions {
    let mut sorted = solutions.clone();
    sorted.rows.sort();
    sorted
}

#[test]
fn the_model_over_partitions_answers_like_the_single_box() {
    let graph = generate(DatasetConfig::tiny(42));
    let whole = LocalEndpoint::new(
        "whole",
        generate(DatasetConfig::tiny(42)),
        EndpointLimits::warehouse(),
    );
    let config = config();
    let (cache, _) = Initializer::new(&whole, &config, InitMode::Federated)
        .run()
        .expect("§5 initialization over the whole graph");
    let cache = Arc::new(cache);
    let single = model(&cache, FederatedProcessor::single(Arc::new(whole)));
    let runs = runs(&single);
    assert_eq!(runs.len(), 33, "27 Runs as written and 6 flattened");

    for shards in [1, 2, 4] {
        let (edge, endpoints) = edge(&graph, shards, &cache);
        let calls = || -> (u64, u64) {
            endpoints.iter().fold((0, 0), |(a, s), e| {
                (
                    a + e.asks.load(Ordering::Relaxed),
                    s + e.selects.load(Ordering::Relaxed),
                )
            })
        };
        let mut per_run = Vec::new();
        for (label, script, query) in &runs {
            let ctx = format!("{shards} shards, {label}");
            let before = calls();
            let got = edge.run(query);
            let after = calls();
            per_run.push((after.0 - before.0, after.1 - before.1));
            let want = single.run(query);

            assert_eq!(got.executed, want.executed, "{ctx}: executed");
            assert_eq!(
                multiset(&got.answers),
                multiset(&want.answers),
                "{ctx}: answers"
            );

            let (got_alts, want_alts) = (
                &got.suggestions.alternatives,
                &want.suggestions.alternatives,
            );
            assert_eq!(got_alts.len(), want_alts.len(), "{ctx}: alternatives");
            for (g, w) in got_alts.iter().zip(want_alts) {
                assert_eq!(
                    (
                        g.triple_index,
                        g.position,
                        &g.term,
                        &g.original,
                        &g.replacement
                    ),
                    (
                        w.triple_index,
                        w.position,
                        &w.term,
                        &w.original,
                        &w.replacement
                    ),
                    "{ctx}: alternative"
                );
                assert_eq!(g.similarity.to_bits(), w.similarity.to_bits(), "{ctx}");
                assert_eq!(
                    multiset(&g.answers),
                    multiset(&w.answers),
                    "{ctx}: prefetched answers of {:?}",
                    g.replacement
                );
            }

            let (got_rel, want_rel) = (&got.suggestions.relaxations, &want.suggestions.relaxations);
            assert_eq!(got_rel.len(), want_rel.len(), "{ctx}: relaxations");
            for (g, w) in got_rel.iter().zip(want_rel) {
                let (g, w) = (&g.relaxed, &w.relaxed);
                assert_eq!(g.tree, w.tree, "{ctx}: relaxed tree");
                assert_eq!(g.queries_used, w.queries_used, "{ctx}: queries used");
                assert_eq!(g.complete, w.complete, "{ctx}: complete");
            }

            for row in &script.rows {
                let keyword = row.object.trim_start_matches('?');
                for end in 1..=keyword.chars().count().min(5) {
                    let prefix: String = keyword.chars().take(end).collect();
                    assert_eq!(
                        edge.complete(&prefix).suggestions,
                        single.complete(&prefix).suggestions,
                        "{ctx}: completions of {prefix:?}"
                    );
                }
            }
        }
        if shards == 2 {
            assert_eq!(per_run, FEDERATED_CALLS_PER_RUN, "what the edge sends");
            let asks: u64 = per_run.iter().map(|c| c.0).sum();
            let selects: u64 = per_run.iter().map(|c| c.1).sum();
            assert_eq!((asks, selects), (752, 908));
        }
    }
}

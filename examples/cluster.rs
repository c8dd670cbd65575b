//! Multi-tier topology walkthrough: a 4-shard / 2-replica Sapphire cluster
//! behind an edge router, compared live against a single-server oracle.
//!
//! The dataset is partitioned hash-by-subject (schema slice replicated), one
//! Predictive User Model is built per shard, and the edge scatter-gathers
//! QCM/QSM requests over the replicas with load-aware routing, hedging, and
//! typed overload retry. The point of the demo: the cluster's merged answers
//! are byte-comparable to one big server over the same data.
//!
//! Run with: `cargo run --release -p sapphire-bench --example cluster`

use std::sync::Arc;

use sapphire_cluster::merge::{merge_solutions, strip_slice};
use sapphire_cluster::{Cluster, ClusterConfig, ClusterRouter};
use sapphire_core::{InitMode, PredictiveUserModel, SapphireConfig};
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_endpoint::EndpointLimits;
use sapphire_server::{SapphireServer, ServerConfig};
use sapphire_sparql::parse_select;
use sapphire_text::Lexicon;

fn main() {
    let config = SapphireConfig {
        processes: 2,
        ..SapphireConfig::default()
    };

    // The warehouse: one graph, and a single big server as the oracle.
    println!("== initializing single-server oracle…");
    let oracle_pum = Arc::new(
        PredictiveUserModel::initialize_local(
            "oracle",
            generate(DatasetConfig::tiny(42)),
            EndpointLimits::warehouse(),
            Lexicon::dbpedia_default(),
            config.clone(),
            InitMode::Federated,
        )
        .expect("oracle init"),
    );
    let oracle = SapphireServer::new(oracle_pum, ServerConfig::default());

    // The cluster: 4 subject-hashed shards x 2 replicas, one shard-local PUM
    // per shard, an edge router in front.
    println!("== partitioning into 4 shards x 2 replicas…");
    let graph = generate(DatasetConfig::tiny(42));
    let cluster = Cluster::build(
        "edge",
        &graph,
        4,
        2,
        &Lexicon::dbpedia_default(),
        &config,
        &ServerConfig::default(),
    )
    .expect("shard init");
    println!(
        "   {} data triples sharded as {:?}, {} schema triples replicated everywhere",
        graph.len() - cluster.schema_triples(),
        cluster.data_triples(),
        cluster.schema_triples(),
    );
    let router = ClusterRouter::new(cluster, ClusterConfig::default());

    // QCM: each shard sends its own top-k and the edge merges them into the
    // top-k the single server shows, in the QCM's one completion order.
    let k = oracle.model().config().k;
    println!("\n== QCM scatter-gather: completing \"Kenn\" across 4 shards");
    let merged = router.complete("alice", "Kenn").expect("cluster QCM");
    for c in &merged.suggestions {
        println!("   {:?} ({:?})", c.text, c.source);
    }
    let oracle_top = oracle.complete_top("alice", "Kenn", k).expect("oracle QCM");
    println!(
        "   completions byte-identical to the oracle: {}",
        merged.suggestions == oracle_top.suggestions
    );

    // QSM: answers union-merged from subject-co-located shards, "did you
    // mean" rewrites merged and re-prefetched cluster-wide.
    println!("\n== QSM scatter-gather: a misspelled query");
    let query =
        parse_select(r#"SELECT ?p WHERE { ?p dbo:surname "Gaus"@en }"#).expect("query parses");
    let run = router.run("alice", &query).expect("cluster QSM");
    println!(
        "   answers: {} rows, executed on every shard: {}",
        run.answers.len(),
        run.executed
    );
    for alt in &run.alternatives {
        println!("   {}", alt.describe());
    }
    let oracle_run = oracle
        .run_select("alice", &strip_slice(&query))
        .expect("oracle QSM");
    let oracle_answers = merge_solutions(&query, vec![oracle_run.payload.answers.clone()]);
    println!(
        "   answers byte-identical to the oracle: {}",
        run.answers == oracle_answers
    );

    // Routing observability: what the scatter actually did.
    let m = router.metrics();
    println!("\n== router metrics");
    println!("   fan-out per shard:     {:?}", m.fanout_per_shard);
    println!(
        "   merges (max depth):    {} ({})",
        m.merges, m.merge_depth_max
    );
    println!(
        "   hedges fired/won:      {}/{}",
        m.hedges_fired, m.hedges_won
    );
    println!(
        "   replica retries:       {} (rejected after retry: {})",
        m.replica_retries, m.rejected_after_retry
    );
}

//! Cluster-mode load harness: `serve_load --cluster` and the CI smoke gate.
//!
//! Drives the same Appendix-B closed-loop workload as [`crate::serve`], but
//! against a [`ClusterRouter`] over a sharded, replicated [`Cluster`]
//! instead of one `SapphireServer` — the scatter-gather edge, load-aware
//! routing, typed retry, and the deterministic merges all on the hot path.
//! On top of throughput/latency it reports the router's own observability
//! ([`ClusterRouter::export_metrics`]) and runs a
//! **determinism self-check**: a second router with fresh edge caches over
//! the *same* shard replicas replays a sample of the workload, and any
//! byte-level divergence is counted in `summary.merge_mismatches` (the CI
//! gate requires zero).

use std::sync::Arc;
use std::time::Instant;

use sapphire_cluster::{Cluster, ClusterConfig, ClusterError, ClusterRouter};
use sapphire_core::session::{Modifiers, Session};
use sapphire_core::PredictiveUserModel;
use sapphire_datagen::generate;
use sapphire_datagen::workload::{appendix_b, Question};
use sapphire_obs::MetricsHub;
use sapphire_server::{ServerConfig, ServerError};
use sapphire_sparql::SelectQuery;
use sapphire_text::Lexicon;

use crate::serve::{closed_loop_sections, ClassStats};
use crate::{dataset_for, experiment_config};

/// Everything the cluster harness can be asked to do.
#[derive(Debug, Clone)]
pub struct ClusterLoadOptions {
    /// Closed-loop simulated users.
    pub users: usize,
    /// Times each user replays the whole Appendix-B question list.
    pub rounds: usize,
    /// Dataset scale (`tiny`/`small`/`medium`).
    pub scale: String,
    /// Data shards.
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Questions (and QCM terms) replayed by the determinism self-check
    /// (`0` skips it).
    pub determinism_sample: usize,
    /// Trace one request in N through the router's flight recorder (`0` =
    /// off; slowest traces dump to stderr after the run).
    pub trace_sample: u32,
}

impl Default for ClusterLoadOptions {
    fn default() -> Self {
        ClusterLoadOptions {
            users: 8,
            rounds: 2,
            scale: "tiny".to_string(),
            shards: 2,
            replicas: 2,
            determinism_sample: 8,
            trace_sample: 0,
        }
    }
}

/// Fold a router outcome into the per-class stats buckets (the cluster's
/// typed errors carry the shard's typed rejection). Shared with the
/// open-loop overload harness in [`crate::overload`].
pub(crate) fn flatten(result: Result<(), ClusterError>) -> Result<(), ServerError> {
    match result {
        Ok(()) => Ok(()),
        Err(ClusterError::ShardUnavailable { last, .. }) => Err(last),
        Err(ClusterError::Shard { error, .. })
        | Err(ClusterError::CrossShard { error })
        | Err(ClusterError::EdgeRejected(error)) => Err(error),
        Err(ClusterError::Unsupported(m)) => Err(ServerError::Backend(m)),
    }
}

/// Build each workload question's query once against the shard models.
/// Keyword predicates resolve against a shard-local cache; a rare predicate
/// can be missing from one shard's slice (all its subjects hashed
/// elsewhere), so resolution walks the shards in order and takes the first
/// that can build the script — deterministic for the fixed seed. Shared
/// with the wire-mode harness in [`crate::wire`].
pub(crate) fn workload_queries(
    models: &[std::sync::Arc<PredictiveUserModel>],
    questions: &[Question],
) -> Vec<SelectQuery> {
    questions
        .iter()
        .map(|q| {
            let modifiers = Modifiers {
                distinct: false,
                order_by: q.script.order_by.clone(),
                limit: q.script.limit,
                count: q.script.count,
                filters: q.script.filters.clone(),
            };
            models
                .iter()
                .find_map(|m| {
                    Session::resume(m, q.script.rows.clone(), modifiers.clone(), 0)
                        .build_query()
                        .ok()
                })
                .expect("some shard resolves every workload script")
        })
        .collect()
}

/// Replay the first `sample` queries (and each one's first QCM keyword)
/// through two routers and count the requests whose bytes differ — answers,
/// alternative lists, completions — or that either side failed. Shared with
/// the wire-mode harness, whose second router is the in-process oracle.
pub(crate) fn replay_mismatches(
    router: &ClusterRouter,
    reference: &ClusterRouter,
    queries: &[SelectQuery],
    questions: &[Question],
    sample: usize,
) -> u64 {
    let sample = sample.min(queries.len());
    let mut mismatches = 0u64;
    for query in &queries[..sample] {
        let same = match (router.run("replay", query), reference.run("replay", query)) {
            (Ok(a), Ok(b)) => {
                a.answers == b.answers
                    && a.alternatives.len() == b.alternatives.len()
                    && a.alternatives.iter().zip(&b.alternatives).all(|(x, y)| {
                        x.replacement == y.replacement
                            && x.position == y.position
                            && x.answers == y.answers
                    })
            }
            _ => false,
        };
        mismatches += u64::from(!same);
    }
    for question in &questions[..sample] {
        let keyword = question.script.rows[0].object.trim_start_matches('?');
        let same = match (
            router.complete("replay", keyword),
            reference.complete("replay", keyword),
        ) {
            (Ok(a), Ok(b)) => a.suggestions == b.suggestions,
            _ => false,
        };
        mismatches += u64::from(!same);
    }
    mismatches
}

/// Run the cluster workload and return the report.
pub fn run(opts: &ClusterLoadOptions) -> MetricsHub {
    let dataset = dataset_for(&opts.scale);
    eprintln!(
        "(generating dataset + initializing {} shard models x {} replicas…)",
        opts.shards, opts.replicas
    );
    // Timed bring-up phases: generate, partition, model init. These are the
    // per-shard "regenerate" reference the snapshot path (wire mode's
    // `bringup` section) is measured against.
    let bringup_clock = Instant::now();
    let graph = generate(dataset);
    let generate_us = bringup_clock.elapsed().as_micros() as u64;
    let triple_count = graph.len();
    let partition_clock = Instant::now();
    let partition = sapphire_rdf::Partitioner::new(opts.shards).split(&graph);
    let partition_us = partition_clock.elapsed().as_micros() as u64;
    // The same serving posture as the single-box harness: hardware-sized
    // gates (floored at 8), a finite queue, a CI-safe queue deadline.
    let default_in_flight = ServerConfig::default().max_in_flight.max(8);
    let server_config = ServerConfig {
        max_in_flight: default_in_flight,
        max_queue_depth: default_in_flight * 4,
        queue_wait: std::time::Duration::from_millis(1_000),
        ..ServerConfig::default()
    };
    let init_clock = Instant::now();
    let cluster = Cluster::build_from_shards(
        "edge",
        partition.shards,
        partition.schema_triples,
        partition.data_triples,
        opts.replicas,
        &Lexicon::dbpedia_default(),
        &experiment_config(),
        &server_config,
    )
    .expect("shard initialization");
    let model_init_us = init_clock.elapsed().as_micros() as u64;
    let schema_triples = cluster.schema_triples();
    let stored_triples: usize =
        cluster.data_triples().iter().sum::<usize>() + schema_triples * cluster.shard_count();
    // A second router over the *same* replicas, with its own cold edge
    // caches, for the determinism self-check.
    let replay_cluster = Cluster::from_replicas(cluster.shards().to_vec());
    let router = Arc::new(ClusterRouter::new(cluster, ClusterConfig::default()));
    router.obs().set_sampling(opts.trace_sample);
    let replay = ClusterRouter::new(replay_cluster, ClusterConfig::default());

    // Build each question's query once (see [`workload_queries`]).
    let models: Vec<_> = (0..router.cluster().shard_count())
        .map(|s| router.cluster().replicas(s)[0].model().clone())
        .collect();
    let questions = appendix_b();
    let queries: Vec<SelectQuery> = workload_queries(&models, &questions);

    eprintln!(
        "(driving {} users x {} rounds over {} questions against {} shards…)",
        opts.users,
        opts.rounds,
        questions.len(),
        opts.shards
    );
    let started = Instant::now();
    let (mut qcm, mut qsm) = (ClassStats::default(), ClassStats::default());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for user in 0..opts.users {
            let router = router.clone();
            let questions = &questions;
            let queries = &queries;
            let rounds = opts.rounds;
            handles.push(scope.spawn(move || {
                let tenant = format!("user-{user}");
                let mut qcm = ClassStats::default();
                let mut qsm = ClassStats::default();
                for round in 0..rounds {
                    for qi in 0..questions.len() {
                        let idx = (qi + user + round) % questions.len();
                        for input in &questions[idx].script.rows {
                            let keyword = input.object.trim_start_matches('?');
                            for end in 1..=keyword.chars().count().min(6) {
                                let prefix: String = keyword.chars().take(end).collect();
                                let t = Instant::now();
                                let r = router.complete(&tenant, &prefix).map(|_| ());
                                qcm.record(t, &flatten(r));
                            }
                        }
                        let t = Instant::now();
                        let r = router.run(&tenant, &queries[idx]).map(|_| ());
                        qsm.record(t, &flatten(r));
                    }
                }
                (qcm, qsm)
            }));
        }
        for h in handles {
            let (c, s) = h.join().expect("no worker panics");
            qcm.merge(c);
            qsm.merge(s);
        }
    });
    let wall = started.elapsed();

    // Determinism self-check: a cold second edge over the same shards must
    // reproduce every byte (answers, suggestion list, completions).
    let merge_mismatches = replay_mismatches(
        &router,
        &replay,
        &queries,
        &questions,
        opts.determinism_sample,
    );

    let obs = router.obs();
    if opts.trace_sample > 0 {
        eprintln!(
            "(flight recorder: slowest end-to-end traces)\n{}",
            obs.recorder().dump_slowest(5)
        );
    }
    let mut hub = MetricsHub::new();
    hub.section("summary").field("benchmark", "serve_cluster");
    hub.section("config")
        .field("users", opts.users)
        .field("rounds", opts.rounds)
        .field("scale", opts.scale.as_str())
        .field("shards", opts.shards)
        .field("replicas", opts.replicas)
        .field("triples", triple_count)
        .field("schema_triples", schema_triples)
        .field("stored_triples", stored_triples);
    closed_loop_sections(&mut hub, wall, &qcm, &qsm);
    hub.section("summary")
        .field("rejected_total", qcm.rejected() + qsm.rejected())
        .field("merge_mismatches", merge_mismatches);
    // Routing, transport and degraded-merge counters, per-shard fan-out,
    // the edge caches and the router's stages: the router's own export.
    hub.merge(router.export_metrics());
    hub.section("trace")
        .field("sampling", u64::from(opts.trace_sample))
        .field("recorded", obs.recorder().recorded())
        .field("dropped", obs.recorder().evicted());
    hub.section("bringup")
        .field("mode", "generate")
        .field("generate_us", generate_us)
        .field("partition_us", partition_us)
        .field("model_init_us", model_init_us);
    hub
}

//! What only the executor-driven scatter needs pinned.
//!
//! The cluster scatter, hedging, and the residual-bin parallel scans run on
//! a fixed work-stealing pool instead of per-request threads. That scatter
//! being byte-identical to the single-server oracle over all of Appendix B
//! is `tests/cluster.rs::four_shard_cluster_matches_single_server_oracle`;
//! this suite holds the rest: a run traced at sampling 1 answers exactly as
//! an untraced one, the per-shard `shard_rtt` spans still land under their
//! request's trace after crossing the executor's queue (the `TraceScope`
//! is handed to pool workers, not inherited by a spawned thread), and every
//! cold request fans out to every shard exactly once. A hedged shard call
//! is a task of its request too: its shard server's spans land under the
//! call's `shard_rtt` span, and no replica counts a request of its own.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use sapphire_cluster::{Cluster, ClusterConfig, ClusterRouter};
use sapphire_core::qsm::TermAlternative;
use sapphire_core::session::{Modifiers, Session};
use sapphire_core::{InitMode, PredictiveUserModel, SapphireConfig};
use sapphire_datagen::workload::appendix_b;
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_endpoint::EndpointLimits;
use sapphire_obs::Stage;
use sapphire_server::ServerConfig;
use sapphire_sparql::SelectQuery;
use sapphire_text::Lexicon;

fn sapphire_config() -> SapphireConfig {
    SapphireConfig {
        processes: 2,
        ..SapphireConfig::default()
    }
}

const SHARDS: usize = 4;

/// A 4-shard router over the fixed tiny dataset, tracing one request in
/// `sampling` (0 = off).
fn router(sampling: u32) -> ClusterRouter {
    let graph = generate(DatasetConfig::tiny(42));
    let cluster = Cluster::build(
        "edge",
        &graph,
        SHARDS,
        1,
        &Lexicon::dbpedia_default(),
        &sapphire_config(),
        &ServerConfig::for_tests(),
    )
    .unwrap();
    let router = ClusterRouter::new(
        cluster,
        ClusterConfig {
            // Hedging off: fan-out must count primary calls only.
            hedge_after: None,
            ..ClusterConfig::for_tests()
        },
    );
    router.obs().set_sampling(sampling);
    router
}

/// The scripted QSM queries, built once against a local model (the
/// predicate vocabulary is dataset-wide, so the built queries are valid on
/// both routers).
fn workload_queries() -> Vec<SelectQuery> {
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
            Session::resume(&pum, q.script.rows.clone(), modifiers, 0)
                .build_query()
                .expect("workload scripts build")
        })
        .collect()
}

/// Field-by-field equality for "did you mean" lists (`TermAlternative`
/// carries no `PartialEq`; prefetched answers included).
fn assert_alternatives_equal(a: &[TermAlternative], b: &[TermAlternative], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: alternative count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.position, y.position, "{ctx}");
        assert_eq!(x.replacement, y.replacement, "{ctx}");
        assert_eq!(x.original, y.original, "{ctx}");
        assert_eq!(x.triple_index, y.triple_index, "{ctx}");
        assert!((x.similarity - y.similarity).abs() < f64::EPSILON, "{ctx}");
        assert_eq!(x.term, y.term, "{ctx}");
        assert_eq!(x.answers, y.answers, "{ctx}: prefetched answers");
    }
}

/// The whole Appendix-B workload — per-keystroke QCM completions and every
/// scripted QSM run — answered byte-identically with every request traced
/// and with tracing off, each cold completion fanning out to all shards
/// once, and each traced scatter keeping its shard spans.
#[test]
fn traced_scatter_matches_untraced_and_keeps_shard_spans_through_the_executor() {
    let untraced = router(0);
    let traced = router(1);

    let mut prefixes = BTreeSet::new();
    for q in appendix_b() {
        for input in &q.script.rows {
            let keyword = input.object.trim_start_matches('?');
            for end in 1..=keyword.chars().count().min(3) {
                prefixes.insert(keyword.chars().take(end).collect::<String>());
            }
        }
    }
    assert!(
        prefixes.len() > 30,
        "the QCM comparison covers the workload"
    );
    for prefix in &prefixes {
        let plain = untraced.complete("alice", prefix).unwrap();
        let with_trace = traced.complete("alice", prefix).unwrap();
        assert_eq!(
            plain.suggestions, with_trace.suggestions,
            "prefix {prefix:?}: completions diverged"
        );
        assert!(!plain.cached && !with_trace.cached, "{prefix:?} is cold");
    }
    // Every prefix was distinct, so every request scattered: fan-out is
    // exactly shards × requests, no retries, nothing shed.
    for (label, r) in [("untraced", &untraced), ("traced", &traced)] {
        let m = r.metrics();
        assert_eq!(
            m.fanout_per_shard,
            vec![prefixes.len() as u64; SHARDS],
            "{label}: one call per shard per cold request"
        );
        assert_eq!(m.rejected_after_retry, 0, "{label}: no rejections");
    }

    // Each traced completion carries one `shard_rtt` span per shard, and the
    // replica round trips timed *on the executor workers* parent under them
    // — the trace context crossed the pool's queue with the task.
    let completions: Vec<_> = traced.obs().recorder().recent();
    assert!(!completions.is_empty(), "sampling 1 records every request");
    for trace in completions.iter().filter(|t| t.kind == "complete") {
        let (per_shard, round_trips): (Vec<_>, Vec<_>) = trace
            .spans
            .iter()
            .filter(|s| s.name == Stage::ShardRtt.name())
            .partition(|s| s.tag.starts_with("shard"));
        let shards: BTreeSet<&str> = per_shard.iter().map(|s| s.tag.as_str()).collect();
        assert_eq!(shards.len(), SHARDS, "trace {}: {shards:?}", trace.id);
        assert_eq!(round_trips.len(), SHARDS, "trace {}", trace.id);
        for rtt in round_trips {
            let parent = &trace.spans[rtt.parent.expect("timed under a shard span") as usize];
            assert!(shards.contains(parent.tag.as_str()), "{parent:?}");
        }
    }

    for (i, query) in workload_queries().iter().enumerate() {
        let plain = untraced.run("alice", query).unwrap();
        let with_trace = traced.run("alice", query).unwrap();
        assert_eq!(plain.answers, with_trace.answers, "question {i}: answers");
        assert_alternatives_equal(
            &plain.alternatives,
            &with_trace.alternatives,
            &format!("question {i}"),
        );
        assert_eq!(plain.executed, with_trace.executed, "question {i}");
    }
}

/// With two replicas a shard and hedging on, every shard call — the
/// primary too — is an executor task. A budget no call reaches keeps every
/// hedge unfired, so a traced cold run must look exactly as it does with
/// hedging off: the shard server's `qsm_scan` parented under a `shard_rtt`
/// span, and no replica recording an `end_to_end` of its own.
#[test]
fn a_hedged_shard_call_runs_inside_its_request() {
    let graph = generate(DatasetConfig::tiny(42));
    let query = &workload_queries()[0];
    for hedge_after in [None, Some(Duration::from_secs(30))] {
        let cluster = Cluster::build(
            "edge",
            &graph,
            2,
            2,
            &Lexicon::dbpedia_default(),
            &sapphire_config(),
            &ServerConfig::for_tests(),
        )
        .unwrap();
        let router = ClusterRouter::new(
            cluster,
            ClusterConfig {
                hedge_after,
                ..ClusterConfig::for_tests()
            },
        );
        router.obs().set_sampling(1);
        let run = router.run("alice", query).unwrap();
        assert!(!run.cached, "{hedge_after:?}: the question is cold");
        assert_eq!(router.metrics().hedges_fired, 0, "{hedge_after:?}");

        let traces = router.obs().recorder().recent();
        let trace = (traces.iter().find(|t| t.kind == "run")).expect("sampling 1 traces the run");
        let scan_under_shard_rtt = trace.spans.iter().any(|span| {
            span.name == Stage::QsmScan.name()
                && span
                    .parent
                    .is_some_and(|p| trace.spans[p as usize].name == Stage::ShardRtt.name())
        });
        assert!(
            scan_under_shard_rtt,
            "{hedge_after:?}: no qsm_scan under a shard_rtt span in {:?}",
            trace.spans
        );
        for (shard, replicas) in router.cluster().shards().iter().enumerate() {
            for (replica, server) in replicas.iter().enumerate() {
                assert_eq!(
                    server.obs().stage_snapshot(Stage::EndToEnd).count(),
                    0,
                    "{hedge_after:?}: shard {shard} replica {replica} recorded a request"
                );
            }
        }
    }
}

//! Pins recorded at the commit *before* the evaluator went id-native (PR 14):
//! the rewrite is purely mechanical, so work accounting, answers, and what
//! §5 initialization retrieves must not move by one unit or one byte.
//!
//! * every `sparql_exec` bench query: `WorkBudget::used()`, row count, and a
//!   hash of the whole `Solutions`;
//! * §5 initialization at `small`: `InitStats`, the endpoint's total work,
//!   and a hash of the sorted `(literal, score)` list, for the federated plan
//!   without limits (the posture every shard child and the benchmark use),
//!   the federated plan under a budget that forces hierarchy descent, and
//!   the warehouse plan.

use sapphire_bench::SPARQL_EXEC_CASES;
use sapphire_core::init::{InitMode, InitStats, Initializer};
use sapphire_core::SapphireConfig;
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_endpoint::{EndpointLimits, LocalEndpoint};
use sapphire_sparql::{evaluate_select, parse_select, WorkBudget};

/// FNV-1a — fixed here so the pins do not depend on the standard library's
/// hasher.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

#[test]
fn bench_queries_charge_the_same_work_and_return_the_same_bytes() {
    // (name, work units, rows, hash of `{solutions:?}`)
    const PINS: &[(&str, u64, usize, u64)] = &[
        ("point_lookup", 3, 1, 11665843627081705437),
        ("three_hop_join", 4, 1, 14594238032138226349),
        ("self_join", 156, 9, 1446534373932104527),
        ("filter_scan", 3264, 1532, 16156529298690949547),
        ("group_count", 24314, 35, 10839448513136456913),
        ("order_limit", 383, 1, 5483492987085718914),
        ("distinct_page", 1902, 100, 3761640005499672600),
        ("distinct_page_late", 1902, 83, 551590493630747308),
        ("group_order_page", 3104, 50, 12063916481269103633),
        ("group_order_page_late", 3104, 43, 14090285783318480863),
    ];
    let graph = generate(DatasetConfig::small(42));
    let measured: Vec<(&str, u64, usize, u64)> = SPARQL_EXEC_CASES
        .iter()
        .map(|(name, query)| {
            let parsed = parse_select(query).unwrap();
            let mut budget = WorkBudget::unlimited();
            let solutions = evaluate_select(&graph, &parsed, &mut budget).unwrap();
            let hash = fnv(format!("{solutions:?}").as_bytes());
            (*name, budget.used(), solutions.len(), hash)
        })
        .collect();
    assert_eq!(measured, PINS, "measured: {measured:#?}");
}

#[test]
fn initialization_at_small_retrieves_the_same_literals_for_the_same_work() {
    // (label, stats, endpoint total work, hash of the sorted (literal, score) list)
    let stats = |literal_queries, significance_queries, timeouts, literals_cached| InitStats {
        metadata_queries: 3,
        filter_queries: 14,
        literal_queries,
        significance_queries,
        timeouts,
        stopped_by_limit: false,
        literals_cached,
    };
    let pins: [(&str, InitStats, u64, u64); 3] = [
        (
            "federated",
            stats(15, 63, 0, 1575),
            120_850,
            9583639992116379670,
        ),
        (
            "federated-budgeted",
            stats(18, 86, 4, 1575),
            96_368,
            9583639992116379670,
        ),
        (
            "warehouse",
            stats(8, 4, 0, 1577),
            315_135,
            5456552229313363923,
        ),
    ];
    let triples = generate(DatasetConfig::small(42)).len() as u64;
    let budgeted = EndpointLimits {
        timeout_work: Some(triples / 3),
        reject_above: None,
        max_results: None,
    };
    let postures = [
        (InitMode::Federated, EndpointLimits::warehouse()),
        (InitMode::Federated, budgeted),
        (InitMode::Warehouse, EndpointLimits::warehouse()),
    ];
    // Pages smaller than the larger classes, so the pins cover late offsets.
    let config = SapphireConfig {
        init_page_size: 200,
        ..SapphireConfig::default()
    };
    let mut measured = Vec::new();
    for ((label, ..), (mode, limits)) in pins.iter().zip(postures) {
        let endpoint = LocalEndpoint::new("dbpedia", generate(DatasetConfig::small(42)), limits);
        let (parts, stats) = Initializer::new(&endpoint, &config, mode).parts().unwrap();
        let hash = fnv(format!("{:?}", parts.literals).as_bytes());
        measured.push((*label, stats, endpoint.stats().total_work, hash));
    }
    assert_eq!(measured, pins, "measured: {measured:#?}");
}

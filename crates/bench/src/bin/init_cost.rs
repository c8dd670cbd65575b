//! Regenerates the **§5.2 initialization-cost report**: queries issued per
//! phase, timeouts, cache sizes, suffix-tree footprint, and residual-bin
//! shape — the analogue of the paper's "17 hours, ~800 literal queries,
//! ~3000 significance queries, ~200 timeouts, 43K-string / 400 MB tree,
//! 21M residual literals in 80 bins" paragraph.
//!
//! Usage: `cargo run -p sapphire-bench --bin init_cost --release [--scale tiny|small|medium]`

use std::time::Instant;

use sapphire_bench::{experiment_config, heading, scale_from_args};
use sapphire_core::init::{InitMode, Initializer};
use sapphire_datagen::generate;
use sapphire_endpoint::{EndpointLimits, LocalEndpoint};

fn main() {
    let dataset = scale_from_args();
    println!("(generating dataset…)");
    let graph = generate(dataset);
    let triples = graph.len();

    // A public-endpoint-like budget: big enough for class-level queries on
    // mid-size classes, small enough that root-level scans time out and force
    // hierarchy descent — the §5.1 mechanism under test.
    let budget = (triples as u64 / 3).max(4_000);
    let budgeted = LocalEndpoint::new(
        "dbpedia",
        graph,
        EndpointLimits {
            timeout_work: Some(budget),
            reject_above: None,
            max_results: None,
        },
    );
    // The posture the benchmark and every shard child initialize under: the
    // same federated plan against an endpoint that never times out, so every
    // page of every class is evaluated in full.
    let unlimited = LocalEndpoint::new("dbpedia", generate(dataset), EndpointLimits::warehouse());
    println!("dataset: {triples} triples; per-query work budget: {budget}");

    for (label, mode, endpoint) in [
        ("federated (Q1–Q8)", InitMode::Federated, &budgeted),
        ("warehouse (Q9/Q10)", InitMode::Warehouse, &budgeted),
        (
            "federated (Q1–Q8), no endpoint limits",
            InitMode::Federated,
            &unlimited,
        ),
    ] {
        endpoint.reset_stats();
        // The tree capacity is scaled to the corpus the way the paper's 40K
        // tree relates to DBpedia's 21M cacheable literals: a small indexed
        // head, a large residual tail.
        let mut config = experiment_config();
        config.suffix_tree_capacity = 1_000;
        let start = Instant::now();
        let (cache, stats) = Initializer::new(endpoint, &config, mode)
            .run()
            .expect("init succeeds");
        let elapsed = start.elapsed();
        // Q1–Q5 run in both modes; the retrieval queries are the mode's own.
        let (literal_queries, significance_queries) = match mode {
            InitMode::Federated => ("Q6/Q7", "Q8"),
            InitMode::Warehouse => ("Q9", "Q10"),
        };

        println!("{}", heading(&format!("Initialization — {label}")));
        println!("wall time:                {elapsed:?}  (paper: 17 h against live DBpedia)");
        println!("metadata queries (Q1–Q4): {}", stats.metadata_queries);
        println!("filter queries (Q5):      {}", stats.filter_queries);
        println!(
            "{:<26}{}  (paper: ≈800)",
            format!("literal queries ({literal_queries}):"),
            stats.literal_queries
        );
        println!(
            "{:<26}{}  (paper: ≈3000)",
            format!("significance ({significance_queries}):"),
            stats.significance_queries
        );
        println!(
            "timeouts:                 {}  (paper: ≈200)",
            stats.timeouts
        );
        println!("total queries:            {}", stats.total_queries());
        println!("literals cached:          {}", stats.literals_cached);
        if stats.literals_cached == 0 && stats.timeouts > 0 {
            println!("  (its literal queries timed out: this section measured nothing)");
        }
        let indexed_chars: usize = cache.tree.strings().iter().map(|s| s.chars().count()).sum();
        println!(
            "suffix tree:              {} strings ({} predicates + {} significant literals), ≈{} KiB, {:.1} B per indexed char",
            cache.tree_string_count(),
            cache.predicates.len(),
            cache.significant.len(),
            cache.tree.approx_bytes() / 1024,
            cache.tree.approx_bytes() as f64 / indexed_chars.max(1) as f64,
        );
        println!(
            "residual literals:        {} across {} non-empty bins  (paper: 21M across 80 bins)",
            cache.bins.len(),
            cache.bins.bin_count(),
        );
        let ep_stats = endpoint.stats();
        println!(
            "endpoint-side counters:   {} queries run, {} timeouts, {} rejected, {} total work",
            ep_stats.queries, ep_stats.timeouts, ep_stats.rejected, ep_stats.total_work
        );
    }
}

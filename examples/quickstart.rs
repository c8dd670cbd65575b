//! Quickstart: register an endpoint, let Sapphire initialize, then compose a
//! query interactively — auto-complete, run, and accept a suggestion.
//!
//! Run with: `cargo run -p sapphire-bench --example quickstart`

use std::sync::Arc;

use sapphire_core::prelude::*;
use sapphire_core::InitMode;
use sapphire_datagen::{generate, DatasetConfig};

fn main() {
    // 1. A SPARQL endpoint. In production this is a remote server; here it is
    //    the simulated DBpedia-like endpoint (see ARCHITECTURE.md,
    //    "Substitutions").
    println!("generating a DBpedia-like dataset…");
    let graph = generate(DatasetConfig::tiny(42));
    println!("  {} triples", graph.len());
    let endpoint: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
        "dbpedia",
        graph,
        EndpointLimits::public_endpoint(500_000),
    ));

    // 2. Register it with Sapphire. This runs the §5 initialization: cache
    //    predicates, walk the class hierarchy for literals, build the index.
    println!("initializing Sapphire (caching predicates and literals)…");
    let pum = PredictiveUserModel::initialize(
        vec![endpoint],
        Lexicon::dbpedia_default(),
        SapphireConfig::default(),
        InitMode::Federated,
    )
    .expect("initialization");
    let (name, stats) = &pum.init_stats()[0];
    println!(
        "  endpoint {name:?}: {} queries issued, {} timeouts, {} literals cached",
        stats.total_queries(),
        stats.timeouts,
        stats.literals_cached
    );

    // 3. Type a term and watch the QCM complete it.
    let mut session = Session::new(&pum);
    for typed in ["Ke", "Kenn"] {
        let completions = session.complete(typed);
        let texts: Vec<&str> = completions
            .suggestions
            .iter()
            .take(5)
            .map(|s| s.text.as_str())
            .collect();
        println!("typing {typed:?} → completions {texts:?}");
    }

    // 4. Build the query from keywords: who has surname "Kennedy"?
    session.set_row(0, TripleInput::new("?person", "surname", "Kennedy"));
    let result = session.run().expect("query runs");
    println!("\nanswers ({} rows):", result.answers.total_rows());
    print!("{}", result.answers.view().to_table());

    // 5. The QSM always offers refinements.
    for alt in result.suggestions.alternatives.iter().take(3) {
        println!("suggestion: {}", alt.describe());
    }
}

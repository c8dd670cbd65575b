//! Ablations of the design choices the paper asserts without a table (see
//! ARCHITECTURE.md, "Substitutions", for what the data stands in for):
//!
//! 1. Jaro-Winkler vs Jaro vs normalized Levenshtein for term alternatives
//!    (the paper asserts JW "outperforms other similarity measures in our
//!    context", §6.2.1).
//! 2. The γ length-band for QCM residual scans: candidates scanned vs recall.
//! 3. The Steiner query budget: relaxation success vs expansion cost.
//! 4. θ sweep: alternative-candidate counts.
//!
//! Usage: `cargo run -p sapphire-bench --bin ablation --release [--scale tiny|small|medium]`

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sapphire_bench::{
    experiment_config, harvest_literals, harvest_predicates, heading, scale_from_args,
};
use sapphire_core::qsm::StructureRelaxer;
use sapphire_core::{CachedData, SapphireConfig, SteinerConfig};
use sapphire_datagen::generate;
use sapphire_datagen::userstudy::misspell;
use sapphire_endpoint::{Endpoint, EndpointLimits, FederatedProcessor, LocalEndpoint};
use sapphire_rdf::Term;
use sapphire_text::{jaro, jaro_winkler_ci, levenshtein_similarity};

fn main() {
    let dataset = scale_from_args();
    println!("(generating dataset…)");
    let graph = generate(dataset);
    let literals = harvest_literals(&graph, "en", 80);
    let predicates = harvest_predicates(&graph);
    let endpoint: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
        "dbpedia",
        graph,
        EndpointLimits::warehouse(),
    ));
    let fed = FederatedProcessor::single(endpoint);
    let base = experiment_config();

    // ---------------------------------------------------------------
    // 1. Similarity-measure shootout: recover the original literal from a
    //    misspelling; rank-1 accuracy per measure.
    // ---------------------------------------------------------------
    println!(
        "{}",
        heading("Ablation 1 — similarity measure for term alternatives (rank-1 recovery)")
    );
    let mut rng = StdRng::seed_from_u64(7);
    let probes: Vec<(String, String)> = literals
        .iter()
        .filter(|(l, _)| l.len() >= 5 && l.len() <= 30)
        .take(200)
        .map(|(l, _)| (misspell(l, &mut rng), l.clone()))
        .collect();
    type Measure = (&'static str, fn(&str, &str) -> f64);
    let measures: Vec<Measure> = vec![
        ("Jaro-Winkler", |a, b| jaro_winkler_ci(a, b)),
        ("Jaro", |a, b| jaro(&a.to_lowercase(), &b.to_lowercase())),
        ("norm. Levenshtein", |a, b| {
            levenshtein_similarity(&a.to_lowercase(), &b.to_lowercase())
        }),
    ];
    for (name, f) in &measures {
        let mut rank1 = 0usize;
        for (typo, original) in &probes {
            let best = literals
                .iter()
                .map(|(l, _)| (l, f(typo, l)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(l, _)| l.clone());
            if best.as_deref() == Some(original.as_str()) {
                rank1 += 1;
            }
        }
        println!(
            "{name:<20} rank-1 accuracy: {:>5.1}%",
            100.0 * rank1 as f64 / probes.len() as f64
        );
    }

    // ---------------------------------------------------------------
    // 2. γ sweep: QCM residual candidates vs whether the intended literal is
    //    reachable.
    // ---------------------------------------------------------------
    println!(
        "{}",
        heading("Ablation 2 — γ (QCM length band): candidates scanned vs recall")
    );
    println!("{:<6} {:>14} {:>10}", "γ", "avg candidates", "recall");
    let typo_probes: Vec<(String, String)> = literals
        .iter()
        .filter(|(l, _)| l.len() >= 6 && l.len() <= 40)
        .take(100)
        .map(|(l, _)| {
            let prefix: String = l.chars().take(4).collect();
            (prefix, l.clone())
        })
        .collect();
    for gamma in [0usize, 2, 5, 10, 20, 40] {
        let config = SapphireConfig {
            suffix_tree_capacity: 0,
            gamma,
            ..base.clone()
        };
        let cache = CachedData::from_raw(predicates.clone(), literals.clone(), &config);
        let mut candidates = 0usize;
        let mut found = 0usize;
        for (prefix, original) in &typo_probes {
            candidates += cache
                .bins
                .count_in_range(prefix.len()..prefix.len() + gamma + 1);
            let ids = cache.residual_lookup(prefix, gamma, config.processes);
            if ids.iter().any(|&id| cache.bins.literal(id) == original) {
                found += 1;
            }
        }
        println!(
            "{:<6} {:>14} {:>9.0}%",
            gamma,
            candidates / typo_probes.len().max(1),
            100.0 * found as f64 / typo_probes.len().max(1) as f64
        );
    }

    // ---------------------------------------------------------------
    // 3. Steiner budget sweep on the Figure 6 workload.
    // ---------------------------------------------------------------
    println!(
        "{}",
        heading("Ablation 3 — Steiner expansion budget (Figure 6 workload)")
    );
    println!("{:<8} {:>9} {:>12}", "budget", "connects", "queries used");
    let preferred: HashSet<String> = ["author", "publisher", "writer"]
        .iter()
        .map(|p| format!("http://dbpedia.org/ontology/{p}"))
        .collect();
    let groups = vec![
        vec![Term::en("Jack Kerouac")],
        vec![Term::en("Viking Press")],
    ];
    for budget in [2usize, 5, 10, 25, 50, 100, 200] {
        let config = SteinerConfig {
            query_budget: budget,
            ..SteinerConfig::default()
        };
        let relaxer = StructureRelaxer::new(&fed, config, preferred.clone());
        match relaxer.relax(&groups) {
            Some(r) => println!("{:<8} {:>9} {:>12}", budget, r.complete, r.queries_used),
            None => println!("{:<8} {:>9} {:>12}", budget, false, "-"),
        }
    }

    // ---------------------------------------------------------------
    // 4. θ sweep: how many alternatives clear the similarity bar.
    // ---------------------------------------------------------------
    println!(
        "{}",
        heading("Ablation 4 — θ (JW threshold): literal alternatives per probe")
    );
    println!("{:<6} {:>16} {:>10}", "θ", "avg alternatives", "recall");
    let mut rng = StdRng::seed_from_u64(11);
    let typo_probes: Vec<(String, String)> = literals
        .iter()
        .filter(|(l, _)| l.len() >= 6 && l.len() <= 30)
        .take(100)
        .map(|(l, _)| (misspell(l, &mut rng), l.clone()))
        .collect();
    for theta in [0.5, 0.6, 0.7, 0.8, 0.9] {
        let config = SapphireConfig {
            suffix_tree_capacity: 0,
            theta,
            ..base.clone()
        };
        let cache = CachedData::from_raw(predicates.clone(), literals.clone(), &config);
        let mut count = 0usize;
        let mut found = 0usize;
        for (typo, original) in &typo_probes {
            let alts =
                cache.similar_literals(typo, config.alpha, config.beta, theta, config.processes);
            count += alts.len();
            if alts.iter().any(|(l, _)| l == original) {
                found += 1;
            }
        }
        println!(
            "{:<6} {:>16.1} {:>9.0}%",
            theta,
            count as f64 / typo_probes.len() as f64,
            100.0 * found as f64 / typo_probes.len() as f64
        );
    }
}

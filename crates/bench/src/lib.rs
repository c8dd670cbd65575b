//! # sapphire-bench
//!
//! Experiment harness for the Sapphire reproduction: report binaries that
//! regenerate every table and figure of the paper's evaluation (§7), plus
//! the serving-tier load generators and their CI gate. See ARCHITECTURE.md,
//! "Substitutions", for what each experiment stands in for and this crate's
//! README for the report schema.

#![forbid(unsafe_code)]

pub mod args;
pub mod cluster;
pub mod frontend;
pub mod overload;
pub mod serve;

use sapphire_core::{SapphireConfig, LANGUAGE, LITERAL_MAX_LEN};
use sapphire_datagen::DatasetConfig;
use sapphire_rdf::{Graph, Term};
use sapphire_server::ServerConfig;

/// Evaluator probe queries over the `small` dataset: BGP joins of the
/// shapes the workload uses, and the §5 initialization page shapes (Q6
/// `distinct_page`, Q8 `group_order_page`) at OFFSET 0 and at a late offset.
/// `tests/evaluator_pins.rs` pins each one's work units and answer.
pub const SPARQL_EXEC_CASES: &[(&str, &str)] = &[
    (
        "point_lookup",
        r#"SELECT ?tz WHERE { ?c dbo:name "Salt Lake City"@en . ?c dbo:timeZone ?tz }"#,
    ),
    (
        "three_hop_join",
        r#"SELECT ?pop WHERE { ?c dbo:name "Australia"@en . ?c dbo:capital ?cap . ?cap dbo:population ?pop }"#,
    ),
    (
        "self_join",
        "SELECT ?p WHERE { ?p a dbo:ChessPlayer . ?p dbo:birthPlace ?place . ?p dbo:deathPlace ?place }",
    ),
    (
        "filter_scan",
        "SELECT ?o WHERE { ?s dbo:name ?o . FILTER(isliteral(?o) && lang(?o) = 'en' && strlen(str(?o)) < 80) }",
    ),
    (
        "group_count",
        "SELECT ?p (COUNT(*) AS ?frequency) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?frequency)",
    ),
    (
        "order_limit",
        "SELECT ?c ?p WHERE { ?c a dbo:City ; dbo:population ?p } ORDER BY DESC(?p) LIMIT 1",
    ),
    (
        "distinct_page",
        "SELECT DISTINCT ?o WHERE { ?s a dbo:Person . ?s dbo:name ?o . \
         FILTER(isliteral(?o) && lang(?o) = \"en\" && strlen(str(?o)) < 80) } LIMIT 100 OFFSET 0",
    ),
    (
        "distinct_page_late",
        "SELECT DISTINCT ?o WHERE { ?s a dbo:Person . ?s dbo:name ?o . \
         FILTER(isliteral(?o) && lang(?o) = \"en\" && strlen(str(?o)) < 80) } LIMIT 100 OFFSET 500",
    ),
    (
        "group_order_page",
        "SELECT DISTINCT ?o (COUNT(?subject) AS ?frequency) WHERE { \
         ?s a dbo:Place . ?subject ?p2 ?s . ?s dbo:name ?o . \
         FILTER(lang(?o) = \"en\" && strlen(str(?o)) < 80) } \
         GROUP BY ?o ORDER BY DESC(?frequency) LIMIT 50 OFFSET 0",
    ),
    (
        "group_order_page_late",
        "SELECT DISTINCT ?o (COUNT(?subject) AS ?frequency) WHERE { \
         ?s a dbo:Place . ?subject ?p2 ?s . ?s dbo:name ?o . \
         FILTER(lang(?o) = \"en\" && strlen(str(?o)) < 80) } \
         GROUP BY ?o ORDER BY DESC(?frequency) LIMIT 50 OFFSET 100",
    ),
];

/// Parse the experiment scale from argv (`--scale tiny|small|medium|large`,
/// default `small`). An unrecognized name aborts the binary.
pub fn scale_from_args() -> DatasetConfig {
    let args: Vec<String> = std::env::args().collect();
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("small")
        .to_string();
    dataset_for(&scale)
}

/// Dataset config by scale name, at the experiments' fixed seed (42).
///
/// # Panics
/// Panics on an unrecognized scale name. The bins deliberately hard-error
/// here: the old behaviour (silently degrading to `small`) produced reports
/// labelled with a scale they never ran.
pub fn dataset_for(scale: &str) -> DatasetConfig {
    DatasetConfig::for_scale(scale, 42).unwrap_or_else(|| {
        panic!(
            "unknown --scale {scale:?}; expected one of: {}",
            DatasetConfig::SCALE_NAMES.join(", ")
        )
    })
}

/// The Sapphire configuration used by the experiments (paper constants, with
/// a worker count matching the host).
pub fn experiment_config() -> SapphireConfig {
    SapphireConfig {
        processes: std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(8)
            .min(8),
        ..SapphireConfig::default()
    }
}

/// The serving posture of every shard replica the cluster harness starts,
/// in this process or in a `wire_shard` process: hardware-sized admission
/// floored at 8 in flight (cramped CI boxes still exercise real
/// parallelism), a queue four times that, and a 1 s queue deadline that a
/// noisy runner's scheduler stall cannot trip.
pub fn serving_posture() -> ServerConfig {
    let max_in_flight = ServerConfig::default().max_in_flight.max(8);
    ServerConfig {
        max_in_flight,
        max_queue_depth: max_in_flight * 4,
        queue_wait: std::time::Duration::from_secs(1),
        ..ServerConfig::default()
    }
}

/// Harvest all cacheable literals (filtered by §5.1's language and length
/// bound, [`LANGUAGE`] and [`LITERAL_MAX_LEN`]) with their significance
/// scores directly from a graph.
///
/// This bypasses the initialization query pipeline; it is used only by
/// report binaries (`qcm_response`, `ablation`) that need a large literal
/// corpus without paying init time. `init_cost` uses the real pipeline.
pub fn harvest_literals(graph: &Graph) -> Vec<(String, u64)> {
    use std::collections::HashMap;
    let mut scores: HashMap<String, u64> = HashMap::new();
    for (s, _p, o) in graph.iter_terms() {
        let Term::Literal(lit) = o else { continue };
        if lit.lang.as_deref() != Some(LANGUAGE) || lit.value.chars().count() >= LITERAL_MAX_LEN {
            continue;
        }
        let subject_id = graph.term_id(s).expect("subject interned");
        let significance = graph.in_degree(subject_id) as u64;
        let entry = scores.entry(lit.value.clone()).or_insert(0);
        *entry = (*entry).max(significance);
    }
    let mut out: Vec<(String, u64)> = scores.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Harvest predicate IRIs with literal counts from a graph (same shortcut).
pub fn harvest_predicates(graph: &Graph) -> Vec<(String, u64)> {
    use std::collections::HashMap;
    let mut counts: HashMap<String, u64> = HashMap::new();
    for (_s, p, o) in graph.iter_terms() {
        let c = counts.entry(p.lexical().to_string()).or_insert(0);
        if o.is_literal() {
            *c += 1;
        }
    }
    let mut out: Vec<(String, u64)> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Render a labelled horizontal ASCII bar (the report binaries' "figures").
pub fn bar(label: &str, value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    format!(
        "{label:<28} {:<width$} {value:>7.1}",
        "#".repeat(filled.min(width)),
        width = width
    )
}

/// A section header for report output.
pub fn heading(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_datagen::generate;

    #[test]
    fn harvest_matches_init_filters() {
        let g = generate(DatasetConfig::tiny(7));
        let lits = harvest_literals(&g);
        assert!(!lits.is_empty());
        assert!(lits.iter().all(|(l, _)| l.chars().count() < 80));
        // Sorted by significance descending.
        for w in lits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // French noise literals must be excluded.
        assert!(lits.iter().all(|(l, _)| !l.starts_with("Étranger")));
    }

    #[test]
    fn harvest_predicates_counts_literals() {
        let g = generate(DatasetConfig::tiny(7));
        let preds = harvest_predicates(&g);
        let name = preds.iter().find(|(p, _)| p.ends_with("/name")).unwrap();
        assert!(name.1 > 0);
    }

    #[test]
    fn dataset_for_resolves_every_scale() {
        for &name in DatasetConfig::SCALE_NAMES {
            let _ = dataset_for(name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown --scale")]
    fn dataset_for_rejects_unknown_scales() {
        let _ = dataset_for("smal");
    }

    #[test]
    fn bar_rendering() {
        let b = bar("easy", 50.0, 100.0, 20);
        assert!(b.contains("##########"));
        assert!(bar("zero", 0.0, 0.0, 10).contains("0.0"));
    }
}

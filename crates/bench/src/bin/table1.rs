//! Regenerates **Table 1**: comparing systems on the 50-question QALD-style
//! set (§7.2). Quoted rows (Xser, APEQ, QAnswer, SemGraphQA, YodaQA) are the
//! paper's values for systems the paper itself did not run; measured rows are
//! produced live by this binary.
//!
//! Usage: `cargo run -p sapphire-bench --bin table1 --release [--scale tiny|small|medium]`

use sapphire_baselines::{paper_measured_rows, quoted_rows, ComparisonHarness};
use sapphire_bench::{experiment_config, heading, scale_from_args};

fn main() {
    let dataset = scale_from_args();
    println!(
        "{}",
        heading("Table 1 — Comparing systems using questions from QALD-5")
    );
    println!(
        "(synthetic DBpedia substitute; see ARCHITECTURE.md, \"Substitutions\". Building harness…)"
    );
    let harness = ComparisonHarness::build(dataset, experiment_config());
    let measured = harness.run();

    println!(
        "\n{:<12} {:>4} {:>6} {:>4} {:>4} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
        "system", "#pro", "%", "#ri", "#par", "R", "R*", "P", "P*", "F1", "F1*"
    );
    println!("{}", "-".repeat(78));
    for row in quoted_rows() {
        println!("{}", row.row());
    }
    for row in &measured {
        println!("{}", row.row());
    }

    println!("\n--- paper's measured rows (for comparison) ---");
    for row in paper_measured_rows() {
        println!("{}", row.row());
    }

    // The shape assertions the reproduction is graded on.
    let get = |name: &str| measured.iter().find(|r| r.name == name).unwrap();
    let sapphire = get("Sapphire");
    println!("\nshape checks:");
    println!(
        "  Sapphire best recall among measured systems: {}",
        measured
            .iter()
            .all(|r| r.name == "Sapphire" || sapphire.recall() > r.recall())
    );
    println!(
        "  Sapphire best F1 among measured systems:     {}",
        measured
            .iter()
            .all(|r| r.name == "Sapphire" || sapphire.f1() > r.f1())
    );
    println!(
        "  KBQA precision = 1.0 (factoid-only):         {}",
        get("KBQA").precision() >= 0.99
    );
    println!(
        "  S4 second-best measured recall:              {}",
        measured
            .iter()
            .all(|r| ["S4", "Sapphire"].contains(&r.name.as_str())
                || get("S4").recall() >= r.recall())
    );
    println!(
        "  SPARQLByE answers fewest questions:          {}",
        measured
            .iter()
            .all(|r| r.name == "SPARQLByE" || get("SPARQLByE").processed <= r.processed)
    );
}

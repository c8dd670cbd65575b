//! Regenerates the **§7.3.1 QCM response-time experiment**: suffix-tree
//! lookup latency, parallel residual-bin scan scaling over core counts,
//! suffix-tree hit ratio vs. tree size, and the fraction of literals
//! eliminated by the length filter.
//!
//! Usage: `cargo run -p sapphire-bench --bin qcm_response --release [--scale tiny|small|medium]`

use std::sync::Arc;
use std::time::Instant;

use sapphire_bench::{
    experiment_config, harvest_literals, harvest_predicates, heading, scale_from_args,
};
use sapphire_core::bins::{FoldedLiteral, FoldedNeedle};
use sapphire_core::{CachedData, QueryCompletion, SapphireConfig};
use sapphire_datagen::generate;

/// Lookup terms modeled on user-study keystrokes (prefixes of entity names
/// and predicate keywords at various lengths).
fn probe_terms() -> Vec<&'static str> {
    vec![
        "Ken",
        "Kenn",
        "Kennedy",
        "New",
        "Sal",
        "Salt Lake",
        "alma",
        "birth",
        "spo",
        "pop",
        "Viking",
        "Kerouac",
        "Char",
        "Thatcher",
        "Aus",
        "pres",
        "Spiel",
        "East",
        "Gold",
        "Lake",
    ]
}

/// FNV-1a 64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn main() {
    let dataset = scale_from_args();
    println!("(generating dataset and harvesting literal corpus…)");
    let graph = generate(dataset);
    let literals = harvest_literals(&graph);
    let predicates = harvest_predicates(&graph);
    println!(
        "corpus: {} predicates, {} distinct literals",
        predicates.len(),
        literals.len()
    );

    let base = experiment_config();

    // ---- Hit ratio & latency vs suffix-tree size (paper: 40K literals → 50% hit ratio) ----
    println!(
        "{}",
        heading("QCM: suffix-tree size vs hit ratio and latency")
    );
    println!(
        "{:<12} {:>12} {:>10} {:>14} {:>14} {:>12} {:>20}",
        "tree size",
        "tree strings",
        "hit ratio",
        "tree time/op",
        "bins time/op",
        "tree bytes",
        "residual index bytes"
    );
    // What each capacity returned, pinned apart from its timings: FNV-1a 64
    // over every completion's text, IRI and source, term by term.
    let mut digests = Vec::new();
    for capacity in [0usize, 1_000, 5_000, 20_000, 40_000] {
        let config = SapphireConfig {
            suffix_tree_capacity: capacity,
            ..base.clone()
        };
        let cache = Arc::new(CachedData::from_raw(
            predicates.clone(),
            literals.clone(),
            &config,
        ));
        let qcm = QueryCompletion::new(cache.clone(), config);
        let mut hits = 0usize;
        let mut tree_ns = 0u128;
        let mut bins_ns = 0u128;
        let mut shown: Vec<u8> = Vec::new();
        let terms = probe_terms();
        for t in &terms {
            let r = qcm.complete(t);
            for c in &r.suggestions {
                shown.extend_from_slice(c.text.as_bytes());
                shown.push(0xFF);
                shown.extend_from_slice(c.predicate_iri.as_deref().unwrap_or("").as_bytes());
                shown.push(0xFF);
                shown.push(c.source as u8);
            }
            shown.push(0xFE);
            hits += usize::from(r.tree_hit);
            tree_ns += r.tree_time.as_nanos();
            bins_ns += r.bins_time.as_nanos();
        }
        println!(
            "{:<12} {:>12} {:>9.0}% {:>11.3} µs {:>11.3} µs {:>12} {:>20}",
            capacity,
            cache.tree_string_count(),
            100.0 * hits as f64 / terms.len() as f64,
            tree_ns as f64 / terms.len() as f64 / 1_000.0,
            bins_ns as f64 / terms.len() as f64 / 1_000.0,
            cache.tree.approx_bytes(),
            cache.bins.index_bytes(),
        );
        digests.push((capacity, fnv1a64(&shown)));
    }
    for (capacity, digest) in digests {
        println!("completions digest at tree size {capacity}: {digest:016x}");
    }

    // ---- Parallel scan scaling (paper: 0.6 s @ 1 core → 0.16 s @ 8 cores,
    // over 21M residual literals). The generated corpus is small, so the
    // worker sweep uses an enlarged synthetic residual corpus where scan time
    // dominates thread-coordination overhead, as it does at DBpedia scale.
    println!(
        "{}",
        heading("QCM: residual-bin scan time vs worker count (tree disabled)")
    );
    let scan_corpus: Vec<(String, u64)> = {
        // Variants stay close to the original lengths so they land in the
        // length bands the probe terms search.
        let mut big: Vec<(String, u64)> = Vec::with_capacity(1_200_000);
        for (i, (l, _)) in literals.iter().cycle().take(1_200_000).enumerate() {
            big.push((format!("{l} {}", i % 997), 0));
        }
        big
    };
    println!("synthetic residual corpus: {} literals", scan_corpus.len());
    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    println!("host cores: {cores} (the paper's 0.6 s → 0.16 s scaling needs ≥8; on a");
    println!("single-core host this sweep verifies Algorithm 1's work division and");
    println!("measures coordination overhead instead of speedup)");
    println!("{:<8} {:>14} {:>10}", "P", "avg scan time", "speedup");
    let mut t1 = 0.0f64;
    for p in [1usize, 2, 4, 8] {
        let config = SapphireConfig {
            suffix_tree_capacity: 0,
            processes: p,
            ..base.clone()
        };
        let cache = Arc::new(CachedData::from_raw(
            predicates.clone(),
            scan_corpus.clone(),
            &config,
        ));
        // Measure the Algorithm-1 scan itself (what §7.3.1 times): the
        // containment kernel over each term's band, through `scan_parallel`.
        // `complete()` answers these terms with the residual walk instead
        // (`ResidualBins::matching`, stopped at k); its timings are in the
        // tree sweep above.
        let scan = |t: &str| {
            let len = t.chars().count();
            let needle = FoldedNeedle::new(t);
            cache
                .bins
                .scan_parallel(len..len + config.gamma + 1, p, move || {
                    let needle = needle.clone();
                    move |lit: FoldedLiteral<'_>| lit.contains(&needle).then_some(0.0)
                })
        };
        for t in probe_terms() {
            let _ = scan(t);
        }
        let start = Instant::now();
        let rounds = 3;
        for _ in 0..rounds {
            for t in probe_terms() {
                let _ = scan(t);
            }
        }
        let per_op = start.elapsed().as_secs_f64() / (rounds * probe_terms().len()) as f64;
        if p == 1 {
            t1 = per_op;
        }
        println!(
            "{:<8} {:>11.3} ms {:>9.2}x",
            p,
            per_op * 1_000.0,
            t1 / per_op
        );
    }

    // ---- Length-filter elimination (paper: ≈46% on average) ----
    println!(
        "{}",
        heading("QCM: % of residual literals eliminated by the length filter")
    );
    let config = SapphireConfig {
        suffix_tree_capacity: 0,
        ..base
    };
    let cache = Arc::new(CachedData::from_raw(predicates, literals, &config));
    let qcm = QueryCompletion::new(cache, config);
    let mut total = 0.0;
    let mut n = 0usize;
    for t in probe_terms() {
        let ratio = qcm.filter_elimination_ratio(t.chars().count());
        total += ratio;
        n += 1;
    }
    println!(
        "average over {} probe terms: {:.0}% eliminated (paper: ≈46%)",
        n,
        100.0 * total / n as f64
    );
}

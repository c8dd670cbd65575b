//! Replays Appendix B on the benchmark's single-box model and prints the
//! endpoint's work — a count that depends only on the code, not on how
//! many passes of a timed run fitted.
//!
//! The model is built fresh at the benchmark's `bench` size (0.4 × the
//! `medium` dataset, seed 42, suffix-tree capacity 500). Every Appendix-B
//! script is run as written, flattened (Figure 6's mistake) and with its
//! literal keywords misspelled by one character, one keyword a variant
//! (Figure 2's mistake, seeded).
//! The output is the number of Runs, the endpoint queries and work units
//! they cost, and an FNV-1a hash of every Run's answers, alternatives and
//! relaxations (elapsed time left out), so a change that must not move an
//! answer can show that it moved none.
//!
//! Run with: `cargo run --release -p sapphire-bench --example replay_work`

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use sapphire_bench::experiment_config;
use sapphire_core::session::Session;
use sapphire_core::{InitMode, PredictiveUserModel, SapphireConfig};
use sapphire_datagen::userstudy::{flatten, misspell};
use sapphire_datagen::{appendix_b, generate, DatasetConfig};
use sapphire_endpoint::{Endpoint, EndpointLimits, LocalEndpoint};
use sapphire_text::Lexicon;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn main() {
    let medium = DatasetConfig::medium(42);
    let dataset = DatasetConfig {
        seed: 42,
        persons: medium.persons * 2 / 5,
        cities: medium.cities * 2 / 5,
        works: medium.works * 2 / 5,
        organisations: medium.organisations * 2 / 5,
        noise_literals: medium.noise_literals * 2 / 5,
    };
    let endpoint = Arc::new(LocalEndpoint::new(
        "dbpedia",
        generate(dataset),
        EndpointLimits::warehouse(),
    ));
    let pum = PredictiveUserModel::initialize(
        vec![endpoint.clone() as Arc<dyn Endpoint>],
        Lexicon::dbpedia_default(),
        SapphireConfig {
            suffix_tree_capacity: 500,
            ..experiment_config()
        },
        InitMode::Federated,
    )
    .expect("model initialization");
    endpoint.reset_stats();

    let mut rng = StdRng::seed_from_u64(21);
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut runs = 0;
    for question in appendix_b() {
        let script = &question.script;
        let mut variants = vec![script.clone()];
        variants.extend(flatten(script));
        // One misspelled variant per literal keyword.
        for (row, keyword) in script.rows.iter().enumerate() {
            if keyword.object.starts_with('?')
                || matches!(keyword.predicate.trim(), "a" | "type" | "is a")
            {
                continue;
            }
            let mut typo = script.clone();
            typo.rows[row].object = misspell(&keyword.object, &mut rng);
            variants.push(typo);
        }
        for script in variants {
            let query = Session::resume(&pum, script.rows.clone(), script.modifiers(), 0)
                .build_query()
                .expect("workload scripts build");
            let outcome = pum.run(&query);
            let suggestions = &outcome.suggestions;
            hash.write(
                format!(
                    "{:?}\n{:?}\n{:?}\n",
                    outcome.answers, suggestions.alternatives, suggestions.relaxations
                )
                .as_bytes(),
            );
            runs += 1;
        }
    }
    let stats = endpoint.stats();
    println!("runs: {runs}");
    println!("endpoint queries: {}", stats.queries);
    println!("work units: {}", stats.total_work);
    println!("output hash: {:016x}", hash.0);
}

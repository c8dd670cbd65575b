//! Two users compose the paper's §4 walkthrough queries at the same time
//! against ONE shared `SapphireServer` — one model, two sessions, live
//! completions, typed suggestions, and an accepted "did you mean".
//!
//! Run with: `cargo run -p sapphire-bench --example concurrent_sessions`

use std::sync::Arc;

use sapphire_core::prelude::*;
use sapphire_core::InitMode;
use sapphire_server::{SapphireServer, ServerConfig};

const DATA: &str = r#"
dbo:Person a owl:Class .
res:JFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:name "John F. Kennedy"@en ;
    dbo:birthPlace res:Brookline .
res:RFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:name "Robert F. Kennedy"@en ;
    dbo:birthPlace res:Brookline .
res:Jack a dbo:Person ; dbo:surname "Kerouac"@en ; dbo:name "Jack Kerouac"@en ;
    dbo:birthPlace res:Lowell .
res:Brookline a dbo:Town ; dbo:name "Brookline"@en .
res:Lowell a dbo:Town ; dbo:name "Lowell"@en .
"#;

fn main() {
    // One shared model: graph + cache + lexica, initialized once.
    let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
        "dbpedia",
        sapphire_sparql::turtle::parse(DATA).unwrap(),
        EndpointLimits::warehouse(),
    ));
    let pum = Arc::new(
        PredictiveUserModel::initialize(
            vec![ep],
            Lexicon::dbpedia_default(),
            SapphireConfig::for_tests(),
            InitMode::Federated,
        )
        .unwrap(),
    );
    let server = Arc::new(SapphireServer::new(pum, ServerConfig::default()));

    let alice = {
        let server = server.clone();
        std::thread::spawn(move || {
            // Alice reproduces Figure 2: a misspelled literal, then accepts
            // the QSM's "did you mean Kennedy".
            let s = server.open_session("alice").unwrap();
            let typed = server.complete(s, "Kenn").unwrap();
            println!(
                "[alice] typing \"Kenn\" suggests: {:?}",
                typed
                    .suggestions
                    .iter()
                    .map(|c| c.text.as_str())
                    .collect::<Vec<_>>()
            );
            server
                .set_row(s, 0, TripleInput::new("?person", "surname", "Kennedys"))
                .unwrap();
            let out = server.run(s).unwrap();
            println!(
                "[alice] run #{}: {} answers, {} alternatives",
                out.attempts,
                out.answers.total_rows(),
                out.suggestions.alternatives.len()
            );
            let idx = out
                .suggestions
                .alternatives
                .iter()
                .position(|a| a.replacement == "Kennedy")
                .expect("Kennedy alternative");
            let table = server.apply_alternative(s, idx).unwrap();
            println!(
                "[alice] accepted \"Kennedy\": {} prefetched answers",
                table.total_rows()
            );
            server.close_session(s);
        })
    };

    let bob = {
        let server = server.clone();
        std::thread::spawn(move || {
            // Bob composes a two-pattern query with keyword predicates:
            // people and the names of their birth places.
            let s = server.open_session("bob").unwrap();
            let typed = server.complete(s, "birth").unwrap();
            println!(
                "[bob]   typing \"birth\" suggests: {:?}",
                typed
                    .suggestions
                    .iter()
                    .map(|c| c.text.as_str())
                    .collect::<Vec<_>>()
            );
            server
                .set_row(s, 0, TripleInput::new("?who", "birth place", "?town"))
                .unwrap();
            server
                .set_row(s, 1, TripleInput::new("?town", "name", "?where"))
                .unwrap();
            let out = server.run(s).unwrap();
            println!(
                "[bob]   run #{}: {} answers (executed: {})",
                out.attempts,
                out.answers.total_rows(),
                out.executed
            );
            server.close_session(s);
        })
    };

    alice.join().unwrap();
    bob.join().unwrap();

    let m = server.metrics();
    println!(
        "\nserver: {} completions + {} runs served, cache {}/{} hits/misses, {} sessions left open",
        m.completion_requests,
        m.run_requests,
        m.completion_cache.hits + m.run_cache.hits,
        m.completion_cache.misses + m.run_cache.misses,
        m.open_sessions
    );
}

//! Federation: Sapphire in front of *two* endpoints holding different
//! datasets (people vs places), with the federated query processor doing
//! source selection and a cross-endpoint bound join — the LOD-cloud scenario
//! of the paper's §3 architecture.
//!
//! Run with: `cargo run -p sapphire-bench --example federation`

use std::sync::Arc;

use sapphire_core::prelude::*;
use sapphire_core::InitMode;
use sapphire_sparql::turtle;

const PEOPLE: &str = r#"
dbo:Person a owl:Class ; rdfs:subClassOf owl:Thing .
res:Ada a dbo:Person ; dbo:name "Ada Lovelace"@en ; dbo:birthPlace res:London .
res:Alan a dbo:Person ; dbo:name "Alan Turing"@en ; dbo:birthPlace res:London .
res:Grace a dbo:Person ; dbo:name "Grace Hopper"@en ; dbo:birthPlace res:NYC .
res:Emmy a dbo:Person ; dbo:name "Emmy Noether"@en ; dbo:birthPlace res:Erlangen .
res:Erlangen dbo:country res:Germany .
res:Germany dbo:name "Germany"@en .
"#;

const PLACES: &str = r#"
dbo:City a owl:Class ; rdfs:subClassOf owl:Thing .
res:London a dbo:City ; dbo:name "London"@en ; dbo:country res:UK .
res:NYC a dbo:City ; dbo:name "New York City"@en ; dbo:country res:USA .
res:UK a dbo:City ; dbo:name "United Kingdom"@en .
res:USA a dbo:City ; dbo:name "United States"@en .
"#;

fn main() {
    let people: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
        "people",
        turtle::parse(PEOPLE).expect("people turtle"),
        EndpointLimits::public_endpoint(100_000),
    ));
    let places: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
        "places",
        turtle::parse(PLACES).expect("places turtle"),
        EndpointLimits::public_endpoint(100_000),
    ));

    // Register both endpoints; initialization runs against each and the
    // caches merge (predicates, literals, classes).
    let pum = PredictiveUserModel::initialize(
        vec![people, places],
        Lexicon::dbpedia_default(),
        SapphireConfig::default(),
        InitMode::Federated,
    )
    .expect("initialization");
    for (name, stats) in pum.init_stats() {
        println!(
            "initialized {name:?}: {} queries, {} literals",
            stats.total_queries(),
            stats.literals_cached
        );
    }

    // Keywords from either dataset complete.
    for typed in ["Lovel", "United"] {
        let texts: Vec<String> = pum
            .complete(typed)
            .suggestions
            .iter()
            .take(3)
            .map(|s| s.text.clone())
            .collect();
        println!("complete {typed:?} → {texts:?}");
    }

    // A query joining people (endpoint 1) with places (endpoint 2): the
    // federated processor bound-joins across sources. Emmy's whole chain
    // sits on `people`, so that endpoint alone matches every pattern; the
    // answer still holds every person, as one endpoint holding both
    // datasets would return.
    let out = pum
        .run_str(
            r#"SELECT ?name ?country WHERE {
                 ?p dbo:name ?name ; dbo:birthPlace ?city .
                 ?city dbo:country ?c . ?c dbo:name ?country
               }"#,
        )
        .expect("query parses");
    println!("\ncross-endpoint join ({} rows):", out.answers.len());
    print!("{}", out.answers.to_table());

    // A pattern both endpoints match: their rows are unioned as full
    // bindings and the query — a COUNT, a sliced order — applied once, so
    // the answer is that of one endpoint holding both datasets (five names
    // on `people`, four on `places`).
    let fed = pum.federation();
    let count = fed
        .select("SELECT (COUNT(?x) AS ?n) WHERE { ?x dbo:name ?name }")
        .expect("count over both endpoints");
    let n = count.sole_value().expect("one count").lexical();
    println!("\nnames across both endpoints: {n}");
    let first = fed
        .select("SELECT ?name WHERE { ?x dbo:name ?name } ORDER BY ?name LIMIT 2")
        .expect("sliced order over both endpoints");
    println!("first two names ({} rows):", first.len());
    print!("{}", first.to_table());
}
